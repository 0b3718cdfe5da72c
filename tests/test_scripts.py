"""Smoke tests: each runnable script finishes on small arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("oscillator_bounds", ["--dim", "16"]),
    ("surface_geometry_sweep", ["--chart", "torus", "--count", "3"]),
])
def test_script_main_returns_zero(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out


def test_sweep_reports_a_parameter_the_chart_does_not_take_as_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("surface_geometry_sweep").main(["--chart", "sphere", "--a", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage:")
    assert err[-1].endswith("error: chart 'sphere' takes parameters ['r'], not ['a']")


def test_cli_snapshot_writes_every_run(tmp_path):
    module = load_script("cli_snapshot")
    assert module.main([str(tmp_path)]) == 0
    index = (tmp_path / "index.txt").read_text(encoding="utf-8").splitlines()
    names = [name for name, _ in module.snapshot_runs(tmp_path)]
    assert [line.split()[0] for line in index] == names
    assert all("exit=0" in line for line in index)
    assert all((tmp_path / f"{name}.out").read_text(encoding="utf-8") for name in names)
