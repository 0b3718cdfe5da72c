"""Smoke tests: each runnable script finishes on small arguments."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# SHA-256 of every file scripts/cli_snapshot.py writes, in `sha256sum` format;
# after a change that is meant to move CLI bytes, regenerate it with
#   PYTHONPATH=src python3 scripts/cli_snapshot.py OUT && (cd OUT && sha256sum *)
SNAPSHOT_DIGESTS = Path(__file__).resolve().parent / "data" / "cli_snapshot.sha256"


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


def test_cli_snapshot_bytes_match_the_pinned_digests(tmp_path):
    assert load_script("cli_snapshot").main([str(tmp_path)]) == 0
    want = dict(reversed(line.split()) for line in
                SNAPSHOT_DIGESTS.read_text(encoding="utf-8").splitlines())
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, f"CLI output bytes moved in {moved}"
