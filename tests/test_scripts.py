"""Script tests: each runnable script finishes on small arguments, and the
benchmark pair runner's summary follows its stated arithmetic."""

import hashlib
import importlib.util
import json
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


def test_page_faults_prints_every_kind_of_the_tiny_cycle(capsys):
    argv = ["operator_bounds", "--size", "tiny", "--cycles", "2"]
    assert load_script("page_faults").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["kind", "calls", "median_ms", "faults/call", "sys_ms/call"]
    rows = [line.split() for line in lines[1:-1]]
    # 8 operations on 3 families, two of which share the kind label n4
    assert len(rows) == 16 and sum(int(row[1]) for row in rows) == 2 * 24
    assert lines[-1].startswith("per cycle over 2 cycles: call ms ")


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


def bench_result(failed, **values):
    return json.dumps({"correct": not failed, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}})


def test_bench_pairs_summarizes_fixed_records_by_the_stated_arithmetic():
    module = load_script("bench_pairs")
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                           {"name": "setup_s", "better": "lower", "bound": 0.25},
                           {"name": "op_tail_ms", "better": "lower", "bound": 0.25}]}
    # setup_s and op_tail_ms: the parent's quartiles span its whole median
    sides = {"parent": ([100, 110, 90, 105], [40.0] * 4, [0] * 4, [1, 3] * 2, [10, 30] * 2),
             "change": ([250, 260, 240, 255], [45.0] * 4, [0, 0, 1, 0], [2.1] * 4, [9.0] * 4)}
    runs = [{"workload": "w", "pair": i, "side": side,
             "result": bench_result(fails[i], ops_per_s=ops[i], peak_rss_mb=rss[i],
                                    setup_s=setup[i], op_tail_ms=tail[i])}
            for side, (ops, rss, fails, setup, tail) in sides.items() for i in range(4)]
    # a pair with one side only is left out of every statistic
    runs.append({"workload": "w", "pair": 4, "side": "parent",
                 "result": bench_result(5, ops_per_s=1.0, peak_rss_mb=1.0, setup_s=1.0,
                                        op_tail_ms=1.0)})
    runs.append({"workload": "w", "pair": 4, "side": "change", "returncode": 1, "result": None})
    out = module.summarize(runs, spec, ["w:ops_per_s", "w:peak_rss_mb"])
    w = out["workloads"]["w"]
    assert (w["pairs"], w["failed_operations"], w["failed_operations_parent"]) == (4, 1, 0)
    ops = w["metrics"]["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (102.5, 252.5)
    assert ops["parent_quartiles"] == [97.5, 106.25]  # inclusive: 90 + 0.75 * 10, 105 + 0.25 * 5
    assert ops["change_won"] == 4 and ops["verdict"] == "within"
    assert ops["worse_by"] == pytest.approx(-150.0 / 102.5)
    assert ops["parent_iqr_over_median"] == pytest.approx(8.75 / 102.5)
    assert ops["median_gap_over_parent_iqr"] == pytest.approx(150.0 / 8.75)
    rss = w["metrics"]["peak_rss_mb"]
    assert rss["worse_by"] == pytest.approx(0.125) and rss["verdict"] == "crossed"
    assert rss["change_won"] == 0 and rss["median_gap_over_parent_iqr"] is None
    # within its bound in the median, but the parent's spread exceeds the bound
    setup = w["metrics"]["setup_s"]
    assert setup["worse_by"] == pytest.approx(0.05) and setup["verdict"] == "unresolved"
    assert setup["parent_iqr_over_median"] == 1.0
    # the same spread, but every change run beats every parent run
    assert w["metrics"]["op_tail_ms"]["verdict"] == "within"
    assert out["crossed"] == ["w pair 4 change: exit 1", "w.peak_rss_mb: worse by +0.125, bound 0.1",
                              "w: failed share 0.0025 > parent's 0.0000"]
    assert out["unresolved"] == ["w.setup_s: parent IQR 1.000 of its median, bound 0.25, "
                                 "worse by +0.050"]
    assert out["claims"]["w:ops_per_s"]["met"] and not out["claims"]["w:peak_rss_mb"]["met"]


def test_bench_pairs_interleaves_workloads_and_alternates_the_first_side():
    module = load_script("bench_pairs")
    got = module.schedule(["a", "b"])
    base, pc = module.SEED_BASE, ("parent", "change")
    assert len(got) == 2 * module.PAIRS
    assert got[:3] == [(0, "a", base, pc), (0, "b", base + 20, pc), (1, "a", base + 1, pc[::-1])]
