"""Fast tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's tier-1 collection:
they start benchmark processes and measure nothing of the library's own
contract.
"""

import json
import math
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    res = bench(workload, trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_the_same_input_hash(workload):
    digests = [workloads.build(workload, seed, "tiny").digest for seed in (7, 7, 8)]
    assert digests[0] == digests[1] != digests[2]


def _outcome(slot) -> bytes:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return pickle.dumps(slot.call())
        except Exception as exc:
            return pickle.dumps((type(exc).__name__, str(exc)))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_keeps_outputs_bit_identical(workload):
    inputs = workloads.build(workload, 9, "tiny")
    plain = [_outcome(slot) for slot in inputs.slots()]
    tracer = tracing.Tracer()
    traced_slots = inputs.slots(tracer)
    tracer.install()
    try:
        traced = []
        for op_id, slot in enumerate(traced_slots):
            tracer.begin(op_id)
            traced.append(_outcome(slot))
            tracer.end()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans
