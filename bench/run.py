#!/usr/bin/env python3
"""opgeom benchmark: one seeded closed-loop workload per run, one client.

    python3 bench/run.py --workload chart_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a record of the run: input digest, environment, raw
(unnormalized) figures, tail percentile and sample count, failed checks.
Traced runs also write every span to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("chart_sweep", "path_integrators", "operator_bounds")
SETUP_CHILDREN = {"full": 4, "tiny": 1}
TAIL_ABOVE = 10           # samples above the reported tail latency
PROBE_EVERY_S = 0.25
# Host phases last seconds, so the median of the probes within a second of
# an operation tracks them while averaging out the jitter of single probes.
PROBE_WINDOW_S = 1.0
# Times of host_probe()'s two loops on the reference host (2-core Xeon at
# 2.1 GHz) when no neighbour competes for the core.  A latency is scaled by
# reference / (probe time around it): see "Host-speed normalization" in
# bench/README.md.
PROBE_REF_S = {"python": 2.4e-3, "blas": 0.46e-3}


def host_probe() -> dict:
    """Seconds taken by fixed loops that call no opgeom code.

    "python" is a pure-Python float loop plus a loop of small-array numpy
    calls, the two instruction mixes of the library's inner loops; measured
    next to product integrals, Stokes loops, geodesics and n=16 projections,
    it tracked their host slowdowns better than either part alone.  "blas"
    is ten 64x64 complex matrix products, the share of the n=64 operator
    families; it is the fastest of three repeats, because a matrix product
    now and then waits tens of milliseconds for its BLAS threads to wake.
    """
    import numpy as np

    t0 = time.perf_counter()
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    v = np.arange(3.0)
    for i in range(600):
        a = np.array([math.sin(i), 1.0, 2.0])
        s += float(v @ (a * a))
    python = time.perf_counter() - t0
    k = np.arange(64.0)
    dft = np.exp(-2j * math.pi * np.outer(k, k) / 64.0) / 8.0
    blas = math.inf
    for _ in range(3):
        t1 = time.perf_counter()
        for _ in range(10):
            dft @ dft.conj()
        blas = min(blas, time.perf_counter() - t1)
    return {"python": python, "blas": blas}


def setup(workload: str, seed: int, size: str):
    """Import opgeom and build the inputs; returns (inputs, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import opgeom  # noqa: F401  (timed: the import is part of set-up)

    import workloads
    inputs = workloads.build(workload, seed, size)
    elapsed = time.perf_counter() - t0
    return inputs, elapsed


def setup_only(args) -> int:
    """Child mode: one timed set-up, printed as JSON."""
    inputs, elapsed = setup(args.workload, args.seed, args.size)
    print(json.dumps({"setup_s": elapsed, "digest": inputs.digest}))
    return 0


def child_setups(args, count: int) -> list:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# the closed loop

class Loop:
    """Runs whole cycles of slots, timing each call, checking each output."""

    def __init__(self, slots, traced_slots=None, tracer=None):
        self.slots = slots
        self.traced_slots = traced_slots
        self.tracer = tracer
        self.records = []        # one dict per timed operation
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.probes = []         # (time, host_probe()) every PROBE_EVERY_S

    def _maybe_probe(self):
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probes.append((time.perf_counter(), host_probe()))

    def normalize(self):
        """Scale each timing by the host-speed factor: the reference probe
        time over the median probe within PROBE_WINDOW_S of the operation's
        midpoint (or the probes just before and after it)."""
        self._maybe_probe()
        times = [t for t, _ in self.probes]
        for rec in self.records:
            kind = rec["probe"]
            mid = rec["t0"] + rec["dt"] / 2.0
            near = self.probes[bisect.bisect_left(times, mid - PROBE_WINDOW_S):
                               bisect.bisect_right(times, mid + PROBE_WINDOW_S)]
            if not near:
                i = bisect.bisect_right(times, rec["t0"]) - 1
                near = self.probes[max(i, 0): i + 2]
            rec["factor"] = PROBE_REF_S[kind] / statistics.median(p[kind] for _, p in near)

    def warm_up(self):
        """One untimed pass: first-call costs and check references."""
        for slot in self.slots:
            self._run(slot, traced=False, op_id=-1, timed=False)

    def run(self, seconds: float, min_cycles: int):
        t_start = time.perf_counter()
        cycle = 0
        while True:
            traced = self.tracer is not None and cycle % 2 == 1
            if traced:
                self.tracer.install()
            try:
                for slot in (self.traced_slots if traced else self.slots):
                    self._run(slot, traced, op_id=len(self.records), timed=True)
            finally:
                if traced:
                    self.tracer.uninstall()
            cycle += 1
            if cycle >= min_cycles and time.perf_counter() - t_start >= seconds:
                return

    def _run(self, slot, traced: bool, op_id: int, timed: bool):
        from opgeom.errors import SingularGramWarning

        tracer = self.tracer if traced else None
        self._maybe_probe()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.begin(op_id)
            t0 = time.perf_counter()
            try:
                out, exc = slot.call(), None
            except Exception as e:  # the outcome is judged below
                out, exc = None, e
            dt = time.perf_counter() - t0
            op_trace = tracer.end() if tracer is not None else None
        singular = sum(issubclass(w.category, SingularGramWarning) for w in caught)
        rec = {"kind": slot.kind, "t0": t0, "dt": dt, "probe": slot.probe, "traced": traced,
               "singular": singular, "obs": {}, "trace": op_trace}
        error = self._verdict(slot, out, exc, singular, rec["obs"])
        self._account(slot, error)
        if timed:
            self.records.append(rec)

    @staticmethod
    def _verdict(slot, out, exc, singular, obs):
        if slot.expect_error is not None:
            if not isinstance(exc, slot.expect_error):
                return f"expected {slot.expect_error.__name__}, got {exc!r}"
        elif exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        if slot.expect_warning and not singular:
            return "expected SingularGramWarning"
        if singular and not slot.expect_warning:
            return f"unexpected SingularGramWarning x{singular}"
        if exc is None:
            try:
                return slot.check(out, obs)
            except Exception as e:  # a crashing check is a failed check
                return f"check raised {type(e).__name__}: {e}"
        return None

    def _account(self, slot, error):
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{slot.kind}: {error}")


# ---------------------------------------------------------------------------
# metrics

def tail(values):
    """Value with TAIL_ABOVE samples above it, its percentile, sample count."""
    s = sorted(values)
    n = len(s)
    k = n - 1 - TAIL_ABOVE if n > TAIL_ABOVE else n - 1
    return s[k], 100.0 * (k + 1) / n, n


def latency_metrics(records) -> tuple[dict, dict]:
    norm = [r["dt"] * r["factor"] for r in records]
    raw = [r["dt"] for r in records]
    out = {}
    for key, vals in (("norm", norm), ("raw", raw)):
        t, pct, n = tail(vals)
        out[key] = {"ops_per_s": len(vals) / sum(vals), "op_p50_ms": 1e3 * statistics.median(vals),
                    "op_tail_ms": 1e3 * t, "tail_percentile": pct, "samples": n}
    return out["norm"], out["raw"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_lines() -> dict:
    out = {}
    for layer in LAYERS:
        with open(SRC / "opgeom" / f"{layer}.py", encoding="utf-8") as fh:
            out[layer] = sum(1 for line in fh if line.strip())
    return out


def import_times() -> tuple[float, float]:
    """(import opgeom, scipy share) in ms, from ``python -X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import opgeom"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    total_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "opgeom":
            total_us = cum_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return total_us / 1e3, scipy_us / 1e3


def layer_metrics(loop: Loop, sizes: dict) -> tuple[dict, dict]:
    import numpy as np

    traced = [r for r in loop.records if r["traced"]]
    plain = [r for r in loop.records if not r["traced"]]
    n = len(traced)
    wall = sum(r["dt"] * r["factor"] for r in traced)
    m = {}
    for layer in LAYERS:
        self_s = sum(r["trace"].self_s[layer] * r["factor"] for r in traced)
        m[f"{layer}.calls"] = sum(r["trace"].calls[layer] for r in traced) / n
        m[f"{layer}.self_ms"] = 1e3 * self_s / n
        m[f"{layer}.share"] = self_s / wall
    evals = sum(r["trace"].chart_evals for r in traced)
    geo = [r for r in traced if "rk4_steps" in r["obs"]]
    paths = [r for r in traced if "path_steps" in r["obs"]]
    grams = [g for r in traced for g in r["trace"].grams]
    m["hypersurface.chart_evals"] = evals / n
    m["hypersurface.distinct_ratio"] = (
        sum(r["trace"].distinct_points for r in traced) / evals if evals else 0.0)
    m["hypersurface.evals_per_rk4_step"] = (
        sum(r["trace"].chart_evals for r in geo) / sum(r["obs"]["rk4_steps"] for r in geo)
        if geo else 0.0)
    m["hypersurface.left_domain"] = float(sum(r["obs"].get("left_domain", 0) for r in traced))
    m["hypersurface.gauss_err_max"] = max(
        [r["obs"]["gauss_err"] for r in loop.records if "gauss_err" in r["obs"]], default=0.0)
    m["transport.path_samples"] = sum(r["trace"].path_samples for r in traced) / n
    m["transport.samples_per_step"] = (
        sum(r["trace"].path_samples for r in paths) / sum(r["obs"]["path_steps"] for r in paths)
        if paths else 0.0)
    m["transport.oracle_rel_err"] = max(
        [r["obs"]["oracle_rel_err"] for r in loop.records if "oracle_rel_err" in r["obs"]],
        default=0.0)
    m["projection.gram_entries"] = sum(g.p ** 2 for g in grams) / n
    m["projection.rank_deficient"] = sum(not g.is_full_rank for g in grams) / n
    m["projection.gram_cond_max"] = max(
        [float(np.linalg.cond(g.m)) for g in grams if g.is_full_rank], default=0.0)
    m["uncertainty.singular_warnings"] = sum(r["singular"] for r in traced) / n
    m["algebra.state_evals"] = sum(r["trace"].state_evals for r in traced) / n
    import_ms, scipy_ms = import_times()
    m["cli.import_ms"] = import_ms
    m["cli.import_scipy_ms"] = scipy_ms
    for layer, count in sizes.items():
        m[f"{layer}.src_lines"] = float(count)
    rate_plain = len(plain) / sum(r["dt"] for r in plain)
    rate_traced = n / sum(r["dt"] for r in traced)
    m["trace.overhead_ratio"] = rate_traced / rate_plain
    top = max(LAYERS, key=lambda layer: m[f"{layer}.self_ms"])
    return m, {"top_layer": top, "traced_ops": n, "untraced_ops": len(plain)}


# ---------------------------------------------------------------------------
# environment

def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(sizes: dict) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": vendor, "blas_threads": blas_threads(),
            "nproc": os.cpu_count(), "git_commit": commit, "src_lines": sizes}


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description="opgeom benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few small inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opgeom" / "__init__.py").is_file():
        print(f"error: no opgeom sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)

    inputs, setup_main = setup(args.workload, args.seed, args.size)
    tracer = Tracer() if args.trace else None
    loop = Loop(inputs.slots(), inputs.slots(tracer) if tracer else None, tracer)
    loop.warm_up()
    loop.run(args.seconds, min_cycles=2 if tracer else 1)
    loop.normalize()
    rss = peak_rss_mb()
    sizes = src_lines()
    setups = [{"setup_s": setup_main, "digest": inputs.digest}]
    setups += child_setups(args, SETUP_CHILDREN[args.size])

    untraced = [r for r in loop.records if not r["traced"]]
    norm, raw = latency_metrics(untraced)
    digests = {s["digest"] for s in setups}
    if len(digests) != 1:
        loop.failed += 1
        loop.attempted += 1
        loop.failures.append(f"set-up digests differ across processes: {sorted(digests)}")
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "input_digest": inputs.digest,
        "env": environment(sizes),
        "failed_ratio": loop.failed / loop.attempted,
        "tail": {"percentile": norm["tail_percentile"], "samples": norm["samples"],
                 "above": TAIL_ABOVE},
        "raw": raw,
        "host_factor_median": statistics.median(r["factor"] for r in untraced),
        "kind_p50_ms": {k: 1e3 * statistics.median(r["dt"] * r["factor"] for r in untraced
                                                    if r["kind"] == k)
                        for k in dict.fromkeys(r["kind"] for r in untraced)},
        "failures": loop.failures,
    }
    if tracer is not None:
        metrics_raw, extra = layer_metrics(loop, sizes)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "input_digest": inputs.digest})
        record.update(extra, trace_file=str(trace_path.relative_to(ROOT)))
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics_raw.items()}
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "ops_per_s": norm["ops_per_s"], "op_p50_ms": norm["op_p50_ms"],
                  "op_tail_ms": norm["op_tail_ms"],
                  "ok_ratio": 1.0 - loop.failed / loop.attempted, "peak_rss_mb": rss}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "ok_ratio": "ratio", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = dict(
    [(f"{layer}.{name}", unit) for layer in LAYERS
     for name, unit in (("calls", "count"), ("self_ms", "ms"), ("share", "ratio"))]
    + [("hypersurface.chart_evals", "count"), ("hypersurface.distinct_ratio", "ratio"),
       ("hypersurface.evals_per_rk4_step", "count"), ("hypersurface.left_domain", "count"),
       ("hypersurface.gauss_err_max", "abs"), ("transport.path_samples", "count"),
       ("transport.samples_per_step", "count"), ("transport.oracle_rel_err", "ratio"),
       ("projection.gram_entries", "count"), ("projection.rank_deficient", "count"),
       ("projection.gram_cond_max", "ratio"), ("uncertainty.singular_warnings", "count"),
       ("algebra.state_evals", "count"), ("cli.import_ms", "ms"), ("cli.import_scipy_ms", "ms"),
       ("trace.overhead_ratio", "ratio")]
    + [(f"{layer}.src_lines", "lines") for layer in LAYERS])


if __name__ == "__main__":
    sys.exit(main())
