#!/usr/bin/env python3
"""Minor page faults and system time per operation kind of a benchmark workload.

    python3 scripts/page_faults.py operator_bounds [--seed 1] [--cycles 30] [--size full]

Runs the cycle of ``bench/workloads.py`` in this process as ``bench/run.py``
does, without its host-speed probes: one untimed warm-up cycle, then
``--cycles`` cycles, each call followed by its output check
(``run.Loop._verdict``).  It reads ``resource.getrusage`` around each call.
For each operation kind it prints the calls made, the median wall time of a
call in ms and the mean minor page faults and system-time ms per call; the
last line gives the call time, faults and system ms of a whole cycle (the
sum over its calls): the median and the range over the cycles.  Times are
raw, not host-normalized.  It exits 1 if a check failed, after printing the
failures.

A fault is the kernel's first touch of a page: memory that the allocator
returned to the system and takes back pays one per 4 KiB page again, which a
steady-state ``timeit`` of one call alone does not see.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chart_sweep", "path_integrators", "operator_bounds")


def measure(workload: str, seed: int, cycles: int, size: str):
    """({kind: [(ms, faults, system ms) per call]}, [(ms, faults, system ms) per
    cycle], [failed checks]) of ``cycles`` timed cycles after one warm-up cycle."""
    for path in (ROOT / "src", ROOT / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import run
    import workloads
    from opgeom.errors import SingularGramWarning

    slots = workloads.build(workload, seed, size).slots()
    calls = {slot.kind: [] for slot in slots}
    totals, failures = [], []
    for cycle in range(cycles + 1):  # cycle 0 is the warm-up
        total = (0.0, 0, 0.0)
        for slot in slots:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                r0 = resource.getrusage(resource.RUSAGE_SELF)
                t0 = time.perf_counter()
                try:
                    out, exc = slot.call(), None
                except Exception as e:  # the outcome is judged below
                    out, exc = None, e
                dt = time.perf_counter() - t0
                r1 = resource.getrusage(resource.RUSAGE_SELF)
            singular = sum(issubclass(w.category, SingularGramWarning) for w in caught)
            error = run.Loop._verdict(slot, out, exc, singular, {})
            if error:
                failures.append(f"{slot.kind}: {error}")
            if cycle:
                call = (1e3 * dt, r1.ru_minflt - r0.ru_minflt, 1e3 * (r1.ru_stime - r0.ru_stime))
                calls[slot.kind].append(call)
                total = tuple(map(sum, zip(total, call)))
        if cycle:
            totals.append(total)
    return calls, totals, failures


def spread(values) -> str:
    return f"{statistics.median(values):.1f} ({min(values):.1f}-{max(values):.1f})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cycles", type=int, default=30)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if args.cycles < 1:
        ap.error("--cycles must be at least 1")
    calls, totals, failures = measure(args.workload, args.seed, args.cycles, args.size)
    width = max(len(kind) for kind in calls)
    print(f"{'kind':<{width}}  calls  median_ms  faults/call  sys_ms/call")
    for kind, rows in calls.items():
        ms, faults, sys_ms = zip(*rows)
        print(f"{kind:<{width}}  {len(rows):>5}  {statistics.median(ms):>9.3f}  "
              f"{statistics.fmean(faults):>11.1f}  {statistics.fmean(sys_ms):>11.3f}")
    ms, faults, sys_ms = zip(*totals)
    print(f"per cycle over {len(totals)} cycles: call ms {spread(ms)}, faults {spread(faults)}, "
          f"system ms {spread(sys_ms)}")
    for failure in failures[:20]:
        print(f"failed: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
