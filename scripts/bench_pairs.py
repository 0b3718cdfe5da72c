#!/usr/bin/env python3
"""Run interleaved benchmark pairs of the parent tree and the change, and
write one ``BENCH_<n>.json``.

    python3 scripts/bench_pairs.py --out BENCH_34.json --claim chart_sweep:ops_per_s

Run it before committing the change: the parent is ``HEAD``, written with
``git archive`` to ``.bench_build/parent``, and the change is the working
tree's files that ``git add -A`` would stage (tracked and untracked, minus
the ignored), copied to ``.bench_build/change``.  Each side runs the
``bench/run.py`` of its own tree, unchanged, as ``python3 bench/run.py
--workload W --seed S --seconds T`` from that tree's root, with no
``PYTHONPATH`` and T the ``run_seconds`` of ``BENCHMARK.json``.

Every workload of ``BENCHMARK.json`` runs ``PAIRS`` pairs.  Pair i of every
workload runs before pair i + 1 of any, and even pairs run the parent first,
odd ones the change.  Pair i of the k-th workload runs seed
``SEED_BASE + 20 k + i`` on both sides.

The output holds the runner's argv, every run made, with the last two
stdout lines of each (the run's record and result) verbatim, and a summary
per workload: for each end-to-end metric of ``BENCHMARK.json`` the median
and quartiles (``statistics.quantiles(method='inclusive')``) of each side,
the pairs the change won (strictly better than the parent of the same
pair), ``worse_by`` (the relative change of the median in the metric's
worse direction) and the gap of the medians over the parent's
interquartile range.  A metric's ``verdict`` is ``crossed`` when
``worse_by`` exceeds its bound, else ``unresolved`` when the parent's
interquartile range exceeds the bound times its median and some change run
is not better than every parent run, else ``within``.  Every crossed or
unresolved metric, every workload where the change failed a larger share
of operations, and every run that exited non-zero are listed and printed.
A ``--claim W:M`` is met when the change won at least 9 pairs in 10 and
its median beats the parent's by more than the parent's interquartile
range.  ``--earlier`` outputs of this runner, made for the same change
before, are carried whole under ``earlier``, so that no run made is
dropped; they enter no statistic.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SIDES = ("parent", "change")
PAIRS = 10
SEED_BASE = 3501


def git(*args: str, text: bool = True):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=text,
                          check=True).stdout


def build_tree(side: str, rev: str | None) -> Path:
    """The tree of rev (None: the working tree as ``git add -A`` would stage
    it) written afresh to ``.bench_build/<side>``."""
    dest = BUILD / side
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if rev is not None:
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, text=False))) as tar:
            tar.extractall(dest, filter="data")
        return dest
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run in tree: its return code and last two stdout lines."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=seconds + 600)
    lines = proc.stdout.strip().splitlines()
    return {"returncode": proc.returncode,
            "record": lines[-2] if len(lines) >= 2 else None,
            "result": lines[-1] if lines else None,
            "stderr_tail": proc.stderr[-2000:] if proc.returncode else ""}


def schedule(workloads: list) -> list:
    """(pair index, workload, seed, sides in run order) of every pair, in run order."""
    return [(i, workload, SEED_BASE + 20 * k + i, SIDES if i % 2 == 0 else SIDES[::-1])
            for i in range(PAIRS) for k, workload in enumerate(workloads)]


def quartiles(values: list) -> list:
    if len(values) < 2:  # one pair: statistics.quantiles needs two values
        return values * 2
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: list, spec: dict, claims=()) -> dict:
    """Summary per workload of the runs (each with ``workload``, ``pair``,
    ``side`` and a verbatim ``result`` line), against the end-to-end metrics
    of spec, a ``BENCHMARK.json`` document."""
    out = {}
    crossed = [f"{r['workload']} pair {r['pair']} {r['side']}: exit {r['returncode']}"
               for r in runs if r.get("returncode", 0) != 0]
    unresolved = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload and r.get("result"):
                by_pair.setdefault(r["pair"], {})[r["side"]] = json.loads(r["result"])
        done = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
        if not done:
            continue
        fails = {s: sum(by_pair[p][s]["failed"] for p in done) for s in SIDES}
        tries = {s: sum(by_pair[p][s]["attempted"] for p in done) for s in SIDES}
        metrics = {}
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            vals = {s: [by_pair[p][s]["metrics"][name]["value"] for p in done] for s in SIDES}
            med = {s: statistics.median(vals[s]) for s in SIDES}
            q = {s: quartiles(vals[s]) for s in SIDES}
            won = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
            apart = (max(vals["change"]) < min(vals["parent"]) if lower
                     else min(vals["change"]) > max(vals["parent"]))
            change = (med["change"] - med["parent"]) / med["parent"] if med["parent"] else 0.0
            worse_by = change if lower else -change
            iqr = q["parent"][1] - q["parent"][0]
            gap = abs(med["change"] - med["parent"])
            spread = iqr / abs(med["parent"]) if med["parent"] else 0.0
            verdict = ("crossed" if worse_by > m["bound"]
                       else "unresolved" if spread > m["bound"] and not apart else "within")
            metrics[name] = {
                "parent_median": med["parent"], "parent_quartiles": q["parent"],
                "change_median": med["change"], "change_quartiles": q["change"],
                "change_won": won, "worse_by": worse_by, "bound": m["bound"],
                "parent_iqr_over_median": spread, "verdict": verdict,
                "median_gap_over_parent_iqr": gap / iqr if iqr else None}
            if verdict == "crossed":
                crossed.append(f"{workload}.{name}: worse by {worse_by:+.3f}, bound {m['bound']}")
            elif verdict == "unresolved":
                unresolved.append(f"{workload}.{name}: parent IQR {spread:.3f} of its median, "
                                  f"bound {m['bound']}, worse by {worse_by:+.3f}")
        share = {s: fails[s] / tries[s] for s in SIDES}
        if share["change"] > share["parent"]:
            crossed.append(f"{workload}: failed share {share['change']:.4f} > parent's {share['parent']:.4f}")
        out[workload] = {"pairs": len(done), "failed_operations": fails["change"],
                         "failed_operations_parent": fails["parent"], "metrics": metrics}
    claimed = {}
    for claim in claims:
        workload, name = claim.split(":")
        m = out.get(workload, {}).get("metrics", {}).get(name)
        if m is None:
            claimed[claim] = {"met": False, "why": "no completed pairs"}
            continue
        iqr = m["parent_quartiles"][1] - m["parent_quartiles"][0]
        better = m["worse_by"] < 0
        met = (m["change_won"] >= 0.9 * out[workload]["pairs"] and better
               and abs(m["change_median"] - m["parent_median"]) > iqr)
        claimed[claim] = {"met": met, "change_won": m["change_won"],
                          "pairs": out[workload]["pairs"], "worse_by": m["worse_by"]}
    return {"workloads": out, "crossed": crossed, "unresolved": unresolved, "claims": claimed}


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((tree / "src" / "opgeom").glob("*.py")))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--claim", nargs="*", default=[], metavar="WORKLOAD:METRIC")
    ap.add_argument("--earlier", nargs="*", default=[], type=Path, metavar="FILE",
                    help="earlier outputs of this runner for the same change, kept whole")
    ap.add_argument("--out", required=True, type=Path)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    earlier = [json.loads(path.read_text(encoding="utf-8")) for path in args.earlier]
    parent_rev = git("rev-parse", "HEAD").strip()
    trees = {"parent": build_tree("parent", parent_rev), "change": build_tree("change", None)}
    runs = []
    for i, workload, seed, order in schedule([w["name"] for w in spec["workloads"]]):
        for n, side in enumerate(order):
            run = {"workload": workload, "pair": i, "seed": seed, "seconds": seconds,
                   "side": side, "ran_first": n == 0}
            run.update(run_once(trees[side], workload, seed, seconds))
            runs.append(run)
            print(f"pair {i} {workload} seed {seed} {side}: exit {run['returncode']}",
                  file=sys.stderr, flush=True)
    summary = summarize(runs, spec, args.claim)
    doc = {
        "argv": ["python3", "scripts/bench_pairs.py", *argv],
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> --seconds {seconds}",
        "parent": parent_rev,
        "change": "the working tree as git add -A stages it",
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "runs_note": "written by scripts/bench_pairs.py: see its docstring for the schedule, "
                     "seeds and summary arithmetic",
        "summary": summary["workloads"],
        "crossed": summary["crossed"],
        "unresolved": summary["unresolved"],
        "claims": summary["claims"],
        "runs": runs,
        "earlier": earlier,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for line in summary["crossed"]:
        print(f"CROSSED {line}")
    for line in summary["unresolved"]:
        print(f"UNRESOLVED {line}")
    for claim, verdict in summary["claims"].items():
        print(f"claim {claim}: {'met' if verdict['met'] else 'NOT met'} {verdict}")
    for workload, s in summary["workloads"].items():
        for name, m in s["metrics"].items():
            print(f"{workload:16s} {name:12s} {m['parent_median']:.4g} -> {m['change_median']:.4g}"
                  f"  won {m['change_won']}/{s['pairs']}  worse_by {m['worse_by']:+.3f}"
                  f"  {m['verdict']}")
    return 1 if summary["crossed"] or summary["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
