#!/usr/bin/env python3
"""Write the stdout of a fixed list of CLI runs to a directory.

Each run ``<name>`` leaves ``OUTDIR/<name>.out`` (stdout, byte for byte) and
one line in ``OUTDIR/index.txt`` with its exit code and stderr.  Two source
trees print the same bytes exactly when their snapshots compare equal:

    PYTHONPATH=src python3 scripts/cli_snapshot.py /tmp/snap_new
    PYTHONPATH=../other/src python3 scripts/cli_snapshot.py /tmp/snap_old
    diff -r /tmp/snap_old /tmp/snap_new

The runs are ``metric``, ``christoffel`` (both routes), ``curvature``,
``geodesic``, ``bianchi`` and ``report --seed 7`` on each builtin
two-parameter chart, plus ``holonomy`` and ``stokes``.  They run in one
process through ``opgeom.cli.run``.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from opgeom.cli import run

# chart id -> (chart JSON, evaluation point, geodesic start velocity)
CHARTS = {
    "sphere": ({"id": "sphere", "params": {"r": 1.0}}, "1.1,0.7", "0.3,0.8"),
    "torus": ({"id": "torus", "params": {"R": 2.0, "r": 0.5}}, "0.4,1.3", "0.6,-0.2"),
    "paraboloid": ({"id": "paraboloid", "params": {"a": 0.7}}, "0.3,-0.2", "-0.4,0.5"),
    "flat_plane": ({"id": "flat_plane"}, "0.2,0.5", "0.7,0.1"),
}


def snapshot_runs(chart_dir: Path) -> list:
    """(name, argv) of every run; chart files are written into chart_dir."""
    runs = []
    for cid, (obj, point, v0) in CHARTS.items():
        path = chart_dir / f"{cid}.json"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        at = ["--chart", str(path), "--point", point]
        runs += [
            (f"{cid}-metric", ["metric", *at]),
            (f"{cid}-christoffel-direct", ["christoffel", *at, "--method", "direct"]),
            (f"{cid}-christoffel-metric", ["christoffel", *at, "--method", "metric"]),
            (f"{cid}-curvature", ["curvature", *at]),
            (f"{cid}-geodesic", ["geodesic", "--chart", str(path), f"--u0={point}",
                                 f"--v0={v0}", "--tau", "0.5", "--step", "0.05"]),
            (f"{cid}-bianchi", ["bianchi", *at]),
            (f"{cid}-report", ["report", "--chart", str(path), "--seed", "7"]),
        ]
    # a meridian through the pole leaves the sphere chart half way
    runs.append(("sphere-geodesic-pole", ["geodesic", "--chart", str(chart_dir / "sphere.json"),
                                          "--u0=0.5,0.3", "--v0=-1,0", "--tau", "1",
                                          "--step", "0.05"]))
    runs += [("holonomy", ["holonomy", "--step", "0.001"]), ("stokes", ["stokes"])]
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory for the .out files and index.txt")
    args = parser.parse_args(argv)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in snapshot_runs(Path(tmp)):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(cmd)
            (out / f"{name}.out").write_text(stdout.getvalue(), encoding="utf-8")
            index.append(f"{name} exit={code} stderr={stderr.getvalue().strip()!r}")
    (out / "index.txt").write_text("\n".join(index) + "\n", encoding="utf-8")
    print(f"{len(index)} runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
