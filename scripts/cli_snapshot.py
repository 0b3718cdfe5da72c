#!/usr/bin/env python3
"""Write the stdout of a fixed list of CLI runs to a directory.

Each run ``<name>`` leaves ``OUTDIR/<name>.out`` (stdout, byte for byte) and
one line in ``OUTDIR/index.txt`` with its exit code and stderr.  Each run of
a second list, inputs the CLI must reject with one ``E_INPUT`` line, leaves
one line in ``OUTDIR/errors.txt`` with its exit code, stdout size and stderr.
Two source trees print the same bytes exactly when their snapshots compare
equal:

    PYTHONPATH=src python3 scripts/cli_snapshot.py /tmp/snap_new
    PYTHONPATH=../other/src python3 scripts/cli_snapshot.py /tmp/snap_old
    diff -r /tmp/snap_old /tmp/snap_new

The runs are ``metric``, ``christoffel`` (both routes), ``curvature``,
``geodesic``, ``bianchi`` and ``report --seed 7`` on each builtin
two-parameter chart, plus ``holonomy`` (the stored path, a long one spanning
several product-integral blocks, and A(s) = s X + Y from two 3x3 and from
two 2x2 matrix files)
and ``stokes`` (default and a given loop).  The operator runs are ``gram``,
``project``, ``orthonormalize``, ``uncertainty``, ``energy-bound`` (each
under the default trace state and a density state), ``volume`` (trace and
sum states) and ``killing`` (su(2)) on fixed 3x3 matrix files.  The error runs are
a chart file with a 400-digit radius, one with a state object,
``christoffel`` at a NaN point, ``metric`` on a torus chart file with a
parameter the torus does not take (``big_r``) and on a sphere chart file
with a misspelled field (``fd_stpe``), ``metric`` on a paraboloid at a
point where the chart value overflows, ``christoffel`` on the sphere where
the stencil crosses the pole, ``holonomy`` along A(s) = s X + Y where the
samples overflow, four runs whose finite inputs overflow a Gram matrix,
a metric or a matrix exponential: ``metric`` on a sphere of radius 1e300,
``gram`` of a matrix with a 1e200 entry and the identity, ``holonomy`` with
X off-diagonal +-1e300, and ``stokes`` at 1e200,0.3, ``stokes`` at a
three-component point, and ``killing`` of structure constants with a NaN.
Four more overflow before a typed error: ``stokes`` at 1e77,1e154 with side
0.1, ``killing`` of symmetric 1e308 constants, ``energy-bound`` with 1e200
entries, and ``gram`` under a Gibbs state of beta 1e300.  All run in one
process through ``opgeom.cli.run``; stderr names chart files without their
directory, and an exception escaping ``run`` is recorded as
``exit=raised <type>``.
"""

import argparse
import contextlib
import io
import json
import os
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

# matrix file name -> matrix JSON: antihermitian X and Y of the holonomy runs,
# 3x3 (the BLAS route) and 2x2 (the array route, u(2) with nonzero traces)
MATRICES = {
    "X": {"dim": 3, "re": [0.0, 0.5, -0.2, -0.5, 0.0, 0.3, 0.2, -0.3, 0.0],
          "im": [0.1, 0.0, 0.4, 0.0, -0.2, 0.1, 0.4, 0.1, 0.3]},
    "Y": {"dim": 3, "re": [0.0, -0.25, 0.4, 0.25, 0.0, 0.15, -0.4, -0.15, 0.0],
          "im": [-0.3, 0.2, 0.0, 0.2, 0.35, -0.1, 0.0, -0.1, 0.05]},
    "X2": {"dim": 2, "re": [0.0, 0.5, -0.5, 0.0], "im": [0.2, 0.1, 0.1, -0.4]},
    "Y2": {"dim": 2, "re": [0.0, -0.25, 0.25, 0.0], "im": [-0.3, 0.35, 0.35, 0.15]},
}



def _matrix(rows) -> dict:
    """Matrix JSON of a list of rows of complex entries."""
    flat = [complex(x) for row in rows for x in row]
    return {"dim": len(rows), "re": [x.real for x in flat], "im": [x.imag for x in flat]}


# operator file name -> JSON: a general target A, hermitian B1 and B2, an
# antihermitian B3, a hamiltonian H, diagonal vectors V1..V3, a density
# state, the sum state and su(2) structure constants f[r, a, b], with
# [J_a, J_b] = f[r, a, b] J_r
SU2 = [[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
       [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
       [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]
OPERATOR_FILES = {
    "A": _matrix([[0.3 + 0.2j, -0.7 + 0.4j, 0.2 - 0.3j], [0.5, 1.1 + 0.6j, -0.4 + 0.1j],
                  [0.9 - 0.5j, 0.1 + 0.3j, -0.6 + 0.7j]]),
    "B1": _matrix([[1.0, 0.2 + 0.3j, -0.1], [0.2 - 0.3j, -0.5, 0.4j], [-0.1, -0.4j, 0.3]]),
    "B2": _matrix([[0.2, -0.6, 0.1 - 0.2j], [-0.6, 0.7, 0.3], [0.1 + 0.2j, 0.3, -0.9]]),
    "B3": _matrix([[0.5j, 0.3 + 0.1j, -0.2], [-0.3 + 0.1j, -0.2j, 0.4 + 0.4j],
                   [0.2, -0.4 + 0.4j, 0.1j]]),
    "H": _matrix([[1.0, 0.5, 0.0], [0.5, 2.0, 0.5j], [0.0, -0.5j, 3.0]]),
    "V1": _matrix([[1.0, 0, 0], [0, 0.5, 0], [0, 0, -0.2]]),
    "V2": _matrix([[0.3, 0, 0], [0, 1.2, 0], [0, 0, 0.4]]),
    "V3": _matrix([[-0.1, 0, 0], [0, 0.2, 0], [0, 0, 0.9]]),
    "density": {"kind": "density",
                "rho": _matrix([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.2]])},
    "sum": {"kind": "sum"},
    "su2": {"d": 3, "f": SU2},
}

# error run name -> (subcommand, chart JSON, point)
ERRORS = {
    "sphere-bigint": ("metric", {"id": "sphere", "params": {"r": 10 ** 400}}, "1.1,0.7"),
    "sphere-state-object": ("metric", {"id": "sphere", "state": {"kind": "trace"}}, "1.1,0.7"),
    "torus-christoffel-nan": ("christoffel", CHARTS["torus"][0], "nan,0.4"),
    # an overflowing chart value, and a stencil stepping over the pole
    "paraboloid-metric-huge": ("metric", {"id": "paraboloid"}, "1e200,0"),
    "sphere-christoffel-pole": ("christoffel", CHARTS["sphere"][0], "0.00005,0.4"),
    # a metric whose entries overflow
    "sphere-metric-huge-radius": ("metric", {"id": "sphere", "params": {"r": 1e300}}, "1.1,0.7"),
    # a parameter the chart does not take, and a misspelled field
    "chart-unknown-param": ("metric", {"id": "torus", "params": {"big_r": 3.0}}, "0.4,1.3"),
    "chart-unknown-field": ("metric", {"id": "sphere", "fd_stpe": 0.05}, "1.1,0.7"),
}

# matrix file name -> matrix JSON: X of an affine connection whose samples
# s X overflow for s > 1.8, one whose exponential overflows, a zero Y, and a
# matrix whose Gram entry overflows, with the identity; structure constants
# with f[0, 0, 1] = NaN, which compares false in every test, and with
# f[1, 0, 1] = f[1, 1, 0] = 1e308, whose antisymmetry test overflows; and a
# Gibbs state whose beta E overflows
OVERFLOW_MATRICES = {
    "X-huge": {"dim": 2, "re": [0.0, 1e308, -1e308, 0.0], "im": [0.0] * 4},
    "X-1e300": {"dim": 2, "re": [0.0, 1e300, -1e300, 0.0], "im": [0.0] * 4},
    "Y-zero": {"dim": 2, "re": [0.0] * 4, "im": [0.0] * 4},
    "big": {"dim": 3, "re": [1e200, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0], "im": [0.0] * 9},
    "eye": {"dim": 3, "re": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], "im": [0.0] * 9},
    "killing-nan": {"d": 2, "f": [0.0, float("nan")] + [0.0] * 6},
    "killing-huge": {"d": 2, "f": [0.0] * 5 + [1e308, 1e308, 0.0]},
    "gibbs-huge": {"kind": "gibbs", "beta": 1e300,
                   "h": {"dim": 2, "re": [1e10, 0.0, 0.0, -1e10], "im": [0.0] * 4}},
}


def snapshot_runs(chart_dir: Path) -> list:
    """(name, argv) of every run; chart and matrix files are written into chart_dir."""
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
    mat = {}
    for name, obj in MATRICES.items():
        path = chart_dir / f"{name}.json"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        mat[name] = ["--matrix", str(path)]
    op = {}
    for name, obj in OPERATOR_FILES.items():
        path = chart_dir / f"op-{name}.json"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        op[name] = ["--state" if name in ("density", "sum") else "--matrix", str(path)]
    bs = [*op["B1"], *op["B2"], *op["B3"]]
    for state in ("trace", "density"):
        given = op["density"] if state == "density" else []
        runs += [
            (f"gram-{state}", ["gram", *bs, *given]),
            (f"project-{state}", ["project", *op["A"], *bs, *given]),
            (f"orthonormalize-{state}", ["orthonormalize", *bs, *given]),
            (f"uncertainty-{state}", ["uncertainty", *op["B1"], *op["B2"], *given]),
            (f"energy-bound-{state}", ["energy-bound", *op["H"], *bs, *given]),
        ]
    vs = [*op["V1"], *op["V2"], *op["V3"]]
    runs += [
        ("volume-trace", ["volume", *vs]),
        ("volume-sum", ["volume", *vs, *op["sum"]]),
        ("killing-su2", ["killing", *op["su2"]]),
        ("holonomy", ["holonomy", "--step", "0.001"]),
        ("holonomy-long", ["holonomy", "--tau", "2.5", "--step", "0.0004"]),
        ("holonomy-matrix", ["holonomy", *mat["X"], *mat["Y"]]),
        ("holonomy-matrix2", ["holonomy", *mat["X2"], *mat["Y2"]]),
        ("stokes", ["stokes"]),
        ("stokes-loop", ["stokes", "--point", "0.1,-0.2", "--step", "0.1"]),
    ]
    return runs


def error_runs(chart_dir: Path) -> list:
    """(name, argv) of every error run; chart files are written into chart_dir."""
    runs = []
    for name, (cmd, obj, point) in ERRORS.items():
        path = chart_dir / f"{name}.json"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        runs.append((name, [cmd, "--chart", str(path), "--point", point]))
    mat = {}
    for name, obj in OVERFLOW_MATRICES.items():
        path = chart_dir / f"{name}.json"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        mat[name] = ["--matrix", str(path)]
    runs += [
        ("holonomy-matrix-overflow",
         ["holonomy", *mat["X-huge"], *mat["Y-zero"], "--tau", "10", "--step", "0.5"]),
        ("gram-huge-entry", ["gram", *mat["big"], *mat["eye"]]),
        ("holonomy-matrix-huge",
         ["holonomy", *mat["X-1e300"], *mat["Y-zero"], "--tau", "1", "--step", "0.5"]),
        ("stokes-huge-point", ["stokes", "--point=1e200,0.3"]),
        ("stokes-three-point", ["stokes", "--point", "0.2,0.3,0.4"]),
        ("killing-nan", ["killing", *mat["killing-nan"]]),
        ("stokes-field-strength-huge", ["stokes", "--point=1e77,1e154", "--step", "0.1"]),
        ("killing-huge", ["killing", *mat["killing-huge"]]),
        ("energy-bound-huge-entry", ["energy-bound", *mat["big"], *mat["big"]]),
        ("gram-gibbs-huge-beta", ["gram", *mat["Y-zero"], "--state", mat["gibbs-huge"][1]]),
    ]
    return runs


def _run(cmd, tmp: str):
    """(exit code, stdout, stderr) of one CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = run(cmd)
        except Exception as exc:  # a tree whose CLI lets an exception escape
            code = f"raised {type(exc).__name__}"
    return code, stdout.getvalue(), stderr.getvalue().strip().replace(tmp + os.sep, "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory for the .out files, index.txt and errors.txt")
    args = parser.parse_args(argv)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    index, errors = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in snapshot_runs(Path(tmp)):
            code, text, err = _run(cmd, tmp)
            (out / f"{name}.out").write_text(text, encoding="utf-8")
            index.append(f"{name} exit={code} stderr={err!r}")
        for name, cmd in error_runs(Path(tmp)):
            code, text, err = _run(cmd, tmp)
            errors.append(f"{name} exit={code} stdout_bytes={len(text)} stderr={err!r}")
    (out / "index.txt").write_text("\n".join(index) + "\n", encoding="utf-8")
    (out / "errors.txt").write_text("\n".join(errors) + "\n", encoding="utf-8")
    print(f"{len(index)} runs and {len(errors)} error runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
