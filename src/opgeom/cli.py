"""Command-line front end: JSON in, JSON or CSV out.

Exit codes: 0 success, 1 input or parse error, 2 numerical failure; on
failure stderr carries one line starting with E_INPUT or E_NUMERIC.  All
floats are printed with 17 significant digits so equal inputs produce
byte-identical outputs.

Random sampling uses a 64-bit xorshift* generator with the published
recurrence x ^= x >> 12; x ^= x << 25; x ^= x >> 27; output
(x * 0x2545F4914F6CDD1D) >> 11 taken as a 53-bit mantissa, so seeded runs
reproduce across platforms and implementations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import algebra, hypersurface, projection, transport, uncertainty
from .algebra import AlgebraElement, DotConfig, PhysConstants, State
from .errors import (
    DimensionError,
    DomainError,
    EvaluationError,
    HermiticityError,
    OpgeomError,
    OrderTooLargeError,
)

__all__ = ["run", "main", "report", "XorShift64Star"]

_MASK = (1 << 64) - 1
_DEFAULT_SEED_STATE = 0x9E3779B97F4A7C15
REPORT_SAMPLE_COUNT = 20


class XorShift64Star:
    """Deterministic 64-bit xorshift* generator (see module docstring)."""

    def __init__(self, seed: int):
        self.x = (algebra._count(seed, "seed") ^ _DEFAULT_SEED_STATE) & _MASK
        if self.x == 0:
            self.x = _DEFAULT_SEED_STATE

    def _draws(self, n: int) -> np.ndarray:
        """The next n outputs, in order, as uint64: the one home of the recurrence."""
        x, states = self.x, []
        for _ in range(n):
            x ^= (x >> 12)
            x ^= (x << 25) & _MASK
            x ^= (x >> 27)
            states.append(x)
        self.x = x
        return np.array(states, dtype=np.uint64) * np.uint64(0x2545F4914F6CDD1D)

    def next_u64(self) -> int:
        return int(self._draws(1)[0])

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return self.uniform(0.0, 1.0)  # 0.0 + 1.0 * r is r

    def uniform(self, lo: float, hi: float) -> float:
        return float(self._rows([lo], [hi], 1)[0, 0])

    def _rows(self, lo, hi, count: int) -> np.ndarray:
        """(count, p) points lo + (hi - lo) r, r from the top 53 bits of one output each."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        r = (self._draws(lo.size * count) >> np.uint64(11)).reshape(count, -1) / float(1 << 53)
        return lo + (hi - lo) * r


class _InputError(Exception):
    """Bad command line, unreadable file, or malformed JSON."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _InputError(message)


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {float(x)!r} in output")
    return format(x, ".17g")


def _emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad_in}{json.dumps(str(k))}: {_emit_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (bool, int, float)) for v in seq)
        if flat:
            return "[" + ", ".join(_emit_json(v) for v in seq) + "]"
        items = [pad_in + _emit_json(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# input loading

def _parse_csv_floats(text: str, name: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise _InputError(f"--{name} must be comma-separated reals: {exc}") from exc


def _load(path, what: str, from_json):
    """from_json of the JSON file at path: the one input-file rule.  Every
    failure is an ``_InputError``: an unreadable file, invalid JSON, and
    content from_json rejects (OverflowError: an int too large for a float)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"invalid JSON in {path}: {exc}") from exc
    try:
        return from_json(obj)
    except (ValueError, KeyError, TypeError, OverflowError, DimensionError, HermiticityError) as exc:
        raise _InputError(f"bad {what} file {path}: {exc}") from exc


def _load_chart(path) -> hypersurface.Chart:
    def from_json(obj):
        if not isinstance(obj, dict):
            raise _InputError(f"chart file {path} must hold a JSON object")
        return hypersurface.chart_from_json(obj)
    return _load(path, "chart", from_json)


def _load_matrices(paths) -> list:
    if not paths:
        raise _InputError("at least one --matrix file is required")
    return [_load(path, "matrix", algebra.matrix_from_json) for path in paths]


def _state_or_default(args, default: State) -> State:
    return _load(args.state, "state", algebra.state_from_json) if args.state is not None else default


def _need(args, flag: str):
    value = getattr(args, flag.replace("-", "_"))
    if value is None:
        raise _InputError(f"--{flag} is required for this subcommand")
    return value


def _chart_point(args):
    chart = _load_chart(_need(args, "chart"))
    u = _parse_csv_floats(_need(args, "point"), "point")
    phi = _state_or_default(args, chart.default_state())
    return chart, u, phi, DotConfig()


# ---------------------------------------------------------------------------
# subcommand handlers (each returns its JSON document, geodesic its CSV lines)

def _cmd_gram(args):
    phi = _state_or_default(args, State.normalized_trace())
    bs = _load_matrices(args.matrix)
    gm = projection.gram(phi, DotConfig(), bs)
    return {
        "m": gm.m.tolist(),
        "det": float(gm.det),
        "full_rank": bool(gm.is_full_rank),
        "rank_tol": float(gm.rank_tol),
    }


def _cmd_project(args):
    phi = _state_or_default(args, State.normalized_trace())
    mats = _load_matrices(args.matrix)
    res = projection.project(phi, DotConfig(), mats[0], mats[1:])
    return {
        "coefficients": [float(c) for c in res.coefficients],
        "norm_sq_parallel": float(res.norm_sq_parallel),
        "residual": float(res.residual),
        "parallel": algebra.matrix_to_json(res.parallel),
        "perpendicular": algebra.matrix_to_json(res.perpendicular),
    }


def _cmd_orthonormalize(args):
    phi = _state_or_default(args, State.normalized_trace())
    mats = _load_matrices(args.matrix)
    _, onb = projection.gram_schmidt(phi, DotConfig(), mats)
    return {"orthonormal": [algebra.matrix_to_json(o) for o in onb]}


def _bound_doc(rep) -> dict:
    return {
        "lhs": float(rep.lhs),
        "rhs": float(rep.rhs),
        "margin": float(rep.margin),
        "satisfied": bool(rep.satisfied),
    }


def _cmd_uncertainty(args):
    phi = _state_or_default(args, State.normalized_trace())
    mats = _load_matrices(args.matrix)
    if len(mats) != 2:
        raise _InputError("uncertainty needs exactly two matrices (a, b)")
    rep = uncertainty.pair_product_bound(phi, mats[0], mats[1])
    return {**_bound_doc(rep), "commutator_abs": float(rep.extra["commutator_abs"])}


def _cmd_energy_bound(args):
    phi = _state_or_default(args, State.normalized_trace())
    mats = _load_matrices(args.matrix)
    raw, fluct = uncertainty.energy_bound(PhysConstants(), phi, mats[0], mats[1:])
    return {"raw": _bound_doc(raw), "fluctuation": _bound_doc(fluct)}


def _cmd_metric(args):
    chart, u, phi, cfg = _chart_point(args)
    mf = hypersurface.metric(chart, phi, cfg, u)
    return {"g": mf.g.tolist(), "g_inv": mf.g_inv.tolist(), "det": float(mf.det)}


def _cmd_christoffel(args):
    chart, u, phi, cfg = _chart_point(args)
    cf = hypersurface.christoffel(chart, phi, cfg, u, method=args.method)
    return {"method": args.method, "gamma": cf.gamma.tolist()}


def _cmd_curvature(args):
    chart, u, phi, cfg = _chart_point(args)
    cf = hypersurface.curvature(chart, phi, cfg, u)
    doc = {"riemann": cf.riemann.tolist()}
    if chart.p == 2:
        doc["gauss_curvature"] = cf.gauss_curvature()
    return doc


def _cmd_geodesic(args):
    chart = _load_chart(_need(args, "chart"))
    u0 = _parse_csv_floats(_need(args, "u0"), "u0")
    v0 = _parse_csv_floats(_need(args, "v0"), "v0")
    tau = float(_need(args, "tau"))
    step = float(_need(args, "step"))
    phi = _state_or_default(args, chart.default_state())
    result = hypersurface.geodesic(chart, phi, DotConfig(), u0, v0, tau, step)
    if result.left_domain:
        print("W_LEFT_DOMAIN trajectory truncated at the chart boundary", file=sys.stderr)
    names = [f"u{i+1}" for i in range(chart.p)]
    return _csv_lines(["tau", *names, *("d" + n for n in names)],
                      (result.tau, result.u, result.udot))


_ROW_BLOCK = 1024  # CSV rows formatted at a time


def _csv_lines(header, cols):
    """The header line, then one line per row of the columns cols, made from
    _ROW_BLOCK rows at a time so that the text never exists whole."""
    yield ",".join(header) + "\n"
    for i in range(0, len(cols[0]), _ROW_BLOCK):
        for row in np.column_stack([c[i:i + _ROW_BLOCK] for c in cols]).tolist():
            yield ",".join(map(_fmt_float, row)) + "\n"


def _cmd_holonomy(args):
    tau = float(args.tau) if args.tau is not None else 1.0
    step = float(args.step) if args.step is not None else 1e-3
    n_steps = algebra._step_count(tau, step)
    if args.matrix:
        mats = _load_matrices(args.matrix)
        if len(mats) != 2:
            raise _InputError("holonomy takes two matrices X, Y for A(s) = s X + Y")
        a = transport._affine_connection(mats[0].m, mats[1].m)
    else:
        a = transport.stored_test_path().A
    path = transport.ConnectionPath(A=a, s_range=(0.0, tau), n_steps=n_steps)
    return {
        "s_range": [0.0, tau],
        "n_steps": n_steps,
        "transport": algebra.matrix_to_json(AlgebraElement(transport.product_integral(path))),
    }


def _cmd_stokes(args):
    base = _parse_csv_floats(args.point, "point") if args.point is not None else np.array([0.2, 0.3])
    eps = float(args.step) if args.step is not None else 0.05
    r_full, r_half = (transport.stokes_residual(transport.stored_su2_field, transport.LoopSpec(
        base=tuple(base), dirs=((1.0, 0.0), (0.0, 1.0)), epsilon=e)) for e in (eps, eps / 2.0))
    return {
        "epsilon": eps,
        "residual": float(r_full),
        "residual_half": float(r_half),
        "ratio": float(r_full / r_half) if r_half > 0 else float("inf"),
    }


def _cmd_bianchi(args):
    chart, u, phi, cfg = _chart_point(args)
    return {"residual": float(hypersurface.bianchi_residual(chart, phi, cfg, u))}


def _cmd_volume(args):
    mats = _load_matrices(args.matrix)
    vecs = []
    for m in mats:
        diag = np.diagonal(m.m)
        off = m.m - np.diag(diag)
        if np.abs(off).max() > 1e-12 or np.abs(diag.imag).max() > 1e-12:
            raise _InputError("volume expects diagonally embedded real vectors")
        vecs.append(diag.real)
    kind = _state_or_default(args, State.normalized_trace()).kind
    if kind not in ("trace", "sum"):
        raise _InputError("volume supports only the trace and sum states")
    vol = projection.parallelepiped_volume(vecs, normalized=kind == "trace")
    return {"volume_sq": float(vol), "count": len(vecs)}


def _cmd_killing(args):
    if len(args.matrix) != 1:
        raise _InputError("killing needs one structure-constants file")
    d, f = _load(args.matrix[0], "structure constants",
                 lambda obj: (algebra._count(obj["d"], "d"), np.asarray(obj["f"], dtype=float)))
    if f.size == d ** 3:
        f = f.reshape(d, d, d)
    return {"g": hypersurface.killing_metric(f, d).tolist()}


def report(chart: hypersurface.Chart, phi: State, cfg: DotConfig,
           sample_count: int, seed: int = 0) -> dict:
    """Batch min/max/mean statistics over sample_count >= 1 points of a chart,
    drawn from an integer seed, from one ``geometry_at`` call over all of them.
    The points lie in the chart's ``sample_box``, inset by the stencils' reach
    where they could leave the domain (``hypersurface._drawn_box``)."""
    count, seed = algebra._count(sample_count, "sample_count"), algebra._count(seed, "seed")
    if count < 1:
        raise ValueError(f"sample_count must be at least 1, got {count}")
    hypersurface._require_bianchi(chart)
    points = XorShift64Star(seed)._rows(*hypersurface._drawn_box(chart), count)
    geom = hypersurface.geometry_at(chart, phi, cfg, points)
    names = ["metric_det", "christoffel_max_abs", "riemann_max_abs", "bianchi_residual"]
    rows = [geom.det, *(np.abs(f).reshape(count, -1).max(axis=1)
                        for f in (geom.gamma, geom.riemann)), geom.bianchi]
    if chart.p == 2:
        names, rows = names + ["gauss_curvature"], rows + [geom.gauss_curvature()]
    rows = np.array(rows, dtype=float)  # each statistic along the rows of one array
    stats = zip(names, *(f(rows, axis=1).tolist() for f in (np.min, np.max, np.mean)))
    return {
        "chart": hypersurface.chart_to_json(chart),
        "state": phi.kind,
        "seed": seed,
        "count": count,
        "points": points.tolist(),
        "stats": {name: {"min": a, "max": b, "mean": c} for name, a, b, c in stats},
    }


def _cmd_report(args):
    chart = _load_chart(_need(args, "chart"))
    phi = _state_or_default(args, chart.default_state())
    seed = int(args.seed) if args.seed is not None else 0
    return report(chart, phi, DotConfig(), REPORT_SAMPLE_COUNT, seed)


_HANDLERS = {
    "gram": _cmd_gram,
    "project": _cmd_project,
    "orthonormalize": _cmd_orthonormalize,
    "uncertainty": _cmd_uncertainty,
    "energy-bound": _cmd_energy_bound,
    "metric": _cmd_metric,
    "christoffel": _cmd_christoffel,
    "curvature": _cmd_curvature,
    "geodesic": _cmd_geodesic,
    "holonomy": _cmd_holonomy,
    "stokes": _cmd_stokes,
    "bianchi": _cmd_bianchi,
    "volume": _cmd_volume,
    "killing": _cmd_killing,
    "report": _cmd_report,
}

SUBCOMMANDS = tuple(_HANDLERS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="opgeom",
                     description="State-induced geometry toolkit")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--chart", help="chart JSON file")
    parser.add_argument("--state", help="state JSON file")
    parser.add_argument("--matrix", action="append", default=[],
                        help="matrix JSON file (repeatable)")
    parser.add_argument("--point", help="comma-separated parameter point")
    parser.add_argument("--u0", help="geodesic start point (CSV)")
    parser.add_argument("--v0", help="geodesic start velocity (CSV)")
    parser.add_argument("--tau", type=float, help="integration length")
    parser.add_argument("--step", type=float,
                        help="integrator step / loop side length")
    parser.add_argument("--seed", type=int, help="sampling seed")
    parser.add_argument("--method", choices=("direct", "metric"),
                        default="direct", help="christoffel route")
    parser.add_argument("--out", help="output file (default stdout)")
    return parser


def run(argv) -> int:
    """Parse argv (no program name) and execute; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        out = _HANDLERS[args.subcommand](args)
        lines = [_emit_json(out) + "\n"] if isinstance(out, dict) else out
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
        else:
            sys.stdout.writelines(lines)
        return 0
    except (_InputError, OSError, ValueError, KeyError, TypeError, OverflowError,
            DimensionError, HermiticityError, DomainError, EvaluationError,
            OrderTooLargeError) as exc:
        print(f"E_INPUT {exc}", file=sys.stderr)
        return 1
    except OpgeomError as exc:
        print(f"E_NUMERIC {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
