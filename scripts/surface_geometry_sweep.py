#!/usr/bin/env python3
"""Sweep the induced geometry of a builtin chart over sampled interior points.

For each sample the script reports the metric determinant, the Gaussian
curvature through both available routes (Riemann contraction and the
orthonormal-frame formula), the metric-compatibility residual, and the
Bianchi residual.  Charts with a known closed-form curvature also get a
worst-case error column.

Examples:
    python3 scripts/surface_geometry_sweep.py --chart sphere --r 2.0
    python3 scripts/surface_geometry_sweep.py --chart torus --count 40 --csv out.csv
"""

import argparse
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from opgeom import (
    Chart,
    DotConfig,
    bianchi_residual,
    chart_from_json,
    gauss_curvature_2d,
    metric,
    metric_compat_residual,
    riemann_gauss_curvature,
)


@dataclass(frozen=True)
class SweepConfig:
    chart: Chart
    count: int
    seed: int
    csv_path: str | None


def analytic_curvature(chart_id: str, params: dict, u: np.ndarray):
    if chart_id == "sphere":
        return 1.0 / params.get("r", 1.0) ** 2
    if chart_id == "torus":
        big_r, r = params.get("R", 2.0), params.get("r", 0.5)
        return math.cos(u[0]) / (r * (big_r + r * math.cos(u[0])))
    if chart_id == "flat_plane":
        return 0.0
    return None


def run_sweep(cfg: SweepConfig) -> int:
    chart = cfg.chart
    phi = chart.default_state()
    dot_cfg = DotConfig()
    rng = np.random.default_rng(cfg.seed)
    lo, hi = chart.sample_box
    pad = 0.05 * (np.asarray(hi) - np.asarray(lo))
    rows = []
    worst_err = 0.0
    for _ in range(cfg.count):
        u = rng.uniform(np.asarray(lo) + pad, np.asarray(hi) - pad)
        det = metric(chart, phi, dot_cfg, u).det
        k_riem = riemann_gauss_curvature(chart, phi, dot_cfg, u)
        k_frame = gauss_curvature_2d(chart, phi, dot_cfg, u)
        compat = metric_compat_residual(chart, phi, dot_cfg, u)
        bianchi = bianchi_residual(chart, phi, dot_cfg, u)
        row = {
            "u1": u[0], "u2": u[1], "det_g": det,
            "k_riemann": k_riem, "k_frame": k_frame,
            "compat_residual": compat, "bianchi_residual": bianchi,
        }
        k_exact = analytic_curvature(chart.id, chart.params, u)
        if k_exact is not None:
            row["k_error"] = abs(k_riem - k_exact)
            worst_err = max(worst_err, row["k_error"])
        rows.append(row)

    header = list(rows[0].keys())
    if cfg.csv_path:
        with open(cfg.csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} samples to {cfg.csv_path}")
    else:
        print("  ".join(f"{h:>16s}" for h in header))
        for row in rows:
            print("  ".join(f"{row[h]:16.8e}" for h in header))

    k_vals = np.array([r["k_riemann"] for r in rows])
    route_gap = max(abs(r["k_riemann"] - r["k_frame"]) for r in rows)
    print(f"\nchart {chart.id} {chart.params}: {len(rows)} samples")
    print(f"  curvature range     [{k_vals.min():.6f}, {k_vals.max():.6f}]")
    print(f"  route disagreement  {route_gap:.3e}")
    print(f"  worst compat        {max(r['compat_residual'] for r in rows):.3e}")
    print(f"  worst bianchi       {max(r['bianchi_residual'] for r in rows):.3e}")
    if worst_err:
        print(f"  worst |K - exact|   {worst_err:.3e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chart", default="sphere",
                        choices=("sphere", "torus", "paraboloid", "flat_plane"))
    parser.add_argument("--r", type=float, help="sphere or torus tube radius")
    parser.add_argument("--big-r", type=float, help="torus center radius")
    parser.add_argument("--a", type=float, help="paraboloid coefficient")
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", help="write per-sample rows to this CSV file")
    args = parser.parse_args(argv)

    params = {}
    if args.r is not None:
        params["r"] = args.r
    if args.big_r is not None:
        params["R"] = args.big_r
    if args.a is not None:
        params["a"] = args.a
    try:
        chart = chart_from_json({"id": args.chart, "params": params})
    except ValueError as exc:  # a parameter the chart does not take, say
        parser.error(str(exc))
    cfg = SweepConfig(chart=chart, count=args.count, seed=args.seed, csv_path=args.csv)
    return run_sweep(cfg)


if __name__ == "__main__":
    sys.exit(main())
