"""Independent routes agree on generated charts: the direct and metric
Christoffel symbols, and the Riemann and frame Gaussian curvatures, on
stacked graph charts z = sum_k c_k sin(w_k . u + phi_k) over three terms.

The coefficients and frequencies are bounded (|c_k| <= 0.5, |w_k| <= 1.5
per entry) so that the finite differences keep their order; the tolerances
are those of acceptance criteria 8 and 12.  The 40 charts at 3 points each
drawn here read largest gaps of 6.2e-7 and 3.5e-6."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opgeom.algebra import DotConfig, State, stacked
from opgeom.hypersurface import (
    Chart,
    christoffel,
    gauss_curvature_2d,
    riemann_gauss_curvature,
)

SUM = State.unnormalized_sum()
CFG = DotConfig()
CHRISTOFFEL_TOL = 1e-5  # criterion 8
GAUSS_TOL = 1e-3  # criterion 12


def graph_chart(c, w, phase) -> Chart:
    """The graph (u1, u2, sum_k c[k] sin(w[k] . u + phase[k])), embedded diagonally."""

    def values(xs):
        z = (c * np.sin(xs @ w.T + phase)).sum(axis=1)
        return np.column_stack([xs, z])

    def matrices(xs):
        v = values(xs)
        out = np.zeros(v.shape + (3,), dtype=complex)
        out[:, range(3), range(3)] = v
        return out

    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    return Chart(id="graph", p=2, dim=3, map_mat=stacked(matrices), map_vec=stacked(values),
                 in_domain=None, sample_box=box)


def floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


charts = st.builds(graph_chart, floats(-0.5, 0.5, 3), floats(-1.5, 1.5, 6).map(lambda a: a.reshape(3, 2)),
                   floats(0.0, 2.0 * math.pi, 3))
points = st.lists(floats(-0.9, 0.9, 2), min_size=3, max_size=3)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(chart=charts, us=points)
def test_direct_and_metric_christoffel_agree(chart, us):
    for u in us:
        direct = christoffel(chart, SUM, CFG, u).gamma
        via_metric = christoffel(chart, SUM, CFG, u, method="metric").gamma
        assert np.abs(direct - via_metric).max() < CHRISTOFFEL_TOL


@settings(max_examples=40, derandomize=True, deadline=None)
@given(chart=charts, us=points)
def test_riemann_and_frame_gauss_curvature_agree(chart, us):
    for u in us:
        gap = riemann_gauss_curvature(chart, SUM, CFG, u) - gauss_curvature_2d(chart, SUM, CFG, u)
        assert abs(gap) < GAUSS_TOL
