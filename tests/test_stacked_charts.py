"""The built-in charts' stacked maps and the stacked geometry entry point:
bit identity with the per-point formulas and the single-point routes, and
the one evaluation rule: a ``stacked`` map or domain test takes one call per
stack, and any other callable is lifted into one that calls it per point."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opgeom
from opgeom import hypersurface
from opgeom.algebra import DotConfig, State, _lifted, _solve_gram, stacked
from opgeom.cli import report
from opgeom.errors import (
    DimensionError,
    DomainError,
    EvaluationError,
    NonSymmetricMetricError,
    PatchDomainError,
    StencilOutOfDomainError,
)
from opgeom.hypersurface import (
    _EVERYWHERE,
    _block_points,
    _diff,
    _fields,
    _gauss,
    _gauss_riemann,
    _Geo,
    _solve_metric,
    _star,
    _stencil_rows,
    Chart,
    bianchi_residual,
    christoffel,
    covariant_derivative,
    curvature,
    custom_grid,
    flat_plane,
    gauss_curvature_2d,
    geodesic,
    geometry_at,
    metric,
    orthonormal_frame,
    paraboloid,
    riemann_gauss_curvature,
    sphere,
    torus,
)
from opgeom.transport import (
    ConnectionPath,
    LoopSpec,
    product_integral,
    stokes_residual,
    stored_su2_field,
)

from .test_hypersurface import counting
from .test_transport import graph3_chart

SUM = State.unnormalized_sum()
CFG = DotConfig()


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


# the per-point formulas of the built-in maps in Python floats and libm
def sphere_point(r, u):
    st, ct, sp, cp = math.sin(u[0]), math.cos(u[0]), math.sin(u[1]), math.cos(u[1])
    return [r * st * cp, r * st * sp, r * ct]


def torus_point(big_r, r, u):
    w = big_r + r * math.cos(u[0])
    return [w * math.cos(u[1]), w * math.sin(u[1]), r * math.sin(u[0])]


def paraboloid_point(a, u):
    return [u[0], u[1], a * (u[0] ** 2 + u[1] ** 2)]


BUILTINS = {
    "sphere": (lambda c: sphere(r=c), lambda c, u: sphere_point(c, u),
               lambda u: 0.0 < u[0] < math.pi),
    "torus": (lambda c: torus(big_r=2.0 + c, r=c), lambda c, u: torus_point(2.0 + c, c, u),
              lambda u: True),
    "paraboloid": (lambda c: paraboloid(a=c), lambda c, u: paraboloid_point(c, u),
                   lambda u: True),
    "flat_plane": (lambda c: flat_plane(), lambda c, u: [u[0], u[1], 0.0], lambda u: True),
}


# numpy's vectorised sin and cos must round as libm's do on the host, and the
# stacked squares as pow() does, or the stacked charts would drift from the
# per-point formulas in the last bit; a few thousand random rows per draw
# reach the one-in-a-thousand arguments where x * x and pow(x, 2) differ
@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BUILTINS)), c=st.floats(0.1, 1.9),
       scale=st.sampled_from([1.0, 4.0, 50.0, 1e4]), seed=st.integers(0, 2**32 - 1),
       extra=st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)), max_size=8))
def test_stacked_maps_match_the_per_point_formulas_bit_for_bit(name, c, scale, seed, extra):
    build, formula, domain = BUILTINS[name]
    chart = build(c)
    rng = np.random.default_rng(seed)
    pts = np.concatenate([np.array(extra).reshape(-1, 2), rng.uniform(-scale, scale, (3000, 2))])
    assert all(isinstance(fn, stacked) for fn in (chart.map_vec, chart.map_mat, chart.in_domain))
    geo = _Geo(chart, SUM, CFG)
    assert geo.map is chart.map_vec
    vals, mask = chart.map_vec.stack(pts), chart.in_domain.stack(pts)
    mats = chart.map_mat.stack(pts[:200])
    # the evaluator's one call on the stack gives the stacked map's bits
    assert geo.vals(pts[mask]).tobytes() == vals[mask].tobytes()
    for k, u in enumerate(pts.tolist()):
        want = hexes(formula(c, u))
        assert hexes(vals[k]) == want
        assert bool(mask[k]) == domain(u)
        if k < 200:  # the per-point matrix formula, the diagonal embedded
            assert mats[k].tobytes() == np.diag(vals[k]).astype(complex).tobytes()
        if k < 40:  # the per-point views are the same map on one row
            assert hexes(chart.map_vec(u)) == want
            assert hexes(np.diagonal(chart.map_mat(u)).real) == want
            assert chart.in_domain(u) == domain(u)


def per_point(chart):
    """The chart with a plain per-point map_vec, called once per stencil row."""
    return dataclasses.replace(chart, map_vec=lambda u, f=chart.map_vec: f(u))


def generic_per_point(chart):
    """The chart with no map_vec and a plain per-point map_mat, so the state's
    Gram kernel runs on the values of one call per stencil row."""
    return dataclasses.replace(chart, map_vec=None, map_mat=lambda u, f=chart.map_mat: f(u))


def test_only_untouched_builtins_take_the_stacked_path():
    chart, u = sphere(), np.array([1.1, 0.7])
    want = metric(chart, SUM, CFG, u).g.tobytes()
    assert isinstance(_Geo(chart, SUM, CFG).map, stacked)
    counted, seen = counting(chart)
    asked = []

    def inside(x):
        asked.append(x.tobytes())
        return True

    # every change gives the same bits; a substituted map or domain test is
    # called once per stencil point, the untouched stacked map is kept
    for changed in (per_point(chart), dataclasses.replace(chart, map_mat=lambda u: u),
                    dataclasses.replace(chart, in_domain=inside), counted):
        assert metric(changed, SUM, CFG, u).g.tobytes() == want
    assert len(seen) == len(asked) == 4
    for changed in (dataclasses.replace(chart, map_mat=lambda u: u),
                    dataclasses.replace(chart, in_domain=inside)):
        assert _Geo(changed, SUM, CFG).map is chart.map_vec


def test_substituted_domain_test_is_called_per_point_beside_the_stacked_map():
    chart = sphere()
    calls, asked = [], []

    def values(xs):
        calls.append(len(xs))
        return chart.map_vec.stack(xs)

    def inside(x):
        asked.append(x.tobytes())
        return chart.in_domain(x)

    changed = dataclasses.replace(chart, map_vec=stacked(values), in_domain=inside)
    pts = np.array([[0.9, 0.5], [1.7, 2.2], [2.3, -0.6]])
    got, want = geometry_at(changed, SUM, CFG, pts), geometry_at(chart, SUM, CFG, pts)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    # one block: one map call for its curvature batch (p = 2 runs no Bianchi
    # batch), one domain call per stencil row
    assert len(calls) == 1 and sum(calls) == len(asked) == len(pts) * _stencil_rows(2)
    with pytest.raises(StencilOutOfDomainError, match="outside domain"):
        metric(changed, SUM, CFG, [5e-5, 0.4])


def grid_point(axes, vals, u):
    """custom_grid's per-point formula: multilinear weights of the cell
    corners, corners in binary order, zero weights skipped."""
    p, dim = len(axes), vals.shape[-1]
    idx, wts = [], []
    for k, ax in enumerate(axes):
        i = int(np.searchsorted(ax, u[k], side="right")) - 1
        i = min(max(i, 0), ax.size - 2)
        idx.append(i)
        wts.append((u[k] - ax[i]) / (ax[i + 1] - ax[i]))
    out = np.zeros((dim, dim), dtype=complex)
    for corner in range(1 << p):
        w = 1.0
        pos = []
        for k in range(p):
            if corner >> k & 1:
                w *= wts[k]
                pos.append(idx[k] + 1)
            else:
                w *= 1.0 - wts[k]
                pos.append(idx[k])
        if w != 0.0:
            out += w * vals[tuple(pos)]
    return out


def complex_hexes(values):
    return hexes(np.real(values)) + hexes(np.imag(values))


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(2, 5), min_size=1, max_size=3), dim=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_custom_grid_stacked_map_matches_the_per_corner_formula(sizes, dim, seed):
    rng = np.random.default_rng(seed)
    axes = [np.cumsum(rng.uniform(0.1, 1.0, n)) - 1.0 for n in sizes]
    vals = rng.normal(size=tuple(sizes) + (dim, dim)) + 1j * rng.normal(size=tuple(sizes) + (dim, dim))
    chart = custom_grid(axes, vals)
    lo, hi = chart.sample_box
    nodes = np.stack([ax[rng.integers(0, ax.size, 20)] for ax in axes], axis=1)
    mixed = np.where(rng.random(nodes.shape) < 0.5, nodes, rng.uniform(lo, hi, nodes.shape))
    # random points, some beyond the box, grid nodes (every weight 0 or 1),
    # the last node, and points on a node along some axes only
    pts = np.concatenate([rng.uniform(lo - 0.5, hi + 0.5, (40, len(axes))), nodes,
                          hi[None], mixed])
    got, mask = chart.map_mat.stack(pts), chart.in_domain.stack(pts)
    for k, u in enumerate(pts):
        want = complex_hexes(grid_point(axes, vals, u))
        assert complex_hexes(got[k]) == want
        assert bool(mask[k]) == all(ax[0] <= u[j] <= ax[-1] for j, ax in enumerate(axes))
        if k < 10:
            assert complex_hexes(chart.map_mat(u)) == want


@pytest.mark.parametrize("chart", [sphere(1.3), torus(2.1, 0.45), paraboloid(0.8), flat_plane(),
                                   dataclasses.replace(sphere(), state_kind="trace")],
                         ids=["sphere", "torus", "paraboloid", "flat_plane", "sphere-trace"])
def test_report_on_stacked_and_per_point_maps_agree_bit_for_bit(chart):
    phi = chart.default_state()
    got = report(chart, phi, CFG, 7, seed=3)["stats"]
    want = report(per_point(chart), phi, CFG, 7, seed=3)["stats"]
    assert {k: hexes(list(v.values())) for k, v in got.items()} == \
        {k: hexes(list(v.values())) for k, v in want.items()}


def single_point_stats(chart, points):
    """Report statistics from the public single-point functions."""
    cols = {"metric_det": [], "christoffel_max_abs": [], "riemann_max_abs": [],
            "bianchi_residual": [], "gauss_curvature": []}
    for u in points:
        cols["metric_det"].append(metric(chart, SUM, CFG, u).det)
        cols["christoffel_max_abs"].append(np.abs(christoffel(chart, SUM, CFG, u).gamma).max())
        cols["riemann_max_abs"].append(np.abs(curvature(chart, SUM, CFG, u).riemann).max())
        cols["bianchi_residual"].append(bianchi_residual(chart, SUM, CFG, u))
        if chart.p == 2:
            cols["gauss_curvature"].append(riemann_gauss_curvature(chart, SUM, CFG, u))
    return {k: {"min": min(v), "max": max(v), "mean": np.asarray(v, dtype=float).mean()}
            for k, v in cols.items() if v}


# block bytes that make a block of 3 points: the boundary is the same at a
# fraction of the default's 1008, 252 and 46 points
@pytest.mark.parametrize("chart, block_bytes", [
    (sphere(), 1 << 11), (counting(sphere())[0], 1 << 11),
    (generic_per_point(sphere()), 1 << 13), (graph3_chart(), 40_000),
], ids=["sphere-stacked", "sphere-per-point", "sphere-generic", "graph3"])
def test_report_blocks_match_the_single_point_routes(chart, block_bytes, monkeypatch):
    monkeypatch.setattr(hypersurface, "_BLOCK_BYTES", block_bytes)
    block = _block_points(_Geo(chart, SUM, CFG))
    assert block == 3
    for count in (block - 1, block, block + 1):
        doc = report(chart, SUM, CFG, count, seed=9)
        want = single_point_stats(chart, doc["points"])
        assert {k: hexes(list(doc["stats"][k].values())) for k in want} == \
            {k: hexes(list(v.values())) for k, v in want.items()}


def test_geometry_at_stacks_the_single_point_fields():
    chart = torus()
    pts = np.array([[0.3, 1.2], [2.0, -0.4], [4.1, 3.3]])
    geom = geometry_at(chart, SUM, CFG, pts)
    for k, u in enumerate(pts):
        mf, cf = metric(chart, SUM, CFG, u), curvature(chart, SUM, CFG, u)
        assert geom.g[k].tobytes() == mf.g.tobytes()
        assert geom.g_inv[k].tobytes() == mf.g_inv.tobytes()
        assert geom.det[k] == mf.det
        assert geom.gamma[k].tobytes() == christoffel(chart, SUM, CFG, u).gamma.tobytes()
        assert geom.riemann[k].tobytes() == cf.riemann.tobytes()
        assert geom.bianchi[k] == bianchi_residual(chart, SUM, CFG, u)
        assert geom.gauss_curvature()[k] == riemann_gauss_curvature(chart, SUM, CFG, u)
    for bad in (pts[0], pts[:0], np.ones((2, 3))):
        with pytest.raises(DimensionError):
            geometry_at(chart, SUM, CFG, bad)


def test_curvature_builds_the_metric_once():
    counted, seen = counting(sphere())
    u = np.array([0.9, 0.5])
    gauss = riemann_gauss_curvature(counted, SUM, CFG, u)
    assert len(seen) == len(set(seen)) == 13  # one stencil at u, no separate metric stencil
    cf = curvature(sphere(), SUM, CFG, u)
    mf = metric(sphere(), SUM, CFG, u)
    assert cf.metric.g.tobytes() == mf.g.tobytes()
    assert cf.metric.g_inv.tobytes() == mf.g_inv.tobytes()
    assert gauss == cf.gauss_curvature()


@pytest.mark.parametrize("p", [3, 1])
def test_gauss_curvature_needs_two_parameters(p):
    # K = g_{1r} R^r_{212} / det g means nothing off a 2-parameter chart: on the
    # stacked graph3 it read -0.00388, and on a 1-parameter grid R^r_{212} does
    # not exist (an IndexError)
    if p == 3:
        chart, u = stacked_graph3(), np.array([0.1, 0.2, 0.3])
    else:
        axis = np.linspace(-1.0, 1.0, 5)
        chart = custom_grid([axis], np.stack([np.diag([x, 0.0]) for x in axis]))
        chart, u = dataclasses.replace(chart, fd_step2=0.5), np.zeros(1)  # a grid's second step
    with pytest.raises(DimensionError):
        curvature(chart, SUM, CFG, u).gauss_curvature()
    with pytest.raises(DimensionError):
        geometry_at(chart, SUM, CFG, u[None]).gauss_curvature()


@pytest.mark.parametrize("chart", [sphere(), torus(), paraboloid(), flat_plane(),
                                   graph3_chart()], ids=lambda c: c.id)
def test_metric_det_is_stored_from_the_one_solve(chart, monkeypatch):
    lo, hi = chart.sample_box
    u = lo + 0.37 * (hi - lo)
    for mf in (metric(chart, SUM, CFG, u), curvature(chart, SUM, CFG, u).metric):
        assert float(mf.det).hex() == float(_solve_gram(mf.g)[1]).hex()
    solves = []

    def counted(*args):
        solves.append(args)
        return _solve_gram(*args)

    monkeypatch.setattr(hypersurface, "_solve_gram", counted)
    metric(chart, SUM, CFG, u).det
    curvature(chart, SUM, CFG, u).metric.det
    assert len(solves) == 2


@pytest.mark.parametrize("chart", [paraboloid(), counting(paraboloid())[0]],
                         ids=["stacked", "per-point"])
def test_nonfinite_chart_values_are_evaluation_errors(chart):
    with np.errstate(all="raise"):  # an overflow warning would surface as an error
        with pytest.raises(EvaluationError, match="non-finite value at point"):
            metric(chart, SUM, CFG, [1e200, 0.0])
    res = geodesic(chart, SUM, CFG, [1e200, 0.0], [1.0, 0.0], 0.1, 0.05)
    assert res.left_domain and len(res) == 1


def test_stencil_out_of_domain_is_an_evaluation_error():
    assert issubclass(StencilOutOfDomainError, EvaluationError)
    for fn in (metric, christoffel, curvature, bianchi_residual):
        with pytest.raises(StencilOutOfDomainError, match="outside domain"):
            fn(sphere(), SUM, CFG, [5e-5, 0.4])


def test_a_point_whose_bianchi_stars_leave_the_domain_has_a_two_parameter_geometry():
    # at theta = 0.05 a star of Bianchi stars (outer step 0.07) would cross the
    # pole and the curvature stencils (steps 1e-4 and 1e-3) do not; p = 2 needs no stars
    chart, u = sphere(), [0.05, 1.0]
    geom = geometry_at(chart, SUM, CFG, [u])
    assert geom.bianchi.tolist() == [0.0]
    assert geom.riemann[0].tobytes() == curvature(chart, SUM, CFG, u).riemann.tobytes()
    assert bianchi_residual(chart, SUM, CFG, u) == 0.0


# ---------------------------------------------------------------------------
# a user chart stacked with the public type, and the block rule of geometry_at

def stacked_graph3():
    """The graph3 hypersurface as a user stacks it: ``opgeom.stacked`` maps and
    no domain test (``in_domain=None``)."""

    def values(xs):
        sin, cos = np.sin(xs), np.cos(xs)
        f = sin[:, 0] * cos[:, 1] + 0.5 * sin[:, 1] * xs[:, 2] + 0.3 * cos[:, 2] * xs[:, 0]
        return np.column_stack([xs, f])

    def matrices(xs):
        v = values(xs)
        out = np.zeros(v.shape + (4,), dtype=complex)
        out[:, range(4), range(4)] = v
        return out

    box = (np.array([-1.0] * 3), np.array([1.0] * 3))
    return Chart(id="graph3", p=3, dim=4, map_mat=opgeom.stacked(matrices),
                 map_vec=opgeom.stacked(values), in_domain=None, sample_box=box)


def test_a_stacked_user_chart_has_the_bits_of_its_per_point_view():
    chart = stacked_graph3()
    assert opgeom.stacked is stacked and chart.in_domain is _EVERYWHERE
    assert isinstance(_Geo(chart, SUM, CFG).map, stacked)
    view = per_point(chart)
    got, want = report(chart, SUM, CFG, 4, seed=5), report(view, SUM, CFG, 4, seed=5)
    assert got["points"] == want["points"]
    assert {k: hexes(list(v.values())) for k, v in got["stats"].items()} == \
        {k: hexes(list(v.values())) for k, v in want["stats"].items()}
    u0, v0 = [0.2, -0.3, 0.4], [0.5, 0.1, -0.6]
    got, want = (geodesic(c, SUM, CFG, u0, v0, 0.3, 0.05) for c in (chart, view))
    assert len(got) == len(want) == 7 and got.left_domain == want.left_domain
    for a, b in zip(got, want):
        assert (a.tau, a.u.tobytes(), a.udot.tobytes()) == (b.tau, b.u.tobytes(), b.udot.tobytes())


class NonDiagonal:
    """Per-point hermitian 3x3 two-parameter chart with no map_vec, so the
    state's Gram kernel runs: b(u) = u0 H1 + u1 H2 + (u0^2 + u1^2) H3 + u0 u1 H4."""

    def __init__(self, seed=11):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        self.hs = 0.5 * (m + m.conj().swapaxes(1, 2))

    def map_mat(self, u):
        h1, h2, h3, h4 = self.hs
        return u[0] * h1 + u[1] * h2 + (u[0] * u[0] + u[1] * u[1]) * h3 + u[0] * u[1] * h4

    def chart(self):
        box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        return Chart(id="nondiag", p=2, dim=3, map_mat=self.map_mat, map_vec=None,
                     in_domain=lambda u: True, sample_box=box)


@pytest.mark.parametrize("chart, phi", [
    (sphere(), SUM), (torus(), SUM), (paraboloid(), SUM), (flat_plane(), SUM),
    (NonDiagonal(5).chart(), State.density(np.diag([0.5, 0.3, 0.2]))),
], ids=["sphere", "torus", "paraboloid", "flat_plane", "nondiag-density"])
def test_the_two_parameter_bianchi_residual_is_exactly_zero(chart, phi):
    # every p = 2 index triple repeats an index, and the covariant derivative
    # is exactly antisymmetric in its last pair, so the cyclic sum is 0.0
    pts = report(chart, phi, CFG, 6, seed=3)["points"]
    assert [bianchi_residual(chart, phi, CFG, u) for u in pts] == [0.0] * 6
    assert geometry_at(chart, phi, CFG, pts).bianchi.tolist() == [0.0] * 6


@pytest.mark.parametrize("chart, phi", [
    (sphere(), SUM), (torus(), SUM), (paraboloid(), SUM), (flat_plane(), SUM),
    (NonDiagonal(5).chart(), State.density(np.diag([0.5, 0.3, 0.2]))),
    (graph3_chart(), SUM), (stacked_graph3(), SUM),
], ids=["sphere", "torus", "paraboloid", "flat_plane", "nondiag-density", "graph3-per-point",
        "graph3-stacked"])
def test_bianchi_residual_is_the_geometry_at_entry_at_one_point(chart, phi):
    for u in report(chart, phi, CFG, 2, seed=4)["points"]:
        want = geometry_at(chart, phi, CFG, [u]).bianchi[0]
        assert bianchi_residual(chart, phi, CFG, u).hex() == float(want).hex()


class Matrix3:
    """Per-point hermitian 3x3 three-parameter chart whose values do not
    commute: b(u) = u0 H1 + u1 H2 + u2 H3 + |u|^2 H4 + u0 u1 H5 + sin(u1 u2) H6."""

    def __init__(self, seed=13):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        self.hs = 0.5 * (m + m.conj().swapaxes(1, 2))

    def map_mat(self, u):
        h = self.hs
        return (u[0] * h[0] + u[1] * h[1] + u[2] * h[2] + (u @ u) * h[3]
                + u[0] * u[1] * h[4] + np.sin(u[1] * u[2]) * h[5])

    def chart(self):
        box = (np.array([-1.0] * 3), np.array([1.0] * 3))
        return Chart(id="matrix3", p=3, dim=3, map_mat=self.map_mat, map_vec=None,
                     in_domain=lambda u: True, sample_box=box)


def gauss_route(chart, phi, xs):
    """(g, det, Riemann) at the points xs by the Gauss equation."""
    geo = _Geo(chart, phi, CFG)
    f = _fields(geo, xs, second=True)
    ginv, det = _solve_metric(f.g)[:2]
    return f.g, det, _gauss_riemann(geo, f, ginv)


def connection_route(chart, phi, xs):
    """Riemann at the points xs by differencing the connection: the factors
    G = g^-1 and N of the direct Christoffel symbols gamma^a_nb = G^ar N_r,nb
    at the centres of a star at s = 1e-2 sqrt(fd_step), central differenced
    by the product rule, then
    R^a_bmn = d_m gamma^a_nb - d_n gamma^a_mb + gamma^a_mr gamma^r_nb - gamma^a_nr gamma^r_mb.
    The reference against which the Gauss route is checked."""
    geo, s = _Geo(chart, phi, CFG), 1e-2 * math.sqrt(chart.fd_step)
    centres = _star(xs, s)  # (1 + 2p, K, p)
    f = _fields(geo, centres.reshape(-1, chart.p), second=True)
    ginv, n = (a.reshape(centres.shape[:-1] + a.shape[1:]) for a in (_solve_metric(f.g)[0], f.n))
    gamma = np.einsum("kar,krnb->kanb", ginv[0], n[0])
    # d[k, a, b, m, n] = d_m gamma[k, a, n, b]
    d = (np.einsum("mkar,krnb->kabmn", _diff(ginv, s), n[0])
         + np.einsum("kar,mkrnb->kabmn", ginv[0], _diff(n, s)))
    prod = np.einsum("kamr,krnb->kabmn", gamma, gamma)
    return d - d.swapaxes(-1, -2) + prod - prod.swapaxes(-1, -2)


# the largest |gap| over 20 points at each of seeds 1, 2 and 3 (20 points
# drawn in the inner 80% of the sample box) was 1.5e-6 on the sphere, 5.9e-6
# on the torus, 6.8e-7 on the paraboloid, 1.6e-6 on graph3, 1.5e-6 on
# nondiag-density and 2.1e-6 on matrix3-density: both routes carry O(h^2)
# truncation, so the bound keeps a margin of about three
ROUTE_GAP = 2e-5


@pytest.mark.parametrize("chart, phi", [
    (sphere(), SUM), (torus(), SUM), (paraboloid(), SUM), (graph3_chart(), SUM),
    (NonDiagonal(5).chart(), "density"), (Matrix3().chart(), "density"),
], ids=["sphere", "torus", "paraboloid", "graph3", "nondiag-density", "matrix3-density"])
def test_the_gauss_and_connection_riemann_routes_agree(chart, phi):
    phi = seeded_density(6, 3) if phi == "density" else phi
    lo, hi = (np.asarray(b, dtype=float) for b in chart.sample_box)
    xs = (lo + hi) / 2 + 0.4 * (hi - lo) * np.random.default_rng(1).uniform(-1.0, 1.0, (6, chart.p))
    g, det, riem = gauss_route(chart, phi, xs)
    assert np.abs(riem - connection_route(chart, phi, xs)).max() < ROUTE_GAP
    assert np.array_equal(riem, -riem.swapaxes(-1, -2))  # exactly antisymmetric in (m, n)
    if chart.id == "sphere":  # the Gauss route read |K - 1| = 1.6e-7, the connection one 2.1e-6
        assert np.abs(_gauss(g, riem, det) - 1.0).max() < 1e-6


def test_curvature_on_the_unit_sphere_is_one_within_1e_6():
    # the Gauss route reads max |K - 1| = 1.6e-7 at these points; differencing
    # the connection over a star at 1e-2 sqrt(fd_step) read 6.5e-6
    rng = np.random.default_rng(20)
    us = np.column_stack([rng.uniform(0.3, math.pi - 0.3, 20), rng.uniform(0.0, 2.0 * math.pi, 20)])
    assert max(abs(riemann_gauss_curvature(sphere(), SUM, CFG, u) - 1.0) for u in us) < 1e-6


def diagonal_tangent_chart(seed=17):
    """b(u) = u0 D1 + u1 D2 + u0^2 H1 + u1^2 H2 with D1, D2 real diagonal and
    H1, H2 hermitian: the tangents at u = 0 commute, the second partials do not."""
    rng = np.random.default_rng(seed)
    d1, d2 = np.diag(rng.normal(size=3)), np.diag(rng.normal(size=3))
    m = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    h1, h2 = 0.5 * (m + m.conj().swapaxes(1, 2))
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    return Chart(id="diag-tangents", p=2, dim=3, in_domain=None, sample_box=box, map_vec=None,
                 map_mat=lambda u: u[0] * d1 + u[1] * d2 + u[0] ** 2 * h1 + u[1] ** 2 * h2)


@pytest.mark.parametrize("route", [
    curvature, riemann_gauss_curvature, lambda *a: geometry_at(*a[:3], [a[3]]),
    lambda chart, phi, cfg, u: report(chart, phi, cfg, 3),
], ids=["curvature", "riemann_gauss_curvature", "geometry_at", "report"])
def test_a_complex_lam_asymmetric_on_the_second_partials_stops_the_curvature(route):
    # g at u = 0 is symmetric, but the Gauss equation also dots the second
    # partials, on which this lam is not symmetric: the routes refuse the chart
    # (with the check skipped, K read -4.48 at u = 0 where the real-lam K is -5.31)
    chart, u = diagonal_tangent_chart(), np.zeros(2)
    phi, cfg = seeded_density(6, 3), DotConfig(lam=0.5 + 0.5j)
    g = metric(chart, phi, cfg, u).g
    assert np.array_equal(g, g.T)
    assert math.isfinite(riemann_gauss_curvature(chart, phi, DotConfig(lam=0.5), u))
    with pytest.raises(NonSymmetricMetricError):
        route(chart, phi, cfg, u)


def test_a_complex_lam_on_non_commuting_values_stops_the_three_parameter_bianchi_pass():
    # the Gauss equation needs a symmetric dot product on the chart's span
    chart, u = Matrix3().chart(), np.array([0.3, -0.2, 0.1])
    phi, cfg = seeded_density(6, 3), DotConfig(lam=0.5 + 0.5j)
    g = metric(chart, phi, cfg, u).g
    assert np.abs(g - g.T).max() > 0.1
    with pytest.raises(NonSymmetricMetricError):
        bianchi_residual(chart, phi, cfg, u)


def test_bianchi_residual_raises_where_geometry_at_raises():
    axis = np.linspace(-1.0, 1.0, 5)
    grid = custom_grid([axis, axis], np.zeros((5, 5, 1, 1)))
    for chart, u, error in ((sphere(), [5e-5, 0.4], StencilOutOfDomainError),
                            (grid, [0.1, 0.2], DomainError),
                            (paraboloid(), [1e200, 0.0], EvaluationError)):
        for call in (bianchi_residual, lambda *a: geometry_at(*a[:3], [a[3]])):
            with pytest.raises(error):
                call(chart, SUM, CFG, u)
    # below two parameters the residual has one refusal, which report shares
    curve = custom_grid([axis], np.zeros((5, 1, 1)))
    for call in (lambda: bianchi_residual(curve, SUM, CFG, [0.1]), lambda: report(curve, SUM, CFG, 3)):
        with pytest.raises(DimensionError, match="^Bianchi residual needs at least two parameters$"):
            call()


@pytest.mark.parametrize("route", [
    christoffel, riemann_gauss_curvature, lambda *a: geodesic(*a, [0.3, 0.4], 0.1, 0.025),
    gauss_curvature_2d, orthonormal_frame,
], ids=["christoffel", "riemann_gauss_curvature", "geodesic", "gauss_curvature_2d",
        "orthonormal_frame"])
def test_every_connection_route_rejects_an_asymmetric_metric(route):
    # a complex lam on non-commuting chart values makes g asymmetric; every
    # route that forms a connection from g refuses it, as christoffel does
    chart, u = NonDiagonal().chart(), np.array([0.3, -0.2])
    phi, cfg = State.density(np.diag([0.5, 0.3, 0.2])), DotConfig(lam=0.5 + 0.5j)
    g = metric(chart, phi, cfg, u).g
    assert np.abs(g - g.T).max() > 0.1
    with pytest.raises(NonSymmetricMetricError):
        route(chart, phi, cfg, u)


@pytest.mark.parametrize("chart", [sphere(1.3), torus(2.1, 0.45), paraboloid(0.8), flat_plane()],
                         ids=lambda c: c.id)
def test_a_builtin_report_is_one_block_of_two_stacked_map_calls(chart):
    calls = []

    def values(xs):
        calls.append(len(xs))
        return chart.map_vec.fn(xs)

    counted = dataclasses.replace(chart, map_vec=stacked(values))
    got, want = report(counted, SUM, CFG, 20, seed=7), report(chart, SUM, CFG, 20, seed=7)
    assert got == want
    # one curvature fields batch over all 20 points; p = 2 runs no Bianchi batch
    assert len(calls) == 1 and sum(calls) == 20 * _stencil_rows(2)


# SHA-256 of the float.hex text of report statistics on routes that the CLI
# snapshot does not run, in `sha256sum` format: the state's Gram kernel on a
# non-diagonal chart, and the Bianchi batch of a three-parameter chart over
# two blocks.  Regenerate with
#   PYTHONPATH=src python3 -c "from tests.test_stacked_charts import write_report_bits; write_report_bits()"
# only after a change that is meant to move report bits
REPORT_BITS = Path(__file__).resolve().parent / "data" / "report_bits.sha256"


def seeded_density(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T + 0.1 * np.eye(n)
    return State.density(rho / np.trace(rho).real)


REPORTS = {
    "nondiag-density": lambda: report(NonDiagonal(5).chart(), seeded_density(6, 3), CFG, 9, seed=3),
    "nondiag-trace": lambda: report(NonDiagonal(8).chart(), State.normalized_trace(),
                                    DotConfig(lam=0.8 * 0.5), 4, seed=11),
    "graph3-stacked": lambda: report(stacked_graph3(), SUM, CFG, 7, seed=5),
    "graph3-per-point": lambda: report(graph3_chart(), SUM, CFG, 2, seed=12),
}


def report_digest(doc) -> str:
    text = "\n".join(f"{k}.{s} {float(v).hex()}" for k, stats in doc["stats"].items()
                     for s, v in stats.items())
    return hashlib.sha256(text.encode()).hexdigest()


def write_report_bits():
    lines = [f"{report_digest(REPORTS[name]())}  {name}" for name in REPORTS]
    REPORT_BITS.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", list(REPORTS))
def test_report_bits_match_the_pinned_digests(name):
    want = dict(reversed(line.split()) for line in
                REPORT_BITS.read_text(encoding="utf-8").splitlines())
    assert report_digest(REPORTS[name]()) == want[name]


@pytest.mark.parametrize("chart, per", [(graph3_chart(), 46), (NonDiagonal().chart(), 252),
                                        (stacked_graph3(), 46), (sphere(), 1008)],
                         ids=["graph3", "nondiag", "graph3-stacked", "sphere"])
def test_blocks_are_sized_by_the_bytes_of_a_row(chart, per, monkeypatch):
    blocks = []

    def curvature_at(geo, xs):  # called once per block on its (K, p) points
        blocks.append(len(xs))
        return batch(geo, xs)

    batch = hypersurface._curvature_at
    monkeypatch.setattr(hypersurface, "_curvature_at", curvature_at)
    assert _block_points(_Geo(chart, SUM, CFG)) == per
    n = max(20, 2 * per + 3)  # at least two full blocks and a partial one
    report(chart, SUM, CFG, n, seed=7)
    assert blocks == [per] * (n // per) + [n % per] * (n % per > 0)


def test_a_per_point_report_keeps_its_memory_peak():
    # 20 points of this chart, one block of 20 (252 fit), peak at 95,768 bytes
    # under tracemalloc (Python 3.11, NumPy 2.4); the bound stays at the
    # 825,964 they peaked at while each 8-point block ran a Bianchi batch too
    chart = NonDiagonal().chart()
    report(chart, SUM, CFG, 20, seed=7)
    tracemalloc.start()
    try:
        report(chart, SUM, CFG, 20, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 825_964


def test_a_per_point_graph3_report_peaks_no_higher_than_its_stacked_twin():
    # both take 46 points per block; the lifted rows are written into one
    # array, so per-point rows hold no more than stacked ones: both peak in the
    # Bianchi batch's map call (465,576 against 482,184 bytes under
    # tracemalloc, Python 3.11, NumPy 2.4).  Outside a map call the per-point
    # route holds about 80 bytes more: NumPy's cache of freed shape-and-strides
    # blocks, which its one-row values fill
    peaks = []
    for chart in (graph3_chart(), stacked_graph3()):
        report(chart, SUM, CFG, 20, seed=7)
        tracemalloc.start()
        try:
            report(chart, SUM, CFG, 20, seed=7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


# ---------------------------------------------------------------------------
# the lift of a plain callable into a stacked one

def test_plain_callables_overflow_into_typed_errors_without_a_warning():
    def blowup(u):
        return np.array([u[0], u[1], np.exp(1000.0 * u[0])])

    chart = Chart(id="blowup", p=2, dim=3, map_mat=lambda u: np.diag(blowup(u)).astype(complex),
                  map_vec=blowup, in_domain=None, sample_box=sphere().sample_box)
    path = ConnectionPath(A=lambda s: np.exp(1000.0 * s) * np.eye(2), s_range=(0.0, 1.0),
                          n_steps=4)
    # a domain test, a patch test and a vector field that overflow, or a field
    # that answers NaN, end in their typed errors too
    overflowing_domain = dataclasses.replace(
        sphere(), in_domain=lambda u: np.exp(1000.0 * u[0]) < np.inf)
    loop = LoopSpec((1.0, 0.2), ((1, 0), (0, 1)), 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite value at point"):
            metric(chart, SUM, CFG, [1.0, 0.0])
        with pytest.raises(ValueError, match="must be finite"):
            product_integral(path)
        with pytest.raises(StencilOutOfDomainError, match="outside domain"):
            metric(overflowing_domain, SUM, CFG, [1.0, 0.3])
        with pytest.raises(PatchDomainError, match=r"loop point \[1.0, 0.2\] leaves"):
            stokes_residual(stored_su2_field, loop, in_patch=lambda u: np.exp(1000.0 * u[0]) < 1e300)
        for field in (lambda u: np.array([np.exp(1000.0 * u[0]), 1.0]),
                      lambda u: np.array([np.nan, 1.0])):
            with pytest.raises(EvaluationError,
                               match=r"vector field has a non-finite value at point \[1.0, 0.3\]"):
                covariant_derivative(sphere(), SUM, CFG, [1.0, 0.3], field)


def test_a_geodesic_run_enters_one_errstate(monkeypatch):
    entered, errstate = [], np.errstate

    def counted(**kw):  # the library enters each errstate it makes at once
        entered.append(kw)
        return errstate(**kw)

    monkeypatch.setattr(np, "errstate", counted)
    calls = []

    def inside(xs):
        calls.append(len(xs))
        return sphere().in_domain.fn(xs)

    # 5 steps of 4 stages, all in one errstate; the sphere tests its initial
    # point, each stage's stencil and each state
    for chart in (torus(), dataclasses.replace(sphere(), in_domain=stacked(inside))):
        entered.clear()
        assert len(geodesic(chart, SUM, CFG, [1.0, 0.3], [0.3, 0.8], 0.1, 0.02)) == 6
        assert entered == [{"all": "ignore"}]
    assert calls == [1] + 5 * ([9] * 4 + [1])


@pytest.mark.parametrize("answer", [lambda u: u > -10.0, lambda u: None, lambda u: [True],
                                    stacked(lambda us: us > -10.0)],
                         ids=["per-coordinate", "none", "list", "stacked-per-coordinate"])
def test_truth_tests_answer_one_value_per_point(answer):
    with pytest.raises(DimensionError, match="in_domain must answer one truth value per point"):
        metric(dataclasses.replace(torus(), in_domain=answer), SUM, CFG, [0.5, 0.4])
    with pytest.raises(DimensionError, match="in_patch must answer one truth value per point"):
        stokes_residual(stored_su2_field, LoopSpec((0.2, -0.1), ((1, 0), (0, 1)), 0.05),
                        in_patch=answer)


def test_a_lifted_callable_is_called_once_per_row_in_order():
    seen = []

    def fn(x):
        seen.append(x.tobytes())
        return 2.0 * x

    lifted = _lifted(fn)
    assert isinstance(lifted, stacked) and _lifted(lifted) is lifted and _lifted(None) is None
    for xs in (np.arange(12.0).reshape(4, 3), np.arange(600.0).reshape(200, 3)):
        seen.clear()
        got = lifted.stack(xs)
        assert seen == [x.tobytes() for x in xs]
        assert got.tobytes() == (2.0 * xs).tobytes()
        assert lifted(xs[1]).tobytes() == (2.0 * xs[1]).tobytes()


@pytest.mark.parametrize("later", [np.zeros(2), np.zeros(1), 0.0, [0.0, 0.0, 0.0, 0.0]],
                         ids=["shorter", "one", "scalar", "longer-list"])
@pytest.mark.parametrize("at", [1, 64, 130])
def test_a_lifted_callable_rejects_rows_of_another_shape(later, at):
    lifted = _lifted(lambda x: later if x[0] >= at else np.ones(3))
    with pytest.raises(ValueError):
        lifted.stack(np.arange(200.0)[:, None])


@pytest.mark.parametrize("at", [1, 64, 130])
@pytest.mark.parametrize("rows", [
    (np.ones(2), np.array([1.0, 2.0j])),
    (1.0, 2.0 + 3.0j),
    (np.float64(1.0), np.complex128(2.0 + 3.0j)),
    (True, 0.5),
], ids=["arrays", "python-scalars", "numpy-scalars", "bool-then-float"])
def test_a_lifted_callable_widens_and_never_casts_silently(rows, at):
    values = [rows[1] if k == at else rows[0] for k in range(200)]
    lifted = _lifted(lambda x: values[int(x[0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lifted.stack(np.arange(200.0)[:, None])
    want = np.asarray(values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_lifted_domain_test_answering_in_integers_names_the_first_point_outside():
    errors = []
    for inside in (lambda u: u[0] > 0.5, lambda u: int(u[0] > 0.5)):
        with pytest.raises(StencilOutOfDomainError) as err:
            metric(dataclasses.replace(sphere(), in_domain=inside), SUM, CFG, [0.50005, 0.2])
        errors.append(str(err.value))
    assert errors[0] == errors[1] and "0.4999" in errors[0]


def test_lifting_a_chart_is_idempotent():
    chart = graph3_chart()
    assert all(isinstance(fn, stacked) for fn in (chart.map_vec, chart.map_mat, chart.in_domain))
    moved = dataclasses.replace(chart, fd_step=2e-4)
    assert (moved.map_vec, moved.map_mat, moved.in_domain) == \
        (chart.map_vec, chart.map_mat, chart.in_domain)
    assert moved.map_vec is chart.map_vec
