"""Induced geometry on parametrized charts: metric, connection, curvature,
geodesics, frames, Gibbs forces, invariant Lie metrics, and the stencil
evaluator behind them."""

import dataclasses
import hashlib
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from opgeom.algebra import (
    COFACTOR_COND,
    RANK_TOL,
    AlgebraElement,
    DotConfig,
    PhysConstants,
    State,
    _det,
    _solve_gram,
    dot,
    fock_momentum,
    fock_position,
    harmonic_hamiltonian,
    heisenberg_dot,
    stacked,
)
from opgeom.cli import report
from opgeom.errors import (
    DimensionError,
    DomainError,
    EvaluationError,
    HermiticityError,
    JacobiViolationError,
    NonSymmetricMetricError,
    SingularGramError,
    SingularMetricError,
    StencilOutOfDomainError,
)
from opgeom.hypersurface import (
    Chart,
    _fields,
    _Geo,
    _geodesic_slope,
    _pair_index,
    _solve_metric,
    _stencil,
    _stencil_rows,
    bianchi_residual,
    chart_from_json,
    chart_to_json,
    christoffel,
    covariant_derivative,
    curvature,
    custom_grid,
    flat_plane,
    gauss_curvature_2d,
    geodesic,
    geometry_at,
    gibbs_force,
    killing_metric,
    leibniz_violation_witness,
    metric,
    metric_compat_residual,
    orthonormal_frame,
    paraboloid,
    projector_apply,
    riemann_gauss_curvature,
    sphere,
    tangent_basis,
    torus,
)

from .test_transport import graph3_chart

SUM = State.unnormalized_sum()
TRACE = State.normalized_trace()
CFG = DotConfig()
CONSTS = PhysConstants()

SPHERE_PT = np.array([0.9, 0.5])
TORUS_PT = np.array([1.0, 0.6])


def sphere_tangents(r, u):
    th, ph = u
    t_th = r * np.array([math.cos(th) * math.cos(ph),
                         math.cos(th) * math.sin(ph), -math.sin(th)])
    t_ph = r * np.array([-math.sin(th) * math.sin(ph),
                         math.sin(th) * math.cos(ph), 0.0])
    return t_th, t_ph


def torus_gauss(big_r, r, th):
    return math.cos(th) / (r * (big_r + r * math.cos(th)))


# ---------------------------------------------------------------------------
# builders and serialization

def test_builder_validation():
    with pytest.raises(ValueError):
        sphere(r=-1.0)
    with pytest.raises(ValueError):
        torus(big_r=0.5, r=0.5)
    with pytest.raises(ValueError):
        paraboloid(a=float("inf"))
    with pytest.raises(DimensionError):
        custom_grid([], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        custom_grid([[0.0, 0.0, 1.0]], np.zeros((3, 2, 2)))
    with pytest.raises(DimensionError):
        custom_grid([[0.0, 1.0]], np.zeros((3, 2, 2)))
    with warnings.catch_warnings(), pytest.raises(ValueError, match="in finite gaps"):
        warnings.simplefilter("error")  # the gap 3.4e308 overflows
        custom_grid([[-1.7e308, 1.7e308]], np.zeros((2, 1, 1)))


def test_chart_json_round_trip():
    for chart in (sphere(r=1.7),
                  chart_from_json({"id": "torus", "params": {"R": 2.5, "r": 0.8}, "state": "trace"}),
                  chart_from_json({"id": "flat_plane", "fd_step": 2e-4}), paraboloid(a=0.4)):
        back = chart_from_json(chart_to_json(chart))
        assert back.id == chart.id
        assert back.params == chart.params
        assert back.state_kind == chart.state_kind
        assert back.fd_step == chart.fd_step
        u = 0.5 * (chart.sample_box[0] + chart.sample_box[1])
        assert np.allclose(back.map_vec(u), chart.map_vec(u), atol=1e-14)


def test_grid_chart_json_round_trip():
    axes = [np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3)]
    vals = np.zeros((4, 3, 2, 2), dtype=complex)
    for i in range(4):
        for j in range(3):
            vals[i, j] = np.diag([axes[0][i], axes[1][j]]) + 0.1j * np.eye(2)
    chart = custom_grid(axes, vals)
    back = chart_from_json(chart_to_json(chart))
    u = np.array([0.37, 0.52])
    assert np.abs(back.map_mat(u) - chart.map_mat(u)).max() < 1e-14


def test_unknown_chart_id_is_rejected():
    with pytest.raises(ValueError, match="unknown chart id 'klein_bottle'"):
        chart_from_json({"id": "klein_bottle"})
    with pytest.raises(ValueError):
        chart_from_json({"params": {}})


def test_unknown_chart_parameter_or_field_is_rejected():
    # torus parameters are named R and r in JSON; big_r would leave R = 2 silently
    with pytest.raises(ValueError, match="big_r"):
        chart_from_json({"id": "torus", "params": {"big_r": 3}})
    with pytest.raises(ValueError, match="'a'"):
        chart_from_json({"id": "sphere", "params": {"r": 1.0, "a": 2.0}})
    with pytest.raises(ValueError, match="fd_stpe"):
        chart_from_json({"id": "sphere", "fd_stpe": 0.05})
    chart = chart_from_json({"id": "torus", "params": {"R": 3.0}})
    assert chart.params == {"R": 3.0, "r": 0.5} and chart.fd_step == 1e-4


# ---------------------------------------------------------------------------
# tangents and metric

def test_tangents_match_analytic():
    chart = sphere()
    ts = tangent_basis(chart, SUM, CFG, SPHERE_PT)
    a_th, a_ph = sphere_tangents(1.0, SPHERE_PT)
    assert np.abs(np.diag(ts[0].m).real[:3] - a_th).max() < 1e-7
    assert np.abs(np.diag(ts[1].m).real[:3] - a_ph).max() < 1e-7


def test_tangent_error_is_second_order():
    # halving the differencing step shrinks the tangent error about 4x
    errs = []
    for h in (2e-3, 1e-3):
        chart = dataclasses.replace(sphere(), fd_step=h)
        ts = tangent_basis(chart, SUM, CFG, SPHERE_PT)
        a_th, _ = sphere_tangents(1.0, SPHERE_PT)
        errs.append(np.abs(np.diag(ts[0].m).real[:3] - a_th).max())
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_metric_sphere_values():
    for r in (1.0, 2.0):
        mf = metric(sphere(r=r), SUM, CFG, SPHERE_PT)
        expected = np.diag([r * r, r * r * math.sin(SPHERE_PT[0]) ** 2])
        assert np.abs(mf.g - expected).max() < 1e-6 * r * r
        assert np.abs(mf.g_inv @ mf.g - np.eye(2)).max() < 1e-10
        assert abs(mf.det - r ** 4 * math.sin(SPHERE_PT[0]) ** 2) < 1e-5


def test_metric_torus_at_origin():
    mf = metric(torus(big_r=2.0, r=0.5), SUM, CFG, np.array([0.0, 0.0]))
    assert np.abs(mf.g - np.diag([0.25, 6.25])).max() < 1e-7


def test_metric_flat_identity():
    mf = metric(flat_plane(), SUM, CFG, np.array([0.2, -0.3]))
    assert np.abs(mf.g - np.eye(2)).max() < 1e-12


def test_metric_state_normalization_ratio():
    g_sum = metric(sphere(), SUM, CFG, SPHERE_PT).g
    g_trace = metric(dataclasses.replace(sphere(), state_kind="trace"), TRACE, CFG, SPHERE_PT).g
    assert np.abs(g_sum - 3.0 * g_trace).max() < 1e-12


def test_metric_dot_scale_covariance():
    g1 = metric(sphere(), SUM, CFG, SPHERE_PT).g
    g2 = metric(sphere(), SUM, DotConfig(lam=1.0), SPHERE_PT).g
    assert np.abs(g2 - 2.0 * g1).max() < 1e-12


def test_metric_singular_map():
    # chart collapsing the second parameter: (u1, u1, 0) on a grid
    axes = [np.linspace(-1, 1, 5), np.linspace(-1, 1, 5)]
    vals = np.zeros((5, 5, 3, 3), dtype=complex)
    for i in range(5):
        for j in range(5):
            vals[i, j] = np.diag([axes[0][i], axes[0][i], 0.0])
    chart = custom_grid(axes, vals)
    with pytest.raises(SingularMetricError):
        metric(chart, SUM, CFG, np.array([0.1, 0.1]))


def test_grid_chart_linear_metric_exact():
    # linear diagonal samples reproduce the exact constant metric
    axes = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5)]
    vals = np.zeros((5, 5, 3, 3), dtype=complex)
    for i in range(5):
        for j in range(5):
            u1, u2 = axes[0][i], axes[1][j]
            vals[i, j] = np.diag([u1, u2, u1 + 2.0 * u2])
    chart = custom_grid(axes, vals)
    mf = metric(chart, SUM, CFG, np.array([0.25, 0.4]))
    assert np.abs(mf.g - np.array([[2.0, 2.0], [2.0, 5.0]])).max() < 1e-9


def test_a_grid_report_given_a_second_step_draws_where_its_stencils_stay():
    # diag(x, y, x^2 + y^2) on a 9 x 9 grid over [-1, 1]^2: given fd_step2 = 0.25,
    # the stencils reach 0.25 past a point, so the report draws from [-0.75, 0.75]^2
    # (drawn from the whole box, one stencil left the grid at [-1.14, -0.34])
    axes = [np.linspace(-1.0, 1.0, 9)] * 2
    x, y = np.meshgrid(*axes, indexing="ij")
    vals = np.zeros((9, 9, 3, 3), dtype=complex)
    vals[..., 0, 0], vals[..., 1, 1], vals[..., 2, 2] = x, y, x * x + y * y
    grid = custom_grid(axes, vals)
    doc = report(dataclasses.replace(grid, fd_step2=0.25), SUM, CFG, 3)
    assert np.abs(doc["points"]).max() <= 0.75
    assert all(math.isfinite(v) for stats in doc["stats"].values() for v in stats.values())
    with pytest.raises(DomainError):  # no second step: no second derivatives
        report(grid, SUM, CFG, 3)


def test_a_report_on_a_domain_refusing_only_a_corner_draws_where_its_stencils_stay():
    # the paraboloid over [-1, 1]^2 with the quadrant x > 1, y > 1 refused: every
    # face centre of the box grown by the reach 0.25 is inside, its corner
    # (1.25, 1.25) is not, and a mixed second partial at a point near (1, 1)
    # reaches into the refused quadrant, so the report draws from [-0.75, 0.75]^2
    def inside(u):
        return not (u[0] > 1.0 and u[1] > 1.0)

    chart = dataclasses.replace(paraboloid(), in_domain=inside, fd_step2=0.25)
    doc = report(chart, SUM, CFG, 40)
    assert np.abs(doc["points"]).max() <= 0.75
    assert all(math.isfinite(v) for stats in doc["stats"].values() for v in stats.values())
    whole = dataclasses.replace(chart, in_domain=None)  # nothing refused: the whole box
    assert np.abs(report(whole, SUM, CFG, 40)["points"]).max() > 0.75


@settings(max_examples=25, deadline=None)
@given(th=st.floats(0.4, math.pi - 0.4), ph=st.floats(0.0, 2.0 * math.pi))
def test_metric_positive_definite_property(th, ph):
    mf = metric(torus(), SUM, CFG, np.array([th, ph]))
    assert np.linalg.eigvalsh(mf.g).min() > 0.0


# ---------------------------------------------------------------------------
# projector

def test_projector_fixes_tangents():
    chart = sphere()
    ts = tangent_basis(chart, SUM, CFG, SPHERE_PT)
    for t in ts:
        back = projector_apply(chart, SUM, CFG, SPHERE_PT, t)
        assert np.abs(back.m - t.m).max() < 1e-10


def test_projector_idempotent(rng):
    chart = torus()
    a = AlgebraElement(np.diag(rng.normal(size=3)).astype(complex))
    p1 = projector_apply(chart, SUM, CFG, TORUS_PT, a)
    p2 = projector_apply(chart, SUM, CFG, TORUS_PT, p1)
    assert np.abs(p2.m - p1.m).max() < 1e-12


def test_projector_output_is_tangential(rng):
    chart = sphere()
    a = AlgebraElement(np.diag(rng.normal(size=3)).astype(complex))
    pa = projector_apply(chart, SUM, CFG, SPHERE_PT, a)
    ts = tangent_basis(chart, SUM, CFG, SPHERE_PT)
    resid = pa
    g = np.array([[dot(SUM, CFG, ti, tj).real for tj in ts] for ti in ts])
    coef = np.linalg.solve(g, [dot(SUM, CFG, t, pa).real for t in ts])
    rebuilt = sum(c * t.m for c, t in zip(coef, ts))
    assert np.abs(resid.m - rebuilt).max() < 1e-10


def test_overflowing_projection_raises_without_warnings():
    # each tangent's dot with diag(1e307, 1, 1) overflows in the projection's dot matrix
    big = AlgebraElement(np.diag([1e307, 1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            projector_apply(sphere(r=100.0), SUM, CFG, [1.1, 0.7], big)


# ---------------------------------------------------------------------------
# christoffel

def test_christoffel_sphere_values():
    got = christoffel(sphere(), SUM, CFG, np.array([math.pi / 4.0, 1.1]))
    # theta'' component against -sin(t)cos(t), mixed against cot(t)
    assert abs(got.gamma[0, 1, 1] - (-0.5)) < 1e-5
    assert abs(got.gamma[1, 0, 1] - 1.0) < 1e-5
    assert abs(got.gamma[0, 0, 0]) < 1e-5


def test_christoffel_metric_method_agrees():
    for chart, u in ((sphere(), SPHERE_PT), (torus(), TORUS_PT)):
        g1 = christoffel(chart, SUM, CFG, u, method="direct").gamma
        g2 = christoffel(chart, SUM, CFG, u, method="metric").gamma
        assert np.abs(g1 - g2).max() < 1e-5


def test_christoffel_flat_zero():
    got = christoffel(flat_plane(), SUM, CFG, np.array([0.1, 0.2]))
    assert np.abs(got.gamma).max() < 1e-10


def test_christoffel_torus_analytic():
    big_r, r = 2.0, 0.5
    th = 0.7
    got = christoffel(torus(big_r=big_r, r=r), SUM, CFG, np.array([th, 2.0]))
    w = big_r + r * math.cos(th)
    assert abs(got.gamma[0, 1, 1] - w * math.sin(th) / r) < 1e-5
    assert abs(got.gamma[1, 0, 1] - (-r * math.sin(th) / w)) < 1e-5


def test_christoffel_state_invariance():
    g_sum = christoffel(sphere(), SUM, CFG, SPHERE_PT).gamma
    g_trace = christoffel(dataclasses.replace(sphere(), state_kind="trace"), TRACE, CFG, SPHERE_PT).gamma
    g_scaled = christoffel(sphere(), SUM, DotConfig(lam=1.5), SPHERE_PT).gamma
    assert np.abs(g_sum - g_trace).max() < 1e-10
    assert np.abs(g_sum - g_scaled).max() < 1e-10


def test_christoffel_unknown_method():
    with pytest.raises(ValueError):
        christoffel(sphere(), SUM, CFG, SPHERE_PT, method="spectral")


def test_christoffel_stencil_out_of_domain():
    with pytest.raises(StencilOutOfDomainError):
        christoffel(sphere(), SUM, CFG, np.array([5e-4, 1.0]))


def test_christoffel_nonsymmetric_metric_rejected():
    # non-commuting tangents with a complex-lam dot give an asymmetric
    # metric, which the connection formulas must refuse
    axes = [np.linspace(-1, 1, 3), np.linspace(-1, 1, 3)]
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    vals = np.zeros((3, 3, 2, 2), dtype=complex)
    for i in range(3):
        for j in range(3):
            vals[i, j] = axes[0][i] * sx + axes[1][j] * sy + np.eye(2)
    chart = dataclasses.replace(custom_grid(axes, vals), fd_step2=0.25)
    phi = State.vector(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(NonSymmetricMetricError):
        christoffel(chart, phi, DotConfig(lam=0.3 + 0.4j), np.array([0.0, 0.0]))


@settings(max_examples=15, deadline=None)
@given(th=st.floats(0.5, math.pi - 0.5), ph=st.floats(0.5, 5.5))
def test_christoffel_lower_symmetry_property(th, ph):
    gam = christoffel(sphere(), SUM, CFG, np.array([th, ph])).gamma
    assert np.abs(gam - np.swapaxes(gam, 1, 2)).max() < 1e-12


# ---------------------------------------------------------------------------
# metric compatibility

def test_metric_compat_residual_small():
    assert metric_compat_residual(sphere(), SUM, CFG, SPHERE_PT) < 1e-5
    assert metric_compat_residual(torus(), SUM, CFG, TORUS_PT) < 1e-5
    assert metric_compat_residual(flat_plane(), SUM, CFG, np.zeros(2)) < 1e-10


# ---------------------------------------------------------------------------
# curvature

def test_curvature_sphere_radius_sweep():
    for r in (1.0, 2.0):
        k = riemann_gauss_curvature(sphere(r=r), SUM, CFG, SPHERE_PT)
        assert abs(k - 1.0 / (r * r)) < 1e-5


def test_curvature_torus_checkpoints():
    chart = torus(big_r=2.0, r=0.5)
    for th in (0.3, 1.2, 2.5):
        k = riemann_gauss_curvature(chart, SUM, CFG, np.array([th, 1.0]))
        assert abs(k - torus_gauss(2.0, 0.5, th)) < 1e-4


def test_curvature_flat_zero():
    cf = curvature(flat_plane(), SUM, CFG, np.array([0.1, -0.2]))
    assert np.abs(cf.riemann).max() < 1e-7


def test_curvature_paraboloid_apex():
    for a in (1.0, 0.5):
        k = riemann_gauss_curvature(paraboloid(a=a), SUM, CFG, np.zeros(2))
        assert abs(k - 4.0 * a * a) < 1e-5


def test_curvature_exact_antisymmetry():
    cf = curvature(torus(), SUM, CFG, TORUS_PT)
    assert np.abs(cf.riemann + np.swapaxes(cf.riemann, 2, 3)).max() == 0.0


def test_curvature_state_invariance():
    r_sum = curvature(sphere(), SUM, CFG, SPHERE_PT).riemann
    r_trace = curvature(dataclasses.replace(sphere(), state_kind="trace"), TRACE, CFG, SPHERE_PT).riemann
    assert np.abs(r_sum - r_trace).max() < 1e-9


def test_curvature_stencil_out_of_domain():
    with pytest.raises(StencilOutOfDomainError):
        curvature(sphere(), SUM, CFG, np.array([1e-3, 0.5]))


def test_riemann_gauss_requires_two_parameters():
    axes = [np.linspace(-1, 1, 5)]
    vals = np.zeros((5, 2, 2), dtype=complex)
    for i in range(5):
        vals[i] = np.diag([axes[0][i], 0.0])
    chart = dataclasses.replace(custom_grid(axes, vals), fd_step2=0.5)  # a grid's second step
    with pytest.raises(DimensionError):
        riemann_gauss_curvature(chart, SUM, CFG, np.array([0.0]))


# ---------------------------------------------------------------------------
# covariant derivative and the curvature commutator

def test_complex_shape_parameters_are_rejected_at_construction():
    # a complex paraboloid coefficient built a chart whose every geometry call
    # warned ComplexWarning and dropped the imaginary part
    for build in (lambda: sphere(r=1j), lambda: paraboloid(a=1j)):
        with pytest.raises(TypeError, match="not complex"):
            build()


def test_geometry_calls_reject_points_fields_and_charts_of_the_wrong_kind():
    with pytest.raises(EvaluationError, match=r"point \[nan, 0.3\] is not finite"):
        geometry_at(sphere(), SUM, CFG, [[0.9, 0.5], [math.nan, 0.3]])
    with pytest.raises(DimensionError, match=r"vector field must return shape \(2,\)"):
        covariant_derivative(sphere(), SUM, CFG, SPHERE_PT, lambda u: np.ones(3))
    with pytest.raises(DimensionError, match="requires a 2-parameter chart"):
        gauss_curvature_2d(graph3_chart(), SUM, CFG, np.array([0.1, 0.2, 0.3]))


def test_covariant_derivative_flat_matches_partial():
    chart = flat_plane()

    def v_field(u):
        return np.array([math.sin(u[1]), u[0] * u[0]])

    got = covariant_derivative(chart, SUM, CFG, np.array([0.3, 0.4]), v_field)
    expected = np.array([[0.0, 0.6], [math.cos(0.4), 0.0]])
    # field derivative is centered at fd_step2 = 1e-3, so truncation ~1e-7
    assert np.abs(got - expected).max() < 1e-6


def test_covariant_derivative_kills_metric_contraction():
    # D_a (g_ij V^i V^j) behaves as an ordinary derivative of the scalar
    chart = sphere()
    u0 = SPHERE_PT

    def v_field(u):
        return np.array([math.sin(u[1]), math.cos(u[0])])

    dv = covariant_derivative(chart, SUM, CFG, u0, v_field)
    g = metric(chart, SUM, CFG, u0).g
    gam = christoffel(chart, SUM, CFG, u0).gamma
    v = v_field(u0)
    h = 1e-5

    def scalar(u):
        return float(v_field(u) @ metric(chart, SUM, CFG, u).g @ v_field(u))

    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        d_scalar = (scalar(u0 + e) - scalar(u0 - e)) / (2.0 * h)
        covar = 2.0 * float(v @ g @ dv[a])
        assert abs(d_scalar - covar) < 1e-4


def test_second_covariant_commutator_matches_curvature():
    chart = sphere()
    u0 = SPHERE_PT

    def v_field(u):
        return np.array([math.sin(u[1]), math.cos(u[0])])

    riem = curvature(chart, SUM, CFG, u0).riemann
    gam = christoffel(chart, SUM, CFG, u0).gamma
    v = v_field(u0)
    s = 1e-2
    p = 2

    def t_at(u):
        return covariant_derivative(chart, SUM, CFG, u, v_field)

    t0 = t_at(u0)
    dt = np.empty((p, p, p))
    for m in range(p):
        e = np.zeros(p)
        e[m] = s
        dpart = (t_at(u0 + e) - t_at(u0 - e)) / (2.0 * s)
        for n in range(p):
            for a in range(p):
                dt[m, n, a] = (dpart[n, a]
                               + gam[a, m, :] @ t0[n, :]
                               - gam[:, m, n] @ t0[:, a])
    comm = np.empty((p, p, p))
    for a in range(p):
        comm[a] = dt[:, :, a] - dt[:, :, a].T
    expected = np.einsum("abmn,b->amn", riem, v)
    assert np.abs(comm - expected).max() < 1e-3


# ---------------------------------------------------------------------------
# geodesics

def test_geodesic_equator():
    res = geodesic(sphere(), SUM, CFG, np.array([math.pi / 2.0, 0.0]),
                   np.array([0.0, 1.0]), tau_max=1.0, step=0.01)
    assert not res.left_domain
    end = res[-1]
    assert abs(end.tau - 1.0) < 1e-12
    assert abs(end.u[0] - math.pi / 2.0) < 1e-8
    assert abs(end.u[1] - 1.0) < 1e-6


def test_geodesic_meridian():
    res = geodesic(sphere(), SUM, CFG, np.array([math.pi / 4.0, 0.3]),
                   np.array([1.0, 0.0]), tau_max=1.0, step=0.01)
    end = res[-1]
    assert abs(end.u[0] - (math.pi / 4.0 + 1.0)) < 1e-6
    assert abs(end.u[1] - 0.3) < 1e-8


def test_geodesic_flat_straight_line():
    res = geodesic(flat_plane(), SUM, CFG, np.array([-0.5, -0.5]),
                   np.array([1.5, 2.5]), tau_max=1.0, step=0.05)
    end = res[-1]
    assert np.abs(end.u - np.array([1.0, 2.0])).max() < 1e-10
    assert np.abs(end.udot - np.array([1.5, 2.5])).max() < 1e-10


def test_geodesic_speed_conserved():
    chart = torus()
    res = geodesic(chart, SUM, CFG, TORUS_PT, np.array([0.7, 0.4]),
                   tau_max=1.0, step=0.01)
    speeds = [float(s.udot @ metric(chart, SUM, CFG, s.u).g @ s.udot)
              for s in res[:: len(res) // 4]]
    for sp in speeds[1:]:
        assert abs(sp - speeds[0]) < 1e-6 * speeds[0]


def test_geodesic_leaves_domain():
    res = geodesic(sphere(), SUM, CFG, np.array([0.5, 0.0]),
                   np.array([-1.0, 0.0]), tau_max=1.0, step=0.01)
    assert res.left_domain
    assert len(res) < 101
    assert res[-1].u[0] > 0.0


def test_geodesic_validation():
    with pytest.raises(ValueError):
        geodesic(sphere(), SUM, CFG, SPHERE_PT, np.zeros(2), 1.0, 0.01)
    with pytest.raises(ValueError):
        geodesic(sphere(), SUM, CFG, SPHERE_PT, np.array([1.0, 0.0]), 1.0, -0.01)
    with pytest.raises(DimensionError):
        geodesic(sphere(), SUM, CFG, np.zeros(3), np.ones(3), 1.0, 0.01)
    with pytest.raises(EvaluationError):
        geodesic(sphere(), SUM, CFG, np.array([-0.1, 0.0]),
                 np.array([1.0, 0.0]), 1.0, 0.01)
    for u0, v0 in ((np.array([math.nan, 0.5]), np.ones(2)), (SPHERE_PT, np.array([math.nan, 1.0])),
                   (SPHERE_PT, np.array([math.inf, 1.0]))):
        with pytest.raises(ValueError):
            geodesic(sphere(), SUM, CFG, u0, v0, 1.0, 0.01)
    # a step count that is not finite, or does not fit an index
    for tau_max, step in ((math.inf, 0.01), (1e300, 1e-300), (math.nan, 0.01), (1.0, math.inf)):
        with pytest.raises(ValueError, match="tau / step"):
            geodesic(sphere(), SUM, CFG, SPHERE_PT, np.array([1.0, 0.0]), tau_max, step)


# ---------------------------------------------------------------------------
# orthonormal frame

def test_frame_is_orthonormal():
    frame, _ = orthonormal_frame(sphere(), SUM, CFG, SPHERE_PT)
    for i, a in enumerate(frame):
        for j, b in enumerate(frame):
            assert abs(dot(SUM, CFG, a, b) - (i == j)) < 1e-10


def test_frame_connection_antisymmetric():
    for chart, u in ((sphere(), SPHERE_PT), (torus(), TORUS_PT)):
        _, conn = orthonormal_frame(chart, SUM, CFG, u)
        assert np.abs(conn + np.swapaxes(conn, 0, 1)).max() < 1e-8


def test_frame_curvature_sphere_and_torus():
    k_s = gauss_curvature_2d(sphere(), SUM, CFG, SPHERE_PT)
    assert abs(k_s - 1.0) < 1e-6
    k_t = gauss_curvature_2d(torus(), SUM, CFG, TORUS_PT)
    assert abs(k_t - torus_gauss(2.0, 0.5, TORUS_PT[0])) < 1e-6


def test_frame_and_riemann_curvatures_agree():
    for chart, u in ((sphere(r=1.4), SPHERE_PT), (torus(), TORUS_PT)):
        k1 = gauss_curvature_2d(chart, SUM, CFG, u)
        k2 = riemann_gauss_curvature(chart, SUM, CFG, u)
        assert abs(k1 - k2) < 1e-4


def test_frame_curvature_keeps_its_bits():
    # sha256 of 36 values over three charts, two states and two dot products, taken
    # when gauss_curvature_2d read its determinant from the guarded solve
    rng = np.random.default_rng(24)
    vals = []
    for chart in (sphere(r=1.3), torus(big_r=2.0, r=0.6), paraboloid(a=0.4)):
        for u in rng.uniform(*chart.sample_box, size=(3, 2)):
            for phi in (SUM, TRACE):
                for cfg in (CFG, DotConfig(lam=0.8 * 1.5)):
                    vals.append(gauss_curvature_2d(chart, phi, cfg, u))
    assert hashlib.sha256(np.array(vals).tobytes()).hexdigest() == \
        "f746abc51794dad87386de4160c21b2fdfe5ffa0c2ef6c2f47351f37a3f0d170"


def test_frame_stencil_out_of_domain():
    with pytest.raises(StencilOutOfDomainError):
        orthonormal_frame(sphere(), SUM, CFG, np.array([5e-5, 1.0]))


# ---------------------------------------------------------------------------
# gibbs force

def test_gibbs_force_oscillator_closed_form():
    dim = 64
    x, p = fock_position(dim), fock_momentum(dim)
    h = harmonic_hamiltonian(dim)
    f = gibbs_force(CONSTS, [x, p], h, beta=1.0)
    assert np.abs(f - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-8


def test_gibbs_force_dense_oracle(rng):
    n = 6
    hm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = AlgebraElement(0.5 * (hm + hm.conj().T))
    ops = []
    for _ in range(2):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ops.append(AlgebraElement(0.5 * (m + m.conj().T)))
    beta = 0.7
    got = gibbs_force(CONSTS, ops, h, beta)

    rho = scipy.linalg.expm(-beta * h.m)
    rho /= np.trace(rho)

    def ev(mat):
        return np.trace(rho @ mat).real

    def sdot(a, b):
        return 0.5 * (ev(a.conj().T @ b) + ev(b.conj().T @ a))

    vel = [1j * (h.m @ b.m - b.m @ h.m) for b in ops]
    g = np.array([[sdot(a.m, b.m) for b in ops] for a in ops])
    d = np.array([[sdot(ops[r].m, vel[b]) for b in range(2)] for r in range(2)])
    expected = -np.linalg.solve(g, d)
    assert np.abs(got - expected).max() < 1e-10


def test_gibbs_force_commuting_zero():
    h = AlgebraElement(np.diag([0.0, 1.0, 2.0]).astype(complex))
    ops = [AlgebraElement(np.diag([1.0, 2.0, 0.0]).astype(complex)),
           AlgebraElement(np.diag([0.0, 1.0, -1.0]).astype(complex))]
    f = gibbs_force(CONSTS, ops, h, beta=0.5)
    assert np.abs(f).max() == 0.0


def test_gibbs_force_small_beta_matches_trace_state(rng):
    n = 4
    hm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = AlgebraElement(0.5 * (hm + hm.conj().T))
    ops = []
    for _ in range(2):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ops.append(AlgebraElement(0.5 * (m + m.conj().T)))
    got = gibbs_force(CONSTS, ops, h, beta=1e-13)
    phi = State.normalized_trace()
    vel = [heisenberg_dot(CONSTS, h, b) for b in ops]
    g = np.array([[dot(phi, CFG, a, b).real for b in ops] for a in ops])
    d = np.array([[dot(phi, CFG, ops[r], vel[b]).real for b in range(2)]
                  for r in range(2)])
    expected = -np.linalg.solve(g, d)
    assert np.abs(got - expected).max() < 1e-9


def test_gibbs_force_validation(rng):
    h = AlgebraElement(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(HermiticityError):
        gibbs_force(CONSTS, [AlgebraElement.identity(2)], h, beta=1.0)
    b = AlgebraElement(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(SingularGramError):
        gibbs_force(CONSTS, [b, AlgebraElement(2.0 * b.m)],
                    AlgebraElement(np.diag([0.0, 1.0]).astype(complex)), beta=1.0)
    with pytest.raises(DimensionError):
        gibbs_force(CONSTS, [], AlgebraElement.identity(2), beta=1.0)


# ---------------------------------------------------------------------------
# killing metric

def su2_constants(c=1.0):
    f = np.zeros((3, 3, 3))
    for r, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        f[r, a, b] = c
        f[r, b, a] = -c
    return f


def test_killing_su2_exact():
    g = killing_metric(su2_constants(), 3)
    assert np.abs(g - (2.0 / 3.0) * np.eye(3)).max() <= 1e-12


def test_killing_quadratic_scaling():
    g1 = killing_metric(su2_constants(), 3)
    g2 = killing_metric(su2_constants(c=2.0), 3)
    assert np.abs(g2 - 4.0 * g1).max() < 1e-12


def test_killing_rejects_nonantisymmetric():
    f = su2_constants()
    f[0, 1, 2] = 0.5  # breaks f[0,1,2] = -f[0,2,1]
    with pytest.raises(ValueError):
        killing_metric(f, 3)


def test_killing_rejects_nonfinite_constants():
    # NaN compares false, so it would pass the antisymmetry and Jacobi tests
    f = np.zeros((2, 2, 2))
    f[0, 0, 1] = np.nan
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        killing_metric(f, 2)


def test_killing_overflow_is_an_error():
    # the adjoint products of 1e200 constants overflow, and the antisymmetry test's
    # f + f of symmetric 1e308 ones: a ValueError, no NumPy warning
    for f01, f10, match in ((1e200, -1e200, "overflow"), (1e308, 1e308, "antisymmetric")):
        f = np.zeros((2, 2, 2))
        f[1, 0, 1], f[1, 1, 0] = f01, f10
        with warnings.catch_warnings(), pytest.raises(ValueError, match=match):
            warnings.simplefilter("error")
            killing_metric(f, 2)


def test_killing_rejects_jacobi_violation():
    # brackets [J0,J1]=J2, [J1,J2]=J0, [J2,J0]=J0 break the Jacobi identity
    f = np.zeros((3, 3, 3))
    for r, a, b in ((2, 0, 1), (0, 1, 2), (0, 2, 0)):
        f[r, a, b] = 1.0
        f[r, b, a] = -1.0
    with pytest.raises(JacobiViolationError):
        killing_metric(f, 3)


def test_killing_shape_check():
    with pytest.raises(DimensionError):
        killing_metric(np.zeros((2, 2, 2)), 3)


def test_killing_needs_a_generator():
    # d = 0 with a (0, 0, 0) array reached NumPy's empty-reduction ValueError
    with pytest.raises(DimensionError, match="needs d >= 1 generators, got 0"):
        killing_metric(np.zeros((0, 0, 0)), 0)


# ---------------------------------------------------------------------------
# leibniz violation witness

def test_leibniz_witness_golden_value():
    w = leibniz_violation_witness(sphere(), SUM, CFG,
                                  np.array([math.pi / 3.0, math.pi / 5.0]))
    assert abs(w - 3.945072922852e-02) < 1e-6 * 3.945072922852e-02
    assert w > 1e-3


def test_leibniz_witness_flat_zero():
    w = leibniz_violation_witness(flat_plane(), SUM, CFG, np.array([0.1, 0.2]))
    assert w < 1e-12


def test_leibniz_witness_radius_scaling():
    u = np.array([math.pi / 3.0, math.pi / 5.0])
    w1 = leibniz_violation_witness(sphere(r=1.0), SUM, CFG, u)
    w2 = leibniz_violation_witness(sphere(r=2.0), SUM, CFG, u)
    assert abs(w2 / w1 - 4.0) < 1e-9


def test_leibniz_witness_needs_two_parameters():
    axes = [np.linspace(-1, 1, 5)]
    vals = np.zeros((5, 2, 2), dtype=complex)
    for i in range(5):
        vals[i] = np.diag([axes[0][i], 1.0])
    with pytest.raises(DimensionError):
        leibniz_violation_witness(custom_grid(axes, vals), SUM, CFG, np.array([0.0]))


# ---------------------------------------------------------------------------
# stencil evaluator

def test_chart_rejects_bad_steps_and_radii():
    # a step whose square underflows or overflows: the second differences divide by it
    for kw in ({"fd_step": 0.0}, {"fd_step": -1e-4}, {"fd_step2": 0.0},
               {"fd_step": math.inf}, {"fd_step2": math.nan}, {"fd_step2": 1e-200},
               {"fd_step": 1e200}):
        with pytest.raises(ValueError):
            chart_from_json({"id": "sphere", **kw})
    for make in (lambda: sphere(r=math.inf), lambda: torus(big_r=math.inf),
                 lambda: torus(big_r=math.nan, r=0.5)):
        with pytest.raises(ValueError):
            make()


def test_nonfinite_point_is_evaluation_error():
    for u in ([math.nan, 0.4], [0.4, math.inf]):
        with pytest.raises(EvaluationError, match="not finite"):
            metric(torus(), SUM, CFG, u)


POINT_FUNCTIONS = {
    "tangent_basis": tangent_basis,
    "metric": metric,
    "projector_apply": lambda *a: projector_apply(*a, AlgebraElement.identity(3)),
    "christoffel-direct": christoffel,
    "christoffel-metric": lambda *a: christoffel(*a, method="metric"),
    "metric_compat_residual": metric_compat_residual,
    "curvature": curvature,
    "riemann_gauss_curvature": riemann_gauss_curvature,
    "covariant_derivative": lambda *a: covariant_derivative(*a, lambda x: x),
    "orthonormal_frame": orthonormal_frame,
    "gauss_curvature_2d": gauss_curvature_2d,
    "leibniz_violation_witness": leibniz_violation_witness,
    "bianchi_residual": bianchi_residual,
}


@pytest.mark.parametrize("point, error, match", [
    ([0.9], DimensionError, "shape"), ([0.9, 0.4, 0.1], DimensionError, "shape"),
    ([math.nan, 0.4], EvaluationError, "not finite"),
], ids=["short", "long", "nan"])
@pytest.mark.parametrize("name", list(POINT_FUNCTIONS))
def test_public_chart_functions_check_the_point_first(name, point, error, match):
    with pytest.raises(error, match=match):
        POINT_FUNCTIONS[name](sphere(), SUM, CFG, point)


GEOMETRY_FUNCTIONS = dict(
    POINT_FUNCTIONS,
    geometry_at=lambda chart, phi, cfg, u: geometry_at(chart, phi, cfg, [u]),
    geodesic=lambda chart, phi, cfg, u: geodesic(chart, phi, cfg, u, [0.1, 0.2], 0.1, 0.05),
)


@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.5j])
@pytest.mark.parametrize("name", list(GEOMETRY_FUNCTIONS))
def test_chart_geometry_needs_positive_real_lam(name, lam):
    # Re(lam) <= 0 makes the metric of commuting chart values negative or zero
    with pytest.raises(DomainError, match=r"Re\(lam\) > 0"):
        GEOMETRY_FUNCTIONS[name](sphere(), SUM, DotConfig(lam=lam), SPHERE_PT)


def paraboloid_grid():
    """diag(x, y, x^2 + y^2) sampled on a 9 x 9 grid over [-1, 1]^2."""
    axis = np.linspace(-1.0, 1.0, 9)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    vals = np.zeros((9, 9, 3, 3), dtype=complex)
    vals[..., 0, 0], vals[..., 1, 1], vals[..., 2, 2] = x, y, x * x + y * y
    return custom_grid([axis, axis], vals)


FIRST_DERIVATIVE_CALLS = ("tangent_basis", "metric", "projector_apply", "leibniz_violation_witness")


@pytest.mark.parametrize("name", [*GEOMETRY_FUNCTIONS, "report"])
def test_a_grid_chart_refuses_every_call_that_needs_a_second_derivative(name):
    # on the piecewise linear interpolant these read silent numbers: K 0.188 by
    # Riemann and 1.344 by frames where the paraboloid's is 2.78, and both
    # Christoffel routes 0.434 where the exact value is 0.333
    chart, u = paraboloid_grid(), np.array([0.1, 0.2])
    assert chart.fd_step2 is None and chart_to_json(chart)["fd_step2"] is None
    if name in FIRST_DERIVATIVE_CALLS:
        assert GEOMETRY_FUNCTIONS[name](chart, SUM, CFG, u) is not None
        return
    call = GEOMETRY_FUNCTIONS.get(name, lambda c, phi, cfg, u: report(c, phi, cfg, 3))
    with pytest.raises(DomainError, match="'custom_grid' has no fd_step2"):
        call(chart, SUM, CFG, u)
    if name != "report":  # a report's sample points reach the grid's edge
        # given a second step, as through replace or JSON, the call runs again
        call(dataclasses.replace(chart, fd_step2=0.25), SUM, CFG, u)


def test_a_two_parameter_bianchi_residual_evaluates_only_the_curvature_stencils():
    counted, seen = counting(sphere())
    assert bianchi_residual(counted, SUM, CFG, SPHERE_PT) == 0.0
    assert len(seen) == _stencil_rows(2) == 13  # one stencil at the point
    assert _stencil_rows(3) == 200  # 25 at the point and the Bianchi star's 175


def test_chart_state_must_be_sum_or_trace():
    assert chart_from_json({"id": "sphere", "state": "trace"}).default_state().kind == "trace"
    for bad in ("bogus", {"kind": "trace"}, None):
        with pytest.raises(ValueError, match="chart state"):
            chart_from_json({"id": "sphere", "state": bad})


@pytest.mark.parametrize("chart", [sphere(), graph3_chart()], ids=["sphere", "graph3"])
def test_report_bianchi_matches_public_route_bit_for_bit(chart):
    doc = report(chart, SUM, CFG, 3, seed=5)
    vals = np.array([bianchi_residual(chart, SUM, CFG, u) for u in doc["points"]])
    want = {"min": vals.min(), "max": vals.max(), "mean": vals.mean()}
    got = doc["stats"]["bianchi_residual"]
    assert {k: float(v).hex() for k, v in got.items()} == {k: float(v).hex() for k, v in want.items()}


def counting(chart):
    """The chart with a map_vec that records the bytes of every point it is given."""
    seen = []

    def fvec(u, f=chart.map_vec):
        seen.append(np.asarray(u).tobytes())
        return f(u)

    return dataclasses.replace(chart, map_vec=fvec), seen


@pytest.mark.parametrize("chart, rows, distinct", [
    (sphere(), 39, 39), (graph3_chart(), 600, 579),
], ids=["sphere", "graph3"])
def test_report_calls_a_per_point_map_once_per_stencil_row(chart, rows, distinct):
    # nothing is cached: repeated stencil rows are evaluated again, and few repeat
    counted, seen = counting(chart)
    report(counted, SUM, CFG, 3, seed=11)
    assert len(seen) == 3 * _stencil_rows(chart.p) == rows
    assert len(set(seen)) == distinct


def test_single_centre_calls_evaluate_only_their_stencils():
    counted, seen = counting(sphere())
    metric(counted, SUM, CFG, SPHERE_PT)
    assert len(seen) == 4
    seen.clear()
    geodesic(counted, SUM, CFG, SPHERE_PT, np.array([0.3, 0.8]), tau_max=0.1, step=0.01)
    assert len(seen) == 10 * 4 * 9  # ten RK4 steps, four stages, 4 tangent + 5 directional points


def tangents_per_point(f, u, h):
    out = []
    for c in range(len(u)):
        e = np.zeros(len(u))
        e[c] = h
        out.append((f(u + e) - f(u - e)) / (2.0 * h))
    return np.array(out)


def second_per_point(f, u, i, j, h2):
    ei, ej = np.zeros(len(u)), np.zeros(len(u))
    ei[i] = h2
    ej[j] = h2
    if i == j:
        return (f(u + ei) - 2.0 * f(u) + f(u - ei)) / (h2 * h2)
    return (f(u + ei + ej) - f(u + ei - ej) - f(u - ei + ej) + f(u - ei - ej)) / (4.0 * h2 * h2)


def dir4_per_point(f, u, v, q):
    return (-f(u + 2.0 * q * v) + 16.0 * f(u + q * v) - 30.0 * f(u)
            + 16.0 * f(u - q * v) - f(u - 2.0 * q * v)) / (12.0 * q * q)


def hermitian3(real=False):
    """A stacked hermitian 3x3 chart over three parameters, with no map_vec,
    b(u) = u0 H1 + u1 H2 + u2 H3 + (u . u) H4: complex chart values, or with
    ``real`` float values (the real symmetric parts of the H)."""
    rng = np.random.default_rng(13)
    m = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    hs = 0.5 * (m + m.conj().swapaxes(1, 2))
    hs = hs.real if real else hs

    def matrices(xs):
        sq = (xs * xs).sum(axis=1)
        return np.einsum("ki,ijl->kjl", xs, hs[:3]) + sq[:, None, None] * hs[3]

    box = (np.array([-1.0] * 3), np.array([1.0] * 3))
    return Chart(id="hermitian3", p=3, dim=3, map_mat=stacked(matrices), map_vec=None,
                 in_domain=None, sample_box=box)


@pytest.fixture(scope="module")
def bit_charts():
    from .test_stacked_charts import stacked_graph3  # that module imports from this one

    ids = ["flat_plane", "sphere", "torus", "paraboloid"]
    return {**{i: chart_from_json({"id": i}) for i in ids}, "graph3": stacked_graph3(),
            "hermitian3": hermitian3(), "symmetric3": hermitian3(real=True)}


def unit_direction(data, p):
    a = data.draw(st.floats(0.0, 2.0 * math.pi))
    if p == 2:
        return [math.cos(a), math.sin(a)]
    b = data.draw(st.floats(0.0, math.pi))
    return [math.sin(b) * math.cos(a), math.sin(b) * math.sin(a), math.cos(b)]


# float chart values (map_vec, symmetric3) take the geodesic stage's per-entry
# Python route and complex ones (a generic map_mat, hermitian3) its array route
@settings(max_examples=90, deadline=None)
@given(chart_id=st.sampled_from(["flat_plane", "sphere", "torus", "paraboloid", "graph3",
                                 "hermitian3", "symmetric3"]),
       generic=st.booleans(), data=st.data())
def test_fields_match_per_point_formulas_bit_for_bit(bit_charts, chart_id, generic, data):
    chart = bit_charts[chart_id]
    if generic:
        chart = dataclasses.replace(chart, map_vec=None)
    f = chart.map_vec or chart.map_mat
    lo, hi = chart.sample_box
    k = data.draw(st.integers(1, 4))
    xs = np.array([[data.draw(st.floats(float(lo[c]), float(hi[c]))) for c in range(chart.p)]
                   for _ in range(k)])
    dirs = np.array([unit_direction(data, chart.p) for _ in range(k)])
    geo = _Geo(chart, SUM, CFG)
    fs = _fields(geo, xs, second=True)
    h, h2 = chart.fd_step, chart.fd_step2
    plan = _stencil(chart.p, h, h2, False, True)
    pair = _pair_index(chart.p)[2]  # the position of (i, j) among the pairs n <= b
    for x, v, t, sec in zip(xs, dirs, fs.t, fs.sec):
        tangents = tangents_per_point(f, x, h)
        assert t.tobytes() == tangents.tobytes()
        for i in range(chart.p):
            for j in range(i, chart.p):
                want = second_per_point(f, x, i, j, h2)
                assert sec[pair[i, j]].tobytes() == want.tobytes()
        # a geodesic stage's acceleration, from the per-point tangents and
        # second difference along the unit velocity
        slope = _geodesic_slope(geo, plan, x.tolist() + v.tolist())[0]
        speed = math.sqrt(v.dot(v))
        dd = dir4_per_point(f, x, v / speed, h2) * (speed * speed)
        ginv = _solve_metric(geo.gram(tangents))[0]
        want = -(ginv @ geo.gram(tangents, dd[None])[:, 0])
        assert np.array(slope[chart.p:]).tobytes() == want.tobytes()


# a complex 2x2 stack multiplies its entry columns as NumPy does, which may
# round otherwise than Python numbers, so complex entries start at n = 3
@settings(max_examples=100, deadline=None)
@given(n_kind=st.sampled_from([(2, float), (3, float), (3, complex), (5, float), (5, complex)]),
       k=st.integers(1, 6), spd=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_solve_matches_per_matrix_calls(n_kind, k, spd, seed):
    (n, kind), rng = n_kind, np.random.default_rng(seed)
    m = rng.normal(size=(k, n, n))
    if kind is complex:
        m = m + 1j * rng.normal(size=(k, n, n))
    if spd:
        m = m @ m.conj().transpose(0, 2, 1) + 0.1 * np.eye(n)
    inv, det, cond, full = _solve_gram(m)
    for i in range(k):
        one = _solve_gram(m[i])
        assert inv[i].tobytes() == one[0].tobytes()
        assert (det[i], cond[i], full[i]) == one[1:]
    # one rank-1 member: the stack raises, or warns and takes its pseudo-inverse
    bad = rng.integers(k)
    m[bad] = np.outer(m[bad, 0], m[bad, 0])
    with pytest.raises(SingularMetricError):
        _solve_gram(m, SingularMetricError("singular member"))
    with pytest.warns(UserWarning):
        inv, _, _, full = _solve_gram(m, UserWarning("singular member"))
    assert not full[bad] and full.sum() == k - 1
    assert inv[bad].tobytes() == np.linalg.pinv(m[bad], rcond=1e-10).tobytes()


def _recorded_solve(m, on_singular):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = _solve_gram(m, on_singular)
    return out, [str(w.message) for w in seen]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", [float, complex])
def test_a_lone_solve_and_a_stack_of_one_agree(n, kind):
    # _solve_gram(m) and _solve_gram(m[None]): the same bits and dtypes, one
    # warning or one raise of the policy, the pseudo-inverse when singular, and
    # the same ValueError for what cannot be tested
    rng = np.random.default_rng(40 + n)
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if kind is complex else 0.0)
    for m, full in ((a @ a.conj().T + 0.1 * np.eye(n), True), (np.outer(a[0], a[0].conj()), False)):
        lone, lone_seen = _recorded_solve(m, UserWarning("singular"))
        stack, stack_seen = _recorded_solve(m[None], UserWarning("singular"))
        assert isinstance(lone[0], np.ndarray) and isinstance(lone[1], kind)
        assert type(lone[2]) is float and lone[3] is full
        for one, many in zip(lone, stack):
            one = np.asarray(one)
            assert (many.shape, many.dtype) == ((1,) + one.shape, one.dtype)
            assert many[0].tobytes() == one.tobytes()
        assert lone_seen == stack_seen == ([] if full else ["singular"])
        if not full:
            assert lone[0].tobytes() == np.linalg.pinv(m, rcond=1e-10).tobytes()
            for arg in (m, m[None]):
                with pytest.raises(SingularMetricError, match="singular"):
                    _solve_gram(arg, SingularMetricError("singular"))
    bad = [np.diag([math.inf] + [1.0] * (n - 1)), np.diag([math.nan] + [1.0] * (n - 1)),
           1e200 * np.eye(2) if n == 2 else 1e150 * np.eye(3)]  # squares or det overflow
    for m in bad:
        errors = []
        for arg in (m.astype(kind), m.astype(kind)[None]):
            with warnings.catch_warnings(), pytest.raises(ValueError) as exc:
                warnings.simplefilter("error")
                _solve_gram(arg, SingularMetricError("singular"))
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


def test_a_large_stack_solves_with_the_lone_bits():
    # one SVD and one stacked product for the whole stack; one member of rank 2
    # takes the pseudo-inverse, as a lone call on it does
    rng = np.random.default_rng(23)
    a = rng.normal(size=(1120, 3, 3))
    m = a @ a.transpose(0, 2, 1) + 0.05 * np.eye(3)
    m[417] = np.outer(a[417, 0], a[417, 0]) + np.outer(a[417, 1], a[417, 1])
    with pytest.warns(UserWarning):
        inv, det, cond, full = _solve_gram(m, UserWarning("singular member"))
    assert full.sum() == 1119 and not full[417]
    for k in range(len(m)):
        one = _solve_gram(m[k])
        assert inv[k].tobytes() == one[0].tobytes()
        assert (det[k].hex(), cond[k].hex(), full[k]) == (one[1].hex(), one[2].hex(), one[3])


@pytest.mark.parametrize("m", [
    [[math.inf, 0.0], [0.0, 1.0]], [[1.0, math.nan], [0.0, 1.0]], [[1e200, 0.0], [0.0, 1.0]],
    [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, math.inf]]],
    np.diag([1.0, math.inf, 1.0]), np.diag([1.0, 1.0, math.nan]),
    1e150 * np.eye(3), [np.eye(3), 1e150 * np.eye(3)],
], ids=["inf", "nan", "huge", "stack", "svd-inf", "svd-nan", "svd-det", "svd-stack-det"])
def test_solve_rejects_a_matrix_whose_rank_cannot_be_tested(m):
    # a non-finite entry, or squares or a determinant beyond the float range, is an
    # input error, not "singular", raised with no NumPy warning on the way
    with warnings.catch_warnings(), pytest.raises(ValueError):
        warnings.simplefilter("error")
        _solve_gram(np.array(m), SingularMetricError("singular"))


def test_solve_condition_number_overflows_to_inf_with_no_warning():
    # s_max / s_min = 1e354: a rank-deficient matrix, whose condition number is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, det, cond, full = _solve_gram(np.diag([1e154, 1e-200, 1.0]))
    assert cond == math.inf and not full and math.isfinite(det)


def test_solve_returns_on_an_infinite_entry():
    # the SVD of diag(inf, 1, 1) may never return, so the entries are checked
    # first; a child process, so a hang fails this test instead of the suite
    code = ("import numpy as np\n"
            "from opgeom.algebra import _solve_gram\n"
            "bad = np.diag([np.inf, 1.0, 1.0])\n"
            "for m in (bad, np.stack([np.eye(3), bad]), bad.astype(complex)):\n"
            "    try:\n"
            "        _solve_gram(m)\n"
            "    except ValueError as exc:\n"
            "        assert 'not finite' in str(exc), exc\n"
            "    else:\n"
            "        raise AssertionError('no ValueError')\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=20)


def _orthogonal(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diagonal(r))


def generated_3x3() -> list:
    """Real 3x3 matrices at kappa_2 from 1 to 1e3: U diag(s) V' with seeded
    orthogonal U, V, scaled by 10^[-3, 3], for a spread, a double top and a
    double bottom singular value; exact double and triple singular values
    (signed permutations of diag(s) with integer s); and graph3's metrics
    I + v v', whose two singular values of 1 are double but for rounding."""
    rng = np.random.default_rng(36)
    out = []
    for kappa in (1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0):
        for s in ([kappa, math.sqrt(kappa), 1.0], [kappa, kappa, 1.0], [kappa, 1.0, 1.0]):
            out += [_orthogonal(rng) @ np.diag(s) @ _orthogonal(rng).T * 10.0 ** rng.uniform(-3, 3)
                    for _ in range(8)]
            signs = rng.choice([-1.0, 1.0], size=3)
            out.append(np.diag(s)[rng.permutation(3)] * signs)
    v = rng.normal(size=(16, 3))
    return out + list(np.eye(3) + v[:, :, None] * v[:, None, :])


def _kappa_f(m) -> float:
    """|M|_F |adj M|_F / |det M| in exact arithmetic, rounded once."""
    q = [Fraction(x) for x in m.ravel().tolist()]
    inv, det = _exact_inverse(m)
    fro2 = sum(x * x for x in q)
    inv2 = sum(x * x for x in inv)
    return math.sqrt(float(fro2 * inv2))  # |adj|_F / |det| = |M^-1|_F


def _exact_inverse(m):
    """The 9 entries of M^-1 in C order and det M, as Fractions."""
    a, b, c, d, e, f, g, h, i = (Fraction(x) for x in m.ravel().tolist())
    adj = (e * i - f * h, c * h - b * i, b * f - c * e, f * g - d * i, a * i - c * g,
           c * d - a * f, d * h - e * g, b * g - a * h, a * e - b * d)
    det = a * adj[0] + b * adj[3] + c * adj[6]
    return [x / det for x in adj], det


def _errors(inv, det, exact_inv, exact_det) -> tuple:
    """Relative Frobenius error of inv and relative error of det, exactly."""
    gap = sum((Fraction(x) - y) ** 2 for x, y in zip(np.ravel(inv).tolist(), exact_inv))
    size = sum(y * y for y in exact_inv)
    return math.sqrt(float(gap / size)), float(abs((Fraction(float(det)) - exact_det) / exact_det))


def svd_route(m):
    """(inverse, det, cond) of a matrix or stack by one SVD, one LU determinant
    and one inverse product: the route of every matrix the cofactors do not serve."""
    u, s, vh = np.linalg.svd(m)
    inv = (vh.conj().swapaxes(-1, -2) / s[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return inv, np.linalg.det(m), s[..., 0] / s[..., -1]


def test_a_3x3_solve_by_cofactors_keeps_the_rank_rule_cond_and_the_stack_bits():
    ms = generated_3x3()
    kappas = [_kappa_f(m) for m in ms]
    assert min(kappas) < COFACTOR_COND < max(kappas)
    inv, det, cond, full = _solve_gram(np.stack(ms))
    cof_errors, svd_errors = [], []
    for k, (m, kappa) in enumerate(zip(ms, kappas)):
        one = _solve_gram(m)
        assert inv[k].tobytes() == one[0].tobytes()
        assert (det[k].hex(), cond[k].hex(), full[k]) == (float(one[1]).hex(), one[2].hex(), one[3])
        s = np.linalg.svd(m, compute_uv=False)
        assert full[k] == (s[-1] > RANK_TOL * max(s[0], RANK_TOL))
        assert abs(cond[k] - np.linalg.cond(m)) <= 1e-12 * np.linalg.cond(m)
        assert float(_det(m)).hex() == det[k].hex()
        if kappa < COFACTOR_COND * (1 - 1e-9):
            exact = _exact_inverse(m)
            svd_inv, lu_det, _ = svd_route(m)
            cof_errors.append(_errors(one[0], one[1], *exact))
            svd_errors.append(_errors(svd_inv, lu_det, *exact))
    # below the bound the cofactors are at least as accurate as the SVD and LU
    # route, in the inverse and in the determinant
    assert len(cof_errors) > 100
    assert np.all(np.max(cof_errors, axis=0) <= np.max(svd_errors, axis=0))


def test_past_the_cofactor_bound_and_past_3x3_the_solve_keeps_the_svd_bits():
    # a real 3x3 with kappa_F > COFACTOR_COND, a complex 3x3 and n = 4, 5: one SVD,
    # one LU determinant and one inverse product, lone and stacked
    rng = np.random.default_rng(37)
    cases = [np.stack([m for m in generated_3x3() if _kappa_f(m) > COFACTOR_COND * 1.001][:12])]
    a = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    cases.append(a @ a.conj().swapaxes(-1, -2) + 0.1 * np.eye(3))
    for n in (4, 5):
        a = rng.normal(size=(6, n, n))
        cases.append(a @ a.swapaxes(-1, -2) + 0.1 * np.eye(n))
    # scaled by 1e-90, an ill-conditioned 3x3's squared cofactors underflow, which
    # must not hide its condition: its determinant stays the LU one
    tiny = cases[0] * 1e-90
    assert _solve_gram(tiny)[1].tobytes() == np.linalg.det(tiny).tobytes()
    assert [_det(m) for m in tiny] == list(np.linalg.det(tiny))
    for stack in cases:
        want_inv, want_det, want_cond = svd_route(stack)
        inv, det, cond, _ = _solve_gram(stack)
        assert inv.tobytes() == want_inv.tobytes()
        assert (det.tobytes(), cond.tobytes()) == (want_det.tobytes(), want_cond.tobytes())
        for k, m in enumerate(stack):
            one = _solve_gram(m)
            assert one[0].tobytes() == want_inv[k].tobytes()
            assert complex(one[1]) == complex(want_det[k]) == complex(_det(m))
