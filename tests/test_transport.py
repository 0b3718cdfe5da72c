"""Path-ordered transports, loop holonomy versus field strength, and the
differential curvature identity."""

import ast
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from opgeom.algebra import DotConfig, State, _lifted
from opgeom.errors import (
    DimensionError,
    OrderTooLargeError,
    PatchDomainError,
    StiffnessError,
)
from opgeom.hypersurface import Chart, flat_plane, sphere, torus
from opgeom.transport import (
    MAX_SERIES_ORDER,
    ConnectionPath,
    LoopSpec,
    bianchi_residual,
    ordered_series,
    product_integral,
    reverse_path,
    stokes_residual,
    stored_su2_field,
    stored_test_path,
    transport_oracle,
    _BLOCK,
    stacked,
    _affine_connection,
    _expm_stack,
    _sample,
    _segment_path,
    _tree_product,
)

SUM = State.unnormalized_sum()
CFG = DotConfig()

X_REF = np.array([[0.0, 0.6], [-0.6, 0.0]], dtype=complex)


def graph3_chart(fd_step=1e-4, fd_step2=1e-3):
    """Graph hypersurface in R^4 over a 3-parameter box, embedded diagonally."""

    def fvec(u):
        f = (math.sin(u[0]) * math.cos(u[1]) + 0.5 * math.sin(u[1]) * u[2]
             + 0.3 * math.cos(u[2]) * u[0])
        return np.array([u[0], u[1], u[2], f])

    def map_mat(u):
        return np.diag(fvec(u)).astype(complex)

    box = (np.array([-1.0] * 3), np.array([1.0] * 3))
    return Chart(id="graph3", p=3, dim=4, map_mat=map_mat, map_vec=fvec,
                 in_domain=lambda u: True, sample_box=box,
                 fd_step=fd_step, fd_step2=fd_step2)


# ---------------------------------------------------------------------------
# path construction

def test_path_validation():
    with pytest.raises(ValueError):
        ConnectionPath(A=lambda s: X_REF, s_range=(0.0, float("inf")), n_steps=10)
    with pytest.raises(ValueError):
        ConnectionPath(A=lambda s: X_REF, s_range=(0.0, 1.0), n_steps=0)
    with pytest.raises(ValueError):
        LoopSpec(base=(0.0, 0.0), dirs=((1, 0), (0, 1)), epsilon=0.0)


@pytest.mark.parametrize("base, dirs, epsilon, error", [
    ((0.2, 0.3, 0.4), ((1.0, 0.0), (0.0, 1.0)), 0.05, DimensionError),
    ((0.2, 0.3), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), 0.05, DimensionError),
    ((0.2, 0.3), ((1.0, 0.0), (0.0, 1.0)), math.inf, ValueError),
    ((0.2, math.nan), ((1.0, 0.0), (0.0, 1.0)), 0.05, ValueError),
], ids=["base-3", "dirs-3", "epsilon-inf", "base-nan"])
def test_loop_spec_checks_its_shapes_and_values(base, dirs, epsilon, error):
    with pytest.raises(error):
        LoopSpec(base=base, dirs=dirs, epsilon=epsilon)


def test_affine_connection_needs_equal_shapes():
    with pytest.raises(DimensionError):
        _affine_connection(np.zeros((2, 2)), np.zeros((3, 3)))


def test_nonsquare_samples_rejected():
    path = ConnectionPath(A=lambda s: np.ones((2, 3)), s_range=(0.0, 1.0), n_steps=4)
    with pytest.raises(DimensionError):
        ordered_series(path, 2)


def test_nonfinite_samples_rejected():
    path = ConnectionPath(A=lambda s: np.full((2, 2), np.nan),
                          s_range=(0.0, 1.0), n_steps=4)
    with pytest.raises(ValueError):
        ordered_series(path, 2)


# ---------------------------------------------------------------------------
# ordered series

def test_series_converges_with_order():
    path = stored_test_path()
    ref = transport_oracle(path)
    errs = {k: np.linalg.norm(ordered_series(path, k) - ref) for k in (2, 4, 6)}
    assert abs(errs[2] - 6.640324e-02) < 1e-6
    assert abs(errs[4] - 1.450490e-03) < 1e-7
    assert abs(errs[6] - 1.502141e-05) < 1e-9
    assert errs[2] > 20.0 * errs[4] > 20.0 * errs[6]


def test_series_order_zero_is_identity():
    path = stored_test_path(n_steps=10)
    assert np.abs(ordered_series(path, 0) - np.eye(2)).max() == 0.0


def test_series_zero_connection():
    path = ConnectionPath(A=lambda s: np.zeros((3, 3)), s_range=(0.0, 2.0), n_steps=16)
    assert np.abs(ordered_series(path, 4) - np.eye(3)).max() < 1e-15


def test_series_order_cap():
    path = stored_test_path(n_steps=10)
    with pytest.raises(OrderTooLargeError):
        ordered_series(path, MAX_SERIES_ORDER + 1)
    with pytest.raises(ValueError):
        ordered_series(path, -1)


# ---------------------------------------------------------------------------
# product integral

def test_product_against_oracle_step_scaling():
    ref = transport_oracle(stored_test_path())
    rels = {}
    for n in (100, 1000, 10000):
        f = product_integral(stored_test_path(n_steps=n))
        rels[n] = np.linalg.norm(f - ref) / np.linalg.norm(ref)
    assert abs(rels[100] - 3.254262e-06) < 1e-10
    assert abs(rels[1000] - 3.254252e-08) < 1e-12
    assert abs(rels[10000] - 3.254254e-10) < 1e-13
    # midpoint factors give clean second-order convergence
    assert 90.0 < rels[100] / rels[1000] < 110.0


def test_product_constant_connection_exact():
    path = ConnectionPath(A=lambda s: X_REF, s_range=(0.0, 2.0), n_steps=50)
    assert np.abs(product_integral(path) - expm(2.0 * X_REF)).max() < 1e-12


def test_product_composes_over_subdivision():
    path = stored_test_path()
    left = ConnectionPath(A=path.A, s_range=(0.0, 0.4), n_steps=800)
    right = ConnectionPath(A=path.A, s_range=(0.4, 1.0), n_steps=1200)
    comp = product_integral(right) @ product_integral(left)
    assert np.abs(comp - product_integral(path)).max() < 1e-12


def test_reverse_path_inverts_transport():
    path = stored_test_path()
    f = product_integral(path)
    r = product_integral(reverse_path(path))
    assert np.abs(r @ f - np.eye(2)).max() < 1e-12


def test_antihermitian_connection_gives_unitary_transport():
    f = product_integral(stored_test_path())
    assert np.abs(f.conj().T @ f - np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("sample, error", [
    (np.ones((2, 3)), DimensionError),
    (np.full((2, 2), np.nan), ValueError),
])
def test_product_rejects_bad_samples(sample, error):
    path = ConnectionPath(A=lambda s: sample, s_range=(0.0, 1.0), n_steps=4)
    with pytest.raises(error):
        product_integral(path)


@pytest.mark.parametrize("n_steps", [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                     2 * _BLOCK + 3])
def test_blocked_product_matches_sequential_loop(n_steps):
    path = stored_test_path(n_steps=n_steps)
    s = path.grid()
    ref = np.eye(2, dtype=complex)
    for i in range(n_steps):
        ref = expm(path.A(0.5 * (s[i] + s[i + 1])) * (s[i + 1] - s[i])) @ ref
    # unitary factors: rounding grows at most linearly in the factor count
    tol = 8 * n_steps * np.finfo(float).eps
    assert np.abs(product_integral(path) - ref).max() < tol


def test_product_memory_bounded_by_block():
    def peak(n_steps):
        path = ConnectionPath(A=lambda s: X_REF, s_range=(0.0, 1.0), n_steps=n_steps)
        tracemalloc.start()
        try:
            product_integral(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # beyond one block only the float grid grows, 8 bytes per step
    assert peak(100_000) < 3 * peak(_BLOCK)


def test_product_memory_constant_in_steps():
    def peak(n_steps):
        tracemalloc.start()
        try:
            product_integral(stored_test_path(n_steps=n_steps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(_BLOCK)  # one-time allocations of a first call
    # each block's edges are generated, so no grid of n_steps + 1 floats is held
    assert peak(200_000) < 1.5 * peak(_BLOCK)


def grid_product(path):
    """The blocked product over slices of path.grid(), the edges product_integral
    generates block by block."""
    s, f = path.grid(), None
    for lo in range(0, path.n_steps, _BLOCK):
        edges = s[lo:lo + _BLOCK + 1]
        vals = _sample(path.A, 0.5 * (edges[:-1] + edges[1:]))
        block = _tree_product(_expm_stack(vals * np.diff(edges)[:, None, None]))
        f = block if f is None else block @ f
    return f


@pytest.mark.parametrize("n_steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 10000])
@pytest.mark.parametrize("s_range", [(0.0, 1.0), (0.3, -2.7), (-1.1, 0.1), (0.5, 0.5)])
def test_block_edges_are_the_grid(n_steps, s_range):
    path = ConnectionPath(A=stored_test_path().A, s_range=s_range, n_steps=n_steps)
    stack, calls = counting(path.A.stack)
    got = product_integral(replace(path, A=stacked(stack)))
    s = path.grid()
    assert np.concatenate(calls).tobytes() == (0.5 * (s[:-1] + s[1:])).tobytes()
    assert hexes(got) == hexes(grid_product(path))


@st.composite
def expm_stacks(draw):
    """Stacks of general or antihermitian d x d matrices, d = 1..6, whose
    1-norms range over 1e-8..50, so every Pade degree and the squaring
    branch run, mixed within one stack."""
    d = draw(st.integers(1, 6))
    antihermitian = draw(st.booleans())
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    mats = []
    for _ in range(draw(st.integers(1, 5))):
        parts = draw(st.lists(entries, min_size=2 * d * d, max_size=2 * d * d))
        m = np.array(parts[:d * d]).reshape(d, d) + 1j * np.array(parts[d * d:]).reshape(d, d)
        if antihermitian:
            m = 0.5 * (m - m.conj().T)
        norm = np.abs(m).sum(axis=0).max()
        assume(norm > 0.0)
        mats.append(m / norm * 10.0 ** draw(st.floats(-8.0, math.log10(50.0))))
    return np.stack(mats)


@settings(max_examples=200, deadline=None)
@given(a=expm_stacks())
def test_expm_stack_matches_scipy(a):
    got = _expm_stack(a)
    for g, m in zip(got, a):
        ref = expm(m)
        assert np.abs(g - ref).sum(axis=0).max() <= 1e-13 * np.abs(ref).sum(axis=0).max()


def test_expm_stack_rejects_nonfinite():
    with pytest.raises(ValueError):
        _expm_stack(np.full((1, 2, 2), np.inf, dtype=complex))


def test_overflowing_product_integral_raises_without_warnings():
    x = np.array([[0.0, 1e300], [-1e300, 0.0]], dtype=complex)
    path = ConnectionPath(A=lambda s: s * x, s_range=(0.0, 1.0), n_steps=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="exponential overflows"):
            product_integral(path)


def test_overflowing_block_product_raises_without_warnings():
    # every factor exp(diag(700, 1) / 4) is finite; their product overflows
    a = np.diag([700.0, 1.0]).astype(complex)
    path = ConnectionPath(A=lambda s: a, s_range=(0.0, 2.0), n_steps=8)
    assert np.isfinite(_expm_stack(np.broadcast_to(a * 0.25, (8, 2, 2)).copy())).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            product_integral(path)


def test_expm_scaling_past_double_precision_is_an_error():
    # the field-strength exponential has 1-norm ~1e196: its squared Pade result
    # would come out finite but meaningless (a residual of exactly 0.0)
    loop = LoopSpec(base=(1e200, 0.3), dirs=LOOP_DIRS, epsilon=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="exponential overflows"):
            stokes_residual(stored_su2_field, loop)
    scale = 5.371920351148152 * 2.0 ** 52  # theta_13 2^52, the last 1-norm of 52 squarings
    assert np.isfinite(_expm_stack(np.array([[[0.0, scale], [-scale, 0.0]]]) * (1 - 1e-6))).all()
    with pytest.raises(ValueError, match="exponential overflows"):
        _expm_stack(np.array([[[0.0, scale], [-scale, 0.0]]]) * (1 + 1e-6))


def test_overflowing_stokes_loop_raises_without_warnings():
    loop = LoopSpec(base=(1e200, 0.3), dirs=LOOP_DIRS, epsilon=0.025)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="exponential overflows"):
            stokes_residual(stored_su2_field, loop)


def test_import_loads_no_scipy():
    code = ("import opgeom, sys; "
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_ordered_series_loads_no_scipy():
    for call in ("ordered_series(stored_test_path(n_steps=10), 3)",
                 "transport_oracle(stored_test_path())"):
        code = ("import sys; from opgeom.transport import *; " + call + "; "
                "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)")
        subprocess.run([sys.executable, "-c", code], check=True)


def test_package_sources_import_no_scipy():
    sources = sorted((Path(__file__).parents[1] / "src" / "opgeom").glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, names)


# ---------------------------------------------------------------------------
# stacked connections

def hexes(m):
    m = np.asarray(m, dtype=complex)
    return [float(x).hex() for x in np.concatenate([m.real.ravel(), m.imag.ravel()])]


def per_point(a):
    """The connection a behind a plain callable, sampled point by point."""
    return lambda x: a(x)


finite = st.floats(-3.0, 3.0, allow_subnormal=False)


@settings(max_examples=40, deadline=None)
@given(s=st.lists(finite, min_size=1, max_size=8), s0=finite, s1=finite)
def test_stacked_paths_match_their_per_point_calls(s, s0, s1):
    s = np.array(s)
    path = ConnectionPath(A=stored_test_path().A, s_range=(s0, s1), n_steps=3)
    for a in (path.A, reverse_path(path).A, reverse_path(reverse_path(path)).A):
        assert isinstance(a, stacked)
        assert hexes(_sample(a, s)) == hexes([a(x) for x in s])


@settings(max_examples=40, deadline=None)
@given(us=st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
def test_stacked_su2_field_matches_its_per_point_calls(us):
    us = np.array(us)
    assert stored_su2_field.stack(us).shape == (len(us), 2, 2, 2)
    assert hexes(stored_su2_field.stack(us)) == hexes([stored_su2_field(u) for u in us])


@settings(max_examples=40, deadline=None)
@given(t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       start=st.tuples(finite, finite), end=st.tuples(finite, finite))
def test_stacked_segment_matches_per_point_field(t, start, end):
    # non-axis directions: the segment contracts both field components
    t = np.array(t)
    seg = _segment_path(stored_su2_field, start, end, 4).A
    plain = _segment_path(_lifted(per_point(stored_su2_field)), start, end, 4).A
    want = hexes([plain(x) for x in t])
    assert hexes(_sample(seg, t)) == want
    assert hexes(_sample(plain, t)) == want
    assert hexes([seg(x) for x in t]) == want


@pytest.mark.parametrize("n_steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_stacked_product_integral_matches_per_point(n_steps):
    path = stored_test_path(n_steps=n_steps)
    plain = replace(path, A=per_point(path.A))
    assert hexes(product_integral(path)) == hexes(product_integral(plain))
    assert hexes(product_integral(reverse_path(path))) == hexes(
        product_integral(reverse_path(plain)))


def test_stacked_stokes_matches_per_point():
    for eps in (0.1, 0.05):
        loop = LoopSpec(base=LOOP_BASE, dirs=((0.8, 0.6), (-0.3, 1.1)), epsilon=eps)
        got = stokes_residual(stored_su2_field, loop)
        assert float(got).hex() == float(stokes_residual(per_point(stored_su2_field),
                                                          loop)).hex()


@pytest.mark.parametrize("stack, error", [
    (lambda s: np.ones((len(s), 2, 3)), DimensionError),
    (lambda s: np.ones((len(s), 2)), DimensionError),
    (lambda s: np.full((len(s), 2, 2), np.nan), ValueError),
])
def test_stacked_connection_bad_samples_rejected(stack, error):
    path = ConnectionPath(A=stacked(stack), s_range=(0.0, 1.0), n_steps=4)
    with pytest.raises(error):
        product_integral(path)
    with pytest.raises(error):
        ordered_series(path, 2)


def counting(fn):
    """fn behind a plain callable that records the arguments of every call."""
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    return counted, calls


def test_stacked_connection_is_sampled_once_per_block():
    stack, calls = counting(stored_test_path().A.stack)
    product_integral(ConnectionPath(A=stacked(stack), s_range=(0.0, 1.0),
                                    n_steps=2 * _BLOCK + 1))
    assert [len(s) for s in calls] == [_BLOCK, _BLOCK, 1]


def test_wrapped_connection_is_sampled_once_per_point():
    a, calls = counting(stored_test_path().A)
    product_integral(ConnectionPath(A=a, s_range=(0.0, 1.0), n_steps=_BLOCK + 5))
    assert len(calls) == _BLOCK + 5
    assert all(type(s) is np.float64 for s in calls)
    field, calls = counting(stored_su2_field)
    stokes_residual(field, LoopSpec(base=LOOP_BASE, dirs=LOOP_DIRS, epsilon=0.1))
    # 256 midpoints on each of the 4 sides, then 5 field-strength samples
    assert len(calls) == 4 * 256 + 5


def test_stokes_samples_a_stacked_field_and_patch_test_once_per_stack():
    field, rows = counting(stored_su2_field.stack)
    inside, asked = counting(lambda us: np.ones(len(us), dtype=bool))
    stokes_residual(stacked(field), LoopSpec(base=LOOP_BASE, dirs=LOOP_DIRS, epsilon=0.1),
                    in_patch=stacked(inside))
    # 256 midpoints per side, then the base point and its four difference points;
    # the four corners and the two margin points
    assert [len(us) for us in rows] == [256, 256, 256, 256, 5]
    assert [len(us) for us in asked] == [6]


# ---------------------------------------------------------------------------
# oracle

def test_oracle_zero_connection():
    path = ConnectionPath(A=lambda s: np.zeros((2, 2)), s_range=(0.0, 1.0), n_steps=4)
    assert np.abs(transport_oracle(path) - np.eye(2)).max() < 1e-11


def test_oracle_constant_connection():
    path = ConnectionPath(A=lambda s: X_REF, s_range=(0.0, 1.5), n_steps=4)
    assert np.abs(transport_oracle(path) - expm(1.5 * X_REF)).max() < 1e-11


def test_oracle_initial_value_linearity(rng):
    path = stored_test_path(n_steps=10)
    f0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    full = transport_oracle(path, f0=f0)
    assert np.abs(full - transport_oracle(path) @ f0).max() < 1e-10


def dop853(path):
    """Reference transport by scipy's eighth-order DOP853 near its tightest tolerance."""
    s0, s1 = path.s_range
    d = len(path.A(s0))
    sol = solve_ivp(lambda s, y: (path.A(s) @ y.reshape(d, d)).reshape(-1), (s0, s1),
                    np.eye(d, dtype=complex).reshape(-1), method="DOP853",
                    rtol=2.3e-14, atol=1e-16)
    assert sol.success
    return sol.y[:, -1].reshape(d, d)


def antihermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (m - m.conj().T)


def oracle_paths():
    rng = np.random.default_rng(20)
    yield stored_test_path()
    for d in (2, 2, 4, 4):
        yield ConnectionPath(A=_affine_connection(antihermitian(rng, d), antihermitian(rng, d)),
                             s_range=(0.0, 1.0), n_steps=1)


@pytest.mark.parametrize("path", list(oracle_paths()), ids=["stored", "d2a", "d2b", "d4a", "d4b"])
def test_oracle_against_dop853(path):
    f = transport_oracle(path)
    assert np.abs(f - dop853(path)).max() <= 1e-13
    back = transport_oracle(replace(path, s_range=path.s_range[::-1]))
    assert np.abs(back - np.linalg.inv(f)).max() <= 1e-12


def test_oracle_empty_range_returns_the_start(rng):
    path = replace(stored_test_path(), s_range=(0.4, 0.4))
    f0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.array_equal(transport_oracle(path), np.eye(2))
    assert np.array_equal(transport_oracle(path, f0=f0), f0)


def test_oracle_samples_each_step_once():
    stack, calls = counting(stored_test_path().A.stack)
    transport_oracle(ConnectionPath(A=stacked(stack), s_range=(0.0, 1.0), n_steps=1))
    # the start point for the identity's size, then the seven nodes of each step
    assert [len(s) for s in calls[1:]] == [7] * (len(calls) - 1) and len(calls) > 10
    a, points = counting(stored_test_path().A)
    transport_oracle(ConnectionPath(A=a, s_range=(0.0, 1.0), n_steps=1))
    assert len(points) == 1 + 7 * (len(calls) - 1)


@pytest.mark.parametrize("sample, error", [
    (np.ones((2, 3)), DimensionError),
    (np.full((2, 2), np.inf), ValueError),
])
def test_oracle_rejects_bad_samples(sample, error):
    with pytest.raises(error):
        transport_oracle(ConnectionPath(A=lambda s: sample, s_range=(0.0, 1.0), n_steps=1))


@pytest.mark.parametrize("f0, error", [
    (np.full((2, 2), np.nan), ValueError),
    (np.eye(3), DimensionError),
], ids=["nan", "3x3"])
def test_oracle_checks_its_start(f0, error):
    with pytest.raises(error):
        transport_oracle(stored_test_path(), f0=f0)


def test_oracle_overflow_is_a_stiffness_error():
    x = np.array([[0.0, 1e300], [-1e300, 0.0]], dtype=complex)
    path = ConnectionPath(A=lambda s: x, s_range=(0.0, 1.0), n_steps=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError):
            transport_oracle(path)


# ---------------------------------------------------------------------------
# stokes

LOOP_BASE = (0.2, -0.1)
LOOP_DIRS = ((1.0, 0.0), (0.0, 1.0))


def stokes_at(eps, field=stored_su2_field, **kw):
    return stokes_residual(field, LoopSpec(base=LOOP_BASE, dirs=LOOP_DIRS,
                                           epsilon=eps), **kw)


def test_stokes_frozen_residuals():
    assert abs(stokes_at(0.1) - 6.538203e-04) < 1e-8
    assert abs(stokes_at(0.05) - 8.091481e-05) < 1e-9
    assert abs(stokes_at(0.025) - 1.007034e-05) < 1e-10


def test_stokes_defect_is_third_order():
    r1, r2, r3 = stokes_at(0.1), stokes_at(0.05), stokes_at(0.025)
    assert r1 / r2 >= 6.0
    assert r2 / r3 >= 6.0


def test_stokes_abelian_field_exact():
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

    def abelian(u):
        u = np.asarray(u, dtype=float)
        return np.stack([1j * 0.3 * u[1] * z, 1j * 0.4 * u[0] * z])

    assert stokes_at(0.1, field=abelian) < 1e-12


def test_stokes_zero_field():
    def zero(u):
        return np.zeros((2, 2, 2), dtype=complex)

    assert stokes_at(0.1, field=zero) == 0.0


def test_stokes_patch_guard():
    def in_patch(c):
        return bool(np.all(np.abs(np.asarray(c)) < 0.25))

    with pytest.raises(PatchDomainError):
        stokes_at(0.1, in_patch=in_patch)
    # a loop inside the patch passes the guard
    r = stokes_residual(stored_su2_field,
                        LoopSpec(base=(0.0, 0.0), dirs=LOOP_DIRS, epsilon=0.05),
                        in_patch=in_patch)
    assert r > 0.0


# ---------------------------------------------------------------------------
# bianchi

def test_bianchi_flat_zero():
    assert bianchi_residual(flat_plane(), SUM, CFG, np.array([0.1, 0.2])) < 1e-8


def test_bianchi_two_parameter_machine_zero():
    # with two parameters every cyclic triple repeats an index, so the sum
    # telescopes exactly; the residual is rounding noise at any resolution
    for chart, u in ((sphere(), np.array([0.9, 0.5])),
                     (torus(), np.array([1.0, 0.6]))):
        r_base = bianchi_residual(chart, SUM, CFG, u)
        half = replace(chart, fd_step=chart.fd_step / 2.0,
                       fd_step2=chart.fd_step2 / 2.0)
        r_half = bianchi_residual(half, SUM, CFG, u)
        assert r_base < 1e-12
        assert r_half < 1e-12


def test_bianchi_three_parameter_truncation_scaling():
    # on a genuinely 3-parameter chart the residual is truncation
    # dominated: halving the difference steps shrinks it about 4x
    for u in (np.array([0.3, -0.2, 0.4]), np.array([-0.5, 0.6, 0.1]),
              np.array([0.1, 0.2, -0.3])):
        r_base = bianchi_residual(graph3_chart(), SUM, CFG, u)
        r_half = bianchi_residual(graph3_chart(fd_step=5e-5, fd_step2=5e-4),
                                  SUM, CFG, u)
        assert r_base > 1e-8
        assert r_base / r_half >= 2.0
        assert abs(r_base / r_half - 4.0) < 0.5


def test_bianchi_needs_two_parameters():
    def map_vec(u):
        return np.array([u[0], u[0] * u[0]])

    chart = Chart(id="curve", p=1, dim=2,
                  map_mat=lambda u: np.diag(map_vec(u)).astype(complex),
                  map_vec=map_vec, in_domain=lambda u: True,
                  sample_box=(np.array([-1.0]), np.array([1.0])))
    with pytest.raises(DimensionError):
        bianchi_residual(chart, SUM, CFG, np.array([0.0]))
