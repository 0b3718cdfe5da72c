"""The Gram kernel against the scalar dot, and the guarded solve's singular branches."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgeom.algebra import (
    AlgebraElement,
    DotConfig,
    PhysConstants,
    State,
    _dot_matrix,
    dot,
    fock_position,
    harmonic_hamiltonian,
)
from opgeom.errors import LinearDependenceError, SingularGramWarning, SingularMetricError
from opgeom.hypersurface import (
    _fields,
    _Geo,
    custom_grid,
    make_chart,
    orthonormal_frame,
    projector_apply,
    tangent_basis,
)
from opgeom.uncertainty import energy_bound

from .conftest import rand_density, rand_hermitian

KINDS = ("trace", "sum", "vector", "density", "gibbs")
LAMS = st.sampled_from([0.5, 0.3 + 0.4j, -0.7]) | st.builds(
    complex, st.floats(-2, 2), st.floats(-2, 2))


def make_state(kind, rng, n):
    if kind == "trace":
        return State.normalized_trace()
    if kind == "sum":
        return State.unnormalized_sum()
    if kind == "vector":
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        return State.vector(psi / np.linalg.norm(psi))
    if kind == "density":
        return rand_density(rng, n)
    return State.gibbs(rand_hermitian(rng, n), float(rng.uniform(-2.0, 2.0)))


def rel_gap(got, want):
    return float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(KINDS), lam=LAMS, scale=st.floats(0.1, 3.0),
       n=st.integers(1, 6), p=st.integers(1, 5), q=st.integers(1, 5),
       same=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_dot_loop(kind, lam, scale, n, p, q, same, seed):
    rng = np.random.default_rng(seed)
    phi = make_state(kind, rng, n)
    cfg = DotConfig(lam=lam, scale=scale)
    xs = [AlgebraElement(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
          for _ in range(p)]
    ys = xs if same else [AlgebraElement(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                          for _ in range(q)]
    x_stack = np.stack([x.m for x in xs])
    y_stack = None if same else np.stack([y.m for y in ys])
    want_p = np.array([[phi.eval_matrix(x.m.conj().T @ y.m) for y in ys] for x in xs])
    assert rel_gap(phi.gram(x_stack, y_stack), want_p) <= 1e-12
    want = np.array([[dot(phi, cfg, x, y).real for y in ys] for x in xs])
    assert rel_gap(_dot_matrix(phi, cfg, x_stack, y_stack), want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(chart_id=st.sampled_from(["flat_plane", "sphere", "torus", "paraboloid"]),
       kind=st.sampled_from(KINDS), lam=LAMS, seed=st.integers(0, 2**32 - 1))
def test_geo_gram_diagonal_path_matches_generic(chart_id, kind, lam, seed):
    # the same chart without map_vec goes through the state kernel on matrices
    rng = np.random.default_rng(seed)
    chart = make_chart(chart_id)
    phi = make_state(kind, rng, chart.dim)
    cfg = DotConfig(lam=lam)
    fast = _Geo(chart, phi, cfg)
    slow = _Geo(dataclasses.replace(chart, map_vec=None), phi, cfg)
    assert fast.weights is not None and slow.weights is None
    lo, hi = chart.sample_box
    u = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=chart.p)
    f_fast, f_slow = _fields(fast, u[None], second=True), _fields(slow, u[None], second=True)
    ts_fast, ts_slow = f_fast.t[0], f_slow.t[0]
    sec_fast = np.stack([f_fast.sec[0, 0, 1], f_fast.sec[0, 1, 1]])
    sec_slow = np.stack([f_slow.sec[0, 0, 1], f_slow.sec[0, 1, 1]])
    assert rel_gap(fast.gram(ts_fast), slow.gram(ts_slow)) <= 1e-12
    assert rel_gap(fast.gram(ts_fast, sec_fast), slow.gram(ts_slow, sec_slow)) <= 1e-12


def collapsed_chart():
    # (u1, u1, 0) on a grid: the second tangent vanishes everywhere
    axes = [np.linspace(-1, 1, 5), np.linspace(-1, 1, 5)]
    vals = np.zeros((5, 5, 3, 3), dtype=complex)
    vals[..., 0, 0] = vals[..., 1, 1] = axes[0][:, None]
    return custom_grid(axes, vals)


def _tangent_basis_warns():
    with pytest.warns(SingularGramWarning):
        tangent_basis(collapsed_chart(), State.unnormalized_sum(), DotConfig(), [0.1, 0.1])


def _projector_raises():
    with pytest.warns(SingularGramWarning), pytest.raises(SingularMetricError):
        projector_apply(collapsed_chart(), State.unnormalized_sum(), DotConfig(), [0.1, 0.1],
                        AlgebraElement.identity(3))


def _energy_bound_warns():
    x = fock_position(8)
    family = [x, x @ x, AlgebraElement(x.m - 2.0 * (x @ x).m)]
    with pytest.warns(SingularGramWarning):
        reports = energy_bound(PhysConstants(), State.normalized_trace(), harmonic_hamiltonian(8),
                               family)
    assert all(np.isfinite([r.lhs, r.rhs, r.margin]).all() for r in reports)


def _frame_raises():
    with pytest.raises(LinearDependenceError):
        orthonormal_frame(collapsed_chart(), State.unnormalized_sum(), DotConfig(), [0.1, 0.1])


@pytest.mark.parametrize("case", [_tangent_basis_warns, _projector_raises, _energy_bound_warns,
                                  _frame_raises], ids=lambda f: f.__name__.strip("_"))
def test_singular_branches(case):
    case()
