"""The Gram kernel against the scalar dot, and the guarded solve's singular branches."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgeom import algebra, hypersurface, uncertainty
from opgeom.algebra import (
    AlgebraElement,
    DotConfig,
    PhysConstants,
    State,
    _dot_matrix,
    anticommutator,
    dot,
    fock_position,
    harmonic_hamiltonian,
    heisenberg_dot,
    state_eval,
)
from opgeom.errors import (
    DimensionError,
    LinearDependenceError,
    SingularGramError,
    SingularGramWarning,
    SingularMetricError,
)
from opgeom.hypersurface import (
    _fields,
    _Geo,
    chart_from_json,
    custom_grid,
    gibbs_force,
    orthonormal_frame,
    projector_apply,
    tangent_basis,
)
from opgeom.projection import cauchy_schwarz_check, project
from opgeom.uncertainty import energy_bound, fluctuation, fluctuation_bound, variance

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
    cfg = DotConfig(lam=complex(lam) * scale)
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
    chart = chart_from_json({"id": chart_id})
    phi = make_state(kind, rng, chart.dim)
    cfg = DotConfig(lam=lam)
    fast = _Geo(chart, phi, cfg)
    slow = _Geo(dataclasses.replace(chart, map_vec=None), phi, cfg)
    assert fast.weights is not None and slow.weights is None
    lo, hi = chart.sample_box
    u = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=chart.p)
    f_fast, f_slow = _fields(fast, u[None], second=True), _fields(slow, u[None], second=True)
    ts_fast, ts_slow = f_fast.t[0], f_slow.t[0]
    sec_fast, sec_slow = f_fast.sec[0, 1:], f_slow.sec[0, 1:]  # the pairs (0, 1) and (1, 1)
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
    # a frame needs a second step, which a grid chart has only when given one
    chart = dataclasses.replace(collapsed_chart(), fd_step2=0.5)
    with pytest.raises(LinearDependenceError):
        orthonormal_frame(chart, State.unnormalized_sum(), DotConfig(), [0.1, 0.1])


@pytest.mark.parametrize("case", [_tangent_basis_warns, _projector_raises, _energy_bound_warns,
                                  _frame_raises], ids=lambda f: f.__name__.strip("_"))
def test_singular_branches(case):
    case()


# ---------------------------------------------------------------------------
# the one-Gram forms of project, cauchy_schwarz_check and the bounds against
# their element-by-element definitions: the scalar dot loop, heisenberg_dot
# and state_eval

def rand_el(rng, n, kind):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "h":
        return AlgebraElement(0.5 * (m + m.conj().T))
    if kind == "a":
        return AlgebraElement(0.5 * (m - m.conj().T))
    return AlgebraElement(m)


FAMILY_KINDS = {"hermitian": "hhhhhh", "antihermitian": "aaaaaa", "mixed": "hahaah"}
FIXED_LAMS = [0.5, 0.3 + 0.4j, -0.7]


def dot_loop(phi, cfg, xs, ys):
    return np.array([[dot(phi, cfg, x, y).real for y in ys] for x in xs])


def anticommutator_form(phi, bs):
    return np.array([[0.5 * state_eval(phi, anticommutator(bi, bj)) for bj in bs] for bi in bs])


@pytest.mark.parametrize("family", sorted(FAMILY_KINDS))
@pytest.mark.parametrize("lam", FIXED_LAMS)
@pytest.mark.parametrize("kind", KINDS)
def test_one_gram_forms_match_element_definitions(kind, lam, family):
    rng = np.random.default_rng([KINDS.index(kind), FIXED_LAMS.index(lam),
                                 sorted(FAMILY_KINDS).index(family)])
    n, p = int(rng.choice([4, 7, 16])), int(rng.integers(3, 7))
    phi, cfg = make_state(kind, rng, n), DotConfig(lam=complex(lam) * float(rng.uniform(0.5, 2.0)))
    bs = [rand_el(rng, n, t) for t in FAMILY_KINDS[family][:p]]
    a, h = rand_el(rng, n, "g"), rand_el(rng, n, "h")

    # project and cauchy_schwarz_check: M, N and a.a from the scalar dot
    m, cross = dot_loop(phi, cfg, bs, bs), dot_loop(phi, cfg, [a], bs)[0]
    w = np.linalg.solve(m, cross)
    par = sum(wi * bi.m for wi, bi in zip(w, bs))
    perp = AlgebraElement(a.m - par)
    res = project(phi, cfg, a, bs)
    assert rel_gap(res.coefficients, -w) <= 1e-10
    assert rel_gap(res.parallel.m, par) <= 1e-10
    assert rel_gap(res.perpendicular.m, perp.m) <= 1e-10
    assert rel_gap(res.norm_sq_parallel, cross @ w) <= 1e-10
    assert rel_gap(res.residual, dot(phi, cfg, perp, perp).real) <= 1e-10
    aa = dot(phi, cfg, a, a).real
    big = dot_loop(phi, cfg, [a] + bs, [a] + bs)
    residual, ratio = cauchy_schwarz_check(phi, cfg, a, bs)
    assert rel_gap(residual, aa - cross @ w) <= 1e-10
    assert rel_gap(ratio, np.linalg.det(big) / np.linalg.det(m)) <= 1e-10

    # fluctuation_bound: the projection of da onto the db_i
    dbs = [fluctuation(phi, b) for b in bs]
    da = fluctuation(phi, h)
    dm, dcross = dot_loop(phi, cfg, dbs, dbs), dot_loop(phi, cfg, [da], dbs)[0]
    rep = fluctuation_bound(phi, cfg, h, bs)
    assert rel_gap(rep.lhs, variance(phi, h)) <= 1e-10
    assert rel_gap(rep.rhs, dcross @ np.linalg.solve(dm, dcross)) <= 1e-10

    # energy_bound: velocities from heisenberg_dot, M from the anticommutators
    consts = PhysConstants(hbar=float(rng.uniform(0.5, 2.0)))
    dts = [rand_el(rng, n, "h") if k % 2 else None for k in range(p)]
    vel = np.array([state_eval(phi, heisenberg_dot(consts, h, b, dt)) for b, dt in zip(bs, dts)])

    def form(els):
        return (consts.hbar**2 / 4.0 * (vel @ np.linalg.solve(anticommutator_form(phi, els), vel))).real

    raw, fluct = energy_bound(consts, phi, h, bs, explicit_dts=dts)
    assert rel_gap(raw.lhs, state_eval(phi, h @ h).real) <= 1e-10
    assert rel_gap(raw.rhs, form(bs)) <= 1e-10
    assert rel_gap(fluct.lhs, variance(phi, h)) <= 1e-10
    assert rel_gap(fluct.rhs, form(dbs)) <= 1e-10


# ---------------------------------------------------------------------------
# work counts: each operation applies the state to each stack once

def _counted(monkeypatch, owner, name, calls):
    inner = getattr(owner, name)

    def wrapped(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)


@pytest.mark.parametrize("op, grams", [
    ("project", 2), ("fluctuation_bound", 1), ("cauchy_schwarz_check", 1), ("energy_bound", 3),
    ("gibbs_force", 1),
])
def test_state_gram_calls_per_operation(monkeypatch, op, grams):
    rng = np.random.default_rng(5)
    phi = rand_density(rng, 6)
    bs = [rand_el(rng, 6, t) for t in "hhah"]
    a, h = rand_el(rng, 6, "g"), rand_el(rng, 6, "h")
    calls, commutators = [], []
    _counted(monkeypatch, State, "gram", calls)
    for owner in (algebra, uncertainty):
        for name in ("heisenberg_dot", "_heisenberg"):
            if hasattr(owner, name):
                _counted(monkeypatch, owner, name, commutators)
    run = {
        "project": lambda: project(phi, DotConfig(), a, bs),
        "fluctuation_bound": lambda: fluctuation_bound(phi, DotConfig(), h, bs[:2] + bs[3:]),
        "cauchy_schwarz_check": lambda: cauchy_schwarz_check(phi, DotConfig(), a, bs),
        "energy_bound": lambda: energy_bound(PhysConstants(), phi, h, bs,
                                             explicit_dts=[None, h, None, None]),
        "gibbs_force": lambda: gibbs_force(PhysConstants(), bs, h, 0.7),
    }
    run[op]()
    assert len(calls) == grams
    assert commutators == []


def test_bounds_on_raw_stacks_build_no_elements(monkeypatch):
    rng = np.random.default_rng(5)
    phi = rand_density(rng, 6)
    bs = [rand_el(rng, 6, "h") for _ in range(3)]
    h = rand_el(rng, 6, "h")
    built = []
    inner = AlgebraElement.__post_init__
    monkeypatch.setattr(AlgebraElement, "__post_init__", lambda el: built.append(1) or inner(el))
    fluctuation_bound(phi, DotConfig(), h, bs)
    uncertainty.pair_product_bound(phi, bs[0], bs[1])
    assert built == []


def test_gibbs_force_checks_hermiticity_once_and_dimensions(monkeypatch):
    rng = np.random.default_rng(6)
    bs = [rand_el(rng, 2, "h") for _ in range(2)]
    checks = []
    for owner in (algebra, hypersurface):
        if hasattr(owner, "_require_hermitian"):
            _counted(monkeypatch, owner, "_require_hermitian", checks)
    gibbs_force(PhysConstants(), bs, rand_el(rng, 2, "h"), 0.7)
    assert checks == ["_require_hermitian"]  # the one inside State.gibbs
    with pytest.raises(DimensionError):
        gibbs_force(PhysConstants(), bs, rand_el(rng, 3, "h"), 0.7)


# ---------------------------------------------------------------------------
# a family with an exact linear dependency, and the other input errors

def _dependent_family(n=5):
    rng = np.random.default_rng(17)
    bs = [rand_el(rng, n, "h") for _ in range(3)]
    bs.append(AlgebraElement(1.2 * bs[0].m - 0.7 * bs[1].m))
    return rng, bs, rand_el(rng, n, "g"), rand_el(rng, n, "h")


@pytest.mark.parametrize("kind", KINDS)
def test_dependent_family_warns_or_raises_as_before(kind):
    rng, bs, a, h = _dependent_family()
    phi, cfg = make_state(kind, rng, 5), DotConfig()
    # each call warns once; energy_bound's raw and centered anticommutator
    # forms are both singular
    for call in (lambda: project(phi, cfg, a, bs),
                 lambda: fluctuation_bound(phi, cfg, a, bs),
                 lambda: energy_bound(PhysConstants(), phi, h, bs)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [w.category for w in caught] == [SingularGramWarning]
    with pytest.raises(SingularGramError):
        cauchy_schwarz_check(phi, cfg, a, bs)
    with pytest.raises(SingularGramError):
        gibbs_force(PhysConstants(), bs, h, 0.7)


@pytest.mark.parametrize("kind", KINDS)
def test_singular_warnings_point_at_the_caller(kind):
    rng, bs, a, h = _dependent_family()
    phi, cfg = make_state(kind, rng, 5), DotConfig()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        project(phi, cfg, a, bs)
        fluctuation_bound(phi, cfg, a, bs)
        energy_bound(PhysConstants(), phi, h, bs)
        tangent_basis(collapsed_chart(), State.unnormalized_sum(), cfg, [0.1, 0.1])
    assert [w.category for w in caught] == [SingularGramWarning] * 4
    assert {w.filename for w in caught} == {__file__}


def test_empty_and_mismatched_inputs_still_raise():
    _, bs, a, h = _dependent_family()
    phi, cfg, consts = State.normalized_trace(), DotConfig(), PhysConstants()
    for call in (lambda: project(phi, cfg, a, []),
                 lambda: cauchy_schwarz_check(phi, cfg, a, []),
                 lambda: fluctuation_bound(phi, cfg, a, []),
                 lambda: energy_bound(consts, phi, h, []),
                 lambda: gibbs_force(consts, [], h, 0.7),
                 lambda: energy_bound(consts, phi, h, bs[:2],
                                      explicit_dts=[None, AlgebraElement.identity(3)]),
                 lambda: energy_bound(consts, phi, h, bs[:2], explicit_dts=[None])):
        with pytest.raises(DimensionError):
            call()
    big = AlgebraElement(np.diag([1e200, 1.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError):
            project(phi, cfg, big, [AlgebraElement.identity(3)])
