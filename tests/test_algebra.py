"""Algebra layer: star, states, the state-induced dot product, dynamics helpers."""

import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgeom.algebra import (
    AlgebraElement,
    DotConfig,
    PhysConstants,
    HERMITICITY_TOL,
    State,
    _asymmetric,
    _require_hermitian,
    anticommutator,
    commutator,
    dot,
    embed_diag,
    fock_lowering,
    fock_momentum,
    fock_position,
    harmonic_hamiltonian,
    heisenberg_dot,
    matrix_from_json,
    matrix_to_json,
    star,
    state_eval,
    state_from_json,
    state_to_json,
)
from opgeom.errors import DimensionError, HermiticityError
from opgeom.hypersurface import chart_from_json, killing_metric
from opgeom.projection import power_dependence
from opgeom.uncertainty import _hermitian_or_anti

from .conftest import rand_density, rand_hermitian


def rand_element(rng, n):
    return AlgebraElement(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


# ---------------------------------------------------------------------------
# star

def test_star_identity():
    i4 = AlgebraElement.identity(4)
    assert np.array_equal(star(i4).m, i4.m)


def test_star_diagonal_conjugation():
    a = AlgebraElement(np.diag([1j, 2.0]).astype(complex))
    assert np.allclose(star(a).m, np.diag([-1j, 2.0]))


def test_star_involution_and_antihomomorphism(rng):
    for _ in range(20):
        a = rand_element(rng, 3)
        b = rand_element(rng, 3)
        assert np.array_equal(star(star(a)).m, a.m)
        ab = AlgebraElement(a.m @ b.m)
        assert np.allclose(star(ab).m, star(b).m @ star(a).m, atol=1e-12)


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        AlgebraElement(np.array([[np.nan, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        AlgebraElement(np.array([[np.inf, 0], [0, 1]], dtype=complex))


def test_nonsquare_rejected():
    with pytest.raises(DimensionError):
        AlgebraElement(np.zeros((2, 3), dtype=complex))


BIG = AlgebraElement(np.diag([1e300, 1.0]))
HUGE = AlgebraElement(np.diag([1e308, 1.0]))
OFF = AlgebraElement(np.array([[0.0, 1e10], [1e10, 0.0]]))


@pytest.mark.parametrize("call", [
    lambda: BIG @ OFF,
    lambda: HUGE + HUGE,
    lambda: HUGE - -HUGE,
    lambda: HUGE * 10.0,
    lambda: HUGE / 0.1,
    lambda: commutator(BIG, OFF),
    lambda: anticommutator(BIG, OFF),
    lambda: heisenberg_dot(PhysConstants(), BIG, OFF),
    lambda: heisenberg_dot(PhysConstants(), BIG, OFF, HUGE),
    lambda: dot(State.normalized_trace(), DotConfig(), BIG, BIG),
    lambda: State.vector([1e200, 1e200]),
    lambda: State.density(np.diag([1e308, 1e308])),
    lambda: State.gibbs(np.diag([1e10, -1e10]), 1e300),
    lambda: State.gibbs(np.diag([1e308, -1e308]), 10.0),
], ids=["matmul", "add", "sub", "mul", "div", "commutator", "anticommutator", "heisenberg",
        "heisenberg-explicit", "dot", "vector", "density", "gibbs-beta", "gibbs-energies"])
def test_overflowing_arithmetic_and_state_values_are_errors(call):
    # an overflow is the typed ValueError, with no NumPy warning first
    with warnings.catch_warnings(), pytest.raises(ValueError):
        warnings.simplefilter("error")
        call()


# ---------------------------------------------------------------------------
# state evaluation

def test_trace_state_average():
    phi = State.normalized_trace()
    val = state_eval(phi, AlgebraElement(np.diag([1.0, 3.0]).astype(complex)))
    assert abs(val - 2.0) < 1e-14


def test_all_variants_normalized(rng):
    h = rand_hermitian(rng, 4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    variants = [
        State.normalized_trace(),
        State.vector(psi / np.linalg.norm(psi)),
        rand_density(rng, 4),
        State.gibbs(h, 0.7),
    ]
    i4 = AlgebraElement.identity(4)
    for phi in variants:
        assert abs(state_eval(phi, i4) - 1.0) < 1e-12


def test_unnormalized_sum_is_n_times_trace(rng):
    a = rand_element(rng, 5)
    s = state_eval(State.unnormalized_sum(), a)
    t = state_eval(State.normalized_trace(), a)
    assert abs(s - 5 * t) < 1e-12 * max(1.0, abs(s))


def test_gibbs_ground_state_limit():
    h = AlgebraElement(np.diag([0.0, 5.0]).astype(complex))
    phi = State.gibbs(h, 200.0)
    val = state_eval(phi, AlgebraElement(np.diag([0.3, 0.9]).astype(complex)))
    assert abs(val - 0.3) < 1e-12


def test_state_eval_conjugation_and_linearity(rng):
    phi = rand_density(rng, 4)
    for _ in range(30):
        a = rand_element(rng, 4)
        b = rand_element(rng, 4)
        alpha = complex(rng.normal(), rng.normal())
        assert abs(state_eval(phi, star(a)) - np.conj(state_eval(phi, a))) < 1e-12
        lin = state_eval(phi, AlgebraElement(alpha * a.m + b.m))
        assert abs(lin - (alpha * state_eval(phi, a) + state_eval(phi, b))) < 1e-11


def test_state_eval_dimension_mismatch():
    phi = State.vector(np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
        state_eval(phi, AlgebraElement.identity(3))


@pytest.mark.parametrize("args, kwargs", [
    (("vector",), {"psi": [2.0]}), (("density",), {}), ((), {}),
], ids=["unnormalized-vector", "density-without-rho", "no-arguments"])
def test_state_has_no_public_constructor(args, kwargs):
    # State("vector", psi=[2.0]) gave phi(1) = 4 and State("density") an
    # AttributeError at first use: every state comes from a checking classmethod
    with pytest.raises(TypeError, match="normalized_trace, .*unnormalized_sum, .*vector, "
                                        ".*density or .*gibbs"):
        State(*args, **kwargs)
    assert "eval_matrix" in State.__dict__  # where the bench's tracer patches it


def test_empty_inputs_are_dimension_errors():
    for call in (lambda: State.vector([]), lambda: embed_diag([]), lambda: fock_lowering(1)):
        with pytest.raises(DimensionError):
            call()


def test_density_validation():
    with pytest.raises(HermiticityError):
        State.density(np.array([[0.5, 0.4], [0.1, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        State.density(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue


# ---------------------------------------------------------------------------
# dot product

def test_dot_orthogonal_diagonals():
    phi = State.normalized_trace()
    cfg = DotConfig()
    a = embed_diag([1.0, 0.0])
    b = embed_diag([0.0, 1.0])
    assert abs(dot(phi, cfg, a, b)) < 1e-15


def test_dot_identity_normalization(rng):
    cfg = DotConfig()
    i3 = AlgebraElement.identity(3)
    for phi in (State.normalized_trace(), rand_density(rng, 3)):
        assert abs(dot(phi, cfg, i3, i3) - 1.0) < 1e-12
    cfg2 = DotConfig(lam=1.25)
    assert abs(dot(State.normalized_trace(), cfg2, i3, i3) - 2.5) < 1e-12


def test_dot_config_is_one_finite_complex_weight():
    # an overall factor s of the dot product is the weight s lam
    assert [field.name for field in dataclasses.fields(DotConfig)] == ["lam"]
    for cfg in (DotConfig(), DotConfig(lam=np.float64(0.5)), DotConfig(lam=1)):
        assert type(cfg.lam) is complex
    assert DotConfig().lam == 0.5
    for bad in (complex("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam is not finite"):
            DotConfig(lam=bad)


def test_dot_config_weight_is_a_number():
    # complex() would read "1+2j" as 1+2j; a weight is a number, as a chart radius is
    for bad in ("1+2j", "0.5", None, [0.5]):
        with pytest.raises(TypeError, match="lam must be a number"):
            DotConfig(lam=bad)


def test_dot_symmetric_real_positive(rng):
    cfg = DotConfig()
    for n, phi in ((3, State.normalized_trace()), (4, rand_density(rng, 4))):
        for _ in range(50):
            a = rand_element(rng, n)
            b = rand_element(rng, n)
            dab = dot(phi, cfg, a, b)
            dba = dot(phi, cfg, b, a)
            assert abs(dab.imag) < 1e-12
            assert abs(dab - dba) < 1e-12
            assert dot(phi, cfg, a, a).real >= -1e-12


def test_dot_positivity_all_variants(rng):
    cfg = DotConfig()
    h = rand_hermitian(rng, 4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    variants = [
        State.normalized_trace(),
        State.unnormalized_sum(),
        State.vector(psi / np.linalg.norm(psi)),
        rand_density(rng, 4),
        State.gibbs(h, 1.3),
    ]
    for phi in variants:
        for _ in range(200):
            a = rand_element(rng, 4)
            assert dot(phi, cfg, a, a).real >= -1e-12


def test_dot_complex_lambda_asymmetry_witness(pauli):
    # lambda = i/2 weighs the antisymmetric part; symmetry must fail for a
    # generic non-commuting hermitian pair.
    phi = State.vector(np.array([1.0, 0.0]))
    cfg = DotConfig(lam=0.5j)
    dxy = dot(phi, cfg, pauli["x"], pauli["y"])
    dyx = dot(phi, cfg, pauli["y"], pauli["x"])
    assert abs(dxy - dyx) > 0.5
    # value is the expectation of the i-weighted commutator part
    comm = state_eval(phi, commutator(pauli["x"], pauli["y"]))
    assert abs(dxy - (0.5j * comm)) < 1e-12


def test_embed_diag_dot_values():
    v, w = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    cfg = DotConfig()
    d_tr = dot(State.normalized_trace(), cfg, embed_diag(v), embed_diag(w))
    assert abs(d_tr - 5.5) < 1e-14
    d_sum = dot(State.unnormalized_sum(), cfg, embed_diag(v), embed_diag(w))
    assert abs(d_sum - 11.0) < 1e-14
    z = embed_diag(np.zeros(2))
    assert abs(dot(State.normalized_trace(), cfg, z, embed_diag(v))) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    lam_re=st.floats(-2, 2, allow_nan=False),
    lam_im=st.floats(-2, 2, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_dot_is_always_real(lam_re, lam_im, seed):
    # the lambda-weighted combination pairs each term with its own conjugate
    r = np.random.default_rng(seed)
    a = AlgebraElement(r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3)))
    b = AlgebraElement(r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3)))
    phi = rand_density(r, 3)
    val = dot(phi, DotConfig(lam=complex(lam_re, lam_im)), a, b)
    assert abs(val.imag) < 1e-10 * max(1.0, abs(val))


# ---------------------------------------------------------------------------
# gibbs state details

def test_gibbs_normalization_beta_sweep(rng):
    i4 = AlgebraElement.identity(4)
    for beta in (0.0, 1.0, 10.0):
        h = rand_hermitian(rng, 4)
        assert abs(state_eval(State.gibbs(h, beta), i4) - 1.0) < 1e-12


def test_gibbs_beta_zero_is_trace(rng):
    h = rand_hermitian(rng, 4)
    g0 = State.gibbs(h, 0.0)
    tr = State.normalized_trace()
    for _ in range(100):
        a = rand_element(rng, 4)
        assert abs(state_eval(g0, a) - state_eval(tr, a)) < 1e-12


def test_gibbs_large_beta_stable():
    h = AlgebraElement(np.diag([0.0, 1000.0]).astype(complex))
    phi = State.gibbs(h, 1000.0)
    val = state_eval(phi, AlgebraElement.identity(2))
    assert np.isfinite(val.real) and abs(val - 1.0) < 1e-12


def test_gibbs_rejects_nonhermitian():
    with pytest.raises(HermiticityError):
        State.gibbs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_gibbs_large_negative_beta_is_top_projector():
    # the exponent shift follows the sign of beta, so exp never overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        phi = State.gibbs(np.diag([0.0, 1.0]), -1e6)
    assert state_eval(phi, embed_diag([0.0, 1.0])) == 1.0
    assert state_eval(phi, embed_diag([1.0, 0.0])) == 0.0


def test_gibbs_zero_temperature_limit_has_no_warning():
    # beta E overflows to inf for the excited level only: its weight is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = State.gibbs(np.diag([1e10, 1.0]), 1e300)
    assert state_eval(phi, embed_diag([0.0, 1.0])) == 1.0
    assert state_eval(phi, embed_diag([1.0, 0.0])) == 0.0


@pytest.mark.parametrize("m", [[[0.0, 1e308], [-1e308, 0.0]], [[1.7e308 + 1.7e308j, 0.0], [0.0, 0.0]]],
                         ids=["difference", "modulus"])
def test_symmetry_test_overflow_is_asymmetric_with_no_warning(m):
    # a - a' overflows, and with it the modulus of the 1.7e308 + 1.7e308j entry
    # that sets the scale: not hermitian, by the typed error
    with warnings.catch_warnings(), pytest.raises(HermiticityError):
        warnings.simplefilter("error")
        _require_hermitian(np.array(m, dtype=complex))


def asymmetric_formula(a, t, axes=None):
    """The relative symmetry test without its equality head: the reference."""
    with np.errstate(all="ignore"):
        scale = np.minimum(np.maximum(1.0, np.abs(a).max(axis=axes)), np.finfo(float).max)
        return np.abs(a - t).max(axis=axes) > HERMITICITY_TOL * scale


def _symmetry_cases():
    rng = np.random.default_rng(31)
    r, c = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    sym, herm = r + r.T, c + c.conj().T
    inf = np.array([[1.0, math.inf, 0.0], [math.inf, 1.0, -math.inf], [0.0, -math.inf, 2.0]])
    nan = np.array([[1.0, math.nan], [math.nan, 1.0]])
    near = [np.array([[1.0, 1.0 + d], [1.0, 1.0]]) for d in (0.5e-10, 2e-10)]
    overflow = np.array([[1.7e308 + 1.7e308j, 0.0], [0.0, 0.0]])
    return [  # (a, t, bit-equal, asymmetric)
        (sym, sym.T, True, False), (herm, herm.conj().T, True, False), (inf, inf.T, True, False),
        (inf.astype(complex), inf.astype(complex).conj().T, True, False),
        (nan, nan.T, False, False), (near[0], near[0].T, False, False),
        (near[1], near[1].T, False, True), (overflow, overflow.conj().T, False, True),
        (r, r.T, False, True), (c, c.conj().T, False, True),
    ]


@pytest.mark.parametrize("a, t, exact, verdict", _symmetry_cases(), ids=[
    "symmetric", "hermitian", "mirrored-inf", "mirrored-inf-complex", "nan",
    "just-inside", "just-beyond", "modulus-overflow", "asymmetric", "non-hermitian"])
def test_symmetry_test_takes_the_verdict_of_its_formula(a, t, exact, verdict):
    # bit-equal inputs take the equality head (a Python False); every verdict
    # is the formula's, alone and for a stack tested per member over its axes
    want = asymmetric_formula(a, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _asymmetric(a, t)
        assert (got is False) == exact
        assert bool(got) == bool(want) == verdict
        other = np.arange(a.size, dtype=a.dtype).reshape(a.shape)  # not symmetric
        stack_a, stack_t = np.stack([a, other, a]), np.stack([t, other.T, t])
        for sa, st_ in ((stack_a, stack_t), (stack_a[[0, 2]], stack_t[[0, 2]])):
            got, want = _asymmetric(sa, st_, axes=(-2, -1)), asymmetric_formula(sa, st_, axes=(-2, -1))
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tolist() == want.tolist()


def test_an_antihermitian_element_is_told_by_the_exact_test():
    rng = np.random.default_rng(32)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    anti = AlgebraElement(1j * (c + c.conj().T))
    adj = anti.m.conj().T
    assert np.array_equal(anti.m, -adj) and _asymmetric(anti.m, -adj) is False
    assert bool(_asymmetric(anti.m, adj)) == bool(asymmetric_formula(anti.m, adj))
    assert _hermitian_or_anti(anti, "x") == -1.0
    assert _hermitian_or_anti(AlgebraElement(c + c.conj().T), "x") == 1.0


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_gibbs_rejects_nonfinite_beta(beta):
    with pytest.raises(ValueError):
        State.gibbs(np.diag([0.0, 1.0]), beta)


@pytest.mark.parametrize("psi", [[math.nan, 0.0], [1.0, math.inf], [complex(0.0, math.nan), 1.0]])
def test_vector_state_rejects_nonfinite(psi):
    with pytest.raises(ValueError):
        State.vector(psi)


# ---------------------------------------------------------------------------
# heisenberg dynamics

def test_heisenberg_conserved_quantity():
    consts = PhysConstants()
    h = AlgebraElement(np.diag([1.0, 2.0, 3.0]).astype(complex))
    b = AlgebraElement(np.diag([5.0, -1.0, 0.5]).astype(complex))
    assert np.abs(heisenberg_dot(consts, h, b).m).max() == 0.0


def test_heisenberg_oscillator_velocity():
    consts = PhysConstants()
    dim = 64
    x, p, h = fock_position(dim), fock_momentum(dim), harmonic_hamiltonian(dim)
    xdot = heisenberg_dot(consts, h, x)
    block = slice(0, 32)
    assert np.abs(xdot.m[block, block] - p.m[block, block]).max() < 1e-8


# sha256 of each oscillator operator's bytes at dims 2, 16 and 64, taken when the
# operators still took hbar, m and omega as parameters (all 1 by default)
FOCK_SHA256 = {
    ("fock_position", 2): "0863e3e8e22c85a39523ab35eb421dfd24a2293a4ec0e62b948219f0133c9fd5",
    ("fock_position", 16): "9b2333d1a89b20856759959ec9a82eb42f4bea42315c2f3eae63287673f99fa3",
    ("fock_position", 64): "15692b85579040033993f3485e43e8c4d7abd9099255b2a50c519563e9ccf425",
    ("fock_momentum", 2): "c9cc409dcc4dcfd6929eaf3af5faad81d4ffdc68f5fe34732d41949737dfda6d",
    ("fock_momentum", 16): "a164f5a8a3655b8dea4d0efe1a812f5c12b6071867f0c174293edb029e659961",
    ("fock_momentum", 64): "82f2c6505cf2e14e2dc3682464b99ea6f6727ebd7e5737f63d780b5122e135c3",
    ("harmonic_hamiltonian", 2): "5384266eca1a80a2bb339c6d9317b2122a41c36137066cbe20b83092236cfe7b",
    ("harmonic_hamiltonian", 16): "6cc196e92eed8882a6f78a3c2cd4de279d481afdca24d772483b5e6129be09ca",
    ("harmonic_hamiltonian", 64): "06e90bacea0362625884556ab58939f867e358e97f3179b1577a49f999d35832",
}


def test_fock_operators_keep_their_bytes():
    for fn in (fock_position, fock_momentum, harmonic_hamiltonian):
        for dim in (2, 16, 64):
            got = hashlib.sha256(fn(dim).m.tobytes()).hexdigest()
            assert got == FOCK_SHA256[fn.__name__, dim], (fn.__name__, dim)


@pytest.mark.parametrize("call, name", [
    (fock_lowering, "dim"), (fock_position, "dim"), (fock_momentum, "dim"),
    (harmonic_hamiltonian, "dim"),
    (lambda n: power_dependence(AlgebraElement(np.diag([1.0, 2.0])), n), "m"),
    (lambda n: killing_metric(np.zeros((2, 2, 2)), n), "d"),
    # counts read from JSON, which int() truncated: a "dim" of 2.7 read four entries as 2x2
    (lambda n: matrix_from_json({"dim": n, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}), "dim"),
    (lambda n: chart_from_json({"id": "custom_grid",
                                "params": {"axes": [[0.0, 1.0]], "dim": n, "values_re": [0.0] * 8}}),
     "dim"),
], ids=["fock_lowering", "fock_position", "fock_momentum", "harmonic_hamiltonian",
        "power_dependence", "killing_metric", "matrix_from_json", "custom_grid"])
def test_every_count_is_an_integer(call, name):
    # one rule (algebra._count): a float count is a ValueError, even a whole one,
    # and an integer type passes as the int it holds
    for bad in (2.5, 2.0):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad}"):
            call(bad)
    call(np.int64(2))


def test_heisenberg_pauli(pauli):
    consts = PhysConstants()
    got = heisenberg_dot(consts, pauli["z"], pauli["x"])
    assert np.allclose(got.m, -2.0 * pauli["y"].m, atol=1e-14)


def test_heisenberg_explicit_part(pauli):
    consts = PhysConstants()
    got = heisenberg_dot(consts, pauli["z"], pauli["x"], dbdt_explicit=pauli["i"])
    assert np.allclose(got.m, -2.0 * pauli["y"].m + np.eye(2), atol=1e-14)


def test_heisenberg_rejects_nonhermitian(pauli):
    consts = PhysConstants()
    bad = AlgebraElement(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(HermiticityError):
        heisenberg_dot(consts, bad, pauli["x"])


def test_phys_constants_validation():
    with pytest.raises(ValueError):
        PhysConstants(hbar=0.0)


# ---------------------------------------------------------------------------
# JSON round trips

def test_matrix_json_round_trip(rng):
    a = rand_element(rng, 3)
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(a))))
    assert np.array_equal(back.m, a.m)


def test_matrix_json_bad_shape():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "re": [1.0, 2.0], "im": [0.0, 0.0]})


def test_json_objects_without_their_fields_are_value_errors():
    h = {"dim": 1, "re": [0.0], "im": [0.0]}
    for obj, match in (({}, "must carry a 'kind' field"), ({"kind": "pure"}, "unknown state kind"),
                       ([1.0], "must carry a 'kind' field"),
                       ({"kind": "vector"}, "malformed vector state object: 're'"),
                       ({"kind": "vector", "re": [1.0]}, "malformed vector state object: 'im'"),
                       ({"kind": "density"}, "malformed density state object: 'rho'"),
                       ({"kind": "gibbs", "h": h}, "malformed gibbs state object: 'beta'"),
                       ({"kind": "gibbs", "beta": 1.0}, "malformed gibbs state object: 'h'")):
        with pytest.raises(ValueError, match=match):
            state_from_json(obj)
    with pytest.raises(ValueError, match="malformed matrix object: 're'"):
        matrix_from_json({"dim": 1, "im": [0.0]})
    for obj, match in (({"id": "custom_grid", "params": {"axes": [[0, 1]]}},
                        "malformed custom_grid chart object: 'dim'"),
                       ({"id": "custom_grid", "params": {"dim": 1}},
                        "malformed custom_grid chart object: 'axes'"),
                       ({"id": "sphere", "params": [1]}, "chart 'params' must be an object")):
        with pytest.raises(ValueError, match=match):
            chart_from_json(obj)


def test_matrix_dim_below_one_is_a_dimension_error():
    # checked before the reshape, whose error names no dimension
    for dim, n in ((-1, 1), (0, 0), (-2, 4)):
        with pytest.raises(DimensionError, match=f"matrix dim must be at least 1, got {dim}"):
            matrix_from_json({"dim": dim, "re": [1.0] * n, "im": [0.0] * n})


def test_state_json_round_trip(rng):
    h = rand_hermitian(rng, 3)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    states = [
        State.normalized_trace(),
        State.unnormalized_sum(),
        State.vector(psi / np.linalg.norm(psi)),
        rand_density(rng, 3),
        State.gibbs(h, 2.0),
    ]
    probe = rand_element(rng, 3)
    for phi in states:
        back = state_from_json(json.loads(json.dumps(state_to_json(phi))))
        assert back.kind == phi.kind and state_to_json(back) == state_to_json(phi)
        assert abs(state_eval(back, probe) - state_eval(phi, probe)) < 1e-12


@pytest.mark.parametrize("big", [1.0, 1e6])
def test_the_symmetry_checks_share_one_relative_tolerance(big):
    from opgeom.algebra import _require_hermitian
    from opgeom.errors import NonSymmetricMetricError
    from opgeom.hypersurface import _require_symmetric_metric, killing_metric
    from opgeom.uncertainty import _hermitian_or_anti

    def skewed(eps):  # symmetric and hermitian but for eps in one entry
        return big * np.array([[1.0, 0.5], [0.5 + eps, 1.0]])

    # a defect of 0.5e-10 max(1, max|a|) passes every check, 2e-10 fails it
    for eps, fails in ((0.5e-10, False), (2e-10, True)):
        for check, error in ((lambda m: _require_hermitian(m), HermiticityError),
                             (lambda m: _hermitian_or_anti(AlgebraElement(m), "b"), HermiticityError),
                             (lambda m: _hermitian_or_anti(AlgebraElement(1j * m), "b"), HermiticityError),
                             (lambda m: _require_symmetric_metric(m), NonSymmetricMetricError)):
            if fails:
                with pytest.raises(error):
                    check(skewed(eps))
            else:
                check(skewed(eps))
        # stacked metrics scale each member by its own entries
        stack = np.stack([skewed(0.0), skewed(eps) / big])
        if fails:
            with pytest.raises(NonSymmetricMetricError):
                _require_symmetric_metric(stack)
        else:
            _require_symmetric_metric(stack)
        f = np.zeros((2, 2, 2))
        f[0, 0, 1], f[0, 1, 0] = big, -big * (1.0 + eps)
        if fails:
            with pytest.raises(ValueError, match="antisymmetric"):
                killing_metric(f, 2)
        else:
            killing_metric(f, 2)
