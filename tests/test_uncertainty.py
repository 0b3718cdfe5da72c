"""Uncertainty reports: fluctuations, variances, and the three bound forms."""

import warnings

import numpy as np
import pytest

from opgeom.algebra import (
    AlgebraElement,
    DotConfig,
    PhysConstants,
    State,
    commutator,
    embed_diag,
    state_eval,
)
from opgeom.errors import DimensionError, HermiticityError, SingularGramWarning
from opgeom.uncertainty import (
    BoundReport,
    energy_bound,
    fluctuation,
    fluctuation_bound,
    pair_product_bound,
    variance,
)

from .conftest import coherent_state, rand_density, rand_hermitian

TRACE = State.normalized_trace()
CFG = DotConfig()
CONSTS = PhysConstants()


# ---------------------------------------------------------------------------
# fluctuation / variance

def test_fluctuation_of_identity_vanishes():
    da = fluctuation(TRACE, AlgebraElement.identity(3))
    assert np.abs(da.m).max() < 1e-14


def test_fluctuation_sigma_z_in_up_state(pauli):
    phi = State.vector(np.array([1.0, 0.0], dtype=complex))
    da = fluctuation(phi, pauli["z"])
    assert np.allclose(da.m, pauli["z"].m - np.eye(2), atol=1e-14)


def test_fluctuation_is_centered(rng, pauli):
    for _ in range(50):
        phi = rand_density(rng, 4)
        a = rand_hermitian(rng, 4)
        da = fluctuation(phi, a)
        assert abs(state_eval(phi, da)) < 1e-12


def test_variance_identity_zero(rng):
    assert abs(variance(rand_density(rng, 3), AlgebraElement.identity(3))) < 1e-14


def test_variance_sigma_x_in_up_state(pauli):
    phi = State.vector(np.array([1.0, 0.0], dtype=complex))
    assert abs(variance(phi, pauli["x"]) - 1.0) < 1e-14


def test_variance_ground_state_position(osc, ground):
    assert abs(variance(ground, osc["x"]) - 0.5) < 1e-10
    assert abs(variance(ground, osc["p"]) - 0.5) < 1e-10


def test_variance_nonnegative(rng):
    for _ in range(100):
        phi = rand_density(rng, 4)
        a = AlgebraElement(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert variance(phi, a) >= -1e-12


# ---------------------------------------------------------------------------
# fluctuation bound

def test_fluctuation_bound_saturates_for_affine_member(rng):
    # a = 2 b + 3 1 has fluctuation proportional to that of b, so the
    # projection recovers the whole variance
    b = rand_hermitian(rng, 4)
    a = AlgebraElement(2.0 * b.m + 3.0 * np.eye(4))
    phi = rand_density(rng, 4)
    rep = fluctuation_bound(phi, CFG, a, [b])
    assert rep.satisfied
    assert abs(rep.margin) < 1e-9 * max(1.0, rep.lhs)


def test_fluctuation_bound_orthogonal_reference(pauli):
    rep = fluctuation_bound(TRACE, CFG, pauli["z"], [pauli["x"]])
    assert abs(rep.lhs - 1.0) < 1e-12
    assert abs(rep.rhs) < 1e-12
    assert rep.satisfied


def test_fluctuation_bound_random_sweep(rng):
    for _ in range(500):
        phi = rand_density(rng, 3)
        a = rand_hermitian(rng, 3)
        bs = [rand_hermitian(rng, 3) for _ in range(2)]
        rep = fluctuation_bound(phi, CFG, a, bs)
        assert rep.satisfied, rep


def test_fluctuation_bound_single_reference_textbook(rng):
    # with one reference the right side is the squared symmetrized
    # covariance divided by the reference variance
    for _ in range(50):
        phi = rand_density(rng, 4)
        a, b = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
        rep = fluctuation_bound(phi, CFG, a, [b])
        da, db = fluctuation(phi, a), fluctuation(phi, b)
        cov = 0.5 * state_eval(phi, da @ db + db @ da).real
        vb = variance(phi, b)
        assert abs(rep.rhs - cov * cov / vb) < 1e-10 * max(1.0, abs(rep.rhs))


def test_fluctuation_bound_scale_covariance(rng):
    phi = rand_density(rng, 4)
    a = rand_hermitian(rng, 4)
    bs = [rand_hermitian(rng, 4) for _ in range(2)]
    base = fluctuation_bound(phi, CFG, a, bs)
    scaled = fluctuation_bound(phi, CFG, AlgebraElement(2.5 * a.m), bs)
    assert abs(scaled.lhs - 6.25 * base.lhs) < 1e-9 * max(1.0, base.lhs)
    assert abs(scaled.rhs - 6.25 * base.rhs) < 1e-9 * max(1.0, base.rhs)


def test_fluctuation_bound_empty_reference(rng):
    with pytest.raises(DimensionError):
        fluctuation_bound(TRACE, CFG, rand_hermitian(rng, 2), [])


# ---------------------------------------------------------------------------
# pair product bound

def test_pair_bound_ground_state_saturation(osc, ground):
    rep = pair_product_bound(ground, osc["x"], osc["p"])
    assert abs(rep.lhs - 0.25) < 1e-8
    assert abs(rep.rhs - 0.25) < 1e-8
    assert abs(rep.margin) < 1e-8
    assert rep.satisfied
    assert abs(rep.extra["commutator_abs"] - 1.0) < 1e-10


def test_pair_bound_commuting_pair():
    rep = pair_product_bound(TRACE, embed_diag([1.0, -1.0]), embed_diag([2.0, 0.5]))
    assert abs(rep.rhs) < 1e-14
    assert rep.satisfied


def test_pair_bound_scaled_saturation(osc, ground):
    # scaling both elements by sqrt(theta) rescales the commutator to
    # i theta and keeps the bound exactly saturated
    theta = 0.3
    s = np.sqrt(theta)
    a = AlgebraElement(s * osc["x"].m)
    b = AlgebraElement(s * osc["p"].m)
    rep = pair_product_bound(ground, a, b)
    assert abs(rep.lhs - theta * theta / 4.0) < 1e-10
    assert abs(rep.rhs - theta * theta / 4.0) < 1e-10
    assert abs(rep.extra["commutator_abs"] - theta) < 1e-10


def test_pair_bound_random_sweep(rng):
    for _ in range(300):
        phi = rand_density(rng, 4)
        a, b = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
        rep = pair_product_bound(phi, a, b)
        assert rep.satisfied, rep


def test_pair_bound_rejects_nonhermitian(rng):
    a = AlgebraElement(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(HermiticityError):
        pair_product_bound(TRACE, a, embed_diag([1.0, 2.0]))
    with pytest.raises(HermiticityError):
        pair_product_bound(TRACE, embed_diag([1.0, 2.0]), a)


def test_pair_bound_dim_mismatch():
    with pytest.raises(DimensionError):
        pair_product_bound(TRACE, embed_diag([1.0, 2.0]), embed_diag([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# energy bound

def test_energy_bound_commuting_family():
    h = embed_diag([0.0, 1.0, 3.0])
    bs = [embed_diag([1.0, 2.0, 0.0]), embed_diag([2.0, 0.0, 1.0])]
    raw, fluct = energy_bound(CONSTS, TRACE, h, bs)
    assert abs(raw.rhs) < 1e-14 and abs(fluct.rhs) < 1e-14
    assert raw.satisfied and fluct.satisfied
    assert abs(raw.lhs - 10.0 / 3.0) < 1e-12


def test_energy_bound_coherent_state_closed_form(osc):
    phi = coherent_state(1.0, osc["dim"])
    raw, fluct = energy_bound(CONSTS, phi, osc["h"], [osc["x"], osc["p"]])
    # velocities (0, -sqrt(2)), raw moment matrix diag(2.5, 0.5)
    assert abs(raw.lhs - 3.25) < 1e-8
    assert abs(raw.rhs - 1.0) < 1e-8
    assert raw.rhs > 1e-3
    assert raw.satisfied
    # centered moments diag(0.5, 0.5) and variance 1: exact saturation
    assert abs(fluct.lhs - 1.0) < 1e-8
    assert abs(fluct.rhs - 1.0) < 1e-8
    assert abs(fluct.margin) < 1e-8
    assert fluct.satisfied


def test_energy_bound_random_sweep(rng):
    for _ in range(200):
        phi = rand_density(rng, 4)
        h = rand_hermitian(rng, 4)
        bs = [rand_hermitian(rng, 4) for _ in range(2)]
        raw, fluct = energy_bound(CONSTS, phi, h, bs)
        assert raw.satisfied, raw
        assert fluct.satisfied, fluct


def test_energy_bound_rephasing_invariance(rng):
    # replacing B by iB leaves both reports unchanged
    phi = rand_density(rng, 4)
    h = rand_hermitian(rng, 4)
    b = rand_hermitian(rng, 4)
    raw1, fl1 = energy_bound(CONSTS, phi, h, [b])
    raw2, fl2 = energy_bound(CONSTS, phi, h, [AlgebraElement(1.0j * b.m)])
    assert abs(raw1.rhs - raw2.rhs) < 1e-9 * max(1.0, abs(raw1.rhs))
    assert abs(fl1.rhs - fl2.rhs) < 1e-9 * max(1.0, abs(fl1.rhs))


def test_energy_bound_explicit_time_derivative(osc, ground):
    # an explicit part shifts the observed velocity and hence the bound
    x = osc["x"]
    raw0, _ = energy_bound(CONSTS, ground, osc["h"], [x])
    raw1, _ = energy_bound(CONSTS, ground, osc["h"], [x],
                           explicit_dts=[AlgebraElement.identity(osc["dim"])])
    # ground state: <p> = 0 so the commutator velocity vanishes; the
    # explicit identity contributes velocity 1 against <x^2> = 1/2
    assert abs(raw0.rhs) < 1e-12
    assert abs(raw1.rhs - (1.0 / 4.0) / 0.5) < 1e-10


def test_energy_bound_hbar_scaling(rng):
    phi = rand_density(rng, 4)
    h = rand_hermitian(rng, 4)
    bs = [rand_hermitian(rng, 4)]
    raw1, _ = energy_bound(PhysConstants(hbar=1.0), phi, h, bs)
    raw2, _ = energy_bound(PhysConstants(hbar=2.0), phi, h, bs)
    # velocity carries 1/hbar and the prefactor hbar^2/4, so rhs is
    # hbar-independent for a pure commutator velocity
    assert abs(raw1.rhs - raw2.rhs) < 1e-9 * max(1.0, abs(raw1.rhs))


def test_energy_bound_validation(rng):
    h = rand_hermitian(rng, 3)
    with pytest.raises(DimensionError):
        energy_bound(CONSTS, TRACE, h, [])
    with pytest.raises(DimensionError):
        energy_bound(CONSTS, TRACE, h, [rand_hermitian(rng, 3)],
                     explicit_dts=[None, None])
    with pytest.raises(HermiticityError):
        energy_bound(CONSTS, TRACE,
                     AlgebraElement(np.array([[0, 1], [0, 0]], dtype=complex)),
                     [embed_diag([1.0, 2.0])])
    bad = AlgebraElement(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(HermiticityError):
        energy_bound(CONSTS, TRACE, embed_diag([1.0, 2.0]), [bad])


def test_overflowing_variance_and_bound_are_errors():
    # phi(da' da) of diag(1e200, 1) overflows to NaN; so does the bound's lhs,
    # and phi(h^2) of the energy bound: each a ValueError with no NumPy warning
    big = AlgebraElement(np.diag([1e200, 1.0]))
    with pytest.raises(ValueError, match="not finite"):
        variance(TRACE, big)
    with pytest.raises(ValueError, match="not finite"):
        fluctuation_bound(TRACE, CFG, big, [embed_diag([1.0, 2.0])])
    sigma_x = AlgebraElement(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="energy bound hamiltonian.*not finite"):
        energy_bound(CONSTS, TRACE, big, [sigma_x])
    # the cross Gram phi(b' h) overflows as well, and a reference element's b' b
    with pytest.raises(ValueError, match="energy bound hamiltonian.*not finite"):
        energy_bound(CONSTS, TRACE, big, [embed_diag([1e200, 2.0])])
    off = AlgebraElement(np.array([[0.0, 1e308], [-1e308, 0.0]]))
    with pytest.raises(ValueError, match="not finite"):
        energy_bound(CONSTS, TRACE, embed_diag([1.0, 2.0]), [off])
    # the state value 1.7e308 is finite; the fluctuation -1.7e308 - 1.7e308 is not
    with pytest.raises(ValueError, match="not finite"):
        variance(State.vector([1.0, 0.0]), embed_diag([1.7e308, -1.7e308]))


def test_overflowing_pair_product_bound_is_an_error():
    # phi(a^2) of diag(1e200, 1) overflows in a @ a; with a = diag(1e300, 1)
    # the commutator's a @ b overflows too
    big = AlgebraElement(np.diag([1e200, 1.0]))
    with pytest.raises(ValueError, match="not finite"):
        pair_product_bound(TRACE, big, embed_diag([1.0, 2.0]))
    off = AlgebraElement(np.array([[0.0, 1e10], [1e10, 0.0]]))
    with warnings.catch_warnings(), pytest.raises(ValueError, match="not finite"):
        warnings.simplefilter("error")
        pair_product_bound(TRACE, AlgebraElement(np.diag([1e300, 1.0])), off)
    # |phi([a, b])| = 1e160 under a non-trace state: its square, taken as a
    # Python float's **, raised OverflowError instead of the bound's ValueError
    sigma_y = AlgebraElement(np.array([[0.0, -1j], [1j, 0.0]]))
    for phi in (State.density(np.diag([0.75, 0.25])), State.vector([1.0, 0.0])):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="not finite"):
            warnings.simplefilter("error")
            pair_product_bound(phi, AlgebraElement(np.array([[0.0, 1e160], [1e160, 0.0]])), sigma_y)


def test_overflowing_state_value_is_an_error():
    # the trace of diag(1e308, 1e308) overflows before any fluctuation is formed
    huge = AlgebraElement(np.diag([1e308, 1e308]))
    with pytest.raises(ValueError, match="state value is not finite"):
        variance(TRACE, huge)
    with pytest.raises(ValueError, match="state value is not finite"):
        fluctuation(TRACE, huge)
    with pytest.raises(ValueError, match="state value is not finite"):
        state_eval(TRACE, huge)


def test_energy_bound_warns_once_when_only_the_centred_form_is_singular():
    # {1, sigma_x} has a full-rank anticommutator form; centring sends 1 to 0
    refs = [AlgebraElement.identity(2), AlgebraElement(np.array([[0.0, 1.0], [1.0, 0.0]]))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        energy_bound(CONSTS, TRACE, embed_diag([1.0, 2.0]), refs)
    assert [w.category for w in caught] == [SingularGramWarning]
    assert caught[0].filename == __file__


def test_bound_report_shape():
    rep = BoundReport(lhs=2.0, rhs=1.0, margin=1.0, satisfied=True)
    assert rep.extra == {}
