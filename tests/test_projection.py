"""Gram machinery: projections, Cauchy-Schwarz, Gram-Schmidt, volumes, powers."""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgeom.algebra import AlgebraElement, DotConfig, State, _dot_matrix, dot, embed_diag
from opgeom.errors import (
    DimensionError,
    DomainError,
    LinearDependenceError,
    SingularGramError,
    SingularGramWarning,
)
from opgeom.projection import (
    cauchy_schwarz_check,
    gram,
    gram_schmidt,
    kernel_basis,
    levi_civita_volume,
    parallelepiped_volume,
    power_dependence,
    project,
    reflect,
    tetra_membership,
    tuple_inner,
)

from .conftest import rand_density, rand_hermitian

TRACE = State.normalized_trace()
CFG = DotConfig()


def rand_element(rng, n):
    return AlgebraElement(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


# ---------------------------------------------------------------------------
# gram

def test_gram_diagonal_pair():
    gm = gram(TRACE, CFG, [embed_diag([1.0, 0.0]), embed_diag([0.0, 1.0])])
    assert np.allclose(gm.m, [[0.5, 0.0], [0.0, 0.5]], atol=1e-14)
    assert abs(gm.det - 0.25) < 1e-14
    assert gm.is_full_rank


def test_gram_identity_any_normalized_state(rng):
    for phi in (TRACE, rand_density(rng, 2)):
        gm = gram(phi, CFG, [AlgebraElement.identity(2)])
        assert np.allclose(gm.m, [[1.0]], atol=1e-12)


def test_gram_proportional_pair_singular(rng):
    b = rand_hermitian(rng, 3)
    gm = gram(TRACE, CFG, [b, AlgebraElement(2.0 * b.m)])
    assert abs(gm.det) < 1e-12
    assert not gm.is_full_rank


def test_gram_symmetry_and_psd(rng):
    for _ in range(30):
        bs = [rand_element(rng, 4) for _ in range(3)]
        gm = gram(rand_density(rng, 4), CFG, bs)
        assert np.abs(gm.m - gm.m.T).max() < 1e-12
        assert np.linalg.eigvalsh(gm.m).min() >= -1e-10 * max(
            1.0, np.linalg.eigvalsh(gm.m).max())


def test_gram_empty_rejected():
    with pytest.raises(DimensionError):
        gram(TRACE, CFG, [])


# ---------------------------------------------------------------------------
# project

def test_project_hand_example():
    a = embed_diag([1.0, 1.0])
    res = project(TRACE, CFG, a, [embed_diag([1.0, 0.0])])
    # coefficients minimize |a + lam b|; the parallel part is -lam b
    assert np.allclose(res.coefficients, [-1.0], atol=1e-12)
    assert np.allclose(res.parallel.m, np.diag([1.0, 0.0]), atol=1e-12)
    assert abs(res.norm_sq_parallel - 0.5) < 1e-12
    assert abs(res.residual - 0.5) < 1e-12


def test_project_member_of_span(rng):
    b1, b2 = rand_hermitian(rng, 3), rand_hermitian(rng, 3)
    a = AlgebraElement(3.0 * b1.m - b2.m)
    res = project(TRACE, CFG, a, [b1, b2])
    assert res.residual < 1e-10
    assert np.abs(res.perpendicular.m).max() < 1e-6


def test_project_complete_basis_is_identity(rng):
    # coefficients are real, so a complete set over the reals needs the
    # matrix units together with their imaginary multiples (32 elements)
    units = [AlgebraElement(s * np.eye(4, dtype=complex)[:, [i]] @ np.eye(4)[[j], :])
             for i in range(4) for j in range(4) for s in (1.0, 1.0j)]
    phi = rand_density(rng, 4)
    a = rand_element(rng, 4)
    res = project(phi, CFG, a, units)
    assert res.residual < 1e-9


def test_project_invariants_sweep(rng):
    for _ in range(40):
        phi = rand_density(rng, 4)
        a = rand_element(rng, 4)
        bs = [rand_element(rng, 4) for _ in range(3)]
        res = project(phi, CFG, a, bs)
        assert res.residual >= -1e-10
        for b in bs:
            assert abs(dot(phi, CFG, res.perpendicular, b)) < 1e-10
        total = dot(phi, CFG, a, a).real
        assert abs(res.norm_sq_parallel + res.residual - total) < 1e-10
        # idempotence: projecting the parallel part is a fixed point
        again = project(phi, CFG, res.parallel, bs)
        assert np.abs(again.parallel.m - res.parallel.m).max() < 1e-10


def test_project_overflow_is_an_error():
    # a.a of diag(1e200, 1, 2) overflows: the residual would be NaN
    target = AlgebraElement(np.diag([1e200, 1.0, 2.0]))
    with pytest.raises(ValueError, match="not finite"):
        project(State.normalized_trace(), CFG, target, [AlgebraElement(np.eye(3))])


# b.b of diag(1e200, 1) overflows in the state's Gram kernel: each caller of the
# dot matrix raises its ValueError with no NumPy warning first
HUGE_SET = [AlgebraElement(np.diag([1e200, 1.0])), AlgebraElement(np.eye(2))]


def test_gram_overflow_is_an_error():
    with pytest.raises(ValueError, match="not finite"):
        gram(TRACE, CFG, HUGE_SET)
    # entries near 1e300 are finite, their 3x3 determinant is not
    with pytest.raises(ValueError, match="determinant is not finite"):
        gram(TRACE, CFG, [AlgebraElement(1e150 * np.diag(e)) for e in np.eye(3)])


def test_gram_schmidt_overflow_is_an_error():
    with pytest.raises(ValueError, match="non-finite"):
        gram_schmidt(TRACE, CFG, HUGE_SET)


def test_cauchy_schwarz_and_tuple_overflows_are_errors():
    with pytest.raises(ValueError, match="not finite"):
        cauchy_schwarz_check(TRACE, CFG, HUGE_SET[0], HUGE_SET[1:])
    with pytest.raises(ValueError, match="not finite"):
        tuple_inner(TRACE, CFG, HUGE_SET[:1], HUGE_SET[:1])


def test_volume_and_power_overflows_are_errors():
    # the epsilon products of 1e200 entries, and the powers of diag(1e100, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            levi_civita_volume([[1e200, 0.0, 0.0], [0.0, 1e200, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            power_dependence(AlgebraElement(np.diag([1e100, 1.0])), 3)


def test_project_singular_gram_warns(rng):
    b = rand_hermitian(rng, 3)
    with pytest.warns(SingularGramWarning):
        project(TRACE, CFG, rand_element(rng, 3), [b, AlgebraElement(2.0 * b.m)])


# ---------------------------------------------------------------------------
# cauchy-schwarz

def test_cauchy_schwarz_membership_zero(rng):
    b1, b2 = rand_hermitian(rng, 3), rand_hermitian(rng, 3)
    residual, ratio = cauchy_schwarz_check(TRACE, CFG, b1, [b1, b2])
    assert abs(residual) < 1e-10
    assert abs(ratio) < 1e-10


def test_cauchy_schwarz_det_ratio_agreement(rng):
    for _ in range(100):
        phi = rand_density(rng, 4)
        a = rand_element(rng, 4)
        bs = [rand_element(rng, 4) for _ in range(rng.integers(1, 4))]
        residual, ratio = cauchy_schwarz_check(phi, CFG, a, bs)
        assert residual >= -1e-10 and ratio >= -1e-10
        scale = max(abs(residual), abs(ratio), 1e-12)
        assert abs(residual - ratio) / scale < 1e-9 or abs(residual - ratio) < 1e-12


def test_cauchy_schwarz_bits_are_pinned():
    # (residual, ratio) at p = 1, a 2x2 D, and p = 3, a 4x4 one, as pinned when
    # det D came from a full guarded solve of D; p = 3 re-pinned when its 3x3
    # block's inverse and determinant came from its cofactors
    pins = {1: ("0x1.15b78da4dbed7p+3", "0x1.15b78da4dbed7p+3"),
            3: ("0x1.2874c959a72c7p+1", "0x1.2874c959a72cbp+1")}
    for p, pin in pins.items():
        rng = np.random.default_rng(p)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        phi = State.density(m @ m.conj().T / np.trace(m @ m.conj().T).real)
        a, bs = rand_element(rng, 3), [rand_element(rng, 3) for _ in range(p)]
        residual, ratio = cauchy_schwarz_check(phi, CFG, a, bs)
        assert (residual.hex(), ratio.hex()) == pin


def test_cauchy_schwarz_unit_vector_quadratic_form():
    # for unit vectors with pairwise cosines x, y, z the ratio of Gram
    # determinants equals the cubic form 1 + 2xyz - x^2 - y^2 - z^2 over the
    # pair form 1 - x^2
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.2, 0.9, np.sqrt(1 - 0.04 - 0.81)])
    c = np.array([0.5, 0.1, np.sqrt(1 - 0.25 - 0.01)])
    x = float(b @ c)
    y = float(a @ c)
    z = float(a @ b)
    phi = State.unnormalized_sum()
    residual, ratio = cauchy_schwarz_check(
        phi, CFG, embed_diag(a), [embed_diag(b), embed_diag(c)])
    expected = (1.0 + 2.0 * x * y * z - x * x - y * y - z * z) / (1.0 - x * x)
    assert abs(ratio - expected) < 1e-10
    assert abs(residual - expected) < 1e-10


def test_cauchy_schwarz_singular_reference_set(rng):
    b = rand_hermitian(rng, 3)
    with pytest.raises(SingularGramError):
        cauchy_schwarz_check(TRACE, CFG, rand_element(rng, 3),
                             [b, AlgebraElement(2.0 * b.m)])


# ---------------------------------------------------------------------------
# reflect

def test_reflect_hand_example():
    got = reflect(TRACE, CFG, embed_diag([1.0, 2.0]), [embed_diag([1.0, 1.0])])
    assert np.allclose(got.m, np.diag([2.0, 1.0]), atol=1e-12)
    n1 = dot(TRACE, CFG, embed_diag([1.0, 2.0]), embed_diag([1.0, 2.0]))
    n2 = dot(TRACE, CFG, got, got)
    assert abs(n1 - 2.5) < 1e-14 and abs(n2 - 2.5) < 1e-12


def test_reflect_fixed_plane_and_flip(rng):
    b = embed_diag([1.0, 0.0, 0.0])
    inside = AlgebraElement(0.7 * b.m)
    assert np.abs(reflect(TRACE, CFG, inside, [b]).m - inside.m).max() < 1e-12
    perp = embed_diag([0.0, 1.0, -1.0])
    assert np.abs(reflect(TRACE, CFG, perp, [b]).m + perp.m).max() < 1e-12


def test_reflect_isometric_involution(rng):
    for _ in range(30):
        phi = rand_density(rng, 4)
        a = rand_element(rng, 4)
        bs = [rand_element(rng, 4) for _ in range(2)]
        r1 = reflect(phi, CFG, a, bs)
        assert abs(dot(phi, CFG, r1, r1) - dot(phi, CFG, a, a)) < 1e-10
        r2 = reflect(phi, CFG, r1, bs)
        assert np.abs(r2.m - a.m).max() < 1e-10


# ---------------------------------------------------------------------------
# gram-schmidt

def test_gram_schmidt_hand_example():
    orth, _ = gram_schmidt(TRACE, CFG, [embed_diag([1.0, 0.0, 0.0]),
                                        embed_diag([1.0, 1.0, 0.0])])
    assert np.allclose(orth[1].m, np.diag([0.0, 1.0, 0.0]), atol=1e-12)


def test_gram_schmidt_orthonormal_fixed_point():
    b1 = embed_diag([np.sqrt(3.0), 0.0, 0.0])
    b2 = embed_diag([0.0, np.sqrt(3.0), 0.0])
    _, onb = gram_schmidt(TRACE, CFG, [b1, b2])
    # already orthonormal under the trace dot, so the set passes through
    assert np.abs(onb[0].m - b1.m).max() < 1e-12
    assert np.abs(onb[1].m - b2.m).max() < 1e-12
    for i, o in enumerate(onb):
        for j, q in enumerate(onb):
            assert abs(dot(TRACE, CFG, o, q) - (1.0 if i == j else 0.0)) < 1e-12


def test_gram_schmidt_random_triples(rng):
    for _ in range(50):
        bs = [rand_hermitian(rng, 4) for _ in range(3)]
        _, onb = gram_schmidt(TRACE, CFG, bs)
        worst = max(abs(dot(TRACE, CFG, onb[i], onb[j]) - (i == j))
                    for i in range(3) for j in range(3))
        assert worst < 1e-10


def test_gram_schmidt_span_preserved(rng):
    bs = [rand_hermitian(rng, 3) for _ in range(3)]
    _, onb = gram_schmidt(TRACE, CFG, bs)
    for b in bs:
        assert project(TRACE, CFG, b, onb).residual < 1e-9


def test_gram_schmidt_dependent_rejected(rng):
    b = rand_hermitian(rng, 3)
    with pytest.raises(LinearDependenceError):
        gram_schmidt(TRACE, CFG, [b, AlgebraElement(-0.5 * b.m)])


def test_gram_schmidt_empty_set():
    assert gram_schmidt(TRACE, CFG, []) == ([], [])


def test_gram_schmidt_mixed_dimensions_rejected():
    with pytest.raises(DimensionError):
        gram_schmidt(TRACE, CFG, [embed_diag([1.0, 0.0]), embed_diag([1.0, 0.0, 0.0])])


def test_gram_schmidt_near_dependent_set_is_orthonormal_to_rounding():
    # condition number ~3e5: one Gram pass leaves ~1e-7, vector-space MGS ~1e-11
    rng = np.random.default_rng(515)
    bs = [rand_hermitian(rng, 8) for _ in range(4)]
    bs.append(bs[0] + 0.7 * bs[1] + 1e-5 * rand_hermitian(rng, 8))
    _, onb = gram_schmidt(TRACE, CFG, bs)
    g = _dot_matrix(TRACE, CFG, np.stack([o.m for o in onb]))
    assert np.abs(g - np.eye(len(bs))).max() <= 1e-13


def test_kernel_basis_complement(rng):
    units = [AlgebraElement(np.eye(3, dtype=complex)[:, [i]] @ np.eye(3)[[j], :])
             for i in range(3) for j in range(3)]
    bs = [embed_diag([1.0, 0.0, 0.0]), embed_diag([0.0, 1.0, 0.0])]
    phi = rand_density(rng, 3)
    kern = kernel_basis(phi, CFG, bs, units)
    assert len(kern) == 7
    for k in kern:
        for b in bs:
            assert abs(dot(phi, CFG, k, b)) < 1e-9


# ---------------------------------------------------------------------------
# volumes

def test_volume_trace_unit_square():
    v = parallelepiped_volume([np.eye(3)[0], np.eye(3)[1]], normalized=True)
    assert abs(v - 1.0 / 9.0) < 1e-14


def test_volume_collinear_degenerate():
    v = np.array([0.3, -0.7, 0.2])
    assert abs(parallelepiped_volume([v, 2.0 * v], normalized=False)) < 1e-12


def test_volume_unit_cube_sum_state():
    v = parallelepiped_volume([np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]],
                              normalized=False)
    assert abs(v - 1.0) < 1e-14


def test_volume_permutation_invariant(rng):
    vecs = [rng.normal(size=4) for _ in range(3)]
    base = parallelepiped_volume(vecs, normalized=True)
    for perm in itertools.permutations(range(3)):
        v = parallelepiped_volume([vecs[i] for i in perm], normalized=True)
        assert abs(v - base) < 1e-12 * max(1.0, abs(base))


def test_volume_shear_invariant(rng):
    vecs = [rng.normal(size=4) for _ in range(3)]
    sheared = [vecs[0], vecs[1] + 2.5 * vecs[0], vecs[2]]
    a = parallelepiped_volume(vecs, normalized=False)
    b = parallelepiped_volume(sheared, normalized=False)
    assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_volume_levi_civita_agreement(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        vecs = [rng.normal(size=n) for _ in range(k + 1)]
        for normalized in (True, False):
            g = parallelepiped_volume(vecs, normalized=normalized)
            lc = levi_civita_volume(vecs, normalized=normalized)
            assert abs(g - lc) < 1e-9 * max(1.0, abs(g))


def test_volume_too_many_vectors_rejected():
    with pytest.raises(DimensionError):
        parallelepiped_volume([np.eye(2)[0], np.eye(2)[1], np.ones(2)])


def test_volume_needs_vectors_of_one_supported_dimension():
    for vectors, match in (([], "at least one vector"), ([np.ones(2), np.ones(3)], "share a dimension")):
        with pytest.raises(DimensionError, match=match):
            parallelepiped_volume(vectors)
    with pytest.raises(DimensionError, match="dimension <= 6"):
        levi_civita_volume([np.eye(7)[0]])


# ---------------------------------------------------------------------------
# tetrahedral membership

def test_tetra_boundary_points():
    assert tetra_membership(1.0, 1.0, 1.0)
    assert tetra_membership(1.0, 0.0, 0.0)


def test_tetra_outside_point():
    assert not tetra_membership(1.0, 1.0, -1.0)


def test_tetra_domain_error():
    with pytest.raises(DomainError):
        tetra_membership(1.5, 0.0, 0.0)


def test_tetra_unit_vector_cosines_sweep(rng):
    vs = rng.normal(size=(10000, 3, 3))
    vs /= np.linalg.norm(vs, axis=2, keepdims=True)
    x = np.einsum("ki,ki->k", vs[:, 1], vs[:, 2])
    y = np.einsum("ki,ki->k", vs[:, 0], vs[:, 2])
    z = np.einsum("ki,ki->k", vs[:, 0], vs[:, 1])
    for k in range(len(vs)):
        assert tetra_membership(float(x[k]), float(y[k]), float(z[k]))


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-1, 1, allow_nan=False))
def test_tetra_equal_cosines_threshold(x):
    # 1 + 2x^3 - 3x^2 = (x - 1)^2 (2x + 1): membership iff x >= -1/2
    if abs(x + 0.5) > 1e-6:
        assert tetra_membership(x, x, x) == (x >= -0.5)


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-1, 1), y=st.floats(-1, 1), z=st.floats(-1, 1))
def test_tetra_symmetric_under_permutation(x, y, z):
    vals = [tetra_membership(*p) for p in itertools.permutations((x, y, z))]
    assert all(v == vals[0] for v in vals)


# ---------------------------------------------------------------------------
# power dependence

def test_power_dependence_two_level():
    alpha, residual = power_dependence(embed_diag([1.0, 2.0]), 2)
    assert np.allclose(alpha, [-1.5, 0.5], atol=1e-12)
    assert residual < 1e-12


def test_power_dependence_forms_only_the_powers_it_uses(monkeypatch):
    # a^1..a^m take m - 1 products
    products = []
    matmul = AlgebraElement.__matmul__
    monkeypatch.setattr(AlgebraElement, "__matmul__",
                        lambda x, y: products.append(1) or matmul(x, y))
    for m in (1, 2, 3):
        products.clear()
        power_dependence(embed_diag([1.0, 2.0, 3.0]), m)
        assert len(products) == m - 1


def test_power_dependence_needs_an_order_of_at_least_one():
    with pytest.raises(DomainError, match="power order must be >= 1, got 0"):
        power_dependence(AlgebraElement(np.diag([1.0, 2.0])), 0)


def test_power_dependence_identity():
    alpha, residual = power_dependence(AlgebraElement.identity(3), 1)
    assert np.allclose(alpha, [-1.0], atol=1e-12)
    assert residual < 1e-12


def test_power_dependence_eigen_oracle(rng):
    for _ in range(25):
        evals = rng.uniform(0.5, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        a = AlgebraElement((q * evals) @ q.conj().T)
        alpha, residual = power_dependence(a, 3)
        e1 = evals.sum()
        e2 = evals[0] * evals[1] + evals[0] * evals[2] + evals[1] * evals[2]
        e3 = evals.prod()
        expected = np.array([-e2 / e3, e1 / e3, -1.0 / e3])
        assert residual < 1e-8
        assert np.abs(alpha - expected).max() < 1e-6 * max(1.0, np.abs(expected).max())


def test_power_dependence_rejects_nonhermitian():
    from opgeom.errors import HermiticityError
    with pytest.raises(HermiticityError):
        power_dependence(AlgebraElement(np.array([[0, 1], [0, 0]], dtype=complex)), 2)


# ---------------------------------------------------------------------------
# tuple inner product

def test_tuple_inner_gram_det():
    a_t = [embed_diag([1.0, 0.0]), embed_diag([0.0, 1.0])]
    assert abs(tuple_inner(TRACE, CFG, a_t, a_t) - 0.25) < 1e-14


def test_tuple_inner_singular():
    b = embed_diag([1.0, 2.0])
    t = [b, AlgebraElement(3.0 * b.m)]
    assert abs(tuple_inner(TRACE, CFG, t, t)) < 1e-12


def test_tuple_inner_self_pairing_nonnegative(rng):
    for _ in range(200):
        phi = rand_density(rng, 3)
        t = [rand_element(rng, 3) for _ in range(2)]
        assert tuple_inner(phi, CFG, t, t) >= -1e-10


def test_tuple_inner_keeps_its_bits():
    # sha256 of 80 values over four states, two dot products and tuples of 1 to 5,
    # taken when tuple_inner read its determinant from the guarded solve, and
    # re-taken when a 3x3 Gram determinant came from its cofactors
    rng = np.random.default_rng(24)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = m @ m.conj().T
    states = (State.normalized_trace(), State.unnormalized_sum(),
              State.vector(psi / np.linalg.norm(psi)), State.density(rho / np.trace(rho).real))
    vals = []
    for phi in states:
        for cfg in (DotConfig(), DotConfig(lam=(0.3 + 0.4j) * 2.0)):
            for k in range(1, 6):
                els = [rand_element(rng, 3) for _ in range(2 * k)]
                vals += [tuple_inner(phi, cfg, els[:k], els[k:]),
                         tuple_inner(phi, cfg, els[:k], els[:k])]
    assert hashlib.sha256(np.array(vals).tobytes()).hexdigest() == \
        "51036010130330ccafa68cf57d689d930e757ffa06b810fed2dbd0b7ac0ad074"


def test_tuple_inner_of_empty_tuples():
    with pytest.raises(DimensionError, match="tuples are empty"):
        tuple_inner(TRACE, CFG, [], [])


def test_tuple_inner_length_mismatch(rng):
    with pytest.raises(DimensionError):
        tuple_inner(TRACE, CFG, [rand_element(rng, 2)],
                    [rand_element(rng, 2), rand_element(rng, 2)])
