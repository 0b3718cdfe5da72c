"""Least-squares projection of algebra elements onto finite reference sets.

Given a state phi and reference elements b_1..b_p, the Gram matrix
M_ij = b_i . b_j and cross vector N_i = a . b_i (in the state-induced dot
product) determine the closest point of span_R{b_i} to a:

    coefficients    lam_i  = -(M^-1 N)_i
    parallel part   a_par  = sum_i b_i (M^-1 N)_i
    residual        f      = a.a - N M^-1 N  >= 0

The residual is the determinant ratio det(M with a prepended)/det(M), which
is the multi-element form of the Cauchy-Schwarz inequality.  ``project``,
``fluctuation_bound`` and ``gibbs_force`` share one rule, ``_project_on``.
``gram`` flags a rank-deficient Gram matrix; ``project`` then uses the
singular-value thresholded pseudo-inverse and emits ``SingularGramWarning``,
while ``cauchy_schwarz_check`` raises ``SingularGramError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .algebra import (
    RANK_TOL,
    AlgebraElement,
    DotConfig,
    State,
    _count,
    _det,
    _dot_matrix,
    _finite_value,
    _require_hermitian,
    _solve_gram,
    _stack,
    embed_diag,
)
from .errors import (
    DimensionError,
    DomainError,
    LinearDependenceError,
    SingularGramError,
    SingularGramWarning,
)

__all__ = [
    "GramMatrix",
    "ProjectionResult",
    "gram",
    "project",
    "cauchy_schwarz_check",
    "reflect",
    "gram_schmidt",
    "kernel_basis",
    "parallelepiped_volume",
    "levi_civita_volume",
    "tetra_membership",
    "power_dependence",
    "tuple_inner",
]

TETRA_SLACK = 1e-12


@dataclass(frozen=True)
class GramMatrix:
    """Gram matrix of a reference set with rank and inverse metadata.

    ``inverse_or_pseudo`` is the exact inverse when ``is_full_rank`` (smallest
    singular value above ``rank_tol``, the package's ``RANK_TOL``, times the
    largest), otherwise the pseudo-inverse with singular values below that
    threshold dropped.
    """

    m: np.ndarray
    det: float
    rank_tol: float
    inverse_or_pseudo: np.ndarray
    is_full_rank: bool

    @property
    def p(self) -> int:
        return self.m.shape[0]


def gram(phi: State, cfg: DotConfig, bs) -> GramMatrix:
    """Gram matrix M_ij = b_i . b_j of the reference set.

    The dot product is real for every lam; entries are stored as floats.
    With a non-real lam the matrix need not be symmetric.
    """
    bs = list(bs)
    if not bs:
        raise DimensionError("reference set is empty")
    with np.errstate(all="ignore"):  # an overflow shows in _solve_gram's check
        m = _dot_matrix(phi, cfg, _stack(bs))
    inv, det, _, full = _solve_gram(m)
    return GramMatrix(m=m, det=float(det), rank_tol=RANK_TOL, inverse_or_pseudo=inv,
                      is_full_rank=full)


@dataclass(frozen=True)
class ProjectionResult:
    """Decomposition of an element against a reference set.

    ``coefficients`` are the minimizing lam in |a + lam_i b_i|; the parallel
    part is -sum lam_i b_i.  ``residual`` is the squared norm of the
    perpendicular part, so ``norm_sq_parallel + residual = a.a``.
    """

    coefficients: np.ndarray
    parallel: AlgebraElement
    perpendicular: AlgebraElement
    norm_sq_parallel: float
    residual: float


def project(phi: State, cfg: DotConfig, a: AlgebraElement, bs) -> ProjectionResult:
    """Project a onto the real span of the reference set through
    ``_project_on`` on the stack [a] + bs."""
    stack = _stack([a] + list(bs))
    n, w = _project_on(phi, cfg, stack, 1, SingularGramWarning(
        "rank-deficient Gram matrix; using pseudo-inverse"))
    par = AlgebraElement(np.tensordot(w[:, 0], stack[1:], 1))
    perp = a - par
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        norm_sq, residual = float(n[:, 0] @ w[:, 0]), _dot_matrix(phi, cfg, perp.m[None])[0, 0]
    if not (math.isfinite(norm_sq) and math.isfinite(residual)):
        raise ValueError("projection overflows: its norms are not finite")
    return ProjectionResult(coefficients=-w[:, 0], parallel=par, perpendicular=perp,
                            norm_sq_parallel=norm_sq, residual=residual)


def _project_on(phi: State, cfg: DotConfig, stack: np.ndarray, q: int, on_singular):
    """The one projection rule: cross dots N[i, k] = t_k . b_i and W = M^+ N
    for the q targets t_k = stack[k] and the references b_i = stack[q + i].
    M and N come from one dot matrix of the raw stack against the references,
    so the state meets each reference once; ``_solve_gram`` applies
    ``on_singular``.  An empty reference set raises ``DimensionError``, a
    non-finite W ``ValueError``."""
    if len(stack) == q:
        raise DimensionError("reference set is empty")
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        d = _dot_matrix(phi, cfg, stack, stack[q:])
        n = d[:q].T
        w = _solve_gram(d[q:], on_singular)[0] @ n
    if not np.isfinite(w).all():
        raise ValueError("projection overflows: its coefficients are not finite")
    return n, w


def cauchy_schwarz_check(phi: State, cfg: DotConfig, a: AlgebraElement, bs) -> tuple[float, float]:
    """Residual a.a - N M^-1 N and the Gram determinant ratio.

    The ratio is det D / det M for D the Gram matrix of (a, b_1..b_p) and M
    its block of (b_1..b_p), from which N and a.a come too; both quantities
    are equal and nonnegative for any state.  Raises ``SingularGramError``
    when M is rank deficient, and ``ValueError`` when either result overflows.
    """
    stack = _stack([a] + list(bs))
    if len(stack) == 1:
        raise DimensionError("reference set is empty")
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        d = _dot_matrix(phi, cfg, stack)
        inv, det, _, _ = _solve_gram(d[1:, 1:], SingularGramError(
            "reference Gram matrix is singular; residual is undefined"))
        n = d[0, 1:]
        residual, ratio = d[0, 0] - float(n @ (inv @ n)), float(_det(d)) / float(det)
    if not (math.isfinite(residual) and math.isfinite(ratio)):
        raise ValueError("Cauchy-Schwarz check overflows: its results are not finite")
    return residual, ratio


def reflect(phi: State, cfg: DotConfig, a: AlgebraElement, bs) -> AlgebraElement:
    """Reflection of a through the span of the reference set: 2 a_par - a."""
    res = project(phi, cfg, a, bs)
    return 2.0 * res.parallel - a


def gram_schmidt(phi: State, cfg: DotConfig, bs) -> tuple[list, list]:
    """Sequential orthogonalization of the reference set.

    Returns (orthogonal, orthonormal) lists: each element reduced against
    the span of its predecessors, from the Gram matrix of the set in two
    passes (``_orthonormalize``).  Raises ``LinearDependenceError`` when an
    intermediate squared norm falls to ``RANK_TOL`` or below.
    """
    bs = list(bs)
    if not bs:
        return [], []
    with np.errstate(all="ignore"):  # an overflow shows in _orthonormalize's check
        onb, norms = _orthonormalize(_stack(bs), lambda xs: _dot_matrix(phi, cfg, xs),
                                     "element {} is linearly dependent on its predecessors")
    return ([AlgebraElement(q * complex(math.sqrt(nn))) for q, nn in zip(onb, norms)],
            [AlgebraElement(q) for q in onb])


def _orthonormalize(xs: np.ndarray, gram, dependent: str):
    """Orthonormal stack of the p vectors xs (..., p, ...) and their squared
    norms (..., p) after reduction against their predecessors.

    Modified Gram-Schmidt runs on their (..., p, p) dot matrices ``gram(xs)``,
    then on the result's: one pass leaves an orthogonality error of order
    cond^2 eps, two leave rounding level (CholeskyQR2).  A squared norm <=
    ``RANK_TOL`` in either pass raises ``LinearDependenceError`` with
    ``dependent.format(k)``, k the first such; a non-finite dot matrix ``ValueError``.
    """
    norms = []
    for _ in range(2):
        g = gram(xs)
        if not np.isfinite(g).all():
            raise ValueError("dot matrix of the set has non-finite entries")
        # w: dot matrix of the vectors as reduced so far; t: their coefficients
        w, t = np.array(g, dtype=float), np.broadcast_to(np.eye(g.shape[-1]), g.shape).copy()
        for k in range(g.shape[-1]):
            if np.any(w[..., k, k] <= RANK_TOL):
                raise LinearDependenceError(dependent.format(k))
            r = w[..., k, k + 1:] / w[..., k, k, None]  # components of the later vectors along k
            t[..., k + 1:, :] -= r[..., :, None] * t[..., k, None, :]
            w[..., k + 1:, k + 1:] -= w[..., k + 1:, k, None] * r[..., None, :]
        norms.append(np.diagonal(w, axis1=-2, axis2=-1))
        t /= np.sqrt(norms[-1])[..., None]  # T xs is orthonormal
        xs = (t @ xs.reshape(g.shape[:-1] + (-1,))).reshape(xs.shape)
    return xs, norms[0]


def kernel_basis(phi: State, cfg: DotConfig, bs, algebra_basis) -> list:
    """Orthonormal basis of the orthogonal complement of span{bs}.

    Requires a spanning set of the full algebra (over the reals of the dot
    product); complement members are obtained by orthogonalizing the
    spanning set against bs and keeping the directions with nonvanishing
    residual norm.
    """
    kept, out = list(bs), []
    for cand in algebra_basis:
        try:
            out.append(gram_schmidt(phi, cfg, kept + [cand])[1][-1])
        except LinearDependenceError:
            continue
        kept.append(cand)
    return out


def _embedded_gram(vectors, normalized: bool):
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not vecs:
        raise DimensionError("need at least one vector")
    n = vecs[0].size
    if any(v.size != n for v in vecs):
        raise DimensionError("vectors must share a dimension")
    if len(vecs) > n:
        raise DimensionError(f"{len(vecs)} vectors cannot be independent in R^{n}")
    phi = State.normalized_trace() if normalized else State.unnormalized_sum()
    return [embed_diag(v) for v in vecs], vecs, phi, DotConfig(), n


def parallelepiped_volume(vectors, normalized: bool = True) -> float:
    """Squared-volume Gram determinant of diagonally embedded real vectors.

    With the normalized trace each pairwise dot picks up a factor 1/n, so
    the determinant of p+1 vectors carries 1/n^(p+1) relative to the
    Euclidean Gram determinant (returned by the unnormalized variant).
    """
    els, _, phi, cfg, _ = _embedded_gram(vectors, normalized)
    return gram(phi, cfg, els).det


def levi_civita_volume(vectors, normalized: bool = True) -> float:
    """Gram determinant computed by epsilon-symbol contraction.

    The complement components f_{a_1..a_{n-k}} = eps(a_1..a_{n-k}, b_1..b_k)
    v_1^{b_1}..v_k^{b_k} / sqrt((n-k)!) contract to the Euclidean Gram
    determinant of the k vectors.  Exponential in n; supported for n <= 6.
    """
    _, vecs, _, _, n = _embedded_gram(vectors, normalized)
    if n > 6:
        raise DimensionError("epsilon contraction supported for ambient dimension <= 6")
    k = len(vecs)
    free = n - k
    comp: dict[tuple, float] = {}
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        for perm in permutations(range(n)):
            w = (-1) ** sum(i > j for i, j in combinations(perm, 2))  # the sign of perm
            for v, idx in zip(vecs, perm[free:]):
                w *= v[idx]
                if w == 0.0:
                    break
            if w == 0.0:
                continue
            key = perm[:free]
            comp[key] = comp.get(key, 0.0) + w
        total = _finite_value(sum(val * val for val in comp.values()), "Levi-Civita volume")
    total /= math.factorial(free)
    if normalized:
        total /= float(n) ** k
    return total


def tetra_membership(x: float, y: float, z: float) -> bool:
    """Whether (x, y, z) lies in the solid x^2+y^2+z^2 <= 1 + 2xyz.

    The inputs must lie in [-1, 1]; triples of pairwise cosines of three
    unit vectors always belong to the solid.
    """
    for name, v in (("x", x), ("y", y), ("z", z)):
        if not (-1.0 <= v <= 1.0):
            raise DomainError(f"{name} = {v} outside [-1, 1]")
    return x * x + y * y + z * z <= 1.0 + 2.0 * x * y * z + TETRA_SLACK


def power_dependence(a: AlgebraElement, m: int) -> tuple[np.ndarray, float]:
    """Least-squares coefficients alpha with 1 + alpha_i a^i closest to zero.

    Uses the normalized-trace dot product over the powers a^1..a^m.  For a
    hermitian a with no zero eigenvalue and m at least the number of
    distinct eigenvalues, the residual vanishes and the alpha are the
    (normalized) characteristic coefficients.  Emits ``SingularGramWarning``
    for degenerate power sets.
    """
    m = _count(m, "m")
    if m < 1:
        raise DomainError(f"power order must be >= 1, got {m}")
    _require_hermitian(a.m, "power dependence element")
    phi = State.normalized_trace()
    cfg = DotConfig()
    powers = [a]
    for _ in range(m - 1):
        powers.append(powers[-1] @ a)
    res = project(phi, cfg, AlgebraElement.identity(a.dim), powers)
    return res.coefficients, res.residual


def tuple_inner(phi: State, cfg: DotConfig, a_tuple, b_tuple) -> float:
    """Determinant of the cross dot matrix C_ij = a_i . b_j.

    Antisymmetric under swapping two elements within either tuple, and zero
    when either tuple is linearly dependent.  The pairing of a tuple with
    itself is a Gram determinant, hence nonnegative.  A dot matrix or a
    determinant (``algebra._det``) that overflows raises ``ValueError``.
    """
    a_tuple = list(a_tuple)
    b_tuple = list(b_tuple)
    if len(a_tuple) != len(b_tuple):
        raise DimensionError("tuples must have equal length")
    if not a_tuple:
        raise DimensionError("tuples are empty")
    stack = _stack(a_tuple + b_tuple)
    k = len(a_tuple)
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        d = _dot_matrix(phi, cfg, stack[:k], stack[k:])
    if not np.isfinite(d).all():
        raise ValueError("tuple dot matrix is not finite")
    return float(_det(d))
