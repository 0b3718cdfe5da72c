"""Finite-dimensional matrix algebras, states, and state-induced dot products.

An algebra element is a dense complex square matrix; the involution is the
conjugate transpose.  A state is a positive linear functional, normalized so
that the identity evaluates to 1 (the plain matrix trace is also provided as
an unnormalized variant).  Every state induces a family of real-valued dot
products on the algebra,

    a . b = phi(lam * a'b + conj(lam) * b'a) = 2 Re(lam phi(a'b)),

a' = star(a), with lam = 1/2 giving the symmetric product used throughout
the geometry modules.  ``PhysConstants.hbar`` is the one hbar of the
dynamical operations; the truncated Fock operators are the oscillator's at
hbar = m = omega = 1.

Every element that arithmetic makes comes from ``_element``, which runs
the expression under one ``np.errstate``: an overflow is the constructor's
``ValueError``, never a NumPy warning first.  The JSON codecs of matrices
and states live here (``*_to_json``, ``*_from_json``; only the CLI opens a
file).  So do the helpers other modules share: ``stacked``, the one type
of callable defined over a stack of points (public, so a user chart or
connection can be one), with ``_lifted``, which makes any other callable
one, ``_first_false``, the one rule for the answers of a domain or patch
test, ``_step_count``, the one step-count rule, ``_central``, the one
first-difference formula, ``_asymmetric``, the one relative symmetry test,
``_solve_gram``, the one guarded solve of a Gram or metric matrix or a
stack of them, ``_det``, the determinant of a lone matrix whose inverse is
not needed, and ``_finite_value``, the one check of a value.  Both take a
2x2 from its adjugate (``_adjugate_2x2``), and a real 3x3 from its cofactors
(``_adjugate_3x3``) when its Frobenius condition bound
kappa_F = |M|_F |adj M|_F / |det M| is at most COFACTOR_COND = 20; every
other matrix takes an SVD and an LU determinant.
"""

from __future__ import annotations

import cmath
import inspect
import math
import numbers
import operator
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HermiticityError

__all__ = [
    "AlgebraElement",
    "State",
    "DotConfig",
    "PhysConstants",
    "star",
    "state_eval",
    "dot",
    "embed_diag",
    "commutator",
    "anticommutator",
    "heisenberg_dot",
    "fock_lowering",
    "fock_position",
    "fock_momentum",
    "harmonic_hamiltonian",
    "matrix_to_json",
    "matrix_from_json",
    "state_to_json",
    "state_from_json",
    "stacked",
]

HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-12
_FLOAT_MAX = sys.float_info.max


def _as_square_complex(m, what="matrix"):
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionError(f"{what} must be a non-empty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    return arr


def _asymmetric(a: np.ndarray, t: np.ndarray, axes=None):
    """Whether max|a - t| > HERMITICITY_TOL max(1, max|a|), for t a transpose
    of a, conjugated or negated as the symmetry asks: the one relative
    symmetry test.  Given trailing axes, it tests each member of a stack over them.
    An overflowing a - t is asymmetric, since the scale stops at the largest float.
    Bit-equal a and t are not, by one equality test: there a - t is 0 or, for
    mirrored infinities, NaN, so the formula gives the same verdict."""
    if np.array_equal(a, t):
        return False if axes is None else np.zeros(a.shape[:a.ndim - len(axes)], dtype=bool)
    with np.errstate(all="ignore"):
        scale = np.minimum(np.maximum(1.0, np.abs(a).max(axis=axes)), _FLOAT_MAX)
        return np.abs(a - t).max(axis=axes) > HERMITICITY_TOL * scale


def _require_hermitian(arr, what="matrix"):
    if _asymmetric(arr, arr.conj().T):
        raise HermiticityError(
            f"{what} is not hermitian within {HERMITICITY_TOL} relative tolerance")


class stacked:
    """A callable defined once over a stack of arguments.

    ``stacked(fn)`` wraps ``fn``, which maps a (k, ...) float stack of
    arguments to the (k, ...) stack of their values.  A chart's maps and
    domain test and a connection ``A`` are called once per stack of points:
    given any other callable, the chart or connection wraps it as a
    ``stacked`` that calls it per point.  ``stack`` runs ``fn`` with NumPy's
    floating-point warnings off, so an overflow shows only as a non-finite
    value, which the caller checks; the chart evaluator calls the ``fn`` of
    a domain test and a map under one such ``np.errstate`` of its own.  A
    domain or patch test answers one truth value per point, (k,) of bool or
    int.  A call on one argument is a view of it: ``stack`` of a stack of
    one, indexed, so both give the same bits.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def stack(self, xs: np.ndarray):
        with np.errstate(all="ignore"):
            return self.fn(xs)

    def __call__(self, x):
        return self.stack(np.asarray(x, dtype=float)[None])[0]


def _lifted(fn):
    """fn as a ``stacked``: fn itself if it is one or None, else one that calls
    fn once per row, in row order.  The values go through ``np.asarray`` 64
    rows at a time, into one array preallocated from the first 64, so a value
    of another shape raises ``ValueError`` and one of a wider type (complex
    after real, say) widens the array, as for ``np.asarray`` of all values."""
    if fn is None or isinstance(fn, stacked):
        return fn

    def rows(xs):
        n = 64  # a list of n values, each its own ndarray, is held at a time
        head = np.asarray([fn(x) for x in xs[:n]])
        if len(xs) <= n:
            return head
        out = np.empty((len(xs),) + head.shape[1:], head.dtype)
        out[:n] = head
        for lo in range(n, len(xs), n):
            part = np.asarray([fn(x) for x in xs[lo:lo + n]])
            if part.shape[1:] != out.shape[1:]:
                raise ValueError(f"values of shape {part.shape[1:]} from row {lo}, "
                                 f"row 0's has shape {out.shape[1:]}")
            out = out.astype(np.result_type(out, part), copy=False)
            out[lo:lo + n] = part
        return out

    return stacked(rows)


def _first_false(ok, pts: np.ndarray, test: str):
    """The first row of pts that the truth test named ``test`` answered false
    in ok, its answer on pts, or None.  ``DimensionError`` unless ok holds one
    truth value per row: shape (k,), of bool or integer type."""
    ok = np.asarray(ok)
    if ok.shape != (len(pts),) or ok.dtype.kind not in "biu":
        raise DimensionError(f"{test} must answer one truth value per point: shape "
                             f"({len(pts)},) of bool or int, got shape {ok.shape} of {ok.dtype}")
    if np.count_nonzero(ok) != len(ok):
        return pts[np.logical_not(ok)][0]
    return None


def _step_count(tau: float, step: float) -> int:
    """Integrator steps round(tau / step), at least one.  ``ValueError`` unless
    tau and step are positive and finite with tau / step at most sys.maxsize."""
    if not (0.0 < step < math.inf and tau > 0.0 and tau / step <= sys.maxsize):
        raise ValueError(f"tau and step must be positive and finite, tau / step <= sys.maxsize; "
                         f"got {tau} and {step}")
    return max(1, int(round(tau / step)))


def _central(plus: np.ndarray, minus: np.ndarray, h: float) -> np.ndarray:
    """Central differences (f(x + h e) - f(x - h e)) / 2h of the values plus
    at x + h e and minus at x - h e: the one first-difference formula."""
    return (plus - minus) / (2.0 * h)


def _count(n, name: str) -> int:
    """n as an int (``operator.index``), so an ``np.int64`` passes; ``ValueError``
    for any other number, such as 2.5."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Element of the n x n complex matrix algebra.

    Wraps a read-only complex array.  Supports +, -, scalar *, and @ for the
    algebra product.  Use :func:`star` (or .star()) for the involution.
    """

    m: np.ndarray

    def __post_init__(self):
        arr = _as_square_complex(self.m, "algebra element")
        arr = np.array(arr, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "AlgebraElement":
        return cls(np.eye(dim, dtype=complex))

    def star(self) -> "AlgebraElement":
        return _element(lambda m: m.conj().T, self)

    def _check_dim(self, other: "AlgebraElement"):
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _operator(expr):
        """The operator expr(x, y) on two elements' arrays; NotImplemented for other operands."""
        def op(self, other):
            return _element(expr, self, other) if isinstance(other, AlgebraElement) else NotImplemented
        return op

    __add__ = _operator(operator.add)
    __sub__ = _operator(operator.sub)
    __matmul__ = _operator(operator.matmul)
    del _operator

    def __mul__(self, c):
        if isinstance(c, AlgebraElement):
            return NotImplemented
        c = complex(c)
        return _element(lambda m: m * c, self)

    __rmul__ = __mul__

    def __truediv__(self, c):
        c = complex(c)
        return _element(lambda m: m / c, self)

    def __neg__(self):
        return _element(operator.neg, self)

    def __repr__(self):
        return f"AlgebraElement(dim={self.dim})"


def star(a: AlgebraElement) -> AlgebraElement:
    """Involution: conjugate transpose."""
    return a.star()


def embed_diag(v) -> AlgebraElement:
    """Embed a real vector as a diagonal matrix."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"expected a non-empty real vector, got shape {arr.shape}")
    return AlgebraElement(np.diag(arr).astype(complex))


def _element(expr, *els) -> AlgebraElement:
    """The element expr(x, ...) of the arrays x of els, which must have one
    dimension (``DimensionError``), with expr run under one ``np.errstate``."""
    for e in els[1:]:
        els[0]._check_dim(e)
    with np.errstate(all="ignore"):  # an overflow shows in the constructor's check
        return AlgebraElement(expr(*(e.m for e in els)))


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return _element(lambda x, y: x @ y - y @ x, a, b)


def anticommutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return _element(lambda x, y: x @ y + y @ x, a, b)


class State:
    """Positive linear functional phi on the matrix algebra.

    A state comes only from the five classmethods below, each of which
    checks its input; ``State(...)`` itself raises ``TypeError``.  Variants:

    - ``normalized_trace``: phi(a) = Tr(a)/n, defined for every dimension.
    - ``unnormalized_sum``: phi(a) = Tr(a); the only variant with phi(1) = n.
    - ``vector(psi)``: phi(a) = psi' a psi for a unit vector psi.
    - ``density(rho)``: phi(a) = Tr(rho a); rho is checked to be hermitian,
      positive semidefinite (eigenvalues >= -1e-12), and unit trace.
    - ``gibbs(h, beta)``: thermal state of a hermitian h, evaluated through
      the eigendecomposition of h with the spectrum shifted so the weights
      never overflow; beta = 0 reduces to the normalized trace.
    """

    __signature__ = inspect.Signature()  # State() takes nothing: it has no public constructor

    def __init__(self, *args, **kwargs):
        raise TypeError("State has no public constructor; use State.normalized_trace, "
                        "State.unnormalized_sum, State.vector, State.density or State.gibbs")

    @classmethod
    def _new(cls, kind, dim=None, psi=None, rho=None, hmat=None, beta=None) -> "State":
        phi = object.__new__(cls)  # the one builder: each classmethod checks its values first
        phi.kind, phi.dim, phi._psi, phi._rho, phi._hmat, phi.beta = kind, dim, psi, rho, hmat, beta
        return phi

    @classmethod
    def normalized_trace(cls) -> "State":
        return cls._new("trace")

    @classmethod
    def unnormalized_sum(cls) -> "State":
        return cls._new("sum")

    @classmethod
    def vector(cls, psi) -> "State":
        v = np.asarray(psi, dtype=complex).reshape(-1)
        if v.size == 0:
            raise DimensionError("state vector is empty")
        if not np.all(np.isfinite(v)):
            raise ValueError("state vector has non-finite entries")
        with np.errstate(all="ignore"):  # an overflowing norm fails the test below
            nrm = np.linalg.norm(v)
        if not abs(nrm - 1.0) <= 1e-10:
            raise ValueError(f"state vector must be normalized, |psi| = {nrm}")
        return cls._new("vector", dim=v.size, psi=v)

    @classmethod
    def density(cls, rho) -> "State":
        if isinstance(rho, AlgebraElement):
            rho = rho.m
        arr = _as_square_complex(rho, "density matrix")
        _require_hermitian(arr, "density matrix")
        w = np.linalg.eigvalsh(arr)
        if w.min() < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {w.min()}")
        with np.errstate(all="ignore"):  # an overflowing trace fails the test below
            tr = arr.trace().real
        if not abs(tr - 1.0) <= 1e-10:
            raise ValueError(f"density matrix trace must be 1, got {tr}")
        return cls._new("density", dim=arr.shape[0], rho=arr)

    @classmethod
    def gibbs(cls, hamiltonian, beta: float) -> "State":
        if isinstance(hamiltonian, AlgebraElement):
            hmat = hamiltonian.m
        else:
            hmat = _as_square_complex(hamiltonian, "hamiltonian")
        _require_hermitian(hmat, "hamiltonian")
        beta = float(beta)
        if not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta}")
        energies, vecs = np.linalg.eigh(hmat)
        # shift the exponent so exp never overflows, for either sign of beta
        with np.errstate(all="ignore"):  # an inf - inf shows in the check below
            be = beta * energies
            w = np.exp(be.min() - be)
        if not np.isfinite(w).all():
            raise ValueError(f"Gibbs weights are not finite: beta {beta} times an energy overflows")
        w = w / w.sum()
        rho = (vecs * w) @ vecs.conj().T
        return cls._new("gibbs", dim=hmat.shape[0], rho=rho, hmat=np.array(hmat), beta=beta)

    def _check_dim(self, n: int):
        if self.dim is not None and self.dim != n:
            raise DimensionError(f"state of dimension {self.dim} applied to element of dimension {n}")

    def eval_matrix(self, m: np.ndarray) -> complex:
        """Evaluate phi on a raw complex square array."""
        n = m.shape[0]
        self._check_dim(n)
        if self.kind == "trace":
            return complex(m.trace() / n)
        if self.kind == "sum":
            return complex(m.trace())
        if self.kind == "vector":
            return complex(np.vdot(self._psi, m @ self._psi))
        # density and gibbs share the cached density matrix
        return complex(np.vdot(self._rho, m))

    def gram(self, xs, ys=None) -> np.ndarray:
        """Complex matrix P[..., i, j] = phi(x_i' y_j) of stacked raw arrays.

        ``xs`` has shape (..., p, n, n) and ``ys`` shape (..., q, n, n), with
        the same leading batch axes; one contraction per state kind.  Without
        ``ys`` the pairs run over xs twice and P, hermitian in exact
        arithmetic, is returned exactly hermitian.  A density or Gibbs state
        forms y rho for the whole stack as one (q n, n) @ (n, n) product.

        Allocation: besides the small (p, n) and (p, q) results, one fresh
        array the size of ``ys``: y rho, conjugated in place, or conj(y) for
        the trace and sum states; none for a vector state.  Neither operand
        is written, and xs is not copied.
        """
        n = xs.shape[-1]
        self._check_dim(n)
        same = ys is None
        if same:
            ys = xs
        if self.kind == "vector":
            xv = xs @ self._psi
            pm = xv.conj() @ (xv if same else ys @ self._psi).swapaxes(-1, -2)
        else:
            # phi(x' y) = sum_mk conj(x)_mk (y rho)_mk = conj(sum_mk x_mk conj(y rho)_mk),
            # with rho = 1/n or 1 for traces; the one conjugated copy is the fresh right factor
            if self.kind in ("trace", "sum"):
                right = ys.conj()
            else:
                right = ys.reshape(-1, n) @ self._rho
                np.conjugate(right, out=right)
            pm = (xs.reshape(xs.shape[:-2] + (-1,))
                  @ right.reshape(ys.shape[:-2] + (-1,)).swapaxes(-1, -2))
            np.conjugate(pm, out=pm)
            if self.kind == "trace":
                pm = pm / n
        return 0.5 * (pm + pm.conj().swapaxes(-1, -2)) if same else pm

    def diagonal_weights(self, n: int) -> np.ndarray:
        """Weights w with phi(diag(v)) = sum(w * v); used by diagonal charts."""
        self._check_dim(n)
        if self.kind == "trace":
            return np.full(n, 1.0 / n)
        if self.kind == "sum":
            return np.ones(n)
        if self.kind == "vector":
            return np.abs(self._psi) ** 2
        return np.diagonal(self._rho).real.copy()

    def __repr__(self):
        extra = "" if self.dim is None else f", dim={self.dim}"
        if self.kind == "gibbs":
            extra += f", beta={self.beta}"
        return f"State(kind={self.kind!r}{extra})"


@dataclass(frozen=True)
class DotConfig:
    """The one parameter of the state-induced dot product.

    ``lam`` is the complex weight of the a'b term (the b'a term gets its
    conjugate): a number (``TypeError`` for anything else, a string
    included), checked finite and stored as a Python complex.  An overall
    real factor s goes into it: s phi(lam a'b + conj(lam) b'a) is the product
    of weight s lam.  The default gives the symmetric product (a'b + b'a)/2.
    """

    lam: complex = 0.5

    def __post_init__(self):
        if not isinstance(self.lam, numbers.Number):
            raise TypeError(f"lam must be a number, got {self.lam!r}")
        object.__setattr__(self, "lam", _finite_value(complex(self.lam), "lam"))


@dataclass(frozen=True)
class PhysConstants:
    """Physical constants entering the dynamical operations: ``hbar``, the one
    home of the reduced Planck constant (the Fock operators take hbar = 1)."""

    hbar: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and np.isfinite(self.hbar)):
            raise ValueError("hbar must be a positive real")


def state_eval(phi: State, a: AlgebraElement) -> complex:
    """Evaluate the state on an algebra element; ``ValueError`` on overflow."""
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        return _finite_value(phi.eval_matrix(a.m), "state value")


def dot(phi: State, cfg: DotConfig, a: AlgebraElement, b: AlgebraElement) -> complex:
    """State-induced dot product phi(lam a'b + conj(lam) b'a), lam = cfg.lam.

    The combination lam a'b + conj(lam) b'a is hermitian for every lam, so
    the value is real up to rounding; it is returned as a complex number.
    Symmetry under a <-> b holds exactly when lam is real.  A value that
    overflows raises ``ValueError``.
    """
    a._check_dim(b)
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        mat = cfg.lam * (a.m.conj().T @ b.m) + np.conj(cfg.lam) * (b.m.conj().T @ a.m)
        return _finite_value(phi.eval_matrix(mat), "dot product")


def _finite_value(val: complex, what: str) -> complex:
    """val, or ``ValueError`` naming ``what`` if it is not finite."""
    if not cmath.isfinite(val):
        raise ValueError(f"{what} is not finite: {val}")
    return val


def _stack(els, out=None) -> np.ndarray:
    """Raw arrays of equal-dimension algebra elements as one (p, n, n) stack,
    written into ``out`` if one is given."""
    els = list(els)
    for e in els[1:]:
        els[0]._check_dim(e)
    return np.stack([e.m for e in els], out=out)


def _dot_matrix(phi: State, cfg: DotConfig, xs, ys=None) -> np.ndarray:
    """Real dot matrix D[i, j] = x_i . y_j of stacked raw arrays.

    Because phi is hermitian, phi(y' x) = conj(phi(x' y)) and the dot
    collapses to 2 Re(lam P) with P the kernel :meth:`State.gram`.
    """
    return 2.0 * (cfg.lam * phi.gram(xs, ys)).real


# rank tolerance of every Gram and metric solve and of Gram-Schmidt's squared norms
RANK_TOL = 1e-10
# the largest Frobenius condition bound at which a real 3x3 takes its inverse and
# determinant from its cofactors.  Against exact rational results on generated
# matrices, the cofactor determinant's largest error first exceeds the LU
# determinant's at kappa_F of about 35, and the cofactor inverse's the SVD
# inverse's at about 65; at 20 both stay at or under half of theirs.
COFACTOR_COND = 20.0
_FLOAT_TINY = sys.float_info.min  # the smallest normal float


def _solve_gram(m: np.ndarray, on_singular=None):
    """Guarded inverse of a Gram or metric matrix, or of a (K, n, n) stack of
    them: (inverse, det, cond, full), the one solve.

    Full rank means s_min > RANK_TOL * max(s_max, RANK_TOL) for the singular
    values (numerical rank: Golub & Van Loan, Matrix Computations, 4th ed.,
    5.4.1), and cond is s_max / s_min, inf at s_min = 0 or past the float
    range.  A matrix not of full rank has ``on_singular`` warned (a Warning,
    attributed to the first caller outside this package) or raised (an
    exception), once per call, and the pseudo-inverse cut at RANK_TOL * s_max
    as its inverse.  A non-finite entry or s_max raises ``ValueError``: the
    rank cannot be told (entries go to an SVD only once found finite).  So
    does a determinant that overflows (past 2x2: at 2x2 it cannot).

    A 2x2 matrix takes s_min and s_max from |det| and its Frobenius norm
    (``_closed_2x2``) and its inverse from its adjugate: from the entries as
    Python numbers outside any ``np.errstate`` if lone, from the entry
    columns if stacked.  A real 3x3 whose Frobenius condition bound
    kappa_F = |M|_F |adj M|_F / |det M| is at most COFACTOR_COND, with
    |adj M|_F^2 normal and det M finite, takes its inverse adj / det and its
    determinant from its cofactors (``_adjugate_3x3``, on Python numbers or
    entry columns alike) and its singular values from one SVD without
    vectors.  Every other matrix, lone or stacked, takes one SVD, one LU
    determinant and one inverse product over ``...`` axes.  The rules then
    run once on Python numbers for a lone matrix and once on arrays for a
    stack, so a lone matrix returns det, cond and full as scalars.  A stack
    of one is solved as its lone member; every member of a real stack, and of
    a complex one past 2x2, has the bits of a call on that member alone.
    """
    if m.ndim == 3 and len(m) == 1:
        return tuple(np.asarray([r]) for r in _solve_gram(m[0], on_singular))
    two = m.shape[-2:] == (2, 2)
    cof = False  # a lone real 3x3 within COFACTOR_COND, or such members of a stack
    if m.shape[-2:] == (3, 3) and m.dtype == float:
        if m.ndim == 2:
            adj, det, cof = _adjugate_3x3(m.ravel().tolist(), math.sqrt, _sumsq)
        else:
            with np.errstate(all="ignore"):
                adj, det, cof = _adjugate_3x3(m.reshape(-1, 9).T, np.sqrt, _sumsq_columns)
    if m.ndim == 2 and two:  # no np.errstate: arrays would cost several times as long
        (a, b), (c, d) = m.tolist()
        adj, det = _adjugate_2x2(a, b, c, d)
        adet, s_max = _closed_2x2(a, b, c, d, det, math.sqrt, max)
        s_min = adet / s_max if s_max > 0 else 0.0
    elif m.ndim == 2 and cof:
        s = np.linalg.svd(m, compute_uv=False)
        s_max, s_min = s[0], s[2]
    else:
        with np.errstate(all="ignore"):
            if two:
                cols = m.reshape(-1, 4).T
                adj, det = _adjugate_2x2(*cols)
                adet, s_max = _closed_2x2(*cols, det, np.sqrt, np.maximum)
                s_min = np.divide(adet, s_max, out=np.zeros_like(s_max), where=s_max > 0)
            elif not np.isfinite(m).all():  # the SVD of an infinite entry may not return
                s_max = math.inf  # its rank cannot be told
            elif m.ndim == 2 or not np.any(cof):
                s_max, s_min, det, inv = _svd_solve(m)
            else:  # a real 3x3 stack: cofactors, then the SVD route for the rest
                s = np.linalg.svd(m, compute_uv=False)
                s_max, s_min, inv = s[:, 0], s[:, 2], np.empty(m.shape)
                np.divide(adj, det, out=inv.reshape(-1, 9).T)
                if not cof.all():
                    rest = ~cof
                    s_max[rest], s_min[rest], det[rest], inv[rest] = _svd_solve(m[rest])
            if m.ndim == 3:  # the rules on arrays
                if not np.isfinite(s_max).all():
                    raise ValueError(_UNTESTABLE)
                if not (two or np.isfinite(det).all()):
                    raise ValueError(_NONFINITE_DET)
                full = s_min > RANK_TOL * np.maximum(s_max, RANK_TOL)
                cond = np.divide(s_max, s_min, out=np.full_like(s_max, math.inf), where=s_min > 0)
                if two:  # adj / det in C order, as a lone inverse: products round by layout;
                    # a member not of full rank takes its pseudo-inverse below
                    inv = np.empty(m.shape, dtype=np.result_type(m, 1.0))
                    np.divide(adj, det, out=inv.reshape(-1, 4).T)
    if m.ndim == 2:  # the rules on Python numbers
        if not math.isfinite(s_max):
            raise ValueError(_UNTESTABLE)
        if not (two or cmath.isfinite(det)):
            raise ValueError(_NONFINITE_DET)
        s_max, s_min = float(s_max), float(s_min)  # s_max / s_min overflows to inf with no warning
        full = s_min > RANK_TOL * max(s_max, RANK_TOL)
        cond = s_max / s_min if s_min > 0 else math.inf
        if not full:
            _singular(on_singular)
            inv = np.linalg.pinv(m, rcond=RANK_TOL)
        elif two:  # entry by entry, as the array / det rounds
            inv = np.array([[adj[0] / det, adj[1] / det], [adj[2] / det, adj[3] / det]])
        elif cof:  # each entry rounded once, as in a stack
            inv = np.array(adj).reshape(3, 3) / det
        return inv, det, cond, full
    if not full.all():
        _singular(on_singular)
        inv[~full] = np.linalg.pinv(m[~full], rcond=RANK_TOL)
    return inv, det, cond, full


def _svd_solve(m: np.ndarray):
    """s_max, s_min, the LU determinant and the inverse V S^-1 U' of a finite
    matrix or stack, from one SVD: the route of every matrix that takes no
    closed form."""
    u, s, vh = np.linalg.svd(m)
    inv = (vh.conj().swapaxes(-1, -2) / s[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return s[..., 0], s[..., -1], np.linalg.det(m), inv


def _singular(on_singular):
    """Warn ``on_singular`` (a Warning), attributed to the first caller outside
    this package, or raise it (an exception); None does neither."""
    if isinstance(on_singular, Warning):
        warnings.warn(on_singular, stacklevel=_caller_level())
    elif on_singular is not None:
        raise on_singular


_PACKAGE = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _caller_level() -> int:
    """The ``stacklevel`` of a warning issued by this function's caller that
    points at the first frame outside this package, whatever the call depth."""
    level, frame = 1, sys._getframe(1)
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        level, frame = level + 1, frame.f_back
    return level


def _det(m: np.ndarray):
    """det m of a lone matrix whose inverse is not needed, as ``_solve_gram``
    forms it: ad - bc (``_adjugate_2x2``) at 2x2, the first row's cofactors
    (``_adjugate_3x3``) for a real 3x3 within COFACTOR_COND, an LU
    determinant otherwise; ``ValueError`` if it is not finite."""
    closed = False
    if m.shape == (2, 2):
        (a, b), (c, d) = m.tolist()
        dt, closed = _adjugate_2x2(a, b, c, d)[1], True
    elif m.shape == (3, 3) and m.dtype == float:
        _, dt, closed = _adjugate_3x3(m.ravel().tolist(), math.sqrt, _sumsq)
    if not closed:
        with np.errstate(all="ignore"):  # an overflow shows in the check below
            dt = np.linalg.det(m)
    if not cmath.isfinite(dt):
        raise ValueError(_NONFINITE_DET)
    return dt


def _adjugate_3x3(x, sqrt, sumsq):
    """The adjugate entries of the 3x3 matrix of entries x (C order) in C
    order, its determinant by the first row's cofactors, and whether the
    cofactor route may serve it: kappa_F = |M|_F |adj M|_F / |det M| at most
    COFACTOR_COND, with |adj M|_F^2 normal and det M finite, so that no
    overflow or underflow hides an ill-conditioned matrix (the bound then
    keeps |det M| above 1e-233, and no division by it is made here); a NaN
    answers false.  The one home of all three: x is a list of Python numbers, with
    (``math.sqrt``, ``_sumsq``), or the (9, K) entry columns of a stack, with
    (``np.sqrt``, ``_sumsq_columns``).  Both run the same operations in the
    same order, so both round alike."""
    a, b, c, d, e, f, g, h, i = x
    adj = (e * i - f * h, c * h - b * i, b * f - c * e,
           f * g - d * i, a * i - c * g, c * d - a * f,
           d * h - e * g, b * g - a * h, a * e - b * d)
    det = a * adj[0] + b * adj[3] + c * adj[6]
    adet, adj2 = abs(det), sumsq(adj)
    ok = ((sqrt(sumsq(x)) * sqrt(adj2) / COFACTOR_COND <= adet) & (adet <= _FLOAT_MAX)
          & (adj2 >= _FLOAT_TINY))
    return adj, det, ok


def _sumsq(xs) -> float:
    """x_0^2 + x_1^2 + ... of Python numbers, left to right (``sum`` may
    compensate)."""
    s = 0.0
    for x in xs:
        s = s + x * x
    return s


def _sumsq_columns(xs) -> np.ndarray:
    """``_sumsq`` of columns, member by member: a running sum is left to right."""
    return np.add.accumulate(np.square(xs), axis=0)[-1]


def _adjugate_2x2(a, b, c, d):
    """The adjugate entries (d, -b, -c, a) of [[a, b], [c, d]], in C order, and
    its determinant ad - bc: the one home of both, for Python numbers or for
    the entry columns of a stack.  The guarded solve and the Pade
    exponential's 2x2 solve (``transport``) both take them from here."""
    return (d, -b, -c, a), a * d - b * c


def _closed_2x2(a, b, c, d, det, sqrt, maximum):
    """|det| and s_max of [[a, b], [c, d]] with determinant det, from |det|
    and the Frobenius norm: the one 2x2 closed form.  A lone matrix passes
    Python numbers with (math.sqrt, max), since array overhead would cost it
    several times as long; a stack passes its entry columns with (np.sqrt,
    np.maximum)."""
    adet = abs(det)
    aa, ab, ac, ad = abs(a), abs(b), abs(c), abs(d)
    fro2 = aa * aa + ab * ab + ac * ac + ad * ad
    gap = 2.0 * adet
    return adet, sqrt(0.5 * (fro2 + sqrt(maximum((fro2 - gap) * (fro2 + gap), 0.0))))


_UNTESTABLE = "Gram or metric matrix is not finite, or too large to test its rank"
_NONFINITE_DET = "Gram or metric determinant is not finite"


def _heisenberg(consts: PhysConstants, h: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """(i/hbar) (h b - b h) of a raw array b, or of each member of a (p, n, n)
    stack with b h as one 2-D product: the one home of the Heisenberg
    commutator.  It checks nothing; callers check h once.

    Allocation: h b goes into ``out`` (a fresh array of b's shape if None,
    else one that must not overlap b), which then takes the difference and
    the scale in place; b h is the one temporary.  b is not written."""
    c = np.matmul(h, b, out=out)
    c -= (b.reshape(-1, h.shape[0]) @ h).reshape(b.shape)
    return np.multiply(1j / consts.hbar, c, out=c)


def heisenberg_dot(consts: PhysConstants, h: AlgebraElement, b: AlgebraElement,
                   dbdt_explicit: AlgebraElement | None = None) -> AlgebraElement:
    """Total time derivative dB/dt = dB/dt|_explicit + (i/hbar) [H, B]."""
    _require_hermitian(h.m, "hamiltonian")
    if dbdt_explicit is None:
        return _element(lambda hm, bm: _heisenberg(consts, hm, bm), h, b)
    return _element(lambda hm, bm, dm: _heisenberg(consts, hm, bm) + dm, h, b, dbdt_explicit)


# ---------------------------------------------------------------------------
# truncated Fock-space operators (finite matrix stand-ins for x and p)

def fock_lowering(dim: int) -> AlgebraElement:
    """Truncated lowering operator a with a|n> = sqrt(n)|n-1>."""
    dim = _count(dim, "dim")
    if dim < 2:
        raise DimensionError("Fock truncation needs dim >= 2")
    m = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    m[ns - 1, ns] = np.sqrt(ns)
    return AlgebraElement(m)


def fock_position(dim: int) -> AlgebraElement:
    """Truncated position operator sqrt(1/2) (a + a'), with hbar = m = omega = 1."""
    a = fock_lowering(dim).m
    return AlgebraElement(np.sqrt(0.5) * (a + a.conj().T))


def fock_momentum(dim: int) -> AlgebraElement:
    """Truncated momentum operator i sqrt(1/2) (a' - a), with hbar = m = omega = 1."""
    a = fock_lowering(dim).m
    return AlgebraElement(1j * np.sqrt(0.5) * (a.conj().T - a))


def harmonic_hamiltonian(dim: int) -> AlgebraElement:
    """Oscillator hamiltonian p^2/2 + x^2/2 (hbar = m = omega = 1) built from
    the truncated x and p, so commutation identities hold exactly except in
    the top Fock level."""
    x = fock_position(dim).m
    p = fock_momentum(dim).m
    return AlgebraElement(p @ p / 2.0 + 0.5 * (x @ x))


# ---------------------------------------------------------------------------
# JSON schema for matrices and states

def matrix_to_json(a: AlgebraElement) -> dict:
    """Matrix as {"dim", "re", "im"} with row-major flat entry lists."""
    flat = a.m.reshape(-1)
    return {"dim": a.dim, "re": flat.real.tolist(), "im": flat.imag.tolist()}


def matrix_from_json(obj: dict) -> AlgebraElement:
    try:
        dim = _count(obj["dim"], "dim")
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if dim < 1:
        raise DimensionError(f"matrix dim must be at least 1, got {dim}")
    if re.size != dim * dim or im.size != dim * dim:
        raise ValueError(f"matrix entry count does not match dim={dim}")
    return AlgebraElement((re + 1j * im).reshape(dim, dim))


def state_to_json(phi: State) -> dict:
    if phi.kind in ("trace", "sum"):
        return {"kind": phi.kind}
    if phi.kind == "vector":
        return {"kind": "vector", "re": phi._psi.real.tolist(), "im": phi._psi.imag.tolist()}
    if phi.kind == "density":
        return {"kind": "density", "rho": matrix_to_json(AlgebraElement(phi._rho))}
    return {"kind": "gibbs", "h": matrix_to_json(AlgebraElement(phi._hmat)), "beta": phi.beta}


def state_from_json(obj: dict) -> State:
    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise ValueError("state object must carry a 'kind' field") from exc
    if kind == "trace":
        return State.normalized_trace()
    if kind == "sum":
        return State.unnormalized_sum()
    try:
        if kind == "vector":
            re = np.asarray(obj["re"], dtype=float)
            return State.vector(re + 1j * np.asarray(obj["im"], dtype=float))
        if kind == "density":
            return State.density(matrix_from_json(obj["rho"]))
        if kind == "gibbs":
            return State.gibbs(matrix_from_json(obj["h"]), float(obj["beta"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} state object: {exc}") from exc
    raise ValueError(f"unknown state kind {kind!r}")

