"""Finite-dimensional matrix algebras, states, and state-induced dot products.

An algebra element is a dense complex square matrix; the involution is the
conjugate transpose.  A state is a positive linear functional, normalized so
that the identity evaluates to 1 (the plain matrix trace is also provided as
an unnormalized variant).  Every state induces a family of real-valued dot
products on the algebra,

    a . b = scale * phi(lam * a'b + conj(lam) * b'a),      a' = star(a)

with lam = 1/2 giving the symmetric product used throughout the geometry
modules.

All matrix and state file I/O (a small JSON schema) lives in this module;
the other modules consume in-process values only.  So do the helpers other
modules share: ``stacked``, the one type of callable defined over a stack
of points (public, so a user chart or connection can be one), with
``_lifted``, which makes any other callable one, ``_first_false``, the one
rule for the answers of a domain or patch test, ``_step_count``, the one
step-count rule, and ``_asymmetric``, the one relative symmetry test.
"""

from __future__ import annotations

import json
import math
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
    "load_matrix",
    "dump_matrix",
    "load_state",
    "dump_state",
    "stacked",
]

HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-12


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
    symmetry test.  Given axes, it tests each member of a stack over them."""
    scale = np.maximum(1.0, np.abs(a).max(axis=axes))
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
        return AlgebraElement(self.m.conj().T)

    def _check_dim(self, other: "AlgebraElement"):
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_dim(other)
        return AlgebraElement(self.m + other.m)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_dim(other)
        return AlgebraElement(self.m - other.m)

    def __mul__(self, c):
        if isinstance(c, AlgebraElement):
            return NotImplemented
        return AlgebraElement(self.m * complex(c))

    __rmul__ = __mul__

    def __truediv__(self, c):
        return AlgebraElement(self.m / complex(c))

    def __neg__(self):
        return AlgebraElement(-self.m)

    def __matmul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_dim(other)
        return AlgebraElement(self.m @ other.m)

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


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._check_dim(b)
    return AlgebraElement(a.m @ b.m - b.m @ a.m)


def anticommutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._check_dim(b)
    return AlgebraElement(a.m @ b.m + b.m @ a.m)


class State:
    """Positive linear functional phi on the matrix algebra.

    Variants (constructed through the classmethods):

    - ``normalized_trace``: phi(a) = Tr(a)/n, defined for every dimension.
    - ``unnormalized_sum``: phi(a) = Tr(a); the only variant with phi(1) = n.
    - ``vector(psi)``: phi(a) = psi' a psi for a unit vector psi.
    - ``density(rho)``: phi(a) = Tr(rho a); rho is checked to be hermitian,
      positive semidefinite (eigenvalues >= -1e-12), and unit trace.
    - ``gibbs(h, beta)``: thermal state of a hermitian h, evaluated through
      the eigendecomposition of h with the spectrum shifted so the weights
      never overflow; beta = 0 reduces to the normalized trace.
    """

    _KINDS = ("trace", "sum", "vector", "density", "gibbs")

    def __init__(self, kind, dim=None, psi=None, rho=None, hmat=None, beta=None):
        if kind not in self._KINDS:
            raise ValueError(f"unknown state kind {kind!r}")
        self.kind = kind
        self.dim = dim
        self._psi = psi
        self._rho = rho
        self._hmat = hmat
        self.beta = beta

    @classmethod
    def normalized_trace(cls) -> "State":
        return cls("trace")

    @classmethod
    def unnormalized_sum(cls) -> "State":
        return cls("sum")

    @classmethod
    def vector(cls, psi) -> "State":
        v = np.asarray(psi, dtype=complex).reshape(-1)
        if v.size == 0:
            raise DimensionError("state vector is empty")
        if not np.all(np.isfinite(v)):
            raise ValueError("state vector has non-finite entries")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state vector must be normalized, |psi| = {nrm}")
        return cls("vector", dim=v.size, psi=v)

    @classmethod
    def density(cls, rho) -> "State":
        if isinstance(rho, AlgebraElement):
            rho = rho.m
        arr = _as_square_complex(rho, "density matrix")
        _require_hermitian(arr, "density matrix")
        w = np.linalg.eigvalsh(arr)
        if w.min() < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {w.min()}")
        tr = arr.trace().real
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace must be 1, got {tr}")
        return cls("density", dim=arr.shape[0], rho=arr)

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
        be = beta * energies
        w = np.exp(be.min() - be)
        w = w / w.sum()
        rho = (vecs * w) @ vecs.conj().T
        return cls("gibbs", dim=hmat.shape[0], rho=rho, hmat=np.array(hmat), beta=beta)

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
            # phi(x' y) = sum_mk conj(x)_mk (y rho)_mk; rho = 1/n or 1 for traces
            right = ys if self.kind in ("trace", "sum") else ys.reshape(-1, n) @ self._rho
            pm = (xs.reshape(xs.shape[:-2] + (-1,)).conj()
                  @ right.reshape(ys.shape[:-2] + (-1,)).swapaxes(-1, -2))
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
    """Parameters of the state-induced dot product.

    ``lam`` is the complex weight of the a'b term (the b'a term gets its
    conjugate); ``scale`` is an overall positive factor.  The defaults give
    the symmetric product (a'b + b'a)/2.
    """

    lam: complex = 0.5
    scale: float = 1.0

    def __post_init__(self):
        if not np.isfinite(complex(self.lam)):
            raise ValueError("lam must be finite")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError("scale must be a positive real")


@dataclass(frozen=True)
class PhysConstants:
    """Physical constants entering the dynamical operations."""

    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and np.isfinite(self.hbar)):
            raise ValueError("hbar must be a positive real")
        if not (self.c > 0 and np.isfinite(self.c)):
            raise ValueError("c must be a positive real")


def state_eval(phi: State, a: AlgebraElement) -> complex:
    """Evaluate the state on an algebra element."""
    return phi.eval_matrix(a.m)


def dot(phi: State, cfg: DotConfig, a: AlgebraElement, b: AlgebraElement) -> complex:
    """State-induced dot product scale * phi(lam a'b + conj(lam) b'a).

    The combination lam a'b + conj(lam) b'a is hermitian for every lam, so
    the value is real up to rounding; it is returned as a complex number.
    Symmetry under a <-> b holds exactly when lam is real.
    """
    a._check_dim(b)
    lam = complex(cfg.lam)
    mat = lam * (a.m.conj().T @ b.m) + np.conj(lam) * (b.m.conj().T @ a.m)
    return cfg.scale * phi.eval_matrix(mat)


def _stack(els) -> np.ndarray:
    """Raw arrays of equal-dimension algebra elements as one (p, n, n) stack."""
    els = list(els)
    for e in els[1:]:
        els[0]._check_dim(e)
    return np.stack([e.m for e in els])


def _dot_matrix(phi: State, cfg: DotConfig, xs, ys=None) -> np.ndarray:
    """Real dot matrix D[i, j] = x_i . y_j of stacked raw arrays.

    Because phi is hermitian, phi(y' x) = conj(phi(x' y)) and the dot
    collapses to 2 scale Re(lam P) with P the kernel :meth:`State.gram`.
    """
    return 2.0 * cfg.scale * (complex(cfg.lam) * phi.gram(xs, ys)).real


# rank tolerance of every Gram and metric solve and of Gram-Schmidt's squared norms
RANK_TOL = 1e-10


def _solve_gram(m: np.ndarray, on_singular=None):
    """Guarded inverse of a Gram or metric matrix: (inverse, det, cond, full).

    Full rank means s_min > RANK_TOL * max(s_max, RANK_TOL) for the singular
    values.  Otherwise ``on_singular`` is warned (a Warning, attributed to
    the first caller outside this package) or raised (an exception) and the
    inverse is the pseudo-inverse cut at RANK_TOL * s_max.
    A matrix whose s_max is not finite (a non-finite entry, or an overflow)
    raises ``ValueError``: its rank cannot be told.
    A 2x2 matrix takes s_min, s_max from |det| and its Frobenius norm and its
    inverse in closed form; larger ones use one SVD and an LU determinant.  A
    stack of shape (K, n, n) is solved in one pass of array arithmetic: a
    stack of 2x2 matrices by ``_solve_2x2_stack``, larger ones by one
    factorization call and one stacked product (``_solve_svd_stack``).  It
    warns or raises once if any member is singular and returns the four
    results stacked; every member has the bits of a call on that member alone.
    """
    st = m if m.ndim == 3 else m[None]
    two = st.shape[1:] == (2, 2)
    if len(st) == 1:
        inv, det, cond, full = _solve_lone(st[0], two)
    elif two:
        inv, det, cond, full = _solve_2x2_stack(st)
    else:
        inv, det, cond, full = _solve_svd_stack(st)
    if not all(full):
        if isinstance(on_singular, Warning):
            warnings.warn(on_singular, stacklevel=_caller_level())
        elif on_singular is not None:
            raise on_singular
        for k, ok in enumerate(full):
            if not ok:
                inv[k] = np.linalg.pinv(st[k], rcond=RANK_TOL)
    if m.ndim == 2:
        return inv[0], det[0], cond[0], full[0]
    return np.asarray(inv), np.asarray(det), np.asarray(cond), np.asarray(full)


_PACKAGE = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _caller_level() -> int:
    """The ``stacklevel`` of a warning issued by this function's caller that
    points at the first frame outside this package, whatever the call depth."""
    level, frame = 1, sys._getframe(1)
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        level, frame = level + 1, frame.f_back
    return level


def _solve_lone(m: np.ndarray, two: bool):
    """The four results of ``_solve_gram`` on one matrix, as lists of one,
    with None for the inverse if it is not of full rank."""
    if two:
        (a, b), (c, d) = m.tolist()
        dt, adet, s_max = _closed_2x2(a, b, c, d, math.sqrt, max)
        s_min = adet / s_max if s_max > 0 else 0.0
    else:
        u, s, vh = np.linalg.svd(m)  # a NaN entry raises LinAlgError, a ValueError
        dt, s_max, s_min = np.linalg.det(m), s[0], s[-1]
    if not math.isfinite(s_max):
        raise ValueError(_UNTESTABLE)
    ok = bool(s_min > RANK_TOL * max(s_max, RANK_TOL))
    if not ok:
        inv = None  # the pseudo-inverse, once the singular policy has run
    elif two:
        inv = np.array([[d, -b], [-c, a]]) / dt
    else:
        inv = (vh.conj().T / s) @ u.conj().T
    return [inv], [dt], [s_max / s_min if s_min > 0 else math.inf], [ok]


def _closed_2x2(a, b, c, d, sqrt, maximum):
    """det, |det| and s_max of [[a, b], [c, d]] from its determinant and
    Frobenius norm: the one 2x2 closed form.  A lone matrix passes Python
    numbers with (math.sqrt, max), since array overhead would cost it several
    times as long; a stack passes its entry columns with (np.sqrt, np.maximum)."""
    det = a * d - b * c
    adet = abs(det)
    aa, ab, ac, ad = abs(a), abs(b), abs(c), abs(d)
    fro2 = aa * aa + ab * ab + ac * ac + ad * ad
    gap = 2.0 * adet
    return det, adet, sqrt(0.5 * (fro2 + sqrt(maximum((fro2 - gap) * (fro2 + gap), 0.0))))


def _solve_2x2_stack(st: np.ndarray):
    """The four results of ``_solve_gram`` on a stack of K > 1 2x2 matrices,
    as arrays from array arithmetic (``_closed_2x2``), with zeros for the
    inverse of a member that is not of full rank.  Real stacks get the
    lone-matrix bits exactly (complex products may round differently).  A
    member out of the float range shows only as a non-finite s_max, which
    raises ``ValueError`` with no NumPy warning.
    """
    with np.errstate(all="ignore"):
        det, adet, s_max = _closed_2x2(*st.reshape(-1, 4).T, np.sqrt, np.maximum)
        if not np.isfinite(s_max).all():
            raise ValueError(_UNTESTABLE)
        s_min = np.divide(adet, s_max, out=np.zeros_like(s_max), where=s_max > 0)
        full = s_min > RANK_TOL * np.maximum(s_max, RANK_TOL)
        cond = np.divide(s_max, s_min, out=np.full_like(s_max, math.inf), where=s_min > 0)
        # the adjugate [[d, -b], [-c, a]] over det, for the full-rank members; C order
        # like a stack of lone-matrix inverses, since products with it round by layout
        inv = np.zeros(st.shape, dtype=np.result_type(st, 1.0))
        adj = st.reshape(-1, 4)[:, [3, 1, 2, 0]] * _ADJUGATE_SIGN
        np.divide(adj, det[:, None], out=inv.reshape(-1, 4), where=full[:, None])
    return inv, det, cond, full


def _solve_svd_stack(st: np.ndarray):
    """The four results of ``_solve_gram`` on a stack of K > 1 n x n matrices,
    n > 2, as arrays from one SVD, one LU determinant and one stacked
    product, which gives each member the bits of the lone-matrix inverse.
    The inverse of a member that is not of full rank is not finite."""
    u, s, vh = np.linalg.svd(st)  # a NaN entry raises LinAlgError, a ValueError
    s_max, s_min = s[:, 0], s[:, -1]
    if not np.isfinite(s_max).all():
        raise ValueError(_UNTESTABLE)
    full = s_min > RANK_TOL * np.maximum(s_max, RANK_TOL)
    with np.errstate(all="ignore"):
        cond = np.divide(s_max, s_min, out=np.full_like(s_max, math.inf), where=s_min > 0)
        inv = (vh.conj().swapaxes(-1, -2) / s[:, None, :]) @ u.conj().swapaxes(-1, -2)
    return inv, np.linalg.det(st), cond, full


_ADJUGATE_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
_UNTESTABLE = "Gram or metric matrix is not finite, or too large to test its rank"


def _heisenberg(consts: PhysConstants, h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(i/hbar) (h b - b h) of a raw array b, or of each member of a (p, n, n)
    stack with b h as one 2-D product: the one home of the Heisenberg
    commutator.  It checks nothing; callers check h once."""
    return (1j / consts.hbar) * (h @ b - (b.reshape(-1, h.shape[0]) @ h).reshape(b.shape))


def heisenberg_dot(consts: PhysConstants, h: AlgebraElement, b: AlgebraElement,
                   dbdt_explicit: AlgebraElement | None = None) -> AlgebraElement:
    """Total time derivative dB/dt = dB/dt|_explicit + (i/hbar) [H, B]."""
    _require_hermitian(h.m, "hamiltonian")
    h._check_dim(b)
    out = _heisenberg(consts, h.m, b.m)
    if dbdt_explicit is not None:
        b._check_dim(dbdt_explicit)
        out = out + dbdt_explicit.m
    return AlgebraElement(out)


# ---------------------------------------------------------------------------
# truncated Fock-space operators (finite matrix stand-ins for x and p)

def fock_lowering(dim: int) -> AlgebraElement:
    """Truncated lowering operator a with a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise DimensionError("Fock truncation needs dim >= 2")
    m = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    m[ns - 1, ns] = np.sqrt(ns)
    return AlgebraElement(m)


def fock_position(dim: int, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0) -> AlgebraElement:
    """Truncated position operator sqrt(hbar/(2 m omega)) (a + a')."""
    a = fock_lowering(dim).m
    return AlgebraElement(np.sqrt(hbar / (2.0 * mass * omega)) * (a + a.conj().T))


def fock_momentum(dim: int, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0) -> AlgebraElement:
    """Truncated momentum operator i sqrt(hbar m omega / 2) (a' - a)."""
    a = fock_lowering(dim).m
    return AlgebraElement(1j * np.sqrt(hbar * mass * omega / 2.0) * (a.conj().T - a))


def harmonic_hamiltonian(dim: int, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0) -> AlgebraElement:
    """Oscillator hamiltonian p^2/(2m) + m omega^2 x^2 / 2 built from the
    truncated x and p, so commutation identities hold exactly except in the
    top Fock level."""
    x = fock_position(dim, hbar, mass, omega).m
    p = fock_momentum(dim, hbar, mass, omega).m
    return AlgebraElement(p @ p / (2.0 * mass) + 0.5 * mass * omega**2 * (x @ x))


# ---------------------------------------------------------------------------
# JSON schema for matrices and states

def matrix_to_json(a: AlgebraElement) -> dict:
    """Matrix as {"dim", "re", "im"} with row-major flat entry lists."""
    flat = a.m.reshape(-1)
    return {"dim": a.dim, "re": flat.real.tolist(), "im": flat.imag.tolist()}


def matrix_from_json(obj: dict) -> AlgebraElement:
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
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
    if kind == "vector":
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        return State.vector(re + 1j * im)
    if kind == "density":
        return State.density(matrix_from_json(obj["rho"]))
    if kind == "gibbs":
        return State.gibbs(matrix_from_json(obj["h"]), float(obj["beta"]))
    raise ValueError(f"unknown state kind {kind!r}")


def load_matrix(path) -> AlgebraElement:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def dump_matrix(a: AlgebraElement, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh, indent=2)
        fh.write("\n")


def load_state(path) -> State:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(json.load(fh))


def dump_state(phi: State, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(phi), fh, indent=2)
        fh.write("\n")
