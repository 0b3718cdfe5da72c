"""Path-ordered transport, product integrals, and the Stokes residual.

A connection along a curve enters as the sampled 1-form s -> A(gamma(s)) gamma'(s).
The path-ordered exponential solving dF/ds = A(s) F is computed three ways:
a truncated iterated-integral series, an ordered product of midpoint
exponentials, and an adaptive ODE oracle used only for verification: a
Dormand-Prince 5(4) pair at local tolerance 3e-14, run toward s1 either way.

Connections are sampled by one rule: each is a ``stacked``, called once per
block of samples (per step in the oracle) with NumPy's floating-point
warnings off.  ``ConnectionPath`` and ``stokes_residual`` lift any other
callable into one that calls it per sample, with a float64 argument.
``stokes_residual`` lifts its field once and samples it once per side and
once for the field strength's five points; it lifts its patch test the same
way and calls it once on the loop's six points, which must get one truth
value each.  The loop's holonomy, the product of its side transports, can
overflow though each side is finite: the residual is then ``ValueError``.

The matrix size picks one layout per product integral (``_layout``): a 2x2
stack is held in Fortran order, each entry one contiguous column over the
stack, for array products and the adjugate solve; larger ones in C order for
BLAS and LAPACK, where ``transport_oracle``, the independent reference, stays.
The layout's chunk, a power of two, is how many factors are exponentiated and
multiplied at a time: the whole block at 2x2, fewer for larger matrices, so
that the Pade temporaries stay small; the chunks keep the bits of whole blocks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .algebra import _adjugate_2x2, _central, _count, _first_false, _lifted, stacked
from .errors import (
    DimensionError,
    OrderTooLargeError,
    PatchDomainError,
    StiffnessError,
)

__all__ = [
    "ConnectionPath",
    "LoopSpec",
    "MAX_SERIES_ORDER",
    "ordered_series",
    "product_integral",
    "transport_oracle",
    "reverse_path",
    "stokes_residual",
    "stored_test_path",
    "stored_su2_field",
]

MAX_SERIES_ORDER = 6


@dataclass(frozen=True)
class ConnectionPath:
    """Matrix connection sampled along a curve.

    ``A`` maps the curve parameter s to a square complex matrix (the 1-form
    already contracted with the curve velocity), lifted into a ``stacked``
    unless it is one; ``s_range`` is the integration interval and
    ``n_steps`` the number of subintervals of the uniform partition, an int.
    """

    A: callable
    s_range: tuple
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "A", _lifted(self.A))
        object.__setattr__(self, "n_steps", _count(self.n_steps, "n_steps"))
        s0, s1 = self.s_range
        if not (math.isfinite(s0) and math.isfinite(s1)):
            raise ValueError("s_range must be finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

    def grid(self) -> np.ndarray:
        return _edges(self, 0, self.n_steps)


def _edges(path: ConnectionPath, lo: int, hi: int) -> np.ndarray:
    """Points lo..hi of the uniform partition of path.s_range in path.n_steps
    steps, with the bits of ``np.linspace``: the one grid formula."""
    s0, s1, n = float(path.s_range[0]), float(path.s_range[1]), path.n_steps
    edges = np.arange(lo, hi + 1.0) * ((s1 - s0) / n) + s0
    if hi == n:
        edges[-1] = s1
    return edges


@dataclass(frozen=True)
class LoopSpec:
    """Square loop: base point, two spanning directions, side length epsilon.
    ``DimensionError`` unless base has shape (2,) and dirs (2, 2), ``ValueError``
    unless their entries and epsilon are finite, with epsilon > 0."""

    base: tuple
    dirs: tuple
    epsilon: float

    def __post_init__(self):
        base, dirs = np.asarray(self.base, dtype=float), np.asarray(self.dirs, dtype=float)
        if base.shape != (2,) or dirs.shape != (2, 2):
            raise DimensionError(f"loop base {base.shape}, dirs {dirs.shape} are not (2,), (2, 2)")
        if not (np.isfinite(base).all() and np.isfinite(dirs).all() and 0 < self.epsilon < np.inf):
            raise ValueError(f"loop base, dirs, side {self.epsilon} must be finite and side > 0")


def _values(a, points) -> np.ndarray:
    """The values of the ``stacked`` a at each of points, as one complex array."""
    return np.asarray(a.stack(points), dtype=complex)


def _sample(a, points):
    vals = _values(a, points)
    if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
        raise DimensionError("connection samples must be square matrices")
    if not np.all(np.isfinite(vals)):
        raise ValueError("connection samples must be finite")
    return vals


def ordered_series(path: ConnectionPath, order: int) -> np.ndarray:
    """Truncated path-ordered exponential via iterated simplex integrals.

    Term j is the j-fold ordered integral U_j(s) = int A(t) U_{j-1}(t) dt,
    accumulated with the composite trapezoid rule on the path grid; the
    ordering constraint lives in the nested integration limits.
    """
    order = _count(order, "order")
    if order > MAX_SERIES_ORDER:
        raise OrderTooLargeError(
            f"series order {order} exceeds the supported maximum {MAX_SERIES_ORDER}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    s = path.grid()
    vals = _sample(path.A, s)
    ds = np.diff(s)[:, None, None]
    d = vals.shape[1]
    eye = np.eye(d, dtype=complex)
    total = eye.copy()
    u_level = np.broadcast_to(eye, vals.shape).copy()
    for _ in range(order):
        integrand = vals @ u_level
        # composite trapezoid rule, cumulative from a zero first row
        steps = np.cumsum(ds * (integrand[1:] + integrand[:-1]) / 2.0, axis=0)
        u_level = np.concatenate([np.zeros_like(integrand[:1]), steps])
        total = total + u_level[-1]
    return total


# Scaling-and-squaring Pade exponential (N. J. Higham, SIAM J. Matrix Anal.
# Appl. 26(4), 2005): degree m is used up to 1-norm theta_m, beyond theta_13
# the matrix is scaled by 2^-s into range and the result squared s times.
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_DEGREES = tuple(_PADE)
_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                   9.504178996162932e-1, 2.097847961257068e0])
_THETA13 = 5.371920351148152

# Steps sampled per pass of product_integral; bounds its working set at
# O(_BLOCK d^2) for any number of steps.
_BLOCK = 1024
# Bytes of the largest (m, d, d) complex stack a block is scaled, exponentiated
# and multiplied in (``_layout``'s chunk m), so that a chunk's Pade temporaries
# fit in the free memory of the allocator's heap.  A whole d = 4 block's, about
# eight (1024, 4, 4) stacks, were returned to the system and faulted in again on
# every call (~450 minor faults); 128 KiB chunks still faulted 160-500 times a
# call, 64 KiB ones none (numpy 2.4, glibc, 2-core x86-64 Linux).
_CHUNK_BYTES = 1 << 16


# Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6, 1980): nodes, stages (the
# last row is the fifth-order solution), fifth- minus fourth-order weights.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([row + [0.0] * (7 - len(row)) for row in (
    [], [1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_ORACLE_TOL = 3e-14


# A layout: ``pack`` gives a (k, d, d) stack its memory order, ``mul`` and ``solve``
# are x @ y and p^-1 q on two stacks, ``chunk`` the factors product_integral
# exponentiates and multiplies at a time
_Layout = namedtuple("_Layout", "pack mul solve chunk")


def _columns_mul(x, y):
    """x @ y for Fortran-order 2x2 stacks: x[:, :, j, None] * y[:, None, j, :] summed over j."""
    x, y = x.T, y.T  # entry (r, c) of each matrix is x[c, r], a contiguous column
    return (x[0] * y[:, 0, None] + x[1] * y[:, 1, None]).T


def _columns_solve(p, q):
    """p^-1 q for Fortran-order 2x2 stacks: adj(p) q / det(p), by ``_adjugate_2x2``."""
    (a, c), (b, d) = p.T
    adj, det = _adjugate_2x2(a, b, c, d)
    return _columns_mul(np.reshape(adj, (2, 2, -1)).transpose(2, 0, 1), q) / det[:, None, None]


def _layout(d: int) -> _Layout:
    """The layout of a stack of d x d matrices: Fortran order at d = 2, where a
    BLAS or LAPACK call per matrix costs several times its arithmetic.  Its
    chunk is the largest power of two up to ``_BLOCK`` whose (chunk, d, d)
    complex stack fits in ``_CHUNK_BYTES``, at least 1: the whole block at
    d = 1 and 2, 256 at d = 3 and 4, 64 at d = 6 to 8."""
    fit = _CHUNK_BYTES // (16 * d * d)
    chunk = 1 << max(0, min(_BLOCK, fit).bit_length() - 1)
    if d == 2:
        return _Layout(np.asfortranarray, _columns_mul, _columns_solve, chunk)
    return _Layout(np.asarray, np.matmul, np.linalg.solve, chunk)


def _pade(a, m, lay):
    """Degree-m Pade approximant (V - U)^-1 (V + U) of exp on a stack of ``lay``."""
    b, mul, eye = _PADE[m], lay.mul, lay.pack(np.eye(a.shape[-1]))
    a2 = mul(a, a)
    if m == 13:
        a4 = mul(a2, a2)
        a6 = mul(a4, a2)
        u = mul(a, mul(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
                + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (mul(a6, b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        powers = [eye, a2]
        while len(powers) <= m // 2:
            powers.append(mul(powers[-1], a2))
        u = mul(a, sum(b[2 * k + 1] * p for k, p in enumerate(powers)))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    return lay.solve(v - u, v + u)


def _expm_level(a, norms, i, lay):
    """exp of a stack a of ``lay`` whose 1-norms, norms, all take Pade level i."""
    if _DEGREES[i] < 13:
        return _pade(a, _DEGREES[i], lay)
    s = np.maximum(0, np.ceil(np.log2(norms / _THETA13))).astype(int)
    if s.max() > 52:  # s squarings amplify rounding up to 2^s, which reaches 1 / 2^-53 at 53
        raise ValueError(f"matrix exponential overflows: 1-norm {norms.max():.3g} needs "
                         f"{s.max()} squarings, and past 52 no digit is correct")
    r = _pade(a * np.exp2(-s)[:, None, None], 13, lay)
    with np.errstate(all="ignore"):  # an overflow shows in the caller's check
        for k in range(s.max()):
            sq = s > k
            r[sq] = lay.mul(r[sq], r[sq])
    return r


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix in a (k, d, d) stack, in its
    ``_layout``.  The 1-norms pick each matrix's Pade level: one level takes
    the whole stack, mixed levels take masks."""
    lay = _layout(a.shape[-1])
    a = lay.pack(a)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("matrix exponential needs finite entries")
    level = np.searchsorted(_THETA, norms)
    if level.min() == level.max():
        out = _expm_level(a, norms, level[0], lay)
    else:
        out = np.empty_like(a)
        for i in np.unique(level):
            sel = level == i
            out[sel] = _expm_level(a[sel], norms[sel], i, lay)
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix exponential overflows")
    return out


def _tree_product(e: np.ndarray) -> np.ndarray:
    """e[k-1] @ ... @ e[1] @ e[0] of a (k, d, d) stack, multiplied in pairs
    level by level in its ``_layout``."""
    lay = _layout(e.shape[-1])
    while len(e) > 1:
        pairs = lay.mul(e[1::2], e[0:len(e) - 1:2])
        e = np.concatenate([pairs, e[-1:]]) if len(e) % 2 else pairs
    return e[0]


def product_integral(path: ConnectionPath) -> np.ndarray:
    """Ordered product of midpoint exponentials exp(A(s_mid) ds), later
    factors multiplying from the left.

    The factors are sampled in blocks of ``_BLOCK`` steps.  A block is
    scaled by ds, exponentiated and tree-multiplied in consecutive chunks of
    the layout's ``chunk`` factors, and the chunk products are tree-multiplied
    into the block's; each block's product multiplies the running one, a stack of
    one, all in the ``_layout`` of the first block's size.  The chunks keep
    the bits of one pass over the block: each factor's exponential depends
    only on its own matrix, and a chunk starts at a multiple of its length,
    a power of two, so its tree is one subtree of the block's.  A block
    whose samples have another size raises ``DimensionError``, and a
    product that overflows ``ValueError``.
    """
    n, f = path.n_steps, None
    with np.errstate(all="ignore"):  # an overflow shows in a check: _sample's, _expm_stack's, below
        for lo in range(0, n, _BLOCK):
            edges = _edges(path, lo, min(lo + _BLOCK, n))
            vals = _sample(path.A, 0.5 * (edges[:-1] + edges[1:]))
            if f is not None and vals.shape[-1] != f.shape[-1]:
                raise DimensionError(f"connection samples from s = {edges[0]:.17g} have size "
                                     f"{vals.shape[-1]}, the first block's {f.shape[-1]}")
            ds, m = np.diff(edges)[:, None, None], _layout(vals.shape[-1]).chunk
            parts = [_tree_product(_expm_stack(vals[i:i + m] * ds[i:i + m]))
                     for i in range(0, len(vals), m)]
            block = (parts[0] if len(parts) == 1 else _tree_product(np.stack(parts)))[None]
            f = block if f is None else _tree_product(np.concatenate([f, block]))[None]
            if not np.isfinite(f).all():  # a non-finite block product makes f non-finite too
                raise ValueError("product integral overflows")
    return np.ascontiguousarray(f[0])


def transport_oracle(path: ConnectionPath) -> np.ndarray:
    """Dormand-Prince 5(4) solution of dF/ds = A(s) F from F(s0) = 1 to s1,
    backward if s1 < s0.  The transport is linear, so the solution from any
    other start f0 is ``transport_oracle(path) @ f0``.  A step samples its
    seven nodes in one call on a ``stacked`` A (else one per node), is kept if
    its error estimate is at most ``_ORACLE_TOL`` max(1, max |F|), and scales
    the step by 0.9 err^(-1/5) in [0.2, 5]; StiffnessError once it is
    1e-14 (|s| + |s1 - s0|).
    """
    s, s1 = float(path.s_range[0]), float(path.s_range[1])
    d = len(_sample(path.A, np.array([s]))[0])
    f = np.eye(d, dtype=complex)
    h = span = s1 - s
    while s != s1:
        if abs(h) <= 1e-14 * (abs(s) + abs(span)):
            raise StiffnessError(f"transport step size fell to {h:.3g} at s = {s:.17g}")
        t = s1 if abs(h) >= abs(s1 - s) else s + h
        h = t - s
        a = _sample(path.A, s + _DP_C * h)
        k = np.zeros(f.shape + (7,), dtype=complex)  # stage i in k[..., i]
        with np.errstate(all="ignore"):  # an overflowing step shows as a non-finite error
            for i in range(7):
                y = f + h * (k @ _DP_A[i])
                k[..., i] = a[i] @ y
            err = np.abs(h * (k @ _DP_E)).max() / (_ORACLE_TOL * max(1.0, np.abs(f).max()))
        if err <= 1.0:
            s, f = t, y  # y, the last stage's argument, is the fifth-order solution
        h *= min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))
    return f


def reverse_path(path: ConnectionPath) -> ConnectionPath:
    """Path traversed backward; its transport is the inverse of the original."""
    s0, s1 = path.s_range
    return ConnectionPath(A=stacked(lambda s: -_values(path.A, s0 + s1 - s)),
                          s_range=(s0, s1), n_steps=path.n_steps)


def _segment_path(a_field: stacked, start, end, n_steps):
    start = np.asarray(start, dtype=float)
    delta = np.asarray(end, dtype=float) - start

    def a_seg(t):
        comps = _values(a_field, start + t[:, None] * delta)
        return np.einsum("i,kijl->kjl", delta, comps)

    return ConnectionPath(A=stacked(a_seg), s_range=(0.0, 1.0), n_steps=n_steps)


def stokes_residual(a_field, loop: LoopSpec, in_patch=None) -> float:
    """Defect of the small-loop Stokes relation, Frobenius norm.

    ``a_field`` maps a 2-parameter point u to the two matrix components
    (shape (2, dim, dim)) of the connection 1-form.  The holonomy around
    the counterclockwise square spanned by loop.dirs -- segment transports
    multiplied in traversal order -- is compared to exp(F12 eps^2) with
    F12 = d1 A2 - d2 A1 + [A1, A2] at the base point (central differences
    at step 1e-4 along the spanning directions).  Each side is transported
    in 256 product-integral steps.  The defect is third order in eps.

    ``a_field`` and ``in_patch`` are lifted into ``stacked`` callables like
    a connection.  ``in_patch`` answers one truth value per point for the
    four corners and the two points base +- 1e-4 (|d1| + |d2|), tested in
    one call: ``PatchDomainError`` names the first one outside, and
    ``DimensionError`` an answer of another shape.  The field strength
    samples the base point and its four difference points in one call.
    """
    n_steps, h = 256, 1e-4
    base = np.asarray(loop.base, dtype=float)
    d1 = np.asarray(loop.dirs[0], dtype=float)
    d2 = np.asarray(loop.dirs[1], dtype=float)
    eps = float(loop.epsilon)
    a_field = _lifted(a_field)
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        corners = [base, base + eps * d1, base + eps * d1 + eps * d2, base + eps * d2]
        margin = h * (np.abs(d1) + np.abs(d2))
    if not (np.isfinite(corners).all() and np.isfinite(margin).all()):
        raise ValueError(f"loop corners overflow: base {base.tolist()}, side {eps}")
    if in_patch is not None:
        pts = np.array(corners + [base + margin, base - margin])
        bad = _first_false(_lifted(in_patch).stack(pts), pts, "in_patch")
        if bad is not None:
            raise PatchDomainError(f"loop point {bad.tolist()} leaves the patch")
    with np.errstate(all="ignore"):  # an overflow shows in _expm_stack's check or the one below
        holo = None
        for i in range(4):
            seg = _segment_path(a_field, corners[i], corners[(i + 1) % 4], n_steps)
            f = product_integral(seg)
            holo = f if holo is None else holo @ f
        comps = _values(a_field, np.array([base, base + h * d1, base - h * d1,
                                           base + h * d2, base - h * d2]))
        # each point's components along d1 and along d2
        a1, a2 = (np.einsum("i,kijl->kjl", d, comps) for d in (d1, d2))
        f12 = _central(a2[1], a2[2], h) - _central(a1[3], a1[4], h) + a1[0] @ a2[0] - a2[0] @ a1[0]
        f12 = f12 * eps * eps
        residual = float(np.linalg.norm(holo - _expm_stack(f12[None])[0]))
    if not np.isfinite(residual):
        raise ValueError("Stokes residual is not finite: the product of the side transports overflows")
    return residual


# ---------------------------------------------------------------------------
# stored verification inputs

_STORED_X = np.array([[0.0, 0.6], [-0.6, 0.0]], dtype=complex)
_STORED_Y = np.array([[0.35j, 0.25], [-0.25, -0.35j]], dtype=complex)

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)[..., None]  # an axis for the points
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)[..., None]
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)[..., None]


def _affine_connection(x: np.ndarray, y: np.ndarray) -> stacked:
    """A(s) = s X + Y; X and Y of different shapes raise ``DimensionError``."""
    if x.shape != y.shape:
        raise DimensionError("X and Y must have equal dimension")
    return stacked(lambda s: s[:, None, None] * x + y)


def stored_test_path(n_steps: int = 2000) -> ConnectionPath:
    """Non-commuting antihermitian reference path A(s) = s X + Y on [0, 1]."""
    return ConnectionPath(A=_affine_connection(_STORED_X, _STORED_Y),
                          s_range=(0.0, 1.0), n_steps=n_steps)


def _su2_field(us: np.ndarray) -> np.ndarray:
    """su(2)-valued reference 1-form on the plane with nonzero [A1, A2]: its
    two components (k, 2, 2, 2) at a stack of points (k, 2)."""
    u0, u1 = us.T
    out = np.empty((len(us), 2, 2, 2), dtype=complex)
    a1, a2 = out.transpose(1, 2, 3, 0)  # points last, so each product runs along them
    np.multiply(1.0j, 0.4 * _SIGMA_Z + 0.7 * u1 * _SIGMA_X, out=a1)
    np.multiply(1.0j, 0.5 * _SIGMA_X + 0.6 * u0 * _SIGMA_Y + 0.2 * u1 * u1 * _SIGMA_Z, out=a2)
    return out


# called on one point u (2,), the components (2, 2, 2) there
stored_su2_field = stacked(_su2_field)
