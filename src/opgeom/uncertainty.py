"""Variance and uncertainty-bound reports built on the projection machinery.

All bounds are instances of one inequality: the squared norm of an element
is at least the squared norm of its projection onto any finite reference
set.  Specializing the element and the set yields

- ``fluctuation_bound``: variance of A against the span of fluctuations of
  a reference family, by ``projection._project_on`` on the centred stack,
- ``pair_product_bound``: the raw second-moment product of two hermitian
  elements against the squared expectation of their commutator,
- ``energy_bound``: the second moment (or variance) of a hamiltonian
  against the Heisenberg velocities of a reference family.

A bound whose lhs or rhs is not finite raises ``ValueError``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraElement,
    DotConfig,
    PhysConstants,
    State,
    _asymmetric,
    _finite_value,
    _require_hermitian,
    _solve_gram,
    _stack,
    state_eval,
)
from .errors import DimensionError, HermiticityError, SingularGramWarning
from .projection import _project_on

__all__ = [
    "BoundReport",
    "MARGIN_TOL",
    "fluctuation",
    "variance",
    "fluctuation_bound",
    "pair_product_bound",
    "energy_bound",
]

MARGIN_TOL = 1e-10


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: lhs >= rhs with margin = lhs - rhs.

    ``satisfied`` tolerates rounding down to margin >= -1e-10.  ``extra``
    carries informational values (observed commutator size and similar).
    """

    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    extra: dict = field(default_factory=dict)


def _report(lhs: float, rhs: float, extra: dict | None = None) -> BoundReport:
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise ValueError(f"bound is not finite: lhs {lhs}, rhs {rhs}")
    margin = lhs - rhs
    return BoundReport(lhs=lhs, rhs=rhs, margin=margin,
                       satisfied=bool(margin >= -MARGIN_TOL), extra=extra or {})


def _centred(phi: State, stack: np.ndarray) -> np.ndarray:
    """Fluctuations x - phi(x) 1 of a raw (p, n, n) stack: the one centring rule.
    An overflowing state value raises ``ValueError``; a fluctuation shows as inf."""
    with np.errstate(all="ignore"):
        means = [phi.eval_matrix(x) for x in stack]
        if not all(map(cmath.isfinite, means)):
            raise ValueError(f"state value is not finite: {means}")
        return stack - np.array(means)[:, None, None] * np.eye(stack.shape[-1])


def fluctuation(phi: State, a: AlgebraElement) -> AlgebraElement:
    """Centered element a - phi(a) 1."""
    return AlgebraElement(_centred(phi, a.m[None])[0])


def variance(phi: State, a: AlgebraElement) -> float:
    """phi(da' da) with da the fluctuation of a; real and >= -1e-12; ValueError if not finite."""
    return _variance(phi, _centred(phi, a.m[None])[0])


def _variance(phi: State, da: np.ndarray) -> float:
    """phi(da' da) of a raw fluctuation da (``_centred``); ValueError if not finite."""
    with np.errstate(all="ignore"):  # an overflow shows in the check
        return _finite_value(phi.eval_matrix(da.conj().T @ da).real, "variance")


def fluctuation_bound(phi: State, cfg: DotConfig, a: AlgebraElement, bs) -> BoundReport:
    """Variance of a against its fluctuation projection onto {b_i}.

    lhs is the variance of a; rhs is the squared norm of the projection of
    the fluctuation da onto the real span of the fluctuations db_i, in the
    configured dot product: N . W from ``_project_on`` on the centred stack
    [da] + [db_i].  With the default symmetric configuration the margin is
    nonnegative for every state (up to rounding).
    """
    stack = _centred(phi, _stack([a] + list(bs)))
    n, w = _project_on(phi, cfg, stack, 1, SingularGramWarning(
        "rank-deficient Gram matrix; using pseudo-inverse"))
    return _report(_variance(phi, stack[0]), float(n[:, 0] @ w[:, 0]))


def pair_product_bound(phi: State, a: AlgebraElement, b: AlgebraElement) -> BoundReport:
    """Raw second-moment bound phi(a^2) phi(b^2) >= |phi([a, b])|^2 / 4.

    Both elements must be hermitian.  ``extra["commutator_abs"]`` reports the
    observed magnitude |phi([a, b])|.
    """
    for name, el in (("a", a), ("b", b)):
        _require_hermitian(el.m, f"pair product bound argument {name}")
    a._check_dim(b)
    with np.errstate(all="ignore"):  # an overflow shows in _report's check
        lhs = phi.eval_matrix(a.m @ a.m).real * phi.eval_matrix(b.m @ b.m).real
        comm = abs(phi.eval_matrix(a.m @ b.m - b.m @ a.m))
        # a NumPy square, which rounds as a Python one but overflows to inf
        return _report(lhs, np.float64(comm) ** 2 / 4.0, {"commutator_abs": comm})


def _hermitian_or_anti(el: AlgebraElement, name: str) -> float:
    """s = 1 for a hermitian el and -1 for an antihermitian one, so el' = s el."""
    adj = el.m.conj().T
    for s in (1.0, -1.0):
        if not _asymmetric(el.m, s * adj):
            return s
    raise HermiticityError(f"{name} must be hermitian or antihermitian")


def energy_bound(consts: PhysConstants, phi: State, h: AlgebraElement, bs,
                 explicit_dts=None) -> tuple[BoundReport, BoundReport]:
    """Hamiltonian second-moment bounds from reference velocities.

    For reference elements B_i with total time derivatives dB_i (Heisenberg
    commutator plus optional explicit part), the raw report is

        phi(h^2)  >=  (hbar^2/4) <dB>_i (M^-1)_ij <dB>_j,
        M_ij = phi(B_i B_j + B_j B_i) / 2,

    and the fluctuation report replaces the left side by the variance of h
    and M by the same anticommutator form of the centered B_i.  Each B_i
    must be hermitian or antihermitian; the quadratic form is invariant
    under rephasing B_i -> i B_i, so mixed families are accepted.  The Gram
    forms here are fixed by the inequality and do not take a DotConfig.

    With B_i' = s_i B_i (s_i = +-1), both forms come from the kernel on the
    stack, and the velocities from one cross Gram against h, no commutator.
    """
    bs = list(bs)
    if not bs:
        raise DimensionError("reference set is empty")
    _require_hermitian(h.m, "energy bound hamiltonian")
    dts = [None] * len(bs) if explicit_dts is None else list(explicit_dts)
    if len(dts) != len(bs):
        raise DimensionError("explicit_dts length must match the reference set")
    sign, vel = np.empty(len(bs)), np.zeros(len(bs), dtype=complex)
    for k, (b, dt) in enumerate(zip(bs, dts)):
        sign[k] = _hermitian_or_anti(b, f"reference element {k}")
        h._check_dim(b)
        if dt is not None:
            b._check_dim(dt)
            vel[k] = state_eval(phi, dt)
    stack = _stack(bs)
    # one warning per call: the centred form warns only if the raw one did not
    warning = SingularGramWarning("rank-deficient anticommutator Gram matrix; using pseudo-inverse")

    def quad_form(st, on_singular):
        # M = (P + P^T) / 2 with P[i, j] = phi(B_i B_j) = s_i phi(B_i' B_j)
        pm = sign[:, None] * phi.gram(st)
        inv, _, _, full = _solve_gram(0.5 * (pm + pm.T), on_singular)
        return ((consts.hbar**2 / 4.0) * (vel @ inv @ vel)).real, full

    with np.errstate(all="ignore"):  # an overflow shows in the checks below and in _report's
        # phi(h B_i) = conj(phi(B_i' h)) and phi(B_i h) = s_i phi(B_i' h)
        cross = phi.gram(stack, h.m[None])[:, 0]
        vel += (1j / consts.hbar) * (cross.conj() - sign * cross)
        h2 = _finite_value(phi.eval_matrix(h.m @ h.m).real, "energy bound hamiltonian: phi(h^2)")
        rhs, full = quad_form(stack, warning)
        raw = _report(h2, rhs)
        rhs, _ = quad_form(_centred(phi, stack), warning if full else None)
    return raw, _report(variance(phi, h), rhs)
