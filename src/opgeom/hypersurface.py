"""Finite-difference differential geometry of chart maps into a matrix algebra.

A chart is a map u in R^p -> b(u) into the algebra (built-ins diagonally
embed R^3 coordinate functions).  Together with a state and a dot-product
configuration it induces a metric, a connection, curvature and its Bianchi
residual, geodesics, and orthonormal frames, all evaluated with central
finite differences.

Index conventions of the component arrays:

    metric      g[i, j]            = b_i . b_j
    connection  gamma[a, r, s]     = G^a_{rs}, symmetric in (r, s)
    curvature   riemann[a, b, m, n]
        = d_m gamma[a, n, b] - d_n gamma[a, m, b]
          + gamma[a, m, r] gamma[r, n, b] - gamma[a, n, r] gamma[r, m, b]
        = g^aq (<P b_qm, P b_bn> - <P b_qn, P b_bm>), the form evaluated
          (Gauss equation, ``_gauss_riemann``): b_qm = d_q d_m b, and P the
          projection normal to the tangents
    frame       frame_conn[a, b, c] = bhat_a . d_c bhat_b, antisymmetric in (a, b)

Finite-difference steps are a chart's fields, with their defaults in
``Chart``: ``fd_step`` for first derivatives of the chart map, ``fd_step2``
for second derivatives and for first derivatives of derived fields.
``curvature`` differences no connection: the Gauss equation takes Riemann
from the second partials at the point itself.
Linear charts carry no truncation error, so coarser steps there only reduce
rounding noise.  Both steps and their squares, by which second differences
divide, must be positive and finite.  A chart with no ``fd_step2`` (None,
as ``custom_grid`` builds it) refuses every call that needs a second
derivative with ``DomainError``.  A chart constructor builds only the
chart's shape; ``dataclasses.replace`` sets its ``state_kind``, ``fd_step``
and ``fd_step2``, and ``chart_from_json`` reads all three with the chart.

Every public function taking a point u checks it first: a shape other than
(p,) raises ``DimensionError`` and a non-finite entry ``EvaluationError``.
Chart geometry needs Re(lam) > 0: below it the metric of commuting chart
values is negative definite, at it zero.  Every public chart-geometry
function raises ``DomainError`` for a ``DotConfig`` with Re(lam) <= 0.

All chart values come from one stencil evaluator, ``_fields``.  Given a
stack of centres it builds every stencil point first: the central tangent
points x +- fd_step e_c, the second-partial points x, x +- fd_step2 e_i and
(x +- fd_step2 e_i) +- fd_step2 e_j.  It evaluates them in one pass, then
differences whole stencil layers as stacks with the per-point formulas in
their operand order, so every entry keeps the bits of a point-by-point
evaluation.  A geodesic RK4 stage (``_geodesic_slope``) evaluates one
centre's tangent points and x +- q d, x +- 2q d along the unit velocity d
(q = fd_step2), and differences them with ``_central``, the tangent
formula ``_fields`` uses, and ``_along``, per entry on Python floats for real
chart values; the trajectory is kept in arrays that grow by doubling
(``GeodesicResult``).

Chart maps and domain tests follow one rule: each is a ``stacked``, called
once per (k, p) stack of points, repeats included, and nothing is cached;
the domain test and the map of a stencil stack run inside one
``np.errstate`` with NumPy's floating-point warnings off, so an overflow in
either shows only as its answer; it also covers the differences and dot
products, so an overflowing metric is the guarded solve's ``ValueError``.
A geodesic enters one such ``np.errstate`` for its whole run: every stage
and every per-step domain test runs inside it, and each stage checks its
state for finiteness.
Built-in charts are defined over a stack
(``custom_grid`` included), and ``Chart`` lifts any other callable into one
that calls it per stencil row, in row order.  A domain test answers one
truth value per point, a (k,) array of bool or int; any other answer raises
``DimensionError``.  A chart defined everywhere (``in_domain`` None:
``torus``, ``paraboloid``, ``flat_plane``) runs no domain test.  Because
all points are evaluated before any difference, a domain error may name a
different stencil point than a point-by-point evaluation would meet first.
``covariant_derivative`` lifts its vector field the same way.

A stencil point outside the chart domain raises ``StencilOutOfDomainError``,
a subclass of ``EvaluationError``, from every function that evaluates the
chart, and a non-finite chart value (an overflow, say) raises
``EvaluationError``; the CLI reports both as E_INPUT.  A non-finite centre
or vector-field value raises ``EvaluationError``.

``geometry_at`` gives the metric, Christoffel, Riemann and Bianchi fields of
a stack of points in blocks sized by bytes (``_block_points``): at most
``_BLOCK_BYTES`` of stencil rows, each counted as its point and its value.
A block holds 1008 points of a built-in two-parameter chart, so a 20-point
report is one block; a chart takes 252 points per block at two parameters and
3 x 3 values, and 46 at three parameters and dim 4.  ``curvature`` and
``riemann_gauss_curvature`` run its curvature code on one point, and
``bianchi_residual`` is its Bianchi residual at one point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    AlgebraElement,
    DotConfig,
    PhysConstants,
    State,
    _asymmetric,
    _central,
    _count,
    _det,
    _dot_matrix,
    _first_false,
    _heisenberg,
    _lifted,
    _solve_gram,
    _stack,
    _step_count,
    embed_diag,
    stacked,
)
from .errors import (
    DimensionError,
    DomainError,
    EvaluationError,
    JacobiViolationError,
    NonSymmetricMetricError,
    SingularGramError,
    SingularGramWarning,
    SingularMetricError,
    StencilOutOfDomainError,
)
from .projection import _orthonormalize, _project_on

__all__ = [
    "Chart",
    "MetricField",
    "ConnectionField",
    "CurvatureField",
    "GeodesicState",
    "GeodesicResult",
    "flat_plane",
    "sphere",
    "torus",
    "paraboloid",
    "custom_grid",
    "chart_to_json",
    "chart_from_json",
    "tangent_basis",
    "metric",
    "projector_apply",
    "christoffel",
    "metric_compat_residual",
    "curvature",
    "riemann_gauss_curvature",
    "covariant_derivative",
    "geodesic",
    "orthonormal_frame",
    "gauss_curvature_2d",
    "gibbs_force",
    "killing_metric",
    "leibniz_violation_witness",
    "bianchi_residual",
    "Geometry",
    "geometry_at",
]

@dataclass(frozen=True)
class Chart:
    """Parametrized map from a p-dimensional parameter box into the algebra.

    ``map_mat`` returns the raw complex matrix b(u).  Charts embedding a
    real vector diagonally also provide ``map_vec`` (the diagonal), which
    the geometry routines use as a fast path.  ``in_domain`` tells whether
    a point lies in the chart; None means the chart is defined everywhere.
    The geometry routines call a map or ``in_domain`` wrapped in
    :class:`opgeom.stacked` once per stack of points; the chart wraps any
    other callable in a ``stacked`` that calls it once per point.
    ``state_kind`` names the dimension-free default state ("sum" or
    "trace") used by the CLI, and ``fd_step`` and ``fd_step2`` are the
    finite-difference steps; ``dataclasses.replace`` sets all three on a
    built-in chart, and ``chart_from_json`` reads them from JSON.  A chart
    with ``fd_step2`` None has no second derivatives: every call that needs
    one raises ``DomainError``.
    """

    id: str
    p: int
    dim: int
    map_mat: Callable
    map_vec: Callable | None
    in_domain: Callable | None
    sample_box: tuple
    state_kind: str = "sum"
    fd_step: float = 1e-4
    fd_step2: float | None = 1e-3
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "map_mat", _lifted(self.map_mat))
        object.__setattr__(self, "map_vec", _lifted(self.map_vec))
        object.__setattr__(self, "in_domain", _lifted(self.in_domain) or _EVERYWHERE)
        if self.state_kind not in ("sum", "trace"):
            raise ValueError(f"chart state must be 'sum' or 'trace', got {self.state_kind!r}")
        for name in ("fd_step", "fd_step2"):
            step = getattr(self, name)
            if step is None and name == "fd_step2":
                continue
            if not (step > 0 and 0 < step * step < math.inf):
                raise ValueError(f"{name} must be positive and finite, its square too, got {step}")

    def default_state(self) -> State:
        if self.state_kind == "trace":
            return State.normalized_trace()
        return State.unnormalized_sum()


@dataclass(frozen=True)
class MetricField:
    """Induced metric, its inverse and its determinant at one parameter point."""

    g: np.ndarray
    g_inv: np.ndarray
    det: float


@dataclass(frozen=True)
class ConnectionField:
    """Christoffel components gamma[a, r, s] at one parameter point."""

    gamma: np.ndarray


@dataclass(frozen=True)
class CurvatureField:
    """Riemann components riemann[a, b, m, n] at one parameter point, and
    the metric there, built from the same stencil (see ``curvature``)."""

    riemann: np.ndarray
    metric: MetricField

    def gauss_curvature(self) -> float:
        """K = g_{1r} R^r_{212} / det g, g the metric there; DimensionError unless p = 2."""
        return float(_gauss(self.metric.g, self.riemann, self.metric.det))


@dataclass(frozen=True)
class GeodesicState:
    tau: float
    u: np.ndarray
    udot: np.ndarray


class GeodesicResult:
    """A trajectory in read-only arrays ``tau`` (n,), ``u`` and ``udot``
    (n, p) that reads as a list of :class:`GeodesicState` views (slices give
    a list); ``left_at`` is the tau of the last state if ``left_domain``.

    Health numbers over the completed steps (None if none): ``speed_drift``,
    max |g(v, v) - g0| / g0 with g from each step's first stage, and
    ``metric_cond_max``, the largest condition number its stages solved.
    """

    __slots__ = ("tau", "u", "udot", "left_domain", "speed_drift", "metric_cond_max")

    def __init__(self, tau, u, udot, left_domain: bool = False,
                 speed_drift: float | None = None, metric_cond_max: float | None = None):
        for arr in (tau, u, udot):
            arr.flags.writeable = False
        self.tau, self.u, self.udot = tau, u, udot
        self.left_domain = bool(left_domain)
        self.speed_drift = speed_drift
        self.metric_cond_max = metric_cond_max

    @property
    def left_at(self) -> float | None:
        return float(self.tau[-1]) if self.left_domain else None

    def __len__(self) -> int:
        return len(self.tau)

    def __getitem__(self, i):  # iteration runs through it, up to its IndexError
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return GeodesicState(tau=float(self.tau[i]), u=self.u[i], udot=self.udot[i])


# ---------------------------------------------------------------------------
# built-in charts

def _columns(*cols) -> np.ndarray:
    """The array whose columns are cols (length-k arrays or scalars), written
    into one preallocated (k, n) array, which is faster than np.stack."""
    out = np.empty((len(cols[0]), len(cols)))
    for i, col in enumerate(cols):
        out[:, i] = col
    return out


# the domain test of a chart defined everywhere (in_domain None), never run
_EVERYWHERE = stacked(lambda xs: np.ones(len(xs), dtype=bool))


def _diag_chart(id, p, dim, values, inside, box, params):
    """A chart whose stacked map values (k, p) -> (k, dim) is embedded
    diagonally, with the (k,) domain mask inside (None: defined everywhere)."""

    def matrices(xs):
        v = values(xs)
        out = np.zeros(v.shape + (dim,), dtype=complex)
        out[:, range(dim), range(dim)] = v
        return out

    return Chart(
        id=id, p=p, dim=dim, map_mat=stacked(matrices), map_vec=stacked(values),
        in_domain=None if inside is None else stacked(inside), sample_box=box,
        params=dict(params),
    )


def flat_plane() -> Chart:
    """Plane (u1, u2, 0) in R^3; identity metric under the sum state."""

    def values(xs):
        return _columns(xs[:, 0], xs[:, 1], 0.0)

    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    return _diag_chart("flat_plane", 2, 3, values, None, box, {})


def sphere(r: float = 1.0) -> Chart:
    """Round sphere of radius r in polar angles (theta, phi), poles excluded."""
    if not (math.isfinite(r) and r > 0):
        raise ValueError("sphere radius must be positive and finite")

    def values(xs):
        sin, cos = np.sin(xs), np.cos(xs)
        rst = r * sin[:, 0]
        return _columns(rst * cos[:, 1], rst * sin[:, 1], r * cos[:, 0])

    def inside(xs):
        return (0.0 < xs[:, 0]) & (xs[:, 0] < math.pi)

    box = (np.array([0.3, 0.0]), np.array([math.pi - 0.3, 2.0 * math.pi]))
    return _diag_chart("sphere", 2, 3, values, inside, box, {"r": r})


def torus(big_r: float = 2.0, r: float = 0.5) -> Chart:
    """Torus with center-circle radius big_r and tube radius r, angles (theta, phi)."""
    if not (math.isfinite(big_r) and big_r > r > 0):
        raise ValueError("torus radii must be finite with big_r > r > 0")

    def values(xs):
        sin, cos = np.sin(xs), np.cos(xs)
        w = big_r + r * cos[:, 0]
        return _columns(w * cos[:, 1], w * sin[:, 1], r * sin[:, 0])

    box = (np.array([0.0, 0.0]), np.array([2.0 * math.pi, 2.0 * math.pi]))
    return _diag_chart("torus", 2, 3, values, None, box, {"R": big_r, "r": r})


def paraboloid(a: float = 1.0) -> Chart:
    """Paraboloid (u1, u2, a(u1^2 + u2^2)); apex curvature 4 a^2."""
    if not math.isfinite(a):
        raise ValueError("paraboloid coefficient must be finite")

    def values(xs):
        # float_power squares through pow(), as x ** 2 does on a float; x * x can differ
        sq = np.float_power(xs, 2.0)
        return _columns(xs[:, 0], xs[:, 1], a * (sq[:, 0] + sq[:, 1]))

    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    return _diag_chart("paraboloid", 2, 3, values, None, box, {"a": a})


def custom_grid(axes, values) -> Chart:
    """Chart from pre-sampled matrix values on a regular grid.

    ``axes`` is a list of p strictly increasing 1d arrays and ``values`` an
    array of shape grid_shape + (dim, dim).  Points are evaluated by
    multilinear interpolation of the samples.  Only first derivatives are
    meaningful on the piecewise linear interpolant, so ``fd_step`` is a
    quarter of the finest grid spacing and ``fd_step2`` is None:
    ``tangent_basis``, ``metric``, ``projector_apply`` and
    ``leibniz_violation_witness`` work on a grid chart, and every call that
    takes a second derivative raises ``DomainError`` (``christoffel``,
    ``metric_compat_residual``, ``covariant_derivative``, ``curvature``,
    ``riemann_gauss_curvature``, ``bianchi_residual``, ``geometry_at``,
    ``geodesic``, ``orthonormal_frame``, ``gauss_curvature_2d``), unless
    ``dataclasses.replace`` gives the chart a second step.
    """
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    p = len(axes)
    if p == 0:
        raise DimensionError("custom_grid needs at least one axis")
    for ax in axes:
        with np.errstate(all="ignore"):  # an overflowing gap is inf, which fails the test
            gaps = np.diff(ax) if ax.ndim == 1 else ax
        if ax.ndim != 1 or ax.size < 2 or not ((0 < gaps) & (gaps < math.inf)).all():
            raise ValueError("each axis needs >= 2 nodes, strictly increasing in finite gaps")
    vals = np.asarray(values, dtype=complex)
    shape = tuple(ax.size for ax in axes)
    if vals.shape[:p] != shape or vals.ndim != p + 2 or vals.shape[p] != vals.shape[p + 1]:
        raise DimensionError(f"values must have shape {shape} + (dim, dim), got {vals.shape}")
    dim = vals.shape[p]
    spacing = min(float(np.diff(ax).min()) for ax in axes)

    def map_mat(xs):
        # each point's cell and weights, then the corners in the same order and
        # with the same products as one point alone, zero weights skipped
        idx, wts = [], []
        for k, ax in enumerate(axes):
            i = np.clip(np.searchsorted(ax, xs[:, k], side="right") - 1, 0, ax.size - 2)
            idx.append(i)
            wts.append((xs[:, k] - ax[i]) / (ax[i + 1] - ax[i]))
        out = np.zeros((len(xs), dim, dim), dtype=complex)
        for corner in range(1 << p):
            w = np.ones(len(xs))
            pos = []
            for k in range(p):
                if corner >> k & 1:
                    w = w * wts[k]
                    pos.append(idx[k] + 1)
                else:
                    w = w * (1.0 - wts[k])
                    pos.append(idx[k])
            live = w != 0.0
            out[live] += w[live, None, None] * vals[tuple(i[live] for i in pos)]
        return out

    box = (np.array([ax[0] for ax in axes]), np.array([ax[-1] for ax in axes]))

    def in_domain(xs):
        return ((box[0] <= xs) & (xs <= box[1])).all(axis=1)

    return Chart(
        id="custom_grid", p=p, dim=dim, map_mat=stacked(map_mat), map_vec=None,
        in_domain=stacked(in_domain), sample_box=box, fd_step=spacing / 4.0, fd_step2=None,
        params={"axes": [ax.tolist() for ax in axes],
                "values_re": vals.real.reshape(-1).tolist(),
                "values_im": vals.imag.reshape(-1).tolist(),
                "dim": dim},
    )


# each chart id's constructor and JSON parameter names, with the keyword each
# fills (custom_grid decodes its own); the shape defaults live in the constructors
_CHART_IDS = {
    "flat_plane": (flat_plane, {}),
    "sphere": (sphere, {"r": "r"}),
    "torus": (torus, {"R": "big_r", "r": "r"}),
    "paraboloid": (paraboloid, {"a": "a"}),
    "custom_grid": (custom_grid, dict.fromkeys(("axes", "dim", "values_re", "values_im"))),
}


def chart_to_json(chart: Chart) -> dict:
    return {"id": chart.id, "params": chart.params, "state": chart.state_kind,
            "fd_step": chart.fd_step, "fd_step2": chart.fd_step2}


def chart_from_json(obj: dict) -> Chart:
    """The registered chart of a JSON object: its ``id``, the constructor's
    ``params`` by their JSON names, the ``state`` kind ("sum" when absent)
    and the steps ``fd_step`` and ``fd_step2`` (the constructor's when absent
    or null, so a grid chart's null ``fd_step2`` stays None).  An unknown id,
    field or parameter name, or a missing or malformed field, raises
    ``ValueError``."""
    try:
        chart_id = obj["id"]
    except (KeyError, TypeError) as exc:
        raise ValueError("chart object must carry an 'id' field") from exc
    unknown = [name for name in obj if name not in ("id", "params", "state", "fd_step", "fd_step2")]
    if unknown:
        raise ValueError(f"unknown chart field(s) {unknown}")
    if not (isinstance(chart_id, str) and chart_id in _CHART_IDS):
        raise ValueError(f"unknown chart id {chart_id!r}")
    build, names = _CHART_IDS[chart_id]
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise ValueError(f"chart 'params' must be an object, got {params!r}")
    unknown = [name for name in params if name not in names]
    if unknown:
        raise ValueError(f"chart {chart_id!r} takes parameters {list(names)}, not {unknown}")
    try:
        if chart_id == "custom_grid":
            axes = params["axes"]
            dim = _count(params["dim"], "dim")
            shape = tuple(len(ax) for ax in axes) + (dim, dim)
            re = np.asarray(params["values_re"], dtype=float).reshape(shape)
            im = np.asarray(params.get("values_im", np.zeros(re.size)), dtype=float).reshape(shape)
            chart = custom_grid(axes, re + 1j * im)
        else:
            chart = build(**{key: float(params[name]) for name, key in names.items() if name in params})
        steps = {name: float(obj[name]) for name in ("fd_step", "fd_step2") if obj.get(name) is not None}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {chart_id} chart object: {exc}") from exc
    return replace(chart, state_kind=obj.get("state", "sum"), **steps)


# ---------------------------------------------------------------------------
# evaluation core

class _Geo:
    """Chart evaluator bound to a state and dot configuration.

    Diagonal charts paired with any state reduce the dot product to a
    weighted pointwise sum, which all builtin charts use; matrix-valued
    charts fall back to the state's Gram kernel.  Stacks of chart values
    are arrays of shape (..., k, dim) or (..., k, dim, dim).

    ``map`` is the chart's ``map_vec`` if it has one, else its ``map_mat``.
    It and ``in_domain`` are ``stacked`` (see :class:`Chart`), each called
    once on a whole stack: ``outside`` calls the domain test's ``fn``, for
    ``vals`` and for a geodesic's states, and ``vals`` the map's, each inside
    its caller's one ``np.errstate``.
    """

    __slots__ = ("chart", "phi", "cfg", "weights", "map")

    def __init__(self, chart: Chart, phi: State, cfg: DotConfig):
        self.chart = chart
        self.phi = phi
        self.cfg = cfg
        self.weights = None
        self.map = chart.map_mat
        if chart.map_vec is not None:
            self.map = chart.map_vec
            w = phi.diagonal_weights(chart.dim)
            # real diagonals commute: the lam-dot collapses to 2 Re(lam) phi(xy)
            self.weights = w * (2.0 * cfg.lam.real)

    @property
    def p(self) -> int:
        return self.chart.p

    def vals(self, pts) -> np.ndarray:
        """Stacked chart values at the rows of pts.

        Every point evaluated here is a stencil point: the first row outside
        the chart domain raises ``StencilOutOfDomainError``, checked before
        any evaluation (``outside``), and the first row with a non-finite
        value ``EvaluationError``, checked once over the whole result.  The
        map runs through its ``fn``, inside the caller's one ``np.errstate``.
        """
        bad = self.outside(pts)
        if bad is not None:
            raise StencilOutOfDomainError(f"point {bad.tolist()} outside domain of chart '{self.chart.id}'")
        out = self.map.fn(pts)
        bad = _nonfinite_row(out, pts)
        if bad is not None:
            raise EvaluationError(f"chart '{self.chart.id}' has a non-finite value at point {bad.tolist()}")
        return out

    def outside(self, pts):
        """The first row of pts outside the chart domain, or None; a chart
        defined everywhere runs no test, any other one call of its ``fn``,
        inside the caller's ``np.errstate``."""
        inside = self.chart.in_domain
        if inside is _EVERYWHERE:
            return None
        return _first_false(inside.fn(pts), pts, "in_domain")

    def gram(self, xs, ys=None) -> np.ndarray:
        """Real dot matrices D[..., i, j] = x_i . y_j of two stacks (ys defaults to xs)."""
        if self.weights is None:
            return _dot_matrix(self.phi, self.cfg, xs, ys)
        ys = xs if ys is None else ys
        # w . (x_i * y_j) per pair rounds exactly like one scalar weighted dot
        return (xs[..., :, None, :] * ys[..., None, :, :]).dot(self.weights)

    def wrap(self, x) -> AlgebraElement:
        return embed_diag(x) if self.weights is not None else AlgebraElement(x)


def _nonfinite_row(vals: np.ndarray, pts: np.ndarray):
    """The first row of pts whose value in vals, their stacked values, is not
    finite, or None."""
    finite = np.isfinite(vals)
    if np.count_nonzero(finite) != finite.size:  # half the cost of .all() on short stacks
        return pts[~finite.reshape(len(vals), -1).all(axis=1)][0]
    return None


def _geo(chart: Chart, phi: State, cfg: DotConfig) -> _Geo:
    """The evaluator of a public geometry call; DomainError unless Re(lam) > 0."""
    if not cfg.lam.real > 0:
        raise DomainError(f"chart geometry needs Re(lam) > 0, got lam={cfg.lam}")
    return _Geo(chart, phi, cfg)


def _point(chart: Chart, u) -> np.ndarray:
    """The point u of a public call as a float array of shape (p,)."""
    x = np.asarray(u, dtype=float)
    if x.shape != (chart.p,):
        raise DimensionError(f"point must have shape ({chart.p},) on chart '{chart.id}', "
                             f"got {x.shape}")
    if not np.isfinite(x).all():
        raise EvaluationError(f"point {x.tolist()} is not finite")
    return x


def _step2(chart: Chart) -> float:
    """The chart's second step ``fd_step2``; ``DomainError`` if it has none."""
    if chart.fd_step2 is None:
        raise DomainError(f"chart '{chart.id}' has no fd_step2: it supports first derivatives only")
    return chart.fd_step2


class _Fields(NamedTuple):
    """Chart geometry stacked over K centres (see :func:`_fields`)."""

    t: np.ndarray            # (K, p, *v) tangents b_c
    g: np.ndarray            # (K, p, p) metric
    sec: np.ndarray | None   # (K, P, *v) second partials d_n d_b b of the pairs n <= b, row order
    n: np.ndarray | None     # (K, p, p, p) second field N[r, n, b] = b_r . d_n d_b b


def _fields(geo: _Geo, xs: np.ndarray, second: bool = False,
            h2: float | None = None) -> _Fields:
    """Tangents and metric at the float centres xs (K, p) from one evaluation pass.

    Every stencil point is built first and evaluated through ``geo.vals``,
    then each stencil is differenced as a stack with the per-point formula:
    tangents (``_central``) at h = fd_step; with ``second``, the partials
    d_i d_i b = (b(x + h2 e_i) - 2 b(x) + b(x - h2 e_i)) / h2^2 and
    d_i d_j b = (b(x + h2 e_i + h2 e_j) - b(x + h2 e_i - h2 e_j) -
    b(x - h2 e_i + h2 e_j) + b(x - h2 e_i - h2 e_j)) / 4 h2^2 at h2
    (default fd_step2), and the field N.  Points and differences are formed
    in the same order as for a single point, with the centres on the last
    axis so that each sum runs along them (the map takes its rows in centre
    order), so every entry has the bits of the per-point formula.  All of it
    runs in one ``np.errstate``: an overflow shows as a non-finite value.
    """
    bad = _nonfinite_row(xs, xs)
    if bad is not None:
        raise EvaluationError(f"point {bad.tolist()} is not finite")
    k, p = xs.shape
    h = geo.chart.fd_step
    if second and h2 is None:
        h2 = _step2(geo.chart)
    st = _stencil(p, h, h2 if second else h, second, False)
    s1 = len(st.offsets)
    pts = np.empty((s1 + second * len(st.base), p, k))
    np.add(xs.T, st.offsets[:, :, None], out=pts[:s1])
    if second:
        np.add(pts[st.base], st.offsets2[:, :, None], out=pts[s1:])
    with np.errstate(all="ignore"):
        v = geo.vals(pts.transpose(2, 0, 1).reshape(-1, p))
        v = np.ascontiguousarray(v.reshape(k, -1, *v.shape[1:]).transpose(*range(1, v.ndim + 1), 0))
        first = (v.ndim - 1, *range(v.ndim - 1))  # the centres first again, for the dots
        t = np.ascontiguousarray(_central(v[:p], v[p:2 * p], h).transpose(first))
        g = geo.gram(t)
        sec = n = None
        if second:
            iu, ju, pair, on, off = _pair_index(p)
            v0, vp, vm = v[2 * p:2 * p + 1], v[2 * p + 1:3 * p + 1], v[3 * p + 1:4 * p + 1]
            at, m = 4 * p + 1, len(iu)
            vpp, vpm, vmp, vmm = (v[at + i * m:at + (i + 1) * m] for i in range(4))
            sec = np.empty((p + m,) + vp.shape[1:], dtype=vp.dtype)
            sec[on] = (vp - 2.0 * v0 + vm) / (h2 * h2)
            sec[off] = (vpp - vpm - vmp + vmm) / (4.0 * h2 * h2)
            sec = np.ascontiguousarray(sec.transpose(first))
            # one dot per unordered pair keeps N exactly symmetric in (n, b)
            n = np.ascontiguousarray(geo.gram(t, sec)[:, :, pair])
    return _Fields(t, g, sec, n)


def _along(a2, a1, f0, m1, m2, q: float) -> np.ndarray:
    """Fourth-order second difference along a unit direction d,
    (-f(x + 2q d) + 16 f(x + q d) - 30 f(x) + 16 f(x - q d) - f(x - 2q d)) / 12 q^2,
    of the values a2, a1, f0, m1, m2 at those points."""
    return (-a2 + 16.0 * a1 - 30.0 * f0 + 16.0 * m1 - m2) / (12.0 * q * q)


class _Stencil(NamedTuple):
    offsets: np.ndarray     # (S1, p) first-level points are centre + offsets
    base: np.ndarray        # rows of the first level that take a second step
    offsets2: np.ndarray    # (S2, p) second-level points are first[base] + offsets2
    dir_steps: np.ndarray   # (4, 1) steps 2 h2, h2, -h2, -2 h2 along a direction


@functools.lru_cache(maxsize=256)
def _stencil(p: int, h: float, h2: float, second: bool, along: bool) -> _Stencil:
    """Point offsets of the stencils around one centre, in evaluation order.

    First level: x + h e_c, x - h e_c (c < p), then with ``second`` or
    ``along`` the centre x, then with ``second`` x + h2 e_i, x - h2 e_i, then
    with ``along`` four rows of -0.0, to which a geodesic stage adds the
    ``dir_steps`` times its unit direction d: x + 2 h2 d, x + h2 d,
    x - h2 d, x - 2 h2 d.  Second level, for each pair i < j:
    (x + h2 e_i) + h2 e_j, (x + h2 e_i) - h2 e_j, (x - h2 e_i) + h2 e_j,
    (x - h2 e_i) - h2 e_j.
    IEEE 754 defines x - y as x + (-y), and x + (-0.0) is x, so adding these
    offset rows gives each point the bits of the per-point expression.
    """
    e, e2 = np.diag(np.full(p, float(h))), np.diag(np.full(p, float(h2)))
    rows = [e, -e]
    if second or along:
        rows.append(np.full((1, p), -0.0))
    iu, ju = _pair_index(p)[:2]
    up = 2 * p + 1 + iu  # first-level rows x + h2 e_i of each pair
    base = np.concatenate([up, up, up + p, up + p])
    offsets2 = np.concatenate([e2[ju], -e2[ju], e2[ju], -e2[ju]])
    if second:
        rows += [e2, -e2]
    if along:
        rows.append(np.full((4, p), -0.0))
    q = float(h2)
    dir_steps = np.array([[2.0 * q], [q], [-q], [-(2.0 * q)]])
    out = _Stencil(np.concatenate(rows), base, offsets2, dir_steps)
    for arr in out:
        arr.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _pair_index(p: int):
    """(iu, ju) of the pairs i < j, the (p, p) table of each (n, b)'s position
    among the pairs n <= b in row order, and the positions of (i, i) and (iu, ju)."""
    iu, ju = np.triu_indices(p, 1)
    ni, bi = np.triu_indices(p)
    pair = np.empty((p, p), dtype=int)
    pair[ni, bi] = pair[bi, ni] = np.arange(len(ni))
    out = iu, ju, pair, np.diagonal(pair).copy(), pair[iu, ju]
    for arr in out:
        arr.flags.writeable = False
    return out


def _star(u, h: float) -> np.ndarray:
    """Centres u, u + h e_c, u - h e_c (c < p) of the points u (..., p),
    stacked on a new first axis as (1 + 2p, ..., p).  As in ``_stencil``,
    the offsets are rows -0.0, h e_c and -h e_c: x + (-0.0) is x and
    x + (-y) is x - y, so each centre has the bits of its expression."""
    off = _star_offsets(u.shape[-1], float(h))
    return u + off.reshape(off.shape[:1] + (1,) * (u.ndim - 1) + off.shape[1:])


@functools.lru_cache(maxsize=16)
def _star_offsets(p: int, h: float) -> np.ndarray:
    """The (1 + 2p, p) offset rows of ``_star``, read-only."""
    e = np.diag(np.full(p, h))
    off = np.concatenate([np.full((1, p), -0.0), e, -e])
    off.flags.writeable = False
    return off


def _diff(fs, h: float) -> np.ndarray:
    """Central differences (f(u + h e_c) - f(u - h e_c)) / 2h, stacked over c,
    of a field stacked on its first axis over the centres of ``_star(u, h)``."""
    p = (len(fs) - 1) // 2
    return _central(fs[1:1 + p], fs[1 + p:], h)


def _metric_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric metric or stack of metrics."""
    _require_symmetric_metric(g)
    return _solve_metric(g)[0]


def _solve_metric(g: np.ndarray):
    """(g_inv, det, cond, full) of a metric or stack of metrics; raises
    SingularMetricError if any is singular."""
    return _solve_gram(g, SingularMetricError("induced metric is numerically singular"))


def _gamma(ginv: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Direct Christoffel components gamma[..., a, n, b] = ginv[..., a, :] @ N[..., :, n, b]."""
    # batched over (n, b) so that each column rounds as a lone matrix-vector product
    lead = range(n.ndim - 3)
    cols = ginv[..., None, None, :, :] @ n.transpose(*lead, -2, -1, -3)[..., None]
    return cols[..., 0].transpose(*lead, -1, -3, -2)


def _require_symmetric_metric(g: np.ndarray, geo: _Geo | None = None):
    """NonSymmetricMetricError for a finite asymmetric metric, or stack of them;
    a non-finite one (an overflow) is left to the guarded solve.  A bit-symmetric
    stack takes ``_asymmetric``'s equality test and no finiteness pass, and one
    of ``geo``'s diagonal route, which builds g symmetric bit for bit, no test."""
    if (geo is None or geo.weights is None) and np.any(
            _asymmetric(g, g.swapaxes(-1, -2), axes=(-2, -1))) and np.isfinite(g).all():
        raise NonSymmetricMetricError(
            "connection formulas require a symmetric metric; use a real lam dot product")


# ---------------------------------------------------------------------------
# geometry operations

def tangent_basis(chart: Chart, phi: State, cfg: DotConfig, u) -> list:
    """Coordinate tangent basis by central differences of the chart map.

    Warns with SingularGramWarning when the tangent Gram matrix is rank
    deficient at u.
    """
    geo = _geo(chart, phi, cfg)
    f = _fields(geo, _point(chart, u)[None])
    _solve_gram(f.g[0], SingularGramWarning("tangent Gram matrix is rank deficient"))
    return [geo.wrap(t) for t in f.t[0]]


def metric(chart: Chart, phi: State, cfg: DotConfig, u) -> MetricField:
    """Induced metric g[i, j] = b_i . b_j with its inverse and determinant."""
    g = _fields(_geo(chart, phi, cfg), _point(chart, u)[None]).g[0]
    g_inv, det = _solve_metric(g)[:2]
    return MetricField(g=g, g_inv=g_inv, det=float(det))


def projector_apply(chart: Chart, phi: State, cfg: DotConfig, u, a: AlgebraElement) -> AlgebraElement:
    """Apply the tangent-plane projector b_a g^{ab} (b_b . x) to x."""
    return _tangent_projection(phi, cfg, tangent_basis(chart, phi, cfg, u), a)


def _tangent_projection(phi: State, cfg: DotConfig, ts: list, a: AlgebraElement) -> AlgebraElement:
    """b_a g^{ab} (b_b . a) for wrapped tangents ts; SingularMetricError if g
    is singular, ``ValueError`` if a dot product or the sum overflows."""
    stack = _stack(ts + [a])
    with np.errstate(all="ignore"):  # an overflow shows in the guarded solve's or the element's check
        d = _dot_matrix(phi, cfg, stack[:-1], stack)  # metric columns, then the b . a column
        coef = _solve_metric(d[:, :-1])[0] @ d[:, -1]
        return AlgebraElement(sum(c * t for c, t in zip(coef, stack)))


def christoffel(chart: Chart, phi: State, cfg: DotConfig, u, method: str = "direct") -> ConnectionField:
    """Connection coefficients from second chart derivatives ("direct") or
    from first derivatives of the metric ("metric")."""
    geo, u = _geo(chart, phi, cfg), _point(chart, u)
    if method == "direct":
        f = _fields(geo, u[None], second=True)
        return ConnectionField(gamma=_gamma(_metric_inverse(f.g[0]), f.n[0]))
    if method == "metric":
        s = _step2(chart)
        g = _fields(geo, _star(u, s)).g
        ginv = _metric_inverse(g[0])  # first: it rejects a metric that overflowed
        dg = _diff(g, s)
        # gamma^a_{rs} = 1/2 g^{ab} (d_r g_{bs} - d_b g_{rs} + d_s g_{rb})
        term = dg.transpose(1, 0, 2) - dg + dg.transpose(2, 1, 0)
        return ConnectionField(gamma=0.5 * np.einsum("ab,brs->ars", ginv, term))
    raise ValueError(f"unknown christoffel method {method!r}")


def metric_compat_residual(chart: Chart, phi: State, cfg: DotConfig, u) -> float:
    """Max-norm violation of d_c g_{ij} = gamma^r_{ci} g_{rj} + gamma^r_{cj} g_{ir}."""
    geo = _geo(chart, phi, cfg)
    u = _point(chart, u)
    f = _fields(geo, u[None], second=True)
    g = f.g[0]
    gamma = _gamma(_metric_inverse(g), f.n[0])
    s = _step2(chart)
    dg = _diff(_fields(geo, _star(u, s)).g, s)
    resid = dg - np.einsum("rci,rj->cij", gamma, g) - np.einsum("rcj,ir->cij", gamma, g)
    return float(np.abs(resid).max())


def _gauss_riemann(geo: _Geo, f: _Fields, ginv: np.ndarray) -> np.ndarray:
    """Riemann components R^a_bmn (K, p, p, p, p) of the fields f (K, ...),
    taken with ``second``, and their inverse metrics ginv, by the Gauss equation
    R_abmn = <P f_am, P f_bn> - <P f_an, P f_bm>, with f_am the second partials
    and <P x, P y> = <x, y> - <x, b_r> g^rs <b_s, y> their dots normal to the
    tangents.  No derivative of the connection is taken.  The chart is read as
    a submanifold of the algebra, flat under a dot product that is symmetric
    on its span: the premise under which the direct and metric Christoffel
    routes agree.  Entries [m, n] and [n, m] are exact negations: the last
    step is one difference of two index orders.

    Only the generic Gram route with a non-real lam can make that dot
    asymmetric, so only there the Gram of the tangents and second partials
    together must pass the metric's symmetry test (``NonSymmetricMetricError``).
    The arithmetic runs in one ``np.errstate``: an overflow shows as a
    non-finite R, which raises ``EvaluationError``."""
    k, p = f.g.shape[:2]
    pair = _pair_index(p)[2].reshape(-1)
    nn = f.n.reshape(k, p, p * p)  # N[r, (a, m)]
    with np.errstate(all="ignore"):
        if geo.weights is None and geo.cfg.lam.imag:
            _require_symmetric_metric(geo.gram(np.concatenate([f.t, f.sec], axis=1)))
        q = geo.gram(f.sec)[:, pair][:, :, pair] - nn.swapaxes(1, 2) @ (ginv @ nn)
        q = (ginv @ q.reshape(k, p, -1)).reshape((k,) + (p,) * 4)  # g^aq Q[qm, bn] as [a, m, b, n]
        r = q.transpose(0, 1, 3, 2, 4) - q.transpose(0, 1, 3, 4, 2)
    if not np.isfinite(r).all():
        raise EvaluationError(f"Riemann tensor of chart '{geo.chart.id}' is not finite: "
                              "its second partials overflow the dot product")
    return r


class Geometry(NamedTuple):
    """Chart geometry stacked over K points, as returned by :func:`geometry_at`."""

    g: np.ndarray               # (K, p, p) metric
    g_inv: np.ndarray           # (K, p, p) its inverse
    det: np.ndarray             # (K,) its determinant
    gamma: np.ndarray           # (K, p, p, p) direct Christoffel components
    riemann: np.ndarray         # (K, p, p, p, p) Riemann components
    bianchi: np.ndarray | None  # (K,) Bianchi residuals; None for p < 2

    def gauss_curvature(self) -> np.ndarray:
        """(K,) Gaussian curvatures K = g_{1r} R^r_{212} / det g; DimensionError unless p = 2."""
        return _gauss(self.g, self.riemann, self.det)


def _gauss(g: np.ndarray, riemann: np.ndarray, det) -> np.ndarray:
    """g_{1r} R^r_{212} / det g over any batch axes, one matrix product each."""
    if g.shape[-1] != 2:
        raise DimensionError("Gaussian curvature requires a 2-parameter chart")
    return (g[..., 0, None, :] @ riemann[..., :, 1, 0, 1, None])[..., 0, 0] / det


# Bytes of stencil-row values held per block of geometry_at; bounds its
# working set for any number of points.
_BLOCK_BYTES = 1 << 19


def geometry_at(chart: Chart, phi: State, cfg: DotConfig, points) -> Geometry:
    """Metric, direct Christoffel, Riemann and (p >= 2) Bianchi fields at
    each row of points (K, p), stacked.

    Every entry has the bits that ``metric``, ``christoffel`` and ``curvature``
    give at that point alone.  The points go in blocks of ``_block_points``,
    each one fields batch at its points, from which the metric, connection and
    Gauss-equation Riemann fields all come, and, for p >= 3 only, one for its
    Bianchi stencils; at p = 2 every index triple repeats an index, so
    the identity is vacuous and the residual is 0 with no stencil evaluated.
    """
    xs = np.asarray(points, dtype=float)
    p = chart.p
    if xs.ndim != 2 or xs.shape[1] != p or len(xs) == 0:
        raise DimensionError(f"points must have shape (K, {p}) with K >= 1 on chart "
                             f"'{chart.id}', got {xs.shape}")
    geo = _geo(chart, phi, cfg)
    per = _block_points(geo)
    parts = []
    for lo in range(0, len(xs), per):
        block = xs[lo:lo + per]
        bianchi = None if p < 2 else np.zeros(len(block)) if p == 2 else _bianchi_at(geo, block)
        parts.append(_curvature_at(geo, block) + (bianchi,))
    return Geometry(*(f[0] if len(f) == 1 or f[0] is None else np.concatenate(f)
                      for f in zip(*parts)))  # one block's fields as they are


def _block_points(geo: _Geo) -> int:
    """Points per block of ``geometry_at``: as many as fit ``_BLOCK_BYTES``
    of stencil rows, at least one.  A row is its point, 8 p bytes, and its
    value, 8 dim bytes from ``map_vec`` or 16 dim^2 from ``map_mat``."""
    dim = geo.chart.dim
    row = 8 * geo.p + (8 * dim if geo.weights is not None else 16 * dim * dim)
    return max(1, _BLOCK_BYTES // (row * _stencil_rows(geo.p)))


def _stencil_rows(p: int) -> int:
    """Chart points geometry_at evaluates per point, repeats included: its
    ``_stencil``, for p >= 3 also one at each centre of a Bianchi ``_star``."""
    st = _stencil(p, 1.0, 1.0, True, False)
    return (len(st.offsets) + len(st.base)) * (1 + (len(_star_offsets(p, 1.0)) if p >= 3 else 0))


def _curvature_at(geo: _Geo, xs: np.ndarray) -> tuple:
    """(g, g_inv, det, gamma, riemann) at the points xs (K, p), each stacked
    over K, from one fields batch at the points themselves, with Riemann by
    the Gauss equation (``_gauss_riemann``).  ``geometry_at`` returns the
    arrays of one block as they are.  Only the generic Gram route tests g
    for symmetry: the diagonal one builds it symmetric bit for bit."""
    f = _fields(geo, xs, second=True)
    _require_symmetric_metric(f.g, geo)
    ginv, det = _solve_metric(f.g)[:2]
    return f.g, ginv, det, _gamma(ginv, f.n), _gauss_riemann(geo, f, ginv)


def curvature(chart: Chart, phi: State, cfg: DotConfig, u) -> CurvatureField:
    """Riemann components by the Gauss equation from one second-derivative
    stencil at u, with the metric at u from the same stencil."""
    g, ginv, det, _, riem = _curvature_at(_geo(chart, phi, cfg), _point(chart, u)[None])
    return CurvatureField(riemann=riem[0], metric=MetricField(g=g[0], g_inv=ginv[0], det=float(det[0])))


def riemann_gauss_curvature(chart: Chart, phi: State, cfg: DotConfig, u) -> float:
    """Gaussian curvature K = g_{1r} R^r_{212} / det g for 2-parameter charts."""
    return curvature(chart, phi, cfg, u).gauss_curvature()


def bianchi_residual(chart: Chart, phi: State, cfg: DotConfig, u) -> float:
    """Max-norm cyclic sum D_l R^a_{bmn} + D_m R^a_{bnl} + D_n R^a_{blm}:
    the Bianchi entry of ``geometry_at`` at u alone.

    Two stacked difference layers; the steps scale with chart.fd_step2
    (connection factors at 10x, outer derivative at 70x capped at 0.1) so
    that on charts with three or more parameters the residual is truncation
    dominated and halving the chart steps shrinks it by about 4x.
    """
    x = _point(chart, u)
    _require_bianchi(chart)
    return float(geometry_at(chart, phi, cfg, x[None]).bianchi[0])


def _require_bianchi(chart: Chart):
    """``DimensionError`` below the two parameters a Bianchi residual needs."""
    if chart.p < 2:
        raise DimensionError("Bianchi residual needs at least two parameters")


def _bianchi_steps(chart: Chart) -> tuple:
    """(s4, h2) of the Bianchi pass: its outer star's step, 70 fd_step2 capped
    at 0.1, and its fields' second step, 10 fd_step2."""
    base = float(_step2(chart))
    return min(70.0 * base, 0.1), 10.0 * base


def _drawn_box(chart: Chart) -> tuple:
    """(lo, hi) from which ``report`` draws: the first p entries of the
    chart's ``sample_box``, inset by the reach of ``geometry_at``'s stencils
    where they can leave the domain.  The reach is the largest coordinate
    offset of a stencil point from its point: max(fd_step, fd_step2), and at
    p >= 3 the Bianchi star's step plus max(fd_step, its second step).  The
    box is inset when the domain test refuses one of the 2^p corners of the
    box grown by the reach; on a convex domain, corners it accepts hold every
    stencil point between them.  An inset past half the box takes its middle."""
    lo, hi = (end[:chart.p] for end in chart.sample_box)
    if chart.in_domain is _EVERYWHERE:
        return lo, hi
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    s4, h2 = _bianchi_steps(chart) if chart.p >= 3 else (0.0, _step2(chart))
    reach = s4 + max(chart.fd_step, h2)
    corners = (lo + hi) / 2.0 + _corner_signs(chart.p) * ((hi - lo) / 2.0 + reach)
    if _first_false(chart.in_domain.stack(corners), corners, "in_domain") is None:
        return lo, hi
    inset = np.minimum(reach, (hi - lo) / 2.0)
    return lo + inset, hi - inset


@functools.lru_cache(maxsize=16)
def _corner_signs(p: int) -> np.ndarray:
    """The (2^p, p) sign rows +-1 of the corners of a p-box, read-only."""
    signs = 1.0 - 2.0 * ((np.arange(1 << p)[:, None] >> np.arange(p)) & 1)
    signs.flags.writeable = False
    return signs


def _bianchi_at(geo: _Geo, xs: np.ndarray) -> np.ndarray:
    """Bianchi residuals (K,) at the points xs (K, p) of a chart with p >= 3,
    from one fields batch over their outer star, with Riemann by the Gauss
    equation (``_gauss_riemann``)."""
    k, p = xs.shape
    s4, h2 = _bianchi_steps(geo.chart)
    centres = _star(xs, s4)  # (1 + 2p, K, p)
    f = _fields(geo, centres.reshape(-1, p), second=True, h2=h2)
    _require_symmetric_metric(f.g, geo)
    ginv = _solve_metric(f.g)[0]
    riem = _gauss_riemann(geo, f, ginv).reshape(centres.shape[:-1] + (p,) * 4)
    gam0, r0 = _gamma(ginv[:k], f.n[:k]), riem[0]
    # cov[l, k] = D_l R at point k, with gl[a, r] = gam0[k, a, l, r]; the last
    # two terms are grouped so that [m, n] and [n, m] are exact negations
    cov = ((_diff(riem, s4)
            + np.einsum("...alr,...rbmn->l...abmn", gam0, r0)
            - np.einsum("...rlb,...armn->l...abmn", gam0, r0))
           - (np.einsum("...rlm,...abrn->l...abmn", gam0, r0)
              + np.einsum("...rln,...abmr->l...abmn", gam0, r0)))
    # cyc[k, l, m, n] = cov[l, k][..., m, n] + cov[m, k][..., n, l] + cov[n, k][..., l, m]
    c = cov.swapaxes(0, 1)
    cyc = c.transpose(0, 1, 4, 5, 2, 3) + c.transpose(0, 5, 1, 4, 2, 3) + c.transpose(0, 4, 5, 1, 2, 3)
    return np.abs(cyc).reshape(k, -1).max(axis=1)


def covariant_derivative(chart: Chart, phi: State, cfg: DotConfig, u, v_field) -> np.ndarray:
    """D[a, b] = d_a V^b + gamma^b_{a d} V^d for a vector field V(u).

    V is lifted into a ``stacked`` and called once on its star: u and the
    points u +- fd_step2 e_c.  ``DimensionError`` unless each value has
    shape (p,), and ``EvaluationError`` for complex values or naming the
    first star point whose value is not finite (an overflow in V included).
    """
    gamma = christoffel(chart, phi, cfg, u).gamma
    s = _step2(chart)
    star = _star(_point(chart, u), s)
    vs = np.asarray(_lifted(v_field).stack(star))
    if vs.shape[1:] != (chart.p,):
        raise DimensionError(f"vector field must return shape ({chart.p},)")
    if np.iscomplexobj(vs):  # a cast to float would drop the imaginary parts
        raise EvaluationError(f"vector field must be real, got values of type {vs.dtype}")
    vs = vs.astype(float, copy=False)
    bad = _nonfinite_row(vs, star)
    if bad is not None:
        raise EvaluationError(f"vector field has a non-finite value at point {bad.tolist()}")
    return _diff(vs, s) + np.einsum("bad,d->ab", gamma, vs[0])


def _geodesic_slope(geo: _Geo, plan: _Stencil, y: list, form: bool = False):
    """One RK4 stage of ``geodesic``: (k, cond, g(v, v)), the slope
    k = (v, a) of the state y = (u, v), a list of 2p floats, with
    a = -g^{-1} (b_r . d_v d_v b), the condition number of the metric g at u,
    and with ``form`` the speed form g(v, v) as a float, else None.

    The 2p + 5 points of ``plan``, the ``_stencil`` with ``along`` at u and
    the unit direction d = v / |v|, go into one fresh array and one
    ``geo.vals`` call; ``_central`` and ``_along`` difference them in the
    per-point formulas' operand order, so a has their bits.  On float64
    vector values ``_along`` runs per entry on Python floats, which round as
    the array formula does; matrix and complex values keep the array formula,
    since Python and NumPy divide complex numbers differently.  A zero v evaluates only
    the tangent points and has a = 0.  It runs in its caller's one
    ``np.errstate`` (see ``geodesic``); a state or |v| that is not finite is
    ``EvaluationError``.
    """
    p, chart = geo.p, geo.chart
    if not all(map(math.isfinite, y)):
        raise EvaluationError(f"state {y} is not finite")
    v = np.array(y[p:])
    speed = math.sqrt(v.dot(v))  # np.linalg.norm's own formula
    if not math.isfinite(speed):
        raise EvaluationError(f"velocity {y[p:]} overflows")
    pts = np.add(y[:p], plan.offsets)  # fresh: a map may return a view of its input
    if speed:
        pts[2 * p + 1:] += plan.dir_steps * (v / speed)  # u + q d rounds as q d + u
    vals = geo.vals(pts if speed else pts[:2 * p])
    t = _central(vals[:p], vals[p:2 * p], chart.fd_step)
    g = geo.gram(t)
    _require_symmetric_metric(g, geo)
    ginv, _, cond, _ = _solve_metric(g)
    vgv = float(v.dot(g).dot(v)) if form else None
    if not speed:
        return y[p:] + [0.0] * p, cond, vgv
    q, vv = _step2(chart), speed * speed
    if vals.ndim == 2 and vals.dtype == np.float64:  # as Python floats, entry by entry
        f0, a2, a1, m1, m2 = vals[2 * p:].tolist()
        dd = np.array([[_along(*e, q) * vv for e in zip(a2, a1, f0, m1, m2)]])
    else:
        c = 2 * p
        dd = (_along(vals[c + 1], vals[c + 2], vals[c], vals[c + 3], vals[c + 4], q) * vv)[None]
    return y[p:] + [-a for a in (ginv @ geo.gram(t, dd)[:, 0]).tolist()], cond, vgv


# States a geodesic's arrays hold at the start.  They double as they fill,
# so what a run allocates follows the states it reaches, not its step count.
_GROW_ROWS = 1024


def geodesic(chart: Chart, phi: State, cfg: DotConfig, u0, v0, tau_max: float,
             step: float) -> GeodesicResult:
    """Integrate d2u^a = -gamma^a_{rs} du^r du^s with classical fixed-step RK4.

    Keeps a state per step including the initial one, in arrays of at most
    ``_GROW_ROWS`` rows at the start that double as they fill, up to the
    ``_step_count(tau_max, step)`` steps.  If a stencil leaves the chart
    domain, the metric turns singular, or a state or velocity stops being
    finite, the integration halts and the partial trajectory is returned
    with ``left_domain`` set.  Each stage contracts the connection with the
    velocity through a single directional second difference (fourth-order
    stencil, step ``fd_step2``).  The state (u, v) is stepped in Python
    floats, which round as the array expressions do and overflow to inf with
    no NumPy warning.  The whole run, its domain tests included, is one
    ``np.errstate`` with NumPy's warnings off, so an overflow shows as a
    non-finite value, which is checked.  See :class:`GeodesicResult` for the
    health numbers.
    Raises ``DimensionError`` unless u0 and v0 have shape (p,), ``ValueError``
    for a non-finite u0 or v0, a zero v0 or one whose squared norm
    overflows, or a tau_max and step ``_step_count`` rejects,
    ``EvaluationError`` for a u0 outside the chart domain, and
    ``NonSymmetricMetricError`` for an asymmetric metric at a stage.
    """
    u, v = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
    if u.shape != (chart.p,) or v.shape != (chart.p,):
        raise DimensionError(f"u0 and v0 must have shape ({chart.p},)")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError(f"u0 and v0 must be finite, got {u.tolist()} and {v.tolist()}")
    if not np.any(v != 0.0):
        raise ValueError("initial velocity must be nonzero")
    if not math.isfinite(sum(x * x for x in v.tolist())):
        raise ValueError(f"v0 {v.tolist()} is too large: its squared norm overflows")
    n_steps = _step_count(tau_max, step)
    geo = _geo(chart, phi, cfg)
    p = chart.p
    ys = np.empty((min(n_steps + 1, _GROW_ROWS), 2 * p))  # the states (u, v), one per row
    plan = _stencil(p, chart.fd_step, _step2(chart), False, True)
    half, sixth = 0.5 * step, step / 6.0
    y = ys[0] = u.tolist() + v.tolist()  # the state, stepped in Python floats
    # g(v, v) at state 0 and its extremes, and the largest cond, over the completed steps
    stored, g0, lo, hi, cond = 1, None, math.inf, -math.inf, 0.0
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value, checked
        if geo.outside(u[None]) is not None:
            raise EvaluationError(f"initial point {u.tolist()} outside chart domain")
        for _ in range(n_steps):
            try:
                k1, c1, form = _geodesic_slope(geo, plan, y, form=True)
                k2, c2, _ = _geodesic_slope(geo, plan, [a + half * b for a, b in zip(y, k1)])
                k3, c3, _ = _geodesic_slope(geo, plan, [a + half * b for a, b in zip(y, k2)])
                k4, c4, _ = _geodesic_slope(geo, plan, [a + step * b for a, b in zip(y, k3)])
            except (EvaluationError, SingularMetricError):
                break
            g0 = form if g0 is None else g0
            lo, hi, cond = min(lo, form), max(hi, form), max(cond, c1, c2, c3, c4)
            y = [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
            if stored == len(ys):  # full: double, up to the step count
                ys = np.concatenate([ys, np.empty((min(stored, n_steps + 1 - stored), 2 * p))])
            ys[stored] = y
            if not all(map(math.isfinite, y)) or geo.outside(ys[stored:stored + 1, :p]) is not None:
                break
            stored += 1
    left = stored <= n_steps
    if stored < len(ys):  # a partial trajectory keeps only its states
        ys = ys[:stored].copy()
    tau, us, vs = np.arange(stored) * step, ys[:, :p], ys[:, p:]
    if g0 is None:  # no step completed
        return GeodesicResult(tau, us, vs, left)
    drift = max(hi - g0, g0 - lo) / g0 if g0 > 0.0 else hi - lo  # g0 underflows only
    return GeodesicResult(tau, us, vs, left, drift, float(cond))


def _frames(chart: Chart, phi: State, cfg: DotConfig, u):
    """The evaluator, the fields at the centres of ``_star(u, fd_step)``, the
    frame at u and its central differences: all frames come from one call.
    ``NonSymmetricMetricError`` if a metric there is asymmetric, and
    ``DomainError`` on a chart with no second step."""
    geo, s = _geo(chart, phi, cfg), chart.fd_step
    _step2(chart)  # the frame's derivative is a second derivative of the chart
    f = _fields(geo, _star(_point(chart, u), s))
    _require_symmetric_metric(f.g, geo)
    frames = _orthonormalize(f.t, geo.gram, "tangent {} is numerically dependent")[0]
    return geo, f, frames[0], _diff(frames, s)


def orthonormal_frame(chart: Chart, phi: State, cfg: DotConfig, u):
    """Orthonormal frame and its connection components.

    Returns (frame, frame_conn) with frame_conn[a, b, c] = bhat_a . d_c bhat_b
    differenced at ``fd_step`` (the frame field already contains one
    derivative layer, and this step keeps the antisymmetry defect at the
    square of the step).
    """
    geo, _, frame, dframe = _frames(chart, phi, cfg, u)
    conn = np.stack([geo.gram(frame, d) for d in dframe], axis=-1)
    return [geo.wrap(f) for f in frame], conn


def gauss_curvature_2d(chart: Chart, phi: State, cfg: DotConfig, u) -> float:
    """Gaussian curvature from the orthonormal frame:
    K = (d_1 bhat_1 . d_2 bhat_2 - d_2 bhat_1 . d_1 bhat_2) / sqrt(det g)."""
    if chart.p != 2:
        raise DimensionError("gauss_curvature_2d requires a 2-parameter chart")
    geo, f, _, df = _frames(chart, phi, cfg, u)
    d = geo.gram(df[:, 0], df[::-1, 1])  # d[i, j] = d_i bhat_1 . d_(1-j) bhat_2
    det = float(_det(f.g[0]))
    if det <= 0:
        raise SingularMetricError("metric determinant is not positive")
    return float((d[0, 0] - d[1, 1]) / math.sqrt(det))


def gibbs_force(consts: PhysConstants, chart_ops, h: AlgebraElement, beta: float) -> np.ndarray:
    """Force array f^a_b = -g^{ar} (b_r . db_b) in the Gibbs state of h.

    ``chart_ops`` are operator-valued tangent elements; their time
    derivatives come from the Heisenberg commutator with h (no explicit
    part), and the dots use the symmetric product in Gibbs(h, beta): the
    force is -W of ``_project_on`` with the velocities as targets.
    """
    ops = list(chart_ops)
    if not ops:
        raise DimensionError("chart_ops is empty")
    omega = State.gibbs(h, beta)
    stack = _stack(ops)
    h._check_dim(ops[0])
    targets_then_ops = np.concatenate([_heisenberg(consts, h.m, stack), stack])
    return -_project_on(omega, DotConfig(), targets_then_ops, len(ops), SingularGramError(
        "tangent Gram matrix is singular in the Gibbs state"))[1]


def killing_metric(structure_constants, d: int) -> np.ndarray:
    """Invariant bilinear form g_{ab} = Tr(ad_a' ad_b + ad_b' ad_a) / (2d).

    ``structure_constants`` is the real array f[r, a, b] with
    [J_a, J_b] = f[r, a, b] J_r, antisymmetric in (a, b) and satisfying the
    Jacobi identity within 1e-10 (checked through the adjoint matrices).
    """
    d = _count(d, "d")
    if d < 1:
        raise DimensionError(f"a Lie algebra needs d >= 1 generators, got {d}")
    f = np.asarray(structure_constants, dtype=float)
    if f.shape != (d, d, d):
        raise DimensionError(f"structure constants must have shape ({d},{d},{d})")
    if not np.isfinite(f).all():  # NaN would pass both the symmetry and the Jacobi tests
        raise ValueError("structure constants have non-finite entries")
    scale = max(1.0, np.abs(f).max())
    if _asymmetric(f, -np.swapaxes(f, 1, 2)):
        raise ValueError("structure constants must be antisymmetric in the lower pair")
    ad = np.transpose(f, (1, 0, 2))  # ad[a][r, b] = f[r, a, b]
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        comm = ad[:, None] @ ad[None] - ad[None] @ ad[:, None]  # comm[a, b] = [ad_a, ad_b]
        gap = np.abs(comm - np.einsum("cab,crs->abrs", f, ad)).max(axis=(2, 3))
        # the sum-state Gram kernel of the ad_a, returned hermitian: Tr(ad_a' ad_b + ad_b' ad_a) / 2
        g = State.unnormalized_sum().gram(ad).real / d
    if not (np.isfinite(gap).all() and np.isfinite(g).all()):
        raise ValueError("structure constants too large: the adjoint products overflow")
    bad = np.argwhere(gap > 1e-10 * max(1.0, scale * scale))
    if bad.size:
        raise JacobiViolationError(f"Jacobi identity fails for generator pair ({bad[0, 0]}, {bad[0, 1]})")
    return g


def leibniz_violation_witness(chart: Chart, phi: State, cfg: DotConfig, u) -> float:
    """Norm of the part of the tangent product t1 t2 outside the tangent plane.

    Zero exactly when products of tangents stay tangent (flat diagonal
    charts); positive on curved charts, witnessing that the projected
    connection cannot obey the product rule on the full algebra.
    """
    if chart.p < 2:
        raise DimensionError("witness needs at least two parameters")
    ts = tangent_basis(chart, phi, cfg, u)
    x = ts[0] @ ts[1]
    r = (_tangent_projection(phi, cfg, ts, x) - x).m
    return math.sqrt(max(_dot_matrix(phi, cfg, r[None])[0, 0], 0.0))
