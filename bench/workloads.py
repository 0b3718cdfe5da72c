"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload is a fixed cycle of operation slots.  The seed picks the
values inside each slot (chart parameters, start points, matrices), never
the cycle's shape, so runs with different seeds do the same amount of work.
The library sees only the generated charts, paths and operators.

Each slot's ``call`` is what the benchmark times.  Its ``check(output, obs)``
runs after the timing, compares the output with an independent route and
returns an error message or None; it may record health numbers (route
gaps, step counts) in ``obs`` for the traced run.  References that do not
depend on the output are computed once per slot and cached, because a slot
runs once per cycle.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from opgeom import algebra, cli, hypersurface, projection, transport, uncertainty
from opgeom.errors import LinearDependenceError, SingularGramError

CFG = algebra.DotConfig()
CONSTS = algebra.PhysConstants()
SUM = algebra.State.unnormalized_sum()

# tolerances of tests/test_acceptance.py
GAUSS_TOL = 1e-4            # criterion 09, closed form
GAUSS_FRAME_TOL = 1e-3      # criterion 12, frame route against Riemann route
CHRISTOFFEL_TOL = 1e-5      # criterion 08, max(1e-5, 10 h2^2) at h2 = 1e-3
BIANCHI_2D_TOL = 1e-8       # criterion 14, vacuous identity on 2-parameter charts
BIANCHI_3D_MIN = 1e-8       # criterion 14, the 3-parameter residual has content
DET_TOL = 1e-5              # criterion 16, metric determinant
GEODESIC_TOL = 1e-6         # criterion 10, closed-form positions and speed drift
TRANSPORT_TOL = 1e-6        # criterion 13, product integral against the oracle
STOKES_MIN_RATIO = 6.0      # criterion 13, third-order defect: ratio near 8
MARGIN_TOL = 1e-10          # criteria 01 and 05, bound margins
ORTHO_TOL = 1e-10           # criterion 06
CS_REL_TOL = 1e-9           # criterion 01, residual against the determinant ratio
CS_ABS_TOL = 1e-12
IDENTITY_TOL = 1e-9         # norm_sq_parallel + residual = a.a, relative


@dataclass
class Slot:
    """One operation of a workload's cycle.

    ``kind`` names the operation and its input family.  ``expect_error`` is
    the exception type the call must raise, ``expect_warning`` whether it
    must emit ``SingularGramWarning``.  ``probe`` names the host-speed probe whose
    instruction mix the operation shares ("python" or "blas").
    """

    kind: str
    call: object
    check: object
    expect_error: type | None = None
    expect_warning: bool = False
    probe: str = "python"


class Digest:
    """SHA-256 over the generated inputs, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values):
        for v in values:
            if isinstance(v, np.ndarray):
                self._h.update(repr((v.dtype.str, v.shape)).encode())
                self._h.update(np.ascontiguousarray(v).tobytes())
            else:
                self._h.update(repr(v).encode())
        return v if len(values) == 1 else values

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class Inputs:
    """A workload's generated inputs: a list of slot builders and a digest.

    ``slots(counter)`` builds the cycle.  With a counter, every chart map and
    connection callable is wrapped so that its calls are counted; without
    one, the library receives the plain callables.
    """

    def __init__(self, digest, build_slots):
        self.digest = digest
        self._build = build_slots

    def slots(self, counter=None) -> list:
        return self._build(counter)


def _stats(vals) -> dict:
    arr = np.asarray(vals, dtype=float)
    return {"min": float(arr.min()), "max": float(arr.max()), "mean": float(arr.mean())}


def _stats_gap(got: dict, ref: dict) -> float:
    return max(abs(got[k] - ref[k]) for k in ("min", "max", "mean"))


def _counted_chart(chart, counter):
    if counter is None:
        return chart
    map_vec = None if chart.map_vec is None else counter.chart(chart.map_vec)
    return replace(chart, map_mat=counter.chart(chart.map_mat), map_vec=map_vec)


def _counted_path(path, counter):
    if counter is None:
        return path
    return replace(path, A=counter.path(path.A))


# ---------------------------------------------------------------------------
# charts shared by chart_sweep and path_integrators

def graph3_fvec(u):
    f = (math.sin(u[0]) * math.cos(u[1]) + 0.5 * math.sin(u[1]) * u[2]
         + 0.3 * math.cos(u[2]) * u[0])
    return np.array([u[0], u[1], u[2], f])


def graph3_chart():
    """Three-parameter graph hypersurface in R^4 (as in tests/test_transport.py)."""
    return hypersurface.Chart(
        id="graph3", p=3, dim=4,
        map_mat=lambda u: np.diag(graph3_fvec(u)).astype(complex),
        map_vec=graph3_fvec, in_domain=lambda u: True,
        sample_box=(np.array([-1.0] * 3), np.array([1.0] * 3)))


def graph3_metric(u):
    grad = np.array([
        math.cos(u[0]) * math.cos(u[1]) + 0.3 * math.cos(u[2]),
        -math.sin(u[0]) * math.sin(u[1]) + 0.5 * math.cos(u[1]) * u[2],
        0.5 * math.sin(u[1]) - 0.3 * math.sin(u[2]) * u[0],
    ])
    return np.eye(3) + np.outer(grad, grad)


def _rand_hermitian(rng, n, norm=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (m + m.conj().T)
    return norm * h / np.linalg.norm(h)


def _rand_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T + 0.1 * np.eye(n)
    return rho / np.trace(rho).real


class NonDiagonalChart:
    """Hermitian 3x3 two-parameter chart b(u) = u0 H1 + u1 H2 + (u0^2 + u1^2) H3
    + u0 u1 H4 with no diagonal fast path, so the generic state route runs."""

    def __init__(self, hs):
        self.hs = hs

    def map_mat(self, u):
        h1, h2, h3, h4 = self.hs
        return u[0] * h1 + u[1] * h2 + (u[0] * u[0] + u[1] * u[1]) * h3 + u[0] * u[1] * h4

    def tangents(self, u):
        h1, h2, h3, h4 = self.hs
        return (h1 + 2.0 * u[0] * h3 + u[1] * h4, h2 + 2.0 * u[1] * h3 + u[0] * h4)

    def chart(self):
        return hypersurface.Chart(
            id="nondiag3", p=2, dim=3, map_mat=self.map_mat, map_vec=None,
            in_domain=lambda u: True,
            sample_box=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))


def _metric_det_ref(kind, params, u, rho=None, nondiag=None) -> float:
    """Closed-form metric determinant (sum state on diagonal charts)."""
    if kind == "sphere":
        r = params["r"]
        return r ** 4 * math.sin(u[0]) ** 2
    if kind == "torus":
        big_r, r = params["R"], params["r"]
        return r * r * (big_r + r * math.cos(u[0])) ** 2
    if kind == "paraboloid":
        a = params["a"]
        return 1.0 + 4.0 * a * a * (u[0] ** 2 + u[1] ** 2)
    if kind == "graph3":
        return float(np.linalg.det(graph3_metric(u)))
    ts = nondiag.tangents(u)
    g = np.array([[np.trace(rho @ (ti @ tj + tj @ ti)).real / 2.0 for tj in ts] for ti in ts])
    return float(np.linalg.det(g))


def _gauss_ref(kind, params, u) -> float:
    if kind == "sphere":
        return 1.0 / params["r"] ** 2
    if kind == "torus":
        big_r, r = params["R"], params["r"]
        return math.cos(u[0]) / (r * (big_r + r * math.cos(u[0])))
    a = params["a"]
    return 4.0 * a * a / (1.0 + 4.0 * a * a * (u[0] ** 2 + u[1] ** 2)) ** 2


def _builtin_chart(kind, params):
    if kind == "sphere":
        return hypersurface.sphere(r=params["r"])
    if kind == "torus":
        return hypersurface.torus(big_r=params["R"], r=params["r"])
    return hypersurface.paraboloid(a=params["a"])


def _seeded_params(kind, rng, dg: Digest) -> dict:
    if kind == "sphere":
        return {"r": dg.add(float(rng.uniform(1.0, 2.0)))}
    if kind == "torus":
        return {"R": dg.add(float(rng.uniform(1.5, 2.5))), "r": dg.add(float(rng.uniform(0.4, 0.6)))}
    return {"a": dg.add(float(rng.uniform(0.5, 1.5)))}


# ---------------------------------------------------------------------------
# chart_sweep

CHART_KINDS = ("sphere", "torus", "paraboloid", "graph3", "nondiag")


def build_chart_sweep(seed: int, size: str) -> Inputs:
    rng = np.random.default_rng(seed)
    dg = Digest()
    # two of each diagonal chart and one of each slow chart, so that the
    # median operation falls inside the cluster of diagonal-chart reports
    kinds, count = (CHART_KINDS[:3] * 2 + CHART_KINDS[3:], 20) if size == "full" else (CHART_KINDS, 2)
    specs = []
    for kind in kinds:
        spec = {"kind": kind, "seed_k": dg.add(int(rng.integers(0, 2 ** 31)))}
        if kind in ("sphere", "torus", "paraboloid"):
            spec["params"] = _seeded_params(kind, rng, dg)
        elif kind == "nondiag":
            spec["nondiag"] = NonDiagonalChart(
                [dg.add(_rand_hermitian(rng, 3)) for _ in range(4)])
            spec["rho"] = dg.add(_rand_density(rng, 3))
        specs.append(spec)

    def build(counter):
        return [_report_slot(spec, count, counter) for spec in specs]

    return Inputs(dg.hexdigest(), build)


def _report_slot(spec, count, counter) -> Slot:
    kind = spec["kind"]
    if kind == "graph3":
        chart = graph3_chart()
    elif kind == "nondiag":
        chart = spec["nondiag"].chart()
    else:
        chart = _builtin_chart(kind, spec["params"])
    phi = algebra.State.density(spec["rho"]) if kind == "nondiag" else SUM
    timed_chart = _counted_chart(chart, counter)
    seed_k = spec["seed_k"]
    ref = {}

    def call():
        return cli.report(timed_chart, phi, CFG, count, seed_k)

    def reference(points):
        det, gauss, gam_direct, gam_gap = [], [], [], 0.0
        for u in points:
            det.append(_metric_det_ref(kind, spec.get("params"), u, spec.get("rho"),
                                       spec.get("nondiag")))
            g1 = hypersurface.christoffel(chart, phi, CFG, u, method="direct").gamma
            g2 = hypersurface.christoffel(chart, phi, CFG, u, method="metric").gamma
            gam_direct.append(float(np.abs(g1).max()))
            gam_gap = max(gam_gap, float(np.abs(g1 - g2).max()))
            if kind == "nondiag":
                gauss.append(hypersurface.gauss_curvature_2d(chart, phi, CFG, u))
            elif kind != "graph3":
                gauss.append(_gauss_ref(kind, spec["params"], u))
        return {"points": [np.asarray(u).tolist() for u in points], "det": _stats(det),
                "gauss": _stats(gauss) if gauss else None,
                "christoffel": _stats(gam_direct), "christoffel_gap": gam_gap}

    def check(doc, obs):
        points = [np.asarray(u, dtype=float) for u in doc["points"]]
        if not ref:
            ref.update(reference(points))
        if doc["points"] != ref["points"]:
            return "report sample points differ between calls with the same seed"
        st = doc["stats"]
        det_gap = _stats_gap(st["metric_det"], ref["det"])
        if det_gap > DET_TOL * max(1.0, abs(ref["det"]["max"])):
            return f"metric_det off the closed form by {det_gap:.3g}"
        if ref["christoffel_gap"] >= CHRISTOFFEL_TOL:
            return f"christoffel direct and metric routes differ by {ref['christoffel_gap']:.3g}"
        if _stats_gap(st["christoffel_max_abs"], ref["christoffel"]) > 1e-12 * max(
                1.0, ref["christoffel"]["max"]):
            return "christoffel_max_abs differs from the direct route"
        if ref["gauss"] is not None:
            tol = GAUSS_FRAME_TOL if kind == "nondiag" else GAUSS_TOL
            gap = _stats_gap(st["gauss_curvature"], ref["gauss"])
            obs["gauss_err"] = gap
            if gap >= tol:
                return f"gauss_curvature off its reference by {gap:.3g}"
        bianchi = st["bianchi_residual"]
        if not all(math.isfinite(bianchi[k]) for k in bianchi):
            return "non-finite Bianchi residual"
        if chart.p == 2 and bianchi["max"] >= BIANCHI_2D_TOL:
            return f"2-parameter Bianchi residual {bianchi['max']:.3g} is not rounding noise"
        if chart.p == 3 and bianchi["min"] <= BIANCHI_3D_MIN:
            return f"3-parameter Bianchi residual {bianchi['min']:.3g} has no content"
        return None

    return Slot(kind=f"report:{kind}", call=call, check=check)


# ---------------------------------------------------------------------------
# path_integrators

GEODESIC_TAU = 2.0
GEODESIC_STEP = 0.01        # 200 RK4 steps


def _sphere_embed(r, u):
    st, ct, sp, cp = math.sin(u[0]), math.cos(u[0]), math.sin(u[1]), math.cos(u[1])
    p = r * np.array([st * cp, st * sp, ct])
    jac = r * np.array([[ct * cp, -st * sp], [ct * sp, st * cp], [-st, 0.0]])
    return p, jac


def _great_circle(r, u0, v0):
    """Closed-form sphere geodesic tau -> embedded point."""
    p0, jac = _sphere_embed(r, u0)
    vel = jac @ v0
    speed = float(np.linalg.norm(vel))
    t_hat = vel / speed
    omega = speed / r

    def at(tau):
        return math.cos(omega * tau) * p0 + math.sin(omega * tau) * r * t_hat

    return at


def _sphere_start(rng, dg, r):
    """Start and velocity whose great circle stays 0.2 away from both poles."""
    while True:
        u0 = np.array([rng.uniform(0.8, math.pi - 0.8), rng.uniform(0.0, 2.0 * math.pi)])
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(0.5, 1.0) * r
        v0 = speed * np.array([math.cos(alpha) / r, math.sin(alpha) / (r * math.sin(u0[0]))])
        at = _great_circle(r, u0, v0)
        polar = [math.acos(max(-1.0, min(1.0, at(t)[2] / r)))
                 for t in np.linspace(0.0, GEODESIC_TAU, 201)]
        if min(polar) > 0.2 and max(polar) < math.pi - 0.2:
            return dg.add(u0), dg.add(v0)


def _speed_drift(states, metric_at) -> float:
    speeds = [float(s.udot @ metric_at(s.u) @ s.udot) for s in states]
    return max(abs(sp - speeds[0]) for sp in speeds) / speeds[0]


def _geodesic_slot(name, chart, counter, u0, v0, metric_at, expect_left, extra_check):
    timed_chart = _counted_chart(chart, counter)

    def call():
        return hypersurface.geodesic(timed_chart, SUM, CFG, u0, v0, GEODESIC_TAU, GEODESIC_STEP)

    def check(res, obs):
        obs["rk4_steps"] = len(res) - 1 + (1 if res.left_domain else 0)
        obs["left_domain"] = int(res.left_domain)
        if res.left_domain != expect_left:
            return f"left_domain is {res.left_domain}, expected {expect_left}"
        if any(not (np.all(np.isfinite(s.u)) and np.all(np.isfinite(s.udot))) for s in res):
            return "non-finite geodesic state"
        drift = _speed_drift(res, metric_at)
        if drift >= GEODESIC_TOL:
            return f"speed drift {drift:.3g} in g(v, v)"
        return extra_check(res)

    return Slot(kind=f"geodesic:{name}", call=call, check=check)


def _pi_slot(name, path, counter, oracle_cache):
    timed_path = _counted_path(path, counter)

    def call():
        return transport.product_integral(timed_path)

    def check(f, obs):
        if "ref" not in oracle_cache:
            oracle_cache["ref"] = transport.transport_oracle(path)
        ref = oracle_cache["ref"]
        err = float(np.linalg.norm(f - ref) / np.linalg.norm(ref))
        obs["path_steps"] = path.n_steps
        obs["oracle_rel_err"] = err
        if not err < TRANSPORT_TOL:
            return f"product integral off the oracle by {err:.3g} (relative)"
        return None

    return Slot(kind=f"product_integral:{name}", call=call, check=check)


def _antihermitian(rng, n, norm):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = 0.5 * (m - m.conj().T)
    return norm * a / np.linalg.norm(a)


def _stokes_slot(base, eps, counter):
    field_ = transport.stored_su2_field if counter is None else counter.path(
        transport.stored_su2_field)
    dirs = ((1.0, 0.0), (0.0, 1.0))
    loops = (transport.LoopSpec(base=base, dirs=dirs, epsilon=eps),
             transport.LoopSpec(base=base, dirs=dirs, epsilon=eps / 2.0))

    def call():
        return tuple(transport.stokes_residual(field_, loop) for loop in loops)

    def check(res, obs):
        obs["path_steps"] = 2 * 4 * 256
        full, half = res
        if not (math.isfinite(full) and math.isfinite(half) and half > 0):
            return f"bad Stokes residuals {res}"
        if full / half < STOKES_MIN_RATIO:
            return f"Stokes ratio {full / half:.3g} below {STOKES_MIN_RATIO}"
        return None

    return Slot(kind="stokes", call=call, check=check)


def build_path_integrators(seed: int, size: str) -> Inputs:
    rng = np.random.default_rng(seed)
    dg = Digest()
    full = size == "full"
    r = dg.add(float(rng.uniform(1.0, 2.0)))
    u_sph, v_sph = _sphere_start(rng, dg, r)
    # a meridian towards the pole, reached at half the integration length
    theta0 = dg.add(float(rng.uniform(0.4, 0.8)))
    phi0 = dg.add(float(rng.uniform(0.0, 2.0 * math.pi)))
    rate = theta0 / (0.5 * GEODESIC_TAU)
    u_pole, v_pole = np.array([theta0, phi0]), np.array([-rate, 0.0])
    big_r, tube = dg.add(float(rng.uniform(1.5, 2.5)), float(rng.uniform(0.4, 0.6)))
    u_tor = dg.add(np.array([rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)]))
    v_tor = dg.add(rng.normal(size=2) * 0.5)
    u_g3 = dg.add(rng.uniform(-0.3, 0.3, size=3))
    v_g3 = dg.add(rng.normal(size=3) * 0.5)
    paths = [("stored@2k", None, 2000), ("stored@10k", None, 10000)]
    if full:
        paths += [("rand2@10k", 2, 10000), ("rand4@2k", 4, 2000)]
    rand_xy = {}
    for name, n, _ in paths:
        if n is not None:
            rand_xy[name] = dg.add(_antihermitian(rng, n, 0.6), _antihermitian(rng, n, 0.5))
    # three Stokes loops put the median operation inside their cluster
    stokes = []
    for _ in range(3 if full else 1):
        stokes.append((dg.add(tuple(float(x) for x in rng.uniform(-0.5, 0.5, size=2))),
                       dg.add(float(rng.choice([0.1, 0.05])))))
    oracles = {name: {} for name, _, _ in paths}

    def sphere_metric(u):
        return np.diag([r * r, (r * math.sin(u[0])) ** 2])

    def torus_metric(u):
        return np.diag([tube * tube, (big_r + tube * math.cos(u[0])) ** 2])

    def on_great_circle(res):
        at = _great_circle(r, u_sph, v_sph)
        for s in res[:: len(res) // 4] + [res[-1]]:
            gap = float(np.linalg.norm(_sphere_embed(r, s.u)[0] - at(s.tau)))
            if gap >= GEODESIC_TOL * r:
                return f"sphere geodesic {gap:.3g} off its great circle at tau={s.tau:g}"
        return None

    def on_meridian(res):
        for s in res:
            gap = max(abs(s.u[0] - (theta0 - rate * s.tau)), abs(s.u[1] - phi0))
            if gap >= GEODESIC_TOL:
                return f"meridian geodesic {gap:.3g} off the closed form at tau={s.tau:g}"
        if res[-1].u[0] > 0.05:
            return f"meridian geodesic stopped at theta={res[-1].u[0]:.3g}, short of the pole"
        return None

    def build(counter):
        sphere = hypersurface.sphere(r=r)
        slots = [
            _geodesic_slot("sphere", sphere, counter, u_sph, v_sph, sphere_metric, False,
                           on_great_circle),
            _geodesic_slot("sphere_pole", sphere, counter, u_pole, v_pole, sphere_metric,
                           True, on_meridian),
        ]
        if full:
            slots += [
                _geodesic_slot("torus", hypersurface.torus(big_r=big_r, r=tube), counter,
                               u_tor, v_tor, torus_metric, False, lambda res: None),
                _geodesic_slot("graph3", graph3_chart(), counter, u_g3, v_g3, graph3_metric,
                               False, lambda res: None),
            ]
        for name, n, steps in paths:
            if n is None:
                path = transport.stored_test_path(steps)
            else:
                x, y = rand_xy[name]
                path = transport.ConnectionPath(A=lambda s, x=x, y=y: s * x + y,
                                                s_range=(0.0, 1.0), n_steps=steps)
            slots.append(_pi_slot(name, path, counter, oracles[name]))
        slots += [_stokes_slot(base, eps, counter) for base, eps in stokes]
        return slots

    return Inputs(dg.hexdigest(), build)


# ---------------------------------------------------------------------------
# operator_bounds

# (n, p, state kind, exact linear dependency); "fock" is the oscillator family
FAMILIES_FULL = (
    (4, 3, "density", False), (4, 3, "gibbs", False), (4, 3, "vector", False),
    (16, 10, "trace", False), (16, 10, "density", False), (16, 10, "gibbs", True),
    (16, 10, "vector", False), (64, 20, "density", False), (64, 20, "trace", False),
    ("fock", 64, "vector", False),
)
FAMILIES_TINY = ((4, 3, "density", False), (4, 3, "gibbs", True), ("fock", 16, "vector", False))
BOUND_OPS = ("gram", "project", "cauchy_schwarz_check", "gram_schmidt",
             "fluctuation_bound", "energy_bound", "pair_product_bound", "gibbs_force")
# expected outcome on a family with an exact linear dependency
DEPENDENT_OUTCOME = {
    "project": "warn", "fluctuation_bound": "warn", "energy_bound": "warn",
    "cauchy_schwarz_check": SingularGramError, "gibbs_force": SingularGramError,
    "gram_schmidt": LinearDependenceError,
}


def _coherent(alpha, dim):
    n = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    amps = np.exp(n * math.log(alpha) - 0.5 * log_fact).astype(complex)
    return amps / np.linalg.norm(amps)


def _gibbs_rho(h, beta):
    """Thermal density matrix by scipy's expm, a route independent of State.gibbs."""
    from scipy.linalg import expm
    shift = np.linalg.eigvalsh(h)[0]
    w = expm(-beta * (h - shift * np.eye(h.shape[0])))
    return w / np.trace(w).real


def _ref_gram(rho, xs, ys=None) -> np.ndarray:
    """Re phi((x_i' y_j + y_j' x_i) / 2) for all pairs, with phi = Tr(rho .)."""
    xs = np.stack(xs)
    ys = xs if ys is None else np.stack(ys)
    a = np.einsum("ml,ikl,jkm->ij", rho, xs.conj(), ys, optimize=True)
    b = np.einsum("ml,jkl,ikm->ij", rho, ys.conj(), xs, optimize=True)
    return 0.5 * (a + b).real


def _family(rng, dg, spec):
    n, p, state_kind, dependent = spec
    fam = {"n": n, "dependent": dependent}
    if n == "fock":
        dim = p
        fam["bs"] = [algebra.fock_position(dim).m, algebra.fock_momentum(dim).m]
        fam["h"] = algebra.harmonic_hamiltonian(dim).m
        fam["a"] = fam["bs"][0] @ fam["bs"][0]
        psi = dg.add(_coherent(float(rng.uniform(0.5, 1.5)), dim))
        fam["rho"] = np.outer(psi, psi.conj())
        fam["state"] = algebra.State.vector(psi)
        fam["beta"] = dg.add(float(rng.uniform(1.0, 4.0)))
        return fam
    scale = math.sqrt(n)
    bs = [dg.add(_rand_hermitian(rng, n, scale)) for _ in range(p)]
    if dependent:
        c1, c2 = dg.add(float(rng.uniform(0.5, 1.5)), float(rng.uniform(-1.5, -0.5)))
        bs[-1] = c1 * bs[0] + c2 * bs[1]
    fam["bs"] = bs
    fam["h"] = dg.add(_rand_hermitian(rng, n, scale))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    fam["a"] = dg.add(scale * m / np.linalg.norm(m))
    fam["beta"] = dg.add(float(rng.uniform(0.5, 2.0)))
    if state_kind == "trace":
        fam["rho"] = np.eye(n) / n
        fam["state"] = algebra.State.normalized_trace()
    elif state_kind == "density":
        fam["rho"] = dg.add(_rand_density(rng, n))
        fam["state"] = algebra.State.density(fam["rho"])
    elif state_kind == "vector":
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi = dg.add(psi / np.linalg.norm(psi))
        fam["rho"] = np.outer(psi, psi.conj())
        fam["state"] = algebra.State.vector(psi)
    else:
        hs, beta_s = dg.add(_rand_hermitian(rng, n, scale), float(rng.uniform(0.5, 2.0)))
        fam["rho"] = _gibbs_rho(hs, beta_s)
        fam["state"] = algebra.State.gibbs(hs, beta_s)
    return fam


def _bound_call(op, fam):
    phi, el = fam["state"], algebra.AlgebraElement
    bs = [el(b) for b in fam["bs"]]
    a, h = el(fam["a"]), el(fam["h"])
    if op == "gram":
        return lambda: projection.gram(phi, CFG, bs)
    if op == "project":
        return lambda: projection.project(phi, CFG, a, bs)
    if op == "cauchy_schwarz_check":
        return lambda: projection.cauchy_schwarz_check(phi, CFG, a, bs)
    if op == "gram_schmidt":
        return lambda: projection.gram_schmidt(phi, CFG, bs)
    if op == "fluctuation_bound":
        return lambda: uncertainty.fluctuation_bound(phi, CFG, h, bs)
    if op == "energy_bound":
        return lambda: uncertainty.energy_bound(CONSTS, phi, h, bs)
    if op == "pair_product_bound":
        return lambda: uncertainty.pair_product_bound(phi, bs[0], bs[1])
    return lambda: hypersurface.gibbs_force(CONSTS, bs, h, fam["beta"])


def _margin_error(name, rep):
    if not rep.margin >= -MARGIN_TOL:
        return f"{name} margin {rep.margin:.3g} below -{MARGIN_TOL:g}"
    return None


def _bound_check(op, fam):
    rho, bs, a, h = fam["rho"], fam["bs"], fam["a"], fam["h"]
    eye = np.eye(h.shape[0])
    memo = {}

    def once(key, fn):
        if key not in memo:
            memo[key] = fn()
        return memo[key]

    def expect(val):
        return float(np.trace(rho @ val).real)

    def near(got, want, tol):
        return abs(got - want) <= tol * max(1.0, abs(want))

    def check(out, obs):
        if op == "gram":
            ref = once("gram", lambda: _ref_gram(rho, bs))
            if out.is_full_rank == fam["dependent"]:
                return f"is_full_rank is {out.is_full_rank} on a family with dependency={fam['dependent']}"
            gap = float(np.abs(out.m - ref).max())
            if gap > 1e-10 * max(1.0, float(np.abs(ref).max())):
                return f"Gram entries differ from the einsum route by {gap:.3g}"
            return None
        if op == "project":
            aa = once("aa", lambda: float(_ref_gram(rho, [a])[0, 0]))
            total = out.norm_sq_parallel + out.residual
            if not near(total, aa, IDENTITY_TOL):
                return f"norm_sq_parallel + residual = {total!r}, a.a = {aa!r}"
            if not out.residual >= -MARGIN_TOL:
                return f"negative projection residual {out.residual:.3g}"
            def lstsq_residual():
                cross = _ref_gram(rho, [a], bs)[0]
                w = np.linalg.lstsq(_ref_gram(rho, bs), cross, rcond=1e-10)[0]
                return aa - float(cross @ w)

            if not near(out.residual, once("lstsq", lstsq_residual), 1e-8 * max(1.0, aa)):
                return "projection residual differs from the least-squares route"
            return None
        if op == "cauchy_schwarz_check":
            residual, ratio = out
            if not residual >= -MARGIN_TOL:
                return f"Cauchy-Schwarz residual {residual:.3g} is negative"
            denom = max(abs(residual), abs(ratio), 1e-9)
            if not (abs(residual - ratio) / denom < CS_REL_TOL or abs(residual - ratio) < CS_ABS_TOL):
                return f"residual {residual!r} and determinant ratio {ratio!r} disagree"
            return None
        if op == "gram_schmidt":
            _, onb = out
            gap = float(np.abs(_ref_gram(rho, [o.m for o in onb]) - np.eye(len(onb))).max())
            if gap >= ORTHO_TOL:
                return f"orthonormal set is off by {gap:.3g}"
            return None
        if op == "fluctuation_bound":
            dh = h - expect(h) * eye
            if not near(out.lhs, expect(dh.conj().T @ dh), IDENTITY_TOL):
                return f"fluctuation lhs {out.lhs!r} is not the variance"
            return _margin_error("fluctuation bound", out)
        if op == "energy_bound":
            raw, fluct = out
            if not near(raw.lhs, expect(h @ h), IDENTITY_TOL):
                return f"energy bound lhs {raw.lhs!r} is not phi(h^2)"
            return _margin_error("raw energy bound", raw) or _margin_error("fluctuation energy bound", fluct)
        if op == "pair_product_bound":
            b0, b1 = bs[0], bs[1]
            if not near(out.lhs, expect(b0 @ b0) * expect(b1 @ b1), IDENTITY_TOL):
                return f"pair product lhs {out.lhs!r} differs from phi(a^2) phi(b^2)"
            return _margin_error("pair product bound", out)
        def force():
            rho_b = _gibbs_rho(h, fam["beta"])
            vel = [1j * (h @ b - b @ h) for b in bs]
            return -np.linalg.solve(_ref_gram(rho_b, bs), _ref_gram(rho_b, bs, vel))

        ref = once("force", force)
        gap = float(np.abs(out - ref).max())
        if gap > 1e-8 * max(1.0, float(np.abs(ref).max())):
            return f"Gibbs force differs from the expm route by {gap:.3g}"
        return None

    return check


def build_operator_bounds(seed: int, size: str) -> Inputs:
    rng = np.random.default_rng(seed)
    dg = Digest()
    specs = FAMILIES_FULL if size == "full" else FAMILIES_TINY
    families = [_family(rng, dg, spec) for spec in specs]

    def build(counter):
        slots = []
        for fam in families:
            label = "fock" if fam["n"] == "fock" else f"n{fam['n']}"
            for op in BOUND_OPS:
                outcome = DEPENDENT_OUTCOME.get(op) if fam["dependent"] else None
                slots.append(Slot(
                    kind=f"{op}:{label}", call=_bound_call(op, fam), check=_bound_check(op, fam),
                    expect_error=outcome if isinstance(outcome, type) else None,
                    expect_warning=outcome == "warn",
                    probe="blas" if fam["n"] == 64 else "python"))
        return slots

    return Inputs(dg.hexdigest(), build)


def build(name: str, seed: int, size: str) -> Inputs:
    """Generate the inputs of workload ``name`` from ``seed``."""
    builders = {"chart_sweep": build_chart_sweep, "path_integrators": build_path_integrators,
                "operator_bounds": build_operator_bounds}
    return builders[name](seed, size)
