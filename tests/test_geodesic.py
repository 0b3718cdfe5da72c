"""The RK4 geodesic: pinned trajectory bits, its array storage and list
behaviour, its health numbers, and its velocity and overflow errors."""

import hashlib
import math
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from opgeom.algebra import DotConfig, State
from opgeom.errors import EvaluationError
from opgeom.hypersurface import (
    GeodesicState,
    christoffel,
    covariant_derivative,
    curvature,
    geodesic,
    metric,
    paraboloid,
    sphere,
    torus,
)

from .test_stacked_charts import NonDiagonal, stacked_graph3
from .test_transport import graph3_chart

SUM = State.unnormalized_sum()
CFG = DotConfig()

# SHA-256 of each trajectory below, in `sha256sum` format, pinned from the
# per-state implementation; regenerate with
#   PYTHONPATH=src python3 -c "from tests.test_geodesic import write_digests; write_digests()"
# only after a change that is meant to move geodesic bits
TRAJECTORY_DIGESTS = Path(__file__).resolve().parent / "data" / "geodesic_trajectories.sha256"

# name -> (chart factory, u0, v0, tau_max, step): the bench's four geodesic kinds
# (a great circle, a meridian run into the pole, a torus, a per-point graph3),
# the same graph3 stacked, and a chart whose dot products take the Gram kernel
TRAJECTORIES = {
    "sphere": (lambda: sphere(r=1.3), [1.2, 0.4], [0.55, 0.35], 2.0, 0.01),
    "sphere_pole": (sphere, [0.6, 1.0], [-0.6, 0.0], 2.0, 0.01),
    "torus": (lambda: torus(big_r=2.1, r=0.45), [4.1, 0.7], [0.3, -0.45], 2.0, 0.01),
    "graph3": (graph3_chart, [0.1, -0.2, 0.25], [0.4, 0.3, -0.5], 2.0, 0.01),
    "graph3_stacked": (stacked_graph3, [0.1, -0.2, 0.25], [0.4, 0.3, -0.5], 2.0, 0.01),
    "nondiag": (lambda: NonDiagonal().chart(), [0.2, -0.1], [0.5, 0.3], 0.5, 0.01),
}


def trajectory_digest(res) -> str:
    """SHA-256 of every state's tau, u and udot bytes, in order, and the flag."""
    h = hashlib.sha256()
    for s in res:
        h.update(struct.pack("<d", s.tau) + s.u.tobytes() + s.udot.tobytes())
    h.update(b"left" if res.left_domain else b"kept")
    return h.hexdigest()


def run(name):
    make, u0, v0, tau_max, step = TRAJECTORIES[name]
    return geodesic(make(), SUM, CFG, np.array(u0), np.array(v0), tau_max, step)


def write_digests():
    lines = [f"{trajectory_digest(run(name))}  {name}" for name in TRAJECTORIES]
    TRAJECTORY_DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", list(TRAJECTORIES))
def test_trajectory_bits_match_the_pinned_digests(name):
    want = dict(reversed(line.split()) for line in
                TRAJECTORY_DIGESTS.read_text(encoding="utf-8").splitlines())
    res = run(name)
    assert res.left_domain == (name == "sphere_pole")
    assert trajectory_digest(res) == want[name]


# ---------------------------------------------------------------------------
# array storage and list behaviour

def test_a_stored_step_takes_at_most_64_bytes():
    # tau (8 bytes), u and udot (16 each) per state for p = 2, and a fixed rest
    chart, u0, v0 = torus(), np.array([1.0, 0.3]), np.array([0.3, 0.8])
    geodesic(chart, SUM, CFG, u0, v0, 0.1, 0.05)  # caches filled outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = geodesic(chart, SUM, CFG, u0, v0, 4.0, 0.01)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(res) == 401 and not res.left_domain
    assert kept / len(res) <= 64


def test_a_huge_step_count_that_leaves_early_returns_what_it_reached():
    # 1e11 steps: the arrays grow with the states reached, so the run into
    # the pole stops as the pinned 2.0-long one does, with the same bits
    make, u0, v0, _, step = TRAJECTORIES["sphere_pole"]
    want = dict(reversed(line.split()) for line in
                TRAJECTORY_DIGESTS.read_text(encoding="utf-8").splitlines())
    tracemalloc.start()
    try:
        res = geodesic(make(), SUM, CFG, np.array(u0), np.array(v0), 1e9, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.left_domain and len(res) == 100 and res.left_at == res[-1].tau
    assert trajectory_digest(res) == want["sphere_pole"]
    assert peak < 1 << 20


def test_a_result_reads_as_a_list_of_states():
    res = run("sphere_pole")
    n = len(res)
    assert n == len(res.tau) == len(res.u) == len(res.udot) == 100
    states = list(res)
    assert len(states) == n and all(isinstance(s, GeodesicState) for s in states)
    for i in (0, 37, n - 1, -1, -n):
        s = res[i]
        assert type(s.tau) is float and s.tau == float(res.tau[i])
        assert s.u.tobytes() == res.u[i].tobytes() and s.udot.tobytes() == res.udot[i].tobytes()
        assert s.u.base is not None  # a view of the stored rows, not a copy
    for k in (1, 4, n // 4, 1000):
        part = res[::k]
        assert isinstance(part, list) and [s.tau for s in part] == [float(t) for t in res.tau[::k]]
        assert (part + [res[-1]])[-1].tau == res.tau[-1]
    assert [s.tau for s in res[-3:]] == [float(t) for t in res.tau[-3:]]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            res[i]
    with pytest.raises(ValueError):
        res[0].u[0] = 1.0  # the stored trajectory is read-only


# ---------------------------------------------------------------------------
# health numbers

def test_speed_drift_matches_the_metric_at_each_state_a_step_started_from():
    make, u0, v0, tau_max, step = TRAJECTORIES["torus"]
    chart = make()
    res = run("torus")
    forms = [float(s.udot @ metric(chart, SUM, CFG, s.u).g @ s.udot) for s in res[:-1]]
    want = max(abs(f - forms[0]) for f in forms) / forms[0]
    assert 0.0 < res.speed_drift < 1e-6
    assert abs(res.speed_drift - want) < 1e-14
    conds = [np.linalg.cond(metric(chart, SUM, CFG, s.u).g) for s in res[:-1]]
    assert max(conds) * (1 - 1e-9) <= res.metric_cond_max
    assert res.left_at is None


def test_metric_cond_max_bounds_every_state_of_a_three_parameter_run():
    # graph3's 3x3 metrics solve by their cofactors, with cond from singular values
    make, u0, v0, tau_max, step = TRAJECTORIES["graph3"]
    chart = make()
    res = run("graph3")
    conds = [np.linalg.cond(metric(chart, SUM, CFG, s.u).g) for s in res[:-1]]
    assert max(conds) * (1 - 1e-9) <= res.metric_cond_max


def test_an_equator_run_drifts_below_criterion_10s_bound():
    res = geodesic(sphere(), SUM, CFG, np.array([math.pi / 2.0, 0.0]), np.array([0.0, 1.0]),
                   tau_max=2.0 * math.pi, step=1e-2)
    assert not res.left_domain and res.speed_drift < 1e-6
    assert abs(res.metric_cond_max - 1.0) < 1e-6  # the identity metric on the equator


def test_a_run_that_leaves_reports_where():
    res = run("sphere_pole")
    assert res.left_domain and res.left_at == res[-1].tau == float(res.tau[-1]) > 0.0
    # the metric is worst conditioned nearest the pole: at the last completed
    # step's fourth stage, next to the last state
    worst = np.linalg.cond(metric(sphere(), SUM, CFG, res[-1].u).g)
    assert worst > 1e4 and abs(res.metric_cond_max / worst - 1.0) < 1e-6


def test_a_run_that_completes_no_step_has_no_health_numbers():
    res = geodesic(paraboloid(), SUM, CFG, [1e200, 0.0], [1.0, 0.0], 0.1, 0.05)
    assert res.left_domain and len(res) == 1 and res.left_at == 0.0
    assert res.speed_drift is None and res.metric_cond_max is None


# ---------------------------------------------------------------------------
# typed errors with no NumPy warning first

@pytest.mark.parametrize("make", [torus, sphere, paraboloid], ids=lambda f: f.__name__)
@pytest.mark.parametrize("v0", [(1e160, 1e160), (1e300, 0.0)], ids=["both", "one"])
def test_an_overflowing_initial_velocity_is_a_value_error(make, v0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"v0 .* squared norm overflows"):
            geodesic(make(), SUM, CFG, [1.0, 0.3], v0, 0.1, 0.05)


@pytest.mark.parametrize("make, v0", [(sphere, (1e150, 0.0)), (torus, (1e150, 1e150))],
                         ids=["sphere", "torus"])
def test_a_velocity_overflowing_mid_step_leaves_the_domain(make, v0):
    # g(v0, v0) is finite; the first stage's rounding noise, times |v0|^2,
    # accelerates the second stage's velocity past the overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = geodesic(make(), SUM, CFG, [1.0, 0.3], v0, 0.1, 0.05)
    assert res.left_domain and len(res) == 1


@pytest.mark.parametrize("call", [
    lambda c: metric(c, SUM, CFG, [1.0, 0.3]),
    lambda c: christoffel(c, SUM, CFG, [1.0, 0.3]),
    lambda c: christoffel(c, SUM, CFG, [1.0, 0.3], method="metric"),
    lambda c: curvature(c, SUM, CFG, [1.0, 0.3]),
    lambda c: geodesic(c, SUM, CFG, [1.0, 0.3], [0.3, 0.8], 0.1, 0.05),
], ids=["metric", "christoffel", "christoffel-metric", "curvature", "geodesic"])
def test_an_overflowing_metric_is_the_guarded_solves_value_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite, or too large"):
            call(sphere(r=1e300))


def test_a_complex_vector_field_is_an_evaluation_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="vector field must be real"):
            covariant_derivative(sphere(), SUM, CFG, [1.0, 0.3], lambda u: np.array([1j, 1.0]))
