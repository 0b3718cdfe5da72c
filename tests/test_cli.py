"""Command-line interface: output schemas, determinism, exit codes."""

import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from opgeom import hypersurface
from opgeom.algebra import (
    AlgebraElement,
    DotConfig,
    State,
    embed_diag,
    matrix_from_json,
    matrix_to_json,
    state_to_json,
)
from opgeom.cli import REPORT_SAMPLE_COUNT, XorShift64Star, _fmt_float, report, run
from opgeom.hypersurface import GeodesicResult, chart_to_json, sphere
from opgeom.projection import parallelepiped_volume
from opgeom.transport import product_integral, stored_test_path

from .test_hypersurface import paraboloid_grid

SIN09 = math.sin(0.9)


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def write_matrix(path, values):
    arr = np.asarray(values, dtype=complex)
    return write_json(path, matrix_to_json(AlgebraElement(arr)))


def run_ok(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def run_json(capsys, argv):
    return json.loads(run_ok(capsys, argv))


def run_err(capsys, argv, expect_code, expect_tag):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expect_code
    assert captured.err.startswith(expect_tag)
    return captured.err


# ---------------------------------------------------------------------------
# rng

def test_xorshift_is_deterministic_and_uniform():
    a = XorShift64Star(7)
    b = XorShift64Star(7)
    seq = [a.random() for _ in range(1000)]
    assert seq == [b.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in seq)
    assert abs(np.mean(seq) - 0.5) < 0.05
    assert XorShift64Star(8).random() != seq[0]
    lo, hi = XorShift64Star(1).uniform(2.0, 3.0), XorShift64Star(1).uniform(2.0, 3.0)
    assert lo == hi and 2.0 <= lo < 3.0


def test_xorshift_outputs_follow_the_published_recurrence():
    # xorshift64* (Vigna, ACM TOMS 42, 2016): shifts 12, 25, 27 and the
    # multiplier 0x2545F4914F6CDD1D, all modulo 2^64, from state seed ^ 0x9E3779B97F4A7C15
    mask = (1 << 64) - 1
    for seed in (0, 1, 7, 2**63 + 5):
        x, rng = seed ^ 0x9E3779B97F4A7C15, XorShift64Star(seed)
        for _ in range(50):
            x ^= x >> 12
            x ^= (x << 25) & mask
            x ^= x >> 27
            assert rng.next_u64() == (x * 0x2545F4914F6CDD1D) & mask
    with pytest.raises(ValueError, match="seed must be an integer, got 2.7"):
        XorShift64Star(2.7)  # int() truncated it to seed 2


def test_the_seed_whose_state_would_be_zero_draws_as_seed_zero():
    # a zero state would stay zero; the generator starts it where seed 0 does
    a, b = XorShift64Star(0x9E3779B97F4A7C15), XorShift64Star(0)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


# ---------------------------------------------------------------------------
# algebraic subcommands

def test_gram_output(tmp_path, capsys):
    m1 = write_matrix(tmp_path / "m1.json", np.diag([1.0, 0.0]))
    m2 = write_matrix(tmp_path / "m2.json", np.diag([0.0, 1.0]))
    doc = run_json(capsys, ["gram", "--matrix", m1, "--matrix", m2])
    assert np.allclose(doc["m"], [[0.5, 0.0], [0.0, 0.5]], atol=1e-14)
    assert abs(doc["det"] - 0.25) < 1e-14
    assert doc["full_rank"] is True


def test_gram_byte_stable(tmp_path, capsys):
    m1 = write_matrix(tmp_path / "m1.json", np.diag([1.3, -0.7]))
    out1 = run_ok(capsys, ["gram", "--matrix", m1])
    out2 = run_ok(capsys, ["gram", "--matrix", m1])
    assert out1 == out2


def test_project_output(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.diag([1.0, 1.0]))
    b = write_matrix(tmp_path / "b.json", np.diag([1.0, 0.0]))
    doc = run_json(capsys, ["project", "--matrix", a, "--matrix", b])
    # coefficients minimize |a + lam b|, so the span expansion is -lam
    assert np.allclose(doc["coefficients"], [-1.0], atol=1e-12)
    assert abs(doc["norm_sq_parallel"] - 0.5) < 1e-12
    assert abs(doc["residual"] - 0.5) < 1e-12
    par = matrix_from_json(doc["parallel"])
    assert np.allclose(par.m, np.diag([1.0, 0.0]), atol=1e-12)


def test_project_needs_reference(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.diag([1.0, 1.0]))
    run_err(capsys, ["project", "--matrix", a], 1, "E_INPUT")


def test_orthonormalize_output(tmp_path, capsys):
    m1 = write_matrix(tmp_path / "m1.json", np.diag([1.0, 0.0, 0.0]))
    m2 = write_matrix(tmp_path / "m2.json", np.diag([1.0, 1.0, 0.0]))
    doc = run_json(capsys, ["orthonormalize", "--matrix", m1, "--matrix", m2])
    onb = [matrix_from_json(o) for o in doc["orthonormal"]]
    assert len(onb) == 2
    # trace state normalizes diag(1,0,0) to diag(sqrt 3, 0, 0)
    assert np.allclose(onb[0].m, np.diag([math.sqrt(3.0), 0.0, 0.0]), atol=1e-12)
    assert np.allclose(onb[1].m, np.diag([0.0, math.sqrt(3.0), 0.0]), atol=1e-12)


def test_orthonormalize_dependent_is_numeric_error(tmp_path, capsys):
    m1 = write_matrix(tmp_path / "m1.json", np.diag([1.0, 2.0]))
    m2 = write_matrix(tmp_path / "m2.json", np.diag([2.0, 4.0]))
    run_err(capsys, ["orthonormalize", "--matrix", m1, "--matrix", m2],
            2, "E_NUMERIC")


def test_uncertainty_output(tmp_path, capsys):
    x = write_matrix(tmp_path / "x.json", np.array([[0, 1], [1, 0]]))
    z = write_matrix(tmp_path / "z.json", np.diag([1.0, -1.0]))
    st = write_json(tmp_path / "st.json",
                    state_to_json(State.vector(np.array([1.0, 0.0], dtype=complex))))
    doc = run_json(capsys, ["uncertainty", "--matrix", x, "--matrix", z,
                            "--state", st])
    # <x^2><z^2> = 1, |<[x,z]>| = 0 in the up state
    assert abs(doc["lhs"] - 1.0) < 1e-12
    assert abs(doc["rhs"]) < 1e-12
    assert doc["satisfied"] is True
    assert "commutator_abs" in doc
    run_err(capsys, ["uncertainty", "--matrix", x], 1, "E_INPUT")


def test_energy_bound_output(tmp_path, capsys):
    h = write_matrix(tmp_path / "h.json", np.diag([0.0, 1.0, 3.0]))
    b1 = write_matrix(tmp_path / "b1.json", np.diag([1.0, 2.0, 0.0]))
    b2 = write_matrix(tmp_path / "b2.json", np.diag([2.0, 0.0, 1.0]))
    doc = run_json(capsys, ["energy-bound", "--matrix", h, "--matrix", b1,
                            "--matrix", b2])
    assert set(doc) == {"raw", "fluctuation"}
    assert abs(doc["raw"]["lhs"] - 10.0 / 3.0) < 1e-12
    assert abs(doc["raw"]["rhs"]) < 1e-12
    assert doc["fluctuation"]["satisfied"] is True


def test_volume_output(tmp_path, capsys):
    vecs = [np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.5, 1.0])]
    files = [write_matrix(tmp_path / f"v{i}.json", np.diag(v))
             for i, v in enumerate(vecs)]
    argv = ["volume"]
    for f in files:
        argv += ["--matrix", f]
    doc = run_json(capsys, argv)
    assert doc["count"] == 2
    assert abs(doc["volume_sq"]
               - parallelepiped_volume(vecs, normalized=True)) < 1e-12
    # sum state switches off trace normalization
    st = write_json(tmp_path / "sum.json", state_to_json(State.unnormalized_sum()))
    doc2 = run_json(capsys, argv + ["--state", st])
    assert abs(doc2["volume_sq"]
               - parallelepiped_volume(vecs, normalized=False)) < 1e-12


def test_volume_rejects_nondiagonal(tmp_path, capsys):
    m = write_matrix(tmp_path / "m.json", np.array([[1.0, 0.5], [0.5, 2.0]]))
    run_err(capsys, ["volume", "--matrix", m], 1, "E_INPUT")


def test_killing_output(tmp_path, capsys):
    f = np.zeros((3, 3, 3))
    for r, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        f[r, a, b] = 1.0
        f[r, b, a] = -1.0
    path = write_json(tmp_path / "su2.json", {"d": 3, "f": f.reshape(-1).tolist()})
    doc = run_json(capsys, ["killing", "--matrix", path])
    assert np.allclose(doc["g"], (2.0 / 3.0) * np.eye(3), atol=1e-12)


def test_bad_killing_file_names_the_file(tmp_path, capsys):
    # read by the one input-file rule, as a matrix or chart file is
    path = write_json(tmp_path / "constants.json", {"d": 2})
    err = run_err(capsys, ["killing", "--matrix", path], 1, "E_INPUT")
    assert err == f"E_INPUT bad structure constants file {path}: 'f'\n"


def test_killing_jacobi_violation_is_numeric_error(tmp_path, capsys):
    f = np.zeros((3, 3, 3))
    for r, a, b in ((2, 0, 1), (0, 1, 2), (0, 2, 0)):
        f[r, a, b] = 1.0
        f[r, b, a] = -1.0
    path = write_json(tmp_path / "bad.json", {"d": 3, "f": f.reshape(-1).tolist()})
    run_err(capsys, ["killing", "--matrix", path], 2, "E_NUMERIC")


def test_killing_without_a_generator_is_one_input_error(tmp_path, capsys):
    # it was NumPy's "zero-size array to reduction operation maximum" ValueError
    path = write_json(tmp_path / "empty.json", {"d": 0, "f": []})
    err = run_err(capsys, ["killing", "--matrix", path], 1, "E_INPUT")
    assert err == "E_INPUT a Lie algebra needs d >= 1 generators, got 0\n"


@pytest.mark.parametrize("argv, obj", [
    (["gram", "--matrix"], {"dim": 2.7, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}),
    (["killing", "--matrix"], {"d": 2.9, "f": [0.0] * 8}),
    (["metric", "--point", "0.5", "--chart"],
     {"id": "custom_grid", "params": {"axes": [[0.0, 1.0]], "dim": 1.5, "values_re": [1.0, 2.0]}}),
], ids=["matrix-dim", "killing-d", "custom-grid-dim"])
def test_a_fractional_count_in_a_file_is_one_input_error(tmp_path, capsys, argv, obj):
    # each was truncated by int() and the run exited 0
    path = write_json(tmp_path / "input.json", obj)
    err = run_err(capsys, argv + [path], 1, "E_INPUT")
    assert err.count("\n") == 1 and "must be an integer, got " in err


def test_a_matrix_dim_below_one_is_one_input_error(tmp_path, capsys):
    # checked before NumPy's reshape, whose error ("can only specify one unknown
    # dimension") names no dimension
    path = write_json(tmp_path / "m.json", {"dim": -1, "re": [1.0], "im": [0.0]})
    err = run_err(capsys, ["gram", "--matrix", path], 1, "E_INPUT")
    assert err == f"E_INPUT bad matrix file {path}: matrix dim must be at least 1, got -1\n"


# ---------------------------------------------------------------------------
# geometry subcommands

@pytest.fixture
def sphere_file(tmp_path):
    return write_json(tmp_path / "sphere.json", {"id": "sphere", "params": {"r": 1.0}})


@pytest.fixture
def flat_file(tmp_path):
    return write_json(tmp_path / "flat.json", {"id": "flat_plane"})


def test_metric_output(sphere_file, capsys):
    doc = run_json(capsys, ["metric", "--chart", sphere_file, "--point", "0.9,0.5"])
    g = np.asarray(doc["g"])
    assert np.abs(g - np.diag([1.0, SIN09 * SIN09])).max() < 1e-6
    assert np.abs(np.asarray(doc["g_inv"]) @ g - np.eye(2)).max() < 1e-10
    assert abs(doc["det"] - SIN09 * SIN09) < 1e-5


def test_metric_bad_point(sphere_file, capsys):
    run_err(capsys, ["metric", "--chart", sphere_file, "--point", "0.9"],
            1, "E_INPUT")
    run_err(capsys, ["metric", "--chart", sphere_file, "--point", "a,b"],
            1, "E_INPUT")
    run_err(capsys, ["metric", "--point", "0.9,0.5"], 1, "E_INPUT")


def test_missing_chart_file(capsys):
    run_err(capsys, ["metric", "--chart", "/nonexistent/chart.json",
                     "--point", "0.9,0.5"], 1, "E_INPUT")


def test_christoffel_output(sphere_file, capsys):
    pt = f"{math.pi / 4.0},1.1"
    direct = run_json(capsys, ["christoffel", "--chart", sphere_file,
                               "--point", pt])
    viametric = run_json(capsys, ["christoffel", "--chart", sphere_file,
                                  "--point", pt, "--method", "metric"])
    g1 = np.asarray(direct["gamma"])
    g2 = np.asarray(viametric["gamma"])
    assert direct["method"] == "direct"
    assert viametric["method"] == "metric"
    assert abs(g1[0][1][1] - (-0.5)) < 1e-5
    assert np.abs(g1 - g2).max() < 1e-5


def test_curvature_output(sphere_file, capsys):
    doc = run_json(capsys, ["curvature", "--chart", sphere_file,
                            "--point", "0.9,0.5"])
    assert abs(doc["gauss_curvature"] - 1.0) < 1e-4
    riem = np.asarray(doc["riemann"])
    assert riem.shape == (2, 2, 2, 2)


def test_bianchi_output(sphere_file, capsys):
    doc = run_json(capsys, ["bianchi", "--chart", sphere_file,
                            "--point", "0.9,0.5"])
    assert doc["residual"] < 1e-12


def test_bianchi_on_two_parameters_runs_where_curvature_does(tmp_path, capsys):
    # at theta = 0.05 a star of Bianchi stars would cross the pole; the
    # curvature stencils, all a two-parameter residual needs, do not
    path = write_json(tmp_path / "sphere.json", {"id": "sphere"})
    run_ok(capsys, ["curvature", "--chart", path, "--point", "0.05,1.0"])
    out = run_ok(capsys, ["bianchi", "--chart", path, "--point", "0.05,1.0"])
    assert '"residual": 0\n' in out


def test_a_grid_chart_refuses_curvature_with_one_input_error(tmp_path, capsys):
    path = write_json(tmp_path / "grid.json", chart_to_json(paraboloid_grid()))
    err = run_err(capsys, ["curvature", "--chart", path, "--point", "0.1,0.2"], 1, "E_INPUT")
    assert "has no fd_step2" in err and err.count("\n") == 1
    run_ok(capsys, ["metric", "--chart", path, "--point", "0.1,0.2"])


def test_geodesic_csv(flat_file, capsys):
    out = run_ok(capsys, ["geodesic", "--chart", flat_file,
                          "--u0=-0.5,-0.5", "--v0", "1.5,2.5",
                          "--tau", "1.0", "--step", "0.05"])
    lines = out.strip().splitlines()
    assert lines[0] == "tau,u1,u2,du1,du2"
    assert len(lines) == 22  # header + 21 states
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[0] - 1.0) < 1e-12
    assert abs(last[1] - 1.0) < 1e-10 and abs(last[2] - 2.0) < 1e-10
    assert abs(last[3] - 1.5) < 1e-10 and abs(last[4] - 2.5) < 1e-10


def test_geodesic_domain_warning(sphere_file, capsys):
    code = run(["geodesic", "--chart", sphere_file, "--u0", "0.5,0.0",
                "--v0=-1.0,0.0", "--tau", "1.0", "--step", "0.01"])
    captured = capsys.readouterr()
    assert code == 0
    assert "W_LEFT_DOMAIN" in captured.err
    rows = captured.out.strip().splitlines()[1:]
    assert 1 < len(rows) < 101


def test_geodesic_output_is_streamed(flat_file, tmp_path, monkeypatch, capsys):
    # the output phase alone, on a precomputed 10,001-state result: its ~93
    # bytes of text per row are formatted and written a block at a time
    rows = 10_001
    rng = np.random.default_rng(5)
    result = GeodesicResult(np.arange(rows) * 1e-3, rng.normal(size=(rows, 2)),
                            rng.normal(size=(rows, 2)))
    monkeypatch.setattr(hypersurface, "geodesic", lambda *args: result)
    out = tmp_path / "rows.csv"
    tracemalloc.start()
    try:
        code = run(["geodesic", "--chart", flat_file, "--u0=0,0", "--v0=1,0", "--tau", "10",
                    "--step", "1e-3", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak < 1 << 20
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == rows + 1
    assert lines[-1] == ",".join(format(float(v), ".17g") for v in
                                 (result.tau[-1], *result.u[-1], *result.udot[-1]))


def test_geodesic_error_writes_no_out_file(sphere_file, tmp_path, capsys):
    # the trajectory is integrated before the output file is opened
    out = tmp_path / "rows.csv"
    run_err(capsys, ["geodesic", "--chart", sphere_file, "--u0=-1,0", "--v0=1,0",
                     "--tau", "1", "--step", "0.1", "--out", str(out)], 1, "E_INPUT")
    assert not out.exists()


def test_geodesic_missing_args(flat_file, capsys):
    run_err(capsys, ["geodesic", "--chart", flat_file, "--u0", "0,0"],
            1, "E_INPUT")


def test_holonomy_default_path(capsys):
    doc = run_json(capsys, ["holonomy", "--tau", "1.0", "--step", "1e-3"])
    assert doc["n_steps"] == 1000
    got = matrix_from_json(doc["transport"])
    ref = product_integral(stored_test_path(n_steps=1000))
    assert np.abs(got.m - ref).max() < 1e-14


def test_holonomy_two_matrix_form(tmp_path, capsys):
    x = np.array([[0.0, 0.3], [-0.3, 0.0]])
    y = np.array([[0.0, 0.1], [-0.1, 0.0]])
    fx = write_matrix(tmp_path / "x.json", x)
    fy = write_matrix(tmp_path / "y.json", y)
    doc = run_json(capsys, ["holonomy", "--matrix", fx, "--matrix", fy,
                            "--tau", "2.0", "--step", "0.01"])
    got = matrix_from_json(doc["transport"])
    from opgeom.transport import ConnectionPath
    ref = product_integral(ConnectionPath(
        A=lambda s: s * x.astype(complex) + y.astype(complex),
        s_range=(0.0, 2.0), n_steps=200))
    assert np.abs(got.m - ref).max() < 1e-14
    run_err(capsys, ["holonomy", "--matrix", fx, "--tau", "1.0",
                     "--step", "0.01"], 1, "E_INPUT")
    run_err(capsys, ["holonomy", "--tau", "-1.0"], 1, "E_INPUT")


def test_overflowing_connection_is_one_input_error_without_warning(tmp_path):
    # s X overflows for s > 1.8; NumPy's overflow warning must not reach stderr
    fx = write_matrix(tmp_path / "x.json", [[0.0, 1e308], [-1e308, 0.0]])
    fy = write_matrix(tmp_path / "y.json", np.zeros((2, 2)))
    proc = subprocess.run(
        [sys.executable, "-m", "opgeom.cli", "holonomy", "--matrix", fx, "--matrix", fy,
         "--tau", "10", "--step", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "E_INPUT connection samples must be finite\n"
    assert "Warning" not in proc.stderr


HUGE_RUNS = {
    "metric": ["metric", "--chart", "{sphere}", "--point", "1.1,0.7"],
    "curvature": ["curvature", "--chart", "{sphere}", "--point", "1.1,0.7"],
    "geodesic": ["geodesic", "--chart", "{sphere}", "--u0=1.1,0.7", "--v0=0.3,0.8",
                 "--tau", "0.5", "--step", "0.05"],
    "report": ["report", "--chart", "{torus}"],
    "holonomy": ["holonomy", "--matrix", "{x}", "--matrix", "{zero}", "--tau", "1",
                 "--step", "0.5"],
    "stokes": ["stokes", "--point=1e200,0.3"],
    **{cmd: [cmd, "--matrix", "{big}", "--matrix", "{eye}"]
       for cmd in ("project", "orthonormalize", "uncertainty", "energy-bound", "gram",
                   "volume")},
}


@pytest.mark.parametrize("name", list(HUGE_RUNS))
def test_large_finite_input_is_one_error_line_without_warning(tmp_path, capsys, name):
    # a 1e300 radius, a 1e300 connection or a 1e200 matrix entry overflows in
    # the Gram, metric or exponential: one E_ line, no NumPy warning, no traceback
    files = {
        "sphere": write_json(tmp_path / "s.json", {"id": "sphere", "params": {"r": 1e300}}),
        "torus": write_json(tmp_path / "t.json", {"id": "torus", "params": {"R": 1e300, "r": 0.5}}),
        "x": write_matrix(tmp_path / "x.json", [[0.0, 1e300], [-1e300, 0.0]]),
        "zero": write_matrix(tmp_path / "z.json", np.zeros((2, 2))),
        "big": write_matrix(tmp_path / "big.json", np.diag([1e200, 1.0, 2.0])),
        "eye": write_matrix(tmp_path / "eye.json", np.eye(3)),
    }
    argv = [arg.format(**files) for arg in HUGE_RUNS[name]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert [line[:2] for line in err.splitlines()] == ["E_"]
    assert "Traceback" not in err and "Warning" not in err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("tau, step", [
    ("inf", "0.01"), ("nan", "0.01"), ("-inf", "0.01"), ("1.0", "nan"),
    ("1.0", "inf"), ("1e300", "1e-300"), ("1e300", "1"),
])
def test_step_count_must_be_finite_and_fit(flat_file, capsys, tau, step):
    bounds = [f"--tau={tau}", f"--step={step}"]
    for argv in (["holonomy"] + bounds,
                 ["geodesic", "--chart", flat_file, "--u0", "0,0", "--v0", "1,0"] + bounds):
        err = run_err(capsys, argv, 1, "E_INPUT")
        assert err.count("\n") == 1


# inputs the library rejects with a typed error; the CLI only parses them (the
# step-count rule has its own test above)
LIBRARY_CHECKED_RUNS = {
    "point-length": ["metric", "--chart", "{sphere}", "--point", "0.5"],
    "u0-length": ["geodesic", "--chart", "{sphere}", "--u0=0.5", "--v0=1,0",
                  "--tau", "1", "--step", "0.1"],
    "v0-length": ["geodesic", "--chart", "{sphere}", "--u0=1.1,0.7", "--v0=1,0,0",
                  "--tau", "1", "--step", "0.1"],
    "holonomy-shapes": ["holonomy", "--matrix", "{m2}", "--matrix", "{m3}"],
    "stokes-point-length": ["stokes", "--point", "0.2,0.3,0.4"],
    "stokes-step-zero": ["stokes", "--step", "0"],
    "stokes-step-negative": ["stokes", "--step=-0.1"],
    "project-one-matrix": ["project", "--matrix", "{m2}"],
    "energy-bound-one-matrix": ["energy-bound", "--matrix", "{m2}"],
}


@pytest.mark.parametrize("name", list(LIBRARY_CHECKED_RUNS))
def test_library_checked_input_is_one_input_error(tmp_path, capsys, name):
    files = {
        "sphere": write_json(tmp_path / "s.json", {"id": "sphere"}),
        "m2": write_matrix(tmp_path / "m2.json", np.diag([1.0, -1.0])),
        "m3": write_matrix(tmp_path / "m3.json", np.eye(3)),
    }
    argv = [arg.format(**files) for arg in LIBRARY_CHECKED_RUNS[name]]
    err = run_err(capsys, argv, 1, "E_INPUT")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("chart_obj", [
    {"id": "sphere", "fd_step": 0}, {"id": "sphere", "fd_step": -1e-4},
    {"id": "sphere", "fd_step2": 0}, {"id": "torus", "params": {"R": "inf"}},
    {"id": "flat_plane", "fd_step2": 1e-200},
], ids=["fd_step-zero", "fd_step-negative", "fd_step2-zero", "torus-R-inf", "fd_step2-underflow"])
def test_bad_chart_steps_and_radii_are_input_errors(tmp_path, capsys, chart_obj):
    path = write_json(tmp_path / "chart.json", chart_obj)
    err = run_err(capsys, ["metric", "--chart", path, "--point", "0.5,0.4"], 1, "E_INPUT")
    assert err.count("\n") == 1


def test_nonfinite_points_are_input_errors(tmp_path, capsys):
    path = write_json(tmp_path / "torus.json", {"id": "torus"})
    err = run_err(capsys, ["metric", "--chart", path, "--point", "nan,0.4"], 1, "E_INPUT")
    assert "not finite" in err
    for start in (["--u0=nan,0", "--v0=1,0"], ["--u0=0,0", "--v0=nan,1"]):
        err = run_err(capsys, ["geodesic", "--chart", path, *start, "--tau", "1", "--step", "0.1"],
                      1, "E_INPUT")
        assert "must be finite" in err and err.count("\n") == 1
    with pytest.raises(ValueError, match=r"^non-finite value nan in output$"):
        _fmt_float(np.float64("nan"))


@pytest.mark.parametrize("cmd", ["metric", "christoffel", "curvature", "bianchi"])
def test_nonfinite_point_is_one_input_error_for_each_chart_command(tmp_path, capsys, cmd):
    path = write_json(tmp_path / "torus.json", {"id": "torus"})
    err = run_err(capsys, [cmd, "--chart", path, "--point", "nan,0.4"], 1, "E_INPUT")
    assert err.count("\n") == 1


def test_nonfinite_chart_value_is_one_input_error(tmp_path, capsys):
    path = write_json(tmp_path / "para.json", {"id": "paraboloid"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would escape run()
        err = run_err(capsys, ["metric", "--chart", path, "--point", "1e200,0"], 1, "E_INPUT")
    assert "non-finite value" in err and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["curvature", "report", "bianchi"])
def test_second_partials_overflowing_the_dot_are_one_input_error(tmp_path, capsys, cmd):
    # at u = 0 this paraboloid's tangents and metric are finite, while its
    # second partials, 2e200, overflow in their dot products
    path = write_json(tmp_path / "para.json",
                      {"id": "paraboloid", "params": {"a": 1e200}, "fd_step": 1.0})
    argv = [cmd, "--chart", path] + (["--point=0.0,0.0"] if cmd != "report" else [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = run_err(capsys, argv, 1, "E_INPUT")
    assert err.count("\n") == 1 and "not finite" in err and "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("cmd", ["metric", "christoffel", "curvature", "bianchi"])
def test_stencil_leaving_the_chart_is_one_input_error_for_each_chart_command(sphere_file, capsys,
                                                                            cmd):
    err = run_err(capsys, [cmd, "--chart", sphere_file, "--point", "0.00005,0.4"], 1, "E_INPUT")
    assert "outside domain" in err and err.count("\n") == 1


HUGE = 10 ** 400  # an integer no float can hold


@pytest.mark.parametrize("kind, obj", [
    ("chart", {"id": "sphere", "params": {"r": HUGE}}),
    ("chart", {"id": "sphere", "fd_step": HUGE}),
    ("matrix", {"dim": 1, "re": [HUGE], "im": [0.0]}),
    ("state", {"kind": "gibbs", "h": {"dim": 1, "re": [1.0], "im": [0.0]}, "beta": HUGE}),
    ("chart", {"id": "sphere", "state": {"kind": "trace"}}),
    ("chart", {"id": "sphere", "state": "bogus"}),
    ("chart", {"id": "torus", "params": {"big_r": 3.0}}),
    ("chart", {"id": "sphere", "fd_stpe": 0.05}),
], ids=["chart-r-huge", "chart-fd_step-huge", "matrix-re-huge", "gibbs-beta-huge",
        "chart-state-object", "chart-state-bogus", "chart-unknown-param", "chart-unknown-field"])
def test_bad_file_content_is_one_input_error(tmp_path, capsys, kind, obj):
    path = write_json(tmp_path / "input.json", obj)
    one = write_matrix(tmp_path / "one.json", [[1.0]])
    argv = {"chart": ["metric", "--chart", path, "--point", "0.5,0.4"],
            "matrix": ["gram", "--matrix", path],
            "state": ["gram", "--state", path, "--matrix", one]}[kind]
    err = run_err(capsys, argv, 1, "E_INPUT")
    assert err.count("\n") == 1


def test_an_empty_flag_value_is_one_input_error(tmp_path, sphere_file, capsys):
    # stokes and --state took an empty value as no flag at all
    m = write_matrix(tmp_path / "m.json", np.eye(2))
    for argv, message in (
        (["metric", "--chart", sphere_file, "--point="], "--point must be comma-separated reals"),
        (["stokes", "--point="], "--point must be comma-separated reals"),
        (["gram", "--state=", "--matrix", m], "cannot read "),
        (["volume", "--state=", "--matrix", m], "cannot read "),
    ):
        err = run_err(capsys, argv, 1, "E_INPUT")
        assert err.count("\n") == 1 and err.startswith(f"E_INPUT {message}"), argv


@pytest.mark.parametrize("content, argv, message", [
    ("{bad", ["metric", "--point", "0.5,0.4", "--chart", "{path}"], "invalid JSON in {path}: "),
    ("[1, 2]", ["metric", "--point", "0.5,0.4", "--chart", "{path}"],
     "chart file {path} must hold a JSON object"),
    ("", ["gram"], "at least one --matrix file is required"),
    ('{"kind": "vector", "re": [1.0, 0.0], "im": [0.0, 0.0]}',
     ["volume", "--matrix", "{m}", "--state", "{path}"],
     "volume supports only the trace and sum states"),
    ("", ["killing", "--matrix", "{m}", "--matrix", "{m}"],
     "killing needs one structure-constants file"),
], ids=["chart-invalid-json", "chart-json-list", "gram-no-matrix", "volume-vector-state",
        "killing-two-files"])
def test_each_input_rule_is_one_input_error(tmp_path, capsys, content, argv, message):
    path = tmp_path / "input.json"
    path.write_text(content, encoding="utf-8")
    files = {"path": str(path), "m": write_matrix(tmp_path / "m.json", np.eye(2))}
    err = run_err(capsys, [arg.format(**files) for arg in argv], 1, "E_INPUT")
    assert err.count("\n") == 1 and err.startswith("E_INPUT " + message.format(**files))


def test_stokes_output(capsys):
    doc = run_json(capsys, ["stokes", "--step", "0.1"])
    assert doc["epsilon"] == 0.1
    assert doc["residual"] > doc["residual_half"] > 0.0
    assert doc["ratio"] >= 6.0


def test_report_structure_and_values(sphere_file, capsys):
    doc = run_json(capsys, ["report", "--chart", sphere_file, "--seed", "7"])
    assert doc["seed"] == 7
    assert doc["count"] == REPORT_SAMPLE_COUNT
    assert len(doc["points"]) == REPORT_SAMPLE_COUNT
    stats = doc["stats"]
    assert abs(stats["gauss_curvature"]["mean"] - 1.0) < 1e-4
    assert abs(stats["metric_det"]["min"]) > 0.0
    assert stats["bianchi_residual"]["max"] < 1e-10
    assert doc["chart"]["id"] == "sphere"


def test_report_seeded_determinism(sphere_file, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["report", "--chart", sphere_file, "--seed", "7",
                "--out", str(out1)]) == 0
    assert run(["report", "--chart", sphere_file, "--seed", "7",
                "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert run(["report", "--chart", sphere_file, "--seed", "8",
                "--out", str(out1)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() != out2.read_bytes()


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_report_points_are_the_generators_uniform_draws(seed):
    # coordinate-minor: each point draws its coordinates in order
    chart = sphere()
    doc = report(chart, chart.default_state(), DotConfig(), 5, seed)
    rng, (lo, hi) = XorShift64Star(seed), chart.sample_box
    want = [[rng.uniform(float(lo[k]), float(hi[k])) for k in range(2)] for _ in range(5)]
    assert doc["points"] == want


@pytest.mark.parametrize("count, seed, match", [
    (2.5, 0, "sample_count must be an integer, got 2.5"),
    (0, 0, "sample_count must be at least 1, got 0"),
    (3, 2.7, "seed must be an integer, got 2.7"),
], ids=["fractional-count", "zero-count", "fractional-seed"])
def test_report_takes_an_integer_count_of_at_least_one_and_an_integer_seed(count, seed, match):
    # these were a bare TypeError, a DimensionError about the points' shape
    # and a seed truncated to 2
    chart = sphere()
    with pytest.raises(ValueError, match=match):
        report(chart, chart.default_state(), DotConfig(), count, seed)
    # NumPy integers are integers
    doc = report(chart, chart.default_state(), DotConfig(), np.int64(2), np.uint8(7))
    assert (doc["count"], doc["seed"]) == (2, 7) and type(doc["seed"]) is int
    assert doc == report(chart, chart.default_state(), DotConfig(), 2, 7)


def test_console_script_matches_in_process(sphere_file, capsys):
    expected = run_ok(capsys, ["metric", "--chart", sphere_file,
                               "--point", "0.9,0.5"])
    proc = subprocess.run(
        [sys.executable, "-m", "opgeom.cli", "metric", "--chart", sphere_file,
         "--point", "0.9,0.5"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == expected
    assert proc.stderr == ""


def test_unknown_subcommand(capsys):
    run_err(capsys, ["polish"], 1, "E_INPUT")


def test_out_flag_writes_file(tmp_path, capsys, sphere_file):
    target = tmp_path / "metric.json"
    assert run(["metric", "--chart", sphere_file, "--point", "0.9,0.5",
                "--out", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(target.read_text())
    assert "g" in doc
