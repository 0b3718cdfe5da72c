"""A fuzzer over the command line: argv and JSON files built from extreme numbers.

Every run keeps the CLI contract: exit 0, 1 or 2; on failure exactly one
``E_`` line on stderr; no traceback; no NumPy warning (``SingularGramWarning``
is the package's documented report of a rank-deficient Gram matrix, and may
be issued); only finite numbers on stdout or in the ``--out`` file.  The runs
go through ``opgeom.cli.run`` in process, derandomized, so that tier-1 stays
deterministic.  Integrator runs are drawn with at most ``MAX_STEPS`` steps,
since a long run is slow, not wrong.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from opgeom.cli import SUBCOMMANDS, run
from opgeom.errors import SingularGramWarning

MAGNITUDES = [0.0, 1.0, 0.5, 2.0, 3.0, 1e200, 1e-200, 1e300, 1e-300, 1e77, 1e154, 1e308, 1.7e308]
MAX_STEPS = 256
# su(2) structure constants f[r, a, b] with [J_a, J_b] = f[r, a, b] J_r
SU2 = [0, 0, 0, 0, 0, 1, 0, -1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 1, 0, -1, 0, 0, 0, 0, 0]

numbers = st.one_of(
    st.builds(lambda m, s: s * m, st.sampled_from(MAGNITUDES), st.sampled_from([1.0, -1.0])),
    st.floats(-5.0, 5.0))


@st.composite
def matrices(draw, n):
    """Matrix JSON of dimension n: general, hermitian, antihermitian or
    diagonal, or (rarely) with an entry count that does not match."""
    kind = draw(st.sampled_from(["general", "hermitian", "antihermitian", "diagonal", "short"]))
    re = draw(st.lists(numbers, min_size=n * n, max_size=n * n))
    im = draw(st.lists(numbers, min_size=n * n, max_size=n * n))
    if kind == "short":
        return {"dim": n, "re": re[1:], "im": im}
    for i in range(n):
        for j in range(n):
            if kind == "diagonal" and i != j:
                re[i * n + j] = im[i * n + j] = 0.0
            elif kind != "general" and i > j:
                s = 1.0 if kind == "hermitian" else -1.0
                re[i * n + j], im[i * n + j] = s * re[j * n + i], -s * im[j * n + i]
            elif kind != "general" and i == j:
                (im if kind == "hermitian" else re)[i * n + j] = 0.0
    return {"dim": n, "re": re, "im": im}


@st.composite
def states(draw, n):
    kind = draw(st.sampled_from(["trace", "sum", "vector", "density", "gibbs"]))
    if kind == "vector":
        return {"kind": kind, "re": draw(st.lists(numbers, min_size=n, max_size=n)),
                "im": draw(st.lists(numbers, min_size=n, max_size=n))}
    if kind == "density":
        w = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        total = sum(w)
        rho = ([x / total for x in w] if total > 0 else [1.0 / n] * n)
        if draw(st.booleans()):  # a diagonal density matrix, or any matrix
            return {"kind": kind, "rho": {"dim": n, "re": [rho[i // n] if i % (n + 1) == 0 else 0.0
                                                           for i in range(n * n)],
                                          "im": [0.0] * (n * n)}}
        return {"kind": kind, "rho": draw(matrices(n))}
    if kind == "gibbs":
        return {"kind": kind, "h": draw(matrices(n)), "beta": draw(numbers)}
    return {"kind": kind}


@st.composite
def charts(draw):
    chart_id = draw(st.sampled_from(["sphere", "torus", "paraboloid", "flat_plane",
                                     "custom_grid"]))
    if chart_id == "custom_grid":
        axes = [sorted(set(draw(st.lists(numbers, min_size=3, max_size=4)))) for _ in range(2)]
        size = len(axes[0]) * len(axes[1])
        params = {"axes": axes, "dim": 1,
                  "values_re": draw(st.lists(numbers, min_size=size, max_size=size))}
    else:
        names = {"sphere": ["r"], "torus": ["R", "r"], "paraboloid": ["a"], "flat_plane": []}
        params = {name: draw(numbers) for name in names[chart_id] if draw(st.booleans())}
    obj = {"id": chart_id, "params": params, "state": draw(st.sampled_from(["sum", "trace"]))}
    for step in ("fd_step", "fd_step2"):
        if draw(st.integers(0, 3)) == 0:
            obj[step] = draw(numbers)
    return obj


def csv(draw, size):
    return ",".join(repr(x) for x in draw(st.lists(numbers, min_size=size, max_size=size)))


@st.composite
def invocations(draw):
    """(argv, files): a subcommand's argv, with {name} placeholders for the
    JSON files in files and {out} for an output file."""
    cmd = draw(st.sampled_from(SUBCOMMANDS))
    n = draw(st.integers(1, 3))
    files, argv = {}, [cmd]

    def add(flag, obj):
        name = f"f{len(files)}"
        files[name] = obj
        argv.extend([flag, "{" + name + "}"])

    if cmd in ("gram", "project", "orthonormalize", "uncertainty", "energy-bound", "volume"):
        for _ in range(draw(st.integers(1, 3))):
            add("--matrix", draw(matrices(n)))
    if cmd in ("metric", "christoffel", "curvature", "bianchi", "geodesic", "report"):
        add("--chart", draw(charts()))
    if cmd in ("metric", "christoffel", "curvature", "bianchi") or (
            cmd == "stokes" and draw(st.booleans())):
        argv.append("--point=" + csv(draw, draw(st.sampled_from([2, 2, 2, 1, 3]))))
    if cmd != "killing" and draw(st.booleans()):
        add("--state", draw(states(draw(st.sampled_from([n, 3])))))
    if cmd == "christoffel":
        argv.extend(["--method", draw(st.sampled_from(["direct", "metric"]))])
    if cmd == "geodesic":
        argv.extend(["--u0=" + csv(draw, 2), "--v0=" + csv(draw, 2)])
    if cmd == "holonomy" and draw(st.booleans()):
        for _ in range(2):
            add("--matrix", draw(matrices(n)))
    if cmd == "killing":
        d = draw(st.integers(1, 3))
        f = ([draw(numbers) * x for x in SU2] if d == 3 and draw(st.booleans())
             else draw(st.lists(numbers, min_size=d ** 3, max_size=d ** 3)))
        add("--matrix", {"d": d, "f": f})
    if cmd == "report" and draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(-2 ** 70, 2 ** 70))}")
    if cmd in ("geodesic", "holonomy", "stokes"):
        tau, step = draw(numbers), draw(numbers)
        if cmd != "stokes":
            # a step count above MAX_STEPS that _step_count accepts runs long
            assume(not (tau > 0 and step > 0 and MAX_STEPS < tau / step <= 2 ** 63))
            argv.append(f"--tau={tau!r}")
        if cmd == "geodesic" or draw(st.booleans()):
            argv.append(f"--step={step!r}")
    if draw(st.booleans()):
        argv.extend(["--out", "{out}"])
    return argv, files


def finite_output(text: str, cmd: str) -> bool:
    """Whether every number in a CSV or JSON output is finite."""
    if cmd == "geodesic":
        rows = text.splitlines()[1:]
        return all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    def reject(constant):
        raise ValueError(f"non-finite {constant} in output")
    json.loads(text, parse_constant=reject)
    return True


def check_contract(argv, files) -> int:
    """The exit code of one run, whose output and messages keep the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            Path(tmp, name).write_text(json.dumps(obj), encoding="utf-8")
        out_file = Path(tmp, "out.txt")
        paths = {"out": str(out_file), **{name: str(Path(tmp, name)) for name in files}}
        argv = [arg.format(**paths) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = run(argv)
        text = stdout.getvalue()
        if out_file.exists():
            assert text == ""
            text = out_file.read_text(encoding="utf-8")
    err = stderr.getvalue()
    assert [w.message for w in caught if not isinstance(w.message, SingularGramWarning)] == []
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    tags = [line for line in err.splitlines() if line.startswith("E_")]
    assert all(line.startswith(("E_", "W_LEFT_DOMAIN")) for line in err.splitlines())
    assert len(tags) == (0 if code == 0 else 1)
    if code == 0:
        assert finite_output(text, argv[0])
    return code


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(invocations())
def test_cli_keeps_its_contract_on_any_argv_and_files(case):
    check_contract(*case)
