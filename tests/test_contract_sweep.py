"""A sweep of the numeric contract over the geometry kernels and the guarded
solve: finite output or a typed error, never a NumPy warning first.

Chart calls (``metric``, ``christoffel``, ``geometry_at``) run on stacked
graph charts whose values are scaled by 10^k, and operator calls (stacked
``_solve_gram``, ``pair_product_bound``, ``energy_bound``,
``State.density``) on hermitian matrices scaled by 10^k, k from -300 to
300; lone and stacked 3x3 ``_solve_gram`` and ``_det`` also run on real
matrices whose entries each have their own sign and exponent, all under
``warnings.simplefilter("error")``.  A typed error is an
``OpgeomError`` or a ``ValueError`` other than NumPy's ``LinAlgError``;
``SingularGramWarning``, the package's report of a rank-deficient Gram
matrix, is raised by the filter and counts as one.  Any other exception,
a ``RuntimeWarning`` among them, fails the test, and so does a result with
a non-finite number.  Derandomized, with fixed example counts.
"""

import dataclasses
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opgeom.algebra import (
    AlgebraElement,
    DotConfig,
    PhysConstants,
    State,
    _det,
    _solve_gram,
    stacked,
)
from opgeom.errors import OpgeomError, SingularGramWarning, SingularMetricError
from opgeom.hypersurface import Chart, christoffel, geometry_at, metric
from opgeom.uncertainty import energy_bound, pair_product_bound

SWEEP = settings(max_examples=40, deadline=None, derandomize=True)
exponents = st.integers(-300, 300)


def keeps_contract(call):
    """The result of call(), or None if it raised a typed error; any other
    exception or warning propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except (OpgeomError, ValueError, SingularGramWarning) as exc:
            assert not isinstance(exc, np.linalg.LinAlgError), exc
            return None
    assert all_finite(out), out
    return out


def all_finite(x) -> bool:
    if x is None or isinstance(x, (bool, str)):
        return True
    if isinstance(x, (tuple, list)):
        return all(map(all_finite, x))
    if isinstance(x, dict):
        return all(map(all_finite, x.values()))
    if dataclasses.is_dataclass(x):
        return all(all_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    return bool(np.isfinite(x).all())


def scaled_graph(p: int, scale: float) -> Chart:
    """The graph of sin(u0) cos(u_last) + u0 u_last / 2 over R^p, embedded
    diagonally in R^(p+1) and scaled by scale; stacked, defined everywhere."""

    def values(xs):
        f = np.sin(xs[:, 0]) * np.cos(xs[:, -1]) + 0.5 * xs[:, 0] * xs[:, -1]
        return scale * np.column_stack([xs, f])

    def matrices(xs):
        v = values(xs)
        out = np.zeros(v.shape + (p + 1,), dtype=complex)
        out[:, range(p + 1), range(p + 1)] = v
        return out

    box = (np.full(p, -1.0), np.full(p, 1.0))
    return Chart(id=f"graph{p}", p=p, dim=p + 1, map_mat=stacked(matrices),
                 map_vec=stacked(values), in_domain=None, sample_box=box)


@SWEEP
@given(k=exponents, p=st.sampled_from([1, 2, 3]), state=st.sampled_from(["sum", "trace"]),
       u=st.lists(st.floats(-0.8, 0.8), min_size=6, max_size=6))
def test_chart_calls_keep_the_contract(k, p, state, u):
    chart = scaled_graph(p, 10.0 ** k)
    phi = State.normalized_trace() if state == "trace" else State.unnormalized_sum()
    pts = np.array(u).reshape(-1, 3)[:, :p]
    keeps_contract(lambda: metric(chart, phi, DotConfig(), pts[0]))
    keeps_contract(lambda: christoffel(chart, phi, DotConfig(), pts[0]))
    geom = keeps_contract(lambda: geometry_at(chart, phi, DotConfig(), pts))
    if geom is not None:
        assert geom.g.shape == (2, p, p) and (geom.bianchi is None) == (p < 2)


def hermitian(rng, n: int, scale: float) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T)


@SWEEP
@given(k=exponents, n=st.sampled_from([2, 3]), count=st.integers(1, 4),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_solves_keep_the_contract(k, n, count, real, seed):
    rng = np.random.default_rng(seed)
    m = np.stack([hermitian(rng, n, 1.0) for _ in range(count)])
    m = m.real if real else m
    m = m @ m.conj().swapaxes(-1, -2) if seed % 2 else m  # a Gram matrix, or any hermitian one
    m = 10.0 ** k * m
    keeps_contract(lambda: _solve_gram(m, SingularMetricError("singular")))
    keeps_contract(lambda: _solve_gram(m[0], SingularMetricError("singular")))  # lone
    keeps_contract(lambda: _det(m[0]))


@SWEEP
@given(ka=exponents, kb=exponents, n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_operator_calls_keep_the_contract(ka, kb, n, seed):
    rng = np.random.default_rng(seed)
    a, b = hermitian(rng, n, 10.0 ** ka), hermitian(rng, n, 10.0 ** kb)
    w = rng.uniform(0.1, 1.0, n)
    rho = np.diag(w / w.sum()).astype(complex)
    for phi in (State.normalized_trace(), State.density(rho)):
        keeps_contract(lambda: pair_product_bound(phi, AlgebraElement(a), AlgebraElement(b)))
        keeps_contract(lambda: energy_bound(PhysConstants(), phi, AlgebraElement(a),
                                            [AlgebraElement(b), AlgebraElement(1j * b)]))
    # a density matrix perturbed by a scaled hermitian part, and the part alone
    for m in (rho + b, b):
        keeps_contract(lambda: State.density(m).eval_matrix(a))


@SWEEP
@given(ks=st.lists(exponents, min_size=9, max_size=9), signs=st.lists(st.booleans(), min_size=9, max_size=9),
       gram=st.booleans())
def test_3x3_solves_and_determinants_keep_the_contract(ks, signs, gram):
    # each entry +-10^k, or the Gram matrix M M' of such entries: the cofactor
    # route's Python-number arithmetic and its bound, and the SVD route past it
    m = np.array([(-1.0 if neg else 1.0) * 10.0 ** k for neg, k in zip(signs, ks)]).reshape(3, 3)
    if gram:
        with np.errstate(all="ignore"):  # an overflow is the guarded solve's to report
            m = m @ m.T
    for arg in (m, np.stack([m, m.T, np.eye(3)])):
        keeps_contract(lambda: _solve_gram(arg, SingularMetricError("singular")))
    keeps_contract(lambda: _det(m))
