"""What the operator kernels and the product integral allocate, and what
the kernels leave alone.

At n = 64, p = 20 every operation holds at most one fresh (p, n, n)-sized
temporary beyond the stacks it must return or solve on (``tracemalloc``
peak per call, in units of one such complex stack), and no kernel writes
its arguments.  A 4x4 product integral holds its block's scaled samples and
the Pade temporaries of one chunk, not of a whole block.
"""

import tracemalloc

import numpy as np
import pytest

from opgeom.algebra import AlgebraElement, DotConfig, PhysConstants, State, _heisenberg
from opgeom.hypersurface import gibbs_force
from opgeom.projection import cauchy_schwarz_check, gram, gram_schmidt, project
from opgeom.transport import _BLOCK, product_integral
from opgeom.uncertainty import _centred, energy_bound, fluctuation, fluctuation_bound

from .conftest import rand_hermitian
from .test_gram_kernel import KINDS, make_state
from .test_transport import affine_path

N, P = 64, 20
STACK_BYTES = P * N * N * np.dtype(complex).itemsize
# the largest traced peak per call, in stacks: the call's own stack (two for
# gibbs_force's targets and references), the kernel's one right factor, and
# gram_schmidt's two returned lists
PEAK_STACKS = {"gibbs_force": 3.25, "gram_schmidt": 3.1, "gram": 2.25, "project": 2.25,
               "cauchy_schwarz_check": 2.25, "fluctuation_bound": 2.25, "energy_bound": 2.25}


def peak_stacks(call, stack_bytes=STACK_BYTES) -> float:
    """The traced peak of call() above the memory traced before it, in stacks
    of stack_bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / stack_bytes
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("kind", ["density", "gibbs", "trace"])
def test_operations_hold_at_most_one_spare_stack_at_n64(kind):
    rng = np.random.default_rng(37)
    phi = make_state(kind, rng, N)
    bs = [rand_hermitian(rng, N) for _ in range(P)]
    a, h = AlgebraElement(rng.normal(size=(N, N)) / N), rand_hermitian(rng, N)
    cfg, consts = DotConfig(), PhysConstants()
    calls = {
        "gram": lambda: gram(phi, cfg, bs),
        "project": lambda: project(phi, cfg, a, bs),
        "cauchy_schwarz_check": lambda: cauchy_schwarz_check(phi, cfg, a, bs),
        "gram_schmidt": lambda: gram_schmidt(phi, cfg, bs),
        "fluctuation_bound": lambda: fluctuation_bound(phi, cfg, h, bs),
        "energy_bound": lambda: energy_bound(consts, phi, h, bs),
        "gibbs_force": lambda: gibbs_force(consts, bs, h, 0.9),
    }
    peaks = {op: round(peak_stacks(call), 2) for op, call in calls.items()}
    assert {op: p for op, p in peaks.items() if p > PEAK_STACKS[op]} == {}, peaks


def test_product_integral_holds_one_chunk_of_pade_temporaries_at_d4():
    # a block's samples are one (_BLOCK, 4, 4) stack, a 256-factor chunk's scaled
    # samples and Pade temporaries about 2.5 more (3.52 in all; 8.73 with the
    # temporaries of a whole block)
    path = affine_path(36, 4, 0.6, 2000)
    product_integral(path)  # one-time allocations of a first call
    peak = peak_stacks(lambda: product_integral(path), _BLOCK * 16 * np.dtype(complex).itemsize)
    assert peak <= 4.0, peak


def snapshot(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("kind", KINDS)
def test_state_gram_leaves_its_operands_unwritten(kind):
    rng = np.random.default_rng(38)
    phi = make_state(kind, rng, 5)
    both = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
    xs, ys = both[:4].copy(), both[4:].copy()
    before = snapshot(both, xs, ys)
    phi.gram(xs)
    phi.gram(xs, ys)
    phi.gram(both, both[3:])  # the operands of gibbs_force: a stack and a view of its tail
    phi.gram(both[:3], both[3:])
    assert snapshot(both, xs, ys) == before
    if kind in ("trace", "sum"):  # a real stack, as killing_metric passes
        real = rng.normal(size=(3, 5, 5))
        kept = snapshot(real)
        phi.gram(real)
        phi.gram(real, real[1:])
        assert snapshot(real) == kept


def test_heisenberg_leaves_its_arguments_unwritten_and_fills_out_with_the_same_bits():
    rng = np.random.default_rng(39)
    h = rand_hermitian(rng, 5).m.copy()
    both = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
    b = both[3:].copy()
    before = snapshot(h, b)
    fresh = _heisenberg(PhysConstants(0.7), h, b)
    assert snapshot(h, b) == before
    tail = snapshot(both[3:])
    out = both[:3]
    assert _heisenberg(PhysConstants(0.7), h, both[3:], out=out) is out
    assert snapshot(both[3:]) == tail
    assert snapshot(both[:3]) == snapshot(fresh)
    assert snapshot(_heisenberg(PhysConstants(0.7), h, b[0])) == snapshot(fresh[0])


@pytest.mark.parametrize("kind", KINDS)
def test_centring_leaves_its_stack_unwritten_and_in_place_keeps_the_bits(kind):
    rng = np.random.default_rng(40)
    phi = make_state(kind, rng, 5)
    stack = rng.normal(size=(4, 5, 5)) + 1j * rng.normal(size=(4, 5, 5))
    before = snapshot(stack)
    out = _centred(phi, stack)
    assert snapshot(stack) == before
    owned = stack.copy()
    assert _centred(phi, owned, own=True) is owned
    assert snapshot(owned) == snapshot(out)


def test_centring_changes_only_the_diagonal():
    # x - mean * eye would turn the off-diagonal -0.0 into +0.0, since the mean is negative
    stack = np.array([[[-2, -0.0], [1, -1]]], dtype=complex)
    out = _centred(State.normalized_trace(), stack)
    assert np.signbit(out[0, 0, 1].real)
    assert snapshot(out[0][~np.eye(2, dtype=bool)]) == snapshot(stack[0][~np.eye(2, dtype=bool)])
    assert out[0, 0, 0] == -0.5 and out[0, 1, 1] == 0.5
    assert np.signbit(fluctuation(State.normalized_trace(), AlgebraElement(stack[0])).m[0, 1].real)
