"""Shared fixtures: Pauli matrices, truncated oscillator operators, RNG helpers."""

import os
from pathlib import Path

import numpy as np
import pytest

from opgeom.algebra import (
    AlgebraElement,
    State,
    fock_momentum,
    fock_position,
    harmonic_hamiltonian,
)

FOCK_DIM = 64

# pyproject.toml puts src on this process's import path; the interpreters that
# tests start (the CLI, import checks) find the package through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])


@pytest.fixture(scope="session")
def pauli():
    return {
        "i": AlgebraElement(np.eye(2, dtype=complex)),
        "x": AlgebraElement(np.array([[0, 1], [1, 0]], dtype=complex)),
        "y": AlgebraElement(np.array([[0, -1j], [1j, 0]], dtype=complex)),
        "z": AlgebraElement(np.array([[1, 0], [0, -1]], dtype=complex)),
    }


@pytest.fixture(scope="session")
def osc():
    """Truncated oscillator with hbar = m = omega = 1."""
    return {
        "x": fock_position(FOCK_DIM),
        "p": fock_momentum(FOCK_DIM),
        "h": harmonic_hamiltonian(FOCK_DIM),
        "dim": FOCK_DIM,
    }


@pytest.fixture(scope="session")
def ground():
    """Oscillator ground state as a vector state on the Fock truncation."""
    psi = np.zeros(FOCK_DIM, dtype=complex)
    psi[0] = 1.0
    return State.vector(psi)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rand_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return AlgebraElement(scale * 0.5 * (m + m.conj().T))


def rand_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return State.density(rho / np.trace(rho).real)


def coherent_state(alpha, dim):
    """Normalized coherent-state vector in the truncated Fock basis."""
    n = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    amps = np.exp(n * np.log(complex(alpha)) - 0.5 * log_fact) if alpha != 0 \
        else np.eye(dim, 1, dtype=complex).ravel()
    amps = np.asarray(amps, dtype=complex)
    amps /= np.linalg.norm(amps)
    return State.vector(amps)
