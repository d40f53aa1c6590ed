"""Shared test helpers: deterministic hypothesis profile, SU(2) utilities."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.filter_too_much],
)
settings.load_profile("deterministic")


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random 2x2 unitary (rotation times global phase)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    gen = axis[0] * sx + axis[1] * sy + axis[2] * sz
    rot = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * gen
    return np.exp(1j * alpha) * rot


def random_state(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max-norm distance between matrices/vectors up to one global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(a - phase * b)))


def expm_oracle(matrix: np.ndarray, t: float) -> np.ndarray:
    """Brute-force exp(-i M t) of a Hermitian matrix via eigendecomposition."""
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def mode_momenta(spec) -> np.ndarray:
    """The spec's grid momenta with the paper grid's k = 2pi end set to 0.

    Both are one mode, but 2pi N/N can miss 2pi by an ulp (N = 30), which
    leaves |d_f| near 1e-15 at g_f = 1 where the mode k = 0 has exactly 0.
    """
    ks = spec.momentum_grid()
    if spec.grid_mode == "paper":
        ks[-1] = 0.0
    return ks
