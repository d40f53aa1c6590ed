"""Closed-form single-qubit linear algebra for the per-momentum-mode dynamics.

Every momentum mode of the quenched Ising chain is a two-level system with
Hamiltonian d . sigma for a real Bloch vector d, so its propagator has the
exact SU(2) form

    exp(-i (d . sigma) t) = cos(|d|t) I - i sin(|d|t) (dhat . sigma).

States are plain complex ndarrays of shape (2,), unitaries of shape (2, 2),
Bloch vectors real ndarrays of shape (3,).  hbar = 1; angles in radians.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, GaplessModeError, InvalidArgumentError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY_2",
    "X_PLUS",
    "pauli_dot",
    "evolution_unitary",
    "rotation_x",
    "ground_state",
    "fidelity",
    "expect_sx",
    "is_unitary",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# +1 eigenstate of sigma_x: the g=0 single-mode ground state.
X_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _require_finite(name, value, dtype=float):
    """``value`` as an array of ``dtype`` if every entry is finite (both
    parts, for complex); otherwise InvalidArgumentError naming ``name``."""
    arr = np.asarray(value, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} must be finite, got {value!r}")
    return arr


def _require_dims(name, value, most: int, least: int = 0) -> np.ndarray:
    """``value`` as a finite float array of ``least`` to ``most``
    dimensions; otherwise InvalidArgumentError naming ``name``."""
    arr = _require_finite(name, value)
    if not least <= arr.ndim <= most:
        raise InvalidArgumentError(
            f"{name} must have {least} to {most} dimensions, got shape {arr.shape}")
    return arr


def _require_state(name, value) -> np.ndarray:
    """``value`` as a complex state vector if it is finite and nonzero."""
    arr = _require_finite(name, value, complex)
    if not arr.any():
        raise InvalidArgumentError(f"{name} must be a nonzero state")
    return arr


def _is_integral(value) -> bool:
    """True for Python or numpy integers, however large, and integral floats."""
    return isinstance(value, (int, np.integer)) or float(value).is_integer()


def _int_range(least, most=None) -> str:
    """The text of the integers in [least, most], no upper end if most is None."""
    span = f">= {least}" if most is None else f"in [{least}, {most}]"
    return f"an integer {span}"


def _require_int(name, value, least, most=None, error=ConfigurationError) -> int:
    """``value`` as an int if it is integral and in [least, most] (no upper
    end if most is None); otherwise ``error`` naming ``name`` and the range."""
    if not (least <= value and (most is None or value <= most)
            and _is_integral(value)):
        raise error(f"{name} must be {_int_range(least, most)}, got {value}")
    return int(value)


def _require_phase(rates, times) -> None:
    """InvalidArgumentError naming t unless the largest phase |rate| |t|
    of finite ``rates`` and ``times`` is a finite float."""
    # Python floats overflow to inf without numpy's RuntimeWarning
    t = float(np.abs(times).max(initial=0.0))
    if not np.isfinite(float(np.abs(rates).max(initial=0.0)) * t):
        raise InvalidArgumentError(
            f"t must keep every phase finite, got |t| up to {t}")


def _require_bloch(d) -> np.ndarray:
    """``d`` as an array if it is a finite Bloch vector of shape (3,)."""
    arr = _require_finite("d", d)
    if arr.shape != (3,):
        raise InvalidArgumentError(f"d must have shape (3,), got {arr.shape}")
    return arr


def pauli_dot(d) -> np.ndarray:
    """Return d . sigma as a 2x2 complex matrix."""
    d = _require_bloch(d)
    return d[0] * SIGMA_X + d[1] * SIGMA_Y + d[2] * SIGMA_Z


def evolution_unitary(d, t: float) -> np.ndarray:
    """Propagator exp(-i (d . sigma) t) in closed form.

    For |d| = 0 the limit is the identity, returned exactly.  A phase
    |d| t past the float range raises InvalidArgumentError.
    """
    d = _require_bloch(d)
    t = float(_require_dims("t", t, 0))
    mag = float(np.sqrt(d @ d))
    _require_phase(mag, t)
    if mag == 0.0:
        return IDENTITY_2.copy()
    phase = mag * t
    return np.cos(phase) * IDENTITY_2 - 1.0j * np.sin(phase) * pauli_dot(d / mag)


def rotation_x(phi: float) -> np.ndarray:
    """Spin rotation exp(-i sigma_x phi / 2) about the x axis."""
    phi = float(_require_dims("phi", phi, 0))
    half = 0.5 * phi
    return np.cos(half) * IDENTITY_2 - 1.0j * np.sin(half) * SIGMA_X

def ground_state(d) -> np.ndarray:
    """Normalized eigenvector of d . sigma with eigenvalue -|d|.

    Phase convention: the first nonzero component is real and positive,
    so results are reproducible across platforms.  |d| = 0 is degenerate
    and raises; callers must treat gapless modes explicitly.
    """
    d = _require_bloch(d)
    mag = float(np.sqrt(d @ d))
    if mag == 0.0:
        raise GaplessModeError("ground_state undefined for |d| = 0 (degenerate mode)")
    vals, vecs = np.linalg.eigh(pauli_dot(d))
    psi = vecs[:, int(np.argmin(vals))]
    # eigh orders ascending, so argmin is index 0; kept explicit for clarity
    nz = np.flatnonzero(np.abs(psi) > 1e-14)[0]
    psi = psi * (np.abs(psi[nz]) / psi[nz])
    return psi / np.linalg.norm(psi)


def fidelity(a, b) -> float:
    """|<a|b>|^2 for normalized pure states."""
    return float(np.abs(np.vdot(_require_state("a", a),
                                _require_state("b", b))) ** 2)


def expect_sx(a) -> float:
    """<a| sigma_x / 2 |a>, the per-mode x magnetization in [-1/2, 1/2]."""
    a = _require_state("a", a)
    return float(np.real(np.conj(a[0]) * a[1]))


def is_unitary(u, tol: float = 1e-12) -> bool:
    """True if u is a square matrix with max |u^dagger u - I| <= tol."""
    u = _require_finite("u", u, complex)
    tol = float(_require_dims("tol", tol, 0))
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= tol)
