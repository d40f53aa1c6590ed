"""Momentum-space transverse-field Ising quench model.

The chain H(g) = -J sum_i (sigma^x_i sigma^x_{i+1} + g sigma^z_i) factorizes
after a Jordan-Wigner transformation into independent two-level momentum
modes with Bloch vector

    d(g, k) = (1 - g cos k,  g sin k,  0),      |d|^2 = 1 + g^2 - 2 g cos k.

A sudden quench g_i -> g_f evolves each mode's old ground state under the
new mode Hamiltonian.  The per-mode Loschmidt amplitude has the closed form

    G_k(t) = cos(|d_f| t) + i (dhat_i . dhat_f) sin(|d_f| t),

whose zeros (Fisher zeros) occur only when the initial and final fields lie
on opposite sides of |g| = 1; the first zero fixes the critical time of the
dynamical quantum phase transition (DQPT).

Sign convention: the mode Hamiltonian carries the overall minus sign,
H_mode = -d . sigma, so the g = 0 ground state is |x>.  All observables
computed here are insensitive to that sign (covered by tests).

The vectorized paths treat the grid as arrays: ``_mode_geometry`` returns
|d_f| and dhat_i . dhat_f for every k at once.  Modes k and 2pi - k share
both (the +-k pairing), so ``_probabilities`` computes the (n_k', n_t)
matrix of |G_k|^2 on the n_k' ~ N/2 distinct modes k in [0, pi] only;
``rate_function`` and ``otoc`` weight its rows by multiplicity, and
``mode_probabilities`` and ``return_probability_map`` copy them onto the
grid.  In place, it holds two such arrays plus that copy, and refuses a
working set over ``MODE_BUDGET_BYTES`` with ``ResourceGuardError`` first.

Two momentum grids are supported.  ``paper`` takes k = 0, 2pi/N, ..., 2pi
(N+1 points, both endpoints included, each weighted once in the 1/N
average).  ``abc`` takes the anti-periodic momenta k = (2n+1) pi/N, which
are the exact momenta of the even fermion-parity sector of the periodic
chain and therefore the grid used for oracle-equivalence checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    GaplessModeError,
    NoDqptError,
    ResourceGuardError,
    UndefinedExpressionError,
)
from . import su2

__all__ = [
    "QuenchSpec",
    "PulseScheduleEntry",
    "bloch_vector",
    "loschmidt_mode",
    "mode_probabilities",
    "rate_function",
    "critical_momentum",
    "critical_times",
    "dqpt_predicate",
    "return_probability_map",
    "pulse_schedule",
    "replay_unitary",
    "default_time_grid",
    "AMPLITUDE_FLOOR",
    "MODE_BUDGET_BYTES",
]

# |G|^2 is floored here before the log; finite grids essentially never hit
# an exact Fisher zero, but the rate function must stay finite if they do.
AMPLITUDE_FLOOR = 1e-300

# Largest mode working set the vectorized paths may allocate: two float64
# (n_k', n_t) arrays and GEOMETRY_ROWS n_k'-long ones over the n_k' distinct
# modes, plus the (n_k, n_t) copy onto the grid where one is returned.
MODE_BUDGET_BYTES = 2 ** 30
GEOMETRY_ROWS = 12

GRID_MODES = ("paper", "abc")


@dataclass(frozen=True)
class QuenchSpec:
    """One global quench experiment: fields, chain size, momentum grid."""

    g_i: float
    g_f: float
    n: int
    grid_mode: str = "paper"

    def __post_init__(self):
        if not (np.isfinite(self.g_i) and np.isfinite(self.g_f)):
            raise ConfigurationError("g_i and g_f must be finite")
        if not (self.n >= 2 and su2._is_integral(self.n)):
            raise ConfigurationError(f"n must be an integer >= 2, got {self.n}")
        if self.grid_mode not in GRID_MODES:
            raise ConfigurationError(
                f"grid_mode must be one of {GRID_MODES}, got {self.grid_mode!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def n_modes(self) -> int:
        """Size of the momentum grid, known without building it."""
        return self.n + 1 if self.grid_mode == "paper" else self.n

    def momentum_grid(self) -> np.ndarray:
        return self._momenta(np.arange(self.n_modes))

    def _momenta(self, j: np.ndarray) -> np.ndarray:
        if self.grid_mode == "paper":
            return 2.0 * np.pi * j / self.n
        return (2.0 * j + 1.0) * np.pi / self.n

    def _distinct_index(self) -> np.ndarray:
        """Distinct mode of each grid point: k and 2pi - k are one mode."""
        j = np.arange(self.n_modes)
        return np.minimum(j, self.n_modes - 1 - j)


@dataclass(frozen=True)
class PulseScheduleEntry:
    """Experimental drive for one momentum mode.

    The rotation axis lies in the xy plane at ``axis_angle`` from x, the
    Rabi rate is ``rabi_rate`` = C |d_f(k)|, and ``durations`` sweep one
    full period [0, 2 pi / rabi_rate].  Replaying duration T as a Bloch
    rotation by angle rabi_rate * T reproduces the mode propagator at
    simulation time rabi_rate * T / (2 |d_f|) = C T / 2: the schedule keeps
    the normalized precession speed identical for every mode.
    """

    k: float
    axis_angle: float
    rabi_rate: float
    durations: np.ndarray
    idle: bool = False


def bloch_vector(g: float, k: float) -> np.ndarray:
    """Mode Bloch vector d(g, k) = (1 - g cos k, g sin k, 0)."""
    return np.array([1.0 - g * np.cos(k), g * np.sin(k), 0.0])


def _gap_squared(g, k):
    """|d(g, k)|^2 = (1 - g)^2 + 4 g sin^2(k/2), scalar or array in k.

    Free of the cancellation in (1 - g cos k)^2 + (g sin k)^2.  At g = -1
    the gap closes at k = pi, which no float equals, so sin k is about
    1e-16 on the grid point next to it; sin(k/2) rounds to 1 there and this
    form gives exactly 0.  At g = +1 it is exactly 0 at k = 0 and 2pi.
    """
    half = np.sin(np.minimum(k, 2.0 * np.pi - k) / 2.0)
    return (1.0 - g) ** 2 + 4.0 * g * half * half


def _mode_geometry(g_i: float, g_f: float, ks: np.ndarray):
    """Arrays (|d_f|, dhat_i . dhat_f) over the grid ks.

    Raises GaplessModeError at the first gapless initial mode.  Gapless
    final modes get |d_f| exactly 0 and overlap 1: they do not evolve.
    Both tests use ``_gap_squared``, which is exactly 0 on the grid point
    next to k = pi at g = -1 where this |d| is not.
    """
    cos_k, sin_k = np.cos(ks), np.sin(ks)
    x_i, y_i = 1.0 - g_i * cos_k, g_i * sin_k
    x_f, y_f = 1.0 - g_f * cos_k, g_f * sin_k
    n_i = np.sqrt(x_i * x_i + y_i * y_i)
    n_f = np.sqrt(x_f * x_f + y_f * y_f)
    gapless = _gap_squared(g_i, ks) == 0.0
    if gapless.any():
        raise GaplessModeError(
            f"initial mode at k={ks[np.argmax(gapless)]} is gapless; "
            "the quench ground state is undefined")
    n_f[_gap_squared(g_f, ks) == 0.0] = 0.0
    overlap = np.ones_like(n_f)
    np.divide(x_i * x_f + y_i * y_f, n_i * n_f, out=overlap, where=n_f > 0.0)
    return n_f, overlap


def _require_budget(need: int, what: str) -> None:
    """ResourceGuardError when ``need`` bytes exceed MODE_BUDGET_BYTES."""
    if need > MODE_BUDGET_BYTES:
        raise ResourceGuardError(
            f"{what} need about {need >> 20} MiB, over the "
            f"{MODE_BUDGET_BYTES >> 20} MiB mode budget")


def _probabilities(spec: QuenchSpec, grid: np.ndarray, normalized: bool = False,
                   whole_grid: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(|G_k|^2 over (distinct modes, n_t), each mode's multiplicity).

    |G_k|^2 = cos^2(phase) + (dhat_i . dhat_f)^2 sin^2(phase), the phase
    |d_f| t for times t, or with ``normalized`` pi tau for tau = t/t0,
    t0 = pi/|d_f(k)|; gapless final modes keep phase 0 and probability
    exactly 1.  ``whole_grid`` copies the rows onto the grid, weight 1 each.
    Refuses a working set over MODE_BUDGET_BYTES before allocating;
    non-finite times raise InvalidArgumentError.
    """
    su2._require_finite("t", grid)
    count = (spec.n_modes + 1) // 2
    copy = spec.n_modes * grid.size if whole_grid else 0
    _require_budget(8 * (count * (2 * grid.size + GEOMETRY_ROWS) + copy),
                    f"{spec.n_modes} modes x {grid.size} times")
    ks = spec._momenta(np.arange(count))
    n_f, overlap = _mode_geometry(spec.g_i, spec.g_f, ks)
    rate = np.where(n_f > 0.0, np.pi, 0.0) if normalized else n_f
    phase = np.multiply.outer(rate, grid)
    probs = np.cos(phase)
    probs *= probs
    np.sin(phase, out=phase)
    phase *= overlap[:, None]
    phase *= phase
    probs += phase
    index = spec._distinct_index()
    if whole_grid:
        return probs[index], np.ones(spec.n_modes)
    return probs, np.bincount(index).astype(float)


def loschmidt_mode(spec: QuenchSpec, k: float, t):
    """Per-mode Loschmidt amplitude G_k(t); scalar or array in t.

    Gapless final modes (|d_f| = 0) do not evolve, so G_k = 1 there.
    Non-finite times raise InvalidArgumentError.
    """
    t = su2._require_finite("t", t)
    n_f, overlap = _mode_geometry(spec.g_i, spec.g_f, np.array([float(k)]))
    n_f, overlap = float(n_f[0]), float(overlap[0])
    g = np.cos(n_f * t) + 1.0j * overlap * np.sin(n_f * t)
    return g if t.ndim else complex(g)


def mode_probabilities(spec: QuenchSpec, t) -> tuple[np.ndarray, np.ndarray]:
    """(k grid, |G_k(t)|^2 matrix of shape (n_k, n_t)) for the spec's grid."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    probs = _probabilities(spec, ts, whole_grid=True)[0]
    return spec.momentum_grid(), probs


def rate_function(spec: QuenchSpec, t):
    """Loschmidt rate function f(t) = -(1/N) sum_k log |G_k(t)|^2.

    The sum runs over the spec's momentum grid (N+1 terms in "paper" grid
    mode, still divided by N), weighting each distinct mode.  Scalar or array t.
    """
    ts = np.asarray(t, dtype=float)
    logs, weights = _probabilities(spec, np.atleast_1d(ts))
    np.maximum(logs, AMPLITUDE_FLOOR, out=logs)
    np.log(logs, out=logs)
    logs *= weights[:, None]        # not weights @ logs: BLAS-independent sum
    f = -np.sum(logs, axis=0) / spec.n
    return f if ts.ndim else float(f[0])


def critical_momentum(g_i: float, g_f: float) -> float | None:
    """Fisher-zero momentum k* = arccos[(1 + g_i g_f)/(g_i + g_f)], if any.

    Returns None when |argument| >= 1 (no zero crossing exists).  At k* the
    old and new Bloch vectors are exactly orthogonal.
    """
    if g_i + g_f == 0.0:
        raise UndefinedExpressionError(
            "critical momentum undefined for g_i + g_f = 0")
    arg = (1.0 + g_i * g_f) / (g_i + g_f)
    if abs(arg) >= 1.0:
        return None
    return float(np.arccos(arg))


def critical_times(g_i: float, g_f: float, n_max: int = 3) -> np.ndarray:
    """Critical times t_c(n) = pi/|d_f(k*)| (n + 1/2), n = 0..n_max."""
    k_star = critical_momentum(g_i, g_f)
    if k_star is None:
        raise NoDqptError(
            f"no critical momentum for g_i={g_i}, g_f={g_f}; no DQPT occurs")
    d_f = bloch_vector(g_f, k_star)
    scale = np.pi / float(np.sqrt(d_f @ d_f))
    return scale * (np.arange(n_max + 1) + 0.5)


def dqpt_predicate(g_i: float, g_f: float) -> bool:
    """True iff the quench crosses the critical field: (1-|g_i|)(1-|g_f|) < 0."""
    return (1.0 - abs(g_i)) * (1.0 - abs(g_f)) < 0.0


def return_probability_map(spec: QuenchSpec, n_t: int):
    """Return-probability surface |G_k|^2 on the (k, t/t0) plane.

    Each row uses its own normalized time t/t0 in [0, 2] with
    t0 = pi/|d_f(k)|, matching how the mode sweeps are displayed; gapless
    final modes give a row of ones.  Returns (k grid, tau grid, matrix).
    """
    if n_t < 2:
        raise ConfigurationError(f"n_t must be >= 2, got {n_t}")
    taus = np.linspace(0.0, 2.0, n_t)
    probs = _probabilities(spec, taus, normalized=True, whole_grid=True)[0]
    return spec.momentum_grid(), taus, probs


def pulse_schedule(spec: QuenchSpec, c: float = 1.0,
                   n_t: int = 100) -> list[PulseScheduleEntry]:
    """Experimental drive schedule: one rotation entry per grid momentum.

    The axis angle is taken as atan2(d_y, d_x), which equals the quoted
    arcsin(g_f sin k / |d_f|) whenever d_x >= 0 and, unlike the arcsin,
    stays on the correct half-plane when 1 - g_f cos k < 0 (g_f > 1 near
    k = 0); the replay identity below then holds for every mode.
    Durations are n_t uniform samples of one full period [0, 2 pi/Omega].
    """
    if not (c > 0.0 and np.isfinite(c)):
        raise ConfigurationError(f"pulse constant must be > 0, got {c}")
    if n_t < 2:
        raise ConfigurationError(f"n_t must be >= 2, got {n_t}")
    _require_budget(8 * spec.n_modes * (n_t + GEOMETRY_ROWS),
                    f"{spec.n_modes} schedule entries x {n_t} durations")
    # judged per distinct mode: the paper grid's k = 2pi idles with k = 0
    idle = _gap_squared(spec.g_f, spec._momenta(spec._distinct_index())) == 0.0
    entries = []
    for k, gapless in zip(spec.momentum_grid(), idle):
        if gapless:
            entries.append(PulseScheduleEntry(
                k=float(k), axis_angle=0.0, rabi_rate=0.0,
                durations=np.zeros(n_t), idle=True))
            continue
        d_f = bloch_vector(spec.g_f, k)
        omega = c * float(np.sqrt(d_f @ d_f))
        entries.append(PulseScheduleEntry(
            k=float(k),
            axis_angle=float(np.arctan2(d_f[1], d_f[0])),
            rabi_rate=omega,
            durations=np.linspace(0.0, 2.0 * np.pi / omega, n_t),
        ))
    return entries


def replay_unitary(entry: PulseScheduleEntry, duration: float) -> np.ndarray:
    """Bloch rotation by angle Omega*T about the entry's in-plane axis.

    Equals evolution_unitary(d_f(k), Omega*T / (2 |d_f|)) up to global
    phase; idle entries replay as the identity.
    """
    if entry.idle:
        return np.eye(2, dtype=complex)
    theta = entry.rabi_rate * float(duration)
    axis = np.array([np.cos(entry.axis_angle), np.sin(entry.axis_angle), 0.0])
    return su2.evolution_unitary(axis, 0.5 * theta)


def default_time_grid(g_i: float, g_f: float, n_points: int = 300) -> np.ndarray:
    """[0, 3 t_c] when a DQPT exists, else [0, 10]; covers the visible range."""
    if dqpt_predicate(g_i, g_f) and g_i + g_f != 0.0:
        t_c = critical_times(g_i, g_f, n_max=0)[0]
        return np.linspace(0.0, 3.0 * t_c, n_points)
    return np.linspace(0.0, 10.0, n_points)
