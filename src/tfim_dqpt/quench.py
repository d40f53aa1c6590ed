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
both (the +-k pairing), so ``_blocks`` yields |G_k|^2 on the n_k' ~ N/2
distinct modes k in [0, pi] only, one time-major (slab times, n_k') slab at
a time.  On a uniform grid (``np.linspace`` over its ends) at least four
slabs long, angle addition gives cos at T + r h from cos/sin tables of the
slab starts T and offsets r h: with BLOCK-wide slabs, about 2 (n_t/BLOCK +
BLOCK) transcendentals per mode.  Other grids take one ``np.cos`` per cell.
Two kernels read the slabs: ``_mode_sums``, each time's weighted modes
summed pairwise (rate function, ``mean`` echo), and ``_probabilities``, the
mode-major (n_k', n_t) matrix (heatmap, ``mode_probabilities``, ``product``
echo).  Each guarded call checks, before its first allocation, one count
(``_working_set``) of all it holds, and refuses a count over
``MODE_BUDGET_BYTES`` with ``ResourceGuardError``.

``pulse_schedule`` writes the drive of every grid mode as one record array
(fields ``k``, ``axis_angle``, ``rabi_rate``, ``durations`` (n_t,) and
``idle``), built from the same Bloch-vector arrays and checked the same
way; ``replay_unitary`` replays one record as a literal rotation.

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
    InvalidArgumentError,
    NoDqptError,
    ResourceGuardError,
    UndefinedExpressionError,
)
from . import su2

__all__ = [
    "QuenchSpec",
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

# Largest working set (``_working_set``) a guarded call may hold, and the
# floats it counts per mode besides its n_t-long rows: the geometry arrays,
# or a schedule record's scalars
MODE_BUDGET_BYTES = 2 ** 30
GEOMETRY_ROWS = 12

# Times per slab of the mode kernel: BLOCK, or more to fill SLAB_CELLS cells.
# Angle addition holds four slabs, so it runs from four slab widths of times
# on, where they fit in the n_t rows budgeted.
BLOCK, SLAB_CELLS = 16, 2 ** 14

GRID_MODES = ("paper", "abc")


@dataclass(frozen=True)
class QuenchSpec:
    """One global quench experiment: fields, chain size, momentum grid."""

    g_i: float
    g_f: float
    n: int
    grid_mode: str = "paper"

    def __post_init__(self):
        su2._require_dims("g_i", self.g_i, 0)
        su2._require_dims("g_f", self.g_f, 0)
        n = su2._require_int("n", self.n, 2)
        if self.grid_mode not in GRID_MODES:
            raise ConfigurationError(
                f"grid_mode must be one of {GRID_MODES}, got {self.grid_mode!r}")
        object.__setattr__(self, "n", n)

    @property
    def n_modes(self) -> int:
        """Size of the momentum grid, known without building it."""
        return self.n + 1 if self.grid_mode == "paper" else self.n

    @property
    def n_distinct(self) -> int:
        """Distinct modes k in [0, pi]: k and 2pi - k are one mode."""
        return (self.n_modes + 1) // 2

    def momentum_grid(self) -> np.ndarray:
        """The n_modes grid momenta, refused over the mode budget."""
        _require_budget(_working_set(0, self.n_modes, 0),
                        f"a momentum grid of {self.n_modes} points")
        return self._grid()

    def _grid(self) -> np.ndarray:
        """``momentum_grid`` unguarded: callers check their modes."""
        return self._momenta(np.arange(self.n_modes))

    def _momenta(self, j: np.ndarray) -> np.ndarray:
        if self.grid_mode == "paper":
            return 2.0 * np.pi * j / self.n
        return (2.0 * j + 1.0) * np.pi / self.n

    def _distinct_index(self) -> np.ndarray:
        """Distinct mode of each grid point: k and 2pi - k are one mode."""
        j = np.arange(self.n_modes)
        return np.minimum(j, self.n_modes - 1 - j)

    def _multiplicity(self) -> np.ndarray:
        """Grid points each distinct mode stands for, as floats."""
        return np.bincount(self._distinct_index()).astype(float)


def bloch_vector(g: float, k: float) -> np.ndarray:
    """Mode Bloch vector d(g, k) = (1 - g cos k, g sin k, 0)."""
    g, k = su2._require_dims("g", g, 0), su2._require_dims("k", k, 0)
    return np.array([1.0 - g * np.cos(k), g * np.sin(k), 0.0])


def _bloch_xy(g, ks: np.ndarray):
    """(1 - g cos k, g sin k) over an array of k; a column g, a row each."""
    return 1.0 - g * np.cos(ks), g * np.sin(ks)


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
    x, y = _bloch_xy(np.array([[g_i], [g_f]]), ks)      # rows: initial, final
    n_i, n_f = np.sqrt(x * x + y * y)
    gapless = _gap_squared(g_i, ks) == 0.0
    if gapless.any():
        raise GaplessModeError(
            f"initial mode at k={ks[np.argmax(gapless)]} is gapless; "
            "the quench ground state is undefined")
    n_f[_gap_squared(g_f, ks) == 0.0] = 0.0
    overlap = np.ones_like(n_f)
    np.divide(x[0] * x[1] + y[0] * y[1], n_i * n_f, out=overlap, where=n_f > 0.0)
    return n_f, overlap


def _working_set(modes: int, n_t: int, per_mode: int, rows: int = 0) -> int:
    """Bytes a guarded call holds at most: per mode, GEOMETRY_ROWS floats and
    ``per_mode`` n_t-long rows (slabs, a matrix, durations); ``rows`` + 4
    rows of n_t + 1 floats (a grid copy or surfaces; the times, uniformity
    test, output and sums); numpy's iteration buffers (3 operands)."""
    return 8 * (modes * (GEOMETRY_ROWS + per_mode * n_t)
                + (rows + 4) * (n_t + 1) + 3 * np.getbufsize())


def _require_budget(need: int, what: str) -> None:
    """ResourceGuardError when ``need`` bytes exceed MODE_BUDGET_BYTES."""
    if need > MODE_BUDGET_BYTES:
        raise ResourceGuardError(
            f"{what} need {need:,} bytes, over the "
            f"{MODE_BUDGET_BYTES:,}-byte mode budget")


def _blocks(spec: QuenchSpec, grid: np.ndarray, normalized: bool = False):
    """(start, |G_k|^2 over (slab times, distinct modes)), slab by slab.

    |G_k|^2 = c^2 + (1 - c^2) cos^2(phase) <= 1, c = dhat_i . dhat_f: exactly
    1 where c = 1 (gapless final modes) and at phase 0 opening a slab; the
    phase is |d_f| t, or pi tau for normalized times tau = t/t0.  Slabs are
    C-contiguous, a row of all modes per time; those of equal width share
    one buffer, and the last ends at the grid's end, overlapping the one before.
    A time whose largest phase is past the float range raises
    InvalidArgumentError, as a non-finite time does.
    """
    su2._require_finite("t", grid)
    ks = spec._momenta(np.arange(spec.n_distinct))
    n_f, overlap = _mode_geometry(spec.g_i, spec.g_f, ks)
    rate = np.full_like(n_f, np.pi) if normalized else n_f
    su2._require_phase(rate, grid)
    c2 = overlap * overlap
    s2, width = 1.0 - c2, min(max(BLOCK, SLAB_CELLS // rate.size), grid.size)
    slab = np.empty((width, rate.size))
    uniform = (0 < 4 * width <= grid.size and np.array_equal(
        grid, np.linspace(grid[0], grid[-1], grid.size)))
    if uniform:   # cos(a + b) = cos a cos b - sin a sin b, b = (t_r - t_0) rate
        b = np.multiply.outer(grid[:width] - grid[0], rate)
        cos_b, sin_b, tmp = np.cos(b), np.sin(b, out=b), np.empty_like(slab)
    for start in range(0, grid.size, width or 1):
        start = min(start, grid.size - width)
        if uniform:
            a = rate * grid[start]
            np.multiply(cos_b, np.cos(a), out=slab)
            slab -= np.multiply(sin_b, np.sin(a, out=a), out=tmp)
        else:
            np.cos(np.multiply.outer(grid[start:start + width], rate, out=slab),
                   out=slab)
        slab *= slab
        slab *= s2
        yield start, np.minimum(np.add(slab, c2, out=slab), 1.0, out=slab)


def _mode_sums(spec: QuenchSpec, grid: np.ndarray, transform, normalized: bool = False):
    """Per time, the grid sum of transform(|G_k|^2), transformed in place and
    weighted slab by slab, each row summed pairwise.  Unguarded."""
    weights, sums = spec._multiplicity(), np.empty(grid.size)
    for start, slab in _blocks(spec, grid, normalized):
        transform(slab)
        slab *= weights             # not slab @ weights: BLAS-independent sum
        sums[start:start + slab.shape[0]] = np.sum(slab, axis=1)
    return sums


def _probabilities(spec: QuenchSpec, grid: np.ndarray,
                   normalized: bool = False) -> np.ndarray:
    """|G_k|^2 over (distinct modes, n_t), filled with each time-major slab's
    transpose.  Unguarded: its callers check the budget."""
    probs = np.empty((spec.n_distinct, grid.size))
    for start, slab in _blocks(spec, grid, normalized):
        probs[:, start:start + slab.shape[0]] = slab.T
    return probs


def _require_map_budget(spec: QuenchSpec, n_t: int) -> None:
    """Refuse a (distinct modes, n_t) matrix over the mode budget: the
    matrix, its slabs and a grid copy."""
    _require_budget(_working_set(spec.n_distinct, n_t, 2, spec.n_modes),
                    f"{spec.n_modes} modes x {n_t} times")


def _grid_probabilities(spec: QuenchSpec, n_t: int, grid=None):
    """(times, |G_k|^2 over (distinct modes, n_t)), its count checked first;
    times ``grid``, else n_t taus in [0, 2]."""
    _require_map_budget(spec, n_t)
    if normalized := grid is None:
        grid = np.linspace(0.0, 2.0, n_t)
    return grid, _probabilities(spec, grid, normalized)


def loschmidt_mode(spec: QuenchSpec, k: float, t):
    """Per-mode Loschmidt amplitude G_k(t); scalar or array in t.

    Gapless final modes (|d_f| = 0) do not evolve, so G_k = 1 there.
    Non-finite k or times, or a phase |d_f| t past the float range, raise
    InvalidArgumentError.
    """
    t = su2._require_finite("t", t)
    n_f, overlap = _mode_geometry(spec.g_i, spec.g_f,
                                  np.array([float(su2._require_dims("k", k, 0))]))
    n_f, overlap = float(n_f[0]), float(overlap[0])
    su2._require_phase(n_f, t)
    g = np.cos(n_f * t) + 1.0j * overlap * np.sin(n_f * t)
    return g if t.ndim else complex(g)


def mode_probabilities(spec: QuenchSpec, t) -> tuple[np.ndarray, np.ndarray]:
    """(k grid, |G_k(t)|^2 matrix of shape (n_k, n_t)) for the spec's grid."""
    ts = np.atleast_1d(su2._require_dims("t", t, 1))
    probs = _grid_probabilities(spec, ts.size, ts)[1][spec._distinct_index()]
    return spec._grid(), probs


def _require_rate_budget(spec: QuenchSpec, n_t: int) -> None:
    """Refuse a rate function over the mode budget: its slabs and output."""
    _require_budget(_working_set(spec.n_distinct, n_t, 1),
                    f"{spec.n_modes} modes x {n_t} times")


def rate_function(spec: QuenchSpec, t):
    """Loschmidt rate function f(t) = -(1/N) sum_k log |G_k(t)|^2, scalar or
    array t: a ``_mode_sums`` over the spec's momentum grid (N+1 terms in
    "paper" grid mode, still divided by N)."""
    ts = su2._require_dims("t", t, 1)
    _require_rate_budget(spec, ts.size)
    f = -_mode_sums(spec, np.atleast_1d(ts), lambda p: np.log(
        np.maximum(p, AMPLITUDE_FLOOR, out=p), out=p)) / spec.n
    return f if ts.ndim else float(f[0])


def critical_momentum(g_i: float, g_f: float) -> float | None:
    """Fisher-zero momentum k* = arccos[(1 + g_i g_f)/(g_i + g_f)], if any.

    Returns None when |argument| >= 1 (no zero crossing exists).  At k* the
    old and new Bloch vectors are exactly orthogonal.
    """
    su2._require_dims("g_i", g_i, 0)
    su2._require_dims("g_f", g_f, 0)
    if g_i + g_f == 0.0:
        raise UndefinedExpressionError(
            "critical momentum undefined for g_i + g_f = 0")
    arg = (1.0 + g_i * g_f) / (g_i + g_f)
    if abs(arg) >= 1.0:
        return None
    return float(np.arccos(arg))


def critical_times(g_i: float, g_f: float, n_max: int = 3) -> np.ndarray:
    """Critical times t_c(n) = pi/|d_f(k*)| (n + 1/2), n = 0..n_max."""
    n_max = su2._require_int("n_max", n_max, 0, error=InvalidArgumentError)
    k_star = critical_momentum(g_i, g_f)
    if k_star is None:
        raise NoDqptError(
            f"no critical momentum for g_i={g_i}, g_f={g_f}; no DQPT occurs")
    d_f = bloch_vector(g_f, k_star)
    scale = np.pi / float(np.sqrt(d_f @ d_f))
    _require_budget(_working_set(0, n_max + 1, 0), f"{n_max + 1} critical times")
    return scale * (np.arange(n_max + 1) + 0.5)


def dqpt_predicate(g_i: float, g_f: float) -> bool:
    """True iff the quench crosses the critical field: (1-|g_i|)(1-|g_f|) < 0."""
    su2._require_dims("g_i", g_i, 0)
    su2._require_dims("g_f", g_f, 0)
    return (1.0 - abs(g_i)) * (1.0 - abs(g_f)) < 0.0


def return_probability_map(spec: QuenchSpec, n_t: int):
    """Return-probability surface |G_k|^2 on the (k, t/t0) plane.

    Each row uses its own normalized time t/t0 in [0, 2] with
    t0 = pi/|d_f(k)|, matching how the mode sweeps are displayed; gapless
    final modes give a row of ones.  Returns (k grid, tau grid, matrix).
    """
    taus, probs = _grid_probabilities(spec, su2._require_int("n_t", n_t, 2))
    probs = probs[spec._distinct_index()]
    return spec._grid(), taus, probs


def pulse_schedule(spec: QuenchSpec, c: float = 1.0,
                   n_t: int = 100) -> np.recarray:
    """Experimental drive schedule: one record per grid momentum.

    ``axis_angle`` = atan2(d_y, d_x) places the rotation axis in the xy
    plane; it equals the quoted arcsin(g_f sin k / |d_f|) whenever d_x >= 0
    and, unlike the arcsin, keeps the half-plane when 1 - g_f cos k < 0
    (g_f > 1 near k = 0).  ``rabi_rate`` = c |d_f(k)|, and ``durations``
    sample one period [0, 2 pi / rabi_rate] n_t times, as np.linspace does:
    replaying T as a rotation by rabi_rate T gives the mode propagator at
    c T / 2, the same normalized precession speed for every mode.  Gapless
    final modes are ``idle``, with zero axis, rate and durations.  Refuses a
    constant for which a rate or its period is not a finite float.
    """
    if su2._require_dims("c", c, 0) <= 0.0:
        raise ConfigurationError(
            f"pulse constant must be finite and > 0, got {c}")
    n_t = su2._require_int("n_t", n_t, 2)
    _require_budget(_working_set(spec.n_modes, n_t, 1),
                    f"{spec.n_modes} schedule rows x {n_t} durations")
    # judged per distinct mode: the paper grid's k = 2pi idles with k = 0
    idle = _gap_squared(spec.g_f, spec._momenta(spec._distinct_index())) == 0.0
    sched = np.recarray(spec.n_modes, dtype=np.dtype([
        ("k", float), ("axis_angle", float), ("rabi_rate", float),
        ("durations", float, (n_t,)), ("idle", bool)], align=True))
    ks = spec._grid()
    sched.k, sched.idle = ks, idle
    x, y = _bloch_xy(spec.g_f, ks)
    sched.axis_angle = np.where(idle, 0.0, np.arctan2(y, x))
    with np.errstate(over="ignore", divide="ignore"):
        sched.rabi_rate = np.where(idle, 0.0, c * np.sqrt(x * x + y * y))
        period = np.divide(2.0 * np.pi, sched.rabi_rate, where=~idle,
                           out=np.zeros_like(ks))
    if not (np.isfinite(sched.rabi_rate).all() and np.isfinite(period).all()):
        raise ConfigurationError(
            f"pulse constant {c} puts a Rabi rate or its period 2 pi/rate "
            "out of the float range")
    # np.linspace(0, period, n_t) on every row: j * (period / (n_t - 1)),
    # the period last
    np.multiply.outer(period / (n_t - 1), np.arange(n_t, dtype=float),
                      out=sched.durations)
    sched.durations[:, -1] = period
    return sched


def replay_unitary(entry, duration: float) -> np.ndarray:
    """Bloch rotation by angle Omega*T about one schedule record's axis.

    Equals evolution_unitary(d_f(k), Omega*T / (2 |d_f|)) up to global
    phase; idle records replay as the identity.  The literal per-record
    oracle of the closed-form replay check.
    """
    duration = float(su2._require_dims("duration", duration, 0))
    if entry.idle:
        return np.eye(2, dtype=complex)
    theta = entry.rabi_rate * duration
    axis = np.array([np.cos(entry.axis_angle), np.sin(entry.axis_angle), 0.0])
    return su2.evolution_unitary(axis, 0.5 * theta)


def default_time_grid(g_i: float, g_f: float, n_points: int = 300) -> np.ndarray:
    """[0, 3 t_c] when a DQPT exists, else [0, 10]; covers the visible range."""
    n_points = su2._require_int("n_points", n_points, 2, error=InvalidArgumentError)
    _require_budget(_working_set(0, n_points, 0), f"a time grid of {n_points} points")
    if dqpt_predicate(g_i, g_f) and g_i + g_f != 0.0:
        t_c = critical_times(g_i, g_f, n_max=0)[0]
        return np.linspace(0.0, 3.0 * t_c, n_points)
    return np.linspace(0.0, 10.0, n_points)
