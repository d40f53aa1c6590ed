"""Time-reversal echo protocol and multiple-quantum coherence analysis.

The sequence per momentum mode: evolve forward under the quench
Hamiltonian, rotate by phi about the initial mode axis dhat_i, evolve
under the sign-inverted Hamiltonian for the same duration, then read out
fidelity against the initial state or the magnetization along dhat_i.  The
phi dependence of either signal is a real Fourier series whose components
are the multiple-quantum coherence intensities I_m (fidelity) or
amplitudes A_m (magnetization); a single mode only supports m = 0, +-1.

Both signals are closed forms.  A mode starts in the ground state of
-d_i . sigma, with Bloch vector dhat_i.  Let n be the component along
dhat_i of dhat_i rotated by 2|d_f| t about dhat_f: n = 2 P_k(t) - 1, with
P_k = |G_k|^2 the return probability of ``quench``.  Per mode the echo
fidelity is

    F_k(phi, t) = cos^2(phi/2) + sin^2(phi/2) n^2

and the magnetization <dhat_i . sigma>/2 of the echoed state is

    M_k(phi, t) = (cos phi + 2 sin^2(phi/2) n^2) / 2,

so the whole (k, t, phi) scan reduces to the (n_k, n_t) matrix of n^2.
At g_i = 0, dhat_i = x and every mode starts in |x>: ``echo_state``
keeps the literal three-factor sequence for that case as the test oracle.

Time grids come in two interpretations.  ``absolute`` evolves every mode
to the same time t.  ``normalized`` reads grid values as tau = t/t0 with
t0 = pi/|d_f(k)| per mode, mirroring the drive schedule that sweeps each
mode through one full period at the same normalized speed; the critical
time of a DQPT quench sits at tau = 0.5 on that axis for every mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingError,
    ConfigurationError,
    InvalidArgumentError,
    WindowRangeError,
)
from . import quench, su2
from .quench import QuenchSpec
from .su2 import X_PLUS, evolution_unitary, rotation_x

__all__ = [
    "EchoConfig",
    "MqcSpectrum",
    "echo_state",
    "fidelity_otoc",
    "magnetization_otoc",
    "mqc_spectrum",
    "mqc_components",
    "spectrum_dynamics",
    "coherence_series",
    "otoc_general",
    "double_well_detector",
    "DW_THRESHOLD",
]

AGGREGATIONS = ("mean", "product")
TIME_MODES = ("absolute", "normalized")
OBSERVABLES = ("fidelity", "magnetization")

# ~1% of the observed A_1 dynamic range; suppresses float noise, not physics.
DW_THRESHOLD = 1e-3


@dataclass(frozen=True)
class EchoConfig:
    """Echo-scan configuration over a (phi, t) grid.

    ``n_phi`` uniform angles in [0, 2pi); aggregation over modes is
    ``product`` (the many-body Loschmidt echo) or ``mean`` (per-run
    average of independent mode measurements).
    """

    spec: QuenchSpec
    time_grid: np.ndarray
    n_phi: int = 64
    aggregation: str = "mean"
    time_mode: str = "absolute"

    def __post_init__(self):
        if self.aggregation not in AGGREGATIONS:
            raise ConfigurationError(
                f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}")
        if self.time_mode not in TIME_MODES:
            raise ConfigurationError(
                f"time_mode must be one of {TIME_MODES}, got {self.time_mode!r}")
        if not (self.n_phi >= 3 and su2._is_integral(self.n_phi)):
            raise ConfigurationError(f"n_phi must be an integer >= 3, got {self.n_phi}")
        grid = np.atleast_1d(np.asarray(self.time_grid, dtype=float))
        if grid.size == 0 or not np.all(np.isfinite(grid)):
            raise ConfigurationError("time_grid must be nonempty and finite")
        object.__setattr__(self, "time_grid", grid)
        object.__setattr__(self, "n_phi", int(self.n_phi))

    @property
    def phi_values(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi


@dataclass(frozen=True)
class MqcSpectrum:
    """Fourier components m -> complex amplitude, m = -m_max..m_max."""

    m_max: int
    components: np.ndarray

    def component(self, m: int) -> complex:
        if abs(m) > self.m_max:
            raise IndexError(f"order {m} outside |m| <= {self.m_max}")
        return complex(self.components[m + self.m_max])

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.m_max, self.m_max + 1)


def echo_state(d_f, t: float, phi: float, psi0=X_PLUS) -> np.ndarray:
    """Echoed mode state U(-d_f, t) R_x(phi) U(d_f, t) |psi0>.

    The backward leg implements the sign-inverted Hamiltonian literally;
    for these unitaries that coincides with the inverse of the forward leg.
    """
    forward = evolution_unitary(d_f, t)
    backward = evolution_unitary(-np.asarray(d_f, dtype=float), t)
    return backward @ (rotation_x(phi) @ (forward @ np.asarray(psi0, dtype=complex)))


def _require_scan_budget(spec: QuenchSpec, n_t: int, n_phi: int) -> None:
    """Refuse an echo scan over the mode budget: its matrix and slabs, and
    three (n_phi, n_t) surfaces (a running product and two temporaries)."""
    quench._require_budget(
        quench._working_set(spec.n_distinct, n_t, 2, 3 * n_phi),
        f"{n_phi} angles x {n_t} times over {spec.n_modes} modes")


def _squared_n(config: EchoConfig) -> tuple[np.ndarray, np.ndarray]:
    """n^2 = (2 P_k - 1)^2 over (distinct modes, t), in place, and each
    mode's multiplicity."""
    _require_scan_budget(config.spec, config.time_grid.size, config.n_phi)
    n, weights = quench._probabilities(
        config.spec, config.time_grid, config.time_mode == "normalized")
    n *= 2.0
    n -= 1.0
    n *= n
    return n, weights


def _mode_mean(n2: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Grid mean of n^2 from the distinct rows, which it scales in place."""
    n2 *= weights[:, None]
    return n2.sum(axis=0) / weights.sum()


def _half_angle_weights(config: EchoConfig):
    """cos^2(phi/2) and sin^2(phi/2) as (n_phi, 1) columns."""
    half = config.phi_values[:, None] / 2.0
    return np.cos(half) ** 2, np.sin(half) ** 2


def fidelity_otoc(config: EchoConfig) -> np.ndarray:
    """Echo fidelity matrix over (phi, t), aggregated over modes.

    Per mode |<psi0|echo>|^2 = cos^2(phi/2) + sin^2(phi/2) n^2 (n along dhat_i);
    ``product`` multiplies modes (the many-body Loschmidt echo), a distinct
    mode's factor raised to its multiplicity; ``mean`` averages them.  The
    phi = 0 column is identically 1: unitary reversal is exact in simulation.
    """
    n2, weights = _squared_n(config)
    cos2, sin2 = _half_angle_weights(config)
    if config.aggregation == "mean":
        return cos2 + sin2 * _mode_mean(n2, weights)
    fids = np.ones((config.n_phi, n2.shape[1]))
    for row, weight in zip(n2, weights):
        fids *= (cos2 + sin2 * row) ** weight
    return fids


def magnetization_otoc(config: EchoConfig) -> np.ndarray:
    """Mean per-mode <dhat_i . sigma>/2 of the echoed states over (phi, t).

    Magnetization is intensive, so ``mean`` is the only admissible
    aggregation; a product request is rejected.
    """
    if config.aggregation == "product":
        raise ConfigurationError(
            "magnetization_otoc requires mean aggregation; "
            "product of intensive observables is not defined")
    mean = _mode_mean(*_squared_n(config))
    _, sin2 = _half_angle_weights(config)
    return 0.5 * (np.cos(config.phi_values)[:, None] + 2.0 * sin2 * mean)


def require_resolvable(n_phi: int, m_max: int) -> None:
    """AliasingError unless n_phi angles resolve the orders |m| <= m_max."""
    if not (su2._is_integral(n_phi) and su2._is_integral(m_max)
            and m_max >= 0):
        raise InvalidArgumentError(f"N_phi = {n_phi} and m_max = {m_max} "
                                   "must be integers, m_max >= 0")
    if n_phi < 2 * m_max + 1:
        raise AliasingError(
            f"N_phi = {n_phi} cannot resolve m_max = {m_max}; "
            f"need N_phi >= {2 * m_max + 1}")


def mqc_components(scan, m_max: int) -> np.ndarray:
    """Discrete Fourier components of a real phi scan, column by column.

    component(m) = (1/N_phi) sum_j scan(phi_j) exp(-i m phi_j) on the
    uniform grid phi_j = 2 pi j / N_phi, for a (N_phi,) signal or every
    column of a (N_phi, n_t) matrix; row m + m_max of the result holds
    order m.  Resolving |m| <= m_max without aliasing requires
    N_phi >= 2 m_max + 1.
    """
    scan = np.asarray(scan, dtype=float)
    n_phi = scan.shape[0]
    require_resolvable(n_phi, m_max)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    orders = np.arange(-m_max, m_max + 1)
    kernel = np.exp(-1.0j * np.outer(orders, phis))
    return kernel @ scan / n_phi


def mqc_spectrum(signal, m_max: int) -> MqcSpectrum:
    """MQC spectrum of one real phi-scan signal (see ``mqc_components``)."""
    return MqcSpectrum(m_max=int(m_max),
                       components=mqc_components(np.ravel(signal), m_max))


def spectrum_dynamics(config: EchoConfig, observable: str,
                      m_max: int) -> list[MqcSpectrum]:
    """mqc_spectrum of every time column of the chosen echo observable."""
    if observable not in OBSERVABLES:
        raise ConfigurationError(
            f"observable must be one of {OBSERVABLES}, got {observable!r}")
    require_resolvable(config.n_phi, m_max)
    if observable == "fidelity":
        matrix = fidelity_otoc(config)
    else:
        matrix = magnetization_otoc(config)
    return [MqcSpectrum(m_max=int(m_max), components=column)
            for column in mqc_components(matrix, m_max).T]


def coherence_series(spectra: list[MqcSpectrum], m: int) -> np.ndarray:
    """Order-m component across a spectrum time series."""
    return np.array([s.component(m) for s in spectra])


def otoc_general(w, v, d, t: float, psi0, convention: str = "paper") -> complex:
    """General two-operator OTOC F = <psi0| W(t)^dag V^dag W(t) V |psi0>.

    ``paper`` convention uses W(t) = U W U^dag with U = exp(-i (d.sigma) t),
    i.e. the forward-conjugated order e^{-iHt} W e^{+iHt} matching the echo
    sequence; ``conventional`` uses the Heisenberg order U^dag W U.  The
    commutator identity Re F = 1 - <|[W(t), V]|^2>/2 holds for either.
    """
    w = np.asarray(w, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if not su2.is_unitary(w):
        raise InvalidArgumentError("W must be unitary")
    if not su2.is_unitary(v):
        raise InvalidArgumentError("V must be unitary")
    if convention not in ("paper", "conventional"):
        raise ConfigurationError(f"unknown convention {convention!r}")
    u = evolution_unitary(d, t)
    if convention == "paper":
        w_t = u @ w @ u.conj().T
    else:
        w_t = u.conj().T @ w @ u
    psi0 = np.asarray(psi0, dtype=complex)
    return complex(np.vdot(psi0, w_t.conj().T @ (v.conj().T @ (w_t @ (v @ psi0)))))


def double_well_detector(times, values, t_c: float, window: float,
                         eps_dw: float = DW_THRESHOLD) -> str:
    """Classify a real time series as ``double_well`` or ``single_well``.

    ``double_well`` iff some strict interior local minimum with
    t in [t_c - window, t_c + window] is exceeded by at least ``eps_dw``
    on both sides.  The flanking peaks are the highest samples left and
    right of the minimum over the whole series, so a well truncated by the
    scan edge still reads as a well; only the minimum is window-bound.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape or times.size < 3:
        raise ConfigurationError("series must be 1-D with at least 3 samples")
    lo, hi = t_c - window, t_c + window
    if lo < times[0] or hi > times[-1]:
        raise WindowRangeError(
            f"window [{lo}, {hi}] outside sampled range [{times[0]}, {times[-1]}]")
    interior = np.arange(1, times.size - 1)
    strict_min = (values[interior] < values[interior - 1]) \
        & (values[interior] < values[interior + 1])
    in_window = (times[interior] >= lo) & (times[interior] <= hi)
    for i in interior[strict_min & in_window]:
        dip = values[i]
        if values[:i].max() >= dip + eps_dw and values[i + 1:].max() >= dip + eps_dw:
            return "double_well"
    return "single_well"
