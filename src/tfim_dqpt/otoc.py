"""Time-reversal echo protocol and multiple-quantum coherence analysis.

The sequence per momentum mode: evolve forward under the quench
Hamiltonian, rotate about x by phi, evolve under the sign-inverted
Hamiltonian for the same duration, then read out fidelity against the
initial state or the x magnetization.  The phi dependence of either signal
is a real Fourier series whose components are the multiple-quantum
coherence intensities I_m (fidelity) or amplitudes A_m (magnetization);
a single mode only supports orders m = 0, +-1.

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
from .quench import QuenchSpec, build_ensemble
from . import su2
from .su2 import X_PLUS, evolution_unitary, rotation_x

__all__ = [
    "EchoConfig",
    "MqcSpectrum",
    "echo_state",
    "fidelity_otoc",
    "magnetization_otoc",
    "mqc_spectrum",
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
        if int(self.n_phi) != self.n_phi or self.n_phi < 3:
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


def _evolution_batch(d_vecs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Propagators exp(-i d_k . sigma t_kj) of shape (n_k, n_t, 2, 2)."""
    mags = np.linalg.norm(d_vecs, axis=1)
    safe = np.where(mags > 0.0, mags, 1.0)
    dhat = d_vecs / safe[:, None]          # zero rows stay zero; sin kills them
    sig = (dhat[:, 0, None, None] * su2.SIGMA_X
           + dhat[:, 1, None, None] * su2.SIGMA_Y
           + dhat[:, 2, None, None] * su2.SIGMA_Z)
    phase = mags[:, None] * times
    cos_p = np.cos(phase)[..., None, None]
    sin_p = np.sin(phase)[..., None, None]
    return cos_p * su2.IDENTITY_2 - 1.0j * sin_p * sig[:, None]


def _mode_times(config: EchoConfig, d_final: np.ndarray) -> np.ndarray:
    """Absolute evolution time per (mode, grid point); (n_k, n_t)."""
    ts = config.time_grid
    if config.time_mode == "absolute":
        return np.broadcast_to(ts, (d_final.shape[0], ts.size)).copy()
    mags = np.linalg.norm(d_final, axis=1)
    # gapless modes have no period; they sit idle (t = 0, trivial echo)
    periods = np.where(mags > 0.0, np.pi / np.where(mags > 0.0, mags, 1.0), 0.0)
    return periods[:, None] * ts


def _echo_scan(config: EchoConfig):
    """Per-mode echoed states on the full (k, t, phi) grid."""
    ens = build_ensemble(config.spec)
    times = _mode_times(config, ens.d_final)
    u_fwd = _evolution_batch(ens.d_final, times)
    u_bwd = _evolution_batch(-ens.d_final, times)
    rot = np.stack([rotation_x(p) for p in config.phi_values])
    fwd = np.einsum("ktab,kb->kta", u_fwd, ens.psi0)
    rotated = np.einsum("pab,ktb->ktpa", rot, fwd)
    out = np.einsum("ktab,ktpb->ktpa", u_bwd, rotated)
    return ens, out


def fidelity_otoc(config: EchoConfig) -> np.ndarray:
    """Echo fidelity matrix over (phi, t), aggregated over modes.

    Per mode |<psi0|echo>|^2; ``product`` multiplies modes in ascending k
    (the many-body Loschmidt echo), ``mean`` averages them.  The phi = 0
    column is identically 1: unitary reversal is exact in simulation.
    """
    ens, states = _echo_scan(config)
    amps = np.einsum("ka,ktpa->ktp", ens.psi0.conj(), states)
    fids = np.abs(amps) ** 2
    if config.aggregation == "product":
        agg = np.prod(fids, axis=0)
    else:
        agg = np.mean(fids, axis=0)
    return agg.T  # (phi, t)


def magnetization_otoc(config: EchoConfig) -> np.ndarray:
    """Mean per-mode <S_x> of the echoed states over (phi, t).

    Magnetization is intensive, so ``mean`` is the only admissible
    aggregation; a product request is rejected.
    """
    if config.aggregation == "product":
        raise ConfigurationError(
            "magnetization_otoc requires mean aggregation; "
            "product of intensive observables is not defined")
    _, states = _echo_scan(config)
    mags = np.real(np.conj(states[..., 0]) * states[..., 1])  # <sigma_x>/2
    return np.mean(mags, axis=0).T


def require_resolvable(n_phi: int, m_max: int) -> None:
    """AliasingError unless n_phi angles resolve the orders |m| <= m_max."""
    if n_phi < 2 * m_max + 1:
        raise AliasingError(
            f"N_phi = {n_phi} cannot resolve m_max = {m_max}; "
            f"need N_phi >= {2 * m_max + 1}")


def mqc_spectrum(signal, m_max: int) -> MqcSpectrum:
    """Discrete Fourier components of a real phi-scan signal.

    component(m) = (1/N_phi) sum_j signal(phi_j) exp(-i m phi_j) on the
    uniform grid phi_j = 2 pi j / N_phi.  Resolving |m| <= m_max without
    aliasing requires N_phi >= 2 m_max + 1.
    """
    signal = np.asarray(signal, dtype=float)
    n_phi = signal.size
    require_resolvable(n_phi, m_max)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    orders = np.arange(-m_max, m_max + 1)
    kernel = np.exp(-1.0j * np.outer(orders, phis))
    return MqcSpectrum(m_max=int(m_max), components=kernel @ signal / n_phi)


def spectrum_dynamics(config: EchoConfig, observable: str,
                      m_max: int) -> list[MqcSpectrum]:
    """mqc_spectrum of every time column of the chosen echo observable."""
    if observable not in OBSERVABLES:
        raise ConfigurationError(
            f"observable must be one of {OBSERVABLES}, got {observable!r}")
    if observable == "fidelity":
        matrix = fidelity_otoc(config)
    else:
        matrix = magnetization_otoc(config)
    return [mqc_spectrum(matrix[:, j], m_max) for j in range(matrix.shape[1])]


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
