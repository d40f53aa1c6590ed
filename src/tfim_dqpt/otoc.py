"""Time-reversal echo protocol and multiple-quantum coherence analysis.

The sequence per momentum mode: evolve forward under the quench
Hamiltonian, rotate by phi about the initial mode axis dhat_i, evolve
under the sign-inverted Hamiltonian for the same duration, then read out
fidelity against the initial state or the magnetization along dhat_i.  The
phi dependence of either signal is a real Fourier series whose components
are the multiple-quantum coherence intensities I_m (fidelity) or
amplitudes A_m (magnetization).

Both signals are closed forms in n = 2 P_k(t) - 1, the component along
dhat_i of dhat_i rotated by 2|d_f| t about dhat_f (P_k = |G_k|^2 of
``quench``): per mode F_k = cos^2(phi/2) + sin^2(phi/2) n^2 and
M_k = (cos phi + 2 sin^2(phi/2) n^2)/2.  Under ``mean`` aggregation both
surfaces are linear in cos phi with one coefficient, the mode moment
m(t) = <n_k^2>, a weighted row sum (``quench._mode_sums``) like the rate
function: I_0 = (1 + m)/2, A_0 = m/2, I_+-1 = A_+-1 = (1 - m)/4, and every
other order is 0.  The ``product`` fidelity multiplies in one factor row per
distinct mode of the mode-major matrix (``quench._probabilities``); its
orders reach the grid size, and its DFT on n_phi angles folds those past
n_phi/2 onto the low ones (README).  Every surface is built on the
n_phi//2 + 1 distinct angles (``_phi_coefficients``), and ``_phi_fold``
maps each angle phi_j to its row min(j, n_phi - j): the CLI writes the
distinct rows with that fold, and the public surfaces are unfolded by it,
so rows phi_j and 2pi - phi_j are bitwise equal.  ``echo_state``,
``mqc_components`` and ``spectrum_dynamics`` stay as the test oracles.

Time grids come in two interpretations.  ``absolute`` evolves every mode
to the same time t.  ``normalized`` reads grid values as tau = t/t0 with
t0 = pi/|d_f(k)| per mode; the critical time of a DQPT quench sits at
tau = 0.5 for every mode.  There A_1 is a quadratic in cos 2 pi tau
(``_well_moments``), so its well depth (``double_well_depth``) needs no
scan, and the double-well verdict is depth >= eps_dw.
``double_well_detector`` stays as the literal oracle for that verdict: it
classifies a sampled series, such as A_1 read off the DFT path.
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
    "double_well_depth",
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
        n_phi = su2._require_int("n_phi", self.n_phi, 3)
        grid = np.atleast_1d(su2._require_dims("time_grid", self.time_grid, 1))
        if grid.size == 0:
            raise ConfigurationError("time_grid must be nonempty")
        object.__setattr__(self, "time_grid", grid)
        object.__setattr__(self, "n_phi", n_phi)

    @property
    def phi_values(self) -> np.ndarray:
        quench._require_budget(quench._working_set(0, self.n_phi, 0),
                               f"a grid of {self.n_phi} angles")
        return _phi_grid(self.n_phi)


@dataclass(frozen=True)
class MqcSpectrum:
    """Fourier components m -> complex amplitude, m = -m_max..m_max."""

    m_max: int
    components: np.ndarray

    def __post_init__(self):
        m_max = su2._require_int("m_max", self.m_max, 0, error=InvalidArgumentError)
        comps = su2._require_finite("components", self.components, complex)
        if comps.shape != (2 * m_max + 1,):
            raise InvalidArgumentError(f"components must hold 2 m_max + 1 = "
                                       f"{2 * m_max + 1} orders, got {comps.shape}")
        object.__setattr__(self, "m_max", m_max)
        object.__setattr__(self, "components", comps)

    def component(self, m: int) -> complex:
        if not su2._is_integral(m):
            raise InvalidArgumentError(f"order must be an integer, got {m!r}")
        if abs(m) > self.m_max:
            raise IndexError(f"order {m} outside |m| <= {self.m_max}")
        return complex(self.components[int(m) + self.m_max])


def echo_state(d_f, t: float, phi: float, psi0=X_PLUS) -> np.ndarray:
    """Echoed mode state U(-d_f, t) R_x(phi) U(d_f, t) |psi0>.

    The backward leg implements the sign-inverted Hamiltonian literally;
    for these unitaries that coincides with the inverse of the forward leg.
    """
    forward = evolution_unitary(d_f, t)
    backward = evolution_unitary(-np.asarray(d_f, dtype=float), t)
    return backward @ (rotation_x(phi) @ (forward @ su2._require_state("psi0", psi0)))


def _require_scan_budget(spec: QuenchSpec, n_t: int, n_phi: int, aggregation: str):
    """Refuse an echo scan over the mode budget: its slabs (and ``product``'s
    matrix), and three (n_phi, n_t) surfaces or their product's temporaries."""
    quench._require_budget(quench._working_set(
        spec.n_distinct, n_t, 1 + (aggregation == "product"), 3 * n_phi),
        f"{n_phi} angles x {n_t} times over {spec.n_modes} modes")


def _n_squared(p: np.ndarray) -> np.ndarray:
    """|G_k|^2 = P to n^2 = (2 P - 1)^2, in place."""
    p *= 2.0
    p -= 1.0
    return np.multiply(p, p, out=p)


def _mode_moment(config: EchoConfig) -> np.ndarray:
    """m(t) = <n_k^2>, the grid mean of n^2.  Unguarded: callers check it."""
    return quench._mode_sums(config.spec, config.time_grid, _n_squared,
                             config.time_mode == "normalized") / config.spec.n_modes


def _phi_grid(n_phi: int) -> np.ndarray:
    """The n_phi uniform angles phi_j = 2 pi j / n_phi in [0, 2pi).
    Unguarded: callers check their angles."""
    return 2.0 * np.pi * np.arange(n_phi) / n_phi


def _phi_coefficients(n_phi: int):
    """(cos^2(phi/2), sin^2(phi/2), cos phi) as columns over the n_phi//2 + 1
    distinct angles: all three are even in phi (mod 2pi)."""
    phis = _phi_grid(n_phi)[:n_phi // 2 + 1, None]
    return np.cos(phis / 2.0) ** 2, np.sin(phis / 2.0) ** 2, np.cos(phis)


def _phi_fold(n_phi: int) -> np.ndarray:
    """The distinct angle min(j, n_phi - j) of each angle phi_j."""
    return np.minimum(np.arange(n_phi), n_phi - np.arange(n_phi))


def _mean_surface(m: np.ndarray, n_phi: int, observable: str):
    """A ``mean`` surface over (distinct phi, t) from its mode moment m: the
    fidelity cos^2(phi/2) + sin^2(phi/2) m, or the magnetization
    (cos phi + 2 sin^2(phi/2) m)/2."""
    cos2, sin2, cos = _phi_coefficients(n_phi)
    if observable == "fidelity":
        return cos2 + sin2 * m
    return 0.5 * (cos + 2.0 * sin2 * m)


def _mean_spectra(m: np.ndarray, m_max: int, observable: str) -> np.ndarray:
    """The real part of ``mqc_components`` of a ``mean`` surface, in closed
    form from m; every imaginary part is exactly +0.0.

    Both surfaces are a + b cos phi with b = (1 - m)/2, a = (1 + m)/2
    (fidelity) or m/2 (magnetization): order 0 is a, orders +-1 are b/2,
    and every other order is exactly +0.0.
    """
    comps = np.zeros((2 * m_max + 1, m.size))
    comps[m_max] = (1.0 + m) / 2.0 if observable == "fidelity" else m / 2.0
    if m_max:
        comps[m_max - 1] = comps[m_max + 1] = (1.0 - m) / 4.0
    return comps


def _product_fidelity(config: EchoConfig) -> np.ndarray:
    """The ``product`` fidelity surface on the distinct angles: each distinct
    mode's factor row multiplied in, in ascending k."""
    cos2, sin2, _ = _phi_coefficients(config.n_phi)
    n2 = _n_squared(quench._probabilities(config.spec, config.time_grid,
                                          config.time_mode == "normalized"))
    fids = np.ones((cos2.shape[0], config.time_grid.size))
    for row, weight in zip(n2, config.spec._multiplicity()):
        fids *= (cos2 + sin2 * row) ** weight
    return fids


def fidelity_otoc(config: EchoConfig) -> np.ndarray:
    """Echo fidelity matrix over (phi, t), aggregated over modes.

    Per mode |<psi0|echo>|^2 = cos^2(phi/2) + sin^2(phi/2) n^2 (n along dhat_i);
    ``product`` multiplies modes (the many-body Loschmidt echo), a distinct
    mode's factor raised to its multiplicity; ``mean`` averages them.  The
    phi = 0 column is identically 1: unitary reversal is exact in simulation.
    """
    _require_scan_budget(config.spec, config.time_grid.size, config.n_phi,
                         config.aggregation)
    surface = (_product_fidelity(config) if config.aggregation == "product"
               else _mean_surface(_mode_moment(config), config.n_phi, "fidelity"))
    return surface[_phi_fold(config.n_phi)]


def magnetization_otoc(config: EchoConfig) -> np.ndarray:
    """Mean per-mode <dhat_i . sigma>/2 of the echoed states over (phi, t).

    Magnetization is intensive, so ``mean`` is the only admissible
    aggregation; a product request is rejected.
    """
    if config.aggregation == "product":
        raise ConfigurationError(
            "magnetization_otoc requires mean aggregation; "
            "product of intensive observables is not defined")
    _require_scan_budget(config.spec, config.time_grid.size, config.n_phi, "mean")
    fold = _phi_fold(config.n_phi)
    return _mean_surface(_mode_moment(config), config.n_phi, "magnetization")[fold]


def require_resolvable(n_phi: int, m_max: int) -> None:
    """AliasingError unless n_phi angles resolve the orders |m| <= m_max."""
    if not (su2._is_integral(n_phi) and su2._is_integral(m_max)
            and m_max >= 0):
        raise InvalidArgumentError(f"n_phi = {n_phi} and m_max = {m_max} "
                                   "must be integers, m_max >= 0")
    if n_phi < 2 * m_max + 1:
        raise AliasingError(
            f"n_phi = {n_phi} cannot resolve m_max = {m_max}; "
            f"need n_phi >= {2 * m_max + 1}")


def _require_dft_budget(n_phi: int, m_max: int, n_t: int,
                        surfaces: int = 0) -> None:
    """Refuse a DFT of n_t columns it cannot resolve, or whose complex kernel,
    its temporary, the scan's complex copy and product, with ``surfaces``
    (n_phi, n_t) float surfaces held beside them, pass the mode budget."""
    require_resolvable(n_phi, m_max)
    orders = 2 * m_max + 1
    what = f"the DFT of {n_phi} angles x {n_t} times to {orders} orders"
    if surfaces:
        what += f" and {surfaces} product surface" + "s" * (surfaces > 1)
    quench._require_budget(16 * (2 * orders * n_phi + (n_phi + orders) * n_t)
                           + 8 * surfaces * n_phi * n_t
                           + quench._working_set(0, n_t, 0), what)


def mqc_components(scan, m_max: int) -> np.ndarray:
    """Discrete Fourier components of a real phi scan, column by column.

    component(m) = (1/N_phi) sum_j scan(phi_j) exp(-i m phi_j) on the
    uniform grid phi_j = 2 pi j / N_phi, for a (N_phi,) signal or every
    column of a (N_phi, n_t) matrix; row m + m_max of the result holds
    order m.  Needs N_phi >= 2 m_max + 1 and its arrays within the mode budget;
    orders past N_phi/2 (the ``product`` fidelity has them) fold onto these.
    """
    scan = su2._require_dims("scan", scan, 2, 1)
    n_phi = scan.shape[0]
    _require_dft_budget(n_phi, m_max, scan.size // n_phi)
    kernel = np.exp(-1.0j * np.outer(np.arange(-m_max, m_max + 1), _phi_grid(n_phi)))
    return kernel @ scan / n_phi


def mqc_spectrum(signal, m_max: int) -> MqcSpectrum:
    """MQC spectrum of one real phi-scan signal (see ``mqc_components``)."""
    return MqcSpectrum(m_max=m_max,
                       components=mqc_components(
                           su2._require_dims("signal", signal, 1, 1), m_max))


def spectrum_dynamics(config: EchoConfig, observable: str,
                      m_max: int) -> list[MqcSpectrum]:
    """mqc_spectrum of every time column of the chosen echo observable."""
    if observable not in OBSERVABLES:
        raise ConfigurationError(
            f"observable must be one of {OBSERVABLES}, got {observable!r}")
    _require_dft_budget(config.n_phi, m_max, config.time_grid.size)
    surface = fidelity_otoc if observable == "fidelity" else magnetization_otoc
    return [MqcSpectrum(m_max=int(m_max), components=column)
            for column in mqc_components(surface(config), m_max).T]


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
    w = su2._require_finite("W", w, complex)
    v = su2._require_finite("V", v, complex)
    if not su2.is_unitary(w):
        raise InvalidArgumentError("W must be unitary")
    if not su2.is_unitary(v):
        raise InvalidArgumentError("V must be unitary")
    if convention not in ("paper", "conventional"):
        raise ConfigurationError(f"unknown convention {convention!r}")
    u = evolution_unitary(d, t)
    w_t = u @ w @ u.conj().T if convention == "paper" else u.conj().T @ w @ u
    psi0 = su2._require_state("psi0", psi0)
    return complex(np.vdot(psi0, w_t.conj().T @ (v.conj().T @ (w_t @ (v @ psi0)))))


def double_well_detector(times, values, t_c: float, window: float,
                         eps_dw: float = DW_THRESHOLD) -> str:
    """Classify a real time series as ``double_well`` or ``single_well``.

    The literal oracle for the double-well verdict: the CLI takes its
    verdict from the closed-form depth, ``double_well_depth >= eps_dw``, and
    tests hold that to this detector on densely sampled A_1 series.

    ``double_well`` iff some interior local minimum with a sample at
    t in [t_c - window, t_c + window] is exceeded by at least ``eps_dw``
    on both sides.  A minimum is a run of equal samples (one sample, or a
    flat bottom such as the two that straddle t_c on an even grid) with a
    higher sample on each side.  The flanking peaks are the highest samples
    left and right of the run over the whole series, so a well truncated by
    the scan edge still reads as a well; only the minimum is window-bound.
    Non-finite input raises InvalidArgumentError.
    """
    times = su2._require_finite("times", times)
    values = su2._require_finite("values", values)
    for name, value in (("t_c", t_c), ("window", window), ("eps_dw", eps_dw)):
        su2._require_dims(name, value, 0)
    if times.ndim != 1 or times.shape != values.shape or times.size < 3:
        raise ConfigurationError("series must be 1-D with at least 3 samples")
    lo, hi = t_c - window, t_c + window
    if lo < times[0] or hi > times[-1]:
        raise WindowRangeError(
            f"window [{lo}, {hi}] outside sampled range [{times[0]}, {times[-1]}]")
    in_window = (times >= lo) & (times <= hi)
    # runs of equal samples: each interior one is values[start:stop]
    edges = np.flatnonzero(np.diff(values)) + 1
    starts, stops = edges[:-1], edges[1:]
    dips = values[starts]
    minima = (values[starts - 1] > dips) & (values[stops] > dips)
    for start, stop, dip in zip(starts[minima], stops[minima], dips[minima]):
        if (in_window[start:stop].any() and values[:start].max() >= dip + eps_dw
                and values[stop:].max() >= dip + eps_dw):
            return "double_well"
    return "single_well"


def _well_moments(spec: QuenchSpec) -> tuple[float, float, float]:
    """(alpha, beta, gamma), the grid means of c^4, c^2 s^2 and s^4, with
    c = dhat_i . dhat_f (c^2 <= 1, as in ``quench._blocks``), s^2 = 1 - c^2.

    In normalized time each mode's n = c^2 + s^2 C, C = cos 2 pi tau, so
    m = alpha + 2 beta C + gamma C^2 and the order-1 magnetization
    coherence A_1 = (1 - m)/4 = (1 - alpha - 2 beta C - gamma C^2)/4.
    """
    ks = spec._momenta(np.arange(spec.n_distinct))
    c2 = np.minimum(quench._mode_geometry(spec.g_i, spec.g_f, ks)[1] ** 2, 1.0)
    s2, weights = 1.0 - c2, spec._multiplicity() / spec.n_modes
    return tuple(float(np.sum(weights * x)) for x in (c2 * c2, c2 * s2, s2 * s2))


def _well_depth(spec: QuenchSpec) -> float:
    """``double_well_depth`` of a spec; unguarded, callers check its modes."""
    _, beta, gamma = _well_moments(spec)
    return (gamma - beta) ** 2 / (4.0 * gamma) if gamma > beta else 0.0


def double_well_depth(g_i: float, g_f: float, n: int,
                      grid_mode: str = "paper") -> float:
    """Depth of the central well of A_1 over normalized time, in closed form.

    A_1 is concave in C = cos 2 pi tau (``_well_moments``).  Its value at
    tau = 1/2 (C = -1) is a strict local minimum iff gamma > beta; the
    maxima at C = -beta/gamma then rise (gamma - beta)^2/(4 gamma) above
    it.  Without a well the depth is 0.0.
    """
    spec = QuenchSpec(g_i, g_f, n, grid_mode)
    quench._require_budget(quench._working_set(spec.n_distinct, 0, 0), f"{n} sites")
    return _well_depth(spec)
