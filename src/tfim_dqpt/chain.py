"""Brute-force exact simulation of the full 2^N spin chain.

Ground truth for the momentum-space factorization.  The operator is the
literal chain Hamiltonian

    H(g) = -J [ sum_bonds sigma^x_i sigma^x_j + g sum_i sigma^z_i ],

acting on dense state vectors (N <= 14) through a real sparse (CSR) form
that each operator builds once, on its first ``apply``; a block of states
(dim, b) costs about one sparse product.  Dense eigendecomposition drives
the evolution for N <= 10; beyond that a Chebyshev expansion with
certified truncation error takes over.

``evolve_chain``, ``echo_chain`` and ``register_rotation_x`` are the
literal paths: one evolution per time and per leg.  The sweeps share work
instead, and are tested against them:

* the vectors T_m(H/s) psi do not depend on t, so one Chebyshev recursion
  serves every time of a scan (``rate_function_ed`` keeps only the moments
  <psi|T_m|psi>; ``echo_scan_chain`` keeps the forward states);
* the echo rotation is diagonal in the x product basis and the backward
  leg is exactly U^dagger, so the echo fidelity is
  |sum_x |FWHT(psi_t)|^2(x) e^{-i phi lambda(x)/4}|^4 and needs no
  backward leg; the magnetization evolves all rotated states of one time
  back as a single block.

Correspondence conventions (the energy/parity bridge to the momentum
module, all covered by tests):

* J = 1/2 for oracle comparisons (``ORACLE_COUPLING``): the chain
  quasiparticle energy is then exactly the per-mode |d(k)| of the
  momentum model, whose Bloch Hamiltonian absorbs a factor 2 from the
  fermion +-k pairing.
* The correspondence initial state is the even-parity combination
  (|+...+> + |-...->)/sqrt(2).  It is degenerate with |+...+> under H(0)
  and lies entirely in the even fermion-parity sector, whose exact
  momenta are the anti-periodic grid k = (2n+1) pi / N used on the
  momentum side.
* The chain rate function carries -(2/N) log |G|^2: the N anti-periodic
  momenta pair into N/2 fermionic two-level systems, so each chain factor
  accounts for two modes of the momentum register.
* The echo rotation is exp(-i (phi/4) sum_bonds sigma^x sigma^x), which
  rotates every momentum mode by phi about its x axis.  The collective
  spin rotation exp(-i phi S_x) maps to a Jordan-Wigner string and is a
  genuinely different operation on this chain.
* Chain echo readouts use the register convention: fidelity is the
  squared Loschmidt probability |<psi|echo|psi>|^4 (N register modes vs
  N/2 chain pairs) and magnetization is the bond correlator
  <(1/2) sum sigma^x sigma^x>/N, the register-mean <sigma^x/2>.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np
from scipy.special import jv

from .errors import (
    ConfigurationError,
    NumericalFailureError,
    ResourceGuardError,
)
from .otoc import MqcSpectrum, mqc_spectrum, require_resolvable
from .quench import AMPLITUDE_FLOOR

__all__ = [
    "ChainOperator",
    "ORACLE_COUPLING",
    "MAX_SPINS",
    "DENSE_LIMIT",
    "initial_chain_state",
    "even_cat_state",
    "evolve_chain",
    "register_rotation_x",
    "bond_correlator",
    "rate_function_ed",
    "echo_chain",
    "echo_scan_chain",
    "mqc_spectrum_ed",
]

MAX_SPINS = 14          # 2^14 amplitudes; hard resource guard
DENSE_LIMIT = 10        # dense eigendecomposition up to here
ORACLE_COUPLING = 0.5   # J making chain quasiparticle energy equal |d(k)|

BOUNDARY_CONDITIONS = ("periodic", "open")


def _popcount(indices: np.ndarray, n: int) -> np.ndarray:
    counts = np.zeros_like(indices)
    for bit in range(n):
        counts += (indices >> bit) & 1
    return counts


def default_bonds(n: int, bc: str) -> tuple[tuple[int, int], ...]:
    """Nearest-neighbour xx bonds; the periodic ring keeps all N terms."""
    if bc == "periodic":
        return tuple((i, (i + 1) % n) for i in range(n))
    return tuple((i, i + 1) for i in range(n - 1))


class ChainOperator:
    """H(g) = -J (sum_bonds xx + g sum_i z) on N spins.

    ``bonds`` may be given explicitly (any order; used by the
    translation-invariance tests); entries are site index pairs.
    """

    def __init__(self, n: int, g: float, bc: str = "periodic",
                 coupling: float = 1.0, bonds=None):
        if int(n) != n or not (2 <= n <= MAX_SPINS):
            raise ResourceGuardError(
                f"n must be an integer in [2, {MAX_SPINS}], got {n}")
        if bc not in BOUNDARY_CONDITIONS:
            raise ConfigurationError(
                f"bc must be one of {BOUNDARY_CONDITIONS}, got {bc!r}")
        if not np.isfinite(g) or not np.isfinite(coupling):
            raise ConfigurationError("g and coupling must be finite")
        self.n = int(n)
        self.g = float(g)
        self.bc = bc
        self.coupling = float(coupling)
        self.bonds = tuple((int(i), int(j)) for i, j in (
            default_bonds(self.n, bc) if bonds is None else bonds))
        for i, j in self.bonds:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ConfigurationError(f"bond ({i},{j}) outside 0..{self.n - 1}")
        dim = 2 ** self.n
        states = np.arange(dim)
        self._flip_targets = [states ^ ((1 << i) | (1 << j)) for i, j in self.bonds]
        self._sz_sum = (self.n - 2 * _popcount(states, self.n)).astype(float)
        self._eig = None
        self._sparse = None

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ vec for one state (dim,) or a block of states (dim, b)."""
        vec = np.asarray(vec)
        if not np.iscomplexobj(vec):
            return self._matrix() @ vec
        # H is real: act on the real and imaginary parts as real columns
        pairs = np.ascontiguousarray(vec, dtype=complex).reshape(self.dim, -1)
        out = np.ascontiguousarray(self._matrix() @ pairs.view(float))
        return out.view(complex).reshape(vec.shape)

    def _matrix(self):
        """The real CSR form of H, built on first use."""
        if self._sparse is None:
            # imported here so that importing the package does not load it
            from scipy.sparse import csr_array

            dim = self.dim
            states = np.arange(dim)
            rows = np.concatenate([states, *self._flip_targets])
            cols = np.tile(states, len(self._flip_targets) + 1)
            data = np.concatenate([
                (-self.coupling * self.g) * self._sz_sum,
                np.full(len(self._flip_targets) * dim, -self.coupling)])
            self._sparse = csr_array((data, (rows, cols)), shape=(dim, dim))
        return self._sparse

    def norm_bound(self) -> float:
        """Upper bound on the spectral radius (term-norm sum)."""
        return self.coupling * (len(self.bonds) + abs(self.g) * self.n)

    def dense(self) -> np.ndarray:
        if self.n > DENSE_LIMIT:
            raise ResourceGuardError(
                f"dense matrix limited to n <= {DENSE_LIMIT}, got {self.n}")
        dim = self.dim
        h = np.zeros((dim, dim))
        h[np.arange(dim), np.arange(dim)] = -self.coupling * self.g * self._sz_sum
        for flipped in self._flip_targets:
            h[flipped, np.arange(dim)] -= self.coupling
        return h

    def eigensystem(self):
        """Cached (eigenvalues, eigenvectors) of the dense form."""
        if self._eig is None:
            self._eig = np.linalg.eigh(self.dense())
        return self._eig


def initial_chain_state(n: int) -> np.ndarray:
    """|+>^N: every amplitude 2^{-N/2}."""
    if int(n) != n or not (1 <= n <= MAX_SPINS):
        raise ResourceGuardError(
            f"n must be an integer in [1, {MAX_SPINS}], got {n}")
    dim = 2 ** int(n)
    return np.full(dim, dim ** -0.5, dtype=complex)


def even_cat_state(n: int) -> np.ndarray:
    """(|+>^N + |->^N)/sqrt(2): the even fermion-parity quench state."""
    if int(n) != n or not (1 <= n <= MAX_SPINS):
        raise ResourceGuardError(
            f"n must be an integer in [1, {MAX_SPINS}], got {n}")
    n = int(n)
    dim = 2 ** n
    signs = 1.0 + (-1.0) ** _popcount(np.arange(dim), n)
    psi = signs.astype(complex)
    return psi / np.linalg.norm(psi)


def _chebyshev_coefficients(tau: float, tol: float = 1e-12,
                            max_terms: int = 10000) -> np.ndarray:
    """J_m(tau) for m = 0..cutoff, the certified Chebyshev cutoff.

    e^{-i x tau} = sum_m (2 - delta_m0) (-i)^m J_m(tau) T_m(x) on
    x in [-1, 1].  The cutoff is the earliest order whose tail of dropped
    coefficient magnitudes, summed over orders below max_terms + 50, is
    at most tol.  Orders past |tau| decay faster than geometrically, so
    jv is evaluated only until the last computed weight is far below
    the ulp of tol (2^-60 tol), which leaves every tail sum that is
    compared against tol, and so the cutoff, as over the full range.
    """
    limit = max_terms + 50
    size = min(limit, int(abs(tau) + 18.0 * max(abs(tau), 1.0) ** (1 / 3)) + 16)
    while True:
        coeffs = jv(np.arange(size), tau)
        weights = 2.0 * np.abs(coeffs)
        weights[0] *= 0.5
        if size == limit or (size > abs(tau) + 1
                             and weights[-1] <= tol * 2.0 ** -60):
            break
        size = min(limit, 2 * size)
    tails = np.cumsum(weights[::-1])[::-1]
    below = np.flatnonzero(tails <= tol)
    if below.size == 0 or below[0] > max_terms:
        raise NumericalFailureError(
            f"Chebyshev expansion did not converge within {max_terms} terms "
            f"(|tau| = {abs(tau):.3g}); achieved residual {tails[max_terms]:.3e}",
            residual=float(tails[max_terms]))
    return coeffs[:below[0] + 1]


def _chebyshev_evolve(op: ChainOperator, vec: np.ndarray, t: float,
                      tol: float = 1e-12, max_terms: int = 10000) -> np.ndarray:
    """exp(-iHt) vec via Chebyshev expansion with certified tail bound.

    H is scaled by its term-norm bound.  The truncation error is bounded
    by the summed magnitude of the dropped coefficients.
    """
    scale = op.norm_bound()
    if scale == 0.0:
        return vec.astype(complex)
    coeffs = _chebyshev_coefficients(scale * float(t), tol, max_terms)
    cutoff = coeffs.size - 1

    phi_prev = vec.astype(complex)
    phi_curr = op.apply(phi_prev) / scale
    result = coeffs[0] * phi_prev + 2.0 * (-1.0j) * coeffs[1] * phi_curr
    for m in range(2, cutoff + 1):
        phi_next = 2.0 * op.apply(phi_curr) / scale - phi_prev
        result += 2.0 * (-1.0j) ** m * coeffs[m] * phi_next
        phi_prev, phi_curr = phi_curr, phi_next
    return result


# (-i)^m by m mod 4, exact
_POWERS_OF_MINUS_I = np.array([1.0, -1.0j, -1.0, 1.0j])


def _series_table(taus: np.ndarray, tol: float = 1e-12,
                  max_terms: int = 10000) -> np.ndarray:
    """(2 - delta_m0) (-i)^m J_m(tau_j) as table[m, j], zero past each cutoff."""
    columns = [_chebyshev_coefficients(tau, tol, max_terms) for tau in taus]
    table = np.zeros((max(c.size for c in columns), len(columns)), dtype=complex)
    for j, coeffs in enumerate(columns):
        table[:coeffs.size, j] = coeffs
    orders = np.arange(table.shape[0])
    table *= (2.0 * _POWERS_OF_MINUS_I[orders % 4])[:, None]
    table[0] *= 0.5
    return table


def _chebyshev_vectors(op: ChainOperator, vec: np.ndarray, scale: float,
                       last: int):
    """Yield T_m(H/scale) vec for m = 0..last (three-term recursion)."""
    prev = vec
    yield prev
    if last < 1:
        return
    curr = op.apply(prev) / scale
    yield curr
    for _ in range(last - 1):
        nxt = op.apply(curr)
        nxt *= 2.0 / scale
        nxt -= prev
        prev, curr = curr, nxt
        yield curr


def _evolve_block(op: ChainOperator, block: np.ndarray, ts) -> np.ndarray:
    """exp(-iHt) block for every t in ts, shape (dim, b, n_t).

    Dense through the cached eigenbasis for N <= DENSE_LIMIT; beyond,
    one Chebyshev recursion of the (dim, b) block serves every t, each t
    summed to its own certified cutoff.
    """
    ts = np.asarray(ts, dtype=float)
    if op.n <= DENSE_LIMIT:
        energies, vectors = op.eigensystem()
        phases = np.exp(-1.0j * np.outer(energies, ts))
        amps = (vectors.conj().T @ block)[:, :, None] * phases[:, None, :]
        return np.tensordot(vectors, amps, axes=1)
    scale = op.norm_bound() or 1.0
    table = _series_table(scale * ts)
    out = np.zeros(block.shape + (ts.size,), dtype=complex)
    for vec, row in zip(_chebyshev_vectors(op, block, scale, len(table) - 1),
                        table):
        out += vec[:, :, None] * row
    return out


def _chebyshev_amplitudes(op: ChainOperator, psi: np.ndarray, ts) -> np.ndarray:
    """<psi| exp(-iHt) |psi> for every t from one set of Chebyshev moments.

    The moments mu_m = <psi|T_m(H/s)|psi> do not depend on t.  With
    phi_k = T_k psi, mu_2k = 2 <phi_k|phi_k> - mu_0 and
    mu_2k+1 = 2 <phi_k+1|phi_k> - mu_1, so the recursion runs only to
    half the largest cutoff (Weisse et al., Rev. Mod. Phys. 78, 275).
    """
    scale = op.norm_bound() or 1.0
    table = _series_table(scale * np.asarray(ts, dtype=float))
    half = len(table) // 2
    doubled = np.empty(2 * half + 1)
    prev = None
    for k, vec in enumerate(_chebyshev_vectors(op, psi, scale, half)):
        doubled[2 * k] = 2.0 * np.vdot(vec, vec).real
        if prev is not None:
            doubled[2 * k - 1] = 2.0 * np.vdot(vec, prev).real
        prev = vec
    moments = doubled.copy()
    moments[0::2] -= 0.5 * doubled[0]
    moments[1::2] -= 0.5 * doubled[1]
    return moments[:len(table)] @ table


def evolve_chain(state: np.ndarray, op: ChainOperator, t: float,
                 method: str = "auto", max_terms: int = 10000) -> np.ndarray:
    """exp(-iHt) |state>; dense for N <= 10, Chebyshev beyond."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (op.dim,):
        raise ConfigurationError(
            f"state dimension {state.shape} does not match operator ({op.dim},)")
    if not np.isfinite(t):
        raise ConfigurationError(f"t must be finite, got {t}")
    if method == "auto":
        method = "dense" if op.n <= DENSE_LIMIT else "chebyshev"
    if method == "dense":
        energies, vectors = op.eigensystem()
        return vectors @ (np.exp(-1.0j * energies * t) * (vectors.conj().T @ state))
    if method == "chebyshev":
        return _chebyshev_evolve(op, state, t, max_terms=max_terms)
    raise ConfigurationError(f"unknown method {method!r}")


def _xx_spectrum(n: int, bonds) -> np.ndarray:
    """Eigenvalues of sum_bonds sigma^x sigma^x in the x product basis."""
    states = np.arange(2 ** n)
    spins = 1.0 - 2.0 * np.stack([(states >> i) & 1 for i in range(n)])
    total = np.zeros(2 ** n)
    for i, j in bonds:
        total += spins[i] * spins[j]
    return total


def _fwht(vec: np.ndarray) -> np.ndarray:
    """Normalized fast Walsh-Hadamard transform (z basis <-> x basis).

    Acts along axis 0, so a (dim, b) block transforms column by column.
    """
    out = vec.astype(complex)
    size = out.shape[0]
    h = 1
    while h < size:
        out = out.reshape((-1, 2 * h) + vec.shape[1:])
        a = out[:, :h].copy()
        b = out[:, h:].copy()
        out[:, :h] = a + b
        out[:, h:] = a - b
        h *= 2
    return out.reshape(vec.shape) / np.sqrt(size)


def register_rotation_x(state: np.ndarray, phi: float, n: int,
                        bonds) -> np.ndarray:
    """exp(-i (phi/4) sum_bonds sigma^x sigma^x) |state>.

    Rotates every Jordan-Wigner momentum mode of the g = 0 chain by phi
    about x.  Note this is not exp(-i phi S_x): the register x operator
    maps to the bond correlator, not to the collective spin.
    """
    phases = np.exp(-0.25j * phi * _xx_spectrum(n, bonds))
    return _fwht(phases * _fwht(state))


def bond_correlator(state: np.ndarray, n: int, bonds) -> float:
    """<state| (1/2) sum_bonds sigma^x sigma^x |state> / N."""
    tilde = _fwht(state)
    lam = _xx_spectrum(n, bonds)
    return float(0.5 * np.real(np.vdot(tilde, lam * tilde)) / n)


def _require_quench_fields(g_i: float) -> None:
    if g_i != 0.0:
        raise ConfigurationError(
            "the oracle requires g_i = 0 (closed-form |+>^N initial state); "
            "general g_i would need a many-body ground-state solve")


@lru_cache(maxsize=32)
def _oracle_operator(n: int, g: float, bc: str) -> ChainOperator:
    return ChainOperator(n, g, bc=bc, coupling=ORACLE_COUPLING)


def rate_function_ed(n: int, g_i: float, g_f: float, t,
                     bc: str = "periodic") -> np.ndarray | float:
    """Chain rate function -(2/N) log |<psi_e| e^{-iHt} |psi_e>|^2.

    psi_e is the even-parity cat state and J = ORACLE_COUPLING, so this
    equals the momentum-module rate_function on the abc grid (see the
    module docstring for the factor 2/N).  Scalar or array t.
    """
    _require_quench_fields(g_i)
    op = _oracle_operator(int(n), float(g_f), bc)
    psi = even_cat_state(n)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if op.n <= DENSE_LIMIT:
        energies, vectors = op.eigensystem()
        weights = np.abs(vectors.conj().T @ psi) ** 2
        amps = np.exp(-1.0j * np.outer(ts, energies)) @ weights
    else:
        amps = _chebyshev_amplitudes(op, psi, ts)
    probs = np.abs(amps) ** 2
    if np.any(probs < AMPLITUDE_FLOOR):
        warnings.warn("Loschmidt probability hit the 1e-300 floor", RuntimeWarning)
    f = -(2.0 / n) * np.log(np.maximum(probs, AMPLITUDE_FLOOR))
    return f if np.ndim(t) else float(f[0])


def echo_chain(n: int, g_f: float, t: float, phi: float,
               bc: str = "periodic") -> tuple[float, float]:
    """Full-chain echo readout (fidelity, magnetization), register convention.

    Sequence: e^{+iHt} . register_rotation_x(phi) . e^{-iHt} on the
    even-parity cat state with J = ORACLE_COUPLING.  Fidelity is
    |<psi_e|psi_f>|^4 and magnetization the bond correlator, which equal
    the product- and mean-aggregated momentum-module observables on the
    abc grid (see the module docstring for why the raw overlap is squared).
    """
    op = _oracle_operator(int(n), float(g_f), bc)
    psi = even_cat_state(n)
    forward = evolve_chain(psi, op, t)
    rotated = register_rotation_x(forward, phi, op.n, op.bonds)
    final = evolve_chain(rotated, op, -t)
    fid = float(np.abs(np.vdot(psi, final)) ** 4)
    mag = bond_correlator(final, op.n, op.bonds)
    return fid, mag


def _fidelity_scan(tilde: np.ndarray, lam: np.ndarray,
                   phis: np.ndarray) -> np.ndarray:
    """|sum_x |tilde(x)|^2 e^{-i phi lam(x)/4}|^4 on the (phi, t) grid.

    ``tilde`` holds the forward states in the x basis as columns; the x
    weights are first summed per distinct bond eigenvalue.
    """
    levels, index = np.unique(lam, return_inverse=True)
    weights = np.zeros((levels.size, tilde.shape[1]))
    np.add.at(weights, index, np.abs(tilde) ** 2)
    return np.abs(np.exp(-0.25j * np.outer(phis, levels)) @ weights) ** 4


def _forward_x_states(op: ChainOperator, ts: np.ndarray) -> np.ndarray:
    """FWHT(exp(-iHt) psi_e) for every t as the columns of (dim, n_t)."""
    psi = even_cat_state(op.n)
    return _fwht(_evolve_block(op, psi[:, None], ts)[:, 0, :])


def echo_scan_chain(n: int, g_f: float, ts, phis,
                    bc: str = "periodic") -> tuple[np.ndarray, np.ndarray]:
    """echo_chain on a whole (phi, t) grid: (fidelity, magnetization).

    Both are (n_phi, n_t) arrays equal to the readouts of echo_chain.
    The forward states of every t come from one evolution; the fidelity
    is read in the x basis without a backward leg, and the magnetization
    evolves the n_phi rotated states of each t back as one block (see
    the module docstring).
    """
    op = _oracle_operator(int(n), float(g_f), bc)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(phis))):
        raise ConfigurationError("ts and phis must be finite")
    lam = _xx_spectrum(op.n, op.bonds)
    tilde = _forward_x_states(op, ts)
    fid = _fidelity_scan(tilde, lam, phis)
    rotations = np.exp(-0.25j * np.outer(lam, phis))
    mag = np.empty_like(fid)
    for j, t in enumerate(ts):
        rotated = _fwht(rotations * tilde[:, j, None])
        final = _fwht(_evolve_block(op, rotated, [-t])[:, :, 0])
        mag[:, j] = (0.5 / op.n) * (lam @ np.abs(final) ** 2)
    return fid, mag


def mqc_spectrum_ed(n: int, g_f: float, t: float, bc: str = "periodic",
                    m_max: int | None = None, n_phi: int | None = None) -> MqcSpectrum:
    """Coherence intensities I_m of the chain echo fidelity at time t.

    DFT of the phi scan of the echo fidelity of echo_scan_chain, from a
    single forward evolution; the register supports orders up to +-N, so
    the default keeps m_max = N and N_phi >= 2N+1.
    """
    n = int(n)
    if m_max is None:
        m_max = n
    if n_phi is None:
        n_phi = max(2 * n + 1, 64)
    require_resolvable(n_phi, m_max)
    if not np.isfinite(t):
        raise ConfigurationError(f"t must be finite, got {t}")
    op = _oracle_operator(n, float(g_f), bc)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tilde = _forward_x_states(op, np.array([t], dtype=float))
    signal = _fidelity_scan(tilde, _xx_spectrum(n, op.bonds), phis)[:, 0]
    return mqc_spectrum(signal, m_max)