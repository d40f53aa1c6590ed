"""Brute-force exact simulation of the full 2^N spin chain.

Ground truth for the momentum-space factorization.  The operator is the
literal chain Hamiltonian

    H(g) = -J [ sum_bonds sigma^x_i sigma^x_j + g sum_i sigma^z_i ],

acting on dense state vectors (N <= 14) through a real sparse (CSR) form
that each operator builds once, on its first ``apply``; a block of states
(dim, b) costs about one sparse product.  Every evolution but one goes
through ``_evolve_block``, under one rule: the dense eigensystem below
2^DENSE_LIMIT states, a Chebyshev expansion with certified truncation
error from there on (the literal register from N = 10).  Below that
limit ``rate_function_ed`` sums |<E|e_0>|^2 e^{-iEt} itself: the engine
would form every evolved state for one amplitude (about twice the time
at N = 12).  The Chebyshev weights J_m(tau) come from Miller's backward
Bessel recurrence (``_bessel_j``), so importing this module loads no
scipy; scipy.sparse is imported only when a CSR form is first built.

``ChainOperator``, ``evolve_chain``, ``echo_chain``,
``register_rotation_x`` and ``bond_correlator`` are the literal paths:
the full 2^N register in the z basis, one evolution per time and per
leg.  They stay that simple because the tests check the fast paths
against them.  The sweeps (``rate_function_ed``, ``echo_scan_chain``,
``mqc_spectrum_ed``) share work instead:

* they run in the x product basis, where the bond term is the diagonal
  lambda(x) = sum_bonds s_i s_j (s_i = +-1 the x spins) and g sum_i
  sigma^z flips single spins.  H, the echo rotation and both readouts
  commute with the global flip, the mirror x_i -> x_{N-1-i} and, on the
  ring, translations, so from the cat state (the flip orbit of |+...+>)
  every state stays in the span of the orbit states |a> = |O_a|^(-1/2)
  sum_{x in O_a} |x> (``_SymmetricSector``: 122 states at N = 12 and 362
  at N = 14 on the ring, 2^(N-2) + 2^(floor(N/2)-1) on open chains).
  There H has the diagonal -J lambda_a, and a spin flip taking the
  representative of O_a into O_b adds -J g sqrt(|O_a|/|O_b|) to <b|H|a>
  (Sandvik, arXiv:1101.3281, sec. 4.1 and 4.2);
* by the same rule, the sweeps use the dense eigensystem below
  2^DENSE_LIMIT orbit states (every ring up to N = 14); from there on
  (open chains from N = 12), one Chebyshev recursion in ``_evolve_block``
  on the sector's CSR form serves every time of a scan, since the
  vectors T_m(H/s) psi do not depend on t (``rate_function_ed`` reads
  the cat-state amplitude off it);
* the echo rotation is diagonal and the backward leg is exactly
  U^dagger, so with c = U psi the echo fidelity is
  |sum_a |c_a|^2 e^{-i phi lambda_a/4}|^4, with no backward leg; the
  magnetization (0.5/N) sum_a lambda_a |c_a|^2 evolves all rotated
  states of one time back as a single block.

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

from . import quench, su2
from .errors import (
    ConfigurationError,
    NumericalFailureError,
    ResourceGuardError,
)
from .otoc import MqcSpectrum, _phi_grid, mqc_spectrum, require_resolvable
from .quench import AMPLITUDE_FLOOR

__all__ = [
    "ChainOperator",
    "ORACLE_COUPLING",
    "MAX_SPINS",
    "DENSE_LIMIT",
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
DENSE_LIMIT = 10        # dense eigensystem below 2^DENSE_LIMIT states
ORACLE_COUPLING = 0.5   # J making chain quasiparticle energy equal |d(k)|
CHEBYSHEV_TOL = 1e-12   # certified bound on each expansion's dropped tail
CHEBYSHEV_TERMS = 10000  # term budget of each expansion

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
    """H(g) = -J (sum_{default_bonds(n, bc)} xx + g sum_i z) on the 2^N z basis states."""

    def __init__(self, n: int, g: float, bc: str = "periodic",
                 coupling: float = 1.0):
        n = su2._require_int("n", n, 2, MAX_SPINS, ResourceGuardError)
        if bc not in BOUNDARY_CONDITIONS:
            raise ConfigurationError(
                f"bc must be one of {BOUNDARY_CONDITIONS}, got {bc!r}")
        su2._require_finite("g", g)
        su2._require_finite("coupling", coupling)
        self.n = n
        self.g = float(g)
        self.bc = bc
        self.coupling = float(coupling)
        self.bonds = default_bonds(n, bc)
        self.dim, self._entries = self._build()
        self._eig = None
        self._sparse = None

    def _build(self):
        """The dimension and the (values, (rows, cols)) entries of H."""
        states = np.arange(2 ** self.n)
        rows = np.concatenate([states] + [states ^ ((1 << i) | (1 << j))
                                          for i, j in self.bonds])
        cols = np.tile(states, len(self.bonds) + 1)
        values = np.concatenate([
            (-self.coupling * self.g) * (self.n - 2.0 * _popcount(states, self.n)),
            np.full(len(self.bonds) * states.size, -self.coupling)])
        return states.size, (values, (rows, cols))

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

            self._sparse = csr_array(self._entries, shape=(self.dim, self.dim))
        return self._sparse

    def norm_bound(self) -> float:
        """Upper bound on the spectral radius (term-norm sum)."""
        return self.coupling * (len(self.bonds) + abs(self.g) * self.n)

    def dense(self) -> np.ndarray:
        if self.dim > 2 ** DENSE_LIMIT:
            raise ResourceGuardError(
                f"dense matrix limited to {2 ** DENSE_LIMIT} states, "
                f"got {self.dim}")
        h = np.zeros((self.dim, self.dim))
        values, index = self._entries
        np.add.at(h, index, values)
        return h

    def eigensystem(self):
        """Cached (eigenvalues, eigenvectors) of the dense form."""
        if self._eig is None:
            self._eig = np.linalg.eigh(self.dense())
        return self._eig


@lru_cache(maxsize=None)   # one entry per (n, bc): at most 26
def _orbits(n: int, bc: str):
    """Orbits of the x basis under the flip, the mirror and ring translations.

    (orbit of each x, orbit sizes, lambda per orbit, flips) for the bonds
    ``default_bonds(n, bc)``, orbits by smallest member; flipping spin i of
    that member of orbit a lands in orbit flips[a * n + i].  Shared, so read-only.
    """
    states = np.arange(2 ** n)
    mask = states[-1]
    mirrored = sum(((states >> i) & 1) << (n - 1 - i) for i in range(n))
    canonical = mask
    for x in (states, mirrored):
        for shift in range(n if bc == "periodic" else 1):
            turned = ((x << shift) | (x >> (n - shift))) & mask
            canonical = np.minimum(canonical, np.minimum(turned, turned ^ mask))
    reps, orbit, sizes = np.unique(canonical, return_inverse=True, return_counts=True)
    lam = _xx_spectrum(n, default_bonds(n, bc))[reps]
    flips = orbit[reps[:, None] ^ (1 << np.arange(n))].ravel()
    for array in (orbit, sizes, lam, flips):
        array.setflags(write=False)
    return orbit, sizes, lam, flips


class _SymmetricSector(ChainOperator):
    """H(g) on the x-basis orbit states of ``_orbits(n, bc)``, whose ``orbit``,
    ``sizes`` and ``lam`` it keeps; orbit 0 is that of |0...0>, the cat state."""

    def _build(self):
        self.orbit, self.sizes, self.lam, flips = _orbits(self.n, self.bc)
        diagonal = np.arange(self.sizes.size)
        cols = np.repeat(diagonal, self.n)
        ratio = self.sizes[cols] / self.sizes[flips]
        values = -self.coupling * np.concatenate([self.lam, self.g * np.sqrt(ratio)])
        return diagonal.size, (values, (np.r_[diagonal, flips], np.r_[diagonal, cols]))


def even_cat_state(n: int) -> np.ndarray:
    """(|+>^N + |->^N)/sqrt(2): the even fermion-parity quench state."""
    n = su2._require_int("n", n, 1, MAX_SPINS, ResourceGuardError)
    dim = 2 ** n
    signs = 1.0 + (-1.0) ** _popcount(np.arange(dim), n)
    psi = signs.astype(complex)
    return psi / np.linalg.norm(psi)


def _bessel_j(size: int, tau: float) -> np.ndarray:
    """J_m(tau) for m = 0..size-1 by Miller's backward recurrence.

    J_{m-1} = (2m/x) J_m - J_{m+1} runs downward from an order well past
    both size and x = |tau|, where J_m is the recurrence's minimal
    solution, so the arbitrary start fades out; values are scaled down
    whenever they grow past 1e250, and the sequence is normalized with
    J_0 + 2 sum_k J_2k = 1.  Below x = 1e-8 the series' leading term
    (x/2)^m / m! is exact to rounding (the first correction is under
    x^2/4 < 2.5e-17) and replaces the recurrence, whose 2m/x would
    overflow near x = 0.  J_m(-x) = (-1)^m J_m(x).
    """
    x = abs(float(tau))
    if x < 1e-8:
        out = np.zeros(size)
        term = 1.0
        for m in range(size):
            if term == 0.0:
                break
            out[m] = term
            term *= 0.5 * x / (m + 1)
    else:
        start = int(max(size, x) + 20.0 * max(x, 1.0) ** (1 / 3)) + 30
        values = np.empty(start + 1)
        above, current = 0.0, 1.0
        for m in range(start, 0, -1):
            values[m] = current
            above, current = current, (2.0 * m / x) * current - above
            if abs(current) > 1e250:
                values[m:] *= 1e-250
                above *= 1e-250
                current *= 1e-250
        values[0] = current
        out = values[:size] / (values[0] + 2.0 * values[2::2].sum())
    if tau < 0.0:
        out[1::2] *= -1.0
    return out


def _chebyshev_coefficients(tau: float) -> np.ndarray:
    """J_m(tau) for m = 0..cutoff, the certified Chebyshev cutoff.

    e^{-i x tau} = sum_m (2 - delta_m0) (-i)^m J_m(tau) T_m(x) on
    x in [-1, 1].  The cutoff is the earliest order whose tail of dropped
    coefficient magnitudes, summed over orders below CHEBYSHEV_TERMS + 50,
    is at most CHEBYSHEV_TOL.  Orders past |tau| decay faster than
    geometrically, so the weights (``_bessel_j``) are computed only until
    the last one is far below the ulp of that tolerance (2^-60 of it),
    which leaves every tail sum compared against it, and so the cutoff, as
    over the full range.  Past |tau| = CHEBYSHEV_TERMS + 50 the weights
    peak beyond every order computed, so the expansion is refused at once.
    """
    limit = CHEBYSHEV_TERMS + 50
    if abs(tau) > limit:
        raise NumericalFailureError(
            f"Chebyshev expansion cannot converge within {CHEBYSHEV_TERMS} terms "
            f"(|tau| = {abs(tau):.3g} is past the {limit} orders computed)")
    size = min(limit, int(abs(tau) + 18.0 * max(abs(tau), 1.0) ** (1 / 3)) + 16)
    while True:
        coeffs = _bessel_j(size, tau)
        weights = 2.0 * np.abs(coeffs)
        weights[0] *= 0.5
        if size == limit or (size > abs(tau) + 1
                             and weights[-1] <= CHEBYSHEV_TOL * 2.0 ** -60):
            break
        size = min(limit, 2 * size)
    tails = np.cumsum(weights[::-1])[::-1]
    below = np.flatnonzero(tails <= CHEBYSHEV_TOL)
    if below.size == 0 or below[0] > CHEBYSHEV_TERMS:
        residual = float(tails[CHEBYSHEV_TERMS])
        raise NumericalFailureError(
            f"Chebyshev expansion did not converge within {CHEBYSHEV_TERMS} "
            f"terms (|tau| = {abs(tau):.3g}); achieved residual {residual:.3e}",
            residual=residual)
    return coeffs[:below[0] + 1]


# (-i)^m by m mod 4, exact
_POWERS_OF_MINUS_I = np.array([1.0, -1.0j, -1.0, 1.0j])


def _series_table(taus: np.ndarray) -> np.ndarray:
    """(2 - delta_m0) (-i)^m J_m(tau_j) as table[m, j], zero past each cutoff."""
    columns = [_chebyshev_coefficients(tau) for tau in taus]
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

    The one evolution engine of this module.  Dense through the cached
    eigenbasis below 2^DENSE_LIMIT states; from there on, one Chebyshev
    recursion of the (dim, b) block serves every t, each t summed to its
    own certified cutoff.
    """
    ts = np.asarray(ts, dtype=float)
    if op.dim < 2 ** DENSE_LIMIT:
        energies, vectors = op.eigensystem()
        phases = np.exp(-1.0j * np.outer(energies, ts))
        amps = (vectors.conj().T @ block)[:, :, None] * phases[:, None, :]
        return np.tensordot(vectors, amps, axes=1)
    scale = op.norm_bound() or 1.0
    table = _series_table(scale * ts)
    vectors = _chebyshev_vectors(op, block, scale, len(table) - 1)
    # the T_m blocks of 16 orders at a time fill the rows of one matrix,
    # summed against their table rows in a single product
    stack = np.empty((min(len(table), 16), block.size), dtype=complex)
    out = np.zeros((ts.size, block.size), dtype=complex)
    for start in range(0, len(table), len(stack)):
        rows = table[start:start + len(stack)]
        for k in range(len(rows)):
            stack[k] = next(vectors).ravel()
        out += rows.T @ stack[:len(rows)]
    return out.T.reshape(block.shape + (ts.size,))


def evolve_chain(state: np.ndarray, op: ChainOperator, t: float) -> np.ndarray:
    """exp(-iHt) |state> through ``_evolve_block``."""
    state = su2._require_state("state", state)
    if state.shape != (op.dim,):
        raise ConfigurationError(
            f"state dimension {state.shape} does not match operator ({op.dim},)")
    t = float(su2._require_finite("t", t))
    return _evolve_block(op, state[:, None], [t])[:, 0, 0]


def _xx_spectrum(n: int, bonds) -> np.ndarray:
    """Eigenvalues of sum_bonds sigma^x sigma^x in the x product basis."""
    states = np.arange(2 ** n)
    anti = np.zeros_like(states)    # each anti-aligned bond counts -1, not +1
    for bond in bonds:
        i, j = (su2._require_int("bond site", site, 0, n - 1) for site in bond)
        anti += ((states >> i) ^ (states >> j)) & 1
    return len(bonds) - 2.0 * anti


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
    phi = su2._require_finite("phi", phi)
    phases = np.exp(-0.25j * phi * _xx_spectrum(n, bonds))
    return _fwht(phases * _fwht(state))


def bond_correlator(state: np.ndarray, n: int, bonds) -> float:
    """<state| (1/2) sum_bonds sigma^x sigma^x |state> / N."""
    tilde = _fwht(state)
    lam = _xx_spectrum(n, bonds)
    return float(0.5 * np.real(np.vdot(tilde, lam * tilde)) / n)


def _require_quench_fields(g_i: float) -> None:
    su2._require_finite("g_i", g_i)
    if g_i != 0.0:
        raise ConfigurationError(
            "g_i must be 0 for the oracle (closed-form |+>^N initial state); "
            "general g_i would need a many-body ground-state solve")


@lru_cache(maxsize=32)
def _oracle_operator(n: int, g: float, bc: str,
                     sector: bool = True) -> ChainOperator:
    kind = _SymmetricSector if sector else ChainOperator
    return kind(n, g, bc=bc, coupling=ORACLE_COUPLING)


def rate_function_ed(n: int, g_i: float, g_f: float, t,
                     bc: str = "periodic") -> np.ndarray | float:
    """Chain rate function -(2/N) log |<psi_e| e^{-iHt} |psi_e>|^2.

    psi_e is the even-parity cat state and J = ORACLE_COUPLING, so this
    equals the momentum-module rate_function on the abc grid (see the
    module docstring for the factor 2/N).  Scalar or array t; non-finite
    times raise InvalidArgumentError.
    """
    _require_quench_fields(g_i)
    ts = np.atleast_1d(su2._require_finite("t", t))
    op = _oracle_operator(n, float(g_f), bc)
    if op.dim < 2 ** DENSE_LIMIT:
        energies, vectors = op.eigensystem()
        amps = np.exp(-1.0j * np.outer(ts, energies)) @ np.abs(vectors[0]) ** 2
    else:   # the cat state e_0 is the first column of the identity
        amps = _evolve_block(op, np.eye(op.dim, 1), ts)[0, 0]
    probs = np.abs(amps) ** 2
    if np.any(probs < AMPLITUDE_FLOOR):
        warnings.warn("Loschmidt probability hit the 1e-300 floor", RuntimeWarning)
    f = -(2.0 / op.n) * np.log(np.maximum(probs, AMPLITUDE_FLOOR))
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
    op = _oracle_operator(n, float(g_f), bc, sector=False)
    psi = even_cat_state(n)
    forward = evolve_chain(psi, op, t)
    rotated = register_rotation_x(forward, phi, op.n, op.bonds)
    final = evolve_chain(rotated, op, -t)
    fid = float(np.abs(np.vdot(psi, final)) ** 4)
    mag = bond_correlator(final, op.n, op.bonds)
    return fid, mag


def echo_scan_chain(n: int, g_f: float, ts, phis,
                    bc: str = "periodic") -> tuple[np.ndarray, np.ndarray]:
    """echo_chain on a whole (phi, t) grid: (fidelity, magnetization).

    Both are (n_phi, n_t) arrays equal to the readouts of echo_chain.
    The forward states of every t come from one evolution; the fidelity
    is read in the orbit basis without a backward leg, and the
    magnetization evolves the n_phi rotated states of each t back as one
    block (see the module docstring).
    """
    ts = np.atleast_1d(su2._require_finite("ts", ts))
    phis = np.atleast_1d(su2._require_finite("phis", phis))
    op = _oracle_operator(n, float(g_f), bc)
    # the cat state e_0 is the first column of the identity
    forward = _evolve_block(op, np.eye(op.dim, 1), ts)[:, 0, :]
    rotations = np.exp(-0.25j * np.outer(op.lam, phis))
    fid = np.abs(rotations.T @ np.abs(forward) ** 2) ** 4
    mag = np.empty_like(fid)
    for j, t in enumerate(ts):
        final = _evolve_block(op, rotations * forward[:, j, None], [-t])[:, :, 0]
        mag[:, j] = (0.5 / op.n) * (op.lam @ np.abs(final) ** 2)
    return fid, mag


def mqc_spectrum_ed(n: int, g_f: float, t: float, bc: str = "periodic",
                    m_max: int | None = None, n_phi: int | None = None) -> MqcSpectrum:
    """Coherence intensities I_m of the chain echo fidelity at time t.

    DFT of the phi scan of the echo fidelity of echo_scan_chain, from a
    single forward evolution; the register supports orders up to +-N, so
    the default keeps m_max = N and N_phi >= 2N+1.
    """
    n = su2._require_int("n", n, 2, MAX_SPINS, ResourceGuardError)
    if m_max is None:
        m_max = n
    if n_phi is None:
        n_phi = max(2 * n + 1, 64)
    require_resolvable(n_phi, m_max)
    t = float(su2._require_finite("t", t))
    op = _oracle_operator(n, float(g_f), bc)
    quench._require_budget(quench._working_set(op.dim, n_phi, 4), f"{n_phi} angles")
    phis = _phi_grid(n_phi)
    weights = np.abs(_evolve_block(op, np.eye(op.dim, 1), [t])[:, 0, 0]) ** 2
    signal = np.abs(np.exp(-0.25j * np.outer(phis, op.lam)) @ weights) ** 4
    return mqc_spectrum(signal, m_max)
