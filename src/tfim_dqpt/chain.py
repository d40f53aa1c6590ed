"""Exact simulation of the spin ring: the register oracle.

Ground truth for the momentum-space factorization.  The operator is the
literal ring Hamiltonian

    H(g) = -J [ sum_i sigma^x_i sigma^x_{i+1} + g sum_i sigma^z_i ],

with site N the site 0 and J = ORACLE_COUPLING, on the z basis states.
An operator builds H as one dense matrix on demand and keeps only its
eigensystem.  Every evolution goes through ``_evolve_block`` on that
eigensystem, under one rule (``_require_dense``): a dimension below
2^DENSE_LIMIT (2048 states) whose eigensystems fit the mode budget is
served, and any other is refused with ResourceGuardError before anything
is built.  So the literal 2^N register evolves up to N = 10, and the
symmetric sector of the sweeps reaches rings up to N = 16 (1162 states;
N = 17 has 2056).  Open chains are not modelled.  The module runs on
numpy alone.

``ChainOperator``, ``evolve_chain``, ``echo_chain``,
``register_rotation_x`` and ``bond_correlator`` are the literal paths:
the full 2^N register in the z basis, one evolution per time and per
leg.  They stay that simple because the tests check the fast paths
against them.  The sweeps (``rate_function_ed``, ``echo_scan_chain``,
``mqc_spectrum_ed``) share work instead:

* they run in the x product basis, where the bond term is the diagonal
  lambda(x) = sum_bonds s_i s_j (s_i = +-1 the x spins) and g sum_i
  sigma^z flips single spins.  H, the echo rotation and both readouts
  commute with the global flip, the mirror x_i -> x_{N-1-i} and the
  ring translations, so from the cat state (the flip orbit of |+...+>)
  every state stays in the span of the orbit states |a> = |O_a|^(-1/2)
  sum_{x in O_a} |x> (``_SymmetricSector``: 122 states at N = 12, 362 at
  N = 14 and 1162 at N = 16).  There H has the diagonal -J lambda_a, and
  a spin flip taking the representative of O_a into O_b adds
  -J g sqrt(|O_a|/|O_b|) to <b|H|a> (Sandvik, arXiv:1101.3281, sec. 4.1
  and 4.2);
* ``rate_function_ed`` sums |<E|e_0>|^2 e^{-iEt} over the eigensystem
  itself: the engine would form every evolved state for one amplitude;
* the echo rotation is diagonal and the backward leg is exactly
  U^dagger, so with c = U psi the echo fidelity is
  |sum_a |c_a|^2 e^{-i phi lambda_a/4}|^4, with no backward leg; the
  magnetization (0.5/N) sum_a lambda_a |c_a|^2 evolves all rotated
  states of one time back as a single block.

Correspondence conventions (the energy/parity bridge to the momentum
module, all covered by tests):

* J = ORACLE_COUPLING = 1/2, the one coupling modelled: the chain
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
from .errors import ConfigurationError, ResourceGuardError
from .otoc import MqcSpectrum, _phi_grid, mqc_spectrum, require_resolvable
from .quench import AMPLITUDE_FLOOR

__all__ = [
    "ChainOperator",
    "ORACLE_COUPLING",
    "MAX_SPINS",
    "MAX_RING",
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

MAX_SPINS = 14          # 2^14 amplitudes: the register states and readouts
DENSE_LIMIT = 11        # the dense eigensystem serves below 2^DENSE_LIMIT states
MAX_RING = 16           # the last ring whose sector is below that (1162 states)
ORACLE_COUPLING = 0.5   # J making chain quasiparticle energy equal |d(k)|
ORACLE_CACHE = 32       # operators, and so eigensystems, the oracle keeps


def _popcount(indices: np.ndarray, n: int) -> np.ndarray:
    counts = np.zeros_like(indices)
    for bit in range(n):
        counts += (indices >> bit) & 1
    return counts


def default_bonds(n: int) -> tuple[tuple[int, int], ...]:
    """The N nearest-neighbour xx bonds of the ring."""
    return tuple((i, (i + 1) % n) for i in range(n))


def _require_dense(dim: int) -> int:
    """``dim`` if its dense eigensystem is served: below 2^DENSE_LIMIT
    states, with 2 dim^2 floats (the eigenvectors kept and the dense form
    built on demand) for each of the ORACLE_CACHE eigensystems the oracle
    may hold at once within the mode budget; otherwise ResourceGuardError."""
    if dim >= 2 ** DENSE_LIMIT:
        raise ResourceGuardError(
            f"the dense eigensystem serves fewer than {2 ** DENSE_LIMIT} "
            f"states, got {dim}")
    quench._require_budget(16 * dim ** 2 * ORACLE_CACHE,
                           f"{ORACLE_CACHE} eigensystems of {dim} states")
    return dim


class ChainOperator:
    """H(g) = -J (sum_{default_bonds(n)} xx + g sum_i z), J = ORACLE_COUPLING,
    on the 2^N z basis states.  ``dense()`` builds H at each call; the
    eigensystem, once asked for, is what the operator keeps."""

    def __init__(self, n: int, g: float):
        self.n = su2._require_int("n", n, 2, MAX_RING, ResourceGuardError)
        self.g = float(su2._require_dims("g", g, 0))
        self.bonds = default_bonds(self.n)
        self.dim = _require_dense(self._size())
        self._eig = None

    def _size(self) -> int:
        """The number of basis states, taken before any matrix is built."""
        return 2 ** self.n

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ vec for one state (dim,) or a block of states (dim, b)."""
        return self.dense() @ vec

    def dense(self) -> np.ndarray:
        """H summed from zeros: the diagonal, then each bond's bit flips."""
        states = np.arange(self.dim)
        h = np.zeros((self.dim, self.dim))
        h[states, states] += (-ORACLE_COUPLING * self.g) * (
            self.n - 2.0 * _popcount(states, self.n))
        for flips in _bond_flips(self.n, self.bonds):
            h[flips, states] += -ORACLE_COUPLING
        return h

    def eigensystem(self):
        """Cached (eigenvalues, eigenvectors) of the dense form."""
        if self._eig is None:
            self._eig = np.linalg.eigh(self.dense())
        return self._eig


@lru_cache(maxsize=None)   # one entry per ring size: at most 15
def _orbits(n: int):
    """Orbits of the x basis under the flip, the mirror and the translations.

    (orbit of each x, orbit sizes, lambda per orbit, flips) for the bonds
    ``default_bonds(n)``, orbits by smallest member; flipping spin i of
    that member of orbit a lands in orbit flips[a, i].  Shared, so read-only.
    """
    states = np.arange(2 ** n)
    mask = states[-1]
    mirrored = sum(((states >> i) & 1) << (n - 1 - i) for i in range(n))
    canonical = mask
    for x in (states, mirrored):
        for shift in range(n):
            turned = ((x << shift) | (x >> (n - shift))) & mask
            canonical = np.minimum(canonical, np.minimum(turned, turned ^ mask))
    reps, orbit, sizes = np.unique(canonical, return_inverse=True, return_counts=True)
    lam = _xx_spectrum(n, default_bonds(n))[reps]
    flips = orbit[reps[:, None] ^ (1 << np.arange(n))]
    for array in (orbit, sizes, lam, flips):
        array.setflags(write=False)
    return orbit, sizes, lam, flips


class _SymmetricSector(ChainOperator):
    """H(g) on the x-basis orbit states of ``_orbits(n)``, whose four
    tables it keeps; orbit 0 is that of |0...0>, the cat state."""

    def _size(self) -> int:
        self.orbit, self.sizes, self.lam, self.flips = _orbits(self.n)
        return self.sizes.size

    def dense(self) -> np.ndarray:
        """H summed from zeros: -J lambda, then each spin's flip targets."""
        orbits = np.arange(self.dim)
        h = np.zeros((self.dim, self.dim))
        h[orbits, orbits] += -ORACLE_COUPLING * self.lam
        for targets in self.flips.T:
            h[targets, orbits] += -ORACLE_COUPLING * (
                self.g * np.sqrt(self.sizes / self.sizes[targets]))
        return h


def even_cat_state(n: int) -> np.ndarray:
    """(|+>^N + |->^N)/sqrt(2): the even fermion-parity quench state."""
    n = su2._require_int("n", n, 1, MAX_SPINS, ResourceGuardError)
    dim = 2 ** n
    signs = 1.0 + (-1.0) ** _popcount(np.arange(dim), n)
    psi = signs.astype(complex)
    return psi / np.linalg.norm(psi)


def _evolve_block(op: ChainOperator, block: np.ndarray, ts) -> np.ndarray:
    """exp(-iHt) block for every t in ts, shape (dim, b, n_t): the one
    evolution engine of this module, through the cached eigenbasis.  A
    phase E t past the float range raises InvalidArgumentError."""
    energies, vectors = op.eigensystem()
    su2._require_phase(energies, ts)
    phases = np.exp(-1.0j * np.outer(energies, np.asarray(ts, dtype=float)))
    amps = (vectors.conj().T @ block)[:, :, None] * phases[:, None, :]
    return np.tensordot(vectors, amps, axes=1)
def evolve_chain(state: np.ndarray, op: ChainOperator, t: float) -> np.ndarray:
    """exp(-iHt) |state> through ``_evolve_block``."""
    state = su2._require_state("state", state)
    if state.shape != (op.dim,):
        raise ConfigurationError(
            f"state dimension {state.shape} does not match operator ({op.dim},)")
    t = float(su2._require_dims("t", t, 0))
    return _evolve_block(op, state[:, None], [t])[:, 0, 0]


def _xx_spectrum(n: int, bonds) -> np.ndarray:
    """Eigenvalues of sum_bonds sigma^x sigma^x in the x product basis."""
    states = np.arange(2 ** n)
    anti = np.zeros_like(states)    # each anti-aligned bond counts -1, not +1
    for i, j in bonds:
        anti += ((states >> i) ^ (states >> j)) & 1
    return len(bonds) - 2.0 * anti


def _require_register(state, n) -> tuple[np.ndarray, int]:
    """(state, n) if n is a size in [1, MAX_SPINS] and state a finite
    register of shape (2^n,)."""
    n = su2._require_int("n", n, 1, MAX_SPINS, ResourceGuardError)
    state = su2._require_finite("state", state, complex)
    if state.shape != (2 ** n,):
        raise ConfigurationError(
            f"state shape {state.shape} does not match {n} spins ({2 ** n},)")
    return state, n


def _bond_flips(n: int, bonds) -> list[np.ndarray]:
    """z ^ (2^i ^ 2^j) for every z basis state, per bond (i, j): sigma^x_i
    sigma^x_j takes amplitudes psi to psi[flips], and a self-bond to psi."""
    sites = [[su2._require_int("bond site", site, 0, n - 1) for site in bond]
             for bond in bonds]
    states = np.arange(2 ** n)
    return [states ^ ((1 << i) ^ (1 << j)) for i, j in sites]


def register_rotation_x(state: np.ndarray, phi: float, n: int,
                        bonds) -> np.ndarray:
    """exp(-i (phi/4) sum_bonds sigma^x sigma^x) |state>.

    Rotates every Jordan-Wigner momentum mode of the g = 0 chain by phi
    about x.  Note this is not exp(-i phi S_x): the register x operator
    maps to the bond correlator, not to the collective spin.  The bond
    terms commute, so the rotation is the product over bonds of
    cos(phi/4) - i sin(phi/4) sigma^x_i sigma^x_j, each a bit flip.
    """
    phi = float(su2._require_dims("phi", phi, 0))
    state, n = _require_register(state, n)
    rotated = state.copy()      # a new array, also for an empty bond list
    cos, sin = np.cos(0.25 * phi), np.sin(0.25 * phi)
    for flips in _bond_flips(n, bonds):
        rotated = cos * rotated - 1.0j * sin * rotated[flips]
    return rotated


def bond_correlator(state: np.ndarray, n: int, bonds) -> float:
    """<state| (1/2) sum_bonds sigma^x sigma^x |state> / N."""
    state, n = _require_register(state, n)
    return float((0.5 / n) * sum(np.vdot(state, state[flips]).real
                                 for flips in _bond_flips(n, bonds)))


def _require_quench_fields(g_i: float, name: str = "g_i") -> None:
    su2._require_dims(name, g_i, 0)
    if g_i != 0.0:
        raise ConfigurationError(
            f"{name} must be 0 for the oracle (closed-form |+>^N initial "
            "state); general g_i would need a many-body ground-state solve")


@lru_cache(maxsize=ORACLE_CACHE)
def _oracle_operator(n: int, g: float, sector: bool = True) -> ChainOperator:
    return (_SymmetricSector if sector else ChainOperator)(n, g)


def rate_function_ed(n: int, g_i: float, g_f: float, t) -> np.ndarray | float:
    """Chain rate function -(2/N) log |<psi_e| e^{-iHt} |psi_e>|^2.

    psi_e is the even-parity cat state and J = ORACLE_COUPLING, so this
    equals the momentum-module rate_function on the abc grid (see the
    module docstring for the factor 2/N).  Scalar or array t; non-finite
    times, and phases E t past the float range, raise InvalidArgumentError.
    """
    _require_quench_fields(g_i)
    ts = np.atleast_1d(su2._require_dims("t", t, 1))
    op = _oracle_operator(n, float(su2._require_dims("g_f", g_f, 0)))
    # the phases over (times, states), complex, and their exponentials
    quench._require_budget(quench._working_set(op.dim, ts.size, 4), f"{ts.size} times")
    energies, vectors = op.eigensystem()
    su2._require_phase(energies, ts)
    # the cat state e_0 is the first orbit state
    amps = np.exp(-1.0j * np.outer(ts, energies)) @ np.abs(vectors[0]) ** 2
    probs = np.abs(amps) ** 2
    if np.any(probs < AMPLITUDE_FLOOR):
        warnings.warn("Loschmidt probability hit the 1e-300 floor", RuntimeWarning)
    f = -(2.0 / op.n) * np.log(np.maximum(probs, AMPLITUDE_FLOOR))
    return f if np.ndim(t) else float(f[0])


def echo_chain(n: int, g_f: float, t: float, phi: float) -> tuple[float, float]:
    """Full-chain echo readout (fidelity, magnetization), register convention.

    Sequence: e^{+iHt} . register_rotation_x(phi) . e^{-iHt} on the
    even-parity cat state with J = ORACLE_COUPLING.  Fidelity is
    |<psi_e|psi_f>|^4 and magnetization the bond correlator, which equal
    the product- and mean-aggregated momentum-module observables on the
    abc grid (see the module docstring for why the raw overlap is squared).
    """
    op = _oracle_operator(n, float(su2._require_dims("g_f", g_f, 0)), sector=False)
    psi = even_cat_state(n)
    forward = evolve_chain(psi, op, t)
    rotated = register_rotation_x(forward, phi, op.n, op.bonds)
    final = evolve_chain(rotated, op, -t)
    fid = float(np.abs(np.vdot(psi, final)) ** 4)
    mag = bond_correlator(final, op.n, op.bonds)
    return fid, mag


def echo_scan_chain(n: int, g_f: float, ts, phis) -> tuple[np.ndarray, np.ndarray]:
    """echo_chain on a whole (phi, t) grid: (fidelity, magnetization).

    Both are (n_phi, n_t) arrays equal to the readouts of echo_chain.
    The forward states of every t come from one evolution; the fidelity
    is read in the orbit basis without a backward leg, and the
    magnetization evolves the n_phi rotated states of each t back as one
    block (see the module docstring).
    """
    ts = np.atleast_1d(su2._require_dims("ts", ts, 1))
    phis = np.atleast_1d(su2._require_dims("phis", phis, 1))
    op = _oracle_operator(n, float(su2._require_dims("g_f", g_f, 0)))
    # over (states, times): the forward states, their phases and evolution,
    # and six (n_phi, n_t) surfaces and temporaries; over (states, angles):
    # the rotations and each time's block of rotated states in flight
    quench._require_budget(
        quench._working_set(op.dim, ts.size, 6, 6 * phis.size)
        + quench._working_set(op.dim, phis.size, 10),
        f"{phis.size} angles x {ts.size} times")
    # the cat state e_0 is the first column of the identity
    forward = _evolve_block(op, np.eye(op.dim, 1), ts)[:, 0, :]
    rotations = np.exp(-0.25j * np.outer(op.lam, phis))
    fid = np.abs(rotations.T @ np.abs(forward) ** 2) ** 4
    mag = np.empty_like(fid)
    for j, t in enumerate(ts):
        final = _evolve_block(op, rotations * forward[:, j, None], [-t])[:, :, 0]
        mag[:, j] = (0.5 / op.n) * (op.lam @ np.abs(final) ** 2)
    return fid, mag


def mqc_spectrum_ed(n: int, g_f: float, t: float, m_max: int | None = None,
                    n_phi: int | None = None) -> MqcSpectrum:
    """Coherence intensities I_m of the chain echo fidelity at time t.

    DFT of the phi scan of the echo fidelity of echo_scan_chain, from a
    single forward evolution; the register supports orders up to +-N, so
    the default keeps m_max = N and N_phi >= 2N+1.
    """
    n = su2._require_int("n", n, 2, MAX_RING, ResourceGuardError)
    if m_max is None:
        m_max = n
    if n_phi is None:
        n_phi = max(2 * n + 1, 64)
    require_resolvable(n_phi, m_max)
    t = float(su2._require_dims("t", t, 0))
    op = _oracle_operator(n, float(su2._require_dims("g_f", g_f, 0)))
    quench._require_budget(quench._working_set(op.dim, n_phi, 4), f"{n_phi} angles")
    phis = _phi_grid(n_phi)
    weights = np.abs(_evolve_block(op, np.eye(op.dim, 1), [t])[:, 0, 0]) ** 2
    signal = np.abs(np.exp(-0.25j * np.outer(phis, op.lam)) @ weights) ** 4
    return mqc_spectrum(signal, m_max)
