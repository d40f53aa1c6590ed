"""Full-register chain oracle: operators, propagators, echo readouts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

from tfim_dqpt import chain, otoc, quench, su2
from tfim_dqpt.errors import (
    AliasingError,
    ConfigurationError,
    InvalidArgumentError,
    NumericalFailureError,
    ResourceGuardError,
)

T_C_12 = np.pi / (2.0 * np.sqrt(0.44))

fields = st.floats(0.05, 2.0)
times = st.floats(0.0, 5.0)
angles = st.floats(0.0, 2.0 * np.pi)
boundaries = st.sampled_from(["periodic", "open"])
# the literal register below 2^DENSE_LIMIT states (eigensystem) and from
# there on (Chebyshev, N >= 10); odd N have orbits of mixed size in the
# periodic sector
dense_sizes = st.integers(3, 9)
chebyshev_sizes = st.sampled_from([10, 11, 12])


def burnside_orbits(n, bc):
    """Orbits of the 2^N x strings under the flip, the mirror and, on the
    ring, the translations: the mean over the group of its fixed strings.

    A site permutation with c cycles fixes 2^c strings; composed with the
    flip it fixes 2^c when every cycle has even length, else none.
    """
    sites = np.arange(n)
    perms = [sites, sites[::-1]]
    if bc == "periodic":
        perms = [np.roll(perm, shift) for perm in perms for shift in range(n)]
    fixed = 0
    for perm in perms:
        lengths, seen = [], set()
        for start in range(n):
            size, site = 0, start
            while site not in seen:
                seen.add(site)
                site, size = perm[site], size + 1
            if size:
                lengths.append(size)
        fixed += 2 ** len(lengths) * (1 + all(size % 2 == 0 for size in lengths))
    return fixed // (2 * len(perms))


def random_register(rng, n):
    vec = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return vec / np.linalg.norm(vec)


def plus_state(n):
    """|+>^N: every amplitude 2^{-N/2}."""
    return np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)


def reference_evolution(op, vec, t):
    """exp(-iHt) vec from scipy's expm_multiply on the CSR form of H."""
    return expm_multiply(-1.0j * t * op._matrix(), vec)


class TestChainOperator:
    def test_apply_matches_dense(self):
        rng = np.random.default_rng(5)
        for g, bc in [(0.0, "periodic"), (1.2, "periodic"), (0.7, "open")]:
            op = chain.ChainOperator(5, g, bc=bc)
            vec = random_register(rng, 5)
            assert np.max(np.abs(op.apply(vec) - op.dense() @ vec)) < 1e-12

    @given(boundaries, fields, st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
    def test_block_apply_matches_dense_columns(self, bc, g, width, seed):
        rng = np.random.default_rng(seed)
        op = chain.ChainOperator(5, g, bc=bc, coupling=0.5)
        block = rng.normal(size=(32, width)) + 1j * rng.normal(size=(32, width))
        expected = np.stack([op.dense() @ col for col in block.T], axis=1)
        assert np.max(np.abs(op.apply(block) - expected)) < 1e-12
        assert np.max(np.abs(op.apply(block.real) - op.dense() @ block.real)) < 1e-12
        assert np.max(np.abs(op.apply(block[:, 0]) - expected[:, 0])) < 1e-12

    @given(st.integers(2, 10), boundaries, fields, st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_even_sector_is_restriction_of_register(self, n, bc, g, width,
                                                    seed):
        # P takes the x-basis orbit states to the z basis of the register:
        # P^dagger H P is the sector matrix, and H P = P (P^dagger H P)
        # says that H keeps the sector
        sector = chain._SymmetricSector(n, g, bc=bc, coupling=0.5)
        h = chain.ChainOperator(n, g, bc=bc, coupling=0.5).dense()
        members = sector.orbit[:, None] == np.arange(sector.dim)
        p = chain._fwht(members / np.sqrt(sector.sizes)).real
        assert np.max(np.abs(p.T @ p - np.eye(sector.dim))) < 1e-12
        # the sweeps start from e_0
        assert np.max(np.abs(p[:, 0] - chain.even_cat_state(n))) < 1e-15
        restricted = p.T @ h @ p
        assert np.max(np.abs(restricted - sector.dense())) < 1e-12
        assert np.max(np.abs(h @ p - p @ restricted)) < 1e-12
        rng = np.random.default_rng(seed)
        block = (rng.normal(size=(sector.dim, width))
                 + 1j * rng.normal(size=(sector.dim, width)))
        assert np.max(np.abs(sector.apply(block) - restricted @ block)) < 1e-12
        assert np.max(np.abs(sector.apply(block[:, 0]) - restricted @ block[:, 0])) \
            < 1e-12

    @pytest.mark.parametrize("n, bc, dim", [(12, "periodic", 122),
                                            (14, "periodic", 362),
                                            (11, "open", 528),
                                            (12, "open", 1056)])
    def test_sector_dimensions(self, n, bc, dim):
        # orbits under flip x mirror, and translations on the ring: every
        # ring and the open chain up to N = 11 stay below the dense limit
        assert chain._SymmetricSector(n, 1.0, bc=bc).dim == dim \
            == burnside_orbits(n, bc)

    def test_fields_share_one_orbit_build(self):
        chain._orbits.cache_clear()
        chain._oracle_operator.cache_clear()
        first, second = (chain._oracle_operator(8, g, "periodic") for g in (0.5, 1.2))
        assert chain._orbits.cache_info().misses == 1
        assert first.orbit is second.orbit and first.lam is second.lam
        assert not first.lam.flags.writeable

    def test_hermiticity(self):
        rng = np.random.default_rng(6)
        op = chain.ChainOperator(6, 1.5)
        u, v = random_register(rng, 6), random_register(rng, 6)
        assert np.vdot(u, op.apply(v)) == pytest.approx(
            np.conj(np.vdot(v, op.apply(u))), abs=1e-10)

    def test_norm_bound_dominates_spectrum(self):
        op = chain.ChainOperator(6, 1.2, coupling=0.5)
        energies, _ = op.eigensystem()
        assert np.max(np.abs(energies)) <= op.norm_bound() + 1e-12

    def test_size_guards(self):
        with pytest.raises(ResourceGuardError):
            chain.ChainOperator(15, 1.0)
        with pytest.raises(ResourceGuardError):
            chain.ChainOperator(1, 1.0)
        with pytest.raises(ResourceGuardError):
            chain.ChainOperator(11, 1.0).dense()

    @pytest.mark.parametrize("n", [np.nan, np.inf, -np.inf, 4.5])
    def test_non_integer_size_is_refused(self, n):
        with pytest.raises(ResourceGuardError):
            chain.ChainOperator(n, 1.0)

    @pytest.mark.parametrize("n", [10 ** 400, -10 ** 400, np.int64(15)],
                             ids=["1e400", "-1e400", "int64-15"])
    def test_out_of_range_integer_size_is_refused(self, n):
        with pytest.raises(ResourceGuardError):
            chain.ChainOperator(n, 1.0)

    def test_argument_guards(self):
        with pytest.raises(ConfigurationError):
            chain.ChainOperator(4, 1.0, bc="twisted")
        with pytest.raises(ConfigurationError):
            chain.ChainOperator(4, np.nan)
        # the register and the sector both take default_bonds(n, bc)
        for kind in (chain.ChainOperator, chain._SymmetricSector):
            with pytest.raises(TypeError):
                kind(4, 1.0, bonds=[(0, 1)])
            assert kind(4, 1.0, bc="open").bonds == chain.default_bonds(4, "open")

    def test_open_chain_has_one_less_bond(self):
        assert len(chain.default_bonds(6, "periodic")) == 6
        assert len(chain.default_bonds(6, "open")) == 5


class TestStates:
    def test_cat_state_support(self):
        psi = chain.even_cat_state(2)
        assert np.allclose(psi, [2 ** -0.5, 0, 0, 2 ** -0.5])
        psi6 = chain.even_cat_state(6)
        odd = np.array([bin(s).count("1") % 2 == 1 for s in range(64)])
        assert np.all(psi6[odd] == 0)
        assert np.linalg.norm(psi6) == pytest.approx(1.0)

    def test_cat_is_zero_field_eigenstate(self):
        op = chain.ChainOperator(6, 0.0, coupling=0.5)
        psi = chain.even_cat_state(6)
        assert np.max(np.abs(op.apply(psi) - (-0.5 * 6) * psi)) < 1e-12

    def test_size_guard(self):
        with pytest.raises(ResourceGuardError):
            chain.even_cat_state(15)
        with pytest.raises(ResourceGuardError):
            chain.even_cat_state(0)

    @pytest.mark.parametrize("n", [np.nan, np.inf, -np.inf, 4.5])
    def test_non_integer_size_is_refused(self, n):
        with pytest.raises(ResourceGuardError):
            chain.even_cat_state(n)

    @pytest.mark.parametrize("n", [10 ** 400, -10 ** 400, np.int64(15)],
                             ids=["1e400", "-1e400", "int64-15"])
    def test_out_of_range_integer_size_is_refused(self, n):
        with pytest.raises(ResourceGuardError):
            chain.even_cat_state(n)


class TestEvolveChain:
    def test_zero_time(self):
        rng = np.random.default_rng(8)
        for n in (6, 10):                   # eigensystem, Chebyshev
            vec = random_register(rng, n)
            op = chain.ChainOperator(n, 1.2)
            assert np.max(np.abs(chain.evolve_chain(vec, op, 0.0) - vec)) < 1e-12

    def test_eigenstate_phase(self):
        # H(g=0) |+>^N = -N J |+>^N on the ring
        psi = plus_state(8)
        op = chain.ChainOperator(8, 0.0, coupling=1.0)
        out = chain.evolve_chain(psi, op, 0.9)
        assert np.max(np.abs(out - np.exp(1.0j * 8 * 0.9) * psi)) < 1e-12

    @pytest.mark.parametrize("n", [8, 10, 11, 12])
    def test_matches_expm_multiply(self, n):
        rng = np.random.default_rng(9)
        vec = random_register(rng, n)
        op = chain.ChainOperator(n, 1.2, coupling=0.5)
        got = chain.evolve_chain(vec, op, 2.7)
        assert np.max(np.abs(got - reference_evolution(op, vec, 2.7))) < 1e-12

    @pytest.mark.parametrize("n, bc, sector, dense", [
        (9, "periodic", False, True), (10, "periodic", False, False),
        (12, "open", True, False), (12, "periodic", True, True)])
    def test_one_rule_by_states(self, monkeypatch, n, bc, sector, dense):
        # the eigensystem below 2^DENSE_LIMIT states and Chebyshev from
        # there on, for the literal register (512, 1024 states) as for
        # the symmetric sectors (1056 open, 122 periodic)
        kind = chain._SymmetricSector if sector else chain.ChainOperator
        op = kind(n, 1.2, bc=bc, coupling=0.5)
        calls = []
        eigensystem = chain.ChainOperator.eigensystem
        monkeypatch.setattr(chain.ChainOperator, "eigensystem",
                            lambda self: calls.append(self.dim) or eigensystem(self))
        vec = np.eye(op.dim, 1)[:, 0]
        got = chain.evolve_chain(vec, op, 0.7)
        assert (calls == [op.dim]) == dense
        assert np.max(np.abs(got - reference_evolution(op, vec, 0.7))) < 1e-12

    def test_large_register_round_trip(self):
        rng = np.random.default_rng(10)
        vec = random_register(rng, 12)
        op = chain.ChainOperator(12, 1.2, coupling=0.5)
        fwd = chain.evolve_chain(vec, op, 1.8)
        assert abs(np.linalg.norm(fwd) - 1.0) < 1e-9
        back = chain.evolve_chain(fwd, op, -1.8)
        assert np.max(np.abs(back - vec)) < 1e-9

    def test_truncation_failure_reports_residual(self):
        # |tau| = 12.1 * 830 = 10043 lies within the orders computed but
        # past the term budget
        op = chain.ChainOperator(11, 1.2, coupling=0.5)
        assert chain.CHEBYSHEV_TERMS < op.norm_bound() * 830.0 \
            < chain.CHEBYSHEV_TERMS + 50
        with pytest.raises(NumericalFailureError) as err:
            chain.evolve_chain(plus_state(11), op, 830.0)
        assert err.value.residual is not None and err.value.residual > 0

    def test_coefficient_range_does_not_move_cutoff(self):
        # the cutoff from jv over the orders the tail needs equals the
        # cutoff from jv over all CHEBYSHEV_TERMS + 50 orders
        taus = np.concatenate([np.linspace(-500.0, 500.0, 201),
                               [0.0, 1e-3, -0.4, 2.7, -17.3, 90.1]])
        for tau in taus:
            weights = 2.0 * np.abs(jv(np.arange(10050), tau))
            weights[0] *= 0.5
            tails = np.cumsum(weights[::-1])[::-1]
            full = int(np.flatnonzero(tails <= 1e-12)[0])
            assert chain._chebyshev_coefficients(tau).size - 1 == full, tau

    @given(st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 6.3e-279,
                            9999.5, -9990.0])
           | st.floats(-1e-6, 1e-6) | st.floats(-1e4, 1e4),
           st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_bessel_recurrence_matches_jv(self, tau, short):
        # scipy's jv is the oracle for the recurrence; the cutoff and the
        # failure past CHEBYSHEV_TERMS must come out as from jv
        reference = jv(np.arange(10050), tau)
        # jv itself is off by up to 1.1e-13 near |tau| = 1e4 (measured
        # against a 50-digit recurrence), by less than 1e-13 below 5000
        tol = 1e-13 * max(1.0, abs(tau) / 5000.0)
        got = chain._bessel_j(10050, tau)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - reference)) <= tol
        # fewer orders than |tau|: the recurrence must still start past it
        assert np.max(np.abs(chain._bessel_j(short, tau) - reference[:short])) \
            <= tol
        weights = 2.0 * np.abs(reference)
        weights[0] *= 0.5
        below = np.flatnonzero(np.cumsum(weights[::-1])[::-1] <= 1e-12)
        if below.size and below[0] <= 10000:
            coeffs = chain._chebyshev_coefficients(tau)
            assert coeffs.size - 1 == below[0]
            assert np.max(np.abs(coeffs - reference[:coeffs.size])) <= tol
        else:
            with pytest.raises(NumericalFailureError):
                chain._chebyshev_coefficients(tau)

    def test_argument_past_computed_orders_is_refused(self):
        # the weights peak near order |tau|; from CHEBYSHEV_TERMS + 50 on
        # no computed order can hold the tail
        with pytest.raises(NumericalFailureError):
            chain._chebyshev_coefficients(10051.0)
        with pytest.raises(NumericalFailureError):
            chain._chebyshev_coefficients(-1e33)
        op = chain.ChainOperator(11, 1.2, coupling=0.5)
        with pytest.raises(NumericalFailureError):
            chain.evolve_chain(plus_state(11), op, 1e33)

    def test_argument_guards(self):
        op = chain.ChainOperator(4, 1.0)
        with pytest.raises(ConfigurationError):
            chain.evolve_chain(np.ones(8), op, 1.0)
        with pytest.raises(ConfigurationError):
            chain.evolve_chain(np.ones(16), op, np.inf)


class TestRegisterRotation:
    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(12)
        bonds = chain.default_bonds(4, "periodic")
        xx = -chain.ChainOperator(4, 0.0, coupling=1.0).dense()  # +sum xx
        vec = random_register(rng, 4)
        for phi in (0.3, np.pi, 5.1):
            expected = expm(-0.25j * phi * xx) @ vec
            got = chain.register_rotation_x(vec, phi, 4, bonds)
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_zero_angle_and_additivity(self):
        rng = np.random.default_rng(13)
        bonds = chain.default_bonds(6, "periodic")
        vec = random_register(rng, 6)
        assert np.max(np.abs(chain.register_rotation_x(vec, 0.0, 6, bonds)
                             - vec)) < 1e-12
        once = chain.register_rotation_x(
            chain.register_rotation_x(vec, 0.7, 6, bonds), 1.1, 6, bonds)
        assert np.max(np.abs(once - chain.register_rotation_x(vec, 1.8, 6, bonds))) \
            < 1e-12

    @given(st.integers(1, 8), st.data())
    def test_xx_spectrum_counts_bond_signs(self, n, data):
        # bit for bit the float sum of s_i s_j, any bond list
        site = st.integers(0, n - 1)
        bonds = data.draw(st.lists(st.tuples(site, site), max_size=12))
        spins = 1.0 - 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
        expected = np.zeros(2 ** n)
        for i, j in bonds:
            expected += spins[:, i] * spins[:, j]
        got = chain._xx_spectrum(n, bonds)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.parametrize("bond", [(0, 4), (-1, 0), (0.5, 1)])
    def test_bond_sites_off_the_chain_are_refused(self, bond):
        # a shift past the chain's bits would read spin 0 for any such site
        with pytest.raises(ConfigurationError):
            chain.register_rotation_x(plus_state(4), 0.3, 4, [bond])
        with pytest.raises(ConfigurationError):
            chain.bond_correlator(plus_state(4), 4, [bond])

    def test_bond_correlator_values(self):
        bonds = chain.default_bonds(6, "periodic")
        plus = plus_state(6)
        assert chain.bond_correlator(plus, 6, bonds) == pytest.approx(0.5, abs=1e-12)
        z0 = np.zeros(64, dtype=complex)
        z0[0] = 1.0
        assert chain.bond_correlator(z0, 6, bonds) == pytest.approx(0.0, abs=1e-12)


class TestRateFunctionEd:
    def test_zero_for_trivial_quench(self):
        ts = np.linspace(0, 6, 20)
        assert np.max(np.abs(chain.rate_function_ed(6, 0.0, 0.0, ts))) < 1e-12

    def test_zero_at_time_zero(self):
        assert chain.rate_function_ed(6, 0.0, 1.2, 0.0) == pytest.approx(0.0,
                                                                         abs=1e-12)

    def test_matches_momentum_module(self):
        ts = np.linspace(0.0, 5.0, 25)
        for g_f in (0.8, 1.2):
            spec = quench.QuenchSpec(0.0, g_f, 8, "abc")
            gap = np.max(np.abs(chain.rate_function_ed(8, 0.0, g_f, ts)
                                - quench.rate_function(spec, ts)))
            assert gap < 1e-6

    def test_open_chain_runs(self):
        vals = chain.rate_function_ed(6, 0.0, 1.2, np.linspace(0, 4, 9), bc="open")
        assert np.all(vals >= -1e-12)

    def test_initial_field_guard(self):
        with pytest.raises(ConfigurationError):
            chain.rate_function_ed(6, 0.5, 1.2, 1.0)

    def test_scalar_in_scalar_out(self):
        out = chain.rate_function_ed(4, 0.0, 1.2, 1.3)
        assert isinstance(out, float)

    # open N = 8 and 11 read the eigenbasis, open N = 12 the Chebyshev engine
    @pytest.mark.parametrize("n", [8, 11, 12])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_is_refused(self, n, bad):
        for t in (bad, [0.0, bad]):
            with pytest.raises(InvalidArgumentError):
                chain.rate_function_ed(n, 0.0, 1.2, t, bc="open")

    @given(dense_sizes | chebyshev_sizes, fields,
           st.lists(times, min_size=1, max_size=3), boundaries)
    @settings(max_examples=16, deadline=None)
    def test_even_sector_matches_full_register(self, n, g, ts, bc):
        # the sector sweep against the literal full-register evolution
        op = chain.ChainOperator(n, g, bc=bc, coupling=0.5)
        psi = chain.even_cat_state(n)
        literal = [abs(np.vdot(psi, chain.evolve_chain(psi, op, t))) ** 2
                   for t in ts]
        probs = np.exp(-0.5 * n * chain.rate_function_ed(n, 0.0, g, ts, bc=bc))
        assert np.max(np.abs(probs - literal)) < 1e-12

    # open chains from N = 12 have >= 2^DENSE_LIMIT sector states (1056)
    @given(st.sampled_from([12, 13]), fields,
           st.lists(times, min_size=1, max_size=3))
    @settings(max_examples=6, deadline=None)
    def test_chebyshev_sizes_match_expm_multiply(self, n, g, ts):
        op = chain.ChainOperator(n, g, bc="open", coupling=0.5)
        psi = chain.even_cat_state(n)
        reference = [abs(np.vdot(psi, reference_evolution(op, psi, t))) ** 2
                     for t in ts]
        probs = np.exp(-0.5 * n * chain.rate_function_ed(n, 0.0, g, ts,
                                                         bc="open"))
        assert np.max(np.abs(probs - reference)) < 1e-12

    @pytest.mark.parametrize("n, bc, dense", [
        (10, "open", True), (11, "open", True), (12, "periodic", True),
        (12, "open", False)])
    def test_one_rule_by_states(self, monkeypatch, n, bc, dense):
        # the eigensystem below 2^DENSE_LIMIT sector states (272 and 528
        # open, 122 periodic) and one engine call from there on (1056)
        calls = []
        evolve_block = chain._evolve_block
        eigensystem = chain.ChainOperator.eigensystem
        monkeypatch.setattr(chain, "_evolve_block", lambda *args:
                            calls.append("evolve") or evolve_block(*args))
        monkeypatch.setattr(chain.ChainOperator, "eigensystem", lambda self:
                            calls.append("eigensystem") or eigensystem(self))
        chain.rate_function_ed(n, 0.0, 1.2, [0.4, 1.3], bc=bc)
        assert calls == (["eigensystem"] if dense else ["evolve"])


class TestEchoChain:
    def test_trivial_angle(self):
        fid, mag = chain.echo_chain(6, 1.2, 1.7, 0.0)
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert mag == pytest.approx(0.5, abs=1e-12)

    def test_trivial_time(self):
        # both cat branches share the same bond eigenvalue; rotation is a phase
        fid, mag = chain.echo_chain(6, 1.2, 0.0, 2.1)
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert mag == pytest.approx(0.5, abs=1e-12)

    def test_matches_momentum_aggregations(self):
        ks = quench.QuenchSpec(0.0, 1.2, 6, "abc").momentum_grid()
        rng = np.random.default_rng(14)
        for _ in range(6):
            t = rng.uniform(0, 2 * T_C_12)
            phi = rng.uniform(0, 2 * np.pi)
            states = [otoc.echo_state(quench.bloch_vector(1.2, k), t, phi)
                      for k in ks]
            fids = [abs(np.vdot(su2.X_PLUS, s)) ** 2 for s in states]
            mags = [su2.expect_sx(s) for s in states]
            fid, mag = chain.echo_chain(6, 1.2, t, phi)
            assert abs(fid - np.prod(fids)) < 1e-8
            assert abs(mag - np.mean(mags)) < 1e-8


class TestEchoScanChain:
    @staticmethod
    def check_against_literal(n, g, ts, phis, bc="periodic"):
        fid, mag = chain.echo_scan_chain(n, g, ts, phis, bc=bc)
        assert fid.shape == mag.shape == (len(phis), len(ts))
        for i, phi in enumerate(phis):
            for j, t in enumerate(ts):
                fid_lit, mag_lit = chain.echo_chain(n, g, t, phi, bc=bc)
                assert abs(fid[i, j] - fid_lit) < 1e-12
                assert abs(mag[i, j] - mag_lit) < 1e-12

    @given(dense_sizes, fields, st.lists(times, min_size=1, max_size=3),
           st.lists(angles, min_size=1, max_size=3), boundaries)
    @settings(max_examples=25)
    def test_matches_echo_chain_dense(self, n, g, ts, phis, bc):
        self.check_against_literal(n, g, ts, phis, bc)

    # the open N = 12 chain runs the sector's Chebyshev path too
    @given(chebyshev_sizes, fields, st.lists(times, min_size=1, max_size=2),
           st.lists(angles, min_size=1, max_size=3), boundaries)
    @settings(max_examples=6, deadline=None)
    def test_matches_echo_chain_chebyshev(self, n, g, ts, phis, bc):
        self.check_against_literal(n, g, ts, phis, bc)

    def test_open_chain_matches_echo_chain(self):
        self.check_against_literal(6, 1.2, [0.7, 2.9], [0.4, 3.3], bc="open")
        self.check_against_literal(12, 0.6, [1.9], [2.2], bc="open")

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            chain.echo_scan_chain(4, 1.2, [np.nan], [0.0])
        with pytest.raises(ConfigurationError):
            chain.echo_scan_chain(4, 1.2, [1.0], [np.inf])


class TestMqcSpectrumEd:
    def test_matches_literal_fidelity_scan(self):
        phis = 2.0 * np.pi * np.arange(13) / 13
        signal = [chain.echo_chain(6, 1.2, 1.9, p)[0] for p in phis]
        spec = chain.mqc_spectrum_ed(6, 1.2, 1.9, n_phi=13)
        literal = otoc.mqc_spectrum(signal, 6)
        assert np.max(np.abs(spec.components - literal.components)) < 1e-12

    def test_aliasing_refused_before_evolution(self, monkeypatch):
        class Evolved(Exception):
            pass

        def no_evolution(*args, **kwargs):
            raise Evolved
        monkeypatch.setattr(chain, "_evolve_block", no_evolution)
        with pytest.raises(AliasingError):
            chain.mqc_spectrum_ed(6, 1.2, 1.9, m_max=6, n_phi=12)
        # one more angle resolves the orders: the patched function evolves
        with pytest.raises(Evolved):
            chain.mqc_spectrum_ed(6, 1.2, 1.9, m_max=6, n_phi=13)

    def test_non_integer_angle_count_is_refused(self):
        with pytest.raises(InvalidArgumentError):
            chain.mqc_spectrum_ed(6, 1.2, 1.0, n_phi=13.5)

    def test_sum_rule(self):
        spec = chain.mqc_spectrum_ed(6, 1.2, 1.9)
        assert np.sum(spec.components) == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(np.imag(spec.components))) < 1e-10
        assert np.min(np.real(spec.components)) > -1e-10

    def test_trivial_quench_concentrates_at_zero_order(self):
        spec = chain.mqc_spectrum_ed(4, 0.0, 2.3)
        assert spec.component(0) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(np.delete(spec.components, spec.m_max))) < 1e-12

    def test_many_body_orders_build_up(self):
        spec = chain.mqc_spectrum_ed(6, 1.2, T_C_12)
        high = [abs(spec.component(m)) for m in range(2, 7)]
        assert max(high) > 1e-6


# every t and phi that enters the register oracle, as the mode oracle
# refuses them
NON_FINITE_CALLS = {
    "evolve_chain": lambda x: chain.evolve_chain(
        plus_state(4), chain.ChainOperator(4, 1.2), x),
    "echo_chain-t": lambda x: chain.echo_chain(6, 1.2, x, 1.0),
    "echo_chain-phi": lambda x: chain.echo_chain(6, 1.2, 1.0, x),
    "echo_scan_chain-t": lambda x: chain.echo_scan_chain(6, 1.2, [0.5, x], [1.0]),
    "echo_scan_chain-phi": lambda x: chain.echo_scan_chain(6, 1.2, [0.5], [1.0, x]),
    "mqc_spectrum_ed": lambda x: chain.mqc_spectrum_ed(6, 1.2, x),
    "rate_function_ed": lambda x: chain.rate_function_ed(6, 0.0, 1.2, x),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS)
def test_non_finite_time_or_angle_is_refused(call, bad):
    with pytest.raises(InvalidArgumentError):
        call(bad)


# every field that enters a model, the mode model's included
NON_FINITE_FIELDS = {
    "QuenchSpec-g_i": lambda x: quench.QuenchSpec(x, 1.2, 8),
    "QuenchSpec-g_f": lambda x: quench.QuenchSpec(0.0, x, 8),
    "ChainOperator-g": lambda x: chain.ChainOperator(4, x),
    "ChainOperator-coupling": lambda x: chain.ChainOperator(4, 1.2, coupling=x),
    "rate_function_ed-g_f": lambda x: chain.rate_function_ed(6, 0.0, x, 1.0),
    "echo_chain-g": lambda x: chain.echo_chain(6, x, 1.0, 1.0),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", NON_FINITE_FIELDS.values(), ids=NON_FINITE_FIELDS)
def test_non_finite_field_is_refused(call, bad):
    with pytest.raises(InvalidArgumentError):
        call(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_field_is_named_before_the_zero_rule(bad):
    with pytest.raises(InvalidArgumentError, match="g_i must be finite"):
        chain.rate_function_ed(6, bad, 1.2, 1.0)


class TestTranslationInvariance:
    def test_bond_order_is_immaterial(self):
        # the readouts that take a bond list: any order and orientation
        rng = np.random.default_rng(15)
        vec = random_register(rng, 6)
        bonds = chain.default_bonds(6, "periodic")
        turned = [(j, i) for i, j in reversed(bonds)]
        assert np.max(np.abs(chain.register_rotation_x(vec, 0.9, 6, bonds)
                             - chain.register_rotation_x(vec, 0.9, 6, turned))) < 1e-14
        assert chain.bond_correlator(vec, 6, bonds) == pytest.approx(
            chain.bond_correlator(vec, 6, turned), abs=1e-14)

    def test_shifted_ring_gives_same_readouts(self):
        # moving every spin one site along the ring maps its bonds onto
        # themselves: evolution and rotation commute with the shift, and
        # the echo readouts of a shifted state are those of the state
        rng = np.random.default_rng(16)
        states = np.arange(64)
        shift = ((states << 1) | (states >> 5)) & 63       # spin i -> i + 1
        op = chain.ChainOperator(6, 1.2, coupling=0.5)
        psi = random_register(rng, 6)
        moved = np.empty_like(psi)
        moved[shift] = psi

        def echo(state):
            rot = chain.register_rotation_x(chain.evolve_chain(state, op, 1.3),
                                            0.9, 6, op.bonds)
            fid = abs(np.vdot(state, chain.evolve_chain(rot, op, -1.3))) ** 4
            return rot, fid, chain.bond_correlator(rot, 6, op.bonds)

        rot, fid, corr = echo(psi)
        rot_moved, fid_moved, corr_moved = echo(moved)
        assert np.max(np.abs(rot_moved[shift] - rot)) < 1e-12
        assert fid_moved == pytest.approx(fid, abs=1e-12)
        assert corr_moved == pytest.approx(corr, abs=1e-12)
