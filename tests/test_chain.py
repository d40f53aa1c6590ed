"""Full-register chain oracle: operators, propagators, echo readouts."""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from tfim_dqpt import chain, otoc, quench, su2
from tfim_dqpt.errors import (
    AliasingError,
    ConfigurationError,
    InvalidArgumentError,
    ResourceGuardError,
)

T_C_12 = np.pi / (2.0 * np.sqrt(0.44))

fields = st.floats(0.05, 2.0)
times = st.floats(0.0, 5.0)
angles = st.floats(0.0, 2.0 * np.pi)
# rings whose literal register is served too (up to N = 10); odd N have
# orbits of mixed size in the sector
ring_sizes = st.integers(3, 10)


def burnside_orbits(n):
    """Orbits of the 2^N x strings under the flip, the mirror and the ring
    translations: the mean over the group of its fixed strings.

    A site permutation with c cycles fixes 2^c strings; composed with the
    flip it fixes 2^c when every cycle has even length, else none.
    """
    sites = np.arange(n)
    perms = [np.roll(perm, shift) for perm in (sites, sites[::-1])
             for shift in range(n)]
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


def site_op(n, i, op):
    """``op`` on site i (bit i of the z index) as a Kronecker product."""
    factors = [np.eye(2)] * n
    factors[n - 1 - i] = op
    return functools.reduce(np.kron, factors)


def site_x(n, i):
    return site_op(n, i, su2.SIGMA_X.real)


def site_z(n, i):
    return site_op(n, i, su2.SIGMA_Z.real)


def reference_evolution(op, vec, t):
    """exp(-iHt) vec from scipy's expm_multiply on the dense form of H."""
    return expm_multiply(-1.0j * t * op.dense(), vec)


class TestChainOperator:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dense_matches_kronecker_products(self, n):
        # H = -J (sum_bonds X_i X_j + g sum_i Z_i) from its definition, with
        # J = 1/2.  At N = 2 the ring's two bonds flip the same pair of spins
        xx = sum(site_x(n, i) @ site_x(n, j) for i, j in chain.default_bonds(n))
        z = sum(site_z(n, i) for i in range(n))
        for g in (0.0, 0.3, 1.0, 1.2, -0.7):
            h = -0.5 * (xx + g * z)
            assert np.max(np.abs(chain.ChainOperator(n, g).dense() - h)) <= 1e-15

    @given(st.integers(2, 10), fields)
    @settings(max_examples=30, deadline=None)
    def test_even_sector_is_restriction_of_register(self, n, g):
        # P takes the x-basis orbit states to the z basis of the register:
        # P^dagger H P is the sector matrix, and H P = P (P^dagger H P)
        # says that H keeps the sector
        sector = chain._SymmetricSector(n, g)
        h = chain.ChainOperator(n, g).dense()
        members = sector.orbit[:, None] == np.arange(sector.dim)
        hadamard = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])
                                              / np.sqrt(2.0)] * n)
        p = hadamard @ members / np.sqrt(sector.sizes)
        assert np.max(np.abs(p.T @ p - np.eye(sector.dim))) < 1e-12
        # the sweeps start from e_0
        assert np.max(np.abs(p[:, 0] - chain.even_cat_state(n))) < 1e-15
        restricted = p.T @ h @ p
        assert np.max(np.abs(restricted - sector.dense())) < 1e-12
        assert np.max(np.abs(h @ p - p @ restricted)) < 1e-12

    @pytest.mark.parametrize("n, dim", [(12, 122), (14, 362), (16, 1162)])
    def test_sector_dimensions(self, n, dim):
        # orbits under flip x mirror x translations: every ring up to N = 16
        # stays below the dense limit, and N = 17 is past it
        assert chain._SymmetricSector(n, 1.0).dim == dim == burnside_orbits(n)
        assert dim < 2 ** chain.DENSE_LIMIT <= burnside_orbits(chain.MAX_RING + 1)

    def test_fields_share_one_orbit_build(self):
        chain._orbits.cache_clear()
        chain._oracle_operator.cache_clear()
        first, second = (chain._oracle_operator(8, g) for g in (0.5, 1.2))
        assert chain._orbits.cache_info().misses == 1
        assert first.orbit is second.orbit and first.lam is second.lam
        assert not first.lam.flags.writeable

    def test_hermiticity(self):
        rng = np.random.default_rng(6)
        h = chain.ChainOperator(6, 1.5).dense()
        u, v = random_register(rng, 6), random_register(rng, 6)
        assert np.vdot(u, h @ v) == pytest.approx(
            np.conj(np.vdot(v, h @ u)), abs=1e-10)

    def test_size_guards(self):
        with pytest.raises(ResourceGuardError):
            chain.ChainOperator(15, 1.0)
        with pytest.raises(ResourceGuardError):
            chain.ChainOperator(1, 1.0)
        with pytest.raises(ResourceGuardError):
            chain.ChainOperator(11, 1.0)
        with pytest.raises(ResourceGuardError):
            chain._SymmetricSector(chain.MAX_RING + 1, 1.0)

    @pytest.mark.parametrize("call", [
        lambda: chain.ChainOperator(11, 1.2),
        lambda: chain.echo_chain(11, 1.2, 1.0, 1.0),
        lambda: chain._SymmetricSector(17, 1.2),
        lambda: chain.rate_function_ed(17, 0.0, 1.2, 1.0),
        lambda: chain.echo_scan_chain(17, 1.2, [1.0], [1.0]),
        lambda: chain.mqc_spectrum_ed(17, 1.2, 1.0),
    ], ids=["register-11", "echo_chain-11", "sector-17", "rate_function_ed-17",
            "echo_scan_chain-17", "mqc_spectrum_ed-17"])
    def test_past_the_dense_limit_is_refused_before_building(self, call):
        # the literal register from N = 11 (2048 states) and the ring sector
        # from N = 17 (2056): no state list, orbit table or matrix is made
        built = AssertionError("built")
        with mock.patch.object(np, "arange", side_effect=built), \
                mock.patch.object(chain, "_orbits", side_effect=built), \
                mock.patch.object(np.linalg, "eigh", side_effect=built), \
                pytest.raises(ResourceGuardError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: chain.rate_function_ed(16, 0.0, 1.2, np.zeros(10 ** 6)),
        lambda: chain.echo_scan_chain(16, 1.2, np.zeros(10 ** 6), [1.0]),
        lambda: chain.echo_scan_chain(16, 1.2, [1.0], np.zeros(10 ** 6)),
    ], ids=["rate_function_ed-times", "echo_scan_chain-times",
            "echo_scan_chain-angles"])
    def test_sweep_over_the_budget_is_refused_before_it_is_allocated(self,
                                                                      call):
        # 10**6 points on the ring N = 16 sector (1162 states): the phases
        # alone would take 17 GiB; neither they nor any rotation is formed
        formed = AssertionError("formed")
        with mock.patch.object(np, "outer", side_effect=formed), \
                mock.patch.object(np, "exp", side_effect=formed), \
                pytest.raises(ResourceGuardError, match="mode budget"):
            call()

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
            chain.ChainOperator(4, np.nan)
        # the register and the sector both take the ring's default_bonds(n);
        # neither takes a bond list or a boundary condition
        for kind in (chain.ChainOperator, chain._SymmetricSector):
            for keyword in ({"bonds": [(0, 1)]}, {"bc": "open"}):
                with pytest.raises(TypeError):
                    kind(4, 1.0, **keyword)
            assert kind(4, 1.0).bonds == chain.default_bonds(4)
        assert len(chain.default_bonds(6)) == 6


class TestStates:
    def test_cat_state_support(self):
        psi = chain.even_cat_state(2)
        assert np.allclose(psi, [2 ** -0.5, 0, 0, 2 ** -0.5])
        psi6 = chain.even_cat_state(6)
        odd = np.array([bin(s).count("1") % 2 == 1 for s in range(64)])
        assert np.all(psi6[odd] == 0)
        assert np.linalg.norm(psi6) == pytest.approx(1.0)

    def test_cat_is_zero_field_eigenstate(self):
        h = chain.ChainOperator(6, 0.0).dense()
        psi = chain.even_cat_state(6)
        assert np.max(np.abs(h @ psi - (-0.5 * 6) * psi)) < 1e-12

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
        for n in (6, 10):           # up to the largest register served
            vec = random_register(rng, n)
            op = chain.ChainOperator(n, 1.2)
            assert np.max(np.abs(chain.evolve_chain(vec, op, 0.0) - vec)) < 1e-12

    def test_eigenstate_phase(self):
        # H(g=0) |+>^N = -N J |+>^N on the ring, J = 1/2
        psi = plus_state(8)
        op = chain.ChainOperator(8, 0.0)
        out = chain.evolve_chain(psi, op, 0.9)
        assert np.max(np.abs(out - np.exp(0.5j * 8 * 0.9) * psi)) < 1e-12

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_matches_expm_multiply(self, n):
        rng = np.random.default_rng(9)
        vec = random_register(rng, n)
        op = chain.ChainOperator(n, 1.2)
        got = chain.evolve_chain(vec, op, 2.7)
        assert np.max(np.abs(got - reference_evolution(op, vec, 2.7))) < 1e-12

    @pytest.mark.parametrize("n, sector", [(9, False), (10, False), (12, True),
                                           (16, True)])
    def test_one_rule_by_states(self, monkeypatch, n, sector):
        # the eigensystem at every dimension served, for the literal
        # register (512, 1024 states) as for the ring sectors (122, 1162)
        kind = chain._SymmetricSector if sector else chain.ChainOperator
        op = kind(n, 1.2)
        calls = []
        eigensystem = chain.ChainOperator.eigensystem
        monkeypatch.setattr(chain.ChainOperator, "eigensystem",
                            lambda self: calls.append(self.dim) or eigensystem(self))
        vec = np.eye(op.dim, 1)[:, 0]
        got = chain.evolve_chain(vec, op, 0.7)
        assert calls == [op.dim]
        assert np.max(np.abs(got - reference_evolution(op, vec, 0.7))) < 1e-12

    def test_large_register_round_trip(self):
        rng = np.random.default_rng(10)
        vec = random_register(rng, 10)
        op = chain.ChainOperator(10, 1.2)
        fwd = chain.evolve_chain(vec, op, 1.8)
        assert abs(np.linalg.norm(fwd) - 1.0) < 1e-9
        back = chain.evolve_chain(fwd, op, -1.8)
        assert np.max(np.abs(back - vec)) < 1e-9

    def test_argument_guards(self):
        op = chain.ChainOperator(4, 1.0)
        with pytest.raises(ConfigurationError):
            chain.evolve_chain(np.ones(8), op, 1.0)
        with pytest.raises(ConfigurationError):
            chain.evolve_chain(np.ones(16), op, np.inf)


class TestRegisterRotation:
    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(12)
        bonds = chain.default_bonds(4)
        xx = -2.0 * chain.ChainOperator(4, 0.0).dense()  # +sum xx, J = 1/2
        vec = random_register(rng, 4)
        for phi in (0.3, np.pi, 5.1):
            expected = expm(-0.25j * phi * xx) @ vec
            got = chain.register_rotation_x(vec, phi, 4, bonds)
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_zero_angle_and_additivity(self):
        rng = np.random.default_rng(13)
        bonds = chain.default_bonds(6)
        vec = random_register(rng, 6)
        assert np.max(np.abs(chain.register_rotation_x(vec, 0.0, 6, bonds)
                             - vec)) < 1e-12
        once = chain.register_rotation_x(
            chain.register_rotation_x(vec, 0.7, 6, bonds), 1.1, 6, bonds)
        assert np.max(np.abs(once - chain.register_rotation_x(vec, 1.8, 6, bonds))) \
            < 1e-12

    @given(st.integers(1, 5), angles, st.data(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bond_flips_match_kronecker_exponential(self, n, phi, data, seed):
        # any bond list, with a repeated bond and a self-bond, which is the
        # identity: sigma^x_i sigma^x_i = 1, not a flip of spin i
        site = st.integers(0, n - 1)
        bonds = data.draw(st.lists(st.tuples(site, site), min_size=1, max_size=6))
        bonds += [bonds[0], (data.draw(site),) * 2]
        xx = sum(site_x(n, i) @ site_x(n, j) for i, j in bonds)
        vec = random_register(np.random.default_rng(seed), n)
        got = chain.register_rotation_x(vec, phi, n, bonds)
        assert np.max(np.abs(got - expm(-0.25j * phi * xx) @ vec)) < 1e-10
        assert chain.bond_correlator(vec, n, bonds) == pytest.approx(
            0.5 * np.vdot(vec, xx @ vec).real / n, abs=1e-12)

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
        # a site off the chain has no bit of the register index to flip
        with pytest.raises(ConfigurationError):
            chain.register_rotation_x(plus_state(4), 0.3, 4, [bond])
        with pytest.raises(ConfigurationError):
            chain.bond_correlator(plus_state(4), 4, [bond])

    @pytest.mark.parametrize("state", [np.ones(8), np.ones(32), np.ones((16, 1))],
                             ids=["short", "long", "column"])
    def test_register_of_the_wrong_shape_is_refused(self, state):
        # a register of 4 spins has shape (16,)
        bonds = chain.default_bonds(4)
        with pytest.raises(ConfigurationError, match=r"does not match 4 spins"):
            chain.register_rotation_x(state, 0.3, 4, bonds)
        with pytest.raises(ConfigurationError, match=r"does not match 4 spins"):
            chain.bond_correlator(state, 4, bonds)

    def test_bond_correlator_values(self):
        bonds = chain.default_bonds(6)
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

    def test_initial_field_guard(self):
        with pytest.raises(ConfigurationError):
            chain.rate_function_ed(6, 0.5, 1.2, 1.0)

    def test_scalar_in_scalar_out(self):
        out = chain.rate_function_ed(4, 0.0, 1.2, 1.3)
        assert isinstance(out, float)

    @pytest.mark.parametrize("n", [8, 11, 12])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_is_refused(self, n, bad):
        for t in (bad, [0.0, bad]):
            with pytest.raises(InvalidArgumentError):
                chain.rate_function_ed(n, 0.0, 1.2, t)

    @given(ring_sizes, fields, st.lists(times, min_size=1, max_size=3))
    @settings(max_examples=16, deadline=None)
    def test_even_sector_matches_full_register(self, n, g, ts):
        # the sector sweep against the literal full-register evolution and
        # against scipy's exponential of the register's dense form
        op = chain.ChainOperator(n, g)
        psi = chain.even_cat_state(n)
        probs = np.exp(-0.5 * n * chain.rate_function_ed(n, 0.0, g, ts))
        for evolve in (functools.partial(chain.evolve_chain, op=op),
                       functools.partial(reference_evolution, op)):
            literal = [abs(np.vdot(psi, evolve(psi, t=t))) ** 2 for t in ts]
            assert np.max(np.abs(probs - literal)) < 1e-12

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_one_rule_by_states(self, monkeypatch, n):
        # every ring sector (30, 122 and 1162 states) sums its amplitude over
        # the eigensystem itself, without the evolution engine
        calls = []
        evolve_block = chain._evolve_block
        eigensystem = chain.ChainOperator.eigensystem
        monkeypatch.setattr(chain, "_evolve_block", lambda *args:
                            calls.append("evolve") or evolve_block(*args))
        monkeypatch.setattr(chain.ChainOperator, "eigensystem", lambda self:
                            calls.append("eigensystem") or eigensystem(self))
        chain.rate_function_ed(n, 0.0, 1.2, [0.4, 1.3])
        assert calls == ["eigensystem"]

    def test_amplitude_floor_is_reported(self, monkeypatch):
        # a Loschmidt probability under the floor warns and is clamped to
        # it; the others are left as they are
        ts = np.linspace(0.0, 2.0 * T_C_12, 9)
        exact = chain.rate_function_ed(6, 0.0, 1.2, ts)
        monkeypatch.setattr(chain, "AMPLITUDE_FLOOR", 0.5)
        with pytest.warns(RuntimeWarning, match="floor"):
            clamped = chain.rate_function_ed(6, 0.0, 1.2, ts)
        under = np.exp(-3.0 * exact) < 0.5
        assert under.any() and not under.all()
        assert np.array_equal(clamped[~under], exact[~under])
        assert np.all(clamped[under] == -(2.0 / 6) * np.log(0.5))


def test_largest_ring_matches_momentum_model():
    # the ring N = 16 sector (1162 states), rate and echo, against the
    # momentum model on the abc grid
    ts = np.linspace(0.0, 5.0, 11)
    phis = 2.0 * np.pi * np.arange(4) / 4
    spec = quench.QuenchSpec(0.0, 1.2, 16, "abc")
    rate = chain.rate_function_ed(16, 0.0, 1.2, ts)
    assert np.max(np.abs(rate - quench.rate_function(spec, ts))) <= 1e-12
    fid, mag = chain.echo_scan_chain(16, 1.2, ts[::5], phis)
    fid_mom = otoc.fidelity_otoc(
        otoc.EchoConfig(spec, ts[::5], n_phi=4, aggregation="product"))
    mag_mom = otoc.magnetization_otoc(otoc.EchoConfig(spec, ts[::5], n_phi=4))
    assert np.max(np.abs(fid - fid_mom)) <= 1e-12
    assert np.max(np.abs(mag - mag_mom)) <= 1e-12


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
    def check_against_literal(n, g, ts, phis):
        fid, mag = chain.echo_scan_chain(n, g, ts, phis)
        assert fid.shape == mag.shape == (len(phis), len(ts))
        for i, phi in enumerate(phis):
            for j, t in enumerate(ts):
                fid_lit, mag_lit = chain.echo_chain(n, g, t, phi)
                assert abs(fid[i, j] - fid_lit) < 1e-12
                assert abs(mag[i, j] - mag_lit) < 1e-12

    @given(ring_sizes, fields, st.lists(times, min_size=1, max_size=3),
           st.lists(angles, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_matches_echo_chain_dense(self, n, g, ts, phis):
        self.check_against_literal(n, g, ts, phis)

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


@pytest.mark.parametrize("huge", [1e308, -1e308])
@pytest.mark.parametrize("label", ["evolve_chain", "echo_chain-t",
                                   "echo_scan_chain-t", "mqc_spectrum_ed",
                                   "rate_function_ed"])
def test_time_past_the_phase_range_is_refused(label, huge):
    # a finite time whose phases E t overflow would give NaN readouts
    with pytest.raises(InvalidArgumentError, match="t must keep every phase finite"):
        NON_FINITE_CALLS[label](huge)
    inside = NON_FINITE_CALLS[label](huge * 1e-8)
    assert np.all(np.isfinite(getattr(inside, "components", inside)))


# every field that enters a model, the mode model's included
NON_FINITE_FIELDS = {
    "QuenchSpec-g_i": lambda x: quench.QuenchSpec(x, 1.2, 8),
    "QuenchSpec-g_f": lambda x: quench.QuenchSpec(0.0, x, 8),
    "ChainOperator-g": lambda x: chain.ChainOperator(4, x),
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
        bonds = chain.default_bonds(6)
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
        op = chain.ChainOperator(6, 1.2)
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
