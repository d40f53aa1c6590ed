"""Full-register chain oracle: operators, propagators, echo readouts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import jv

from tfim_dqpt import chain, otoc, quench, su2
from tfim_dqpt.errors import (
    AliasingError,
    ConfigurationError,
    NumericalFailureError,
    ResourceGuardError,
)

T_C_12 = np.pi / (2.0 * np.sqrt(0.44))

fields = st.floats(0.05, 2.0)
times = st.floats(0.0, 5.0)
angles = st.floats(0.0, 2.0 * np.pi)
# N <= DENSE_LIMIT (eigenbasis) and beyond it (Chebyshev)
dense_sizes = st.sampled_from([4, 6, 8, 10])
chebyshev_sizes = st.sampled_from([11, 12])


def random_register(rng, n):
    vec = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return vec / np.linalg.norm(vec)


class TestChainOperator:
    def test_apply_matches_dense(self):
        rng = np.random.default_rng(5)
        for g, bc in [(0.0, "periodic"), (1.2, "periodic"), (0.7, "open")]:
            op = chain.ChainOperator(5, g, bc=bc)
            vec = random_register(rng, 5)
            assert np.max(np.abs(op.apply(vec) - op.dense() @ vec)) < 1e-12

    @given(st.sampled_from(["periodic", "open", "shuffled"]), fields,
           st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
    def test_block_apply_matches_dense_columns(self, kind, g, width, seed):
        rng = np.random.default_rng(seed)
        bonds = None
        if kind == "shuffled":
            bonds = [tuple(pair) for pair in
                     rng.permutation(chain.default_bonds(5, "periodic"))]
        op = chain.ChainOperator(5, g, bc="open" if kind == "open" else "periodic",
                                 coupling=0.5, bonds=bonds)
        block = rng.normal(size=(32, width)) + 1j * rng.normal(size=(32, width))
        expected = np.stack([op.dense() @ col for col in block.T], axis=1)
        assert np.max(np.abs(op.apply(block) - expected)) < 1e-12
        assert np.max(np.abs(op.apply(block.real) - op.dense() @ block.real)) < 1e-12
        assert np.max(np.abs(op.apply(block[:, 0]) - expected[:, 0])) < 1e-12

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

    def test_argument_guards(self):
        with pytest.raises(ConfigurationError):
            chain.ChainOperator(4, 1.0, bc="twisted")
        with pytest.raises(ConfigurationError):
            chain.ChainOperator(4, np.nan)
        with pytest.raises(ConfigurationError):
            chain.ChainOperator(4, 1.0, bonds=[(0, 7)])

    def test_open_chain_has_one_less_bond(self):
        assert len(chain.default_bonds(6, "periodic")) == 6
        assert len(chain.default_bonds(6, "open")) == 5


class TestStates:
    def test_uniform_superposition(self):
        assert np.allclose(chain.initial_chain_state(1), [2 ** -0.5] * 2)
        assert np.allclose(chain.initial_chain_state(2), [0.5] * 4)
        assert np.linalg.norm(chain.initial_chain_state(8)) == pytest.approx(1.0)

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
            chain.initial_chain_state(15)
        with pytest.raises(ResourceGuardError):
            chain.even_cat_state(0)


class TestEvolveChain:
    def test_zero_time(self):
        rng = np.random.default_rng(8)
        vec = random_register(rng, 6)
        op = chain.ChainOperator(6, 1.2)
        for method in ("dense", "chebyshev"):
            assert np.max(np.abs(chain.evolve_chain(vec, op, 0.0, method=method)
                                 - vec)) < 1e-12

    def test_eigenstate_phase(self):
        # H(g=0) |+>^N = -N J |+>^N on the ring
        psi = chain.initial_chain_state(8)
        op = chain.ChainOperator(8, 0.0, coupling=1.0)
        out = chain.evolve_chain(psi, op, 0.9)
        assert np.max(np.abs(out - np.exp(1.0j * 8 * 0.9) * psi)) < 1e-12

    def test_methods_agree(self):
        rng = np.random.default_rng(9)
        vec = random_register(rng, 8)
        op = chain.ChainOperator(8, 1.2, coupling=0.5)
        dense = chain.evolve_chain(vec, op, 2.7, method="dense")
        cheb = chain.evolve_chain(vec, op, 2.7, method="chebyshev")
        assert np.max(np.abs(dense - cheb)) < 1e-9

    def test_large_register_round_trip(self):
        rng = np.random.default_rng(10)
        vec = random_register(rng, 12)
        op = chain.ChainOperator(12, 1.2, coupling=0.5)
        fwd = chain.evolve_chain(vec, op, 1.8)          # auto -> chebyshev
        assert abs(np.linalg.norm(fwd) - 1.0) < 1e-9
        back = chain.evolve_chain(fwd, op, -1.8)
        assert np.max(np.abs(back - vec)) < 1e-9

    def test_truncation_failure_reports_residual(self):
        vec = chain.initial_chain_state(11)
        op = chain.ChainOperator(11, 1.2, coupling=0.5)
        with pytest.raises(NumericalFailureError) as err:
            chain.evolve_chain(vec, op, 3.0, method="chebyshev", max_terms=3)
        assert err.value.residual is not None and err.value.residual > 0

    def test_coefficient_range_does_not_move_cutoff(self):
        # the cutoff from jv over the orders the tail needs equals the
        # cutoff from jv over all max_terms + 50 orders
        taus = np.concatenate([np.linspace(-500.0, 500.0, 201),
                               [0.0, 1e-3, -0.4, 2.7, -17.3, 90.1]])
        for tau in taus:
            weights = 2.0 * np.abs(jv(np.arange(10050), tau))
            weights[0] *= 0.5
            tails = np.cumsum(weights[::-1])[::-1]
            full = int(np.flatnonzero(tails <= 1e-12)[0])
            assert chain._chebyshev_coefficients(tau).size - 1 == full, tau

    def test_argument_guards(self):
        op = chain.ChainOperator(4, 1.0)
        with pytest.raises(ConfigurationError):
            chain.evolve_chain(np.ones(8), op, 1.0)
        with pytest.raises(ConfigurationError):
            chain.evolve_chain(np.ones(16), op, np.inf)
        with pytest.raises(ConfigurationError):
            chain.evolve_chain(np.ones(16), op, 1.0, method="krylov")


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

    def test_bond_correlator_values(self):
        bonds = chain.default_bonds(6, "periodic")
        plus = chain.initial_chain_state(6)
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


class TestChebyshevMoments:
    @given(dense_sizes, fields, st.lists(times, min_size=1, max_size=4))
    @settings(max_examples=25)
    def test_moment_amplitude_matches_eigenbasis(self, n, g, ts):
        op = chain.ChainOperator(n, g, coupling=0.5)
        psi = chain.even_cat_state(n)
        energies, vectors = op.eigensystem()
        weights = np.abs(vectors.T @ psi) ** 2
        exact = np.exp(-1.0j * np.outer(ts, energies)) @ weights
        got = chain._chebyshev_amplitudes(op, psi, ts)
        assert np.max(np.abs(got - exact)) < 1e-12

    @given(chebyshev_sizes, fields, st.lists(times, min_size=1, max_size=3),
           st.booleans())
    @settings(max_examples=6)
    def test_moment_amplitude_matches_literal_chebyshev(self, n, g, ts, cat):
        op = chain.ChainOperator(n, g, coupling=0.5)
        psi = chain.even_cat_state(n) if cat else \
            random_register(np.random.default_rng(n), n)
        literal = [np.vdot(psi, chain.evolve_chain(psi, op, t, method="chebyshev"))
                   for t in ts]
        got = chain._chebyshev_amplitudes(op, psi, ts)
        assert np.max(np.abs(got - literal)) < 1e-12


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
           st.lists(angles, min_size=1, max_size=3))
    @settings(max_examples=25)
    def test_matches_echo_chain_dense(self, n, g, ts, phis):
        self.check_against_literal(n, g, ts, phis)

    @given(fields, st.lists(times, min_size=1, max_size=2),
           st.lists(angles, min_size=1, max_size=3))
    @settings(max_examples=5)
    def test_matches_echo_chain_chebyshev(self, g, ts, phis):
        self.check_against_literal(12, g, ts, phis)

    def test_open_chain_matches_echo_chain(self):
        self.check_against_literal(6, 1.2, [0.7, 2.9], [0.4, 3.3], bc="open")
        self.check_against_literal(11, 0.6, [1.9], [2.2], bc="open")

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
        def no_evolution(*args, **kwargs):
            raise AssertionError("evolved before the aliasing check")
        monkeypatch.setattr(chain, "_evolve_block", no_evolution)
        with pytest.raises(AliasingError):
            chain.mqc_spectrum_ed(6, 1.2, 1.9, m_max=6, n_phi=12)

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


class TestTranslationInvariance:
    def test_bond_order_is_immaterial(self):
        rng = np.random.default_rng(15)
        vec = random_register(rng, 6)
        bonds = chain.default_bonds(6, "periodic")
        op_a = chain.ChainOperator(6, 1.2, bonds=bonds)
        op_b = chain.ChainOperator(6, 1.2, bonds=bonds[::-1])
        assert np.max(np.abs(op_a.apply(vec) - op_b.apply(vec))) < 1e-14

    def test_shifted_ring_gives_same_readouts(self):
        shifted = [((i + 1) % 6, (i + 2) % 6) for i in range(6)]
        psi = chain.even_cat_state(6)
        for op in (chain.ChainOperator(6, 1.2, coupling=0.5),
                   chain.ChainOperator(6, 1.2, coupling=0.5, bonds=shifted)):
            out = chain.evolve_chain(psi, op, 1.3)
            rot = chain.register_rotation_x(out, 0.9, 6, op.bonds)
            fid = abs(np.vdot(psi, chain.evolve_chain(rot, op, -1.3))) ** 4
            corr = chain.bond_correlator(rot, 6, op.bonds)
            if not hasattr(self, "_ref"):
                self._ref = (fid, corr)
            else:
                assert fid == pytest.approx(self._ref[0], abs=1e-10)
                assert corr == pytest.approx(self._ref[1], abs=1e-10)
