"""Echo protocol, MQC spectra, general OTOCs, and the well-shape detector."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tfim_dqpt import cli, otoc, quench, su2
from tfim_dqpt.errors import (
    AliasingError,
    ConfigurationError,
    GaplessModeError,
    InvalidArgumentError,
    ResourceGuardError,
    WindowRangeError,
)

from conftest import expm_oracle, mode_momenta, random_state, random_su2


def echo_config(g_f, times, **kw):
    spec = quench.QuenchSpec(0.0, g_f, kw.pop("n", 30), kw.pop("grid", "paper"))
    return otoc.EchoConfig(spec, np.asarray(times, dtype=float), **kw)


finite_fields = st.floats(-2.5, 2.5, allow_nan=False) \
    | st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.2])
time_lists = st.lists(st.floats(0.0, 8.0, allow_nan=False), min_size=1,
                      max_size=5)


class TestEchoState:
    def test_zero_angle_is_identity_echo(self):
        d = quench.bloch_vector(1.2, 0.9)
        psi = otoc.echo_state(d, 1.7, 0.0)
        assert np.max(np.abs(psi - su2.X_PLUS)) < 1e-12

    def test_zero_time_is_bare_rotation(self):
        psi = otoc.echo_state(quench.bloch_vector(1.2, 0.9), 0.0, 1.1)
        assert np.max(np.abs(psi - np.exp(-1.1j / 2) * su2.X_PLUS)) < 1e-12

    def test_zero_field_modes_are_x_states(self):
        # at g_i = 0 every mode's lab-frame initial state is echo_state's |x>
        for grid in ("paper", "abc"):
            for k in quench.QuenchSpec(0.0, 1.2, 4, grid).momentum_grid():
                psi0 = su2.ground_state(-quench.bloch_vector(0.0, k))
                assert np.max(np.abs(psi0 - su2.X_PLUS)) < 1e-12

    def test_three_factor_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = rng.normal(size=3)
            t, phi = rng.uniform(0, 5), rng.uniform(0, 2 * np.pi)
            psi0 = random_state(rng)
            expected = (expm_oracle(su2.pauli_dot(-d), t)
                        @ expm_oracle(su2.pauli_dot([1.0, 0, 0]), phi / 2)
                        @ expm_oracle(su2.pauli_dot(d), t) @ psi0)
            assert np.max(np.abs(otoc.echo_state(d, t, phi, psi0) - expected)) < 1e-12


class TestFidelityOtoc:
    def test_zero_angle_column_is_one(self):
        for agg in ("mean", "product"):
            cfg = echo_config(1.2, np.linspace(0, 5, 9), aggregation=agg)
            fids = otoc.fidelity_otoc(cfg)
            assert fids.shape == (64, 9)
            assert np.max(np.abs(fids[0] - 1.0)) < 1e-12

    def test_zero_time_column_is_one(self):
        fids = otoc.fidelity_otoc(echo_config(1.5, [0.0, 1.0]))
        assert np.max(np.abs(fids[:, 0] - 1.0)) < 1e-12

    def test_angle_reflection_symmetry(self):
        # every surface is even in phi bit for bit, at odd and even n_phi:
        # rows phi_j and 2pi - phi_j come from one coefficient row
        ts = np.linspace(0, 5, 7)
        for n_phi in (15, 16):
            mean = echo_config(1.2, ts, n_phi=n_phi)
            product = echo_config(1.2, ts, n_phi=n_phi, aggregation="product")
            for surface in (otoc.fidelity_otoc(mean), otoc.fidelity_otoc(product),
                            otoc.magnetization_otoc(mean)):
                assert surface.shape == (n_phi, 7)
                assert np.array_equal(surface[1:], surface[:0:-1])

    def test_bounded(self):
        fids = otoc.fidelity_otoc(echo_config(0.8, np.linspace(0, 6, 11)))
        assert np.all((fids > 0) & (fids <= 1 + 1e-12))

    def test_product_bounded_by_mean(self):
        # AM-GM: the geometric mean of mode fidelities is below the mean
        ts = np.linspace(0, 5, 11)
        prod = otoc.fidelity_otoc(echo_config(1.2, ts, aggregation="product"))
        mean = otoc.fidelity_otoc(echo_config(1.2, ts, aggregation="mean"))
        assert np.all(prod <= mean ** 0 * mean.clip(0, 1) + 1e-12)
        assert np.all(prod <= mean + 1e-12)

    @example(0.0, 1.2, 30, "paper", "absolute", 16, 5, 5.0, True)
    @example(-0.4, -1.0, 7, "abc", "normalized", 3, 2, 2.0, False)
    @given(finite_fields, finite_fields, st.integers(2, 200),
           st.sampled_from(["paper", "abc"]),
           st.sampled_from(["absolute", "normalized"]), st.integers(3, 40),
           st.integers(2, 60), st.floats(0.1, 8.0), st.booleans())
    def test_product_is_the_ordered_product_of_mode_factors(
            self, g_i, g_f, n, grid, time_mode, n_phi, n_t, t_max, uniform):
        # the byte contract of the product surface: every cell is 1.0 times
        # each distinct mode's closed-form factor (cos^2(phi/2) +
        # sin^2(phi/2) n^2) ** multiplicity, in ascending k, with the angle
        # coefficients of phi_j taken at min(j, n_phi - j)
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        ts = np.linspace(0.0, t_max, n_t)
        if not uniform:
            ts = ts * ts / t_max
        cfg = otoc.EchoConfig(spec, ts, n_phi=n_phi, aggregation="product",
                              time_mode=time_mode)
        try:
            surface = otoc.fidelity_otoc(cfg)
        except GaplessModeError:
            return
        j = np.arange(n_phi)
        half = otoc._phi_grid(n_phi)[np.minimum(j, n_phi - j), None] / 2.0
        cos2, sin2 = np.cos(half) ** 2, np.sin(half) ** 2
        n2 = 2.0 * quench._probabilities(spec, ts, time_mode == "normalized") - 1.0
        n2 *= n2
        factors = [(cos2 + sin2 * row) ** weight
                   for row, weight in zip(n2, spec._multiplicity())]
        assert surface.tobytes() == np.multiply.reduce(np.stack(factors)).tobytes()
        # the job's surface is its distinct rows, j <= n_phi // 2
        assert otoc._product_fidelity(cfg).tobytes() \
            == surface[:n_phi // 2 + 1].tobytes()


class TestMagnetizationOtoc:
    def test_zero_time_and_angle(self):
        mags = otoc.magnetization_otoc(echo_config(1.2, [0.0, 1.3, 2.6]))
        assert np.max(np.abs(mags[:, 0] - 0.5)) < 1e-12
        assert np.max(np.abs(mags[0] - 0.5)) < 1e-12

    def test_product_rejected(self):
        cfg = echo_config(1.2, [1.0], aggregation="product")
        with pytest.raises(ConfigurationError):
            otoc.magnetization_otoc(cfg)

    def test_bounded_by_half(self):
        mags = otoc.magnetization_otoc(echo_config(1.5, np.linspace(0, 6, 13)))
        assert np.max(np.abs(mags)) <= 0.5 + 1e-12


class TestMqcSpectrum:
    def test_constant_signal(self):
        spec = otoc.mqc_spectrum(np.full(16, 1.0), 3)
        assert spec.component(0) == pytest.approx(1.0, abs=1e-14)
        for m in (-3, -2, -1, 1, 2, 3):
            assert abs(spec.component(m)) < 1e-14

    def test_pure_cosine(self):
        phis = 2 * np.pi * np.arange(32) / 32
        spec = otoc.mqc_spectrum(np.cos(phis), 2)
        assert spec.component(1) == pytest.approx(0.5, abs=1e-14)
        assert spec.component(-1) == pytest.approx(0.5, abs=1e-14)
        assert abs(spec.component(0)) < 1e-14
        assert abs(spec.component(2)) < 1e-14

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            otoc.mqc_spectrum(np.ones(8), 4)
        otoc.mqc_spectrum(np.ones(9), 4)  # boundary case resolves

    def test_component_range_guard(self):
        spec = otoc.mqc_spectrum(np.ones(16), 2)
        with pytest.raises(IndexError):
            spec.component(3)

    @pytest.mark.parametrize("m_max, components", [
        (1, [0.0, 1.0, 2.0, 3.0, 4.0]), (1, [0.0]), (0, []), (1, [[0.0, 1.0, 2.0]])])
    def test_components_must_hold_every_order(self, m_max, components):
        # 2 m_max + 1 of them, one per order -m_max..m_max
        with pytest.raises(InvalidArgumentError):
            otoc.MqcSpectrum(m_max, components)
        assert otoc.MqcSpectrum(1, [0.0, 1.0, 2.0]).component(1) == 2.0

    @pytest.mark.parametrize("order", [1.5, -0.5, np.nan, np.inf])
    def test_non_integral_order_is_refused(self, order):
        spec = otoc.mqc_spectrum(np.ones(16), 2)
        with pytest.raises(InvalidArgumentError):
            spec.component(order)
        assert spec.component(1.0) == spec.component(1)

    @given(st.integers(0, 4), st.integers(0, 30), st.integers(0, 2 ** 31 - 1))
    def test_band_limited_reconstruction(self, m_max, extra, seed):
        n_phi = 2 * m_max + 1 + extra
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=m_max + 1) + 1j * rng.normal(size=m_max + 1)
        coeffs[0] = coeffs[0].real
        phis = 2 * np.pi * np.arange(n_phi) / n_phi
        signal = np.real(coeffs[0]) * np.ones(n_phi)
        for m in range(1, m_max + 1):
            signal += 2 * np.real(coeffs[m] * np.exp(1j * m * phis))
        spec = otoc.mqc_spectrum(signal, m_max)
        for m in range(0, m_max + 1):
            assert abs(spec.component(m) - coeffs[m]) < 1e-10
            assert abs(spec.component(-m) - np.conj(coeffs[m])) < 1e-10


class TestSpectrumDynamics:
    def test_initial_magnetization_orders(self):
        cfg = echo_config(1.2, [0.0])
        spec = otoc.spectrum_dynamics(cfg, "magnetization", 2)[0]
        assert spec.component(0) == pytest.approx(0.5, abs=1e-12)
        for m in (-2, -1, 1, 2):
            assert abs(spec.component(m)) < 1e-12

    def test_mean_fidelity_band_limit(self):
        # per-mode fidelity is quadratic in e^{i phi/2}: orders |m| <= 1 only
        cfg = echo_config(1.2, np.linspace(0, 5, 6), n_phi=16)
        for spec in otoc.spectrum_dynamics(cfg, "fidelity", 4):
            for m in (2, 3, 4):
                assert abs(spec.component(m)) < 1e-10
                assert abs(spec.component(-m)) < 1e-10

    def test_unknown_observable(self):
        with pytest.raises(ConfigurationError):
            otoc.spectrum_dynamics(echo_config(1.2, [1.0]), "parity", 1)

    def test_coherence_series_shape(self):
        cfg = echo_config(1.2, np.linspace(0, 3, 5))
        spectra = otoc.spectrum_dynamics(cfg, "fidelity", 1)
        series = otoc.coherence_series(spectra, 1)
        assert series.shape == (5,)

    def test_default_product_spectra_do_not_alias(self):
        # the product fidelity's orders reach the grid size, so n_phi angles
        # fold every order past n_phi/2 onto |m| <= m_max.  At the CLI's
        # defaults (N = 30, 64 angles, 500 times to 5) that fold is below
        # 1e-14: 4096 angles give the same orders.  At N = 2000 it is not
        # (1.2e-3 at g_f = 1.2, see README)
        q, e = cli.DEFAULTS["quench"], cli.DEFAULTS["echo"]
        assert (q["n"], e["n_phi"]) == (30, 64)
        ts = np.linspace(0.0, q["t_max"], q["t_points"])
        for g_f in q["g_f"]:
            spec = quench.QuenchSpec(q["g_i"], g_f, q["n"], q["grid"])
            coarse, fine = (otoc.mqc_components(otoc.fidelity_otoc(otoc.EchoConfig(
                spec, ts, n_phi=n_phi, aggregation="product")), e["m_max"])
                for n_phi in (e["n_phi"], 4096))
            assert np.max(np.abs(coarse - fine)) <= 1e-14


class TestSpectrumInvariants:
    def make_spectra(self, aggregation, m_max, n=8):
        cfg = echo_config(1.2, np.linspace(0, 5, 7), n=n, grid="abc",
                          aggregation=aggregation)
        return otoc.spectrum_dynamics(cfg, "fidelity", m_max)

    def test_hermiticity(self):
        for spec in self.make_spectra("product", 8):
            comps = spec.components
            assert np.max(np.abs(comps - np.conj(comps[::-1]))) < 1e-10

    def test_components_real_nonnegative_under_ideal_reversal(self):
        for spec in self.make_spectra("product", 8):
            assert np.max(np.abs(np.imag(spec.components))) < 1e-10
            assert np.min(np.real(spec.components)) > -1e-10

    def test_sum_rule_equals_zero_angle_fidelity(self):
        # the full-band sum reconstructs the signal at phi = 0, which is 1
        for spec in self.make_spectra("product", 8):
            assert np.sum(spec.components) == pytest.approx(1.0, abs=1e-10)
        for spec in self.make_spectra("mean", 1):
            assert np.sum(spec.components) == pytest.approx(1.0, abs=1e-10)


class TestOtocGeneral:
    def test_identity_probe(self):
        d = quench.bloch_vector(1.2, 0.7)
        f = otoc.otoc_general(np.eye(2), su2.SIGMA_Z, d, 1.9, su2.X_PLUS)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_commuting_pair_at_zero_time(self):
        f = otoc.otoc_general(su2.SIGMA_Z, su2.SIGMA_Z,
                              quench.bloch_vector(1.2, 0.7), 0.0, su2.X_PLUS)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_nonunitary_rejected(self):
        d = quench.bloch_vector(1.2, 0.7)
        with pytest.raises(InvalidArgumentError):
            otoc.otoc_general(np.diag([1.0, 2.0]), su2.SIGMA_Z, d, 1.0, su2.X_PLUS)
        with pytest.raises(InvalidArgumentError):
            otoc.otoc_general(su2.SIGMA_Z, np.diag([1.0, 2.0]), d, 1.0, su2.X_PLUS)

    def test_unknown_convention(self):
        with pytest.raises(ConfigurationError):
            otoc.otoc_general(su2.SIGMA_Z, su2.SIGMA_X,
                              quench.bloch_vector(1.2, 0.7), 1.0, su2.X_PLUS,
                              convention="heisenberg")

    def test_commutator_identity_both_conventions(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            w, v = random_su2(rng), random_su2(rng)
            d = rng.normal(size=3)
            t = rng.uniform(0, 6)
            psi0 = random_state(rng)
            u = su2.evolution_unitary(d, t)
            for conv, w_t in (("paper", u @ w @ u.conj().T),
                              ("conventional", u.conj().T @ w @ u)):
                f = otoc.otoc_general(w, v, d, t, psi0, convention=conv)
                comm = w_t @ v - v @ w_t
                growth = np.real(np.vdot(comm @ psi0, comm @ psi0))
                assert abs((1.0 - growth / 2.0) - f.real) < 1e-12

    def test_conventions_differ_generically(self):
        d = quench.bloch_vector(1.2, 0.7)
        f_p = otoc.otoc_general(su2.SIGMA_Z, su2.SIGMA_Y, d, 1.3, su2.X_PLUS)
        f_c = otoc.otoc_general(su2.SIGMA_Z, su2.SIGMA_Y, d, 1.3, su2.X_PLUS,
                                convention="conventional")
        assert abs(f_p - f_c) > 1e-3


class TestDoubleWellDetector:
    def test_single_bump(self):
        ts = np.linspace(0, 2, 201)
        vals = np.exp(-((ts - 1.0) / 0.2) ** 2)
        assert otoc.double_well_detector(ts, vals, 1.0, 0.5) == "single_well"

    def test_quartic_double_well(self):
        # both wells of x^4 - x^2 sit at 1/sqrt(2); the window must reach them
        ts = np.linspace(0.2, 1.8, 401)
        x = ts - 1.0
        vals = x ** 4 - x ** 2
        assert otoc.double_well_detector(ts, vals, 1.0, 0.75) == "double_well"

    def test_inverted_double_well(self):
        # central dip flanked by two humps, the physical A_1 shape
        ts = np.linspace(0.2, 1.8, 401)
        x = ts - 1.0
        vals = -(x ** 4) + x ** 2
        assert otoc.double_well_detector(ts, vals, 1.0, 0.5) == "double_well"

    def test_well_outside_window_ignored(self):
        ts = np.linspace(0, 4, 401)
        x = ts - 3.0
        vals = np.where(np.abs(x) < 1, x ** 4 - x ** 2, 0.0)
        assert otoc.double_well_detector(ts, vals, 1.0, 0.5) == "single_well"

    def test_threshold_gates_shallow_dips(self):
        ts = np.linspace(0, 2, 201)
        dip = 1.0 - 5e-4 * np.exp(-((ts - 1.0) / 0.1) ** 2)
        assert otoc.double_well_detector(ts, dip, 1.0, 0.5) == "single_well"
        deep = 1.0 - 5e-2 * np.exp(-((ts - 1.0) / 0.1) ** 2)
        assert otoc.double_well_detector(ts, deep, 1.0, 0.5) == "double_well"

    def test_flat_bottom_is_one_minimum(self):
        # a well whose bottom is three equal samples, as a V with its tip cut
        ts = np.linspace(0.0, 2.0, 21)
        vals = np.maximum(np.abs(np.arange(21) - 10), 1) / 10.0
        assert np.count_nonzero(vals == vals.min()) == 3
        assert otoc.double_well_detector(ts, vals, 1.0, 0.5) == "double_well"
        # one sample of the bottom in the window will do, first or last
        for t_c in (0.55, 1.45):
            assert otoc.double_well_detector(ts, vals, t_c, 0.4) == "double_well"
        assert otoc.double_well_detector(ts, vals, 0.5, 0.35) == "single_well"
        # a step, a flat top and a flat edge are no minimum
        step = np.where(ts < 0.9, 1.0, np.where(ts < 1.15, 0.5, 0.0))
        assert otoc.double_well_detector(ts, step, 1.0, 0.5) == "single_well"
        assert otoc.double_well_detector(ts, -vals, 1.0, 0.5) == "single_well"
        edge = np.minimum(ts, 1.0)
        assert otoc.double_well_detector(ts, 2.0 - edge, 1.0, 1.0) == "single_well"

    @pytest.mark.parametrize("points", [160, 1000])
    def test_even_grid_finds_the_flat_bottomed_well(self, points):
        # an even grid leaves tau = 1/2 unsampled: the two samples of A_1
        # that straddle it are equal by symmetry, a flat bottom of two
        taus = np.linspace(0.0, 1.0, points)
        cfg = otoc.EchoConfig(quench.QuenchSpec(0.0, 1.2, 30), taus, n_phi=5,
                              time_mode="normalized")
        a1 = np.real(otoc.coherence_series(
            otoc.spectrum_dynamics(cfg, "magnetization", 1), 1))
        middle = points // 2
        assert a1[middle - 1] == a1[middle] == a1[middle - 2:middle + 2].min()
        assert otoc.double_well_detector(taus, a1, 0.5, 0.4) == "double_well"

    def test_window_range_guard(self):
        ts = np.linspace(0, 2, 51)
        with pytest.raises(WindowRangeError):
            otoc.double_well_detector(ts, np.zeros(51), 1.9, 0.5)

    def test_shape_guard(self):
        with pytest.raises(ConfigurationError):
            otoc.double_well_detector([0.0, 1.0], [0.0, 1.0], 0.5, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("argument", ["times", "values", "t_c", "window",
                                          "eps_dw"])
    def test_non_finite_input_is_refused(self, argument, bad):
        ts = np.linspace(0, 2, 201)
        call = {"times": ts, "values": 1.0 - np.exp(-((ts - 1.0) / 0.1) ** 2),
                "t_c": 1.0, "window": 0.5, "eps_dw": 1e-3}
        assert otoc.double_well_detector(**call) == "double_well"
        if argument in ("times", "values"):
            call[argument] = call[argument].copy()
            call[argument][100] = bad
        else:
            call[argument] = bad
        with pytest.raises(InvalidArgumentError):
            otoc.double_well_detector(**call)


class TestNormalizedCoherenceShape:
    """Order-1 magnetization coherence over rescaled per-mode periods.

    Every mode is driven for t = tau * pi/|d_f(k)| so revivals align at
    tau = 1; the shape near tau = 0.5 distinguishes the two phases.
    """

    def coherence(self, g_f):
        taus = np.linspace(0.0, 1.0, 161)
        cfg = echo_config(g_f, taus, time_mode="normalized")
        spectra = otoc.spectrum_dynamics(cfg, "magnetization", 1)
        series = otoc.coherence_series(spectra, 1)
        assert np.max(np.abs(np.imag(series))) < 1e-12
        return taus, np.real(series)

    def test_double_well_above_critical_field(self):
        taus, a1 = self.coherence(1.2)
        assert otoc.double_well_detector(taus, a1, 0.5, 0.4) == "double_well"
        interior = np.arange(1, taus.size - 1)
        dips = interior[(a1[interior] < a1[interior - 1])
                        & (a1[interior] < a1[interior + 1])]
        assert any(abs(taus[i] - 0.5) < 1e-9 for i in dips)

    def test_single_well_below_critical_field(self):
        taus, a1 = self.coherence(0.8)
        assert otoc.double_well_detector(taus, a1, 0.5, 0.4) == "single_well"
        assert taus[np.argmax(a1)] == pytest.approx(0.5, abs=1e-9)

    def test_alignment_of_revival(self):
        # every mode returns to its initial state at tau = 1, so A_1 collapses
        _, a1 = self.coherence(0.8)
        assert abs(a1[-1]) < 1e-10


class TestEchoConfigValidation:
    def test_bad_aggregation(self):
        with pytest.raises(ConfigurationError):
            echo_config(1.2, [1.0], aggregation="median")

    def test_bad_time_mode(self):
        with pytest.raises(ConfigurationError):
            echo_config(1.2, [1.0], time_mode="relative")

    def test_bad_n_phi(self):
        with pytest.raises(ConfigurationError):
            echo_config(1.2, [1.0], n_phi=2)

    @pytest.mark.parametrize("n_phi", [np.nan, np.inf, 8.5])
    def test_non_integer_n_phi_is_refused(self, n_phi):
        with pytest.raises(ConfigurationError):
            echo_config(1.2, [1.0], n_phi=n_phi)

    def test_huge_integer_n_phi_reaches_the_guard(self):
        # 10**400 angles: no float holds the count; the scan is refused
        cfg = echo_config(1.2, [1.0], n_phi=10 ** 400)
        assert cfg.n_phi == 10 ** 400
        otoc.require_resolvable(cfg.n_phi, 3)
        for aggregation in ("mean", "product"):
            with pytest.raises(ResourceGuardError):
                otoc.fidelity_otoc(echo_config(1.2, [1.0], n_phi=10 ** 400,
                                               aggregation=aggregation))
        with pytest.raises(ResourceGuardError):
            otoc.magnetization_otoc(cfg)

    def test_bad_time_grid(self):
        with pytest.raises(ConfigurationError):
            echo_config(1.2, [np.inf])
        with pytest.raises(ConfigurationError):
            echo_config(1.2, [])


def literal_echo(config):
    """Per-mode echo cells in the lab frame, composed from su2 primitives.

    Each mode starts in psi0 = ground_state(-d_i), evolves under -d_f.sigma,
    is rotated by phi about dhat_i and evolves back; the magnetization is
    <psi|dhat_i.sigma|psi>/2.  Returns fidelities and magnetizations of
    shape (n_k, n_t, n_phi) over the whole grid (``mode_momenta``); in
    normalized time mode k evolves for tau * pi/|d_f(k)|, gapless final
    modes sit idle.
    """
    spec, grid, phis = config.spec, config.time_grid, config.phi_values
    ks = mode_momenta(spec)
    shape = (ks.size, grid.size, phis.size)
    fids, mags = np.empty(shape), np.empty(shape)
    for a, k in enumerate(ks):
        d_i = quench.bloch_vector(spec.g_i, k)
        axis = d_i / np.linalg.norm(d_i)
        d_f = quench.bloch_vector(spec.g_f, k)
        # at g_f = -1 the mode next to k = pi has |d_f| about 1e-16, not 0
        if quench._gap_squared(spec.g_f, k) == 0.0:
            d_f = np.zeros(3)
        n_f = np.linalg.norm(d_f)
        psi0 = su2.ground_state(-d_i)
        for j, x in enumerate(grid):
            if config.time_mode == "absolute":
                t = x
            else:
                t = x * np.pi / n_f if n_f > 0.0 else 0.0
            forward = su2.evolution_unitary(-d_f, t) @ psi0
            backward = su2.evolution_unitary(d_f, t)
            for p, phi in enumerate(phis):
                psi = backward @ (su2.evolution_unitary(axis, phi / 2) @ forward)
                fids[a, j, p] = abs(np.vdot(psi0, psi)) ** 2
                mags[a, j, p] = np.vdot(psi, su2.pauli_dot(axis) @ psi).real / 2
    return fids, mags


class TestClosedFormEcho:
    """The closed forms in n = 2 P_k - 1 against the lab-frame literal echo."""

    # gapless initial (g_i = -1, even-N paper grid), gapless final modes at
    # k = 0 and 2pi (g_f = 1, paper; 2pi N/N misses 2pi at N = 30) and
    # k = pi (g_f = -1, odd-N abc)
    @example(-1.0, 0.5, 8, "paper", "absolute", [1.0], 5)
    @example(0.5, 1.0, 6, "paper", "normalized", [0.3, 1.7], 4)
    @example(0.3, 1.0, 30, "paper", "normalized", [0.5, 1.0], 5)
    @example(-0.4, -1.0, 7, "abc", "absolute", [0.5, 3.0], 6)
    @example(1.1, -1.0, 8, "paper", "normalized", [0.25, 2.0], 3)
    @given(st.floats(-2.5, 2.5, allow_nan=False)
           | st.sampled_from([-1.5, -1.0, -0.4, 0.3, 0.5, 0.9, 1.1, 2.0]),
           st.floats(-2.5, 2.5, allow_nan=False) | st.sampled_from([1.0, -1.0]),
           st.integers(2, 41), st.sampled_from(["paper", "abc"]),
           st.sampled_from(["absolute", "normalized"]),
           st.lists(st.floats(0.0, 8.0, allow_nan=False), min_size=1,
                    max_size=4),
           st.integers(3, 7))
    def test_matches_literal_echo_state(self, g_i, g_f, n, grid, time_mode,
                                        times, n_phi):
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        mean = otoc.EchoConfig(spec, times, n_phi=n_phi, time_mode=time_mode)
        product = otoc.EchoConfig(spec, times, n_phi=n_phi,
                                  aggregation="product", time_mode=time_mode)
        try:
            otoc.fidelity_otoc(mean)
        except GaplessModeError:
            # g_i = -1 closes the initial gap at k = pi, held by even-N
            # paper grids and odd-N abc grids
            assert np.any(quench._gap_squared(g_i, spec.momentum_grid()) == 0.0)
            with pytest.raises(GaplessModeError):
                otoc.fidelity_otoc(product)
            with pytest.raises(GaplessModeError):
                otoc.magnetization_otoc(mean)
            return
        fids, mags = literal_echo(mean)
        for surface, literal in (
                (otoc.fidelity_otoc(mean), fids.mean(axis=0).T),
                (otoc.fidelity_otoc(product), np.prod(fids, axis=0).T),
                (otoc.magnetization_otoc(mean), mags.mean(axis=0).T)):
            assert np.max(np.abs(surface - literal)) <= 1e-12
            # rows phi_j and 2pi - phi_j are equal bit for bit
            assert np.array_equal(surface[1:], surface[:0:-1])

    @pytest.mark.parametrize("time_mode", ["absolute", "normalized"])
    def test_gapless_final_mode_on_paper_grid(self, time_mode):
        # g_f = 1 closes the final gap at k = 0, which the paper grid holds
        spec = quench.QuenchSpec(0.4, 1.0, 12, "paper")
        assert np.linalg.norm(quench.bloch_vector(1.0, 0.0)) == 0.0
        times = np.linspace(0.0, 3.0, 7)
        for aggregation in ("mean", "product"):
            cfg = otoc.EchoConfig(spec, times, n_phi=9,
                                  aggregation=aggregation, time_mode=time_mode)
            fids, _ = literal_echo(cfg)
            reduce = np.mean if aggregation == "mean" else np.prod
            assert np.max(np.abs(otoc.fidelity_otoc(cfg)
                                 - reduce(fids, axis=0).T)) <= 1e-12

    @pytest.mark.parametrize("time_mode", ["absolute", "normalized"])
    @pytest.mark.parametrize("n, grid", [(8, "paper"), (30, "paper"),
                                         (31, "abc")])
    def test_gapless_final_mode_at_zone_edge_is_idle(self, time_mode, n,
                                                     grid):
        # g_f = -1 closes the final gap at k = pi: that mode's echo is the
        # bare rotation of |x>, fidelity 1 at every time
        spec = quench.QuenchSpec(0.0, -1.0, n, grid)
        times = np.linspace(0.0, 1.9, 5)
        product = otoc.EchoConfig(spec, times, n_phi=7, aggregation="product",
                                  time_mode=time_mode)
        fids, _ = literal_echo(product)
        assert np.all(np.abs(fids[n // 2] - 1.0) <= 1e-15)
        assert np.max(np.abs(otoc.fidelity_otoc(product)
                             - np.prod(fids, axis=0).T)) <= 1e-12
        mean = otoc.EchoConfig(spec, times, n_phi=7, time_mode=time_mode)
        assert np.max(np.abs(otoc.fidelity_otoc(mean)
                             - fids.mean(axis=0).T)) <= 1e-12

    @pytest.mark.parametrize("time_mode", ["absolute", "normalized"])
    def test_gapless_initial_mode_raises(self, time_mode):
        # g_i = 1 closes the initial gap at k = 0
        cfg = otoc.EchoConfig(quench.QuenchSpec(1.0, 1.2, 30, "paper"),
                              [0.5, 1.0], time_mode=time_mode)
        with pytest.raises(GaplessModeError):
            otoc.fidelity_otoc(cfg)
        with pytest.raises(GaplessModeError):
            otoc.magnetization_otoc(cfg)

    @pytest.mark.parametrize("time_mode", ["absolute", "normalized"])
    @pytest.mark.parametrize("n, grid", [(8, "paper"), (30, "paper"),
                                         (31, "abc")])
    def test_gapless_initial_mode_at_zone_edge_raises(self, time_mode, n,
                                                      grid):
        # g_i = -1 closes the initial gap at k = pi
        spec = quench.QuenchSpec(-1.0, 1.2, n, grid)
        for aggregation in ("mean", "product"):
            cfg = otoc.EchoConfig(spec, [0.5, 1.0], aggregation=aggregation,
                                  time_mode=time_mode)
            with pytest.raises(GaplessModeError):
                otoc.fidelity_otoc(cfg)
        with pytest.raises(GaplessModeError):
            otoc.magnetization_otoc(otoc.EchoConfig(spec, [0.5, 1.0],
                                                    time_mode=time_mode))

    @pytest.mark.parametrize("aggregation", ["mean", "product"])
    def test_initial_field_next_to_minus_one_is_gapped(self, aggregation):
        spec = quench.QuenchSpec(np.nextafter(-1.0, 0.0), 1.2, 30, "paper")
        for time_mode in ("absolute", "normalized"):
            cfg = otoc.EchoConfig(spec, [0.5, 1.0], n_phi=5,
                                  aggregation=aggregation, time_mode=time_mode)
            assert np.all(np.isfinite(otoc.fidelity_otoc(cfg)))

    def test_scan_working_set_is_guarded(self, monkeypatch):
        # 8 angles fit a 500 kB budget (the scan counts 438 kB and peaks
        # near 260 kB), but 4096 angles x 500 times of (n_phi, n_t) surfaces
        # need about 47 MiB
        monkeypatch.setattr(quench, "MODE_BUDGET_BYTES", 500_000)
        spec = quench.QuenchSpec(0.0, 1.2, 30)
        ts = np.linspace(0.0, 5.0, 500)
        assert otoc.fidelity_otoc(otoc.EchoConfig(spec, ts, n_phi=8)).shape \
            == (8, 500)
        tracemalloc.start()
        try:
            for aggregation in ("mean", "product"):
                cfg = otoc.EchoConfig(spec, ts, n_phi=4096,
                                      aggregation=aggregation)
                with pytest.raises(ResourceGuardError):
                    otoc.fidelity_otoc(cfg)
            with pytest.raises(ResourceGuardError):
                otoc.magnetization_otoc(otoc.EchoConfig(spec, ts, n_phi=4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_mode_working_set_is_guarded(self):
        cfg = otoc.EchoConfig(quench.QuenchSpec(0.0, 1.2, 10 ** 8),
                              np.linspace(0.0, 1.0, 500))
        with pytest.raises(ResourceGuardError):
            otoc.fidelity_otoc(cfg)
        with pytest.raises(ResourceGuardError):
            otoc.magnetization_otoc(cfg)


class TestMeanClosedForms:
    """The closed forms in the mode moment m(t) and the product's 3-tap
    spectrum, against the DFT of the literal surfaces."""

    @example(0.0, 1.2, 30, "paper", "absolute", [0.0, 1.0], 64, 3)
    @example(0.3, 1.0, 7, "abc", "normalized", [0.5], 3, 1)
    @example(0.5, 0.5, 12, "paper", "absolute", [2.0], 9, 0)
    @given(finite_fields, finite_fields, st.integers(2, 60),
           st.sampled_from(["paper", "abc"]),
           st.sampled_from(["absolute", "normalized"]), time_lists,
           st.integers(3, 64), st.integers(0, 31))
    def test_mean_spectra_match_the_dft(self, g_i, g_f, n, grid, time_mode,
                                        times, n_phi, m_max):
        m_max = min(m_max, (n_phi - 1) // 2)
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        cfg = otoc.EchoConfig(spec, times, n_phi=n_phi, time_mode=time_mode)
        try:
            m = otoc._mode_moment(cfg)
        except GaplessModeError:
            return
        orders = np.arange(-m_max, m_max + 1)
        for observable, call in (("fidelity", otoc.fidelity_otoc),
                                 ("magnetization", otoc.magnetization_otoc)):
            closed = otoc._mean_spectra(m, m_max, observable)
            dft = otoc.mqc_components(call(cfg), m_max)
            assert np.max(np.abs(closed - dft)) <= 1e-14
            # exact +0.0 off the three orders and in every imaginary part
            off = closed[np.abs(orders) >= 2].real
            assert np.all(off == 0.0) and not np.signbit(off).any()
            assert np.all(closed.imag == 0.0) \
                and not np.signbit(closed.imag).any()

    @example(0.0, 1.2, 30, "paper", np.log10(5.0), 500, 3)
    @example(0.0, 1.0, 2, "paper", 4.0, 2, 0)
    @given(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 1e-12, -1.0 + 1e-12, 1e-300,
                            1e6, -1e6]) | st.floats(-1e6, 1e6, allow_nan=False),
           st.sampled_from([0.0, 1.0, -1.0, 1.0 - 1e-12, 1e6])
           | st.floats(-1e6, 1e6, allow_nan=False),
           st.integers(2, 400), st.sampled_from(["paper", "abc"]),
           st.floats(-9.0, 4.0), st.integers(2, 64), st.integers(0, 5))
    def test_mean_spectra_have_no_negative_cell(self, g_i, g_f, n, grid,
                                                exponent, n_t, m_max):
        # the CLI writes a mean spectrum's abs as its re, and its im as the
        # scalar +0.0: that is Python's abs() of each cell only while no re
        # is below +0.0 (m stays in [0, 1]) nor -0.0, and hypot(re, +0.0)
        # is then re bit for bit
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        cfg = otoc.EchoConfig(spec, np.linspace(0.0, 10.0 ** exponent, n_t))
        try:
            m = otoc._mode_moment(cfg)
        except GaplessModeError:
            return
        for observable in otoc.OBSERVABLES:
            re = otoc._mean_spectra(m, m_max, observable)
            assert not np.signbit(re).any()
            assert np.hypot(re, 0.0).tobytes() == re.tobytes()

    @example(0.0, 1.2, 30, "paper", "absolute", [0.0, 1.0], 1)
    @example(0.0, -1.0, 7, "abc", "normalized", [0.5, 1.5], 0)
    @given(finite_fields, finite_fields, st.integers(2, 14),
           st.sampled_from(["paper", "abc"]),
           st.sampled_from(["absolute", "normalized"]), time_lists,
           st.integers(0, 20))
    def test_product_spectrum_is_the_three_tap_convolution(
            self, g_i, g_f, n, grid, time_mode, times, extra):
        # each grid mode's fidelity is (1 + n^2)/2 + (1 - n^2)/2 cos phi, so
        # the product's spectrum is the convolution of the modes' 3-tap
        # sequences, with orders up to the grid size: more angles than grid
        # points resolve the orders |m| < N_phi - grid size
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        n_phi = spec.n_modes + 1 + extra
        m_max = min((n_phi - 1) // 2, n_phi - spec.n_modes - 1)
        cfg = otoc.EchoConfig(spec, times, n_phi=n_phi, aggregation="product",
                              time_mode=time_mode)
        try:
            dft = otoc.mqc_components(otoc.fidelity_otoc(cfg), m_max)
        except GaplessModeError:
            return
        probs = quench._probabilities(spec, cfg.time_grid,
                                      time_mode == "normalized")
        n2 = (2.0 * probs[spec._distinct_index()] - 1.0) ** 2
        for j in range(cfg.time_grid.size):
            taps = np.ones(1)
            for x in n2[:, j]:
                taps = np.convolve(taps, [(1.0 - x) / 4, (1.0 + x) / 2,
                                          (1.0 - x) / 4])
            taps = np.pad(taps, m_max)          # orders past the grid size
            centre = spec.n_modes + m_max
            assert np.max(np.abs(dft[:, j] - taps[centre - m_max:
                                                  centre + m_max + 1])) <= 1e-14

    @example(0.0, 1.2, 30, "paper")
    @example(0.0, 0.8, 30, "paper")
    @example(0.5, 0.5, 8, "abc")
    @example(0.0, -1.0, 7, "abc")
    @given(finite_fields, finite_fields, st.integers(2, 40),
           st.sampled_from(["paper", "abc"]))
    def test_depth_is_the_densely_sampled_well(self, g_i, g_f, n, grid):
        # A_1 from the literal DFT path at 2001 normalized times: its
        # maximum over its value at tau = 1/2, the well's bottom, and the
        # detector's verdict on it against the closed one, depth >= eps_dw
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        taus = np.linspace(0.0, 1.0, 2001)
        cfg = otoc.EchoConfig(spec, taus, n_phi=5, time_mode="normalized")
        try:
            a1 = np.real(otoc.coherence_series(
                otoc.spectrum_dynamics(cfg, "magnetization", 1), 1))
        except GaplessModeError:
            with pytest.raises(GaplessModeError):
                otoc.double_well_depth(g_i, g_f, n, grid)
            return
        depth = otoc.double_well_depth(g_i, g_f, n, grid)
        sampled = a1.max() - a1[1000]
        assert depth >= 0.0 and sampled - 1e-14 <= depth <= sampled + 1e-6
        alpha, beta, gamma = otoc._well_moments(spec)
        c = np.cos(2.0 * np.pi * taus)
        quadratic = (1.0 - alpha - 2.0 * beta * c - gamma * c * c) / 4.0
        assert np.max(np.abs(quadratic - a1)) <= 1e-14
        closed = depth >= otoc.DW_THRESHOLD
        literal = otoc.double_well_detector(taus, a1, 0.5, 0.4) == "double_well"
        if abs(depth - otoc.DW_THRESHOLD) > 1e-6:
            assert literal == closed
        else:   # the samples may miss the top by up to 1e-6, never overshoot
            assert closed or not literal

    def test_well_opens_near_the_root_of_gamma_minus_beta(self):
        # at g_i = 0 gamma - beta changes sign at g_f* = 0.8165 (N = 2000)
        # and 0.8149 (N = 30); criterion 07's field 0.8 sits below it
        for n, below, above in ((30, 0.814, 0.816), (2000, 0.8164, 0.8166)):
            assert otoc.double_well_depth(0.0, below, n) == 0.0
            assert otoc.double_well_depth(0.0, above, n) > 0.0
        assert otoc.double_well_depth(0.0, 0.8, 30) == 0.0


def log_uniform(low: int, high: int):
    return st.floats(np.log(low), np.log(high + 1)).map(
        lambda x: min(high, int(np.exp(x))))


@st.composite
def guarded_calls(draw):
    """(call, N, n_t, n_phi, grid, aggregation, time mode, uniform grid),
    at most 2e6 mode cells and 1e6 surface cells."""
    call = draw(st.sampled_from(GUARDED))
    n = draw(log_uniform(2, 20000))
    n_t = min(draw(log_uniform(2, 200_000)), max(2, 2_000_000 // n))
    n_phi = min(draw(log_uniform(3, 1000)), max(3, 1_000_000 // n_t))
    aggregation = "mean" if call == "magnetization" else \
        draw(st.sampled_from(["mean", "product"]))
    return (call, n, n_t, n_phi, draw(st.sampled_from(["paper", "abc"])),
            aggregation, draw(st.sampled_from(["absolute", "normalized"])),
            draw(st.booleans()))


GUARDED = ("rate_function", "mode_probabilities", "return_probability_map",
           "pulse_schedule", "fidelity", "magnetization")


class TestWorkingSet:
    """Every guarded call makes one budget check, and holds no more."""

    @given(guarded_calls())
    # where the counts before quench._working_set fell short: the echo with
    # 64 times (1.8-1.9x), the heatmap and the rate with 2e5 times (1.2x)
    @example(("fidelity", 2000, 64, 64, "paper", "mean", "absolute", True))
    @example(("fidelity", 20000, 64, 64, "paper", "product", "absolute", True))
    @example(("magnetization", 20000, 64, 64, "abc", "mean", "normalized",
              True))
    @example(("return_probability_map", 2, 200_000, 3, "paper", "mean",
              "absolute", True))
    @example(("rate_function", 2, 200_000, 3, "abc", "mean", "absolute", True))
    def test_peak_is_at_most_the_one_count(self, case):
        # no allowance past the count itself, whose numpy-buffer term
        # (3 x 8 x np.getbufsize() bytes) also covers small Python objects
        call, n, n_t, n_phi, grid, aggregation, time_mode, uniform = case
        spec = quench.QuenchSpec(0.3, 1.2, n, grid)
        ts = np.linspace(0.0, 5.0, n_t)
        if not uniform:
            ts = ts * ts / 5.0
        config = otoc.EchoConfig(spec, ts, n_phi=n_phi,
                                 aggregation=aggregation, time_mode=time_mode)
        run = {"rate_function": lambda: quench.rate_function(spec, ts),
               "mode_probabilities": lambda: quench.mode_probabilities(spec, ts),
               "return_probability_map":
                   lambda: quench.return_probability_map(spec, n_t),
               "pulse_schedule": lambda: quench.pulse_schedule(spec, n_t=n_t),
               "fidelity": lambda: otoc.fidelity_otoc(config),
               "magnetization": lambda: otoc.magnetization_otoc(config)}[call]
        counted, guard = [], quench._require_budget

        def recording(need, what):
            counted.append(need)
            guard(need, what)

        with mock.patch.object(quench, "_require_budget", recording):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(counted) == 1 and peak <= counted[0]


class TestMqcComponents:
    def test_columns_match_mqc_spectrum(self):
        rng = np.random.default_rng(3)
        scan = rng.normal(size=(16, 5))
        comps = otoc.mqc_components(scan, 3)
        assert comps.shape == (7, 5)
        for j in range(5):
            assert np.max(np.abs(comps[:, j]
                                 - otoc.mqc_spectrum(scan[:, j], 3).components)) \
                < 1e-15

    def test_non_integer_or_negative_orders_are_refused(self):
        with pytest.raises(InvalidArgumentError):
            otoc.mqc_components(np.ones(7), -1)
        with pytest.raises(InvalidArgumentError):
            otoc.mqc_spectrum(np.ones(9), 3.5)

    @pytest.mark.parametrize("call", [
        lambda: otoc.mqc_components(np.ones((10001, 50)), 5000),
        lambda: otoc.spectrum_dynamics(echo_config(1.2, np.ones(50), n_phi=10001),
                                       "fidelity", 5000)],
        ids=["mqc_components", "spectrum_dynamics"])
    def test_dft_over_the_budget_is_refused_before_its_kernel(self, call):
        # 10001 angles to m_max = 5000 over 50 times: the complex kernel
        # alone would take 1.6 GB; neither it, its exponent nor (from a
        # config) the scan is formed
        formed = AssertionError("formed")
        with mock.patch.object(np, "exp", side_effect=formed), \
                mock.patch.object(np, "outer", side_effect=formed), \
                mock.patch.object(otoc, "fidelity_otoc", side_effect=formed), \
                pytest.raises(ResourceGuardError, match="mode budget"):
            call()

    @pytest.mark.parametrize("n_phi, m_max, n_t", [
        (3, 0, 1), (64, 3, 500), (601, 300, 50), (101, 50, 2000)])
    def test_peak_is_at_most_its_count(self, n_phi, m_max, n_t):
        # the kernel and its temporary, the scan's complex copy and the
        # product, with the scan itself held by the caller
        scan = np.ones((n_phi, n_t))
        counted, guard = [], quench._require_budget

        def recording(need, what):
            counted.append(need)
            guard(need, what)

        with mock.patch.object(quench, "_require_budget", recording):
            tracemalloc.start()
            try:
                otoc.mqc_components(scan, m_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(counted) == 1 and peak <= counted[0]

    def test_spectrum_dynamics_refuses_aliasing_before_the_scan(self):
        cfg = otoc.EchoConfig(quench.QuenchSpec(0.0, 1.2, 10 ** 8), [1.0],
                              n_phi=5)
        # the scan itself would be refused by the memory guard
        with pytest.raises(AliasingError):
            otoc.spectrum_dynamics(cfg, "fidelity", 3)
