"""Momentum-space quench model: analytics, grids, schedules, properties."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from tfim_dqpt import quench, su2
from tfim_dqpt.errors import (
    ConfigurationError,
    GaplessModeError,
    InvalidArgumentError,
    NoDqptError,
    ResourceGuardError,
    UndefinedExpressionError,
)

from conftest import mode_momenta, phase_distance

K_STAR_12 = float(np.arccos(5.0 / 6.0))      # 0.58569...
T_C_12 = np.pi / (2.0 * np.sqrt(0.44))       # 2.36806...

fields = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.0, 2.0 * np.pi, allow_nan=False, allow_infinity=False)
times = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
# the critical fields close a gap on the grid: g = 1 at k = 0 and 2pi,
# g = -1 at k = pi
critical_fields = fields | st.sampled_from([1.0, -1.0])
grid_sizes = st.integers(2, 41)
grid_modes = st.sampled_from(["paper", "abc"])


def literal_rate(spec, ts):
    """-(1/N) sum of log |G_k|^2 over every grid point, from loschmidt_mode."""
    logs = [np.log(np.maximum(np.abs(quench.loschmidt_mode(spec, k, ts)) ** 2,
                              quench.AMPLITUDE_FLOOR))
            for k in spec.momentum_grid()]
    return -np.sum(logs, axis=0) / spec.n


def literal_heatmap(spec, taus):
    """|G_k(tau pi/|d_f(k)|)|^2 row by row; gapless final modes stay at 1."""
    rows = []
    for k in mode_momenta(spec):
        if quench._gap_squared(spec.g_f, k) == 0.0:
            rows.append(np.ones_like(taus))
            continue
        t0 = np.pi / np.linalg.norm(quench.bloch_vector(spec.g_f, k))
        rows.append(np.abs(quench.loschmidt_mode(spec, k, taus * t0)) ** 2)
    return np.array(rows)


class TestQuenchSpec:
    def test_paper_grid_has_both_endpoints(self):
        spec = quench.QuenchSpec(0.0, 1.2, 4, "paper")
        assert np.allclose(spec.momentum_grid(),
                           [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi])

    def test_abc_grid(self):
        spec = quench.QuenchSpec(0.0, 1.2, 8, "abc")
        expected = np.array([1, 3, 5, 7, 9, 11, 13, 15]) * np.pi / 8
        assert np.allclose(spec.momentum_grid(), expected)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            quench.QuenchSpec(0.0, 1.2, 1)
        with pytest.raises(ConfigurationError):
            quench.QuenchSpec(0.0, np.nan, 8)
        with pytest.raises(ConfigurationError):
            quench.QuenchSpec(0.0, 1.2, 8, grid_mode="bogus")

    @pytest.mark.parametrize("n", [np.nan, np.inf, -np.inf, 8.5])
    def test_non_integer_size_is_refused(self, n):
        with pytest.raises(ConfigurationError):
            quench.QuenchSpec(0.0, 1.2, n)


class TestBlochVector:
    def test_gap_closes_at_critical_field(self):
        assert np.allclose(quench.bloch_vector(1.0, 0.0), 0.0, atol=1e-15)

    def test_zone_edge(self):
        for g in (-0.7, 0.3, 2.1):
            assert np.allclose(quench.bloch_vector(g, np.pi), [1 + g, 0, 0],
                               atol=1e-12)

    def test_critical_mode_value(self):
        d = quench.bloch_vector(1.2, K_STAR_12)
        assert abs(d[0]) < 1e-12
        assert d[1] == pytest.approx(0.66332, abs=5e-6)
        assert d @ d == pytest.approx(0.44, abs=1e-12)

    @given(fields, angles)
    def test_magnitude_identity(self, g, k):
        d = quench.bloch_vector(g, k)
        assert d @ d == pytest.approx(1 + g * g - 2 * g * np.cos(k), abs=1e-12)


class TestLoschmidtMode:
    def test_no_quench_is_unimodular(self):
        spec = quench.QuenchSpec(0.0, 0.0, 8)
        for k in spec.momentum_grid():
            for t in (0.0, 1.7, 4.2):
                assert abs(quench.loschmidt_mode(spec, k, t)) == pytest.approx(1.0)

    def test_fisher_zero_at_critical_point(self):
        spec = quench.QuenchSpec(0.0, 1.2, 30)
        g = quench.loschmidt_mode(spec, K_STAR_12, T_C_12)
        assert abs(g) < 1e-10

    def test_no_zero_below_critical_field(self):
        spec = quench.QuenchSpec(0.0, 0.8, 200)
        ks = np.linspace(0, 2 * np.pi, 200)
        ts = np.linspace(0, 10, 200)
        lows = [np.min(np.abs(quench.loschmidt_mode(spec, k, ts))) for k in ks]
        assert min(lows) > 0.05

    def test_gapless_final_mode_is_constant_one(self):
        spec = quench.QuenchSpec(0.0, 1.0, 8)
        assert quench.loschmidt_mode(spec, 0.0, 3.3) == 1.0 + 0.0j

    def test_gapless_initial_mode_raises(self):
        spec = quench.QuenchSpec(1.0, 0.5, 8)
        with pytest.raises(GaplessModeError):
            quench.loschmidt_mode(spec, 0.0, 1.0)

    @given(fields, fields, angles, times)
    def test_amplitude_bounded(self, g_i, g_f, k, t):
        spec = quench.QuenchSpec(g_i, g_f, 8)
        d_i = quench.bloch_vector(g_i, k)
        assume(d_i @ d_i > 1e-8)
        assert abs(quench.loschmidt_mode(spec, k, t)) <= 1.0 + 1e-12

    @given(fields, fields, angles, times)
    def test_closed_form_equals_state_evolution(self, g_i, g_f, k, t):
        """G_k is the return amplitude of the lab-frame mode state.

        The mode starts in the ground state of -d_i.sigma and evolves
        under -d_f.sigma, whose propagator is evolution_unitary(-d_f, t).
        """
        spec = quench.QuenchSpec(g_i, g_f, 8)
        d_i = quench.bloch_vector(g_i, k)
        assume(d_i @ d_i > 1e-6)
        psi0 = su2.ground_state(-d_i)
        u = su2.evolution_unitary(-quench.bloch_vector(g_f, k), t)
        amp = np.vdot(psi0, u @ psi0)
        assert abs(amp - quench.loschmidt_mode(spec, k, t)) < 1e-12

    @given(fields, fields, angles, times)
    def test_parameterization_equivalence(self, g_i, g_f, k, t):
        """Placing d in the (y,z) plane instead of (x,y) leaves |G_k| alone."""
        spec = quench.QuenchSpec(g_i, g_f, 8)
        d_i = quench.bloch_vector(g_i, k)
        d_f = quench.bloch_vector(g_f, k)
        assume(d_i @ d_i > 1e-8)
        alt_i = np.array([0.0, d_i[0], d_i[1]])
        alt_f = np.array([0.0, d_f[0], d_f[1]])
        n_f = np.linalg.norm(alt_f)
        if n_f == 0.0:
            alt = 1.0 + 0.0j
        else:
            cosine = float(alt_i @ alt_f) / (np.linalg.norm(alt_i) * n_f)
            alt = np.cos(n_f * t) + 1j * cosine * np.sin(n_f * t)
        assert abs(abs(alt) - abs(quench.loschmidt_mode(spec, k, t))) < 1e-12


class TestRateFunction:
    def test_zero_without_quench(self):
        spec = quench.QuenchSpec(0.7, 0.7, 12)
        ts = np.linspace(0, 8, 50)
        assert np.allclose(quench.rate_function(spec, ts), 0.0, atol=1e-12)

    def test_zero_at_time_zero(self):
        spec = quench.QuenchSpec(0.0, 1.2, 30)
        assert quench.rate_function(spec, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        spec = quench.QuenchSpec(0.0, 1.5, 16)
        assert np.all(quench.rate_function(spec, np.linspace(0, 10, 200)) >= 0)

    def test_peak_near_critical_time_at_figure_size(self):
        """At N=30 mode discreteness shifts the dominant peak by O(1/N).

        The sharp-peak location statement is exact only on a converged
        momentum grid (covered by the acceptance suite); here the N=30
        global maximum must sit within 0.2 of t_c.
        """
        spec = quench.QuenchSpec(0.0, 1.2, 30)
        ts = np.linspace(0.0, 5.0, 2000)
        f = quench.rate_function(spec, ts)
        assert abs(ts[np.argmax(f)] - T_C_12) < 0.2

    def test_first_peak_at_critical_time_converged_grid(self):
        spec = quench.QuenchSpec(0.0, 1.2, 3000)
        ts = np.linspace(0.0, 5.0, 2000)
        f = quench.rate_function(spec, ts)
        interior = np.arange(1, ts.size - 1)
        is_max = (f[interior] > f[interior - 1]) & (f[interior] > f[interior + 1])
        first_peak = ts[interior[is_max][0]]
        assert abs(first_peak - T_C_12) <= ts[1] - ts[0]

    def test_hamiltonian_sign_invariance(self):
        """H -> -H leaves every |G_k| unchanged."""
        spec = quench.QuenchSpec(0.3, 1.4, 10)
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = rng.uniform(0, 2 * np.pi)
            t = rng.uniform(0, 6)
            psi0 = su2.ground_state(-quench.bloch_vector(spec.g_i, k))
            d_f = quench.bloch_vector(spec.g_f, k)
            amp_minus = np.vdot(psi0, su2.evolution_unitary(-d_f, t) @ psi0)
            amp_plus = np.vdot(psi0, su2.evolution_unitary(d_f, t) @ psi0)
            assert abs(abs(amp_minus) - abs(amp_plus)) < 1e-12
            assert abs(abs(amp_plus)
                       - abs(quench.loschmidt_mode(spec, k, t))) < 1e-12


class TestCriticalAnalytics:
    def test_critical_momentum_values(self):
        assert quench.critical_momentum(0.0, 1.2) == pytest.approx(0.58569, abs=5e-6)
        assert quench.critical_momentum(0.0, 0.8) is None
        assert quench.critical_momentum(0.0, 1.5) == pytest.approx(0.84107, abs=5e-6)

    def test_orthogonality_at_critical_momentum(self):
        for g_i, g_f in [(0.0, 1.2), (0.0, 1.5), (0.4, 1.8), (-0.2, 1.1)]:
            k_star = quench.critical_momentum(g_i, g_f)
            dot = quench.bloch_vector(g_i, k_star) @ quench.bloch_vector(g_f, k_star)
            assert abs(dot) < 1e-12

    def test_undefined_expression(self):
        with pytest.raises(UndefinedExpressionError):
            quench.critical_momentum(0.5, -0.5)

    def test_critical_times_values(self):
        t12 = quench.critical_times(0.0, 1.2, n_max=1)
        assert np.allclose(t12, [2.36806456, 7.10419369], atol=1e-6)
        t15 = quench.critical_times(0.0, 1.5, n_max=0)
        assert t15[0] == pytest.approx(np.pi / (2 * np.sqrt(1.25)), abs=1e-12)
        assert t15[0] == pytest.approx(1.4050, abs=1e-4)

    def test_critical_time_is_amplitude_minimum(self):
        spec = quench.QuenchSpec(0.0, 1.2, 30)
        ts = np.linspace(2.0, 2.8, 4001)
        mags = np.abs(quench.loschmidt_mode(spec, K_STAR_12, ts))
        assert ts[np.argmin(mags)] == pytest.approx(T_C_12, abs=1e-3)

    def test_no_dqpt_error(self):
        with pytest.raises(NoDqptError):
            quench.critical_times(0.0, 0.8)

    def test_predicate_examples(self):
        assert quench.dqpt_predicate(0.0, 1.2) is True
        assert quench.dqpt_predicate(0.0, 0.8) is False
        assert quench.dqpt_predicate(0.0, 1.0) is False

    @given(fields, fields)
    def test_predicate_iff_critical_momentum(self, g_i, g_f):
        assume(abs(g_i + g_f) > 1e-6)
        assume(abs(abs(g_i) - 1.0) > 1e-3 and abs(abs(g_f) - 1.0) > 1e-3)
        exists = quench.critical_momentum(g_i, g_f) is not None
        assert exists == quench.dqpt_predicate(g_i, g_f)


class TestReturnProbabilityMap:
    def test_initial_column_is_one(self):
        spec = quench.QuenchSpec(0.0, 1.2, 30)
        _, taus, probs = quench.return_probability_map(spec, 101)
        assert taus[0] == 0.0 and taus[-1] == 2.0
        assert np.allclose(probs[:, 0], 1.0, atol=1e-12)
        assert np.all((probs >= 0) & (probs <= 1 + 1e-12))

    def test_dark_node_structure_above_critical_field(self):
        # the exact zero sits at (k*, tau=0.5); grid rows bracket it
        spec = quench.QuenchSpec(0.0, 1.2, 30)
        _, taus, probs = quench.return_probability_map(spec, 201)
        col = np.argmin(np.abs(taus - 0.5))
        assert probs[:, col].min() < 0.01
        t_star = 0.5 * np.pi / np.linalg.norm(quench.bloch_vector(1.2, K_STAR_12))
        assert abs(quench.loschmidt_mode(spec, K_STAR_12, t_star)) ** 2 < 1e-12

    def test_no_zero_below_critical_field(self):
        spec = quench.QuenchSpec(0.0, 0.8, 30)
        _, _, probs = quench.return_probability_map(spec, 201)
        assert probs.min() > 0.0

    def test_gapless_final_row_of_ones(self):
        spec = quench.QuenchSpec(0.0, 1.0, 8)
        ks, _, probs = quench.return_probability_map(spec, 51)
        assert np.allclose(probs[ks == 0.0], 1.0)

    def test_n_t_validation(self):
        with pytest.raises(ConfigurationError):
            quench.return_probability_map(quench.QuenchSpec(0.0, 1.2, 8), 1)


class TestPulseSchedule:
    def test_zone_edge_entry(self):
        spec = quench.QuenchSpec(0.0, 1.2, 30)
        entries = quench.pulse_schedule(spec, c=1.0)
        edge = min(entries, key=lambda e: abs(e.k - np.pi))
        assert edge.k == pytest.approx(np.pi, abs=1e-12)
        assert abs(edge.axis_angle) < 1e-12
        assert edge.rabi_rate == pytest.approx(2.2, abs=1e-12)
        assert edge.durations.size == 100
        assert edge.durations[0] == 0.0
        assert edge.durations[-1] == pytest.approx(2 * np.pi / 2.2, abs=1e-12)

    def test_critical_momentum_axis_is_y(self):
        spec = quench.QuenchSpec(0.0, 1.2, 8)
        d_f = quench.bloch_vector(1.2, K_STAR_12)
        # schedule grids never contain k* exactly; check the axis formula there
        angle = np.arctan2(d_f[1], d_f[0])
        assert angle == pytest.approx(np.pi / 2, abs=1e-12)
        entry = quench.PulseScheduleEntry(
            k=K_STAR_12, axis_angle=angle, rabi_rate=np.linalg.norm(d_f),
            durations=np.linspace(0, 2 * np.pi / np.linalg.norm(d_f), 100))
        u = quench.replay_unitary(entry, 1.3)
        target = su2.evolution_unitary(d_f, entry.rabi_rate * 1.3 /
                                       (2 * np.linalg.norm(d_f)))
        assert phase_distance(u, target) < 1e-12

    def test_replay_random_durations(self):
        spec = quench.QuenchSpec(0.0, 1.2, 30)
        entries = quench.pulse_schedule(spec, c=1.0, n_t=100)
        rng = np.random.default_rng(3)
        for _ in range(50):
            entry = entries[rng.integers(len(entries))]
            duration = rng.uniform(0.0, entry.durations[-1])
            d_f = quench.bloch_vector(1.2, entry.k)
            mag = np.linalg.norm(d_f)
            t_sim = entry.rabi_rate * duration / (2.0 * mag)
            u = quench.replay_unitary(entry, duration)
            assert phase_distance(u, su2.evolution_unitary(d_f, t_sim)) < 1e-12

    def test_negative_axis_component_replayed_correctly(self):
        # 1 - g cos k < 0 near k = 0 for g > 1; the axis must follow the sign
        spec = quench.QuenchSpec(0.0, 1.2, 30)
        entry = quench.pulse_schedule(spec, c=1.0)[0]      # k = 0, d_f = (-0.2, 0, 0)
        assert abs(abs(entry.axis_angle) - np.pi) < 1e-12
        d_f = quench.bloch_vector(1.2, 0.0)
        duration = entry.durations[37]
        t_sim = entry.rabi_rate * duration / (2.0 * np.linalg.norm(d_f))
        u = quench.replay_unitary(entry, duration)
        assert phase_distance(u, su2.evolution_unitary(d_f, t_sim)) < 1e-12

    def test_idle_entry_for_gapless_mode(self):
        spec = quench.QuenchSpec(0.0, 1.0, 8)
        entry = quench.pulse_schedule(spec)[0]             # k = 0, |d_f| = 0
        assert entry.idle
        assert np.array_equal(quench.replay_unitary(entry, 0.7), np.eye(2))

    def test_validation(self):
        spec = quench.QuenchSpec(0.0, 1.2, 8)
        with pytest.raises(ConfigurationError):
            quench.pulse_schedule(spec, c=0.0)
        with pytest.raises(ConfigurationError):
            quench.pulse_schedule(spec, n_t=1)


class TestDefaultTimeGrid:
    def test_dqpt_grid_covers_three_critical_times(self):
        grid = quench.default_time_grid(0.0, 1.2)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(3 * T_C_12, abs=1e-9)
        assert grid.size == 300

    def test_smooth_quench_grid(self):
        grid = quench.default_time_grid(0.0, 0.8)
        assert grid[-1] == 10.0 and grid.size == 300


class TestVectorizedModes:
    # the paper grid's k = 2pi end misses 2pi at N = 30 and idles at g_f = 1
    @example(0.3, 1.0, 30, "paper", [1.0, 4.0])
    @given(critical_fields, critical_fields, grid_sizes, grid_modes,
           st.lists(times, min_size=1, max_size=6))
    def test_mode_probabilities_match_loschmidt_mode(self, g_i, g_f, n, grid, ts):
        # the rows come from the distinct modes; compare every grid point,
        # and the heatmap's normalized rows too
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        try:
            ks, probs = quench.mode_probabilities(spec, ts)
        except GaplessModeError:
            with pytest.raises(GaplessModeError):
                for k in spec.momentum_grid():
                    quench.loschmidt_mode(spec, k, ts)
            return
        assert np.array_equal(ks, spec.momentum_grid())
        assert probs.shape == (ks.size, len(ts))
        for k, row in zip(ks, probs):
            expected = np.abs(quench.loschmidt_mode(spec, k, ts)) ** 2
            assert np.max(np.abs(row - expected)) <= 1e-12
        ks, taus, heat = quench.return_probability_map(spec, 41)
        assert np.array_equal(ks, spec.momentum_grid())
        assert np.max(np.abs(heat - literal_heatmap(spec, taus))) <= 1e-12

    def test_gapless_final_rows_are_exactly_one(self):
        spec = quench.QuenchSpec(0.3, 1.0, 8)
        ks, _, heat = quench.return_probability_map(spec, 51)
        _, probs = quench.mode_probabilities(spec, np.linspace(0.0, 9.0, 40))
        assert np.all(heat[ks == 0.0] == 1.0)
        assert np.all(probs[ks == 0.0] == 1.0)

    def test_gapless_initial_mode_raises(self):
        spec = quench.QuenchSpec(1.0, 0.5, 8)
        for call in (lambda: quench.mode_probabilities(spec, [1.0]),
                     lambda: quench.rate_function(spec, [1.0]),
                     lambda: quench.return_probability_map(spec, 5)):
            with pytest.raises(GaplessModeError):
                call()

    @pytest.mark.parametrize("n, grid", [(8, "paper"), (30, "paper"),
                                         (31, "abc")])
    def test_gapless_initial_mode_at_zone_edge_raises(self, n, grid):
        # g_i = -1 closes the initial gap at k = pi, which the paper grid
        # holds for even N and the abc grid for odd N (up to rounding of k)
        spec = quench.QuenchSpec(-1.0, 0.5, n, grid)
        edge = spec.momentum_grid()[n // 2]
        assert quench._gap_squared(-1.0, edge) == 0.0
        for call in (lambda: quench.mode_probabilities(spec, [1.0]),
                     lambda: quench.rate_function(spec, [0.0, 1.0]),
                     lambda: quench.return_probability_map(spec, 5),
                     lambda: quench.loschmidt_mode(spec, edge, 1.0)):
            with pytest.raises(GaplessModeError):
                call()

    @pytest.mark.parametrize("n, grid", [(8, "paper"), (30, "paper"),
                                         (31, "abc")])
    def test_initial_field_next_to_minus_one_is_gapped(self, n, grid):
        spec = quench.QuenchSpec(np.nextafter(-1.0, 0.0), 0.5, n, grid)
        assert np.all(np.isfinite(quench.rate_function(spec, [0.0, 1.0])))
        assert np.all(np.isfinite(quench.return_probability_map(spec, 5)[2]))
        edge = spec.momentum_grid()[n // 2]
        assert np.isfinite(quench.loschmidt_mode(spec, edge, 1.0))

    @pytest.mark.parametrize("n, grid", [(8, "paper"), (30, "paper"),
                                         (31, "abc")])
    def test_gapless_final_mode_at_zone_edge_is_idle(self, n, grid):
        # g_f = -1 closes the final gap at k = pi, the grid point n // 2
        # (up to rounding of k); that mode must not evolve anywhere
        spec = quench.QuenchSpec(0.0, -1.0, n, grid)
        edge = n // 2
        ks = spec.momentum_grid()
        n_f, overlap = quench._mode_geometry(0.0, -1.0, ks)
        assert n_f[edge] == 0.0 and overlap[edge] == 1.0
        assert np.all(np.delete(n_f, edge) > 0.0)
        _, probs = quench.mode_probabilities(spec, np.linspace(0.0, 9.0, 40))
        _, _, heat = quench.return_probability_map(spec, 51)
        assert np.all(probs[edge] == 1.0) and np.all(heat[edge] == 1.0)
        assert quench.loschmidt_mode(spec, ks[edge], 3.3) == 1.0 + 0.0j
        entries = quench.pulse_schedule(spec)
        assert [entry.idle for entry in entries] == list(ks == ks[edge])
        assert entries[edge].rabi_rate == 0.0
        assert np.array_equal(quench.replay_unitary(entries[edge], 0.7),
                              np.eye(2))

    @pytest.mark.parametrize("n, grid", [(8, "paper"), (30, "paper"),
                                         (31, "abc")])
    def test_final_field_next_to_minus_one_is_gapped(self, n, grid):
        spec = quench.QuenchSpec(0.0, np.nextafter(-1.0, 0.0), n, grid)
        n_f, _ = quench._mode_geometry(spec.g_i, spec.g_f, spec.momentum_grid())
        assert np.all(n_f > 0.0)
        assert not any(entry.idle for entry in quench.pulse_schedule(spec))

    @pytest.mark.parametrize("n", [8, 11])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_times_are_refused(self, n, bad):
        spec = quench.QuenchSpec(0.0, 1.2, n)
        for call in (lambda t: quench.rate_function(spec, t),
                     lambda t: quench.mode_probabilities(spec, t),
                     lambda t: quench.loschmidt_mode(spec, 0.3, t)):
            for t in (bad, [0.0, bad]):
                with pytest.raises(InvalidArgumentError):
                    call(t)

    def test_oversized_request_is_refused_before_allocating(self):
        # 10^8 modes x 500 times would need about 800 GB of float64 arrays
        spec = quench.QuenchSpec(0.0, 1.2, 10 ** 8)
        ts = np.linspace(0.0, 5.0, 500)
        tracemalloc.start()
        try:
            for call in (lambda: quench.rate_function(spec, ts),
                         lambda: quench.mode_probabilities(spec, ts),
                         lambda: quench.return_probability_map(spec, 500)):
                with pytest.raises(ResourceGuardError):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_budget_admits_large_figure_grids(self):
        # 20001 modes x 500 times: the continuum-limit rate function
        spec = quench.QuenchSpec(0.0, 1.5, 20000)
        assert quench.rate_function(spec, np.linspace(0.0, 5.0, 500)).shape \
            == (500,)


class TestModePairing:
    """The distinct-mode paths against literal whole-grid evaluations."""

    @pytest.mark.parametrize("grid", ["paper", "abc"])
    def test_multiplicities_cover_the_grid(self, grid):
        for n in range(2, 42):
            spec = quench.QuenchSpec(0.3, 1.2, n, grid)
            probs, weights = quench._probabilities(spec, np.array([0.0, 1.0]))
            assert weights.sum() == spec.n_modes
            assert probs.shape == (weights.size, 2)
            assert weights.size == (n // 2 + 1 if grid == "paper"
                                    else (n + 1) // 2)
            # one unpaired mode, k = pi, exactly when the grid size is odd
            assert np.count_nonzero(weights == 1.0) == spec.n_modes % 2
            assert np.all((weights == 1.0) | (weights == 2.0))
            ks = spec.momentum_grid()
            index = spec._distinct_index()
            assert np.bincount(index).tolist() == weights.tolist()
            assert np.max(np.abs(np.minimum(ks, 2.0 * np.pi - ks)
                                 - ks[index])) <= 1e-14

    @given(critical_fields, critical_fields, grid_sizes, grid_modes,
           st.lists(times, min_size=1, max_size=5))
    def test_rate_function_matches_literal_mode_sum(self, g_i, g_f, n, grid,
                                                    ts):
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        try:
            rate = quench.rate_function(spec, ts)
        except GaplessModeError:
            with pytest.raises(GaplessModeError):
                literal_rate(spec, ts)
            return
        assert np.max(np.abs(rate - literal_rate(spec, ts))) <= 1e-12

    @given(critical_fields, critical_fields, grid_sizes, grid_modes)
    def test_rate_function_is_exactly_zero_at_time_zero(self, g_i, g_f, n,
                                                        grid):
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        assume(not np.any(quench._gap_squared(g_i, spec.momentum_grid())
                          == 0.0))
        assert quench.rate_function(spec, 0.0) == 0.0
        assert quench.rate_function(spec, [0.0, 1.0])[0] == 0.0

    @pytest.mark.parametrize("n", [8, 30, 31])
    def test_gapless_final_mode_at_both_ends_is_idle(self, n):
        # g_f = 1 closes the final gap at k = 0; the paper grid's k = 2pi
        # end is the same mode, even where 2pi N/N misses 2pi (N = 30)
        spec = quench.QuenchSpec(0.3, 1.0, n, "paper")
        assert quench._gap_squared(1.0, 2.0 * np.pi) == 0.0
        assert quench.loschmidt_mode(spec, 2.0 * np.pi, 3.3) == 1.0 + 0.0j
        ends = [0, n]
        _, probs = quench.mode_probabilities(spec, np.linspace(0.0, 9.0, 40))
        _, _, heat = quench.return_probability_map(spec, 51)
        assert np.all(probs[ends] == 1.0) and np.all(heat[ends] == 1.0)
        assert np.all(np.delete(heat, ends, axis=0).min(axis=1) < 1.0)
        entries = quench.pulse_schedule(spec)
        assert [i for i, entry in enumerate(entries) if entry.idle] == ends
        for entry in (entries[0], entries[-1]):
            assert entry.rabi_rate == 0.0 and entry.axis_angle == 0.0
            assert np.all(entry.durations == 0.0)
        assert entries[-1].k == spec.momentum_grid()[-1]
        assert np.all(np.isfinite(quench.rate_function(spec, [0.0, 2.0])))

    def test_oversized_schedule_is_refused_before_allocating(self):
        # 10^8 entries of 100 durations would need about 80 GB
        spec = quench.QuenchSpec(0.0, 1.2, 10 ** 8)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match="mode budget"):
                quench.pulse_schedule(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_huge_integer_size_reaches_the_guard(self):
        # 10**400 is an integer no float holds; it must not be converted
        spec = quench.QuenchSpec(0.0, 1.2, 10 ** 400)
        assert spec.n == 10 ** 400
        for call in (lambda: quench.rate_function(spec, [1.0]),
                     lambda: quench.mode_probabilities(spec, [1.0]),
                     lambda: quench.return_probability_map(spec, 5),
                     lambda: quench.pulse_schedule(spec)):
            with pytest.raises(ResourceGuardError):
                call()
        assert quench.QuenchSpec(0.0, 1.2, np.int64(8)).n == 8
