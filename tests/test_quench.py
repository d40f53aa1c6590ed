"""Momentum-space quench model: analytics, grids, schedules, properties."""

from __future__ import annotations

import math
import re
import time
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tfim_dqpt import otoc, quench, su2
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

    @pytest.mark.parametrize("call, args", [
        (quench.dqpt_predicate, (np.nan, 1.2)),
        (quench.dqpt_predicate, (0.0, np.inf)),
        (quench.critical_momentum, (np.nan, 1.2)),
        (quench.critical_times, (0.0, np.nan)),
        (quench.default_time_grid, (0.0, np.nan)),
        (quench.critical_times, (0.0, 1.2, 1.5)),
        (quench.critical_times, (0.0, 1.2, -3)),
        (quench.default_time_grid, (0.0, 1.2, 2.5)),
    ])
    def test_invalid_argument_is_refused(self, call, args):
        # a non-finite field, or an n_max that is not a count, gets no
        # value and no verdict
        with pytest.raises(InvalidArgumentError):
            call(*args)

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
        entry = SimpleNamespace(
            k=K_STAR_12, axis_angle=angle, rabi_rate=np.linalg.norm(d_f),
            durations=np.linspace(0, 2 * np.pi / np.linalg.norm(d_f), 100),
            idle=False)
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

    @pytest.mark.parametrize("c", [1e-320, 1e308])
    @pytest.mark.parametrize("g_f", [1.0, 1.2])
    def test_constant_out_of_float_range_is_refused(self, c, g_f):
        # 2 pi / Omega overflows at 1e-320, Omega itself at 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=re.escape(f"pulse constant {c} ")):
                quench.pulse_schedule(quench.QuenchSpec(0.0, g_f, 8), c=c)

    def test_schedule_is_one_record_array(self):
        spec = quench.QuenchSpec(0.0, 1.0, 8)
        sched = quench.pulse_schedule(spec, c=2.0, n_t=7.0)
        assert isinstance(sched, np.recarray)
        assert sched.dtype.names == ("k", "axis_angle", "rabi_rate",
                                     "durations", "idle")
        assert sched.durations.shape == (spec.n_modes, 7)
        assert np.array_equal(sched.k, spec.momentum_grid())
        assert sched.idle.tolist() == [True] + [False] * 7 + [True]
        # each row is np.linspace over one period, to the last bit
        for entry in sched[~sched.idle]:
            assert np.array_equal(entry.durations, np.linspace(
                0.0, 2.0 * np.pi / entry.rabi_rate, 7))
        assert np.all(sched.durations[sched.idle] == 0.0)


@pytest.mark.parametrize("size", [2.5, float("nan"), float("inf")])
def test_non_integral_sizes_are_refused(size):
    spec = quench.QuenchSpec(0.0, 1.2, 8)
    for call in (lambda: quench.pulse_schedule(spec, n_t=size),
                 lambda: quench.return_probability_map(spec, size)):
        with pytest.raises(ConfigurationError, match="n_t must be an integer"):
            call()


@pytest.mark.parametrize("n_t", [10 ** 9, 10 ** 400])
def test_heatmap_size_is_refused_before_its_grid(monkeypatch, n_t):
    # the tau grid alone would take 8 GB at 10**9, and 10**400 is past
    # numpy's size limit: the budget is checked before np.linspace runs,
    # which here refuses to build any grid at all
    spec = quench.QuenchSpec(0.0, 1.2, 8)
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail(
        "np.linspace ran on a refused size"))
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(ResourceGuardError, match="mode budget"):
            quench.return_probability_map(spec, n_t)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2 ** 20


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
            probs = quench._probabilities(spec, np.array([0.0, 1.0]))
            weights = spec._multiplicity()
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
        # d_i is parallel to d_f only at k = 0 and pi (0.7 sin k is their
        # cross product), so the k = pi row of an even N never leaves 1
        overlap = quench._mode_geometry(0.3, 1.0, spec.momentum_grid())[1]
        rows = np.delete(np.arange(n + 1), ends)
        parallel = rows[overlap[rows] == 1.0]
        assert list(parallel) == ([n // 2] if n % 2 == 0 else [])
        assert np.all(heat[parallel] == 1.0)
        assert np.all(heat[rows[overlap[rows] < 1.0]].min(axis=1) < 1.0)
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

    @pytest.mark.parametrize("g_f, n_t", [(1.2, 2), (1.2, 100), (1.0, 2)])
    def test_schedule_holds_no_more_than_its_guard_counts(self, monkeypatch,
                                                          g_f, n_t):
        # every entry's object overhead is counted, not only its durations;
        # g_f = 1 adds the idle entries at both ends
        counted = []
        guard = quench._require_budget

        def recording(need, what):
            counted.append(need)
            guard(need, what)

        monkeypatch.setattr(quench, "_require_budget", recording)
        spec = quench.QuenchSpec(0.0, g_f, 2000)
        tracemalloc.start()
        try:
            entries = quench.pulse_schedule(spec, n_t=n_t)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(entries) == spec.n_modes and len(counted) == 1
        assert held <= peak <= counted[0]

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

    @pytest.mark.parametrize("budget", [2 ** 20, 300_000])
    @pytest.mark.parametrize("over", [1, 2 ** 20 + 7])
    def test_refusal_reads_a_need_above_the_budget(self, monkeypatch, budget,
                                                   over):
        # whole-MiB rounding read "1 MiB, over the 1 MiB" and "0 MiB, over
        # the 0 MiB"; the message must show the need larger than the budget
        monkeypatch.setattr(quench, "MODE_BUDGET_BYTES", budget)
        quench._require_budget(budget, "exactly the budget")
        with pytest.raises(ResourceGuardError) as refused:
            quench._require_budget(budget + over, "the scan")
        need, limit = (int(number.replace(",", "")) for number in re.findall(
            r"[\d,]*\d", str(refused.value)))
        assert (need, limit) == (budget + over, budget)
        assert str(refused.value).startswith("the scan need ")
        assert str(refused.value).endswith("mode budget")


class TestProbabilityKernel:
    """|G_k|^2 = c^2 + (1 - c^2) cos^2(phase): exact where it must be."""

    @given(critical_fields, critical_fields, grid_sizes, grid_modes)
    def test_exactly_one_at_time_zero(self, g_i, g_f, n, grid):
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        assume(not np.any(quench._gap_squared(g_i, spec.momentum_grid())
                          == 0.0))
        assert np.all(quench.mode_probabilities(spec, [0.0])[1] == 1.0)
        assert np.all(quench.return_probability_map(spec, 3)[2][:, 0] == 1.0)

    # g_i = 1 on the abc grid solves to g_f = -1, where k* is undefined
    @example(1.0, 8, "abc", 1, 0, 0.0)
    @given(fields, grid_sizes, grid_modes, st.integers(0, 41),
           st.integers(0, 3), st.floats(-1e-9, 1e-9))
    def test_relative_accuracy_at_a_fisher_zero(self, g_i, n, grid, j, m, dt):
        # put k* on grid point j: cos k* (g_i + g_f) = 1 + g_i g_f; j is a
        # distinct mode, as rows past pi copy k, not 2pi - k to the last bit
        ks = quench.QuenchSpec(g_i, g_i, n, grid).momentum_grid()
        j %= (ks.size + 1) // 2
        cos_k = np.cos(ks[j])
        assume(abs(cos_k - g_i) > 1e-3 and abs(cos_k) < 1.0 - 1e-6)
        g_f = (1.0 - g_i * cos_k) / (cos_k - g_i)
        assume(abs(g_f) < 1e3 and g_i + g_f != 0.0)
        assume(quench.critical_momentum(g_i, g_f) is not None)
        t = quench.critical_times(g_i, g_f)[m] + dt
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        assume(not np.any(quench._gap_squared(g_i, ks) == 0.0))
        prob = quench.mode_probabilities(spec, [t])[1][j, 0]
        expected = abs(quench.loschmidt_mode(spec, ks[j], t)) ** 2
        assert expected < 1e-10
        assert abs(prob - expected) <= 1e-12 * expected


def distinct_momenta(spec):
    """The distinct modes k in [0, pi] the kernel evaluates, in its order."""
    return spec._momenta(np.arange((spec.n_modes + 1) // 2))


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# uniform grids long enough for angle addition, across slab boundaries
uniform_sizes = st.integers(4 * quench.BLOCK, 8 * quench.BLOCK + 1)
# the two cosines differ by a few ulp of the largest phase, |d_f| |t| <= 20
ends = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


class TestTimeBlocks:
    """The streamed kernel: angle addition on uniform grids, in slabs."""

    @given(fields.filter(lambda g: abs(g) != 1.0), critical_fields,
           st.integers(2, 80), grid_modes, st.booleans(), ends, ends,
           uniform_sizes)
    def test_uniform_grid_matches_literal_and_cosine(self, g_i, g_f, n, grid,
                                                     normalized, t0, t1, n_t):
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        scale = 0.4 if normalized else 1.0     # tau = t/t0 within [-2, 2]
        ts = np.linspace(scale * t0, scale * t1, n_t)
        try:
            with mock.patch.object(quench, "SLAB_CELLS", 0):   # BLOCK wide
                probs = quench._probabilities(spec, ts, normalized)
        except GaplessModeError:
            return
        literal = []
        for k in distinct_momenta(spec):
            if normalized and quench._gap_squared(g_f, k) == 0.0:
                literal.append(np.ones_like(ts))
                continue
            t0 = (np.pi / np.linalg.norm(quench.bloch_vector(g_f, k))
                  if normalized else 1.0)
            literal.append(np.abs(quench.loschmidt_mode(spec, k, ts * t0)) ** 2)
        assert np.max(np.abs(probs - np.array(literal))) <= 1e-13
        # one slab of the whole grid is too short for angle addition
        with mock.patch.object(quench, "BLOCK", 10 ** 9):
            cosine = quench._probabilities(spec, ts, normalized)
        assert np.max(np.abs(probs - cosine)) <= 1e-14

    @given(fields.filter(lambda g: abs(g) != 1.0), critical_fields,
           st.booleans(), st.integers(2, 80), grid_modes, st.booleans(), ends,
           uniform_sizes | st.integers(1, 4 * quench.BLOCK))
    def test_kernel_keeps_its_invariants(self, g_i, g_f, quenched, n, grid,
                                         normalized, t1, n_t):
        # without a quench, dhat_i . dhat_f can round to 1 + ulp
        spec = quench.QuenchSpec(g_i, g_f if quenched else g_i, n, grid)
        ts = np.linspace(0.0, t1, n_t)
        try:
            with mock.patch.object(quench, "SLAB_CELLS", 0):
                probs = quench._probabilities(spec, ts, normalized)
                rate = quench.rate_function(spec, ts)
        except GaplessModeError:
            return
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert np.all(probs[:, 0] == 1.0)
        idle = quench._gap_squared(spec.g_f, distinct_momenta(spec)) == 0.0
        assert np.all(probs[idle] == 1.0)
        assert np.all(rate >= 0.0)

    def test_uniform_grid_takes_few_cosines_per_mode(self):
        spec = quench.QuenchSpec(0.3, 1.2, 2000)
        n_t, cells, cos = 500, [], np.cos

        def counting(x, *args, **kwargs):
            cells.append(np.size(x))
            return cos(x, *args, **kwargs)

        with mock.patch.object(np, "cos", counting):
            quench.rate_function(spec, np.linspace(0.0, 5.0, n_t))
        # the geometry, the table of BLOCK offsets and one per slab start
        n_k = (spec.n_modes + 1) // 2
        assert sum(cells) <= n_k * (1 + quench.BLOCK + n_t // quench.BLOCK + 1)

    @pytest.mark.parametrize("ts", [[1.3], np.linspace(0.0, 5.0, 500)])
    def test_one_slab_takes_one_cosine_per_cell(self, ts):
        # a one-point grid, and 16 modes x 500 times below SLAB_CELLS
        spec = quench.QuenchSpec(0.3, 1.2, 31)
        n_f, overlap = quench._mode_geometry(0.3, 1.2, distinct_momenta(spec))
        c2 = (overlap * overlap)[:, None]
        cos = np.cos(np.multiply.outer(n_f, ts))
        assert np.array_equal(quench._probabilities(spec, np.asarray(ts)),
                              c2 + (1.0 - c2) * cos ** 2)

    def test_empty_and_scalar_times(self):
        spec = quench.QuenchSpec(0.3, 1.2, 31)
        assert quench.rate_function(spec, []).shape == (0,)
        assert quench.mode_probabilities(spec, [])[1].shape == (32, 0)
        assert isinstance(quench.rate_function(spec, 1.3), float)

    @pytest.mark.parametrize("slab_cells", [0, quench.SLAB_CELLS, 2 ** 20])
    @pytest.mark.parametrize("n_t", [1, 2, 17, 4 * quench.BLOCK + 1, 500])
    def test_rate_function_sums_each_time_pairwise(self, monkeypatch, n_t,
                                                   slab_cells):
        # each time's f is numpy's pairwise sum of one contiguous row of
        # weighted logs, whatever the slab width
        monkeypatch.setattr(quench, "SLAB_CELLS", slab_cells)
        spec = quench.QuenchSpec(0.3, 1.2, 2000)
        ts = np.linspace(0.0, 5.0, n_t)
        probs = quench._probabilities(spec, ts)
        rows = np.ascontiguousarray(
            np.log(np.maximum(probs, quench.AMPLITUDE_FLOOR)).T) \
            * spec._multiplicity()
        assert np.array_equal(quench.rate_function(spec, ts),
                              np.array([-np.sum(row) for row in rows]) / spec.n)

    def test_rate_function_streams_in_time_blocks(self):
        # the (10001, 500) matrix alone would take 40 MB
        spec = quench.QuenchSpec(0.3, 1.2, 20000)
        ts = np.linspace(0.0, 5.0, 500)
        assert traced_peak(lambda: quench.rate_function(spec, ts)) < 8 * 2 ** 20

    @pytest.mark.parametrize("n_t", [3, 17, 4 * quench.BLOCK, 100, 500])
    def test_rate_function_holds_no_more_than_its_guard_counts(self, n_t):
        spec = quench.QuenchSpec(0.3, 1.2, 20000)
        ts = np.linspace(0.0, 5.0, n_t)
        counted = 8 * ((spec.n_modes + 1) // 2) * (n_t + quench.GEOMETRY_ROWS)
        assert traced_peak(lambda: quench.rate_function(spec, ts)) <= counted


class TestModeSumAccuracy:
    """Each time's mode sum of f and of m against ``math.fsum`` of the same
    terms.

    Every term of either sum has one sign.  numpy's pairwise sum of n <= 10^5
    terms errs by at most about 35 u sum|terms| (16-term runs in 8
    accumulators, three levels joining them, up to 7 trailing terms, then
    one level per halving down to 128 terms; Higham, SIAM J. Sci. Comput.
    14, 783 (1993)), and a sequential sum by up to (n - 1) u sum|terms|.
    """

    @settings(max_examples=30)
    @given(critical_fields, critical_fields, grid_modes, st.integers(2, 10 ** 5),
           st.booleans(), st.integers(1, 70), st.floats(0.1, 10.0),
           st.integers(0, 2 ** 31 - 1))
    @example(0.0, 1.5362, "paper", 10 ** 5, True, 70, 5.0, 0)
    @example(0.0, 0.2372, "abc", 10 ** 5, False, 40, 5.0, 1)
    def test_mode_sums_stay_near_fsum(self, g_i, g_f, grid, n, uniform, n_t,
                                      t1, seed):
        spec = quench.QuenchSpec(g_i, g_f, n, grid)
        ts = (np.linspace(0.0, t1, n_t) if uniform else
              np.sort(np.random.default_rng(seed).uniform(0.0, t1, n_t)))
        try:
            f = quench.rate_function(spec, ts)
        except GaplessModeError:
            return
        m = otoc._mode_moment(otoc.EchoConfig(spec, ts))
        # the kernel's terms, cell for cell: weighted n^2, then weighted logs
        weights = spec._multiplicity()[:, None]
        probs = quench._probabilities(spec, ts)
        squares = (2.0 * probs - 1.0) ** 2 * weights
        logs = np.log(np.maximum(probs, quench.AMPLITUDE_FLOOR, out=probs),
                      out=probs)
        logs *= weights
        for got, terms, divisor in ((f, logs, -spec.n),
                                    (m, squares, weights.sum())):
            for value, column in zip(got, terms.T):
                exact = math.fsum(column.tolist()) / divisor
                scale = math.fsum(np.abs(column).tolist()) / abs(divisor)
                assert abs(value - exact) <= 40 * 2.0 ** -53 * scale
