"""One input contract at every public entry point.

``ROUTES`` gives each callable of ``tfim_dqpt.__all__`` a way for a bad
value into each of its numeric arguments, one argument at a time.  A nan
or infinite value must raise a ``SimulatorError``, never return a value or
a verdict, and never escape as a bare numpy or Python error.  A float
argument, a time grid or a state raises ``InvalidArgumentError``; a size
may raise its own ``ConfigurationError`` (or ``ResourceGuardError``).  Every
integer route also takes 2.5, the integer below its range and 10**400.
"""

from __future__ import annotations

import inspect
from unittest import mock

import numpy as np
import pytest

import tfim_dqpt as tq
from tfim_dqpt import InvalidArgumentError, ResourceGuardError, SimulatorError

SPEC = tq.QuenchSpec(0.0, 1.2, 8)
CONFIG = tq.EchoConfig(SPEC, [0.0, 1.0], n_phi=8)
SPECTRUM = tq.MqcSpectrum(1, [0.25, 0.5, 0.25])
OP = tq.ChainOperator(4, 1.2)
LIVE = tq.pulse_schedule(SPEC, n_t=4)[1]
IDLE = tq.pulse_schedule(tq.QuenchSpec(0.0, 1.0, 8), n_t=4)[0]  # k = 0, g_f = 1
D = [1.0, 0.5, 0.0]
EYE = np.eye(2)
TAUS = np.linspace(0.0, 1.0, 11)
WELL = 1.0 - np.cos(2.0 * np.pi * TAUS) ** 2

# callable -> argument -> the call with x in that argument
ROUTES = {
    "ChainOperator": {
        "n": lambda x: tq.ChainOperator(x, 1.2),
        "g": lambda x: tq.ChainOperator(4, x),
        "coupling": lambda x: tq.ChainOperator(4, 1.2, coupling=x),
    },
    "EchoConfig": {
        "time_grid": lambda x: tq.EchoConfig(SPEC, [0.0, x]),
        "n_phi": lambda x: tq.EchoConfig(SPEC, [0.0], n_phi=x),
    },
    "MqcSpectrum": {
        "m_max": lambda x: tq.MqcSpectrum(x, [0.0]),
        "components": lambda x: tq.MqcSpectrum(1, [0.0, x, 0.0]),
        "components-imag": lambda x: tq.MqcSpectrum(1, [0.0, complex(0.0, x), 0.0]),
    },
    "QuenchSpec": {
        "g_i": lambda x: tq.QuenchSpec(x, 1.2, 8),
        "g_f": lambda x: tq.QuenchSpec(0.0, x, 8),
        "n": lambda x: tq.QuenchSpec(0.0, 1.2, x),
    },
    "bloch_vector": {
        "g": lambda x: tq.bloch_vector(x, 0.3),
        "k": lambda x: tq.bloch_vector(1.2, x),
    },
    "coherence_series": {
        "spectra": lambda x: tq.coherence_series(
            [SPECTRUM, tq.MqcSpectrum(1, [0.0, x, 0.0])], 0),
        "m": lambda x: tq.coherence_series([SPECTRUM], x),
    },
    "critical_momentum": {
        "g_i": lambda x: tq.critical_momentum(x, 1.2),
        "g_f": lambda x: tq.critical_momentum(0.0, x),
    },
    "critical_times": {
        "g_i": lambda x: tq.critical_times(x, 1.2),
        "g_f": lambda x: tq.critical_times(0.0, x),
        "n_max": lambda x: tq.critical_times(0.0, 1.2, x),
    },
    "default_time_grid": {
        "g_i": lambda x: tq.default_time_grid(x, 1.2),
        "g_f": lambda x: tq.default_time_grid(0.0, x),
        "n_points": lambda x: tq.default_time_grid(0.0, 1.2, x),
    },
    "double_well_depth": {
        "g_i": lambda x: tq.double_well_depth(x, 1.2, 8),
        "g_f": lambda x: tq.double_well_depth(0.0, x, 8),
        "n": lambda x: tq.double_well_depth(0.0, 1.2, x),
    },
    "double_well_detector": {
        "times": lambda x: tq.double_well_detector(
            np.r_[TAUS[:-1], x], WELL, 0.5, 0.4),
        "values": lambda x: tq.double_well_detector(
            TAUS, np.r_[WELL[:-1], x], 0.5, 0.4),
        "t_c": lambda x: tq.double_well_detector(TAUS, WELL, x, 0.4),
        "window": lambda x: tq.double_well_detector(TAUS, WELL, 0.5, x),
        "eps_dw": lambda x: tq.double_well_detector(TAUS, WELL, 0.5, 0.4, x),
    },
    "dqpt_predicate": {
        "g_i": lambda x: tq.dqpt_predicate(x, 1.2),
        "g_f": lambda x: tq.dqpt_predicate(0.0, x),
    },
    "echo_chain": {
        "n": lambda x: tq.echo_chain(x, 1.2, 1.0, 1.0),
        "g_f": lambda x: tq.echo_chain(4, x, 1.0, 1.0),
        "t": lambda x: tq.echo_chain(4, 1.2, x, 1.0),
        "phi": lambda x: tq.echo_chain(4, 1.2, 1.0, x),
    },
    "echo_scan_chain": {
        "n": lambda x: tq.echo_scan_chain(x, 1.2, [1.0], [1.0]),
        "g_f": lambda x: tq.echo_scan_chain(4, x, [1.0], [1.0]),
        "ts": lambda x: tq.echo_scan_chain(4, 1.2, [1.0, x], [1.0]),
        "phis": lambda x: tq.echo_scan_chain(4, 1.2, [1.0], [1.0, x]),
    },
    "echo_state": {
        "d_f": lambda x: tq.echo_state([x, 0.5, 0.0], 1.0, 1.0),
        "t": lambda x: tq.echo_state(D, x, 1.0),
        "phi": lambda x: tq.echo_state(D, 1.0, x),
        "psi0": lambda x: tq.echo_state(D, 1.0, 1.0, [x, 1.0]),
        "psi0-imag": lambda x: tq.echo_state(D, 1.0, 1.0, [complex(1.0, x), 1.0]),
    },
    "even_cat_state": {
        "n": lambda x: tq.even_cat_state(x),
    },
    "evolution_unitary": {
        "d": lambda x: tq.evolution_unitary([x, 0.5, 0.0], 1.0),
        "t": lambda x: tq.evolution_unitary(D, x),
    },
    "evolve_chain": {
        "state": lambda x: tq.evolve_chain(np.r_[x, np.ones(15)], OP, 1.0),
        "t": lambda x: tq.evolve_chain(np.ones(16), OP, x),
    },
    "expect_sx": {
        "a": lambda x: tq.expect_sx([x, 1.0]),
        "a-imag": lambda x: tq.expect_sx([1.0, complex(0.0, x)]),
    },
    "fidelity": {
        "a": lambda x: tq.fidelity([x, 0.0], [1.0, 0.0]),
        "b": lambda x: tq.fidelity([1.0, 0.0], [1.0, complex(0.0, x)]),
    },
    "fidelity_otoc": {
        "config": lambda x: tq.fidelity_otoc(tq.EchoConfig(SPEC, [x])),
    },
    "ground_state": {
        "d": lambda x: tq.ground_state([x, 0.5, 0.0]),
    },
    "loschmidt_mode": {
        "k": lambda x: tq.loschmidt_mode(SPEC, x, 1.0),
        "t": lambda x: tq.loschmidt_mode(SPEC, 0.3, [1.0, x]),
    },
    "magnetization_otoc": {
        "config": lambda x: tq.magnetization_otoc(tq.EchoConfig(SPEC, [x])),
    },
    "mqc_components": {
        "scan": lambda x: tq.mqc_components(np.r_[x, np.ones(7)], 1),
        "m_max": lambda x: tq.mqc_components(np.ones(8), x),
    },
    "mqc_spectrum": {
        "signal": lambda x: tq.mqc_spectrum(np.r_[x, np.ones(7)], 1),
        "m_max": lambda x: tq.mqc_spectrum(np.ones(8), x),
    },
    "mqc_spectrum_ed": {
        "n": lambda x: tq.mqc_spectrum_ed(x, 1.2, 1.0),
        "g_f": lambda x: tq.mqc_spectrum_ed(4, x, 1.0),
        "t": lambda x: tq.mqc_spectrum_ed(4, 1.2, x),
        "m_max": lambda x: tq.mqc_spectrum_ed(4, 1.2, 1.0, m_max=x),
        "n_phi": lambda x: tq.mqc_spectrum_ed(4, 1.2, 1.0, n_phi=x),
    },
    "otoc_general": {
        "w": lambda x: tq.otoc_general(np.diag([x, 1.0]), EYE, D, 1.0, [1.0, 0.0]),
        "v": lambda x: tq.otoc_general(EYE, np.diag([x, 1.0]), D, 1.0, [1.0, 0.0]),
        "d": lambda x: tq.otoc_general(EYE, EYE, [x, 0.5, 0.0], 1.0, [1.0, 0.0]),
        "t": lambda x: tq.otoc_general(EYE, EYE, D, x, [1.0, 0.0]),
        "psi0": lambda x: tq.otoc_general(EYE, EYE, D, 1.0, [x, 1.0]),
    },
    "pulse_schedule": {
        "c": lambda x: tq.pulse_schedule(SPEC, c=x),
        "n_t": lambda x: tq.pulse_schedule(SPEC, n_t=x),
    },
    "rate_function": {
        "t": lambda x: tq.rate_function(SPEC, x),
    },
    "rate_function_ed": {
        "n": lambda x: tq.rate_function_ed(x, 0.0, 1.2, 1.0),
        "g_i": lambda x: tq.rate_function_ed(4, x, 1.2, 1.0),
        "g_f": lambda x: tq.rate_function_ed(4, 0.0, x, 1.0),
        "t": lambda x: tq.rate_function_ed(4, 0.0, 1.2, [1.0, x]),
    },
    "replay_unitary": {
        "duration": lambda x: tq.replay_unitary(LIVE, x),
        # an idle record replays as the identity, but not at a bad duration
        "duration-idle": lambda x: tq.replay_unitary(IDLE, x),
    },
    "return_probability_map": {
        "n_t": lambda x: tq.return_probability_map(SPEC, x),
    },
    "rotation_x": {
        "phi": lambda x: tq.rotation_x(x),
    },
    "spectrum_dynamics": {
        "config": lambda x: tq.spectrum_dynamics(
            tq.EchoConfig(SPEC, [x]), "fidelity", 1),
        "m_max": lambda x: tq.spectrum_dynamics(CONFIG, "fidelity", x),
    },
}

# sizes and orders: integers, which may be refused by their own range rule
SIZES = {"n", "n_phi", "n_t", "n_max", "n_points", "m_max", "m"}
# the least value each integer route admits
LEAST = {
    "ChainOperator-n": 2, "EchoConfig-n_phi": 3, "MqcSpectrum-m_max": 0,
    "QuenchSpec-n": 2, "coherence_series-m": -1, "critical_times-n_max": 0,
    "default_time_grid-n_points": 2, "double_well_depth-n": 2,
    "echo_chain-n": 2, "echo_scan_chain-n": 2, "even_cat_state-n": 1,
    "mqc_components-m_max": 0, "mqc_spectrum-m_max": 0, "mqc_spectrum_ed-n": 2,
    "mqc_spectrum_ed-m_max": 0, "mqc_spectrum_ed-n_phi": 9,
    "pulse_schedule-n_t": 2, "rate_function_ed-n": 2,
    "return_probability_map-n_t": 2, "spectrum_dynamics-m_max": 0,
}
# value objects hold no array sized by a huge integer, so they keep it; the
# first call that would build one refuses it
HOLDERS = {"QuenchSpec-n": lambda spec: tq.rate_function(spec, 1.0),
           "EchoConfig-n_phi": tq.fidelity_otoc}
# the value objects' grids, sized by the integer each holds
GRIDS = {
    "QuenchSpec.momentum_grid":
        lambda n: tq.QuenchSpec(0.0, 1.2, n).momentum_grid(),
    "EchoConfig.phi_values":
        lambda n: tq.EchoConfig(SPEC, [0.0], n_phi=n).phi_values,
}
# arguments that take no number of their own
NON_NUMERIC = {"spec", "op", "entry", "bc", "grid_mode", "aggregation",
               "time_mode", "observable", "convention"}


def _public_callables() -> dict:
    return {name: getattr(tq, name) for name in tq.__all__
            if callable(getattr(tq, name))
            and not (inspect.isclass(getattr(tq, name))
                     and issubclass(getattr(tq, name), BaseException))}


def test_table_names_every_public_callable_and_argument():
    callables = _public_callables()
    assert set(ROUTES) == set(callables)
    for name, routes in ROUTES.items():
        numeric = set(inspect.signature(callables[name]).parameters) - NON_NUMERIC
        assert {label.split("-")[0] for label in routes} == numeric, name
    assert set(LEAST) == {f"{name}-{label}" for name, routes in ROUTES.items()
                          for label in routes if label in SIZES}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, label, call", [
    (name, label, call) for name, routes in ROUTES.items()
    for label, call in routes.items()],
    ids=[f"{name}-{label}" for name, routes in ROUTES.items()
         for label in routes])
def test_non_finite_argument_is_refused(name, label, call, bad):
    expected = SimulatorError if label in SIZES else InvalidArgumentError
    with pytest.raises(expected):
        call(bad)


@pytest.mark.parametrize("draw", ["half", "below", "1e400"])
@pytest.mark.parametrize("route", sorted(LEAST))
def test_bad_integer_is_refused(route, draw):
    # a non-integral value, the integer just below the route's range, and
    # 10**400, which no float holds: each raises the route's typed error,
    # never a bare numpy or Python one.  An order past m_max is an
    # IndexError, as for a sequence
    name, label = route.split("-", 1)
    value = {"half": 2.5, "below": LEAST[route] - 1, "1e400": 10 ** 400}[draw]
    call = ROUTES[name][label]
    if route in HOLDERS and draw == "1e400":
        value, call = call(value), HOLDERS[route]
    ordered = route == "coherence_series-m" and draw != "half"
    with pytest.raises(IndexError if ordered else SimulatorError):
        call(value)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=list(GRIDS))
def test_grid_over_the_mode_budget_is_refused(grid):
    # 10**400 points, which no float holds: numpy alone would raise a bare
    # ValueError.  10**10 points would take 80 GB, so that size is tried
    # only with np.arange refusing to run: the budget check must come first
    with pytest.raises(ResourceGuardError):
        grid(10 ** 400)
    with mock.patch.object(np, "arange", side_effect=AssertionError("built")), \
            pytest.raises(ResourceGuardError):
        grid(10 ** 10)


@pytest.mark.parametrize("call", [
    lambda: tq.fidelity(np.zeros(2), np.zeros(2)),
    lambda: tq.fidelity([1.0, 0.0], np.zeros(2)),
    lambda: tq.expect_sx(np.zeros(2)),
    lambda: tq.echo_state(D, 1.0, 1.0, np.zeros(2)),
    lambda: tq.otoc_general(EYE, EYE, D, 1.0, np.zeros(2)),
    lambda: tq.evolve_chain(np.zeros(16), OP, 1.0),
], ids=["fidelity-both", "fidelity-b", "expect_sx", "echo_state",
        "otoc_general", "evolve_chain"])
def test_zero_state_is_refused(call):
    with pytest.raises(InvalidArgumentError):
        call()
