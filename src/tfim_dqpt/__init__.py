"""Transverse-field Ising quench simulator.

Momentum-space DQPT physics (Loschmidt rate functions, Fisher-zero
critical times), the time-reversal OTOC echo protocol with
multiple-quantum coherence spectra, and a full exact-diagonalization
oracle, plus a parameter-sweep CLI (``tfim-dqpt``).
"""

from .errors import (
    AliasingError,
    ConfigurationError,
    GaplessModeError,
    InvalidArgumentError,
    NoDqptError,
    NumericalFailureError,
    ResourceGuardError,
    SimulatorError,
    ToleranceFailure,
    UndefinedExpressionError,
    WindowRangeError,
)
from .su2 import (
    evolution_unitary,
    expect_sx,
    fidelity,
    ground_state,
    rotation_x,
)
from .quench import (
    QuenchSpec,
    bloch_vector,
    critical_momentum,
    critical_times,
    default_time_grid,
    dqpt_predicate,
    loschmidt_mode,
    pulse_schedule,
    rate_function,
    replay_unitary,
    return_probability_map,
)
from .otoc import (
    EchoConfig,
    MqcSpectrum,
    coherence_series,
    double_well_depth,
    double_well_detector,
    echo_state,
    fidelity_otoc,
    magnetization_otoc,
    mqc_components,
    mqc_spectrum,
    otoc_general,
    spectrum_dynamics,
)
from .chain import (
    ChainOperator,
    echo_chain,
    echo_scan_chain,
    even_cat_state,
    evolve_chain,
    mqc_spectrum_ed,
    rate_function_ed,
)

__version__ = "0.16.0"

__all__ = [
    "AliasingError",
    "ChainOperator",
    "ConfigurationError",
    "EchoConfig",
    "GaplessModeError",
    "InvalidArgumentError",
    "MqcSpectrum",
    "NoDqptError",
    "NumericalFailureError",
    "QuenchSpec",
    "ResourceGuardError",
    "SimulatorError",
    "ToleranceFailure",
    "UndefinedExpressionError",
    "WindowRangeError",
    "bloch_vector",
    "coherence_series",
    "critical_momentum",
    "critical_times",
    "default_time_grid",
    "double_well_depth",
    "double_well_detector",
    "dqpt_predicate",
    "echo_chain",
    "echo_scan_chain",
    "echo_state",
    "even_cat_state",
    "evolution_unitary",
    "evolve_chain",
    "expect_sx",
    "fidelity",
    "fidelity_otoc",
    "ground_state",
    "loschmidt_mode",
    "magnetization_otoc",
    "mqc_components",
    "mqc_spectrum",
    "mqc_spectrum_ed",
    "otoc_general",
    "pulse_schedule",
    "rate_function",
    "rate_function_ed",
    "replay_unitary",
    "return_probability_map",
    "rotation_x",
    "spectrum_dynamics",
    "__version__",
]
