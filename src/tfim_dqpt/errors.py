"""Exception hierarchy shared by all simulator modules.

Configuration-type errors map to CLI exit code 2, a tolerance failure to 1;
any other SimulatorError reaching the CLI exits 3.
"""

from __future__ import annotations

__all__ = [
    "SimulatorError",
    "ConfigurationError",
    "InvalidArgumentError",
    "ResourceGuardError",
    "AliasingError",
    "GaplessModeError",
    "UndefinedExpressionError",
    "NoDqptError",
    "WindowRangeError",
    "ToleranceFailure",
]


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(SimulatorError):
    """Invalid parameters or configuration; no computation was performed."""


class InvalidArgumentError(ConfigurationError):
    """Non-finite input, non-unitary operator, or similar malformed argument."""


class ResourceGuardError(ConfigurationError):
    """Requested problem size exceeds the hard resource limits."""


class AliasingError(ConfigurationError):
    """The phi grid cannot resolve the requested coherence order."""


class GaplessModeError(ConfigurationError):
    """A momentum mode has |d| = 0 where a gapped mode is required."""


class UndefinedExpressionError(ConfigurationError):
    """An analytic expression is undefined for the given couplings."""


class NoDqptError(ConfigurationError):
    """Critical times were requested but no critical momentum exists."""


class WindowRangeError(ConfigurationError):
    """A detector window falls outside the sampled time range."""


class ToleranceFailure(SimulatorError):
    """An oracle comparison exceeded the configured tolerance (CLI exit 1)."""
