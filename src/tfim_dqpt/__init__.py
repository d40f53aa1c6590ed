"""Transverse-field Ising quench simulator.

Momentum-space DQPT physics (Loschmidt rate functions, Fisher-zero
critical times), the time-reversal OTOC echo protocol with
multiple-quantum coherence spectra, and a full exact-diagonalization
oracle, plus a parameter-sweep CLI (``tfim-dqpt``).  The package exports
each layer's public names, as its ``__all__`` declares them.
"""

from . import chain, errors, otoc, quench, su2
from .errors import *
from .su2 import *
from .quench import *
from .otoc import *
from .chain import *

__version__ = "0.16.0"

__all__ = [*errors.__all__, *su2.__all__, *quench.__all__, *otoc.__all__,
           *chain.__all__, "__version__"]
