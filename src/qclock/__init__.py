"""Optimal quantum-clock states on the symmetric subspace of N ions.

Construction and characterization of clock states, cost functions and
their matrices, the smallest-eigenpair optimizer, covariant phase-state
measurement statistics, and seeded Monte Carlo validation. The package
re-exports each module's ``__all__``: a new public name goes there and
into ``tests/test_api.py::PUBLIC_NAMES``.
"""

from . import cost, measurement, sim, solver, states
from .states import *
from .cost import *
from .solver import *
from .measurement import *
from .sim import *

__version__ = "0.1.0"

__all__ = [*states.__all__, *cost.__all__, *solver.__all__, *measurement.__all__, *sim.__all__]
