"""Simulation of self-similar Gaussian processes.

Samplers for Brownian motion, fractional Brownian motion, and
sub-fractional Brownian motion (cumulative sum, exact Cholesky,
Davies-Harte FFT, truncated moving average, and the inverse-Lamperti
rescaling method), together with a statistical verification harness and
a CLI.

The package exports each module's `__all__`, its one list of public names.
"""

__version__ = "0.1.0"

from .core import *
from .covmodels import *
from .lamperti import *
from .samplers import *
from .verify import *
