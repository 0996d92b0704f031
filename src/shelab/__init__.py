"""shelab: a numerical laboratory for the stochastic heat equation on the
unit circle with multiplicative space-time white noise.

Finite differences in space, the theta scheme (or exponential integrator)
in time, exact spectral solves of the periodic Laplacian, exact second
moment recursions for linear diffusion coefficients, Monte Carlo moment
estimation, renewal-root calibration of the sharp growth constants, and
coupled-noise convergence studies.
"""

__version__ = "0.1.0"

from .model import (GridSpec, InitialData, ModelSpec, SchemeSpec,  # noqa: F401
                    SigmaSpec, validate_run_config)
