"""Prolate spheroidal spectra, time/band-limiting operators, and uncertainty checks.

The package has three layers:

* :mod:`prolate.core` -- Gauss-Legendre quadrature, the sinc kernel,
  eigenpairs of the concentration operator on (-1, 1) from the Legendre
  tridiagonal of the prolate operator, the large-c asymptotic of the top
  eigenvalue, and bandlimited extension of the eigenfunctions.
* :mod:`prolate.operators` -- the time limiter chi, band limiter S and
  their sum T on a truncated line grid, with spectral verification of
  the pairing (lambda - 1)^2 = lambda_n(omega tau), assembled
  eigenfunctions, and singular-sequence witnesses for 0 in the spectrum.
* :mod:`prolate.hardy` -- Gaussian tail bounds, the quadratic-form
  chain, contradiction margins, and the Landau-Pollak inequality, which
  together verify that Gaussian envelope pairs with a*b >= 4 admit only
  the zero function.

:mod:`prolate.cli` exposes the same campaigns as a command-line tool.
"""

from . import core, hardy, operators
from .core import *  # noqa: F403
from .hardy import *  # noqa: F403
from .operators import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *operators.__all__, *hardy.__all__, "__version__"]
