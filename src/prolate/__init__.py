"""Prolate spheroidal spectra, time/band-limiting operators, and uncertainty checks.

The package has three layers:

* :mod:`prolate.core` -- Gauss-Legendre quadrature, the sinc kernel,
  Nystrom eigenpairs of the concentration operator on (-1, 1), the
  large-c asymptotic of the top eigenvalue, and bandlimited extension
  of the eigenfunctions.
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

from .core import (
    NumericalFailure,
    ProlateSpectrum,
    QuadratureRule,
    asymptotic_gap_ratio,
    gauss_legendre_rule,
    lambda0_asymptotic,
    min_quadrature_order,
    nystrom_matrix,
    prolate_spectrum,
    pswf_extend,
    sinc_kernel,
)
from .hardy import (
    AltProofReport,
    GaussianEnvelope,
    LandauPollakReport,
    QuadraticFormValue,
    alt_proof_chain,
    arccos_expansion_check,
    concentration_alpha,
    concentration_beta,
    envelope_tail_sum,
    exact_gaussian_tail,
    freq_tail_bound,
    hardy_margin,
    landau_pollak_check,
    min_eig_lower_bound,
    quadratic_form,
    time_tail_bound,
)
from .operators import (
    BandLimiter,
    GridFunction,
    LimitingOperators,
    LineGrid,
    SumSpectrumReport,
    build_band_limiter,
    build_band_operator,
    build_limiting_operators,
    build_line_grid,
    build_time_limiter,
    eigenfunction_witness,
    projector_check,
    sum_operator_spectrum,
    zero_spectrum_witness,
)

__version__ = "0.1.0"

__all__ = [
    "NumericalFailure",
    "QuadratureRule",
    "ProlateSpectrum",
    "gauss_legendre_rule",
    "sinc_kernel",
    "nystrom_matrix",
    "min_quadrature_order",
    "prolate_spectrum",
    "lambda0_asymptotic",
    "asymptotic_gap_ratio",
    "pswf_extend",
    "LineGrid",
    "GridFunction",
    "BandLimiter",
    "LimitingOperators",
    "SumSpectrumReport",
    "build_line_grid",
    "build_time_limiter",
    "build_band_operator",
    "build_band_limiter",
    "build_limiting_operators",
    "sum_operator_spectrum",
    "eigenfunction_witness",
    "zero_spectrum_witness",
    "projector_check",
    "GaussianEnvelope",
    "QuadraticFormValue",
    "LandauPollakReport",
    "AltProofReport",
    "time_tail_bound",
    "freq_tail_bound",
    "exact_gaussian_tail",
    "envelope_tail_sum",
    "quadratic_form",
    "min_eig_lower_bound",
    "hardy_margin",
    "concentration_alpha",
    "concentration_beta",
    "landau_pollak_check",
    "arccos_expansion_check",
    "alt_proof_chain",
    "__version__",
]
