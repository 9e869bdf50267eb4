"""Numerical checks for a weak Hardy uncertainty principle.

A function obeying |f(x)| <= M exp(-a x^2 / 2) in time and
|f^(xi)| <= M exp(-b xi^2 / 2) in frequency (unitary transform with
kernel exp(-i x xi)/sqrt(2 pi)) cannot be nonzero once a b >= 4.  The
argument runs through quantitative tail bounds, a quadratic form built
from the time and band limiters, the minimum-eigenvalue bound
1 - sqrt(lambda_0), and a growing contradiction margin; an alternative
route uses the Landau-Pollak inequality

    arccos(alpha) + arccos(beta) >= arccos(sqrt(lambda_0(Omega T / 2)))

for the time and frequency concentrations alpha, beta of a unit-norm
function.  Every link of both chains is implemented here as a checkable
numerical quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProlateSpectrum, _require_spectrum_at, _resolved_gap
from .operators import GridFunction, LimitingOperators

__all__ = [
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
    "HardyMargin",
    "hardy_margin",
    "concentration_alpha",
    "concentration_beta",
    "landau_pollak_check",
    "arccos_expansion_check",
    "alt_proof_chain",
]


@dataclass(frozen=True)
class GaussianEnvelope:
    """Envelope pair |f| <= M exp(-a x^2/2), |f^| <= M exp(-b xi^2/2).

    The product a*b classifies the regime: from a*b >= 4 on, the only
    function under both envelopes is zero.
    """

    M: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.M > 0 and self.a > 0 and self.b > 0):
            raise ValueError(f"envelope parameters must be positive, got {self}")


def time_tail_bound(env: GaussianEnvelope, tau: float) -> float:
    """Closed-form bound M^2/(a tau) exp(-a tau^2) on the time-tail energy.

    Bounds ||f - chi_(-tau,tau) f||^2 for any f under the time envelope;
    it dominates the exact envelope tail because the tail integrand is
    majorized using x/tau >= 1.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return env.M**2 / (env.a * tau) * math.exp(-env.a * tau**2)


def freq_tail_bound(env: GaussianEnvelope, omega: float) -> float:
    """Closed-form bound M^2/(b omega) exp(-b omega^2) on the frequency-tail energy."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    return env.M**2 / (env.b * omega) * math.exp(-env.b * omega**2)


def exact_gaussian_tail(a: float, tau: float) -> float:
    """Exact two-sided Gaussian tail 2 * integral_tau^inf exp(-a x^2) dx.

    Evaluates sqrt(pi/a) * erfc(sqrt(a) tau); the complementary error
    function keeps full relative accuracy deep in the tail.
    """
    if not a > 0:
        raise ValueError(f"decay rate a must be positive, got {a}")
    if not tau >= 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return math.sqrt(math.pi / a) * math.erfc(math.sqrt(a) * tau)


def envelope_tail_sum(env: GaussianEnvelope, tau: float, omega: float) -> float:
    """Exact tail energies admitted by the envelope pair, summed.

    For any f under both envelopes, the quadratic form
    <(2I - chi - S) f, f> is at most the time-tail energy of
    M exp(-a x^2/2) plus the frequency-tail energy of M exp(-b xi^2/2).
    Each tail is evaluated exactly (via erfc) rather than through the
    cruder closed-form bounds, giving the sharpest computable value of
    the chain; it sits below time_tail_bound + freq_tail_bound.
    """
    return env.M**2 * (exact_gaussian_tail(env.a, tau) + exact_gaussian_tail(env.b, omega))


@dataclass(frozen=True)
class QuadraticFormValue:
    """Value of <(2I - chi - S) f, f> with its two summands."""

    value: float
    time_part: float  # ||(I - chi) f||^2
    band_part: float  # Re <(I - S) f, f>


def quadratic_form(f: GridFunction, ops: LimitingOperators) -> QuadraticFormValue:
    """Evaluate <(2I - chi - S) f, f> in the weighted inner product.

    Splits into ||(I - chi) f||^2 (time leakage) plus Re<(I - S) f, f>
    (band leakage); both parts are reported for diagnostics, and both read
    what f keeps: the mass outside the window, ``f.outside_mass(ops.tau)``,
    and Re<S f, f>, ``f.band_energy(ops.omega)``, shared with ``concentration_beta``.
    """
    if f.grid is not ops.grid and not np.array_equal(f.grid.points, ops.grid.points):
        raise ValueError("grid mismatch between function and operators")
    time_part = f.outside_mass(ops.tau)
    band_part = f.norm() ** 2 - f.band_energy(ops.omega)
    return QuadraticFormValue(
        value=time_part + band_part, time_part=time_part, band_part=band_part
    )


def min_eig_lower_bound(lambda0: float) -> float:
    """Lower bound 1 - sqrt(lambda_0) for the smallest eigenvalue of 2I - chi - S.

    The largest eigenvalue of chi + S is 1 + sqrt(lambda_0), so the
    complementary form is at least 2 - (1 + sqrt(lambda_0)).
    """
    if not 0.0 < lambda0 < 1.0:
        raise ValueError(f"lambda0 must lie in (0, 1), got {lambda0}")
    return 1.0 - math.sqrt(lambda0)


@dataclass(frozen=True)
class HardyMargin:
    """Competing coefficients whose ratio, growing with omega, implies ||f|| = 0."""

    lhs: float
    rhs: float
    ratio: float


def hardy_margin(omega: float, M: float) -> HardyMargin:
    """Margin of the contradiction at the symmetric point tau = omega, a = b = 2.

    The quadratic form is at least lhs = 2 sqrt(pi) omega exp(-2 omega^2)
    times ||f||^2 (leading term of 1 - sqrt(lambda_0(omega^2))) yet at
    most rhs = M^2/omega exp(-2 omega^2); their ratio 2 sqrt(pi)
    omega^2 / M^2 grows without bound, leaving ||f|| = 0 as the only
    escape.  Where omega^2, M^2 or the margin leaves the float range,
    the ValueError names the argument.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not M > 0:
        raise ValueError(f"M must be positive, got {M}")
    omega_sq, m_sq = _finite_square(omega, "omega"), _finite_square(M, "M")
    if m_sq == 0.0:
        raise ValueError(f"M={M:g} is out of range: M^2 underflows to zero")
    decay = math.exp(-2.0 * omega_sq)
    lhs = 2.0 * math.sqrt(math.pi) * omega * decay
    rhs = m_sq / omega * decay
    ratio = 2.0 * math.sqrt(math.pi) * omega_sq / m_sq
    if not math.isfinite(rhs) or not math.isfinite(ratio):
        raise ValueError(f"omega={omega:g} and M={M:g} are out of range: the margin overflows")
    return HardyMargin(lhs=lhs, rhs=rhs, ratio=ratio)


def _finite_square(value: float, name: str) -> float:
    """value**2, refused with a ValueError naming ``name`` where it overflows."""
    try:
        return value**2
    except OverflowError:
        raise ValueError(f"{name}={value:g} is out of range: {name}^2 overflows") from None


def _require_unit_norm(f: GridFunction) -> None:
    norm = f.norm()
    if not abs(norm - 1.0) <= 1e-8:
        raise ValueError(f"function must have unit norm, got ||f|| = {norm:.10f}")


def concentration_alpha(f: GridFunction, T_width: float) -> float:
    """Time concentration alpha = (integral_{|t| < T/2} |f|^2)^(1/2) of a unit-norm f.

    The mass is computed once per (f, T) by ``f.window_mass`` and kept on f;
    the checks of T and of the norm run on every call.
    """
    if not T_width > 0:
        raise ValueError(f"T_width must be positive, got {T_width}")
    if T_width / 2.0 >= f.grid.half_width:
        raise ValueError(
            f"window T/2 = {T_width / 2} exceeds grid half-width {f.grid.half_width}"
        )
    _require_unit_norm(f)
    return math.sqrt(f.window_mass(T_width / 2.0))


def concentration_beta(f: GridFunction, Omega: float) -> float:
    """Frequency concentration beta = (integral_{|xi| < Omega} |f^|^2)^(1/2).

    Uses the band-limiter quadratic form <S_Omega f, f> on the
    function's own grid, which equals the frequency-side integral by the
    projection identity; no second discretization of the transform is
    introduced, and S enters only through the FFT of its kernel blocks.
    The form is computed once per (f, Omega) by ``f.band_energy`` and kept
    on f; the unit-norm check runs on every call.
    """
    _require_unit_norm(f)
    return math.sqrt(max(f.band_energy(Omega), 0.0))


@dataclass(frozen=True)
class LandauPollakReport:
    """One evaluation of the Landau-Pollak concentration inequality.

    ``lhs`` is arcsin sqrt(m) + arccos(beta), with m the mass of |f|^2
    outside the window: arccos(alpha) with 1 - alpha^2 taken as m.  Like
    alpha = sqrt(window mass) and beta, m is not divided by ||f||^2, so
    acos(alpha) + acos(beta) equals ``lhs`` to roundoff where ||f|| = 1
    and within the 1e-8 unit-norm slack otherwise.
    """

    alpha: float
    beta: float
    lhs: float
    rhs: float
    margin: float


def landau_pollak_check(
    f: GridFunction,
    T_width: float,
    Omega: float,
    spec: ProlateSpectrum,
) -> LandauPollakReport:
    """Evaluate arccos(alpha) + arccos(beta) - arccos(sqrt(lambda_0)) for unit-norm f.

    ``spec`` must be computed at c = Omega * T_width / 2, the parameter
    of the concentration problem whose top eigenvalue enters the right
    side.  The margin is nonnegative up to numerical slack, and zero
    exactly at the concentration extremizers.

    arccos(alpha) is taken as arcsin sqrt(m) from the mass m of |f|^2
    outside |t| < T/2 (``f.outside_mass``), which is 1 - alpha^2 for
    unit-norm f without its cancellation: arccos near 1 would turn one ulp
    of alpha into 1.5e-8, and a function supported on the window gets
    exactly 0.  The reported ``alpha`` is still ``concentration_alpha``.
    """
    _require_spectrum_at(spec, 0.5 * Omega * T_width, "the inequality at Omega*T/2")
    alpha = concentration_alpha(f, T_width)
    beta = concentration_beta(f, Omega)
    outside = f.outside_mass(T_width / 2.0)
    lhs = math.asin(math.sqrt(min(outside, 1.0))) + math.acos(min(beta, 1.0))
    rhs = math.acos(min(math.sqrt(spec.eigenvalues[0]), 1.0))
    return LandauPollakReport(
        alpha=alpha,
        beta=beta,
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
    )


def arccos_expansion_check(x: float) -> tuple[float, float]:
    """Exact arccos(1 - x) against its small-x expansion sqrt(2x).

    Valid for 0 < x <= 0.5; the ratio exact/approx lies in [1, 1 + x]
    there (the first correction term is positive).
    """
    if not 0.0 < x <= 0.5:
        raise ValueError(f"x must lie in (0, 0.5], got {x}")
    return math.acos(1.0 - x), math.sqrt(2.0 * x)


@dataclass(frozen=True)
class AltProofReport:
    """Numerical values of every link in the Landau-Pollak route.

    For the boundary envelope a = b = 2 at tau = omega the route pins
    arccos(alpha) below a Gaussian-decay bound while the inequality's
    right side arccos(sqrt(lambda_0(omega^2))) follows the asymptotic
    2 pi^(1/4) sqrt(omega) exp(-omega^2); the ratio of the right side to
    the available concentration budget grows linearly in omega, which is
    the contradiction.
    """

    omega: float
    M: float
    acos_alpha: float
    acos_alpha_bound: float
    acos_lambda_numeric: float
    acos_lambda_asymptotic: float
    asymptotic_ratio: float
    contradiction_ratio: float


def alt_proof_chain(omega: float, M: float, spec: ProlateSpectrum) -> AltProofReport:
    """Evaluate the Landau-Pollak proof chain at tau = omega for a = b = 2.

    The concrete test function is the envelope-saturating Gaussian
    exp(-x^2), normalized; normalization rescales the amplitude bound to
    M_eff = M / ||exp(-x^2)||.  ``spec`` must be computed at c = omega^2.

    Parameters
    ----------
    omega : float
        Band half-width, at least 1.5 (the asymptotic regime where the
        arccos expansions are valid).
    M : float
        Envelope amplitude.
    spec : ProlateSpectrum
        Sinc-kernel spectrum at c = omega^2.

    Returns
    -------
    AltProofReport

    Raises
    ------
    NumericalFailure
        1 - lambda_0 is at or below the roundoff floor ``GAP_FLOOR``
        (for omega above about 4.03), so arccos(sqrt(lambda_0)) would be
        roundoff.
    """
    if not omega >= 1.5:
        raise ValueError(f"omega must be >= 1.5 (asymptotic regime), got {omega}")
    if not M > 0:
        raise ValueError(f"M must be positive, got {M}")
    _require_spectrum_at(spec, omega * omega, "the chain at omega^2")
    # arccos alpha of the normalized Gaussian over (-omega, omega), exactly, as
    # arcsin sqrt(1 - alpha^2) with 1 - alpha^2 = erfc(sqrt(2) omega): the outside
    # mass keeps its digits where alpha^2 = erf(sqrt(2) omega) rounds toward 1.
    acos_alpha = math.asin(math.sqrt(math.erfc(math.sqrt(2.0) * omega)))
    m_eff = M / (math.pi / 2.0) ** 0.25
    acos_alpha_bound = 2.0 * m_eff / math.sqrt(omega) * math.exp(-(omega**2))

    _resolved_gap(spec.c, float(spec.eigenvalues[0]))  # refuse a roundoff lambda_0
    acos_lambda_numeric = math.acos(math.sqrt(spec.eigenvalues[0]))
    acos_lambda_asymptotic = (
        2.0 * math.pi**0.25 * math.sqrt(omega) * math.exp(-(omega**2))
    )
    return AltProofReport(
        omega=omega,
        M=M,
        acos_alpha=acos_alpha,
        acos_alpha_bound=acos_alpha_bound,
        acos_lambda_numeric=acos_lambda_numeric,
        acos_lambda_asymptotic=acos_lambda_asymptotic,
        asymptotic_ratio=acos_lambda_numeric / acos_lambda_asymptotic,
        contradiction_ratio=math.pi**0.25 * omega / (2.0 * M),
    )
