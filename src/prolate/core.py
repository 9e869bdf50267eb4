"""Spectrum of the sinc-kernel integral operator on (-1, 1).

The operator

    (K_c f)(x) = integral_{-1}^{1} sin(c (x - y)) / (pi (x - y)) f(y) dy

has a discrete spectrum 1 > lambda_0 > lambda_1 > ... > 0 whose
eigenfunctions are the prolate spheroidal wave functions.  This module
computes both from the Legendre tridiagonal of the prolate differential
operator, evaluates the classical large-c asymptotic for lambda_0, and
extends eigenfunctions off the interval through the kernel integral,
summed in the rank-two form sin(u - v) = sin u cos v - cos u sin v of the
kernel so that a point set costs sines per point and per node, not per pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericalFailure",
    "QuadratureRule",
    "ProlateSpectrum",
    "gauss_legendre_rule",
    "sinc_kernel",
    "min_quadrature_order",
    "prolate_spectrum",
    "lambda0_asymptotic",
    "asymptotic_gap_ratio",
    "pswf_extend",
]

# A mode whose leading Legendre coefficient is at or below this carries a
# relative error bound eps / |beta| above 1e-6 into its eigenvalue.
COEFFICIENT_FLOOR = 1e6 * np.finfo(float).eps

# A computed gap 1 - lambda at or below this (about 1e3 ulp of 1) is
# eigensolver roundoff, not a resolved value.
GAP_FLOOR = 1e3 * np.finfo(float).eps

# Largest dense float64 matrix any routine allocates; sizes are checked
# from the arguments before allocating.
DENSE_BUDGET_BYTES = 2**30

# Scaled point pairs with |c x - c y| below this are summed directly in
# pswf_extend.  Elsewhere its rank-two form computes sin(c x - c y) to a few
# ulp of 1, so each kernel term is off by at most about 4 eps / 0.1 relative.
# At 1e-2 the extension misses the tests' 1e-14 bound at c = 100.
_NEAR_PAIR = 0.1


class NumericalFailure(RuntimeError):
    """A numerical routine (eigensolver, quadrature guard) failed."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on (-1, 1).

    Attributes
    ----------
    order : int
        Number of nodes; the rule integrates polynomials of degree
        2 * order - 1 exactly.
    nodes : ndarray
        Strictly increasing points in (-1, 1), symmetric about 0.
    weights : ndarray
        Positive weights summing to 2.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(eq=False)
class ProlateSpectrum:
    """Leading eigenpairs of the sinc-kernel operator at bandwidth parameter c.

    Attributes
    ----------
    c : float
        Time-bandwidth parameter of the kernel sin(c(x-y))/(pi(x-y)).
    eigenvalues : ndarray
        Values in (0, 1) in mode order: mode n is the (n // 2)-th eigenvalue
        of the even (n even) or odd (n odd) part of the operator.  They
        descend strictly except where 1 - lambda is roundoff (c above about 22).
    coefficients : ndarray, shape (terms, n_modes)
        Column n holds the coefficients of P_0, ..., P_{terms-1} in one of
        the two unit-norm eigenfunctions +/- psi_n; the coefficients of the
        other parity are 0.  ``modes`` fixes the sign.
    rule : QuadratureRule
        The rule whose nodes carry ``modes``.

    ``eigenvalues``, ``coefficients`` and ``modes`` are read-only:
    ``modes`` is computed from the coefficients on first read, and
    ``pswf_extend`` keeps extensions computed from them on the spectrum.
    """

    c: float
    eigenvalues: np.ndarray
    coefficients: np.ndarray
    rule: QuadratureRule
    # ((shape, bytes) of the last points pswf_extend saw, every mode's extension there):
    # n_modes x len(x), one contiguous row per mode, the orientation in which
    # _sinc_product's product comes out of BLAS and a call reads one mode.
    _extension: tuple | None = field(default=None, init=False, repr=False)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @functools.cached_property
    def modes(self) -> np.ndarray:
        """Samples of the eigenfunctions at ``rule.nodes``, one row per mode, computed on first read.

        Row n is exactly of parity (-1)^n under node reversal, orthonormal in
        the rule's weighted inner product, and signed so the first sample
        larger than 1e-8 in magnitude is positive.
        """
        half = self.rule.order // 2  # nodes[half:] are >= 0; nodes[:half] are their mirror images
        legendre = _legendre_table(self.rule.nodes[half:], len(self.coefficients))
        psi = np.empty((self.n_modes, legendre.shape[1]))
        for parity in range(min(self.n_modes, 2)):  # the other parity's coefficients are 0
            psi[parity::2] = (legendre[parity::2].T @ self.coefficients[parity::2, parity::2]).T
        # nodes[:half] mirror nodes[-1], nodes[-2], ..., held in the last columns of psi.
        mirror = (-1.0) ** np.arange(self.n_modes)[:, None]
        modes = np.hstack([mirror * psi[:, ::-1][:, :half], psi])
        # Deterministic sign: first sample larger than 1e-8 in magnitude positive.
        first = modes[np.arange(self.n_modes), np.argmax(np.abs(modes) > 1e-8, axis=1)]
        modes *= np.where(first < 0, -1.0, 1.0)[:, None]
        modes.flags.writeable = False
        return modes


@functools.cache
def gauss_legendre_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``order`` nodes on (-1, 1).

    Rules are computed once per order and shared, so their nodes and
    weights are read-only.

    Parameters
    ----------
    order : int
        Node count, at least 1.

    Returns
    -------
    QuadratureRule

    Raises
    ------
    ValueError
        An order below 1, or an order x order companion matrix over the
        dense-matrix budget, refused before it is built.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    _require_dense_budget(order, "Gauss-Legendre companion matrix")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def sinc_kernel(c: float, x, y):
    """Kernel sin(c (x - y)) / (pi (x - y)) of the band-limiting operator.

    Broadcasts over array arguments.  The quotient sin(t)/t with
    t = c (x - y) is evaluated directly, which is accurate to roundoff
    for every t != 0 (neither sin(t) nor t cancels); at t == 0 it takes
    its limit 1, so the diagonal value is c / pi.

    Parameters
    ----------
    c : float
        Positive bandwidth parameter.
    x, y : float or ndarray
        Evaluation points.

    Returns
    -------
    float or ndarray
    """
    if not c > 0 or not math.isfinite(c):
        raise ValueError(f"bandwidth parameter c must be positive and finite, got {c}")
    t = c * (np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    on_diagonal = t == 0.0
    safe = np.where(on_diagonal, 1.0, t)
    out = np.where(on_diagonal, 1.0, np.sin(safe) / safe) * (c / np.pi)
    return float(out) if out.ndim == 0 else out


def min_quadrature_order(c: float) -> int:
    """Smallest admissible quadrature order ceil(c) + 30.

    The rule carries the eigenfunction samples and ``pswf_extend``'s kernel
    integral, which needs about c nodes; the eigenvalues do not depend on it.
    """
    return math.ceil(c) + 30


def _require_dense_budget(rows: int, what: str, cols: int | None = None) -> None:
    """Refuse a rows x cols (default square) float64 ``what`` larger than DENSE_BUDGET_BYTES."""
    cols = rows if cols is None else cols
    size = 8.0 * rows * cols
    if size > DENSE_BUDGET_BYTES:
        shape = " x ".join(f"{side:.3g}" if side >= 1e15 else str(side) for side in (rows, cols))
        need = f"needs {size / 2**30:.3g} GiB, over" if math.isfinite(size) else "is beyond"
        raise ValueError(
            f"{what} of shape {shape} {need} the "
            f"{DENSE_BUDGET_BYTES / 2**30:g} GiB budget for a dense matrix"
        )


def _require_spectrum_at(spec: ProlateSpectrum, c: float, what: str) -> None:
    """Refuse a reference spectrum whose c differs from the c that ``what`` needs by over 1e-12."""
    if not abs(spec.c - c) <= 1e-12:
        raise ValueError(f"reference spectrum is at c={spec.c}, {what} needs c={c}")


def _symmetric_eigdesc(a: np.ndarray, vectors: bool = True):
    """Descending eigenvalues of a symmetric matrix, with their eigenvectors if ``vectors``.

    Raises NumericalFailure where the LAPACK solver does not converge.
    """
    try:
        if not vectors:
            return np.linalg.eigvalsh(a)[::-1]
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver failed for matrix order {a.shape[0]}") from exc
    return vals[::-1], vecs[:, ::-1]


def _legendre_table(x: np.ndarray, terms: int) -> np.ndarray:
    """P_0 ... P_{terms-1} (rows) at x, by (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    p = np.empty((terms, x.size))
    p[0], p[1] = 1.0, x
    for k in range(1, terms - 1):
        np.subtract((2 * k + 1) / (k + 1) * x * p[k], k / (k + 1) * p[k - 1], out=p[k + 1])
    return p


def _bouwkamp_block(c: float, k: np.ndarray) -> np.ndarray:
    """Bouwkamp's matrix of -(d/dx)(1 - x^2)(d/dx) + c^2 x^2 on sqrt(k + 1/2) P_k, k of one parity."""
    diag = k * (k + 1) + c * c * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
    j = k[:-1]
    off = c * c * (j + 2) * (j + 1) / ((2 * j + 3) * np.sqrt((2 * j + 1) * (2 * j + 5)))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def prolate_spectrum(c: float, n_modes: int, order: int | None = None) -> ProlateSpectrum:
    """Leading eigenvalues and eigenfunction samples of the sinc-kernel operator.

    The eigenfunctions psi_n = sum_k beta_k sqrt(k + 1/2) P_k are those of
    the prolate differential operator: Bouwkamp's tridiagonal in
    ``ceil(c) + n_modes + 30`` Legendre terms, one block per parity, has
    well-separated eigenvalues at every c.  Evaluating F_c psi_n = i^n mu_n
    psi_n, F_c f(x) = integral e^{icxt} f(t) dt, at x = 0 (or its derivative,
    n odd) gives mu_n, and lambda_n = c mu_n^2 / (2 pi) does not depend on ``order``.
    That needs only P_k(0), so the spectrum holds the eigenvalues and the
    Legendre coefficients; the samples at the rule's nodes (``modes``) are
    computed on their first read.

    Parameters
    ----------
    c : float
        Positive time-bandwidth parameter.
    n_modes : int
        Number of leading eigenpairs to keep; must not exceed ``order``.
    order : int, optional
        Order of the Gauss-Legendre rule whose nodes carry the samples,
        at least ``min_quadrature_order(c)``.  Defaults to that minimum
        (never below ``n_modes``).

    Returns
    -------
    ProlateSpectrum

    Raises
    ------
    ValueError
        Bad arguments (c not positive and finite, or an order below
        ``min_quadrature_order(c)``), a Legendre table for ``modes`` over
        DENSE_BUDGET_BYTES (refused here, before anything is built),
        or a requested mode whose leading coefficient beta_0 (even) or beta_1
        (odd) is at or below COEFFICIENT_FLOOR, where lambda is not resolved.
    NumericalFailure
        The dense symmetric eigensolver did not converge, or a returned
        eigenvalue exceeds 1 + GAP_FLOOR (the operator's norm is below 1).
    """
    if not c > 0 or not math.isfinite(c):
        raise ValueError(f"bandwidth parameter c must be positive and finite, got {c}")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    min_order = min_quadrature_order(c)
    if order is None:
        order = max(min_order, n_modes)
    if n_modes > order:
        raise ValueError(f"n_modes={n_modes} exceeds quadrature order {order}")
    if order < min_order:
        raise ValueError(
            f"order {order} under-resolves the eigenfunctions at c={c}: "
            f"need at least ceil(c)+30 = {min_order}"
        )
    terms = math.ceil(c) + n_modes + 30
    _require_dense_budget(terms, "Legendre table", cols=order - order // 2)

    rule = gauss_legendre_rule(order)
    # P_k(0) by P_{k+1}(0) = -k/(k+1) P_{k-1}(0); zero at odd k.
    at_zero = np.zeros(terms)
    at_zero[0] = 1.0
    at_zero[2::2] = np.cumprod(-np.arange(1, terms - 1, 2) / np.arange(2, terms, 2))
    vals, lead, coefficients = np.empty(n_modes), np.empty(n_modes), np.zeros((terms, n_modes))
    for parity in range(min(n_modes, 2)):
        k = np.arange(parity, terms, 2)
        _, beta = _symmetric_eigdesc(-_bouwkamp_block(c, k))  # chi ascending
        beta = beta[:, : (n_modes + 1 - parity) // 2]
        coef = np.sqrt(k + 0.5)[:, None] * beta  # coefficients of P_k
        if parity:  # psi'(0) from P_k'(0) = k P_{k-1}(0)
            mu = c * math.sqrt(2.0 / 3.0) * beta[0] / ((k * at_zero[k - 1]) @ coef)
        else:
            mu = math.sqrt(2.0) * beta[0] / (at_zero[k] @ coef)
        vals[parity::2], lead[parity::2] = c * mu * mu / (2.0 * np.pi), beta[0]
        coefficients[parity::2, parity::2] = coef

    weak = np.flatnonzero(np.abs(lead) <= COEFFICIENT_FLOOR)
    if weak.size:
        raise ValueError(
            f"mode {weak[0]} at c={c} lies at or below the noise floor: its leading Legendre "
            f"coefficient {abs(lead[weak[0]]):.3e} is at most {COEFFICIENT_FLOOR:.3g}; request fewer modes"
        )
    if vals.max() > 1.0 + GAP_FLOOR:
        raise NumericalFailure(
            f"eigenvalue {vals.max():.17g} exceeds 1 + {GAP_FLOOR:.3g} at c={c:g} "
            f"with {terms} Legendre terms: the operator's norm is below 1"
        )
    vals.flags.writeable = False
    coefficients.flags.writeable = False
    return ProlateSpectrum(c=c, eigenvalues=vals, coefficients=coefficients, rule=rule)


def lambda0_asymptotic(c: float) -> float:
    """Leading large-c asymptotic 1 - 4 sqrt(pi) sqrt(c) exp(-2c) for lambda_0.

    The dropped correction is the relative factor 1 - 7/(16c) + O(1/c^2) on
    the gap 1 - lambda_0 (Slepian, 1965).
    """
    if not c > 0 or not math.isfinite(c):
        raise ValueError(f"bandwidth parameter c must be positive and finite, got {c}")
    return 1.0 - 4.0 * math.sqrt(math.pi) * math.sqrt(c) * math.exp(-2.0 * c)


def _resolved_gap(c: float, lambda0: float) -> float:
    """The gap 1 - lambda0, refused where it is at or below GAP_FLOOR."""
    gap = 1.0 - lambda0
    if not gap > GAP_FLOOR:
        raise NumericalFailure(
            f"gap 1 - lambda_0 = {gap:.3g} at c={c:g} is at or below the roundoff "
            f"floor {GAP_FLOOR:.3g}: lambda_0 is not resolved in double precision"
        )
    return gap


def asymptotic_gap_ratio(c: float, lambda0_numeric: float) -> float:
    """Ratio of the computed gap 1 - lambda_0 to its leading asymptotic.

    Tends to 1 as c grows as 1 - 7/(16c) + O(1/c^2), the second term of
    Slepian's asymptotic 1 - lambda_0 ~ 4 sqrt(pi c) exp(-2c) (1 - 7/(16c))
    (J. Math. Phys. 44, 1965): at c = 4 and 8 the computed ratios 0.8650 and
    0.9417 are 0.971 and 0.996 times 1 - 7/(16c).

    Raises
    ------
    NumericalFailure
        The computed gap is at or below GAP_FLOOR (for c above about
        16.3), so the ratio would be roundoff.
    """
    return _resolved_gap(c, lambda0_numeric) / (1.0 - lambda0_asymptotic(c))


def _sinc_product(c: float, x: np.ndarray, y: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """terms @ sinc_kernel(c, y[:, None], x[None, :]) for 1-D x, increasing y and (k, len(y)) terms.

    With u = c x, v = c y and the Cauchy matrix C = 1/(v - u), one row per
    node, the identity sin(u - v) = sin u cos v - cos u sin v makes the
    kernel rank two:

        (c/pi) [cos u * ((sin v * terms) @ C) - sin u * ((cos v * terms) @ C)],

    which takes 2 (len(x) + len(y)) sines and cosines where the kernel takes
    len(x) len(y).  Pairs with |u - v| < _NEAR_PAIR are zeroed in C and added
    as sin(d)/d (1 at d = 0) of the one computed d = u - v, so the numerator
    and the denominator see the same rounding.  Only the points that have a
    near pair take part: C's buffer holds them as a (len(y) x points) block
    that is zero elsewhere, and one product of that block adds them.

    Everything is mode-major: the result has one contiguous row of len(x)
    values per row of terms, and both products multiply two C-contiguous
    operands, (2k x len(y)) @ (len(y) x len(x)), so BLAS neither reads a
    transposed operand nor leaves a transposed result to copy.  One BLAS
    thread, 40 rows, order 77 and 2078 points: 239 us, against 259 us with C
    read as a transposed view and 326 us for the points-major product with
    its transposed copy; 2 rows, order 32 and 1200 points: 4, 20 and 22 us.
    """
    u, v = c * x, c * y
    # For point i the near nodes are lo[i], ..., lo[i] + counts[i] - 1.
    lo = np.searchsorted(v, u - _NEAR_PAIR, side="right")
    counts = np.searchsorted(v, u + _NEAR_PAIR, side="left") - lo
    total = int(counts.sum())
    scaled = terms * (c / np.pi)
    hit = np.flatnonzero(counts)  # the points with a near pair
    per_hit = counts[hit]
    # Node and hit position of each near pair, then its flat index in the block, then in C.
    node = np.repeat(lo[hit] - (np.cumsum(per_hit) - per_hit), per_hit)
    node += np.arange(total)
    position = np.repeat(np.arange(hit.size), per_hit)
    in_block = node * hit.size
    in_block += position
    if hit.size == u.size:  # every point has one (small c): the block is all of C
        in_cauchy = in_block
    else:
        in_cauchy = node
        in_cauchy *= u.size
        in_cauchy += hit[position]
    del node, position  # freed before C is built: at small c each holds len(x) * order indices
    cauchy = np.subtract.outer(v, u)  # -(u - v), exactly
    flat = cauchy.reshape(-1)
    near = np.negative(flat[in_cauchy])
    with np.errstate(divide="ignore"):  # 1/0 at a node hit, zeroed with the other near pairs
        np.reciprocal(cauchy, out=cauchy)
    flat[in_cauchy] = 0.0
    k = terms.shape[0]
    both = np.vstack([np.cos(v) * scaled, np.sin(v) * scaled]) @ cauchy
    sin_part, out = both[:k], both[k:]
    np.multiply(out, np.cos(u), out=out)
    np.multiply(sin_part, np.sin(u), out=sin_part)
    np.subtract(out, sin_part, out=out)
    # The first len(y) * hit.size values of C's buffer, zero but for sin(d)/d at the near pairs.
    block = flat[: v.size * hit.size]
    block.fill(0.0)
    sinc = np.sin(near, out=np.ones_like(near), where=near != 0.0)
    block[in_block] = np.divide(sinc, near, out=sinc, where=near != 0.0)
    # Sorted points put their hits in one run (at small c all of them): added through a view.
    rows = slice(hit[0], hit[-1] + 1) if hit.size and hit[-1] - hit[0] == hit.size - 1 else hit
    out[:, rows] += scaled @ block.reshape(v.size, hit.size)
    return out


def pswf_extend(spec: ProlateSpectrum, n: int, x):
    """Evaluate the bandlimited extension of mode n at arbitrary points.

    The eigenfunction relation extends psi_n off (-1, 1) as

        psi_tilde_n(x) = (1/lambda_n) integral_{-1}^{1} k_c(x, y) psi_n(y) dy,

    which restricts back to psi_n on (-1, 1).  The integral is evaluated
    with the spectrum's own quadrature rule.

    The first call at a point set evaluates the integral there once and
    extends every mode of ``spec`` in one product; ``spec`` keeps those
    n_modes x len(x) values, one row per mode, so later calls at equal
    points (compared by value) reuse them for any mode.  A call at other
    points replaces them.

    The kernel is not formed.  With u = c x and v = c y, the identity
    sin(u - v) = sin u cos v - cos u sin v is rank two, so the product is
    two stacked n_modes x order blocks times the order x len(x) Cauchy
    matrix 1/(v - u), and 2 (len(x) + order) sines and cosines replace
    len(x) x order.
    Node pairs with |u - v| < 0.1, exact node hits included, are added
    directly as sin(u - v)/(u - v), by one product over only the points
    that have such a pair: about order/(15 c) + 1 pairs per point inside
    (-1, 1), none beyond |x| = 1 + 0.1/c.  Below c of about 0.5 most pairs
    of points dense in (-1, 1) are near, and the call costs up to about
    1.8 times the kernel's (20000 points at c = 0.01).  The values agree
    with the direct kernel product to 1e-14 of the summed magnitudes for c
    from 0.01 to 100.  Far from (-1, 1) the extension itself has condition
    number about c |x| eps in x, for any evaluation.

    Parameters
    ----------
    spec : ProlateSpectrum
    n : int
        Mode index, 0 <= n < spec.n_modes.
    x : float or 1-D ndarray
        Finite evaluation points anywhere on the line.

    Returns
    -------
    float or ndarray
        A new array (or float) the caller may modify.

    Raises
    ------
    ValueError
        Bad mode index, points of more than one dimension, a len(x) x order
        Cauchy matrix that exceeds DENSE_BUDGET_BYTES, or a point that is
        not finite or where c x overflows, refused before anything is built.
    """
    if not 0 <= n < spec.n_modes:
        raise ValueError(f"mode index {n} out of range (have {spec.n_modes} modes)")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"points must be a scalar or a 1-D array, got shape {xs.shape}")
    _require_dense_budget(xs.size, "extension Cauchy matrix", cols=spec.rule.order)
    key = (xs.shape, xs.tobytes())
    cached = spec._extension
    if cached is None or cached[0] != key:
        finite = np.abs(xs) <= np.finfo(float).max / max(spec.c, 1.0)  # False at NaN
        if not finite.all():
            bad = xs.flat[np.argmin(finite)]
            raise ValueError(f"extension points must be finite with c*x finite, got x={bad} at c={spec.c:g}")
        ext = _sinc_product(spec.c, np.atleast_1d(xs), spec.rule.nodes, spec.modes * spec.rule.weights)
        cached = spec._extension = (key, ext / spec.eigenvalues[:, None])
    vals = cached[1][n]
    return float(vals[0]) if xs.ndim == 0 else vals.copy()
