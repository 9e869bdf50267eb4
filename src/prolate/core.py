"""Spectrum of the sinc-kernel integral operator on (-1, 1).

The operator

    (K_c f)(x) = integral_{-1}^{1} sin(c (x - y)) / (pi (x - y)) f(y) dy

has a discrete spectrum 1 > lambda_0 > lambda_1 > ... > 0 whose
eigenfunctions are the prolate spheroidal wave functions.  This module
computes eigenvalues and node samples of the eigenfunctions with a
symmetric Nystrom discretization on Gauss-Legendre nodes, evaluates the
classical large-c asymptotic for lambda_0, and extends eigenfunctions
off the interval through the kernel integral.
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
    "nystrom_matrix",
    "min_quadrature_order",
    "prolate_spectrum",
    "lambda0_asymptotic",
    "asymptotic_gap_ratio",
    "pswf_extend",
]

# Eigenvalues at or below this magnitude are indistinguishable from
# eigensolver noise for the plunge tail of the spectrum.
NOISE_FLOOR = 1e-12

# A computed gap 1 - lambda at or below this (about 1e3 ulp of 1) is
# eigensolver roundoff, not a resolved value.
GAP_FLOOR = 1e3 * np.finfo(float).eps

# Largest dense float64 matrix any routine allocates; sizes are checked
# from the arguments before allocating.
DENSE_BUDGET_BYTES = 2**30


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
        of the even (n even) or odd (n odd) part of the operator.  Resolved
        values descend strictly; where 1 - lambda is roundoff (c above about
        22) the order comes from parity alone and the values need not descend.
    modes : ndarray
        Row n holds samples of the n-th eigenfunction at ``rule.nodes``,
        exactly of parity (-1)^n under node reversal, orthonormal in the
        rule's weighted inner product, and signed so the first sample
        larger than 1e-8 in magnitude is positive.
    rule : QuadratureRule
        The rule underlying the Nystrom discretization.

    ``eigenvalues`` and ``modes`` are read-only: ``pswf_extend`` keeps
    extensions computed from them on the spectrum.
    """

    c: float
    eigenvalues: np.ndarray
    modes: np.ndarray
    rule: QuadratureRule
    # ((shape, bytes) of the last points pswf_extend saw, every mode's extension there)
    _extension: tuple | None = field(default=None, init=False, repr=False)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


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
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
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


def nystrom_matrix(c: float, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Dense sinc matrix W^(1/2) K W^(1/2) on any nodes with weights w.

    On Gauss-Legendre nodes of (-1, 1) it is the Nystrom matrix of K_c;
    on a line grid, ``nystrom_matrix(omega, grid.points, grid.weights)``
    is the band limiter S_omega, the tests' oracle for ``BandLimiter``.
    Exactly symmetric: the kernel is, and sqrt(w_i) sqrt(w_j) is one
    product for both (i, j) and (j, i).
    """
    sq = np.sqrt(weights)
    return np.outer(sq, sq) * sinc_kernel(c, nodes[:, None], nodes[None, :])


def min_quadrature_order(c: float) -> int:
    """Smallest admissible Nystrom order ceil(c) + 30.

    Gauss-Legendre nodes need about c points on (-1, 1) to resolve the
    kernel; the Shannon count 2c/pi is too few for large c, where the
    top eigenvalue then overshoots 1.  ``prolate_spectrum`` uses this
    order by default and refuses any smaller one.  The fixed margin of
    30 nodes falls short at large c (from about 350 for eight modes),
    where the top eigenvalue exceeds 1 + GAP_FLOOR and
    ``prolate_spectrum`` refuses the result.
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


def _parity_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs, in mode order, of a symmetric matrix that commutes with index reversal J.

    On the upper half u of the indices, the even block A[u, u] + A[u, Ju]
    gives columns 0, 2, 4, ... and the odd block A[u, u] - A[u, Ju] columns
    1, 3, 5, ...; together their eigenvalues are A's, and each column is
    exactly even or odd.  At odd order the even block is bordered by the
    middle index, its row and column scaled by 1/sqrt(2).
    """
    n = a.shape[0]
    up = np.arange(n // 2, n)
    middle = up == n - 1 - up  # the middle index, its own mirror image, is even
    odd, d = up[~middle], np.where(middle, math.sqrt(0.5), 1.0)
    even_block = (a[np.ix_(up, up)] + a[np.ix_(up, n - 1 - up)]) * np.outer(d, d)
    even_vals, x = _symmetric_eigdesc(even_block)
    odd_vals, y = _symmetric_eigdesc(a[np.ix_(odd, odd)] - a[np.ix_(odd, n - 1 - odd)])
    vals, vecs = np.empty(n), np.zeros((n, n))
    vals[0::2], vals[1::2] = even_vals, odd_vals
    vecs[up, 0::2] = vecs[n - 1 - up, 0::2] = x / (math.sqrt(2.0) * d[:, None])
    vecs[odd, 1::2] = y * math.sqrt(0.5)
    vecs[n - 1 - odd, 1::2] = -vecs[odd, 1::2]
    return vals, vecs


def prolate_spectrum(c: float, n_modes: int, order: int | None = None) -> ProlateSpectrum:
    """Leading eigenvalues and eigenfunction samples of the sinc-kernel operator.

    Parameters
    ----------
    c : float
        Positive time-bandwidth parameter.
    n_modes : int
        Number of leading eigenpairs to keep; must not exceed ``order``.
    order : int, optional
        Quadrature order, at least ``min_quadrature_order(c)``.  Defaults
        to that minimum (never below ``n_modes``); a larger order moves
        the eigenvalues only by roundoff.

    Returns
    -------
    ProlateSpectrum

    Raises
    ------
    ValueError
        Bad arguments (c not positive and finite, or an order below
        ``min_quadrature_order(c)``), an order whose Nystrom matrix
        exceeds DENSE_BUDGET_BYTES, or requested modes reach the
        eigensolver noise floor 1e-12 where eigenvalues are meaningless.
    NumericalFailure
        The dense symmetric eigensolver did not converge, or a returned
        eigenvalue exceeds 1 + GAP_FLOOR: the operator's norm is below 1,
        so the order under-resolves the top of the spectrum (at the
        default order, from c of about 350 for eight modes).
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
            f"order {order} under-resolves the spectrum at c={c}: "
            f"need at least ceil(c)+30 = {min_order}"
        )
    _require_dense_budget(order, "Nystrom matrix")

    rule = gauss_legendre_rule(order)
    vals, vecs = _parity_eigh(nystrom_matrix(c, rule.nodes, rule.weights))

    if vals[n_modes - 1] <= NOISE_FLOOR:
        raise ValueError(
            f"mode {n_modes - 1} at c={c} lies at or below the noise floor "
            f"{NOISE_FLOOR:g} (eigenvalue {vals[n_modes - 1]:.3e}); request fewer modes"
        )

    vals = vals[:n_modes].copy()
    if vals.max() > 1.0 + GAP_FLOOR:
        raise NumericalFailure(
            f"eigenvalue {vals.max():.17g} exceeds 1 + {GAP_FLOOR:.3g} at c={c:g}, "
            f"order {order}: the quadrature under-resolves the top of the spectrum"
        )
    vecs = vecs[:, :n_modes]
    sq = np.sqrt(rule.weights)
    modes = (vecs / sq[:, None]).T  # row n: psi_n at the nodes, weighted-orthonormal

    # Deterministic sign: first significantly nonzero sample positive.
    for row in modes:
        nz = np.flatnonzero(np.abs(row) > 1e-8)
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    vals.flags.writeable = False
    modes.flags.writeable = False

    return ProlateSpectrum(c=c, eigenvalues=vals, modes=modes, rule=rule)


def lambda0_asymptotic(c: float) -> float:
    """Leading large-c asymptotic 1 - 4 sqrt(pi) sqrt(c) exp(-2c) for lambda_0.

    The dropped correction is a relative 1 + O(1/c) factor on the gap
    1 - lambda_0.
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

    Tends to 1 as c grows, with an unquantified O(1/c) deviation
    (empirically about 0.47/c over c in [2, 8]).

    Raises
    ------
    NumericalFailure
        The computed gap is at or below GAP_FLOOR (for c above about
        16.3), so the ratio would be roundoff.
    """
    return _resolved_gap(c, lambda0_numeric) / (1.0 - lambda0_asymptotic(c))


def pswf_extend(spec: ProlateSpectrum, n: int, x):
    """Evaluate the bandlimited extension of mode n at arbitrary points.

    The eigenfunction relation extends psi_n off (-1, 1) as

        psi_tilde_n(x) = (1/lambda_n) integral_{-1}^{1} k_c(x, y) psi_n(y) dy,

    which restricts back to psi_n on (-1, 1).  The integral is evaluated
    with the spectrum's own quadrature rule.

    The first call at a point set evaluates the kernel there once and
    extends every mode of ``spec`` in one product; ``spec`` keeps those
    len(x) x n_modes values, so later calls at equal points (compared by
    value) reuse them for any mode.  A call at other points replaces them.

    Parameters
    ----------
    spec : ProlateSpectrum
    n : int
        Mode index, 0 <= n < spec.n_modes.
    x : float or 1-D ndarray
        Evaluation points anywhere on the line.

    Returns
    -------
    float or ndarray
        A new array (or float) the caller may modify.

    Raises
    ------
    ValueError
        Bad mode index, points of more than one dimension, or a
        len(x) x order kernel that exceeds DENSE_BUDGET_BYTES.
    """
    if not 0 <= n < spec.n_modes:
        raise ValueError(f"mode index {n} out of range (have {spec.n_modes} modes)")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"points must be a scalar or a 1-D array, got shape {xs.shape}")
    _require_dense_budget(xs.size, "extension kernel", cols=spec.rule.order)
    key = (xs.shape, xs.tobytes())
    cached = spec._extension
    if cached is None or cached[0] != key:
        kern = sinc_kernel(spec.c, np.atleast_1d(xs)[:, None], spec.rule.nodes[None, :])
        weighted = spec.rule.weights[:, None] * spec.modes.T
        cached = spec._extension = (key, kern @ weighted / spec.eigenvalues)
    vals = cached[1][:, n]
    return float(vals[0]) if xs.ndim == 0 else vals.copy()
