"""Time-limiting and band-limiting operators on a truncated line.

L^2(R) is discretized on a symmetric grid over (-L, L) built from
Gauss-Legendre panels.  On it this module assembles the time limiter
chi (multiplication by the indicator of (-tau, tau)), the band limiter
S (the sinc-kernel integral operator with bandwidth omega), and their
sum T = chi + S, then verifies the spectral picture of T numerically:
its eigenvalues away from {0, 1} come in pairs 1 +/- sqrt(lambda_n)
where lambda_n are the sinc-kernel eigenvalues at c = omega * tau,
eigenfunctions are assembled from a prolate mode and its bandlimited
extension, and shifted modulated Gaussians witness 0 in the spectrum.

All operator matrices act on weighted samples u = sqrt(w) f, which
keeps them real symmetric; ``GridFunction`` stores plain samples and
``GridFunction.weighted()`` converts them.

The grid's panels all have the same width, so an entry of S depends on
its row and column panel only through their offset: S is block
Toeplitz.  ``BandLimiter`` stores the FFT of one kernel block per
offset and applies S in O(n log n); no n x n matrix is formed.

Every eigenvector of T with a nonzero eigenvalue lies in range chi +
range S: the window nodes and the band-limited functions e^{i xi x},
|xi| < omega.  ``sum_operator_spectrum`` takes the eigenvalues of T by
Rayleigh-Ritz on k orthonormal columns q spanning that subspace to
roundoff: the unit vectors at the w window nodes, so that q^T chi q is
exactly diag(I_w, 0), then about omega L + 40 columns orthonormalized
on the rows off the window.  The work is O(n k^2) with no n x n array,
and a Weyl bound certifies the eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NumericalFailure,
    ProlateSpectrum,
    _require_dense_budget,
    _require_spectrum_at,
    _symmetric_eigdesc,
    gauss_legendre_rule,
    pswf_extend,
    sinc_kernel,
)

__all__ = [
    "LineGrid",
    "GridFunction",
    "BandLimiter",
    "LimitingOperators",
    "SumSpectrumReport",
    "build_line_grid",
    "build_time_limiter",
    "build_band_operator",
    "build_limiting_operators",
    "sum_operator_spectrum",
    "eigenfunction_witness",
    "zero_spectrum_witness",
]

# Target number of Gauss-Legendre nodes per grid panel.
PANEL_ORDER = 5

# Gauss nodes of (0, omega) for the Ritz basis beyond omega L / 2: enough for
# its columns to span range S to roundoff, as the Weyl bound certifies.
RITZ_EXTRA_NODES = 20

# Largest accepted Weyl bound on the distance of the eigenvalues of T from
# the padded Ritz values.
RITZ_TOLERANCE = 1e-10

# Basis columns per FFT application of S, which keeps its buffers small.
RITZ_BLOCK = 32


@dataclass(frozen=True, eq=False)
class LineGrid:
    """Symmetric quadrature grid for L^2(-L, L).

    Attributes
    ----------
    half_width : float
        The grid covers (-half_width, half_width).
    points : ndarray
        Strictly increasing nodes, symmetric about 0.
    weights : ndarray
        Positive quadrature weights summing to 2 * half_width.
    panel_orders : tuple of int
        Node count of each equal-width panel, left to right; empty for a
        grid without that layout, on which no band limiter can be built.
    """

    half_width: float
    points: np.ndarray
    weights: np.ndarray
    panel_orders: tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def max_spacing(self) -> float:
        return float(np.max(np.diff(self.points)))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex-valued samples of a function at the points of a LineGrid.

    Frozen: ``values`` is a read-only complex copy of the samples given,
    so the caller's array stays its own.  ``band_energy`` keeps one
    energy per bandwidth on the function; ``dataclasses.replace`` gives a
    function with none kept.
    """

    grid: LineGrid
    values: np.ndarray
    # omega -> Re <S_omega u, u> for u = sqrt(w) f, filled by band_energy
    _band_energies: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.points.shape:
            raise ValueError(
                f"value count {values.shape} does not match grid size {self.grid.size}"
            )

    @classmethod
    def from_callable(cls, grid: LineGrid, fn) -> "GridFunction":
        return cls(grid=grid, values=fn(grid.points))

    def weighted(self) -> np.ndarray:
        """Samples scaled by sqrt(w), the representation operators act on."""
        return np.sqrt(self.grid.weights) * self.values

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.grid.weights * np.abs(self.values) ** 2)))

    def normalized(self) -> "GridFunction":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero function")
        return GridFunction(grid=self.grid, values=self.values / n)

    def band_energy(self, omega: float) -> float:
        """Band energy Re <S_omega u, u> of u = sqrt(w) f, computed once per omega.

        S_omega is built on the function's grid and applied by FFT on the
        first call at ``omega``; later calls return the kept value.

        Raises
        ------
        ValueError
            Wherever ``build_band_operator`` refuses omega, on every call;
            nothing is kept for it.
        """
        energy = self._band_energies.get(omega)
        if energy is None:
            u = self.weighted()
            energy = float(np.real(np.conj(u) @ build_band_operator(self.grid, omega).matvec(u)))
            self._band_energies[omega] = energy
        return energy


def _panel_count(n: int) -> int:
    """Number of equal-width panels for n nodes, about n / PANEL_ORDER."""
    m = max(1, n // PANEL_ORDER)
    # A symmetric distribution needs an even surplus or a center panel.
    if m > 1 and m % 2 == 0 and (n % m) % 2 == 1:
        m -= 1
    return m


def _panel_orders(n: int) -> list[int]:
    """Split n nodes into a symmetric list of per-panel orders near PANEL_ORDER."""
    m = _panel_count(n)
    base, extra = divmod(n, m)
    orders = [base] * m
    if m % 2 == 1:
        center = m // 2
        if extra % 2 == 1:
            orders[center] += 1
            extra -= 1
        pairs = [(center - k, center + k) for k in range(1, center + 1)]
    else:
        pairs = [(m // 2 - 1 - j, m // 2 + j) for j in range(m // 2)]
    for i, j in pairs:
        if extra <= 0:
            break
        orders[i] += 1
        orders[j] += 1
        extra -= 2
    return orders


def build_line_grid(L: float, n: int) -> LineGrid:
    """Composite Gauss-Legendre grid with ``n`` nodes on (-L, L).

    The interval is split into equal-width panels of about five nodes
    each and a Gauss-Legendre rule is mapped affinely onto every panel.
    This keeps the node density essentially uniform (unlike one global
    Gauss rule, which crowds nodes at the endpoints) while retaining
    high per-panel accuracy.

    Parameters
    ----------
    L : float
        Positive half-width of the grid.
    n : int
        Total number of nodes, at least 2.

    Returns
    -------
    LineGrid

    Raises
    ------
    ValueError
        Bad arguments, or n points and weights over the dense-matrix budget,
        refused before anything of size n is built.
    """
    if not L > 0 or not math.isfinite(L):
        raise ValueError(f"half-width L must be positive and finite, got {L}")
    if n < 2:
        raise ValueError(f"need at least 2 grid points, got {n}")
    _require_dense_budget(n, "grid points and weights", cols=2)
    orders = _panel_orders(n)
    counts = np.asarray(orders)
    edges = np.linspace(-L, L, counts.size + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    starts = np.cumsum(counts) - counts
    points, weights = np.empty(n), np.empty(n)
    for order in sorted(set(orders)):  # one rule per distinct order, mapped onto its panels at once
        rule = gauss_legendre_rule(order)
        panels = counts == order
        slots = starts[panels, None] + np.arange(order)
        points[slots] = mid[panels, None] + half[panels, None] * rule.nodes
        weights[slots] = half[panels, None] * rule.weights
    return LineGrid(
        half_width=float(L),
        points=points,
        weights=weights,
        panel_orders=tuple(orders),
    )


def build_time_limiter(grid: LineGrid, tau: float) -> np.ndarray:
    """Diagonal 0/1 mask of the multiplication operator by 1_{(-tau, tau)}.

    Points exactly at +/-tau (a measure-zero event) receive 0.  Grid nodes
    are mirror-symmetric only to roundoff, so a mirror pair within
    roundoff of +/-tau can fall on opposite sides and receive different
    values; the mask is then not symmetric under x -> -x.

    Raises
    ------
    ValueError
        If tau <= 0 or tau >= grid.half_width; truncating inside the
        time window would invalidate every tail estimate downstream.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if tau >= grid.half_width:
        raise ValueError(
            f"tau={tau} must be smaller than the grid half-width {grid.half_width}"
        )
    return (np.abs(grid.points) < tau).astype(float)


@dataclass(frozen=True, eq=False)
class BandLimiter:
    """The band limiter S_omega on an equal-panel grid, stored by panel offset.

    S[i, j] = sqrt(w_i) k_omega(x_i - x_j) sqrt(w_j) depends on the panels
    a, b of rows i and j only through a - b, so S is block Toeplitz with
    one kernel block B_(a-b) per offset.  Each node is a slot of its
    panel: the slots are the nodes of every distinct panel order (at most
    two), and a panel leaves the slots of the other order empty.  The
    layout is then exactly block Toeplitz on mixed-order grids too.

    Attributes
    ----------
    spectrum : ndarray, shape (m + 1, p, p)
        Real FFT, along the offset axis, of the blocks B_d for panel
        offsets d = 1-m, ..., m-1 (B_(-d) the exact transpose of B_d)
        embedded in a circulant of period 2m; applies S by circular
        convolution.
    panel, slot : ndarray of int
        Panel and slot of every grid node.
    """

    spectrum: np.ndarray
    panel: np.ndarray
    slot: np.ndarray

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """S u for real or complex weighted samples u, in O(n log n) per column.

        ``u`` is one vector of shape (n,) or the columns of an (n, k) array.
        """
        u = np.asarray(u)
        if u.ndim not in (1, 2) or u.shape[0] != self.panel.size:
            raise ValueError(f"vector shape {u.shape} does not match grid size {self.panel.size}")
        m, p = self.spectrum.shape[0] - 1, self.spectrum.shape[1]
        parts = (u.real, u.imag) if np.iscomplexobj(u) else (u,)
        columns = np.stack(parts, axis=-1).reshape(self.panel.size, -1)
        x = np.zeros((m, p, columns.shape[1]))
        x[self.panel, self.slot] = columns
        y = np.fft.irfft(self.spectrum @ np.fft.rfft(x, n=2 * m, axis=0), n=2 * m, axis=0)
        y = y[self.panel, self.slot].reshape(*u.shape, len(parts))
        return y[..., 0] + 1j * y[..., 1] if len(parts) == 2 else y[..., 0]


def build_band_operator(grid: LineGrid, omega: float) -> BandLimiter:
    """The band limiter S_omega on ``grid``, from one kernel block per panel offset.

    Evaluates m * p^2 kernel values for m panels of at most p slots,
    instead of the n^2 of a dense assembly.

    Raises
    ------
    ValueError
        If omega <= 0, if the sampling adequacy condition
        max_spacing * omega < 1 fails (the kernel oscillation would be
        under-resolved), if the grid lacks the equal-panel layout of
        ``build_line_grid``, or if the 2m blocks of p x p kernel values
        exceed the dense-matrix budget.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    h = grid.max_spacing
    if h * omega >= 1.0:
        raise ValueError(
            f"grid too coarse for omega={omega}: max spacing h={h:.4g} "
            f"gives h*omega={h * omega:.4g} >= 1"
        )
    orders = np.asarray(grid.panel_orders, dtype=int)
    if orders.sum() != grid.size:
        raise ValueError("the band limiter needs a grid with the panel layout of build_line_grid")
    m = orders.size
    distinct = sorted(set(grid.panel_orders))
    p = sum(distinct)
    _require_dense_budget(2 * m * p, "kernel blocks of S", cols=p)
    rules = [gauss_legendre_rule(order) for order in distinct]
    first_slots = np.cumsum([0] + distinct[:-1])
    slots_of = {order: first + np.arange(order) for order, first in zip(distinct, first_slots)}
    panel = np.repeat(np.arange(m), orders)
    slot = np.concatenate([slots_of[order] for order in grid.panel_orders])

    half = grid.half_width / m
    offsets = half * np.concatenate([rule.nodes for rule in rules])
    sq = np.sqrt(half * np.concatenate([rule.weights for rule in rules]))
    gap = 2.0 * half * np.arange(m)[:, None, None] + offsets[:, None] - offsets[None, :]
    # sq_s sq_t is one product for both (s, t) and (t, s), so B_0 is exactly symmetric.
    ahead = np.outer(sq, sq) * sinc_kernel(omega, gap, 0.0)  # B_0, ..., B_(m-1)
    behind = ahead[:0:-1].transpose(0, 2, 1)  # B_(1-m), ..., B_(-1)
    circulant = np.concatenate([ahead, np.zeros((1, p, p)), behind])
    return BandLimiter(
        spectrum=np.fft.rfft(circulant, axis=0),
        panel=panel,
        slot=slot,
    )


@dataclass(eq=False)
class LimitingOperators:
    """The operators chi, S and T = chi + S on one grid.

    ``chi`` is stored as the diagonal 0/1 vector and S as the FFT of its
    kernel blocks (``band``); both act on weighted samples u = sqrt(w) f.
    """

    grid: LineGrid
    tau: float
    omega: float
    chi: np.ndarray
    band: BandLimiter

    @property
    def c(self) -> float:
        """Time-bandwidth parameter omega * tau of the sum operator."""
        return self.omega * self.tau


def build_limiting_operators(grid: LineGrid, tau: float, omega: float) -> LimitingOperators:
    """Set up chi, S and T = chi + S on ``grid``; no n x n matrix is formed."""
    chi = build_time_limiter(grid, tau)
    band = build_band_operator(grid, omega)
    return LimitingOperators(grid=grid, tau=tau, omega=omega, chi=chi, band=band)


@dataclass(eq=False)
class SumSpectrumReport:
    """Computed spectrum of T = chi + S against the paired prediction.

    The eigenvalues of T away from the accumulation points 0 and 1 are
    predicted to be 1 +/- sqrt(lambda_n) with lambda_n the sinc-kernel
    eigenvalues at c = omega * tau.  ``residuals_*`` hold absolute
    differences between computed eigenvalues and their predictions,
    matched greedily in descending order (nearest unused computed value
    per prediction, which is order-preserving for separated targets).
    ``lambda_min`` is the smallest eigenvalue of the complementary
    operator 2I - T, bounded below by 1 - sqrt(lambda_0).  Every
    eigenvalue of T lies within ``ritz_bound`` of ``computed_eigenvalues``.
    """

    computed_eigenvalues: np.ndarray
    predicted_above: np.ndarray
    predicted_below: np.ndarray
    matched_above: np.ndarray
    matched_below: np.ndarray
    residuals_above: np.ndarray
    residuals_below: np.ndarray
    lambda_min: float
    ritz_bound: float


def _greedy_match(predicted_desc: np.ndarray, pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Match predictions (descending) to nearest unused pool values.

    Raises NumericalFailure when the pool has fewer values than there are
    predictions, which would otherwise match one value twice.
    """
    if len(pool) < len(predicted_desc):
        raise NumericalFailure(
            f"{len(pool)} eigenvalues of T on one side of 1 for {len(predicted_desc)} "
            "predicted pairs: the grid does not resolve them"
        )
    available = pool.astype(float).copy()
    used = np.zeros(len(available), dtype=bool)
    matched = np.empty_like(predicted_desc)
    for i, p in enumerate(predicted_desc):
        dist = np.where(used, np.inf, np.abs(available - p))
        j = int(np.argmin(dist))
        used[j] = True
        matched[i] = available[j]
    return matched, np.abs(matched - predicted_desc)


def _ritz_frequency_count(half_width: float, omega: float) -> int:
    """Number M of Gauss nodes of (0, omega) in the Ritz basis on (-half_width, half_width)."""
    half_band = omega * half_width / 2
    if not math.isfinite(half_band):
        raise ValueError(f"omega * L / 2 overflows a float at omega={omega:g}, L={half_width:g}")
    return math.ceil(half_band) + RITZ_EXTRA_NODES


def _ritz_column_bound(half_width: float, n: int, tau: float, omega: float) -> int:
    """Upper bound on the column count of ``_ritz_basis``, from the grid's arguments alone.

    The basis has 2M frequency columns and one per window node.  Of the m
    equal panels of ``build_line_grid``, at most ceil(tau m / L) + 1 meet
    (-tau, tau), and each holds at most ceil(n / m) nodes.
    """
    m = _panel_count(n)
    panels = math.ceil(tau / half_width * m) + 1 if 0 < tau < half_width else m
    return 2 * _ritz_frequency_count(half_width, omega) + min(n, panels * -(-n // m))


def _ritz_basis(ops: LimitingOperators) -> np.ndarray:
    """Orthonormal columns spanning range chi + range S to roundoff, window nodes first.

    The first w columns are the unit vectors at the w window nodes, which span range chi.
    S has the kernel (1/pi) integral_0^omega cos(xi (x - y)) d xi.  Its range is spanned
    to roundoff by sqrt(w) cos(xi_j x) and sqrt(w) sin(xi_j x) at M Gauss nodes xi_j of
    (0, omega), as ``_ritz_eigenvalues`` certifies after the fact, although the rule does
    not integrate the kernel to roundoff for every |x - y| <= 2L at large L.  Such a column
    minus its off-window rows lies in range chi, so the other columns are the reduced QR
    factor of those rows alone.  Raises ValueError where n x (2M + w) exceeds the budget.
    """
    grid = ops.grid
    m = _ritz_frequency_count(grid.half_width, ops.omega)
    window, off = np.flatnonzero(ops.chi), np.flatnonzero(ops.chi == 0.0)
    _require_dense_budget(grid.size, "Ritz basis of chi + S", cols=2 * m + window.size)
    xi = 0.5 * ops.omega * (1.0 + gauss_legendre_rule(m).nodes)
    band = np.empty((off.size, 2 * m))
    np.multiply.outer(grid.points[off], xi, out=band[:, :m])  # the phases xi_j x
    np.sin(band[:, :m], out=band[:, m:])
    np.cos(band[:, :m], out=band[:, :m])
    band *= np.sqrt(grid.weights[off])[:, None]
    band = np.linalg.qr(band)[0]
    q = np.zeros((grid.size, window.size + band.shape[1]))
    q[window, np.arange(window.size)] = 1.0
    q[off, window.size :] = band
    return q


def _ritz_eigenvalues(ops: LimitingOperators, q: np.ndarray) -> tuple[np.ndarray, float]:
    """All n eigenvalues of T, descending, by Rayleigh-Ritz on the orthonormal columns of q.

    The first w columns of q are the unit vectors at the w window nodes, as in
    ``_ritz_basis``, so q^T chi q = diag(I_w, 0) and P chi P = chi for P = q q^T.
    S is positive semidefinite, so

        ||T - P T P||_2 <= ||S q - q q^T S q||_F + |tr S - tr q^T S q| = eps.

    By Weyl's inequality every eigenvalue of T then lies within eps of the
    eigenvalues of P T P: those of q^T T q, padded with n - k zeros; returns them and eps.

    Raises NumericalFailure when eps exceeds ``RITZ_TOLERANCE``: q does not
    span the eigenvectors of T.
    """
    n, k = q.shape
    s_q = np.empty_like(q)
    for j in range(0, k, RITZ_BLOCK):
        s_q[:, j : j + RITZ_BLOCK] = ops.band.matvec(q[:, j : j + RITZ_BLOCK])
    a = q.T @ s_q
    s_q -= q @ a  # now the residual (I - P) S q
    trace_s = ops.omega / np.pi * ops.grid.weights.sum()
    bound = float(np.linalg.norm(s_q) + abs(trace_s - np.trace(a)))
    if not bound <= RITZ_TOLERANCE:
        raise NumericalFailure(
            f"Ritz basis of order {k} misses the spectrum of T: Weyl bound {bound:.3g} "
            f"exceeds {RITZ_TOLERANCE:g}"
        )
    a[np.diag_indices(np.count_nonzero(ops.chi))] += 1.0  # q^T T q
    ritz = _symmetric_eigdesc(a, vectors=False)
    return np.sort(np.concatenate([ritz, np.zeros(n - k)]))[::-1], bound


def sum_operator_spectrum(
    ops: LimitingOperators, n_report: int, spec: ProlateSpectrum
) -> SumSpectrumReport:
    """Eigenvalues of T = chi + S against the 1 +/- sqrt(lambda_n) pairs.

    The eigenvectors of T with nonzero eigenvalues lie in range chi +
    range S, which k orthonormal columns q span to roundoff: the unit
    vectors at the w window nodes, then the QR factor of sqrt(w) cos(xi_j x),
    sqrt(w) sin(xi_j x) at M = ceil(omega L / 2) + 20 Gauss nodes xi_j of
    (0, omega) on the n - w rows off the window (k = w + min(2M, n - w)).
    The eigenvalues of q^T T q, padded with n - k zeros, are all n
    eigenvalues of T to within the Weyl bound ``ritz_bound``, about 1e-13
    on the line grids.  S q is applied by FFT, so no n x n array is
    formed, and the work is O(n k^2).

    Parameters
    ----------
    ops : LimitingOperators
    n_report : int
        Number of eigenvalue pairs to match on each side of 1.
    spec : ProlateSpectrum
        Reference sinc-kernel spectrum at c = omega * tau with at least
        ``n_report`` modes, for instance ``prolate_spectrum(ops.c, n_report)``.

    Returns
    -------
    SumSpectrumReport

    Raises
    ------
    ValueError
        Bad arguments, a reference spectrum at another c or with too few
        modes, or a basis over the dense-matrix budget.
    NumericalFailure
        The Weyl bound exceeds ``RITZ_TOLERANCE``, or the eigensolver failed.
    """
    if n_report < 1:
        raise ValueError(f"n_report must be >= 1, got {n_report}")
    if n_report > ops.grid.size:
        raise ValueError(f"n_report={n_report} exceeds grid size {ops.grid.size}")
    _require_spectrum_at(spec, ops.c, "chi + S at omega*tau")
    if spec.n_modes < n_report:
        raise ValueError(f"reference spectrum has {spec.n_modes} modes, need {n_report}")

    evals, bound = _ritz_eigenvalues(ops, _ritz_basis(ops))
    roots = np.sqrt(spec.eigenvalues[:n_report])
    predicted_above = 1.0 + roots  # descending
    predicted_below = np.sort(1.0 - roots)[::-1]  # descending

    matched_above, res_above = _greedy_match(predicted_above, evals[evals > 1.0])
    matched_below, res_below = _greedy_match(
        predicted_below, evals[(evals > 0.0) & (evals < 1.0)]
    )

    return SumSpectrumReport(
        computed_eigenvalues=evals,
        predicted_above=predicted_above,
        predicted_below=predicted_below,
        matched_above=matched_above,
        matched_below=matched_below,
        residuals_above=res_above,
        residuals_below=res_below,
        lambda_min=float(2.0 - evals[0]),
        ritz_bound=bound,
    )


def eigenfunction_witness(
    spec: ProlateSpectrum,
    ops: LimitingOperators,
    n: int,
    sign: int,
) -> float:
    """Relative residual of the assembled eigenfunction of T at 1 + sign*sqrt(lambda_n).

    The candidate is f = psi_n + (lambda - 1) psi_tilde_n, i.e. the
    time-limited mode plus its scaled bandlimited extension: on the
    window (-tau, tau) this equals lambda * psi_tilde_n, outside it
    equals (lambda - 1) * psi_tilde_n.  Arguments are rescaled by tau so
    the mode lives on the window.

    Parameters
    ----------
    spec : ProlateSpectrum
        Must be computed at c = omega * tau.
    ops : LimitingOperators
    n : int
        Mode index.
    sign : int
        +1 or -1, selecting the branch of 1 +/- sqrt(lambda_n).

    Returns
    -------
    float
        ||T f - lambda f|| / ||f|| on the grid.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _require_spectrum_at(spec, ops.c, "chi + S at omega*tau")
    ext = pswf_extend(spec, n, ops.grid.points / ops.tau)  # refuses a bad mode index
    lam = 1.0 + sign * np.sqrt(spec.eigenvalues[n])
    inside = ops.chi > 0.5
    f = np.where(inside, lam * ext, (lam - 1.0) * ext)
    u = np.sqrt(ops.grid.weights) * f
    resid = ops.chi * u + ops.band.matvec(u) - lam * u
    return float(np.linalg.norm(resid) / np.linalg.norm(u))


def zero_spectrum_witness(ops: LimitingOperators, n: int) -> float:
    """Rayleigh ratio ||T f_n|| / ||f_n|| for the witness f_n(x) = e^{inx} e^{-(x - n)^2}.

    For growing n the bump drifts out of the time window while its
    modulation drifts out of the band, so the ratio tends to 0 and
    witnesses 0 in the spectrum of T.  All f_n share the norm of f_0;
    this is verified on the grid to 1e-6 as a quadrature sanity check.

    Parameters
    ----------
    ops : LimitingOperators
    n : int
        Nonnegative shift/modulation index.  The grid must satisfy
        half_width >= n + 6 so the bump fits well inside.

    Returns
    -------
    float
    """
    if n < 0:
        raise ValueError(f"witness index must be nonnegative, got {n}")
    if ops.grid.half_width < n + 6:
        raise ValueError(
            f"grid half-width {ops.grid.half_width} too small for witness index {n}: "
            f"need at least n + 6 = {n + 6}"
        )
    x = ops.grid.points
    u = np.sqrt(ops.grid.weights) * np.exp(1j * n * x - (x - n) ** 2)
    u0 = np.sqrt(ops.grid.weights) * np.exp(-(x**2))
    norm_n, norm_0 = np.linalg.norm(u), np.linalg.norm(u0)
    if abs(norm_n - norm_0) > 1e-6:
        raise NumericalFailure(
            f"witness norm drifted: ||f_{n}|| = {norm_n:.9f} vs ||f_0|| = {norm_0:.9f}; "
            "the grid under-resolves the shifted bump"
        )
    t_u = ops.chi * u + ops.band.matvec(u)
    return float(np.linalg.norm(t_u) / norm_n)

