"""Time-limiting and band-limiting operators on a truncated line.

L^2(R) is discretized on a grid over (-L, L) of equal-width
Gauss-Legendre panels mirrored about 0; a ``LineGrid`` is that panel
layout, with the panel and slot of every node.  On it this module
assembles the time limiter chi (multiplication by the indicator of
(-tau, tau)), the band limiter S (the sinc-kernel integral operator
with bandwidth omega), and their sum T = chi + S, then verifies the
spectral picture of T numerically: its eigenvalues away from {0, 1}
come in pairs 1 +/- sqrt(lambda_n) where lambda_n are the sinc-kernel
eigenvalues at c = omega * tau, eigenfunctions are assembled from a
prolate mode and its bandlimited extension, and shifted modulated
Gaussians witness 0 in the spectrum.

All operator matrices act on weighted samples u = sqrt(w) f, which
keeps them real symmetric; ``GridFunction`` stores plain samples and
``GridFunction.weighted()`` converts them.

The grid's panels all have the same width, so an entry of S depends on
its row and column panel only through their offset: S is block
Toeplitz on the grid's slots.  ``BandLimiter`` stores the FFT of one
kernel block per offset and applies S in O(n log n); no n x n matrix is
formed.  A band energy <S u, u> applies no S: by Parseval it is one
inner product of that FFT with the panel Gram of u, which the function
keeps (``GridFunction.band_energy``).

Every eigenvector of T with a nonzero eigenvalue lies in range chi +
range S: the window nodes and the band-limited functions e^{i xi x},
|xi| < omega.  ``sum_operator_spectrum`` takes the eigenvalues of T by
Rayleigh-Ritz on k orthonormal columns q spanning that subspace to
roundoff: the unit vectors at the window nodes and their mirror nodes,
then a cos and a sin column at each of M = ceil(omega L / pi +
4 ln(1 + omega L)) + 4 Gauss nodes conformally mapped onto (0, omega):
k = 122, 186 and 306 at L = 30, 60 and 120 (tau = 1, omega = 3,
n = 20 L), with Weyl bounds 1.1e-14, 3.8e-14 and 1.3e-13.  Each column
is even or odd under x -> -x and S commutes with the mirror, so q and
S q are held on the right-hand half of the rows, one block per parity,
and one FFT applies S to an even and an odd column at once.  The work is
about n k^2 / 4 with no n x n array, and a Weyl bound certifies the
eigenvalues.
"""

from __future__ import annotations

import functools
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

# Largest accepted Weyl bound on the distance of the eigenvalues of T from
# the padded Ritz values.
RITZ_TOLERANCE = 1e-10

# Basis columns per FFT application of S, which keeps its buffers small.
RITZ_BLOCK = 32


@dataclass(frozen=True, eq=False)
class LineGrid:
    """Composite Gauss-Legendre grid on (-L, L): equal-width panels mirrored about 0.

    The grid is its panel layout: the constructor maps the Gauss-Legendre
    rule of each panel's order affinely onto the panel and numbers every
    node by its panel and slot.  The slots of a panel are the nodes of
    every distinct order, each order's in turn, and a panel of one order
    leaves the slots of the others empty, so the kernel of S depends on
    the panels of two nodes only through their offset.

    Attributes
    ----------
    half_width : float
        The grid covers (-half_width, half_width).
    panel_orders : tuple of int
        Node count of each equal-width panel, left to right; it reads the
        same backwards, so node i mirrors node size - 1 - i.
    points : ndarray
        Strictly increasing nodes, symmetric about 0.
    weights : ndarray
        Positive quadrature weights summing to 2 * half_width.
    panel, slot : ndarray of int
        Panel and slot of every node.
    slot_nodes, slot_weights : ndarray
        Gauss-Legendre rule on (-1, 1) of every slot: each distinct order's in turn.

    The grid keeps the band limiter S_omega of each bandwidth that
    ``build_band_operator`` has built on it, so every operator and function
    on one grid shares one S_omega, and its ``max_spacing`` once read;
    ``dataclasses.replace`` gives a grid with none kept.

    Raises
    ------
    ValueError
        A half-width that is not positive and finite, or panel orders that
        are empty, not positive integers, or not a palindrome.
    """

    half_width: float
    panel_orders: tuple[int, ...]
    points: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    panel: np.ndarray = field(init=False, repr=False)
    slot: np.ndarray = field(init=False, repr=False)
    slot_nodes: np.ndarray = field(init=False, repr=False)
    slot_weights: np.ndarray = field(init=False, repr=False)
    # omega -> the BandLimiter S_omega on this grid, filled by build_band_operator
    _bands: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        L, orders = self.half_width, self.panel_orders
        if not L > 0 or not math.isfinite(L):
            raise ValueError(f"half-width L must be positive and finite, got {L}")
        counts = np.asarray(orders)
        if counts.ndim != 1 or not counts.size or counts.dtype.kind not in "iu" or counts.min() < 1:
            raise ValueError(f"panel orders must be positive integers, at least one, got {orders}")
        if not np.array_equal(counts, counts[::-1]):
            raise ValueError(f"panel orders must read the same backwards, got {orders}")
        distinct = sorted(set(orders))
        rules = [gauss_legendre_rule(order) for order in distinct]
        first = np.cumsum([0] + distinct[:-1])[np.searchsorted(distinct, counts)]
        starts = np.cumsum(counts) - counts
        panel = np.repeat(np.arange(counts.size), counts)
        slot = np.arange(panel.size) - (starts - first)[panel]
        edges = np.linspace(-L, L, counts.size + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        object.__setattr__(self, "slot_nodes", np.concatenate([rule.nodes for rule in rules]))
        object.__setattr__(self, "slot_weights", np.concatenate([rule.weights for rule in rules]))
        object.__setattr__(self, "points", mid[panel] + half[panel] * self.slot_nodes[slot])
        object.__setattr__(self, "weights", half[panel] * self.slot_weights[slot])
        object.__setattr__(self, "panel", panel)
        object.__setattr__(self, "slot", slot)

    @property
    def size(self) -> int:
        return len(self.points)

    @functools.cached_property
    def max_spacing(self) -> float:
        return float(np.max(np.diff(self.points)))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex-valued samples of a function at the points of a LineGrid.

    Frozen: ``values`` is a read-only complex copy of the samples given,
    so the caller's array stays its own.  ``norm`` keeps the norm,
    ``window_mass`` and ``outside_mass`` the masses inside and outside
    each window, and ``band_energy`` the panel Gram of the samples and
    one energy per bandwidth on the function; ``dataclasses.replace``
    gives a function with none kept.
    """

    grid: LineGrid
    values: np.ndarray
    # The L^2 norm, filled by norm
    _norm: float | None = field(default=None, init=False, repr=False)
    # half-width -> masses of |f|^2 inside it and outside it, filled by window_mass and outside_mass
    _window_masses: dict = field(default_factory=dict, init=False, repr=False)
    # BandLimiter.gram of u = sqrt(w) f, filled by band_energy
    _gram: np.ndarray | None = field(default=None, init=False, repr=False)
    # omega -> Re <S_omega u, u>, filled by band_energy
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
        """The L^2 norm on the grid, computed once; inf only where the norm itself overflows a float.

        The samples are scaled by the power of two of max |f| before they are
        squared, which is exact, so no square overflows or underflows for
        want of scale.  The samples are read-only, so later calls return the
        kept value.
        """
        if self._norm is None:
            modulus = np.abs(self.values)
            exponent = math.frexp(float(modulus.max()))[1]
            root = np.sqrt(np.sum(self.grid.weights * np.ldexp(modulus, -exponent) ** 2))
            with np.errstate(over="ignore"):
                object.__setattr__(self, "_norm", float(np.ldexp(root, exponent)))
        return self._norm

    def normalized(self) -> "GridFunction":
        """The function divided by its norm.

        Raises
        ------
        ValueError
            For non-finite samples, the zero function, or a norm that
            overflows a float or is subnormal, where it has lost digits and
            the complex division by it overflows.
        """
        if not np.isfinite(self.values).all():
            raise ValueError("cannot normalize a function with non-finite samples")
        n = self.norm()
        if not np.finfo(float).tiny <= n < math.inf:
            raise ValueError(f"cannot normalize a function of norm {n:g} in floating point")
        return GridFunction(grid=self.grid, values=self.values / n)

    def window_mass(self, half_width: float) -> float:
        """Quadrature of |f|^2 over the nodes inside (-half_width, half_width), computed once per half-width.

        Raises
        ------
        ValueError
            A half-width that is not positive, on every call.
        """
        return self._masses(half_width)[0]

    def outside_mass(self, half_width: float) -> float:
        """Quadrature of |f|^2 over the nodes outside (-half_width, half_width), kept with ``window_mass``.

        Exactly 0 for a function whose samples vanish outside the window,
        where ``norm() ** 2 - window_mass`` would be roundoff.

        Raises
        ------
        ValueError
            A half-width that is not positive, on every call.
        """
        return self._masses(half_width)[1]

    def _masses(self, half_width: float) -> tuple[float, float]:
        if not half_width > 0:
            raise ValueError(f"half-width must be positive, got {half_width}")
        masses = self._window_masses.get(half_width)
        if masses is None:
            masses = self._window_masses[half_width] = _window_sum(self.grid, self.values, half_width)
        return masses

    def band_energy(self, omega: float) -> float:
        """Band energy Re <S_omega u, u> of u = sqrt(w) f, computed once per omega.

        The first call on the function keeps the panel Gram G of u
        (``BandLimiter.gram``), and the first call at ``omega`` contracts it
        with the block spectrum of S_omega (``build_band_operator``, kept on
        the grid): one inner product by Parseval, with no inverse FFT.
        Later calls at ``omega`` return the kept value.

        Raises
        ------
        ValueError
            Wherever ``build_band_operator`` refuses omega, on every call;
            nothing is kept for it.
        """
        energy = self._band_energies.get(omega)
        if energy is None:
            band = build_band_operator(self.grid, omega)
            if self._gram is None:
                u = self.weighted()
                # The imaginary column of real samples would add only zeros to G.
                object.__setattr__(self, "_gram", band.gram(u if u.imag.any() else u.real))
            energy = self._band_energies[omega] = band.energy(self._gram)
        return energy


def _window_sum(grid: LineGrid, values: np.ndarray, half_width: float) -> tuple[float, float]:
    """Sums of w |f|^2 over the grid nodes inside (-half_width, half_width) and over the others."""
    inside = np.abs(grid.points) < half_width
    mass = grid.weights * np.abs(values) ** 2
    return float(np.sum(mass[inside])), float(np.sum(mass[~inside]))


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

    The interval is split into a palindromic list of equal-width panels
    of about five nodes each, and ``LineGrid`` maps a Gauss-Legendre rule
    affinely onto every panel.  This keeps the node density essentially
    uniform (unlike one global Gauss rule, which crowds nodes at the
    endpoints) while retaining high per-panel accuracy.

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
    if n < 2:
        raise ValueError(f"need at least 2 grid points, got {n}")
    _require_dense_budget(n, "grid points and weights", cols=2)
    return LineGrid(float(L), tuple(_panel_orders(n)))


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
    one kernel block B_(a-b) per offset, indexed by the slots of
    ``LineGrid``; mixed-order grids included.

    Attributes
    ----------
    spectrum : ndarray, shape (m + 1, p, p)
        Real FFT, along the offset axis, of the blocks B_d for panel
        offsets d = 1-m, ..., m-1 (B_(-d) the exact transpose of B_d)
        embedded in a circulant of period 2m; applies S by circular
        convolution (``matvec``) and gives Re <S u, u> by Parseval
        (``gram``, ``energy``).  Read-only: the grid keeps the limiter and
        shares it.
    panel, slot : ndarray of int
        The grid's panel and slot of every node.
    """

    spectrum: np.ndarray
    panel: np.ndarray
    slot: np.ndarray

    def panel_spectrum(self, u: np.ndarray) -> np.ndarray:
        """Real FFT along the panels of u scattered onto the (panel, slot) array, shape (m + 1, p, columns).

        ``u`` is one vector of shape (n,) or the columns of an (n, k) array;
        complex samples give a real and an imaginary column for each.
        """
        u = np.asarray(u)
        if u.ndim not in (1, 2) or u.shape[0] != self.panel.size:
            raise ValueError(f"vector shape {u.shape} does not match grid size {self.panel.size}")
        m, p = self.spectrum.shape[0] - 1, self.spectrum.shape[1]
        if np.iscomplexobj(u):  # a contiguous complex array interleaves the two columns
            u = np.ascontiguousarray(u, dtype=complex).view(float)
        x = np.zeros((m, p, u.size // self.panel.size))
        x[self.panel, self.slot] = u.reshape(self.panel.size, -1)
        return np.fft.rfft(x, n=2 * m, axis=0)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """S u for real or complex weighted samples u, in O(n log n) per column.

        ``u`` is one vector of shape (n,) or the columns of an (n, k) array.
        """
        u = np.asarray(u)
        m = self.spectrum.shape[0] - 1
        y = np.fft.irfft(self.spectrum @ self.panel_spectrum(u), n=2 * m, axis=0)[self.panel, self.slot]
        return (y.view(complex) if np.iscomplexobj(u) else y).reshape(u.shape)

    def gram(self, u: np.ndarray) -> np.ndarray:
        """Panel Gram G_k = c_k x_k x_k^H / 2m of the columns x = ``panel_spectrum(u)``, shape (m + 1, p, p).

        c_k is 1 at k = 0 and k = m and 2 otherwise: frequency k stands for
        itself and its conjugate 2m - k of the period-2m transform.  G does
        not depend on omega, so one G serves every S_omega on the grid.
        """
        x = self.panel_spectrum(u)
        m = x.shape[0] - 1
        c = np.full(m + 1, 1.0 / m)
        c[[0, m]] = 0.5 / m
        return c[:, None, None] * (x @ x.conj().transpose(0, 2, 1))

    def energy(self, gram: np.ndarray) -> float:
        """Re <S u, u> from the panel Gram of u, by Parseval: Re sum_k tr(G_k^H S^_k).

        Each block S^_k is Hermitian, since B_(-d) = B_d^T, so the sum is real
        up to roundoff: one inner product of length (m + 1) p^2.
        """
        return float(np.vdot(gram, self.spectrum).real)


def build_band_operator(grid: LineGrid, omega: float) -> BandLimiter:
    """The band limiter S_omega on ``grid``, from one kernel block per panel offset.

    Evaluates m * p^2 kernel values for m panels of at most p slots,
    instead of the n^2 of a dense assembly.  The first call at ``omega``
    builds S_omega and keeps it on the grid; later calls return that
    object, whose ``spectrum`` is read-only.

    Raises
    ------
    ValueError
        If omega <= 0 or if the sampling adequacy condition
        max_spacing * omega < 1 fails (the kernel oscillation would be
        under-resolved), on every call, kept S or not; or, where S_omega
        is not kept yet, if the 2m blocks of p x p kernel values exceed
        the dense-matrix budget.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    h = grid.max_spacing
    if h * omega >= 1.0:
        raise ValueError(
            f"grid too coarse for omega={omega}: max spacing h={h:.4g} "
            f"gives h*omega={h * omega:.4g} >= 1"
        )
    band = grid._bands.get(omega)
    if band is not None:
        return band
    m, p = len(grid.panel_orders), grid.slot_nodes.size
    _require_dense_budget(2 * m * p, "kernel blocks of S", cols=p)
    half = grid.half_width / m
    offsets = half * grid.slot_nodes
    sq = np.sqrt(half * grid.slot_weights)
    gap = 2.0 * half * np.arange(m)[:, None, None] + offsets[:, None] - offsets[None, :]
    # sq_s sq_t is one product for both (s, t) and (t, s), so B_0 is exactly symmetric.
    ahead = np.outer(sq, sq) * sinc_kernel(omega, gap, 0.0)  # B_0, ..., B_(m-1)
    behind = ahead[:0:-1].transpose(0, 2, 1)  # B_(1-m), ..., B_(-1)
    circulant = np.concatenate([ahead, np.zeros((1, p, p)), behind])
    spectrum = np.fft.rfft(circulant, axis=0)
    spectrum.flags.writeable = False
    band = grid._bands[omega] = BandLimiter(spectrum=spectrum, panel=grid.panel, slot=grid.slot)
    return band


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
    """Set up chi, S and T = chi + S on ``grid``; no n x n matrix is formed.

    ``band`` is the S_omega kept on the grid, the one ``GridFunction.band_energy`` applies.
    """
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
    """Number M of frequencies in the Ritz basis on (-half_width, half_width).

    M = ceil(omega L / pi + 4 ln(1 + omega L)) + 4.  Range S on (-L, L) has about
    omega L / pi + O(log omega L) eigenvalues of each parity above roundoff (Landau and
    Widom, J. Math. Anal. Appl. 77, 1980), and ``_ritz_frequencies`` samples (0, omega)
    nearly uniformly, so M stays that close to it; the Weyl bound certifies the count.
    """
    band = omega * half_width
    if not math.isfinite(band):
        raise ValueError(f"omega * L overflows a float at omega={omega:g}, L={half_width:g}")
    return math.ceil(band / math.pi + 4 * math.log1p(band)) + 4


def _ritz_frequencies(omega: float, m: int) -> np.ndarray:
    """The m Gauss-Legendre nodes s_j of (-1, 1) mapped onto (0, omega) by Kosloff-Tal-Ezer.

    xi_j = (omega / 2) (1 + arcsin(alpha s_j) / arcsin(alpha)) with alpha = sech(ln(1e-16) / m).
    Gauss nodes crowd the ends of the interval, so they sample a band-limited integrand
    about pi / 2 times more densely than it needs; the map spreads them nearly evenly.
    Its branch points +/- 1 / alpha lie on the Bernstein ellipse where the m-point rule
    converges like 1e-16, so the map costs the rule no accuracy above that (Hale and
    Trefethen, SIAM J. Numer. Anal. 46, 2008).  The xi_j increase strictly inside
    (0, omega) and mirror about omega / 2.
    """
    alpha = 1.0 / math.cosh(math.log(1e-16) / m)
    return 0.5 * omega * (1.0 + np.arcsin(alpha * gauss_legendre_rule(m).nodes) / math.asin(alpha))


def _ritz_column_bound(half_width: float, n: int, tau: float, omega: float) -> int:
    """Upper bound on the column count of ``_ritz_basis``, from the grid's arguments alone.

    The basis has at most 2M frequency columns and one unit column per window
    node, mirror of one, or centre node.  Of the m equal panels of
    ``build_line_grid``, at most ceil(tau m / L) + 1 meet (-tau, tau), the
    window's mirror image meets the same ones, and each holds at most
    ceil(n / m) nodes.
    """
    m = _panel_count(n)
    panels = math.ceil(tau / half_width * m) + 1 if 0 < tau < half_width else m
    return 2 * _ritz_frequency_count(half_width, omega) + min(n, panels * -(-n // m))


def _ritz_basis(ops: LimitingOperators) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal half-row blocks, one per parity, spanning range chi + range S to roundoff.

    S has the kernel (1/pi) integral_0^omega cos(xi (x - y)) d xi.  Its range is spanned
    to roundoff by sqrt(w) cos(xi_j x) and sqrt(w) sin(xi_j x) at the M mapped Gauss
    nodes xi_j of ``_ritz_frequencies``, as ``_ritz_eigenvalues`` certifies after the fact.

    Row i mirrors row n - 1 - i, as on every ``LineGrid``, so a vector even or odd under
    x -> -x is fixed by its half rows n // 2, ..., n - 1.  A half column v stands for the
    vector with v / sqrt(2) on each right-hand row and +v / sqrt(2) (even) or -v / sqrt(2)
    (odd) on its mirror row; on an odd grid's centre row an even vector holds v itself and
    an odd one 0.  The map is an isometry, so orthonormal half columns stand for
    orthonormal vectors.

    The unit rows are the window rows, their mirror rows and an odd grid's centre row, w'
    in all.  Each block starts with a unit column at each right-hand unit row (the odd
    block skips the centre row), followed by the reduced QR factor of the cos (even) or
    sin (odd) columns on the other half rows: k = w' + 2 min(M, (n - w') / 2) columns in
    all.  Returns the even block, the odd block and the half rows of the even block's
    unit columns.  Raises ValueError where the n x k basis they stand for exceeds the
    budget.
    """
    grid = ops.grid
    n, half = grid.size, grid.size // 2
    m = _ritz_frequency_count(grid.half_width, ops.omega)
    unit = (ops.chi != 0.0) | (ops.chi[::-1] != 0.0)
    unit[half] |= n % 2 == 1  # the centre row of an odd grid is its own mirror
    rows = np.flatnonzero(unit[half:])
    other = np.flatnonzero(~unit[half:])
    pairs = min(m, other.size)
    _require_dense_budget(n, "Ritz basis of chi + S", cols=2 * rows.size - n % 2 + 2 * pairs)
    phase = np.multiply.outer(grid.points[half + other], _ritz_frequencies(ops.omega, m))
    sqrt_w = np.sqrt(grid.weights[half + other])[:, None]
    blocks = []
    for f, units in ((np.cos, rows), (np.sin, rows[n % 2 :])):
        q = np.zeros((n - half, units.size + pairs))
        q[units, np.arange(units.size)] = 1.0
        q[other, units.size :] = np.linalg.qr(sqrt_w * f(phase))[0]
        blocks.append(q)
    return blocks[0], blocks[1], rows


def _folded_band(band: BandLimiter, even: np.ndarray, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S on the even and odd half-row columns of ``_ritz_basis``, one FFT per column pair.

    S commutes with the mirror J: x -> -x, so it maps even vectors to even ones and odd
    to odd.  Column j of each block unfolds into u = even_j + odd_j, and the even and
    odd parts (Su +/- J Su) / 2, folded back onto the half rows, are S even_j and
    S odd_j.  ``odd`` has as many columns as ``even`` or one fewer.
    """
    n = band.panel.size
    half, centre = n // 2, n % 2
    r = math.sqrt(0.5)
    s_even, s_odd = np.empty_like(even), np.empty_like(odd)
    for j in range(0, even.shape[1], RITZ_BLOCK):
        cols = slice(j, j + RITZ_BLOCK)
        a, b = even[:, cols], odd[:, cols]
        pair = slice(0, b.shape[1])
        u = np.empty((n, a.shape[1]))
        top, bottom = u[half:], u[:half][::-1]  # bottom row i mirrors top row i + centre
        top[:] = a
        top[:, pair] += b
        bottom[:] = a[centre:]
        bottom[:, pair] -= b[centre:]
        u[:half] *= r
        u[half + centre :] *= r
        y = band.matvec(u)
        top, bottom = y[half:], y[:half][::-1]
        s_even[:, cols] = top
        s_even[centre:, cols] += bottom
        s_even[centre:, cols] *= r
        s_odd[:, cols] = top[:, pair]
        s_odd[centre:, cols] -= bottom[:, pair]
        s_odd[centre:, cols] *= r
    s_odd[:centre] = 0.0
    return s_even, s_odd


def _ritz_eigenvalues(
    ops: LimitingOperators, even: np.ndarray, odd: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, float]:
    """All n eigenvalues of T, descending, by Rayleigh-Ritz on the folded columns of ``_ritz_basis``.

    Let q be the n x k unfolded basis, the even block then the odd one.  S maps each
    parity to itself, so q^T S q is block diagonal with blocks A = Q^T (S Q) of the half-row
    blocks Q, and the residual S q - q q^T S q has the blocks R = S Q - Q A.  The unit
    columns hold every window node and the others vanish at ``rows``, so P chi P = chi for
    P = q q^T.  S is positive semidefinite, so

        ||T - P T P||_2 <= sqrt(||R_even||_F^2 + ||R_odd||_F^2) + |tr S - tr A_even - tr A_odd| = eps.

    By Weyl's inequality every eigenvalue of T then lies within eps of the
    eigenvalues of P T P: those of q^T T q, padded with n - k zeros; returns them and eps.
    On the unit columns at row i and its mirror Ji, q^T chi q is (chi_i + chi_Ji) / 2 on
    the diagonal of both parities and couples the even and odd column of i by
    (chi_i - chi_Ji) / 2, which is nonzero where chi is not mirror-symmetric; so q^T T q
    is solved whole.

    Raises NumericalFailure when eps exceeds ``RITZ_TOLERANCE``: q does not
    span the eigenvectors of T.
    """
    n = ops.grid.size
    s_even, s_odd = _folded_band(ops.band, even, odd)
    a_even, a_odd = even.T @ s_even, odd.T @ s_odd
    s_even -= even @ a_even  # now the residuals (I - P) S q of each parity
    s_odd -= odd @ a_odd
    trace_s = ops.omega / np.pi * ops.grid.weights.sum()
    bound = math.hypot(np.linalg.norm(s_even), np.linalg.norm(s_odd))
    bound += abs(trace_s - np.trace(a_even) - np.trace(a_odd))
    k_even, k = even.shape[1], even.shape[1] + odd.shape[1]
    if not bound <= RITZ_TOLERANCE:
        raise NumericalFailure(
            f"Ritz basis of order {k} misses the spectrum of T: Weyl bound {bound:.3g} "
            f"exceeds {RITZ_TOLERANCE:g}"
        )
    t = np.zeros((k, k))  # q^T T q
    t[:k_even, :k_even], t[k_even:, k_even:] = a_even, a_odd
    # The odd block has no unit column at an odd grid's centre row, rows[0].
    centre = n % 2
    right = n // 2 + rows
    mean = (ops.chi[right] + ops.chi[n - 1 - right]) / 2
    skew = (ops.chi[right] - ops.chi[n - 1 - right]) / 2
    e = np.arange(rows.size)
    o = k_even + np.arange(rows.size - centre)
    t[e, e] += mean
    t[o, o] += mean[centre:]
    t[e[centre:], o] = t[o, e[centre:]] = skew[centre:]
    ritz = _symmetric_eigdesc(t, vectors=False)
    return np.sort(np.concatenate([ritz, np.zeros(n - k)]))[::-1], bound


def sum_operator_spectrum(
    ops: LimitingOperators, n_report: int, spec: ProlateSpectrum
) -> SumSpectrumReport:
    """Eigenvalues of T = chi + S against the 1 +/- sqrt(lambda_n) pairs.

    The eigenvectors of T with nonzero eigenvalues lie in range chi +
    range S, which k orthonormal columns q span to roundoff: the unit
    vectors at the window nodes and their mirror nodes (w' in all), then
    the QR factors of sqrt(w) cos(xi_j x) and of sqrt(w) sin(xi_j x) at
    M = ceil(omega L / pi + 4 ln(1 + omega L)) + 4 frequencies xi_j, the
    Gauss-Legendre nodes mapped onto (0, omega) by the Kosloff-Tal-Ezer
    map of ``_ritz_frequencies``, an even and an odd block
    (k = w' + 2 min(M, (n - w') / 2)).  Both blocks are held on the
    right-hand half of the rows; see ``_ritz_basis``.  The eigenvalues of
    q^T T q, padded with n - k zeros, are all n eigenvalues of T to within
    the Weyl bound ``ritz_bound``: at tau = 1, omega = 3 and n = 20 L,
    k = 122, 186 and 306 with bounds 1.1e-14, 3.8e-14 and 1.3e-13 at
    L = 30, 60 and 120.  S is applied by FFT to about k / 2 columns, each
    an even plus an odd one, and q^T S q and the residual are formed per
    parity on half the rows, so no n x n array is formed and the work is
    about n k^2 / 4.

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

    evals, bound = _ritz_eigenvalues(ops, *_ritz_basis(ops))
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

