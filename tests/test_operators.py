"""Tests for the truncated-line grid, the limiting operators, and the
spectral picture of their sum."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import prolate as P
import prolate.core
from conftest import dense_S, dense_T, with_shifted_root
from prolate.core import NumericalFailure, gauss_legendre_rule

# Idempotency defect of the truncated band limiter.  The domain cutoff
# turns the plunge modes of the projection into eigenvalues near 1/2, so
# the defect is O(1) no matter how fine the quadrature; its value is a
# stable characteristic of the (L, omega) configuration.
DEFECT_RANGE = (0.20, 0.26)


@pytest.fixture(scope="module")
def gauss_ops(gauss_grid):
    return P.build_limiting_operators(gauss_grid, tau=1.0, omega=3.0)


@pytest.fixture(scope="module")
def zops():
    # Fine grid for the shifted-Gaussian witnesses: resolves e^{i n x}
    # up to n ~ 10 and holds bumps centered as far out as x = 14.
    grid = P.build_line_grid(20.0, 1200)
    return P.build_limiting_operators(grid, tau=1.0, omega=3.0)


# ---------------------------------------------------------------------------
# Line grid
# ---------------------------------------------------------------------------


def test_two_point_grid_is_scaled_gauss_pair():
    grid = P.build_line_grid(3.0, 2)
    assert grid.points == pytest.approx([-3.0 / math.sqrt(3), 3.0 / math.sqrt(3)])
    assert grid.weights == pytest.approx([3.0, 3.0])


@pytest.mark.parametrize("L,n", [(1.0, 7), (5.0, 40), (30.0, 600), (12.5, 601)])
def test_grid_invariants(L, n):
    grid = P.build_line_grid(L, n)
    assert grid.size == n
    assert np.all(np.diff(grid.points) > 0)
    assert np.abs(grid.points) .max() < L
    assert np.all(grid.weights > 0)
    assert grid.weights.sum() == pytest.approx(2 * L, rel=1e-12)
    # symmetry about the origin
    assert grid.points == pytest.approx(-grid.points[::-1], abs=1e-13 * L)
    assert grid.weights == pytest.approx(grid.weights[::-1], rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 7, 13, 22, 23, 600, 601])
def test_grid_node_count_exact(n):
    assert P.build_line_grid(4.0, n).size == n


@pytest.mark.parametrize(
    "L,n",
    [(1.0, 7), (4.0, 23), (9.0, 23), (30.0, 600), (60.0, 1200), (120.0, 2400), (12.0, 1200), (12.5, 601), (30.25, 601)],
)
def test_grid_panel_layout_matches_per_panel_rules(L, n):
    # Equal-width panels, at most two orders one apart, mirrored about 0;
    # points and weights are bit-identical to one Gauss rule per panel.
    grid = P.build_line_grid(L, n)
    orders = grid.panel_orders
    assert sum(orders) == n
    assert orders == orders[::-1]
    assert max(orders) - min(orders) <= 1
    edges = np.linspace(-L, L, len(orders) + 1)
    points, weights = [], []
    for order, lo, hi in zip(orders, edges[:-1], edges[1:]):
        rule = gauss_legendre_rule(order)
        points.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * rule.nodes)
        weights.append(0.5 * (hi - lo) * rule.weights)
    assert np.array_equal(grid.points, np.concatenate(points))
    assert np.array_equal(grid.weights, np.concatenate(weights))


def test_grid_density_resolves_band(grid600):
    # h * omega < 1 is the sampling guard for omega = 3.
    assert grid600.max_spacing < 0.35


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        P.build_line_grid(0.0, 10)
    with pytest.raises(ValueError):
        P.build_line_grid(-2.0, 10)
    with pytest.raises(ValueError):
        P.build_line_grid(1.0, 1)


@pytest.mark.parametrize(
    "L,orders,message",
    [
        (3.0, (), "positive integers"),
        (3.0, (5, 0, 5), "positive integers"),
        (3.0, (5.0, 5.0), "positive integers"),
        (0.0, (5,), "half-width"),
        (-3.0, (5,), "half-width"),
        (math.inf, (5,), "half-width"),
        (math.nan, (5,), "half-width"),
        # Row i would not mirror row n - 1 - i, which the Ritz basis of T relies on.
        (3.0, (4, 6), "backwards"),
        (12.0, (4, 6) * 12, "backwards"),
        (12.0, (5,) * 20 + (6,) * 20, "backwards"),
    ],
    ids=["empty", "zero-order", "float-orders", "zero-width", "negative-width", "inf-width", "nan-width",
         "panels4,6", "panels(4,6)x12", "panels5x20,6x20"],
)
def test_line_grid_refuses_bad_layouts(L, orders, message):
    with pytest.raises(ValueError, match=message):
        P.LineGrid(L, orders)


def test_grid_refuses_budget_before_allocating():
    # 10^10 points and weights need 149 GiB; the panel list alone would hold 2 * 10^9 entries.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            P.build_line_grid(30.0, 10**10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# Time limiter
# ---------------------------------------------------------------------------


def test_time_limiter_is_binary_symmetric_idempotent(grid600):
    chi = P.build_time_limiter(grid600, 1.0)
    assert set(np.unique(chi)) <= {0.0, 1.0}
    assert np.array_equal(chi, chi[::-1])
    assert np.array_equal(chi * chi, chi)


def test_time_limiter_window_node_count(grid600):
    # About n * tau / L = 20 nodes should fall in (-1, 1).
    chi = P.build_time_limiter(grid600, 1.0)
    assert 16 <= int(chi.sum()) <= 24


def test_time_limiter_zero_exactly_at_window_edge():
    # Three panels of five nodes on (-3, 3): the middle node of each outer panel is its centre, +/-2.
    grid = P.build_line_grid(3.0, 15)
    assert grid.points[[2, 12]].tolist() == [-2.0, 2.0]
    chi = P.build_time_limiter(grid, 2.0)
    assert chi.tolist() == [0.0] * 3 + [1.0] * 9 + [0.0] * 3


def test_time_limiter_rejects_bad_window(grid600):
    with pytest.raises(ValueError):
        P.build_time_limiter(grid600, 0.0)
    with pytest.raises(ValueError):
        P.build_time_limiter(grid600, -1.0)
    with pytest.raises(ValueError):
        P.build_time_limiter(grid600, 30.0)
    with pytest.raises(ValueError):
        P.build_time_limiter(grid600, 31.0)


# ---------------------------------------------------------------------------
# Band limiter
# ---------------------------------------------------------------------------


def test_band_limiter_symmetric_and_contractive(ops600):
    s = dense_S(ops600.grid, ops600.omega)
    assert np.array_equal(s, s.T)
    evals = np.linalg.eigvalsh(s)
    assert evals.min() > -1e-8
    assert evals.max() < 1 + 1e-8


def test_band_limiter_trace_is_shannon_density(ops600):
    # The kernel diagonal is omega/pi, so the trace is exactly
    # 2 * L * omega / pi.
    expected = 2 * 30.0 * 3.0 / math.pi
    assert np.trace(dense_S(ops600.grid, ops600.omega)) == pytest.approx(expected, rel=1e-12)


def test_band_limiter_matches_gaussian_closed_form(gauss_ops):
    # Closed form via the Faddeeva function w(z) = e^{-z^2} erfc(-iz):
    # (S_omega e^{-(.)^2})(x)
    #   = e^{-x^2} - Re[e^{-omega^2/4 - i omega x} w(i omega/2 - x)].
    # The Gaussian integrand makes domain truncation negligible, so this
    # isolates pure quadrature error.
    from scipy.special import wofz

    om = gauss_ops.omega
    x = gauss_ops.grid.points
    f = P.GridFunction.from_callable(gauss_ops.grid, lambda t: np.exp(-(t**2)))
    oracle = np.exp(-(x**2)) - np.real(
        np.exp(-(om**2) / 4 - 1j * om * x) * wofz(1j * om / 2 - x)
    )
    s_f = gauss_ops.band.matvec(f.weighted()) / np.sqrt(gauss_ops.grid.weights)
    assert np.abs(s_f - oracle).max() < 1e-12


def test_band_limiter_fixes_bandlimited_function_to_truncation_floor(ops600):
    # sin(3x)/(3x) is bandlimited to (-3, 3) so S should act as the
    # identity on it.  Its 1/x tails are cut at |x| = L, which leaves a
    # relative residual of a few percent; the lower bound documents that
    # this floor is real and not a spectral-accuracy artifact.
    f = P.GridFunction.from_callable(ops600.grid, lambda x: np.sinc(3.0 * x / np.pi))
    resid = ops600.band.matvec(f.weighted()) / np.sqrt(ops600.grid.weights) - f.values
    rel = math.sqrt(float(np.sum(ops600.grid.weights * np.abs(resid) ** 2))) / f.norm()
    assert rel < 3e-2
    assert rel > 1e-3


def test_band_limiter_idempotency_defect_is_order_one(ops600):
    s = dense_S(ops600.grid, ops600.omega)
    assert np.array_equal(s, s.T)
    assert DEFECT_RANGE[0] < np.linalg.norm(s @ s - s, 2) < DEFECT_RANGE[1]


def test_band_limiter_rejects_coarse_grid():
    grid = P.build_line_grid(10.0, 12)
    with pytest.raises(ValueError, match="h\\*omega"):
        P.build_band_operator(grid, 1.0)


def test_band_limiter_rejects_nonpositive_bandwidth(grid600):
    with pytest.raises(ValueError):
        P.build_band_operator(grid600, 0.0)
    with pytest.raises(ValueError):
        P.build_band_operator(grid600, -3.0)


@pytest.mark.parametrize(
    "L,n,omega",
    [(30.0, 600, 3.0), (60.0, 1200, 3.0), (1.0, 7, 2.0), (4.0, 23, 1.0), (12.5, 601, 3.0)],
)
def test_band_matvec_matches_dense_oracle(L, n, omega):
    # Uniform panel orders (600, 1200), one panel (7) and mixed orders
    # (23, 601), on real and complex vectors.
    grid = P.build_line_grid(L, n)
    band = P.build_band_operator(grid, omega)
    oracle = dense_S(grid, omega)
    rng = np.random.default_rng(n)
    real = rng.standard_normal(n)
    for u in (real, real + 1j * rng.standard_normal(n)):
        expected = oracle @ u
        got = band.matvec(u)
        assert np.iscomplexobj(got) == np.iscomplexobj(u)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
    # The Ritz step's eigvalsh reads one triangle of q^T S q, so S must be self-adjoint to roundoff.
    v = rng.standard_normal(n)
    assert abs(v @ band.matvec(real) - real @ band.matvec(v)) <= 1e-15 * np.linalg.norm(real) * np.linalg.norm(v)


def test_band_matvec_applies_to_columns(ops600):
    band = ops600.band
    rng = np.random.default_rng(7)
    real = rng.standard_normal((600, 5))
    for u in (real, real + 1j * rng.standard_normal((600, 5))):
        columns = np.stack([band.matvec(col) for col in u.T], axis=1)
        assert np.abs(band.matvec(u) - columns).max() <= 1e-15 * np.abs(columns).max()
    for shape in ((599,), (599, 2), (600, 2, 1)):
        with pytest.raises(ValueError, match="shape"):
            band.matvec(np.zeros(shape))


@pytest.mark.parametrize("L,n,omega", [(30.0, 600, 3.0), (120.0, 2400, 3.0), (12.5, 601, 2.0)])
def test_band_matvec_commutes_with_the_mirror(L, n, omega):
    # The Ritz step folds S by parity, which needs S J = J S for J: x -> -x;
    # on uniform (600, 2400) and mixed odd (601) panel orders.
    band = P.build_band_operator(P.build_line_grid(L, n), omega)
    u = np.random.default_rng(n).standard_normal((n, 64))
    assert np.abs(band.matvec(u[::-1]) - band.matvec(u)[::-1]).max() <= 4e-15 * np.abs(u).max()


def test_band_operator_reads_the_grid_slot_rule():
    # On a three-order layout the grid's slots are the Gauss-Legendre rules of the
    # distinct orders, increasing, and S_omega's blocks are built from exactly those.
    grid = P.LineGrid(3.0, (6, 4, 5, 4, 6))
    rules = [gauss_legendre_rule(order) for order in (4, 5, 6)]
    nodes = np.concatenate([rule.nodes for rule in rules])
    weights = np.concatenate([rule.weights for rule in rules])
    assert np.array_equal(grid.slot_nodes, nodes) and np.array_equal(grid.slot_weights, weights)
    m, p, half, omega = 5, nodes.size, 3.0 / 5, 1.5
    offsets, sq = half * nodes, np.sqrt(half * weights)
    gap = 2.0 * half * np.arange(m)[:, None, None] + offsets[:, None] - offsets[None, :]
    ahead = np.outer(sq, sq) * P.sinc_kernel(omega, gap, 0.0)
    circulant = np.concatenate([ahead, np.zeros((1, p, p)), ahead[:0:-1].transpose(0, 2, 1)])
    assert np.array_equal(P.build_band_operator(grid, omega).spectrum, np.fft.rfft(circulant, axis=0))


def test_band_limiter_reads_non_contiguous_complex_samples():
    # Complex samples are read as interleaved real columns of a contiguous array:
    # a reversed view and column slices give the contiguous copy's values bit for bit.
    grid = P.build_line_grid(12.5, 601)
    band = P.build_band_operator(grid, 2.0)
    rng = np.random.default_rng(601)
    z = rng.standard_normal((601, 6)) + 1j * rng.standard_normal((601, 6))
    for view in (z[::-1, 0], z[:, 1::2], z[::-1, ::3]):
        copy = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous
        assert np.array_equal(band.matvec(view), band.matvec(copy))
        assert band.energy(band.gram(view)) == band.energy(band.gram(copy))


def test_band_operator_needs_panel_layout():
    grid = P.build_line_grid(2.0, 7)
    band = P.build_band_operator(grid, 1.0)
    assert band.panel is grid.panel and band.slot is grid.slot
    with pytest.raises(ValueError, match="grid size"):
        band.matvec(np.ones(6))


def test_band_operator_refuses_budget_before_allocating(monkeypatch):
    # Under a 32 KiB budget the 600 points and the 5-node rule fit, but the
    # 2m = 240 kernel blocks of 5 x 5 need 48 KB.
    monkeypatch.setattr(prolate.core, "DENSE_BUDGET_BYTES", 2**15)
    grid = P.build_line_grid(30.0, 600)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="kernel blocks"):
            P.build_band_operator(grid, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**15


# ---------------------------------------------------------------------------
# GridFunction
# ---------------------------------------------------------------------------


def test_grid_function_norm_matches_gaussian_integral(gauss_grid):
    f = P.GridFunction.from_callable(gauss_grid, lambda x: np.exp(-(x**2)))
    assert f.norm() ** 2 == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
    assert f.normalized().norm() == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(f.weighted()) == pytest.approx(f.norm(), rel=1e-12)


def test_grid_function_guards(gauss_grid):
    with pytest.raises(ValueError):
        P.GridFunction(grid=gauss_grid, values=np.zeros(3))
    zero = P.GridFunction(grid=gauss_grid, values=np.zeros(gauss_grid.size))
    assert zero.norm() == 0.0
    with pytest.raises(ValueError):
        zero.normalized()


@pytest.mark.parametrize("scale", [1e300, 1e-170])
def test_grid_function_normalizes_extreme_scales(gauss_grid, scale):
    # The squares of 1e300 e^{-x^2} overflow and those of 1e-170 e^{-x^2} underflow,
    # but the norm scales the samples by a power of two first, which is exact.
    unit = P.GridFunction.from_callable(gauss_grid, lambda x: np.exp(-(x**2)))
    f = P.GridFunction(grid=gauss_grid, values=scale * unit.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.norm() == pytest.approx(scale * unit.norm(), rel=1e-15)
        assert abs(f.normalized().norm() - 1.0) <= 1e-15


def test_grid_function_normalized_refuses_a_subnormal_norm(gauss_grid):
    # Division by a norm of about 1e-312 would overflow and leave infinite values.
    f = P.GridFunction.from_callable(gauss_grid, lambda x: 1e-312 * np.exp(-(x**2)))
    assert 0.0 < f.norm() < np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cannot normalize"):
            f.normalized()


@pytest.mark.parametrize("sample", [np.nan, np.inf, -np.inf])
def test_grid_function_normalized_refuses_unrepresentable_norms(gauss_grid, sample):
    # A NaN or infinite sample would make every value NaN.
    values = np.exp(-(gauss_grid.points**2))
    values[gauss_grid.size // 2] = sample
    f = P.GridFunction(grid=gauss_grid, values=values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cannot normalize"):
            f.normalized()


def test_grid_function_values_are_a_read_only_copy(gauss_grid):
    raw = np.exp(-(gauss_grid.points**2)).astype(complex)
    expected = raw.copy()
    f = P.GridFunction(grid=gauss_grid, values=raw)
    assert not np.shares_memory(f.values, raw)
    with pytest.raises(ValueError):
        f.values[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.values = raw
    raw[0] = 7.0  # the caller's array stays its own and writable
    assert np.array_equal(f.values, expected)


@pytest.fixture
def band_builds(monkeypatch):
    # Records the bandwidth of every band limiter that band_energy builds.
    built, build = [], P.operators.build_band_operator
    monkeypatch.setattr(P.operators, "build_band_operator", lambda grid, omega: built.append(omega) or build(grid, omega))
    return built


def test_band_energy_computed_once_per_function_and_bandwidth(gauss_grid, band_builds):
    f = P.GridFunction.from_callable(gauss_grid, lambda x: np.exp(-(x**2)))
    energy = f.band_energy(2.0)
    assert f.band_energy(2.0) == energy
    assert band_builds == [2.0]
    f.band_energy(3.0)  # another bandwidth
    assert band_builds == [2.0, 3.0]
    same = P.GridFunction(grid=gauss_grid, values=f.values)  # another function, equal values
    assert same.band_energy(2.0) == energy
    assert band_builds == [2.0, 3.0, 2.0]
    copy = dataclasses.replace(f)  # a copy starts with nothing kept
    assert copy.band_energy(2.0) == energy
    assert band_builds == [2.0, 3.0, 2.0, 2.0]
    f.band_energy(2.0), f.band_energy(3.0)  # the original keeps both
    assert len(band_builds) == 4


@pytest.mark.parametrize("omega", [0.0, -1.0, 100.0])
def test_band_energy_refuses_bad_bandwidth_on_every_call(gauss_grid, band_builds, omega):
    f = P.GridFunction.from_callable(gauss_grid, lambda x: np.exp(-(x**2)))
    for _ in range(2):
        with pytest.raises(ValueError):
            f.band_energy(omega)
    assert band_builds == [omega, omega]


@settings(max_examples=40, deadline=None)
@given(
    L=st.floats(0.5, 40.0),
    base=st.integers(1, 8),
    bumps=st.lists(st.booleans(), min_size=1, max_size=60),
    centre=st.sampled_from([0, 1, 2]),
    fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    imaginary=st.booleans(),
)
@pytest.mark.parametrize("two_orders", [False, True], ids=["one-order", "two-orders"])
def test_band_energy_matches_the_matvec_form(two_orders, L, base, bumps, centre, fractions, seed, imaginary):
    # Re <S u, u> by Parseval on the kept panel Gram equals the form of S u by FFT, for
    # complex and real samples on palindromic layouts of one or two orders (slots), odd n
    # where a centre panel has odd order, and several bandwidths on one function.
    half = [base + (two_orders and bump) for bump in bumps]
    centre_panel = [[], [base], [base + two_orders]][centre]
    grid = P.LineGrid(L, tuple(half + centre_panel + half[::-1]))
    rng = np.random.default_rng(seed)
    f = P.GridFunction(grid=grid, values=rng.standard_normal(grid.size) + 1j * imaginary * rng.standard_normal(grid.size))
    u = f.weighted()
    for fraction in fractions:
        omega = fraction / grid.max_spacing
        form = np.vdot(u, P.build_band_operator(grid, omega).matvec(u)).real
        assert abs(f.band_energy(omega) - form) <= 1e-14 * np.vdot(u, u).real


def test_band_operator_kept_on_its_grid(gauss_grid):
    grid = dataclasses.replace(gauss_grid)  # the same layout, nothing kept
    band = P.build_band_operator(grid, 2.0)
    assert P.build_band_operator(grid, 2.0) is band
    assert P.build_limiting_operators(grid, 1.0, 2.0).band is band
    assert P.build_band_operator(grid, 3.0) is not band
    assert P.build_band_operator(dataclasses.replace(grid), 2.0) is not band
    with pytest.raises(ValueError):
        band.spectrum[0, 0, 0] = 0.0
    # The spacing that every call checks omega against is computed once, on the grid.
    assert vars(grid)["max_spacing"] == float(np.max(np.diff(grid.points)))
    assert "max_spacing" not in vars(dataclasses.replace(grid))


def test_norm_computed_once_per_function(gauss_grid):
    f = P.GridFunction.from_callable(gauss_grid, lambda x: np.exp(-(x**2)))
    norm = f.norm()
    assert f.norm() is norm  # the kept float, not a recomputed one
    copy = dataclasses.replace(f)  # a copy starts with nothing kept
    assert copy.norm() == norm
    assert copy.norm() is not norm


def test_norm_identities_on_random_functions(ops600):
    # For the exact projections: ||chi u||^2 + ||(1-chi) u||^2 = ||u||^2,
    # 0 <= <S u, u> <= ||u||^2, and the idempotency defect bounds
    # ||S u||^2 - <S u, u>.
    rng = np.random.default_rng(7)
    s = dense_S(ops600.grid, ops600.omega)
    defect = float(np.linalg.norm(s @ s - s, 2))
    m = ops600.grid.size
    for _ in range(200):
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        nrm2 = float(np.vdot(u, u).real)
        chi_part = float(np.vdot(ops600.chi * u, ops600.chi * u).real)
        co_part = float(np.vdot((1 - ops600.chi) * u, (1 - ops600.chi) * u).real)
        assert chi_part + co_part == pytest.approx(nrm2, rel=1e-12)
        su = s @ u
        quad = float(np.vdot(u, su).real)
        assert -1e-10 * nrm2 <= quad <= (1 + 1e-10) * nrm2
        assert float(np.vdot(su, su).real) - quad <= defect * nrm2 + 1e-10


# ---------------------------------------------------------------------------
# Spectrum of T = chi + S
# ---------------------------------------------------------------------------


def sum_report(ops, spec):
    return P.sum_operator_spectrum(ops, spec.n_modes, spec=spec)


def test_sum_spectrum_confined_to_unit_band(ops600, spec3):
    report = sum_report(ops600, spec3)
    ev = report.computed_eigenvalues
    assert ev.min() > -1e-8
    assert ev.max() < 2 + 1e-8


def test_sum_spectrum_has_accumulation_clusters(ops600, spec3):
    report = sum_report(ops600, spec3)
    ev = report.computed_eigenvalues
    assert np.sum(np.abs(ev - 1.0) < 0.1) >= 10
    assert np.sum(np.abs(ev) < 0.05) >= 100


def test_sum_spectrum_matches_paired_prediction(ops600, spec3):
    report = sum_report(ops600, spec3)
    # Truncation at L = 30 leaves a residual floor of order 1/L in the
    # isolated eigenvalues; these tolerances sit just above the measured
    # values (1.6e-4 top, 3.6e-3 / 5.0e-3 worst-case).
    assert report.residuals_above[0] < 3e-4
    assert report.residuals_above.max() < 5e-3
    assert report.residuals_below.max() < 8e-3
    assert np.all(np.diff(report.predicted_above) < 0)
    assert np.all(np.diff(report.predicted_below) < 0)
    assert np.all(np.diff(report.matched_above) < 0)


def test_sum_spectrum_lambda_min_obeys_gap_bound(ops600, spec3):
    report = sum_report(ops600, spec3)
    bound = 1.0 - math.sqrt(spec3.eigenvalues[0])
    assert report.lambda_min == pytest.approx(
        2.0 - report.computed_eigenvalues.max(), abs=1e-12
    )
    assert report.lambda_min >= bound - 1e-6
    assert report.lambda_min < 0.05


def test_sum_spectrum_depends_only_on_product():
    # (tau, omega) = (1, 3) and (2, 1.5) share c = 3; on a common grid
    # their spectral radii agree far better than either matches the
    # infinite-line prediction.
    grid = P.build_line_grid(40.0, 800)
    a = P.build_limiting_operators(grid, tau=1.0, omega=3.0)
    b = P.build_limiting_operators(grid, tau=2.0, omega=1.5)
    top_a = np.linalg.eigvalsh(dense_T(a)).max()
    top_b = np.linalg.eigvalsh(dense_T(b)).max()
    assert abs(top_a - top_b) < 5e-4


@pytest.mark.parametrize("s,L_scaled", [(0.5, 10.0), (2.0, 40.0)])
def test_sum_spectrum_invariant_under_dilation(s, L_scaled):
    # x -> s x maps (tau, omega, L) to (s tau, omega/s, s L) unitarily,
    # and the scaled grid is the exact image of the base grid, so the
    # discretized spectra agree to roundoff.
    base = P.build_limiting_operators(P.build_line_grid(20.0, 400), tau=1.0, omega=3.0)
    scaled = P.build_limiting_operators(
        P.build_line_grid(L_scaled, 400), tau=s, omega=3.0 / s
    )
    e_base = np.linalg.eigvalsh(dense_T(base))
    e_scaled = np.linalg.eigvalsh(dense_T(scaled))
    assert np.abs(e_base - e_scaled).max() < 1e-12


def test_sum_spectrum_validates_arguments(ops600, spec3):
    with pytest.raises(ValueError):
        P.sum_operator_spectrum(ops600, 0, spec3)
    with pytest.raises(ValueError):
        P.sum_operator_spectrum(ops600, ops600.grid.size + 1, spec3)
    mismatched = P.build_limiting_operators(ops600.grid, tau=1.0, omega=2.0)
    with pytest.raises(ValueError, match="c="):
        P.sum_operator_spectrum(mismatched, 4, spec=spec3)
    short = P.prolate_spectrum(3.0, 2, order=60)
    with pytest.raises(ValueError, match="modes"):
        P.sum_operator_spectrum(ops600, 4, spec=short)


def test_sum_spectrum_refuses_to_match_one_value_twice():
    # Two window nodes give T two eigenvalues above 1, too few for three pairs.
    ops = P.build_limiting_operators(P.build_line_grid(9.0, 30), tau=0.55, omega=0.5)
    with pytest.raises(NumericalFailure, match="does not resolve"):
        P.sum_operator_spectrum(ops, 3, P.prolate_spectrum(ops.c, 3))


def test_sum_spectrum_default_reference_resolves_large_c():
    # c = 150 needs quadrature order ceil(c) + 30 = 180 > 120; the
    # reference at the default order must use it rather than raise.
    ops = P.build_limiting_operators(P.build_line_grid(20.0, 1000), tau=10.0, omega=15.0)
    report = P.sum_operator_spectrum(ops, 4, P.prolate_spectrum(ops.c, 4))
    assert report.predicted_above.size == 4


def test_sum_spectrum_keeps_no_dense_matrix():
    # T is formed only for the eigensolve: once the report is returned,
    # the operators still hold no n x n array.
    n = 1200
    grid = P.build_line_grid(60.0, n)
    spec = P.prolate_spectrum(3.0, 6)
    tracemalloc.start()
    try:
        ops = P.build_limiting_operators(grid, tau=1.0, omega=3.0)
        P.sum_operator_spectrum(ops, 6, spec)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 8 * n * n / 4


@pytest.mark.parametrize(
    "L,n,tau,omega",
    [
        (30.0, 600, 1.0, 3.0),
        (30.25, 601, 1.0, 3.0),
        (40.0, 800, 2.0, 1.5),
        # Mirror nodes 142 and 157 lie within roundoff of -1 and 1 and get
        # chi = 0 and 1, so T does not commute with the reflection.
        (20.0, 300, 1.0, 3.0),
        # c = 150: half the nodes lie in the window, so k = 500 + 2M = 746.
        (20.0, 1000, 10.0, 15.0),
    ],
)
def test_sum_spectrum_parity_split_matches_full_solve(L, n, tau, omega):
    grid = P.build_line_grid(L, n)
    ops = P.build_limiting_operators(grid, tau=tau, omega=omega)
    report = P.sum_operator_spectrum(ops, 4, P.prolate_spectrum(ops.c, 4))
    full = np.linalg.eigvalsh(dense_T(ops))[::-1]
    assert np.abs(report.computed_eigenvalues - full).max() <= 1e-13


@settings(max_examples=25, deadline=None)
@given(
    L=st.floats(6.0, 30.0),
    omega=st.floats(0.5, 4.0),
    tau_fraction=st.floats(0.01, 0.99),
    extra=st.integers(0, 60),
)
def test_sum_spectrum_ritz_values_match_full_solve(L, omega, tau_fraction, extra):
    # Five-node panels have max spacing about 2.7 L / n, so n >= 3 L omega
    # nodes (odd or even) resolve the band.
    grid = P.build_line_grid(L, math.ceil(3.0 * L * omega) + extra)
    assume(grid.max_spacing * omega < 1.0)
    tau = 0.2 + tau_fraction * (L / 3.0 - 0.2)
    ops = P.build_limiting_operators(grid, tau=tau, omega=omega)
    assume(ops.chi.any())  # else T = S has no eigenvalue above 1 to match
    report = P.sum_operator_spectrum(ops, 1, P.prolate_spectrum(ops.c, 1))
    full = np.linalg.eigvalsh(dense_T(ops))[::-1]
    assert np.abs(report.computed_eigenvalues - full).max() <= 1e-13
    assert report.ritz_bound <= 1e-12


def unfolded(even, odd, n):
    """The n x k basis that the half-row blocks of ``_ritz_basis`` stand for: even columns, then odd.

    Half row r is grid row n // 2 + r; a half column holds v / sqrt(2) there and +/- that
    on the mirror row, or v itself on an odd grid's centre row.
    """
    right = np.arange(n // 2, n)
    scale = np.where(right == n - 1 - right, 1.0, math.sqrt(0.5))[:, None]
    q = np.zeros((n, even.shape[1] + odd.shape[1]))
    e, o = np.split(q, [even.shape[1]], axis=1)
    e[right] = e[n - 1 - right] = scale * even
    o[n - 1 - right] = -scale * odd
    o[right] = scale * odd  # last, so an odd grid's centre row keeps odd[0], which must be 0
    return q


def unit_count(ops):
    """w': the window rows, their mirror rows and an odd grid's centre row."""
    n = ops.grid.size
    unit = (ops.chi != 0) | (ops.chi[::-1] != 0)
    unit[n // 2] |= n % 2 == 1
    return int(unit.sum())


@settings(max_examples=40, deadline=None)
@given(
    L=st.floats(0.5, 40.0),
    n=st.integers(2, 1500),
    tau_fraction=st.floats(0.001, 0.999),
    omega_fraction=st.floats(0.01, 0.99),
)
def test_ritz_column_bound_covers_the_basis(L, n, tau_fraction, omega_fraction):
    grid = P.build_line_grid(L, n)
    omega = omega_fraction / grid.max_spacing  # h * omega < 1
    tau = tau_fraction * L
    ops = P.build_limiting_operators(grid, tau=tau, omega=omega)
    bound = P.operators._ritz_column_bound(L, n, tau, omega)
    m = P.operators._ritz_frequency_count(L, omega)
    even, odd, _ = P.operators._ritz_basis(ops)
    columns = even.shape[1] + odd.shape[1]
    w = unit_count(ops)
    assert columns == w + 2 * min(m, (n - w) // 2)
    assert bound >= columns


def test_ritz_column_bound_admits_a_large_grid():
    # At L = 30, n = 12000 the basis is 12000 x 502 (48 MB); the bound n + 2M
    # of the window-blind count would exceed the 1 GiB budget.
    L, n, tau, omega = 30.0, 12000, 1.0, 3.0
    bound = P.operators._ritz_column_bound(L, n, tau, omega)
    blind = n + 2 * P.operators._ritz_frequency_count(L, omega)
    assert 8 * n * bound <= P.core.DENSE_BUDGET_BYTES < 8 * n * blind


def test_ritz_step_refuses_a_basis_missing_frequencies(ops600):
    even, odd, rows = P.operators._ritz_basis(ops600)
    # The unit block and every other band column of each parity: still
    # orthonormal, but about half of range S is missing.
    keep = np.r_[0 : rows.size, rows.size : even.shape[1] : 2]
    with pytest.raises(NumericalFailure, match="Weyl bound"):
        P.operators._ritz_eigenvalues(ops600, even[:, keep], odd[:, keep], rows)


@pytest.mark.parametrize("m", [1, 2, 51, 143, 260])
def test_ritz_frequencies_increase_inside_the_band_and_mirror(m):
    omega = 3.0
    xi = P.operators._ritz_frequencies(omega, m)
    assert xi.shape == (m,)
    assert 0.0 < xi[0] and xi[-1] < omega
    assert np.all(np.diff(xi) > 0)
    assert np.abs(xi + xi[::-1] - omega).max() <= 1e-15 * omega


def test_ritz_basis_is_near_the_landau_widom_count():
    # Range S holds about omega L / pi columns per parity: the mapped rule
    # takes M = 143 and k = 306 at L = 120, where plain Gauss nodes took
    # M = 200 and k = 420.
    ops = P.build_limiting_operators(P.build_line_grid(120.0, 2400), tau=1.0, omega=3.0)
    even, odd, rows = P.operators._ritz_basis(ops)
    assert even.shape[1] + odd.shape[1] <= 310
    _, bound = P.operators._ritz_eigenvalues(ops, even, odd, rows)
    assert bound <= 1e-12


def test_ritz_bound_holds_past_the_property_test_range():
    # omega L = 720, six times the largest the hypothesis tests reach.
    ops = P.build_limiting_operators(P.build_line_grid(240.0, 4800), tau=1.0, omega=3.0)
    _, bound = P.operators._ritz_eigenvalues(ops, *P.operators._ritz_basis(ops))
    assert bound <= 1e-12


def test_ritz_step_refuses_too_few_mapped_frequencies(monkeypatch):
    # At L = 120 the rule gives 143; the smallest count with a Weyl bound
    # below 1e-12 is 138, and below the refusal threshold 136, so 12 fewer
    # must leave part of range S uncovered.
    L, omega = 120.0, 3.0
    ops = P.build_limiting_operators(P.build_line_grid(L, 2400), tau=1.0, omega=omega)
    m = P.operators._ritz_frequency_count(L, omega)
    assert m == 143
    monkeypatch.setattr(P.operators, "_ritz_frequency_count", lambda half_width, omega: m - 12)
    with pytest.raises(NumericalFailure, match="Weyl bound"):
        P.sum_operator_spectrum(ops, 6, P.prolate_spectrum(ops.c, 6))


@pytest.mark.parametrize(
    "L,n,tau,omega",
    [
        (30.0, 600, 1.0, 3.0),
        (20.0, 1000, 10.0, 15.0),
        # No window node: the band columns cover the whole grid.
        (30.0, 600, 0.01, 3.0),
        # Every node in the window: the band blocks have no rows and no columns.
        (30.0, 600, 29.99, 3.0),
        # Mirror nodes 142 and 157 get chi = 0 and 1: the unit block holds
        # w + 1 rows, one of them off the window.
        (20.0, 300, 1.0, 3.0),
    ],
)
def test_ritz_basis_layout(L, n, tau, omega):
    ops = P.build_limiting_operators(P.build_line_grid(L, n), tau=tau, omega=omega)
    even, odd, rows = P.operators._ritz_basis(ops)
    window = np.flatnonzero(ops.chi)
    mirrored = np.flatnonzero((ops.chi == 0) & (ops.chi[::-1] != 0))
    assert mirrored.size == (1 if n == 300 else 0)
    right = n // 2 + rows
    assert np.array_equal(np.union1d(right, n - 1 - right), np.union1d(window, mirrored))
    unit = np.zeros((n - n // 2, rows.size))
    unit[rows, np.arange(rows.size)] = 1.0
    assert np.array_equal(even[:, : rows.size], unit)
    assert np.array_equal(odd[:, : rows.size - n % 2], unit[:, n % 2 :])  # no odd centre column
    assert not even[rows, rows.size :].any()
    assert not odd[rows, rows.size - n % 2 :].any()
    q = unfolded(even, odd, n)
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-14
    evals, bound = P.operators._ritz_eigenvalues(ops, even, odd, rows)
    full = np.linalg.eigvalsh(dense_T(ops))[::-1]
    assert np.abs(evals - full).max() <= 1e-13
    assert bound <= 1e-12


@pytest.mark.parametrize(
    "L,n,tau,omega",
    [
        (30.0, 600, 1.0, 3.0),
        # chi is not mirror-symmetric at nodes 142 and 157.
        (20.0, 300, 1.0, 3.0),
        # An odd grid of mixed panel orders: the centre row is even only.
        (12.5, 601, 1.0, 2.0),
    ],
)
def test_folded_band_matches_matvec_of_the_unfolded_basis(L, n, tau, omega):
    ops = P.build_limiting_operators(P.build_line_grid(L, n), tau=tau, omega=omega)
    even, odd, _ = P.operators._ritz_basis(ops)
    assert odd.shape[1] == even.shape[1] - n % 2
    assert not odd[: n % 2].any()
    s_even, s_odd = P.operators._folded_band(ops.band, even, odd)
    assert not s_odd[: n % 2].any()
    expected = ops.band.matvec(unfolded(even, odd, n))
    assert np.abs(unfolded(s_even, s_odd, n) - expected).max() <= 1e-14


def test_ritz_basis_refuses_budget_before_allocating():
    # A window of nearly all 12000 nodes makes a basis of about 12000 x 12000,
    # over the 1 GiB budget.
    ops = P.build_limiting_operators(P.build_line_grid(600.0, 12000), tau=599.0, omega=3.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            P.operators._ritz_basis(ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sum_spectrum_orthonormalises_half_width_blocks(monkeypatch):
    # Each QR of the Ritz basis covers the right-hand rows of one parity:
    # at most ceil(n / 2) rows and M columns, not the n - w rows and 2M columns
    # of a basis blind to the mirror symmetry.
    L, n, tau, omega = 60.0, 1200, 1.0, 3.0
    ops = P.build_limiting_operators(P.build_line_grid(L, n), tau=tau, omega=omega)
    spec = P.prolate_spectrum(ops.c, 6)
    shapes, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: shapes.append(a.shape) or qr(a, *args, **kw))
    P.sum_operator_spectrum(ops, 6, spec)
    m = P.operators._ritz_frequency_count(L, omega)
    assert len(shapes) == 2
    assert all(rows <= -(-n // 2) and cols <= m for rows, cols in shapes)


def test_sum_spectrum_applies_band_once_per_column_pair(monkeypatch):
    # S maps each parity to itself, so one FFT of an even plus an odd column
    # gives both: about k / 2 columns, not the k of the unfolded basis.
    L, n, tau, omega = 60.0, 1200, 1.0, 3.0
    ops = P.build_limiting_operators(P.build_line_grid(L, n), tau=tau, omega=omega)
    spec = P.prolate_spectrum(ops.c, 6)
    even, odd, _ = P.operators._ritz_basis(ops)
    k = even.shape[1] + odd.shape[1]
    columns, matvec = [], P.BandLimiter.matvec
    monkeypatch.setattr(P.BandLimiter, "matvec", lambda self, u: columns.append(u[0].size) or matvec(self, u))
    P.sum_operator_spectrum(ops, 6, spec)
    assert 0 < sum(columns) <= -(-k // 2) + 1


def test_sum_spectrum_peak_memory_below_one_dense_T():
    n = 2400
    ops = P.build_limiting_operators(P.build_line_grid(120.0, n), tau=1.0, omega=3.0)
    spec = P.prolate_spectrum(ops.c, 6)
    tracemalloc.start()
    try:
        P.sum_operator_spectrum(ops, 6, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


# ---------------------------------------------------------------------------
# Eigenfunction witness
# ---------------------------------------------------------------------------


def test_eigenfunction_witness_residual_floors(spec3, ops600):
    # The assembled eigenfunction decays like 1/x, so cutting it at
    # |x| = L leaves a relative residual of order 1/sqrt(L); the
    # tolerances document the measured floors (4.2e-3 for the top mode,
    # 5.4e-2 worst of the four).
    assert P.eigenfunction_witness(spec3, ops600, 0, +1) < 1e-2
    for n in (0, 1):
        for sign in (+1, -1):
            assert P.eigenfunction_witness(spec3, ops600, n, sign) < 8e-2


def test_eigenfunction_witness_negative_control(spec3, ops600):
    clean = P.eigenfunction_witness(spec3, ops600, 0, +1)
    shifted = P.eigenfunction_witness(with_shifted_root(spec3, 1e-3), ops600, 0, +1)
    assert shifted > clean
    assert shifted > 1e-3


def test_eigenfunction_witness_validates_arguments(spec3, ops600):
    with pytest.raises(ValueError):
        P.eigenfunction_witness(spec3, ops600, 0, 0)
    with pytest.raises(ValueError):
        P.eigenfunction_witness(spec3, ops600, 99, +1)
    with pytest.raises(ValueError):
        P.eigenfunction_witness(spec3, ops600, -1, +1)
    other = P.prolate_spectrum(2.0, 2, order=60)
    with pytest.raises(ValueError, match="c="):
        P.eigenfunction_witness(other, ops600, 0, +1)


# ---------------------------------------------------------------------------
# Zero-spectrum witness
# ---------------------------------------------------------------------------


def test_zero_witness_baseline_is_near_two(zops):
    # The unshifted bump lies inside both the window and the band, so T
    # acts on it almost like 2I.
    ratio = P.zero_spectrum_witness(zops, 0)
    assert 1.5 < ratio <= 2.0 + 1e-9


def test_zero_witness_ratios_decay(zops):
    ratios = [P.zero_spectrum_witness(zops, n) for n in (0, 2, 5, 8)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-3


def test_zero_witness_validates_arguments(zops):
    with pytest.raises(ValueError):
        P.zero_spectrum_witness(zops, -1)
    with pytest.raises(ValueError):
        P.zero_spectrum_witness(zops, 15)  # needs half_width >= 21


def test_zero_witness_detects_unresolved_bump():
    coarse = P.build_limiting_operators(
        P.build_line_grid(32.0, 64), tau=1.0, omega=0.25
    )
    with pytest.raises(NumericalFailure):
        P.zero_spectrum_witness(coarse, 20)


# ---------------------------------------------------------------------------
# Matrix-scale lemmas behind the spectral pairing
# ---------------------------------------------------------------------------


def test_products_share_nonzero_spectrum():
    # AB and BA always have the same spectrum for square A, B.
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ev_ab = np.sort_complex(np.linalg.eigvals(a @ b))
        ev_ba = np.sort_complex(np.linalg.eigvals(b @ a))
        assert np.abs(ev_ab - ev_ba).max() < 1e-8


@pytest.mark.parametrize("lam", [2.0, -1.0, 0.5])
def test_projector_resolvent_identity(lam):
    # For idempotent P and lam outside {0, 1}:
    # (lam I - P)^{-1} = I/lam + P/(lam (lam - 1)).
    rng = np.random.default_rng(12)
    x = rng.standard_normal((8, 8)) + 0.5 * np.eye(8)
    p = x @ np.diag([1.0] * 4 + [0.0] * 4) @ np.linalg.inv(x)
    resolvent = np.eye(8) / lam + p / (lam * (lam - 1.0))
    assert np.linalg.norm((lam * np.eye(8) - p) @ resolvent - np.eye(8), 2) < 1e-12
