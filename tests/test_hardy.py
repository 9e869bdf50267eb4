"""Tests for the tail bounds, quadratic form, concentration inequality
and contradiction chains of the uncertainty-principle verifier."""

import collections
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erf

import prolate as P
from conftest import dense_S


@pytest.fixture(scope="module")
def env22():
    return P.GaussianEnvelope(M=1.0, a=2.0, b=2.0)


@pytest.fixture(scope="module")
def spec2():
    return P.prolate_spectrum(2.0, 1, order=120)


@pytest.fixture(scope="module")
def masked_top_mode(gauss_grid, spec2):
    # Top sinc-kernel mode at c = 2, extended to the grid and truncated
    # to its concentration window (-1, 1): time concentration is exactly
    # 1 and band concentration is exactly sqrt(lambda_0).
    ext = P.pswf_extend(spec2, 0, gauss_grid.points)
    vals = np.where(np.abs(gauss_grid.points) < 1.0, ext, 0.0)
    return P.GridFunction(grid=gauss_grid, values=vals).normalized()


# ---------------------------------------------------------------------------
# Envelopes and tail bounds
# ---------------------------------------------------------------------------


def test_envelope_validates_parameters():
    P.GaussianEnvelope(2.0, 1.0, 4.0)
    for bad in [(0.0, 1, 1), (1, 0.0, 1), (1, 1, 0.0), (-1, 1, 1), (1, -2, 1)]:
        with pytest.raises(ValueError):
            P.GaussianEnvelope(*bad)


def test_time_tail_bound_closed_form(env22):
    assert P.time_tail_bound(env22, 1.0) == pytest.approx(math.exp(-2) / 2, rel=1e-15)
    assert P.time_tail_bound(env22, 2.0) == pytest.approx(math.exp(-8) / 4, rel=1e-15)
    big = P.GaussianEnvelope(M=3.0, a=2.0, b=2.0)
    assert P.time_tail_bound(big, 1.0) == pytest.approx(
        9 * P.time_tail_bound(env22, 1.0), rel=1e-15
    )
    with pytest.raises(ValueError):
        P.time_tail_bound(env22, 0.0)


def test_freq_tail_bound_mirrors_time_bound():
    env = P.GaussianEnvelope(M=1.5, a=1.0, b=4.0)
    mirrored = P.GaussianEnvelope(M=1.5, a=4.0, b=1.0)
    for w in (0.5, 1.0, 3.0):
        assert P.freq_tail_bound(env, w) == pytest.approx(
            P.time_tail_bound(mirrored, w), rel=1e-15
        )
    with pytest.raises(ValueError):
        P.freq_tail_bound(env, -1.0)


def test_exact_gaussian_tail_values():
    assert P.exact_gaussian_tail(1.0, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert P.exact_gaussian_tail(2.0, 0.0) == pytest.approx(
        math.sqrt(math.pi / 2), rel=1e-15
    )
    with pytest.raises(ValueError):
        P.exact_gaussian_tail(0.0, 1.0)
    with pytest.raises(ValueError):
        P.exact_gaussian_tail(1.0, -0.1)


@pytest.mark.parametrize("a", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 4.0])
def test_exact_tail_dominated_by_closed_bound(a, tau):
    env = P.GaussianEnvelope(M=1.0, a=a, b=1.0)
    exact = P.exact_gaussian_tail(a, tau)
    assert 0.0 < exact < P.time_tail_bound(env, tau)


@pytest.mark.parametrize("omega", [1.5, 2.0, 2.5])
def test_envelope_tail_sum_below_decay_budget(env22, omega):
    # At the symmetric point tau = omega the summed exact tails stay
    # below the single closed-form budget M^2/omega e^{-2 omega^2}.
    total = P.envelope_tail_sum(env22, omega, omega)
    assert total == pytest.approx(
        P.exact_gaussian_tail(2.0, omega) + P.exact_gaussian_tail(2.0, omega), rel=1e-15
    )
    assert total <= 1.0 / omega * math.exp(-2 * omega**2)


def test_tail_bounds_reduce_to_symmetric_case_by_dilation():
    # Rescaling x by s = sqrt(2) maps the asymmetric envelope pair
    # (a, b) = (1, 4) onto the symmetric pair (2, 2); the tail bounds
    # pick up the Jacobian factors s and 1/s exactly.
    asym = P.GaussianEnvelope(M=1.0, a=1.0, b=4.0)
    sym = P.GaussianEnvelope(M=1.0, a=2.0, b=2.0)
    s = math.sqrt(2.0)
    for t in (0.5, 1.0, 2.0):
        assert P.time_tail_bound(asym, s * t) == pytest.approx(
            s * P.time_tail_bound(sym, t), rel=1e-14
        )
        assert P.freq_tail_bound(asym, t / s) == pytest.approx(
            P.freq_tail_bound(sym, t) / s, rel=1e-14
        )


# ---------------------------------------------------------------------------
# Quadratic form and minimum-eigenvalue bound
# ---------------------------------------------------------------------------


def test_quadratic_form_vanishes_on_zero_function(ops600):
    zero = P.GridFunction(grid=ops600.grid, values=np.zeros(ops600.grid.size))
    q = P.quadratic_form(zero, ops600)
    assert q.value == 0.0 and q.time_part == 0.0 and q.band_part == 0.0


def test_quadratic_form_decomposition(ops600):
    f = P.GridFunction.from_callable(
        ops600.grid, lambda x: np.exp(1j * 0.7 * x - 0.3 * x**2)
    )
    q = P.quadratic_form(f, ops600)
    u = f.weighted()
    expected = 2 * np.vdot(u, u).real - np.vdot(u, ops600.chi * u).real - np.vdot(
        u, dense_S(ops600.grid, ops600.omega) @ u
    ).real
    assert q.value == pytest.approx(q.time_part + q.band_part, rel=1e-12)
    assert q.value == pytest.approx(float(expected), rel=1e-10)


def test_quadratic_form_parts_nonnegative_on_random_functions(ops600):
    rng = np.random.default_rng(11)
    m = ops600.grid.size
    for _ in range(100):
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = P.GridFunction(grid=ops600.grid, values=vals)
        q = P.quadratic_form(f, ops600)
        nrm2 = f.norm() ** 2
        assert q.time_part >= -1e-12 * nrm2
        assert q.band_part >= -1e-8 * nrm2


def test_quadratic_form_obeys_min_eig_bound(ops600, spec3):
    bound = P.min_eig_lower_bound(spec3.eigenvalues[0])
    rng = np.random.default_rng(5)
    m = ops600.grid.size
    for _ in range(20):
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = P.GridFunction(grid=ops600.grid, values=vals)
        q = P.quadratic_form(f, ops600)
        assert q.value >= bound * f.norm() ** 2 - 1e-6


def test_quadratic_form_saturates_on_masked_top_mode(ops600, spec3):
    # The window-truncated top mode turns the form into exactly
    # 1 - lambda_0: the time part vanishes and the band part is the
    # complementary concentration.
    ext = P.pswf_extend(spec3, 0, ops600.grid.points)
    vals = np.where(np.abs(ops600.grid.points) < 1.0, ext, 0.0)
    f = P.GridFunction(grid=ops600.grid, values=vals).normalized()
    q = P.quadratic_form(f, ops600)
    assert q.time_part == pytest.approx(0.0, abs=1e-12)
    assert q.value == pytest.approx(1.0 - spec3.eigenvalues[0], rel=1e-6)


@pytest.mark.parametrize("omega", [3.0, 3.5])
def test_quadratic_form_time_part_is_the_outside_mass(unit_gauss, omega):
    # ||(I - chi) f||^2 of the unit Gaussian is erfc(sqrt(2) omega): summed outside the
    # window rather than taken as ||f||^2 minus the window mass, it keeps its digits.
    q = P.quadratic_form(unit_gauss, P.build_limiting_operators(unit_gauss.grid, omega, omega))
    assert q.time_part == pytest.approx(math.erfc(math.sqrt(2.0) * omega), rel=1e-11, abs=0.0)


def test_quadratic_form_rejects_grid_mismatch(ops600, gauss_grid):
    f = P.GridFunction.from_callable(gauss_grid, lambda x: np.exp(-(x**2)))
    with pytest.raises(ValueError, match="grid"):
        P.quadratic_form(f, ops600)


def test_min_eig_lower_bound_values():
    assert P.min_eig_lower_bound(0.25) == pytest.approx(0.5, rel=1e-15)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            P.min_eig_lower_bound(bad)


def test_min_eig_bound_is_tight_for_sum_operator(ops600, spec3):
    report = P.sum_operator_spectrum(ops600, 1, spec=spec3)
    bound = P.min_eig_lower_bound(spec3.eigenvalues[0])
    assert report.lambda_min >= bound - 1e-6
    assert report.lambda_min <= bound * 1.25


# ---------------------------------------------------------------------------
# Contradiction margin
# ---------------------------------------------------------------------------


def test_hardy_margin_closed_forms():
    m = P.hardy_margin(2.0, 1.0)
    assert m.ratio == pytest.approx(8 * math.sqrt(math.pi), rel=1e-14)
    assert m.lhs == pytest.approx(4 * math.sqrt(math.pi) * math.exp(-8), rel=1e-14)
    assert m.rhs == pytest.approx(math.exp(-8) / 2, rel=1e-14)
    assert P.hardy_margin(4.0, 1.0).ratio == pytest.approx(
        32 * math.sqrt(math.pi), rel=1e-14
    )
    assert P.hardy_margin(2.0, 3.0).ratio == pytest.approx(
        8 * math.sqrt(math.pi) / 9, rel=1e-14
    )


def test_hardy_margin_ratio_is_lhs_over_rhs():
    for omega in (0.7, 1.3, 2.9):
        m = P.hardy_margin(omega, 1.7)
        assert m.ratio == pytest.approx(m.lhs / m.rhs, rel=1e-14)


def test_hardy_margin_strictly_increasing():
    ratios = [P.hardy_margin(w, 1.0).ratio for w in (1.0, 1.5, 2.0, 3.0, 5.0)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_hardy_margin_validates_arguments():
    with pytest.raises(ValueError):
        P.hardy_margin(0.0, 1.0)
    with pytest.raises(ValueError):
        P.hardy_margin(2.0, 0.0)


# ---------------------------------------------------------------------------
# Concentrations
# ---------------------------------------------------------------------------


def test_alpha_of_window_supported_function_is_one(gauss_grid):
    vals = np.where(np.abs(gauss_grid.points) < 1.0, np.cos(gauss_grid.points), 0.0)
    f = P.GridFunction(grid=gauss_grid, values=vals).normalized()
    assert P.concentration_alpha(f, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_alpha_of_gaussian_matches_erf(unit_gauss):
    for T in (1.0, 2.0, 4.0):
        expected = math.sqrt(erf(T / math.sqrt(2.0)))
        assert P.concentration_alpha(unit_gauss, T) == pytest.approx(expected, abs=1e-9)
    assert P.concentration_alpha(unit_gauss, 0.1) < 0.3


def test_alpha_validates_arguments(gauss_grid, unit_gauss):
    not_unit = P.GridFunction.from_callable(gauss_grid, lambda x: np.exp(-(x**2)))
    with pytest.raises(ValueError, match="unit"):
        P.concentration_alpha(not_unit, 2.0)
    with pytest.raises(ValueError):
        P.concentration_alpha(unit_gauss, 0.0)
    with pytest.raises(ValueError):
        P.concentration_alpha(unit_gauss, 25.0)  # window exceeds the grid


def test_beta_of_gaussian_matches_erf(unit_gauss):
    for Omega in (1.0, 2.0, 3.0):
        expected = erf(Omega / math.sqrt(2.0))
        assert P.concentration_beta(unit_gauss, Omega) ** 2 == pytest.approx(
            expected, abs=1e-12
        )


def test_beta_saturates_for_wide_band():
    grid = P.build_line_grid(8.0, 2500)
    f = P.GridFunction.from_callable(grid, lambda x: np.exp(-(x**2))).normalized()
    assert abs(P.concentration_beta(f, 50.0) - 1.0) < 1e-6


@pytest.mark.parametrize("Omega", [1.0, 3.0, 5.0])
def test_beta_matches_dense_quadratic_form(unit_gauss, masked_top_mode, Omega):
    for f in (unit_gauss, masked_top_mode):
        u = f.weighted()
        dense = dense_S(f.grid, Omega)
        expected = math.sqrt(float(np.vdot(u, dense @ u).real))
        assert P.concentration_beta(f, Omega) == pytest.approx(expected, abs=1e-13)


def test_chain_assembles_one_band_limiter_per_bandwidth(gauss_grid, monkeypatch):
    # A 5 x 5 Landau-Pollak grid over three functions and a quadratic form per
    # omega, as in the Hardy chain, assemble the kernel of S once per distinct bandwidth.
    assembled, kernel = [], P.operators.sinc_kernel
    monkeypatch.setattr(P.operators, "sinc_kernel", lambda c, x, y: assembled.append(c) or kernel(c, x, y))
    grid = dataclasses.replace(gauss_grid)  # the same layout, nothing kept
    shapes = (lambda x: np.exp(-(x**2)), lambda x: x * np.exp(-(x**2)), lambda x: np.exp(-0.5 * (x - 1.0) ** 2))
    fns = [P.GridFunction.from_callable(grid, shape).normalized() for shape in shapes]
    bands, omegas = (1.0, 2.0, 3.0, 4.0, 5.0), (1.5, 2.0, 2.5)
    for T in (1.0, 2.0, 3.0, 4.0, 5.0):
        for Om in bands:
            spec = P.prolate_spectrum(0.5 * T * Om, 1)
            for f in fns:
                P.landau_pollak_check(f, T, Om, spec)
    for w in omegas:
        ops = P.build_limiting_operators(grid, w, w)
        for f in fns:
            P.quadratic_form(f, ops)
    assert sorted(assembled) == sorted(set(bands + omegas))


def test_chains_allocate_no_dense_matrix():
    # The quadratic form and beta apply S by FFT: their peak allocation
    # stays far below one n x n matrix, which the dense S does reach.
    n = 2400
    grid = P.build_line_grid(24.0, n)
    f = P.GridFunction.from_callable(grid, lambda x: np.exp(-(x**2))).normalized()
    tracemalloc.start()
    try:
        ops = P.build_limiting_operators(grid, 2.0, 2.0)
        P.quadratic_form(f, ops)
        P.concentration_beta(f, 3.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dense_S(grid, 2.0)
        _, dense_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4
    assert dense_peak >= 8 * n * n


def test_beta_rejects_non_unit_function(gauss_grid):
    not_unit = P.GridFunction.from_callable(gauss_grid, lambda x: np.exp(-(x**2)))
    with pytest.raises(ValueError, match="unit"):
        P.concentration_beta(not_unit, 2.0)


@pytest.mark.parametrize("concentration", [P.concentration_alpha, P.concentration_beta])
@pytest.mark.parametrize("scale", [1e300, 1e-170])
def test_concentration_refuses_unrepresentable_norms(gauss_grid, concentration, scale):
    # 1e300 e^{-x^2} and 1e-170 e^{-x^2} have finite norms far from 1: both are
    # refused as non-unit, with no numpy warning.
    f = P.GridFunction.from_callable(gauss_grid, lambda x: scale * np.exp(-(x**2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="unit norm"):
            concentration(f, 2.0)


def test_kept_beta_equals_beta_of_a_fresh_function(unit_gauss):
    kept = P.concentration_beta(unit_gauss, 2.0)
    assert P.concentration_beta(unit_gauss, 2.0) == kept
    fresh = P.GridFunction(grid=unit_gauss.grid, values=unit_gauss.values)
    assert P.concentration_beta(fresh, 2.0) == kept


def check_landau_pollak_grid(grid):
    """Landau-Pollak checks on a 5 x 5 grid of windows T and bands Omega over three functions."""
    fns = [
        P.GridFunction.from_callable(grid, lambda x, s=s: np.exp(-((x - s) ** 2))).normalized()
        for s in (0.0, 0.5, -1.0)
    ]
    sizes = (1.0, 2.0, 3.0, 4.0, 5.0)
    specs = {(T, W): P.prolate_spectrum(0.5 * T * W, 1) for T in sizes for W in sizes}
    for f in fns:
        for (T, W), spec in specs.items():
            assert P.landau_pollak_check(f, T, W, spec).margin >= -1e-8
    return fns


def test_landau_pollak_grid_applies_each_band_once_per_function(gauss_grid, monkeypatch):
    # beta depends on (f, Omega) only: the 75 checks of a 5 x 5 grid over three
    # functions take one panel transform per function and one contraction of its
    # Gram per (f, Omega), 15 in all, and apply S to no vector.
    calls = collections.Counter()
    for name in ("panel_spectrum", "energy", "matvec"):
        method = getattr(P.BandLimiter, name)
        spy = lambda self, x, name=name, method=method: calls.update([name]) or method(self, x)
        monkeypatch.setattr(P.BandLimiter, name, spy)
    fns = check_landau_pollak_grid(gauss_grid)
    assert (calls["panel_spectrum"], calls["energy"], calls["matvec"]) == (3, 15, 0)
    # The quadratic forms at the same windows and bands read the kept energies and
    # masses: no S applied, no Gram contracted, no window summed.
    sums, window_sum = [], P.operators._window_sum
    monkeypatch.setattr(P.operators, "_window_sum", lambda *args: sums.append(args[2]) or window_sum(*args))
    for f in fns:
        for tau in (0.5, 1.0, 1.5, 2.0, 2.5):
            for omega in (1.0, 2.0, 3.0, 4.0, 5.0):
                P.quadratic_form(f, P.build_limiting_operators(gauss_grid, tau, omega))
    assert (calls["panel_spectrum"], calls["energy"], calls["matvec"], len(sums)) == (3, 15, 0, 0)


def test_landau_pollak_grid_sums_each_window_once_per_function(gauss_grid, monkeypatch):
    # alpha depends on (f, T) only: the 75 checks sum 15 window masses.
    sums, window_sum = [], P.operators._window_sum
    monkeypatch.setattr(P.operators, "_window_sum", lambda *args: sums.append(args[2]) or window_sum(*args))
    check_landau_pollak_grid(gauss_grid)
    assert sorted(sums) == sorted(3 * [0.5, 1.0, 1.5, 2.0, 2.5])


def test_kept_alpha_equals_the_window_sum(unit_gauss):
    # The kept mass is the sum over the window nodes that alpha always took.
    fresh = P.GridFunction(grid=unit_gauss.grid, values=unit_gauss.values)
    inside = np.abs(fresh.grid.points) < 1.5
    mass = float(np.sum(fresh.grid.weights[inside] * np.abs(fresh.values[inside]) ** 2))
    for _ in range(2):
        assert P.concentration_alpha(fresh, 3.0) == math.sqrt(mass)


# ---------------------------------------------------------------------------
# Landau-Pollak inequality
# ---------------------------------------------------------------------------


def test_landau_pollak_holds_for_gaussian(unit_gauss, spec2):
    rep = P.landau_pollak_check(unit_gauss, 2.0, 2.0, spec2)
    assert rep.margin > 0.05
    assert 0.0 < rep.lhs < math.pi
    assert 0.0 < rep.rhs < math.pi / 2
    assert rep.alpha == pytest.approx(rep.beta, rel=1e-9)  # Gaussian is self-dual


@pytest.mark.parametrize("T_width", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("Omega", [1.0, 2.0, 3.0])
def test_landau_pollak_margin_nonnegative_on_grid(unit_gauss, T_width, Omega):
    spec = P.prolate_spectrum(0.5 * T_width * Omega, 1, order=100)
    rep = P.landau_pollak_check(unit_gauss, T_width, Omega, spec)
    assert rep.margin >= -1e-8


def test_landau_pollak_near_equality_for_masked_mode(masked_top_mode, spec2):
    rep = P.landau_pollak_check(masked_top_mode, 2.0, 2.0, spec2)
    assert rep.alpha == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.margin) < 1e-3


@pytest.mark.parametrize("order", [32, 60, 100, 120, 150, 200])
def test_landau_pollak_equality_margin_is_roundoff(gauss_grid, order):
    # The top mode at c = 2 limited to its window: arccos(alpha) comes from the mass
    # outside the window, exactly 0, so the margin no longer turns on the last bit of alpha.
    spec = P.prolate_spectrum(2.0, 1, order=order)
    values = np.where(np.abs(gauss_grid.points) < 1.0, P.pswf_extend(spec, 0, gauss_grid.points), 0.0)
    f = P.GridFunction(grid=gauss_grid, values=values).normalized()
    assert f.outside_mass(1.0) == 0.0
    assert abs(P.landau_pollak_check(f, 2.0, 2.0, spec).margin) <= 1e-15


def test_outside_mass_is_the_complement_sum_kept_with_the_window(unit_gauss, monkeypatch):
    sums, window_sum = [], P.operators._window_sum
    monkeypatch.setattr(P.operators, "_window_sum", lambda *args: sums.append(args[2]) or window_sum(*args))
    f = P.GridFunction(grid=unit_gauss.grid, values=unit_gauss.values)
    outside = np.abs(f.grid.points) >= 1.5
    mass = float(np.sum(f.grid.weights[outside] * np.abs(f.values[outside]) ** 2))
    for _ in range(2):
        assert f.outside_mass(1.5) == mass
        f.window_mass(1.5)
    assert sums == [1.5]
    assert f.outside_mass(1.5) + f.window_mass(1.5) == pytest.approx(f.norm() ** 2, rel=1e-15)


def test_landau_pollak_holds_for_full_extension(gauss_grid, spec2):
    ext = P.pswf_extend(spec2, 0, gauss_grid.points)
    f = P.GridFunction(grid=gauss_grid, values=ext.astype(complex)).normalized()
    rep = P.landau_pollak_check(f, 2.0, 2.0, spec2)
    assert rep.margin >= -1e-8


def test_landau_pollak_rejects_mismatched_spectrum(unit_gauss, spec2):
    with pytest.raises(ValueError, match="c="):
        P.landau_pollak_check(unit_gauss, 2.0, 3.0, spec2)


@pytest.mark.parametrize("shift", [0.0, 1e-10])
@pytest.mark.parametrize(
    "entry", ["sum_operator_spectrum", "eigenfunction_witness", "landau_pollak_check", "alt_proof_chain"]
)
def test_reference_spectrum_checked_at_one_tolerance(entry, shift, ops600, unit_gauss):
    # Every entry point that takes a reference spectrum accepts it at its own
    # c and refuses it 1e-10 away.
    c, run = {
        "sum_operator_spectrum": (3.0, lambda spec: P.sum_operator_spectrum(ops600, 1, spec=spec)),
        "eigenfunction_witness": (3.0, lambda spec: P.eigenfunction_witness(spec, ops600, 0, +1)),
        "landau_pollak_check": (2.0, lambda spec: P.landau_pollak_check(unit_gauss, 2.0, 2.0, spec)),
        "alt_proof_chain": (4.0, lambda spec: P.alt_proof_chain(2.0, 1.0, spec)),
    }[entry]
    spec = dataclasses.replace(P.prolate_spectrum(c, 1, order=120), c=c + shift)
    if shift:
        with pytest.raises(ValueError, match="c="):
            run(spec)
    else:
        run(spec)


# ---------------------------------------------------------------------------
# arccos expansion
# ---------------------------------------------------------------------------


def test_arccos_expansion_examples():
    exact, approx = P.arccos_expansion_check(0.02)
    assert approx == pytest.approx(0.2, rel=1e-15)
    assert exact == pytest.approx(math.acos(0.98), rel=1e-15)
    exact, approx = P.arccos_expansion_check(0.5)
    assert exact == pytest.approx(math.pi / 3, rel=1e-14)
    assert approx == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("x", [0.01, 0.05, 0.1, 0.2, 0.35, 0.5])
def test_arccos_expansion_ratio_bracketed(x):
    exact, approx = P.arccos_expansion_check(x)
    assert 1.0 <= exact / approx <= 1.0 + x


def test_arccos_expansion_tightens_as_x_shrinks():
    def ratio(x):
        exact, approx = P.arccos_expansion_check(x)
        return exact / approx

    assert ratio(0.4) > ratio(0.1) > ratio(0.01)


def test_arccos_expansion_domain():
    for bad in (0.0, -0.1, 0.6, 1.0):
        with pytest.raises(ValueError):
            P.arccos_expansion_check(bad)


# ---------------------------------------------------------------------------
# Alternative proof chain
# ---------------------------------------------------------------------------


def test_alt_chain_contradiction_ratio_closed_form():
    spec4 = P.prolate_spectrum(4.0, 1, order=120)
    rep = P.alt_proof_chain(2.0, 1.0, spec4)
    assert rep.contradiction_ratio == pytest.approx(math.pi**0.25, rel=1e-12)
    spec9 = P.prolate_spectrum(9.0, 1, order=140)
    rep9 = P.alt_proof_chain(3.0, 1.0, spec9)
    assert rep9.contradiction_ratio == pytest.approx(
        3 * math.pi**0.25 / 2, rel=1e-12
    )


@pytest.mark.parametrize("omega", [1.5, 2.0, 2.5])
def test_alt_chain_concentration_link_holds(omega):
    spec = P.prolate_spectrum(omega * omega, 1, order=140)
    rep = P.alt_proof_chain(omega, 1.0, spec)
    assert 0.0 < rep.acos_alpha <= rep.acos_alpha_bound


# arcsin sqrt(erfc(sqrt(2) omega)) in mpmath 1.3 at mp.dps = 40.
ACOS_ALPHA_REFERENCE = {3.0: 4.44204377665642e-05, 3.5: 1.5998828356394896e-06, 4.0: 3.52731075304453e-08}


@pytest.mark.parametrize("omega", sorted(ACOS_ALPHA_REFERENCE))
def test_alt_chain_acos_alpha_from_the_outside_mass(omega):
    # arccos sqrt(erf(sqrt(2) omega)) cancels: it is off by 2.8e-8 relative at
    # omega = 3, 2.1e-5 at 3.5 and 3.5e-2 at 4.
    rep = P.alt_proof_chain(omega, 1.0, P.prolate_spectrum(omega * omega, 1))
    assert abs(rep.acos_alpha / ACOS_ALPHA_REFERENCE[omega] - 1.0) <= 1e-14


def test_alt_chain_gap_asymptotic_link(spec2):
    # arccos(sqrt(lambda_0(omega^2))) vs 2 pi^{1/4} sqrt(omega)
    # e^{-omega^2}: the O(1/c) correction leaves ~7% at omega = 2 and
    # shrinks as omega grows.
    spec4 = P.prolate_spectrum(4.0, 1, order=120)
    rep2 = P.alt_proof_chain(2.0, 1.0, spec4)
    assert rep2.acos_lambda_numeric == math.acos(math.sqrt(spec4.eigenvalues[0]))
    assert rep2.acos_lambda_asymptotic == pytest.approx(2 * math.pi**0.25 * math.sqrt(2.0) * math.exp(-4.0), rel=1e-15)
    assert rep2.asymptotic_ratio == rep2.acos_lambda_numeric / rep2.acos_lambda_asymptotic
    assert 0.7 < rep2.asymptotic_ratio < 1.3
    spec6 = P.prolate_spectrum(6.25, 1, order=140)
    rep25 = P.alt_proof_chain(2.5, 1.0, spec6)
    assert abs(rep25.asymptotic_ratio - 1.0) < abs(rep2.asymptotic_ratio - 1.0)


def test_alt_chain_validates_arguments(spec2):
    spec4 = P.prolate_spectrum(4.0, 1, order=120)
    with pytest.raises(ValueError, match="1.5"):
        P.alt_proof_chain(1.0, 1.0, spec4)
    with pytest.raises(ValueError, match="c="):
        P.alt_proof_chain(2.0, 1.0, spec2)
    with pytest.raises(ValueError):
        P.alt_proof_chain(2.0, 0.0, spec4)


NAN = float("nan")


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(lambda f: P.concentration_alpha(f, NAN), ValueError, "T_width must be positive", id="alpha"),
        pytest.param(lambda f: P.concentration_beta(f, NAN), ValueError, "omega must be positive", id="beta"),
        pytest.param(lambda f: f.window_mass(NAN), ValueError, "half-width must be positive", id="window-mass"),
        pytest.param(lambda f: f.outside_mass(NAN), ValueError, "half-width must be positive", id="outside-mass"),
        pytest.param(
            lambda f: P.concentration_alpha(P.GridFunction(f.grid, f.values * NAN), 2.0),
            ValueError,
            "unit norm",
            id="alpha-nan-function",
        ),
        pytest.param(
            lambda f: P.landau_pollak_check(f, NAN, 2.0, P.prolate_spectrum(1.0, 1)),
            ValueError,
            "needs c=nan",
            id="landau-pollak",
        ),
        pytest.param(lambda f: P.build_line_grid(NAN, 10), ValueError, "L must be positive", id="line-grid"),
        pytest.param(lambda f: P.build_time_limiter(f.grid, NAN), ValueError, "tau must be positive", id="chi"),
        pytest.param(lambda f: P.build_band_operator(f.grid, NAN), ValueError, "omega must be positive", id="S"),
        pytest.param(lambda f: P.GaussianEnvelope(M=NAN, a=2.0, b=2.0), ValueError, "positive", id="envelope-M"),
        pytest.param(lambda f: P.GaussianEnvelope(M=1.0, a=NAN, b=2.0), ValueError, "positive", id="envelope-a"),
        pytest.param(lambda f: P.GaussianEnvelope(M=1.0, a=2.0, b=NAN), ValueError, "positive", id="envelope-b"),
        pytest.param(lambda f: P.sinc_kernel(NAN, 0.5, 0.0), ValueError, "c must be positive", id="sinc-kernel"),
        pytest.param(
            lambda f: P.time_tail_bound(P.GaussianEnvelope(1.0, 2.0, 2.0), NAN),
            ValueError,
            "tau must be positive",
            id="time-tail",
        ),
        pytest.param(
            lambda f: P.freq_tail_bound(P.GaussianEnvelope(1.0, 2.0, 2.0), NAN),
            ValueError,
            "omega must be positive",
            id="freq-tail",
        ),
        pytest.param(lambda f: P.lambda0_asymptotic(NAN), ValueError, "c must be positive", id="lambda0-asymptotic"),
        pytest.param(lambda f: P.exact_gaussian_tail(NAN, 1.0), ValueError, "a must be positive", id="exact-tail-a"),
        pytest.param(lambda f: P.exact_gaussian_tail(2.0, NAN), ValueError, "nonnegative", id="exact-tail-tau"),
        pytest.param(
            lambda f: P.alt_proof_chain(NAN, 1.0, P.prolate_spectrum(4.0, 1)), ValueError, "1.5", id="alt-chain-omega"
        ),
        pytest.param(
            lambda f: P.alt_proof_chain(2.0, NAN, P.prolate_spectrum(4.0, 1)),
            ValueError,
            "M must be positive",
            id="alt-chain-M",
        ),
        pytest.param(lambda f: P.prolate_spectrum(NAN, 1), ValueError, "c must be positive", id="spectrum"),
        pytest.param(lambda f: P.hardy_margin(NAN, 1.0), ValueError, "omega must be positive", id="margin-omega"),
        pytest.param(lambda f: P.hardy_margin(1.0, NAN), ValueError, "M must be positive", id="margin-M"),
        pytest.param(lambda f: P.asymptotic_gap_ratio(2.0, NAN), P.NumericalFailure, "roundoff", id="gap-ratio"),
    ],
)
def test_nan_arguments_are_refused(unit_gauss, call, error, message):
    # NaN fails every comparison, so each guard is written to fail closed on it.
    with pytest.raises(error, match=message):
        call(unit_gauss)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: P.build_line_grid(math.inf, 10), "L must be positive", id="line-grid"),
        pytest.param(lambda: P.sinc_kernel(math.inf, 0.5, 0.0), "c must be positive", id="sinc-kernel"),
        pytest.param(lambda: P.prolate_spectrum(math.inf, 1), "c must be positive", id="spectrum"),
        pytest.param(lambda: P.lambda0_asymptotic(math.inf), "c must be positive", id="lambda0-asymptotic"),
    ],
)
def test_infinite_arguments_are_refused(call, message):
    # inf passes a positivity test, so these guards also require a finite value.
    with pytest.raises(ValueError, match=message):
        call()
