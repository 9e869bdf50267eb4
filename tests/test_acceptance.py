"""Acceptance gate: the thirteen verification criteria, each asserted at
its stated tolerance and reported as one [PASS]/[FAIL] line.

Three criteria measure quantities that are limited by domain truncation
(the grid covers (-L, L), not the whole line) and fail honestly at the
stated tolerances; the measured floors are asserted nowhere else and the
failures are deliberate.  See the test docstrings for the mechanism.
"""

import math

import numpy as np
import pytest

import prolate as P
from prolate.cli import main

from conftest import ACCEPTANCE_VERDICTS, dense_T, with_shifted_root


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, line


def test_c01_refinement_oracle():
    """lambda_0..lambda_3 at c=1 agree between quadrature orders 60 and 120."""
    coarse = P.prolate_spectrum(1.0, 4, order=60)
    fine = P.prolate_spectrum(1.0, 4, order=120)
    diff = float(np.abs(coarse.eigenvalues - fine.eigenvalues).max())
    verdict(1, diff <= 1e-10, f"order 60 vs 120 eigenvalue diff {diff:.3e} <= 1e-10")


def test_c02_gap_asymptotic_ratio():
    """r(c) = (1 - lambda_0)/(4 sqrt(pi) sqrt(c) e^{-2c}) approaches 1.

    The trend clause holds; the absolute clause |r(8) - 1| < 0.05 does
    not, because the dropped correction to the asymptotic is a relative
    1 + O(1/c) factor (empirically about 0.47/c, i.e. ~0.058 at c=8).
    The computed r(8) is converged (identical from order 60 to 240), so
    the 0.05 tolerance is tighter than the mathematics allows.
    """
    r = {}
    for c in (4.0, 8.0):
        lam0 = float(P.prolate_spectrum(c, 1, order=120).eigenvalues[0])
        r[c] = P.asymptotic_gap_ratio(c, lam0)
    trend = abs(r[8.0] - 1.0) < abs(r[4.0] - 1.0)
    close = abs(r[8.0] - 1.0) < 0.05
    verdict(
        2,
        trend and close,
        f"r(4)={r[4.0]:.4f}, r(8)={r[8.0]:.4f}; trend {'ok' if trend else 'BAD'}, "
        f"|r(8)-1|={abs(r[8.0] - 1.0):.4f} vs 0.05",
    )


def test_c03_paired_spectrum_residuals(ops600, spec3):
    """Eigenvalues of chi + S match 1 +/- sqrt(lambda_n(3)) at (1, 3, 30, 600).

    The matching is correct but the residuals sit on the domain
    truncation floor, which scales like 1/L (verified: doubling L to 60
    and 120 halves them twice; refining the quadrature at fixed L leaves
    them unchanged).  At L = 30 the floor is ~3.6e-3 / 5.0e-3, above the
    stated 1e-4 / 1e-3.
    """
    report = P.sum_operator_spectrum(ops600, 6, spec=spec3)
    above = float(report.residuals_above.max())
    below = float(report.residuals_below.max())
    verdict(
        3,
        above < 1e-4 and below < 1e-3,
        f"max residual above {above:.3e} vs 1e-4, below {below:.3e} vs 1e-3",
    )


def test_c04_product_invariance():
    """(tau, omega) = (1, 3) and (2, 1.5) give the same top of spectrum."""
    grid = P.build_line_grid(60.0, 1200)
    tops = []
    for tau, omega in ((1.0, 3.0), (2.0, 1.5)):
        ops = P.build_limiting_operators(grid, tau, omega)
        tops.append(float(np.linalg.eigvalsh(dense_T(ops)).max()))
    diff = abs(tops[0] - tops[1])
    verdict(4, diff < 1e-4, f"top eigenvalues differ by {diff:.3e} < 1e-4")


def test_c05_eigenfunction_witness(ops600, spec3):
    """Assembled eigenfunctions of chi + S have small relative residual.

    The candidate equals a multiple of the bandlimited extension outside
    the window; its 1/x tails are cut at |x| = L, leaving a residual
    floor of order 1/sqrt(L) (~4e-3 to 5e-2 at L = 30, invariant under
    quadrature refinement), above the stated 1e-5.  The perturbed
    negative control matches its clause.
    """
    residuals = {
        (n, s): P.eigenfunction_witness(spec3, ops600, n, s)
        for n in (0, 1)
        for s in (+1, -1)
    }
    control = P.eigenfunction_witness(with_shifted_root(spec3, 1e-3), ops600, 0, +1)
    worst = max(residuals.values())
    clean_ok = worst < 1e-5
    control_ok = control > 1e-3
    verdict(
        5,
        clean_ok and control_ok,
        f"witness residuals {min(residuals.values()):.3e}..{worst:.3e} vs 1e-5; "
        f"shifted control {control:.3e} > 1e-3 {'ok' if control_ok else 'BAD'}",
    )


def test_c06_spectral_confinement(ops600, spec3):
    """All eigenvalues of chi + S lie in [0, 2]; at least 10 cluster at 1."""
    report = P.sum_operator_spectrum(ops600, 6, spec=spec3)
    ev = report.computed_eigenvalues
    lo, hi = float(ev.min()), float(ev.max())
    near_one = int(np.sum(np.abs(ev - 1.0) < 0.1))
    ok = lo > -1e-8 and hi < 2 + 1e-8 and near_one >= 10
    verdict(
        6,
        ok,
        f"spectrum in [{lo:.2e}, {hi:.6f}], {near_one} eigenvalues within 0.1 of 1",
    )


def test_c07_singular_sequence():
    """Shifted modulated Gaussians drive the Rayleigh ratio of chi + S to 0."""
    schedule = [(5, 15.0, 600), (10, 20.0, 1200), (20, 30.0, 4800)]
    ratios = []
    drift = 0.0
    for n, L, npts in schedule:
        ops = P.build_limiting_operators(P.build_line_grid(L, npts), tau=1.0, omega=3.0)
        x, w = ops.grid.points, ops.grid.weights
        f_n = np.sqrt(w) * np.exp(1j * n * x - (x - n) ** 2)
        f_0 = np.sqrt(w) * np.exp(-(x**2))
        drift = max(drift, abs(float(np.linalg.norm(f_n) - np.linalg.norm(f_0))))
        ratios.append(P.zero_spectrum_witness(ops, n))
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = decreasing and ratios[-1] < 1e-3 and drift <= 1e-6
    verdict(
        7,
        ok,
        "Rayleigh ratios " + " > ".join(f"{r:.2e}" for r in ratios) + f", "
        f"n=20 < 1e-3, norm drift {drift:.1e} <= 1e-6",
    )


def test_c08_tail_bounds_dominate_exact_tails():
    """Closed-form tail bounds dominate the exact Gaussian tails, 12 cases."""
    failures = []
    for a in (1.0, 2.0, 4.0):
        env = P.GaussianEnvelope(M=1.0, a=a, b=1.0)
        for tau in (0.5, 1.0, 2.0, 4.0):
            if P.exact_gaussian_tail(a, tau) > P.time_tail_bound(env, tau):
                failures.append((a, tau))
    verdict(
        8,
        not failures,
        f"exact tail <= closed bound in 12/12 cases (a in {{1,2,4}}, tau in "
        f"{{0.5,1,2,4}}){'; failed: ' + str(failures) if failures else ''}",
    )


def test_c09_quadratic_form_chain():
    """The tail budget stays under M^2/omega e^{-2 omega^2}, and the grid
    quadratic form respects the 1 - sqrt(lambda_0) lower bound."""
    env = P.GaussianEnvelope(M=1.0, a=2.0, b=2.0)
    chain_ok, rayleigh_ok = True, True
    details = []
    for omega in (1.5, 2.0, 2.5):
        budget = 1.0 / omega * math.exp(-2.0 * omega**2)
        total = P.envelope_tail_sum(env, omega, omega)
        chain_ok &= total <= budget
        details.append(f"w={omega:g}: {total:.3e}<={budget:.3e}")

        half_width = max(5.0 * omega, 5.0) + 10.0 / omega
        grid = P.build_line_grid(half_width, max(600, int(30.0 * half_width)))
        ops = P.build_limiting_operators(grid, omega, omega)
        f = P.GridFunction.from_callable(grid, lambda x: np.exp(-(x**2))).normalized()
        form = P.quadratic_form(f, ops).value
        lam0 = float(P.prolate_spectrum(omega * omega, 1, order=120).eigenvalues[0])
        rayleigh_ok &= form >= P.min_eig_lower_bound(lam0) - 1e-6
    verdict(
        9,
        chain_ok and rayleigh_ok,
        "; ".join(details) + f"; Rayleigh lower bound {'ok' if rayleigh_ok else 'BAD'}",
    )


def test_c10_contradiction_margin():
    """The margin ratio equals 2 sqrt(pi) omega^2 / M^2 and grows monotonically."""
    worst_rel = 0.0
    for omega, M in ((1.5, 1.0), (2.0, 1.0), (2.5, 0.5), (3.0, 2.0)):
        ratio = P.hardy_margin(omega, M).ratio
        closed = 2.0 * math.sqrt(math.pi) * omega**2 / M**2
        worst_rel = max(worst_rel, abs(ratio - closed) / closed)
    sweep = [P.hardy_margin(w, 1.0).ratio for w in (1.0, 1.5, 2.0, 2.5, 3.0)]
    increasing = all(a < b for a, b in zip(sweep, sweep[1:]))
    ok = worst_rel <= 1e-14 and increasing
    verdict(
        10,
        ok,
        f"closed-form rel error {worst_rel:.2e} <= 1e-14, sweep strictly "
        f"increasing {'ok' if increasing else 'BAD'}",
    )


def test_c11_landau_pollak(unit_gauss, gauss_grid):
    """Concentration inequality on the 5x5 (T, Omega) grid, with
    near-equality for the window-supported top mode at c = 2."""
    worst = math.inf
    for T in (1.0, 2.0, 3.0, 4.0, 5.0):
        for Om in (1.0, 2.0, 3.0, 4.0, 5.0):
            c = 0.5 * T * Om
            spec = P.prolate_spectrum(c, 1, order=max(100, P.min_quadrature_order(c)))
            worst = min(worst, P.landau_pollak_check(unit_gauss, T, Om, spec).margin)
    spec2 = P.prolate_spectrum(2.0, 1, order=120)
    ext = P.pswf_extend(spec2, 0, gauss_grid.points)
    vals = np.where(np.abs(gauss_grid.points) < 1.0, ext, 0.0)
    top_mode = P.GridFunction(grid=gauss_grid, values=vals).normalized()
    eq_margin = P.landau_pollak_check(top_mode, 2.0, 2.0, spec2).margin
    ok = worst >= -1e-8 and abs(eq_margin) < 1e-3
    verdict(
        11,
        ok,
        f"25-point worst margin {worst:.3e} >= -1e-8; top-mode margin "
        f"{eq_margin:.1e} < 1e-3",
    )


def test_c12_matrix_scale_lemmas():
    """sigma(AB) = sigma(BA) and the projector resolvent identity, 8x8."""
    rng = np.random.default_rng(2024)
    spectra_dev = 0.0
    for _ in range(5):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ev_ab = np.sort_complex(np.linalg.eigvals(a @ b))
        ev_ba = np.sort_complex(np.linalg.eigvals(b @ a))
        spectra_dev = max(spectra_dev, float(np.abs(ev_ab - ev_ba).max()))
    x = rng.standard_normal((8, 8)) + 0.5 * np.eye(8)
    p = x @ np.diag([1.0] * 4 + [0.0] * 4) @ np.linalg.inv(x)
    resolvent_dev = 0.0
    for lam in (2.0, -1.0, 0.5):
        approx_inverse = np.eye(8) / lam + p / (lam * (lam - 1.0))
        resolvent_dev = max(
            resolvent_dev,
            float(np.linalg.norm((lam * np.eye(8) - p) @ approx_inverse - np.eye(8), 2)),
        )
    ok = spectra_dev <= 1e-8 and resolvent_dev <= 1e-12
    verdict(
        12,
        ok,
        f"sigma(AB) vs sigma(BA) dev {spectra_dev:.2e} <= 1e-8; resolvent dev "
        f"{resolvent_dev:.2e} <= 1e-12",
    )


def test_c13_cli_determinism(tmp_path):
    """Each subcommand run twice with identical (default) flags produces
    byte-identical CSV."""
    stable = []
    for name in ("spectrum", "asymptotics", "sum-spectrum", "hardy"):
        paths = [tmp_path / f"{name}-{k}.csv" for k in (1, 2)]
        for path in paths:
            assert main([name, "--out", str(path)]) == 0
        stable.append(paths[0].read_bytes() == paths[1].read_bytes())
    verdict(
        13,
        all(stable),
        f"byte-identical reruns for {sum(stable)}/4 subcommands "
        "(spectrum, asymptotics, sum-spectrum, hardy)",
    )
