import dataclasses
import math

import numpy as np
import pytest
from hypothesis import settings

import prolate as P

# Property tests draw the same examples on every run and keep no example
# database, so a pass or a failure does not depend on an earlier run.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# One "[PASS]/[FAIL] criterion N: ..." line per acceptance criterion,
# echoed after the run so the verdicts are visible without -s.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_VERDICTS):
            terminalreporter.write_line(line)

# Reference sinc-kernel eigenvalues at c = 3, quadrature order 120.
# The refinement oracle (order 240) reproduces them to 2e-15.
LAM3 = np.array(
    [
        0.97582863480923598,
        0.7099632385447725,
        0.20513867866257207,
        0.018203799540436317,
        0.00070814709841530814,
        1.6551244455436723e-05,
    ]
)

LAM0 = {
    1.0: 0.57258178063789533,
    2.0: 0.88055992231730984,
    4.0: 0.99588549042966756,
    8.0: 0.99999787499720783,
}


def nystrom_matrix(c, nodes, weights):
    """Dense sinc matrix W^(1/2) K W^(1/2) on any nodes with weights w.

    On Gauss-Legendre nodes of (-1, 1) it is the Nystrom matrix of K_c, an
    oracle for ``prolate_spectrum`` that shares no code with its Legendre
    tridiagonal; on a line grid it is the band limiter S_c, the oracle for
    ``BandLimiter``.  Exactly symmetric: the kernel is, and sqrt(w_i) sqrt(w_j)
    is one product for both (i, j) and (j, i).
    """
    sq = np.sqrt(weights)
    return np.outer(sq, sq) * P.sinc_kernel(c, nodes[:, None], nodes[None, :])


def dense_S(grid, omega):
    """Dense band limiter S_omega on ``grid``, assembled directly from the sinc kernel."""
    return nystrom_matrix(omega, grid.points, grid.weights)


def dense_T(ops):
    """Dense T = chi + S of ``ops``."""
    return dense_S(ops.grid, ops.omega) + np.diag(ops.chi)


def with_shifted_root(spec, shift):
    """``spec`` with sqrt(lambda_0) moved by ``shift``: a wrong eigenvalue for a negative control."""
    lam = spec.eigenvalues.copy()
    lam[0] = (math.sqrt(lam[0]) + shift) ** 2
    return dataclasses.replace(spec, eigenvalues=lam)


@pytest.fixture(scope="session")
def spec3():
    return P.prolate_spectrum(3.0, 6, order=120)


@pytest.fixture(scope="session")
def grid600():
    return P.build_line_grid(30.0, 600)


@pytest.fixture(scope="session")
def ops600(grid600):
    return P.build_limiting_operators(grid600, tau=1.0, omega=3.0)


@pytest.fixture(scope="session")
def gauss_grid():
    # Fine enough for band limiters up to Omega = 5 (h * Omega ~ 0.2).
    return P.build_line_grid(12.0, 1200)


@pytest.fixture(scope="session")
def unit_gauss(gauss_grid):
    return P.GridFunction.from_callable(gauss_grid, lambda x: np.exp(-(x**2))).normalized()
