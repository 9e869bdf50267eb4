"""Independent references and property checks for the benchmark's outputs.

Nothing here calls the ``prolate`` package.  References are recomputed
with plain numpy and the standard library (a separate Nystrom solve on
Gauss-Legendre nodes using ``np.sinc``, closed forms through
``math.erf``), and the remaining checks are properties the method must
have.  Every check is named; a negative control perturbs one output and
must be rejected by the check of that name.
"""

from __future__ import annotations

import copy
import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)


def reference_eigenvalues(c: float, order: int) -> np.ndarray:
    """Descending eigenvalues of the sinc kernel on (-1, 1) at bandwidth c."""
    x, w = np.polynomial.legendre.leggauss(order)
    sq = np.sqrt(w)
    # sin(c d) / (pi d) == (c / pi) * sinc(c d / pi), with np.sinc(0) == 1.
    k = (c / math.pi) * np.sinc((c / math.pi) * (x[:, None] - x[None, :]))
    return np.linalg.eigvalsh(sq[:, None] * k * sq[None, :])[::-1]


def gaussian_concentration(width: float) -> float:
    """Concentration of the unit Gaussian exp(-x^2) (or its transform) on |x| < width/2."""
    return math.sqrt(math.erf(width / math.sqrt(2.0)))


def envelope_form_bound(omega: float, M: float) -> float:
    """Closed-form tail budget M^2/omega * exp(-2 omega^2) at a = b = 2, tau = omega."""
    return M * M / omega * math.exp(-2.0 * omega * omega)


def margin_ratio(omega: float, M: float) -> float:
    """Contradiction ratio 2 sqrt(pi) omega^2 / M^2 of the Hardy chain."""
    return 2.0 * SQRT_PI * omega * omega / (M * M)


def lambda0_asymptotic(c: float) -> float:
    """Leading large-c form 1 - 4 sqrt(pi) sqrt(c) exp(-2c) of lambda_0."""
    return 1.0 - 4.0 * SQRT_PI * math.sqrt(c) * math.exp(-2.0 * c)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Checker:
    """Collects named failures; a check passes when it records nothing."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []

    def require(self, name: str, ok, detail: str = "") -> None:
        if not bool(ok):
            self.failures.append((name, detail))

    def failed(self, name: str) -> bool:
        return any(n == name for n, _ in self.failures)

    def messages(self) -> list[str]:
        return [f"{n}: {d}" if d else n for n, d in self.failures]


def run_negative_controls(verify, inputs, record, controls) -> list[str]:
    """Apply each (name, mutate) control to a copy of ``record``.

    ``verify(inputs, record, checker)`` must flag the named check on every
    perturbed copy.  Returns the names of controls that were accepted, which
    means the check could not see the perturbation.
    """
    accepted = []
    for name, mutate in controls:
        bad = copy.deepcopy(record)
        mutate(bad)
        ck = Checker()
        verify(inputs, bad, ck)
        if not ck.failed(name):
            accepted.append(name)
    return accepted
