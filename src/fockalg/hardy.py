"""One-variable analytic series: the harmonic-coefficient function f(z) =
sum_k z^k/(k+1), its reciprocal, and boundary diagnostics.

f lies in the square-summable class but not in the bounded class: its partial
sums blow up at z = 1.  Its modulus on the unit circle has the closed form

    |f(e^{i theta})|^2 = (log|2 sin(theta/2)|)^2 + ((theta - pi)/2)^2

for 0 < theta <= pi, coming from z f(z) = -log(1 - z) (principal branch) and
the identity 1 - e^{i theta} = (2 sin(theta/2)) e^{i (theta - pi)/2}.  The
modulus is bounded below by (log 2)/2 on the circle, which is what makes 1/f
bounded there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .words import BasisCapExceeded, basis_cap

GUARD_BAND = 0.05  # radians around theta = 0 excluded from circle scans


@dataclass(frozen=True)
class ScalarSeries:
    """Coefficients (c_0, ..., c_K) of a one-variable power series."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("need at least c_0")

    @staticmethod
    def make(values) -> "ScalarSeries":
        return ScalarSeries(tuple(complex(v) for v in values))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> complex:
        return self.coeffs[k] if 0 <= k <= self.order else 0.0 + 0.0j

    def degree(self) -> int:
        """Largest k with c_k != 0 (0 for the zero series)."""
        return max((k for k, c in enumerate(self.coeffs) if c != 0), default=0)


def harmonic_series(K: int) -> ScalarSeries:
    """c_k = 1/(k+1) for k = 0..K."""
    if K < 0:
        raise ValueError("need K >= 0")
    return ScalarSeries(tuple(1.0 / (k + 1) + 0.0j for k in range(K + 1)))


def reciprocal(s: ScalarSeries, K: int | None = None) -> ScalarSeries:
    """Series g with (s g)_k = delta_{k0} for 0 <= k <= K.

    Triangular recursion g_0 = 1/c_0, g_k = -(1/c_0) sum_{j=1..k} c_j g_{k-j}.
    """
    order = s.order if K is None else K
    if order < 0:
        raise ValueError("need K >= 0")
    c0 = s.coeff(0)
    if abs(c0) <= 1e-12:
        raise ValueError(f"constant term {c0} too close to 0 to invert")
    c = [s.coeff(j) for j in range(order + 1)]
    g = np.zeros(order + 1, dtype=complex)
    g[0] = 1.0 / c0
    for k in range(1, order + 1):
        acc = 0.0 + 0.0j
        for j in range(1, k + 1):
            cj = c[j]
            if cj != 0:
                acc += cj * g[k - j]
        g[k] = -acc / c0
    return ScalarSeries(tuple(g))


def boundary_modulus(theta: float) -> float:
    """|f(e^{i theta})| in closed form, for 0 < |theta| <= pi.

    The formula is stated on (0, pi]; negative angles use the conjugation
    symmetry |f(e^{-i theta})| = |f(e^{i theta})| (f has real coefficients).
    """
    t = abs(float(theta))
    if t == 0.0:
        raise ValueError("theta = 0 is the boundary singularity of f")
    if t > math.pi + 1e-15:
        raise ValueError(f"need |theta| <= pi, got {theta}")
    t = min(t, math.pi)
    a = math.log(abs(2.0 * math.sin(t / 2.0)))
    b = (t - math.pi) / 2.0
    return math.sqrt(a * a + b * b)


def _check_grid(grid: int) -> None:
    """8 <= grid <= the basis cap, the package's one bound on a run's size."""
    if grid < 8:
        raise ValueError(f"need at least 8 grid points, got {grid}")
    limit = basis_cap()
    if grid > limit:
        raise BasisCapExceeded(f"grid of {grid} points exceeds cap {limit}")


def circle_grid(grid: int, guard: float = GUARD_BAND) -> np.ndarray:
    """Angles (-pi, pi] on a uniform grid with |theta| < guard removed."""
    _check_grid(grid)
    theta = (np.arange(grid) + 0.5) * (2.0 * math.pi / grid) - math.pi
    return theta[np.abs(theta) >= guard]


def partial_sum_sup(s: ScalarSeries, m: int, grid: int) -> float:
    """max over grid points e^{i theta} of |sum_{k<=m} c_k e^{i k theta}|."""
    if not 0 <= m <= s.order:
        raise ValueError(f"need 0 <= m <= stored order {s.order}, got m = {m}")
    _check_grid(grid)
    theta = np.arange(grid) * (2.0 * math.pi / grid)
    z = np.exp(1j * theta)
    val = np.full(grid, s.coeffs[m], dtype=complex)
    for k in range(m - 1, -1, -1):
        val = val * z + s.coeffs[k]
    return float(np.max(np.abs(val)))
