import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockalg.hardy import (
    ScalarSeries,
    boundary_modulus,
    circle_grid,
    harmonic_series,
    partial_sum_sup,
    reciprocal,
)
from fockalg.words import BasisCapExceeded

ZETA2 = math.pi**2 / 6.0


def test_harmonic_coefficients():
    s = harmonic_series(2)
    assert np.allclose(s.coeffs, [1.0, 0.5, 1.0 / 3.0])
    assert s.coeff(0) == 1.0


def test_harmonic_l2_limit():
    # tail of sum 1/(k+1)^2 beyond K is between 1/(K+2) and 1/(K+1)
    for K in (64, 512):
        partial = np.linalg.norm(harmonic_series(K).coeffs) ** 2
        assert 0 < ZETA2 - partial <= 1.0 / (K + 1)


def test_reciprocal_hand_values():
    g = reciprocal(harmonic_series(8), 8)
    assert abs(g.coeff(0) - 1.0) <= 1e-15
    assert abs(g.coeff(1) + 0.5) <= 1e-15
    assert abs(g.coeff(2) + 1.0 / 12.0) <= 1e-15


def test_reciprocal_product_is_delta():
    K = 256
    f = harmonic_series(K)
    g = reciprocal(f, K)
    prod = np.convolve(np.asarray(f.coeffs), np.asarray(g.coeffs))[: K + 1]
    target = np.zeros(K + 1)
    target[0] = 1.0
    assert np.max(np.abs(prod - target)) <= 1e-12


def test_reciprocal_of_identity():
    one = ScalarSeries.make([1.0, 0.0, 0.0])
    assert np.allclose(reciprocal(one).coeffs, one.coeffs)


def test_reciprocal_requires_unit():
    with pytest.raises(ValueError):
        reciprocal(ScalarSeries.make([0.0, 1.0]))


def test_reciprocal_refuses_negative_order():
    with pytest.raises(ValueError, match=r"^need K >= 0$"):
        reciprocal(harmonic_series(4), K=-1)


@settings(deadline=None, max_examples=40)
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
        min_size=0,
        max_size=8,
    ),
    c0=st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_reciprocal_involution(coeffs, c0):
    s = ScalarSeries.make([c0] + coeffs)
    back = reciprocal(reciprocal(s))
    assert max(abs(a - b) for a, b in zip(back.coeffs, s.coeffs)) <= 1e-10


def _reciprocal_by_coeff_calls(s, K):
    """reciprocal as it read its coefficients before: one s.coeff(j) call per
    term, the sum and the division in numpy scalars."""
    c0 = s.coeff(0)
    g = np.zeros(K + 1, dtype=complex)
    g[0] = 1.0 / c0
    for k in range(1, K + 1):
        acc = 0.0 + 0.0j
        for j in range(1, k + 1):
            cj = s.coeff(j)
            if cj != 0:
                acc += cj * g[k - j]
        g[k] = -acc / c0
    return tuple(g)


def _bits(values):
    return [(type(v), v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("K", [24, 64, 256])
def test_reciprocal_of_harmonic_is_the_old_loop_bitwise(K):
    s = harmonic_series(K)
    assert _bits(reciprocal(s, K).coeffs) == _bits(_reciprocal_by_coeff_calls(s, K))


@settings(deadline=None, max_examples=60)
@given(
    coeffs=st.lists(st.sampled_from([0.0, -0.0, 0.25, -1.0]) | st.floats(-2, 2), max_size=12),
    imag=st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-2, 2), min_size=13, max_size=13),
    c0=st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    extra=st.integers(-3, 4),
)
def test_reciprocal_is_the_old_loop_bitwise(coeffs, imag, c0, extra):
    """Random series, with zero and signed-zero coefficients, cut below or
    read past their order."""
    s = ScalarSeries.make([c0] + [complex(a, b) for a, b in zip(coeffs, imag)])
    K = max(s.order + extra, 0)
    assert _bits(reciprocal(s, K).coeffs) == _bits(_reciprocal_by_coeff_calls(s, K))


def test_boundary_modulus_at_pi():
    # alternating-series oracle: value at -1 is log 2
    K = 100001
    partial = sum((-1) ** k / (k + 1) for k in range(K + 1))
    val = boundary_modulus(math.pi)
    assert abs(val - math.log(2)) <= 1e-15
    assert abs(val - abs(partial)) <= 1.0 / (K + 2) * 2


def test_boundary_modulus_quarter_turn():
    theta = math.pi / 2
    # np.polyval wants the highest-degree coefficient first
    coeffs = harmonic_series(40000).coeffs[::-1]
    series_val = abs(np.polyval(coeffs, 0.999 * cmath.exp(1j * theta)))
    assert abs(boundary_modulus(theta) - series_val) <= 1e-2


def test_boundary_modulus_symmetric():
    assert boundary_modulus(-1.3) == boundary_modulus(1.3)


def test_boundary_modulus_min_bound():
    grid = circle_grid(4096)
    vals = np.array([boundary_modulus(t) ** 2 for t in grid])
    assert vals.min() >= (math.log(2)) ** 2 / 4.0


def test_boundary_modulus_vs_principal_log():
    # z f(z) = -log(1-z) near the boundary, principal branch
    r = 1.0 - 1e-6
    worst = 0.0
    for theta in circle_grid(1024):
        z = r * cmath.exp(1j * theta)
        direct = abs(-cmath.log(1.0 - z) / z)
        worst = max(worst, abs(direct - boundary_modulus(theta)))
    assert worst <= 1e-3


def test_boundary_modulus_domain():
    with pytest.raises(ValueError):
        boundary_modulus(0.0)
    with pytest.raises(ValueError):
        boundary_modulus(4.0)


def test_partial_sum_sup_harmonic():
    s = harmonic_series(1000)
    h11 = sum(1.0 / (k + 1) for k in range(11))
    sup10 = partial_sum_sup(s, 10, 512)
    assert sup10 >= h11 - 1e-12
    assert partial_sum_sup(s, 1000, 512) / sup10 > 2.0


def test_partial_sum_sup_constant():
    s = ScalarSeries.make([1.0, 0.0, 0.0, 0.0])
    for m in range(4):
        assert abs(partial_sum_sup(s, m, 64) - 1.0) <= 1e-12


def test_partial_sum_sup_monotone():
    s = harmonic_series(200)
    vals = [partial_sum_sup(s, m, 256) for m in (5, 20, 80, 200)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_partial_sum_sup_validation():
    s = harmonic_series(4)
    with pytest.raises(ValueError):
        partial_sum_sup(s, 9, 64)
    with pytest.raises(ValueError):
        partial_sum_sup(s, 2, 4)


def test_partial_sum_sup_refuses_negative_m():
    # a negative m would otherwise index the coefficients from the end
    with pytest.raises(ValueError, match=r"got m = -1"):
        partial_sum_sup(harmonic_series(4), -1, 64)


def _horner_sup(s, m, grid):
    """The sup by m Horner passes over the grid theta_j = 2 pi j / grid."""
    z = np.exp(1j * np.arange(grid) * (2.0 * math.pi / grid))
    val = np.full(grid, s.coeffs[m], dtype=complex)
    for k in range(m - 1, -1, -1):
        val = val * z + s.coeffs[k]
    return float(np.max(np.abs(val)))


@settings(deadline=None, max_examples=60)
@example(seed=0, m=0, grid=8, complex_coeffs=False)
@example(seed=1, m=5, grid=8, complex_coeffs=True)
@example(seed=2, m=300, grid=8, complex_coeffs=False)
@example(seed=3, m=300, grid=17, complex_coeffs=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 300),
       grid=st.sampled_from([8, 9, 17, 64, 255, 600]), complex_coeffs=st.booleans())
def test_partial_sum_sup_matches_horner(seed, m, grid, complex_coeffs):
    # m >= grid folds the coefficients mod grid before the FFT
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(m + 1) + (1j * rng.standard_normal(m + 1) if complex_coeffs else 0)
    s = ScalarSeries.make(c)
    ref = _horner_sup(s, m, grid)
    assert abs(partial_sum_sup(s, m, grid) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("m, grid", [(10, 2048), (1000, 2048), (1000, 8)])
def test_partial_sum_sup_matches_horner_on_harmonic(m, grid):
    # the reports' series at their default grid and at the coarsest one
    s = harmonic_series(1000)
    ref = _horner_sup(s, m, grid)
    assert abs(partial_sum_sup(s, m, grid) - ref) <= 1e-12 * ref


def test_grids_are_capped(monkeypatch):
    """A grid past the basis cap is refused before numpy allocates it."""
    s = harmonic_series(4)
    for make in (lambda g: partial_sum_sup(s, 2, g), circle_grid):
        monkeypatch.delenv("FOCKALG_BASIS_CAP", raising=False)
        with pytest.raises(BasisCapExceeded, match=r"^grid of 100000000000 points exceeds cap 1000000$"):
            make(10**11)
        monkeypatch.setenv("FOCKALG_BASIS_CAP", "1000")
        with pytest.raises(BasisCapExceeded, match=r"^grid of 1001 points exceeds cap 1000$"):
            make(1001)
        make(1000)  # a grid at the cap still runs
