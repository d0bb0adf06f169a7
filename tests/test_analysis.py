"""Witness constructions, the floored-polynomial probe, and gap spectra."""

import math
import random
from fractions import Fraction

import pytest

from idrlab import (
    floored_scaled_factorial_witness,
    fractional_gap,
    polynomial_idr_check,
    power_factorial_witness,
    values_from_coeffs,
)
from idrlab.analysis import _floored_scaled_factorial_mod


def test_power_factorial_witness_goldens():
    assert power_factorial_witness(1) == power_factorial_witness(-1)
    w = power_factorial_witness(1)
    assert (w.x, w.y, w.divisor) == (3, 1, 2)
    w = power_factorial_witness(2)
    assert (w.x, w.y, w.divisor) == (5, 2, 3)
    assert (2**5 * math.factorial(5) - 2**2 * math.factorial(2)) % 3 == 1


def test_power_factorial_witness_certificates():
    for a in [1, -1, 2, -2, 5, -6]:
        w = power_factorial_witness(a)
        assert w.x - w.y == w.divisor
        assert w.divisor > abs(a)
        diff = a**w.x * math.factorial(w.x) - a**w.y * math.factorial(w.y)
        assert diff % w.divisor != 0
        # the table value at x is still a clean multiple of the divisor
        assert (a**w.x * math.factorial(w.x)) % w.divisor == 0


def test_power_factorial_witness_rejects_zero():
    with pytest.raises(ValueError):
        power_factorial_witness(0)


def test_scaled_factorial_witness_goldens():
    assert floored_scaled_factorial_witness(1, 1) == floored_scaled_factorial_witness(1, 1)
    w = floored_scaled_factorial_witness(1, 1)
    assert (w.a, w.b, w.divisor) == (3, 1, 2)
    w = floored_scaled_factorial_witness(1, 2)
    assert (w.a, w.b, w.divisor) == (5, 2, 3)
    assert (math.factorial(5) // 2 - math.factorial(2) // 2) % 3 != 0
    w = floored_scaled_factorial_witness(2, 3)
    assert (w.a, w.b, w.divisor) == (16, 3, 13)
    w = floored_scaled_factorial_witness(3, 4)
    assert (w.a, w.b, w.divisor) == (77, 4, 73)


def test_scaled_factorial_witness_certificates():
    for p, q in [(1, 1), (1, 2), (2, 3), (3, 4), (5, 2)]:
        w = floored_scaled_factorial_witness(p, q)
        assert w.a - w.b == w.divisor
        ratio = Fraction(p, q)
        diff = math.floor(ratio * math.factorial(w.a)) - math.floor(
            ratio * math.factorial(w.b)
        )
        assert diff % w.divisor != 0


def test_scaled_factorial_witness_modular_certificate_matches_full_factorials():
    # the witness re-checks itself modulo d; here each table value is formed
    # from the full factorial and reduced afterwards
    for p in range(1, 6):
        for q in range(1, 7):
            if math.gcd(p, q) != 1:
                continue
            w = floored_scaled_factorial_witness(p, q)
            full = [
                math.floor(Fraction(p, q) * math.factorial(n)) % w.divisor
                for n in (w.a, w.b)
            ]
            modular = [
                _floored_scaled_factorial_mod(p, q, n, w.divisor) for n in (w.a, w.b)
            ]
            assert modular == full, (p, q)
            assert (full[0] - full[1]) % w.divisor != 0, (p, q)


def test_scaled_factorial_witness_validation():
    with pytest.raises(ValueError):
        floored_scaled_factorial_witness(2, 4)
    with pytest.raises(ValueError):
        floored_scaled_factorial_witness(0, 1)
    with pytest.raises(ValueError):
        floored_scaled_factorial_witness(1, 0)


def test_polynomial_check_flags_half_integer_slope():
    verdict = polynomial_idr_check([0, Fraction(1, 2)], 4)
    assert not verdict.integral_high_coeffs
    assert verdict.violation == (2, 0)


def test_polynomial_check_accepts_integral_high_coefficients():
    verdict = polynomial_idr_check([Fraction(1, 3), 2, 5], 10)
    assert verdict.integral_high_coeffs
    assert verdict.violation is None
    verdict = polynomial_idr_check([0, 1], 20)
    assert verdict.integral_high_coeffs
    assert verdict.violation is None


def test_polynomial_check_constant_polynomial():
    verdict = polynomial_idr_check([7], 5)
    assert verdict.integral_high_coeffs
    assert verdict.violation is None


def test_polynomial_check_validation():
    with pytest.raises(ValueError):
        polynomial_idr_check([], 4)
    with pytest.raises(ValueError):
        polynomial_idr_check([1], 0)


def test_fractional_gap_equally_spaced():
    report = fractional_gap([7 * n for n in range(5)], 5)
    assert report.fractional_parts == (0, 1, 2, 3, 4)
    assert report.max_gap == 1
    assert report.samples == 5


def test_fractional_gap_single_and_empty():
    assert fractional_gap([0], 7).max_gap == 7
    empty = fractional_gap([], 5)
    assert empty.samples == 0
    assert empty.fractional_parts == ()
    assert empty.max_gap == 5


def test_fractional_gap_rational_values():
    report = fractional_gap([Fraction(1, 2), Fraction(9, 2)], 5)
    assert report.fractional_parts == (Fraction(1, 2), Fraction(9, 2))
    assert report.max_gap == 4


def test_fractional_gap_negative_values_wrap():
    report = fractional_gap([-1, 1], 5)
    assert report.fractional_parts == (1, 4)
    assert report.max_gap == 3


def test_fractional_gap_validation():
    with pytest.raises(ValueError):
        fractional_gap([1], 0)


def test_idr_tables_with_zero_start_sample_to_zero():
    # multiples of A land on multiples of A whenever the table starts at 0
    coeffs = [0, 1, 4, 6, 24]
    table = values_from_coeffs(coeffs, 20)
    for modulus in (2, 4, 5):
        samples = [table[n * modulus] for n in range(len(table) // modulus)]
        report = fractional_gap(samples, modulus)
        assert set(report.fractional_parts) == {0}
        assert report.max_gap == modulus


def test_bounded_perturbation_stays_in_the_two_bands():
    bound = Fraction(3, 2)
    modulus = 4  # strictly above twice the bound
    coeffs = [0, 1, 4, 6]
    table = values_from_coeffs(coeffs, 6 * modulus)
    rng = random.Random(404)
    samples = []
    for n in range(7):
        delta = Fraction(rng.randint(-6, 6), 4)  # magnitude at most 3/2
        samples.append(table[n * modulus] + delta)
    report = fractional_gap(samples, modulus)
    for part in report.fractional_parts:
        assert part <= bound or part >= modulus - bound
    assert report.max_gap >= modulus - 2 * bound


def test_unconstrained_geometric_table_fills_the_circle():
    # floor((14142135 / 10**7) * 2**n) spreads out instead of hugging 0
    alpha = Fraction(14142135, 10**7)
    values = [math.floor(alpha * 2**n) for n in range(201)]
    report = fractional_gap(values, 10)
    assert report.samples == 201
    assert report.max_gap < 8
