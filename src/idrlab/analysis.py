"""Negative results: witnesses and falsifiers.

Tables like a**x * x! or floor(r * x!) look close to the families that do
have integral difference ratios, but fail the property.  The constructions
here return concrete certified counterexample pairs, plus a spectrum tool
(`fractional_gap`) for studying where floored multiples land modulo A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from idrlab import kernels
from idrlab.arith import next_prime


@dataclass(frozen=True)
class PowerFactorialWitness:
    """Pair (x, y) with (x - y) = divisor not dividing a**x x! - a**y y!."""

    x: int
    y: int
    divisor: int


@dataclass(frozen=True)
class ScaledFactorialWitness:
    """Pair (a, b) with (a - b) = divisor not dividing
    floor(p/q * a!) - floor(p/q * b!)."""

    a: int
    b: int
    divisor: int


@dataclass(frozen=True)
class PolynomialVerdict:
    integral_high_coeffs: bool
    violation: tuple[int, int] | None


@dataclass(frozen=True)
class GapReport:
    modulus: int
    samples: int
    fractional_parts: tuple[Fraction, ...]
    max_gap: Fraction


def power_factorial_witness(a: int) -> PowerFactorialWitness:
    """Certified counterexample for f(x) = a**x * x!.

    Take the least prime p above |a| and the pair x = 2p - 1, y = p - 1.
    Then p = x - y divides x! exactly once, does not divide y! or a, so
    f(x) - f(y) carries exactly one factor p in one term and none in the
    other.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    p = next_prime(abs(a))
    y = p - 1
    x = 2 * y + 1
    diff = a**x * math.factorial(x) - a**y * math.factorial(y)
    if diff % p == 0:
        raise RuntimeError("witness construction failed its own certificate")
    return PowerFactorialWitness(x, y, p)


def floored_scaled_factorial_witness(p: int, q: int) -> ScaledFactorialWitness:
    """Certified counterexample for f(x) = floor(p/q * x!), lowest terms p/q > 0.

    With d the least prime above p * q! and a = d + q, both f(a) and f(q)
    are exact multiples of p/q, and modulo d the quotient a!/q! is a product
    of d consecutive integers, hence 0; unwinding leaves f(a) - f(q)
    congruent to a nonzero product of factors smaller than d.  The
    certificate is re-checked modulo d, without forming a!.
    """
    if p <= 0 or q <= 0:
        raise ValueError("requires a positive ratio, p >= 1 and q >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError("requires p/q in lowest terms")
    d = next_prime(p * math.factorial(q))
    a = d + q
    f_a = _floored_scaled_factorial_mod(p, q, a, d)
    f_q = _floored_scaled_factorial_mod(p, q, q, d)
    if (f_a - f_q) % d == 0:
        raise RuntimeError("witness construction failed its own certificate")
    return ScaledFactorialWitness(a, q, d)


def _floored_scaled_factorial_mod(p: int, q: int, n: int, modulus: int) -> int:
    """floor(p/q * n!) mod modulus for n >= q.

    q divides n! there, so the floor is exactly p * (q-1)! * (q+1) * ... * n,
    which is reduced factor by factor.
    """
    acc = p * math.factorial(q - 1) % modulus
    for i in range(q + 1, n + 1):
        acc = acc * i % modulus
    return acc


def polynomial_idr_check(coeffs: list, prefix_len: int) -> PolynomialVerdict:
    """Floors a rational polynomial on 0..prefix_len-1 and scans for
    violations; also reports whether every non-constant coefficient is an
    integer (the exact condition for the floored table to stay clean at
    every length)."""
    if not coeffs:
        raise ValueError("polynomial needs at least one coefficient")
    if prefix_len < 1:
        raise ValueError("prefix_len must be at least 1")
    fracs = [Fraction(c) for c in coeffs]
    integral = all(c.denominator == 1 for c in fracs[1:])
    values = []
    for x in range(prefix_len):
        acc = Fraction(0)
        for c in reversed(fracs):
            acc = acc * x + c
        values.append(math.floor(acc))
    return PolynomialVerdict(integral, kernels.first_idr_violation(values))


def fractional_gap(values: list, modulus: int) -> GapReport:
    """Reduce each value into [0, modulus) and measure the largest empty
    open arc between neighbours on the circle of circumference modulus."""
    if modulus < 1:
        raise ValueError("modulus must be a positive integer")
    reduced = []
    for v in values:
        f = Fraction(v)
        reduced.append(f - modulus * (f // modulus))
    parts = sorted(reduced)
    if not parts:
        return GapReport(modulus, 0, (), Fraction(modulus))
    gaps = [b - a for a, b in zip(parts, parts[1:])]
    gaps.append(parts[0] + modulus - parts[-1])
    return GapReport(modulus, len(parts), tuple(parts), max(gaps))
