"""Rational interval enclosures for the analytic constants.

Everything here is exact: endpoints are `fractions.Fraction`, remainders are
bounded by explicit majorants, and a floor is only reported once the interval
provably isolates it.  When an interval refuses to resolve within the
refinement budget the answer is the UNDECIDED sentinel, never a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union


class Undecided:
    """Sentinel for a floor/ceil query the interval could not settle."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDECIDED"


UNDECIDED = Undecided()

FloorResult = Union[int, Undecided]


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "RationalInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def scale(self, factor) -> "RationalInterval":
        """Image under multiplication by a rational; flips for negative factors."""
        factor = Fraction(factor)
        a = self.lo * factor
        b = self.hi * factor
        return RationalInterval(a, b) if factor >= 0 else RationalInterval(b, a)

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)


def _least_denominator(width_bound, numerator: int) -> int:
    """Least positive integer D with numerator / D <= width_bound."""
    width_bound = Fraction(width_bound)
    if width_bound <= 0:
        raise ValueError("width_bound must be positive")
    return -(-numerator * width_bound.denominator // width_bound.numerator)


def enclose_exp_inv(a: int, width_bound: Fraction) -> RationalInterval:
    """Enclosure of e**(1/a) for nonzero integer a, no wider than width_bound.

    The partial sum through t**m / m! at t = 1/a is P_m / D_m with
    D_m = a**m * m! and P_m = a*m * P_(m-1) + 1, so the loop stays in
    integers and the next term is 1 / D_(m+1).

    Positive a: partial sums of the exponential series increase toward the
    value and the tail after m terms is below 3 * t**(m+1) / (m+1)! for
    0 < t <= 1, since the tail equals e**(u) * t**(m+1) / (m+1)! for some
    u in (0, t) and e < 3.

    Negative a: the series alternates with term magnitudes decreasing to 0,
    so the value always lies between consecutive partial sums.
    """
    if a == 0:
        raise ValueError("enclose_exp_inv requires a nonzero a")
    tail = 3 if a > 0 else 1  # the tail is at most tail / D_(m+1) in size
    needed = _least_denominator(width_bound, tail)
    total, denom = 1, 1
    m = 1
    while True:
        step = a * m
        next_denom = step * denom
        if abs(next_denom) >= needed:
            break
        total = step * total + 1
        denom = next_denom
        m += 1
    lo = Fraction(total, denom)
    if a > 0:
        return RationalInterval(lo, Fraction(step * total + tail, next_denom))
    other = Fraction(step * total + 1, next_denom)
    return RationalInterval(min(lo, other), max(lo, other))


def enclose_hyper(k: int, s: int, a: int, width_bound: Fraction) -> RationalInterval:
    """Enclosure of sum_{n>=0} t**(k*n+s) / (k*n+s)! at t = 1/a.

    As in enclose_exp_inv the partial sum is P_m / D_m in integers, here with
    D_m = a**(k*m+s) * (k*m+s)! and P_m = r_m * P_(m-1) + 1, where
    r_m = D_m / D_(m-1) = a**k * (k*m+s)! / (k*m+s-k)!.

    The tail after the partial sum through exponent e is bounded in absolute
    value by 2 * |t|**(e+k) / (e+k)!  (the omitted terms form the same kind
    of series, whose value at arguments of magnitude at most 1 stays below
    cosh(1) < 2 times its leading term).  For t > 0 the tail is positive, so
    the enclosure hangs off the partial sum on one side only.
    """
    if k < 2:
        raise ValueError("enclose_hyper requires k >= 2")
    if not 0 <= s < k:
        raise ValueError("enclose_hyper requires 0 <= s < k")
    if a == 0:
        raise ValueError("enclose_hyper requires a nonzero a")
    # a > 0 needs 2 / |D_(m+1)| <= width_bound, a < 0 twice that
    needed = _least_denominator(width_bound, 2 if a > 0 else 4)
    a_k = a**k
    total, denom = 1, a**s * math.factorial(s)
    exponent = s
    while True:
        exponent += k
        step = a_k * math.perm(exponent, k)
        next_denom = step * denom
        if abs(next_denom) >= needed:
            break
        total = step * total + 1
        denom = next_denom
    value = Fraction(total, denom)
    tail = Fraction(2, abs(next_denom))
    if a > 0:
        return RationalInterval(value, value + tail)
    return RationalInterval(value - tail, value + tail)


def floor_via_interval(
    interval: RationalInterval,
    factor,
    max_refinements: int,
    refine: Callable[[], RationalInterval] | None = None,
) -> FloorResult:
    """floor(factor * v) for the number v enclosed by `interval`.

    The floor is accepted only when both scaled endpoints share it and
    neither endpoint is itself an integer (an integral endpoint could equal
    the true scaled value, in which case the shared floor proves nothing).
    A zero-width interval is exact and is floored directly.  Otherwise
    `refine` is called, at most max_refinements times, for a tighter
    enclosure of the same v.  Exhausting the budget yields UNDECIDED.
    """
    factor = Fraction(factor)
    if factor == 0:
        raise ValueError("factor must be nonzero")
    current = interval
    attempts = 0
    while True:
        scaled = current.scale(factor)
        if scaled.lo == scaled.hi:
            return math.floor(scaled.lo)
        flo = math.floor(scaled.lo)
        if (
            flo == math.floor(scaled.hi)
            and scaled.lo.denominator != 1
            and scaled.hi.denominator != 1
        ):
            return flo
        if refine is None or attempts >= max_refinements:
            return UNDECIDED
        current = refine()
        attempts += 1


def halving_refiner(
    producer: Callable[[Fraction], RationalInterval], width0: Fraction
) -> Callable[[], RationalInterval]:
    """Refinement callback that halves the width bound on every call.

    The series enclosures above shrink monotonically as the bound drops, so
    successive intervals are nested.
    """
    state = {"width": Fraction(width0)}

    def refine() -> RationalInterval:
        state["width"] /= 2
        return producer(state["width"])

    return refine
