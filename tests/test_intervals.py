"""Enclosure and floor-resolution behavior, checked against naive series."""

import math
from fractions import Fraction

import pytest

from idrlab import (
    UNDECIDED,
    RationalInterval,
    enclose_exp_inv,
    enclose_hyper,
    floor_via_interval,
    halving_refiner,
)

from _oracles import exp_bracket, hyper_bracket


def test_interval_basics():
    box = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert box.width == Fraction(1, 6)
    assert box.contains(Fraction(2, 5))
    assert not box.contains(Fraction(2))
    assert box.contains_interval(RationalInterval(Fraction(1, 3), Fraction(2, 5)))
    assert box.overlaps(RationalInterval(Fraction(1, 2), Fraction(3)))
    assert not box.overlaps(RationalInterval(Fraction(3, 5), Fraction(1)))


def test_interval_rejects_crossed_endpoints():
    with pytest.raises(ValueError):
        RationalInterval(Fraction(2), Fraction(1))


def test_interval_scale_flips_for_negative_factor():
    box = RationalInterval(Fraction(1), Fraction(2))
    flipped = box.scale(-3)
    assert (flipped.lo, flipped.hi) == (Fraction(-6), Fraction(-3))
    assert box.scale(Fraction(1, 2)).width == Fraction(1, 2)


def test_interval_addition_adds_endpoints():
    a = RationalInterval(Fraction(1), Fraction(2))
    b = RationalInterval(Fraction(10), Fraction(11))
    total = a + b
    assert (total.lo, total.hi) == (Fraction(11), Fraction(13))


@pytest.mark.parametrize("a", [1, 2, 3, 4, -1, -2, -3, -4])
def test_enclose_exp_inv_meets_bound_and_brackets_the_value(a):
    bound = Fraction(1, 10**25)
    box = enclose_exp_inv(a, bound)
    assert box.width <= bound
    lo, hi = exp_bracket(a)
    # both enclosures contain exp(1/a), so they must intersect
    assert box.overlaps(RationalInterval(lo, hi))


@pytest.mark.parametrize("a", [1, 2, -1, -3])
def test_enclose_exp_inv_nests_under_halving(a):
    width = Fraction(1, 100)
    previous = enclose_exp_inv(a, width)
    for _ in range(6):
        width /= 2
        current = enclose_exp_inv(a, width)
        assert previous.contains_interval(current)
        previous = current


def test_enclose_exp_inv_validates_arguments():
    with pytest.raises(ValueError):
        enclose_exp_inv(0, Fraction(1, 10))
    with pytest.raises(ValueError):
        enclose_exp_inv(2, Fraction(0))


@pytest.mark.parametrize(
    "k,s,a",
    [(2, 0, 1), (2, 1, 1), (2, 0, -2), (3, 2, 2), (4, 1, -1), (3, 0, 3)],
)
def test_enclose_hyper_meets_bound_and_brackets_the_value(k, s, a):
    bound = Fraction(1, 10**20)
    box = enclose_hyper(k, s, a, bound)
    assert box.width <= bound
    lo, hi = hyper_bracket(k, s, a)
    assert box.overlaps(RationalInterval(lo, hi))


def test_enclose_hyper_validates_arguments():
    with pytest.raises(ValueError):
        enclose_hyper(1, 0, 2, Fraction(1, 10))
    with pytest.raises(ValueError):
        enclose_hyper(2, 2, 2, Fraction(1, 10))
    with pytest.raises(ValueError):
        enclose_hyper(2, 0, 0, Fraction(1, 10))
    with pytest.raises(ValueError):
        enclose_hyper(2, 0, 2, Fraction(-1, 10))


@pytest.mark.parametrize("a", [1, 2, -2])
def test_even_and_odd_parts_recombine_to_the_exponential(a):
    bound = Fraction(1, 10**15)
    even = enclose_hyper(2, 0, a, bound)
    odd = enclose_hyper(2, 1, a, bound)
    assert (even + odd).overlaps(enclose_exp_inv(a, bound))


def test_floor_via_interval_spec_example():
    box = RationalInterval(Fraction(2718, 1000), Fraction(2719, 1000))
    assert floor_via_interval(box, 6, 0) == 16


def test_floor_via_interval_point_interval_is_exact():
    point = RationalInterval(Fraction(3), Fraction(3))
    assert floor_via_interval(point, 7, 0) == 21
    half = RationalInterval(Fraction(5, 2), Fraction(5, 2))
    assert floor_via_interval(half, 2, 0) == 5


def test_floor_via_interval_negative_factor():
    box = RationalInterval(Fraction(2718, 1000), Fraction(2719, 1000))
    # -6 * e is about -16.31, so its floor is -17
    assert floor_via_interval(box, -6, 0) == -17


def test_floor_via_interval_undecided_without_refinement():
    straddling = RationalInterval(Fraction(9, 10), Fraction(11, 10))
    assert floor_via_interval(straddling, 1, 0) is UNDECIDED


def test_floor_via_interval_distrusts_integral_endpoints():
    # both floors are 1 but the left endpoint could be the exact value
    box = RationalInterval(Fraction(1), Fraction(3, 2))
    assert floor_via_interval(box, 1, 0) is UNDECIDED


def test_floor_via_interval_gives_up_after_budget():
    stuck = RationalInterval(Fraction(9, 10), Fraction(11, 10))
    calls = []

    def useless_refine():
        calls.append(1)
        return stuck

    assert floor_via_interval(stuck, 1, 5, useless_refine) is UNDECIDED
    assert len(calls) == 5


def test_floor_via_interval_rejects_zero_factor():
    box = RationalInterval(Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        floor_via_interval(box, 0, 3)


def test_halving_refiner_produces_nested_enclosures():
    refine = halving_refiner(lambda w: enclose_exp_inv(3, w), Fraction(1, 10))
    previous = refine()
    for _ in range(5):
        current = refine()
        assert previous.contains_interval(current)
        previous = current


def digits_of(a: int, power: int) -> int:
    """floor(exp(1/a) * 10**power) via the production enclosure plus refinement."""
    start = Fraction(1, 10**6)
    refine = halving_refiner(lambda w: enclose_exp_inv(a, w), start)
    result = floor_via_interval(enclose_exp_inv(a, start), 10**power, 200, refine)
    assert result is not UNDECIDED
    return result


def test_known_decimal_expansions():
    assert digits_of(1, 14) == 271828182845904
    assert digits_of(2, 6) == 1648721
    assert digits_of(3, 6) == 1395612
    assert digits_of(-1, 6) == 367879


def test_hyperbolic_decimal_expansions():
    start = Fraction(1, 10**6)
    for s, expected in [(0, 1127625), (1, 521095)]:
        refine = halving_refiner(lambda w: enclose_hyper(2, s, 2, w), start)
        got = floor_via_interval(enclose_hyper(2, s, 2, start), 10**6, 200, refine)
        assert got == expected


# ---------------------------------------------------------------------------
# The integer-series enclosures against the per-term Fraction loops they
# replaced, kept here as the reference.
# ---------------------------------------------------------------------------


def fraction_loop_exp_inv(a, width_bound):
    t = Fraction(1, a)
    total = Fraction(0)
    term = Fraction(1)
    j = 0
    while True:
        total += term
        nxt = term * t / (j + 1)
        if a > 0:
            if 3 * nxt <= width_bound:
                return total, total + 3 * nxt
        elif -width_bound <= nxt <= width_bound:
            return (total, total + nxt) if nxt >= 0 else (total + nxt, total)
        term = nxt
        j += 1


def fraction_loop_hyper(k, s, a, width_bound):
    t = Fraction(1, a)
    exponent = s
    term = t**s / math.factorial(s)
    total = Fraction(0)
    while True:
        total += term
        nxt = term * t**k
        for j in range(exponent + 1, exponent + k + 1):
            nxt /= j
        exponent += k
        tail = 2 * abs(nxt)
        if t > 0:
            if tail <= width_bound:
                return total, total + tail
        elif 2 * tail <= width_bound:
            return total - tail, total + tail
        term = nxt


REFERENCE_WIDTHS = [
    Fraction(5),
    Fraction(3),
    Fraction(1),
    Fraction(2, 3),
    Fraction(1, 7),
    Fraction(1, 10**9),
    Fraction(3, 10**40),
    Fraction(1, 4 * 5**40 * math.factorial(40)),
    Fraction(1, 4 * 5**80 * math.factorial(80)),
]


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5, -1, -2, -3, -4, -5])
def test_enclose_exp_inv_equals_the_fraction_loop(a):
    for width in REFERENCE_WIDTHS:
        box = enclose_exp_inv(a, width)
        assert (box.lo, box.hi) == fraction_loop_exp_inv(a, width), width


@pytest.mark.parametrize("a", [1, 2, 5, -1, -3, -5])
def test_enclose_hyper_equals_the_fraction_loop(a):
    for k in range(2, 6):
        for s in range(k):
            for width in REFERENCE_WIDTHS:
                box = enclose_hyper(k, s, a, width)
                assert (box.lo, box.hi) == fraction_loop_hyper(k, s, a, width), (
                    k, s, width,
                )
