"""Closed-form families built from factorials and powers.

Two families live here, both defined by Newton series with coefficients
a**n * n!:

  eval_factorial_e    uses every index n
  eval_hyper_family   keeps only indices n congruent to r modulo k

Each family tracks an analytic constant: the full series tracks
e**(1/a) * a**x * x!, the congruence-filtered one tracks
F(1/a) * a**x * x!  where F is the series sum_m t**(k*m+s) / (k*m+s)!
with the residue s = (x - r) mod k.  The tabulated integer values are the
floor or ceiling of those targets, up to a fixed offset and finitely many
pinned small-x values.  `closed_form_*` return the series-side value with
the offset applied; `oracle_rounded_*` compute the analytic side through
interval arithmetic only, so the two routes stay independent.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from idrlab.intervals import (
    UNDECIDED,
    RationalInterval,
    enclose_exp_inv,
    enclose_hyper,
    floor_via_interval,
    halving_refiner,
)

ROUNDINGS = ("floor", "ceil")


def _check_rounding(rounding: str) -> None:
    if rounding not in ROUNDINGS:
        raise ValueError(f"rounding must be one of {ROUNDINGS}, got {rounding!r}")


def _check_natural(value: int, name: str = "x") -> None:
    if value < 0:
        raise ValueError(f"argument {name} must be a natural number")


def _check_family_args(a: int, x: int, name: str = "x") -> None:
    if a == 0:
        raise ValueError("family parameter a must be nonzero")
    _check_natural(x, name)


def _offset(delta_positive: bool, rounding: str) -> int:
    """Rounded target minus series value outside the pinned prefix: floor
    pays -1 when the defect is negative, ceiling pays +1 when it is positive."""
    if rounding == "floor":
        return 0 if delta_positive else -1
    return 1 if delta_positive else 0


def eval_factorial_e(a: int, x: int) -> int:
    """sum_{n=0..x} a**n * n! * C(x, n), via the falling-factorial recurrence."""
    _check_family_args(a, x)
    total = 0
    term = 1
    for n in range(x + 1):
        total += term
        term *= a * (x - n)
    return total


def eval_scaled_factorial_e(scale: int, a: int, x: int) -> int:
    """Integer multiple scale * eval_factorial_e(a, x)."""
    if scale == 0:
        raise ValueError("scale must be nonzero")
    return scale * eval_factorial_e(a, x)


def closed_form_factorial_e(a: int, rounding: str, x: int) -> int:
    """Rounded-target value of the full family.

    For a >= 1 the series value is the floor of e**(1/a) * a**x * x! and the
    ceiling sits one above; for a <= -1 the series value is the ceiling and
    the floor sits one below.  Exception: a = 1, x = 0 is pinned (the target
    e is farther than 1 from the series value there), floor 1 and ceiling 2.
    """
    _check_rounding(rounding)
    return eval_factorial_e(a, x) + _offset(a > 0, rounding)


def _factorial_e_series(a: int, x_max: int):
    """eval_factorial_e(a, x) for x = 0..x_max, by f(x) = a*x*f(x-1) + 1."""
    value = 1
    yield value
    for x in range(1, x_max + 1):
        value = a * x * value + 1
        yield value


def _factorial_e_table(a: int, rounding: str, x_max: int, scale: int = 1) -> list[int]:
    """FactorialESpec(a, rounding, scale).tabulate(x_max), in x_max steps."""
    _check_family_args(a, x_max, "x_max")
    if rounding == "none":
        if scale == 0:
            raise ValueError("scale must be nonzero")
        return [scale * value for value in _factorial_e_series(a, x_max)]
    _check_rounding(rounding)
    if scale != 1:
        raise ValueError("scale is only supported with rounding 'none'")
    offset = _offset(a > 0, rounding)
    return [value + offset for value in _factorial_e_series(a, x_max)]


def eval_hyper_family(a: int, k: int, r: int, x: int) -> int:
    """sum over n <= x with n = r (mod k) of a**n * n! * C(x, n)."""
    _check_hyper_args(a, k, r)
    _check_natural(x)
    total = 0
    term = 1
    for n in range(x + 1):
        if n % k == r:
            total += term
        term *= a * (x - n)
    return total


@dataclass(frozen=True)
class HyperCase:
    """One branch of the congruence-filtered closed form.

    delta_positive is the sign of the analytic target minus the series
    value; it equals the sign of a**(k-r).  The patch fields pin the first
    patch_len arguments, where the target can drift further than 1 from the
    series value (only possible for |a| = 1).
    """

    label: str
    delta_positive: bool
    patch_len: int
    floor_patch: int | None
    ceil_patch: int | None


def hyper_case(a: int, k: int, r: int) -> HyperCase:
    """Select the closed-form branch for the parameters, exhaustively."""
    _check_hyper_args(a, k, r)
    if abs(a) >= 2:
        if r == 0:
            return HyperCase(
                "wide_a_r0", a > 0 or k % 2 == 0, 0, None, None
            )
        if a > 0:
            return HyperCase("wide_a_shifted_pos", True, r, 0, 1)
        if (k - r) % 2 == 0:
            return HyperCase("wide_a_shifted_neg_even_gap", True, r, 0, 1)
        return HyperCase("wide_a_shifted_neg_odd_gap", False, r, -1, 0)
    if a == 1:
        if r == 0:
            return HyperCase("unit_a_r0", True, 1, 1, 2)
        return HyperCase("unit_a_shifted", True, r, 0, 1)
    if r == 0:
        if k % 2 == 0:
            return HyperCase("neg_unit_r0_even_gap", True, 1, 1, 2)
        return HyperCase("neg_unit_r0_odd_gap", False, 1, 0, 1)
    if (k - r) % 2 == 0:
        return HyperCase("neg_unit_shifted_even_gap", True, r, 0, 1)
    return HyperCase("neg_unit_shifted_odd_gap", False, r, -1, 0)


def closed_form_hyper(a: int, k: int, r: int, rounding: str, x: int) -> int:
    """Rounded-target value of the congruence-filtered family.

    Outside the pinned prefix the value is the series sum plus a constant
    offset fixed by the branch: floor pays -1 when the defect is negative,
    ceiling pays +1 when it is positive.
    """
    _check_rounding(rounding)
    case = hyper_case(a, k, r)
    _check_natural(x)
    if x < case.patch_len:
        return _patch(case, rounding)
    return eval_hyper_family(a, k, r, x) + _offset(case.delta_positive, rounding)


def _patch(case: HyperCase, rounding: str) -> int:
    return case.floor_patch if rounding == "floor" else case.ceil_patch


def _hyper_series(a: int, k: int, r: int, x_max: int):
    """eval_hyper_family(a, k, r, x) for x = 0..x_max, by the recurrence

        g(x) = a**k * x^(k falling) * g(x - k) + [x >= r] * a**r * x^(r falling)

    with g(x) = 0 for x < 0.  Only the last k values are kept.
    """
    a_k, a_r = a**k, a**r
    recent = deque([0] * k, maxlen=k)  # g(x - k), ..., g(x - 1)
    for x in range(x_max + 1):
        value = a_k * math.perm(x, k) * recent[0]
        if x >= r:
            value += a_r * math.perm(x, r)
        recent.append(value)
        yield value


def _hyper_table(a: int, k: int, r: int, rounding: str, x_max: int) -> list[int]:
    """HyperSpec(a, k, r, rounding).tabulate(x_max), in x_max steps."""
    _check_hyper_args(a, k, r)
    _check_natural(x_max, "x_max")
    if rounding == "none":
        return list(_hyper_series(a, k, r, x_max))
    _check_rounding(rounding)
    case = hyper_case(a, k, r)
    offset = _offset(case.delta_positive, rounding)
    patch = _patch(case, rounding)
    return [
        patch if x < case.patch_len else value + offset
        for x, value in enumerate(_hyper_series(a, k, r, x_max))
    ]


def _check_hyper_args(a: int, k: int, r: int) -> None:
    if a == 0:
        raise ValueError("family parameter a must be nonzero")
    if k < 2:
        raise ValueError("family parameter k must be at least 2")
    if not 0 <= r < k:
        raise ValueError("family parameter r must satisfy 0 <= r < k")


# ---------------------------------------------------------------------------
# Interval-arithmetic oracles.  These never consult the series-side closed
# forms above; they round the analytic target directly.
# ---------------------------------------------------------------------------


def _oracle_width(factor: int) -> Fraction:
    """Width bound at which an enclosure scaled by factor is at most 1/4 wide."""
    return min(Fraction(1, 2), Fraction(1, 4) / abs(factor))


def _rounded_via_interval(
    first: RationalInterval, width: Fraction, producer, factor: int,
    rounding: str, max_refinements: int,
):
    """floor or ceil of factor * v, from an enclosure `first` of v built at
    `width`; refinements halve the width from there."""
    signed = factor if rounding == "floor" else -factor
    result = floor_via_interval(
        first, signed, max_refinements, halving_refiner(producer, width)
    )
    if result is UNDECIDED or rounding == "floor":
        return result
    return -result


def oracle_rounded_factorial_e(
    a: int, rounding: str, x: int, max_refinements: int = 64
):
    """floor or ceil of e**(1/a) * a**x * x!, by interval refinement alone.

    The ceiling goes through floor(-value), which is sound whether or not
    the target could be an exact integer.  Returns UNDECIDED if the budget
    runs out.
    """
    _check_rounding(rounding)
    _check_family_args(a, x)
    factor = a**x * math.factorial(x)
    width = _oracle_width(factor)
    producer = lambda w: enclose_exp_inv(a, w)  # noqa: E731
    return _rounded_via_interval(
        producer(width), width, producer, factor, rounding, max_refinements
    )


def oracle_rounded_hyper(
    a: int, k: int, r: int, rounding: str, x: int, max_refinements: int = 64
):
    """floor or ceil of F(1/a) * a**x * x! with residue s = (x - r) mod k."""
    _check_rounding(rounding)
    _check_hyper_args(a, k, r)
    _check_natural(x)
    s = (x - r) % k
    factor = a**x * math.factorial(x)
    width = _oracle_width(factor)
    producer = lambda w: enclose_hyper(k, s, a, w)  # noqa: E731
    return _rounded_via_interval(
        producer(width), width, producer, factor, rounding, max_refinements
    )


@dataclass(frozen=True)
class VerifyRow:
    x: int
    closed: int
    oracle: int | None
    status: str  # "match", "patched", "undecided", "mismatch"


@dataclass(frozen=True)
class FamilyVerifyReport:
    rows: tuple[VerifyRow, ...]

    @property
    def undecided_count(self) -> int:
        return sum(1 for row in self.rows if row.status == "undecided")

    @property
    def consistent(self) -> bool:
        return all(row.status != "mismatch" for row in self.rows)


def _verify_row(x: int, closed: int, oracle_value, patched: bool) -> VerifyRow:
    if oracle_value is UNDECIDED:
        return VerifyRow(x, closed, None, "undecided")
    if closed == oracle_value:
        return VerifyRow(x, closed, oracle_value, "match")
    return VerifyRow(x, closed, oracle_value, "patched" if patched else "mismatch")


def verify_factorial_e(
    a: int, rounding: str, x_max: int, max_refinements: int = 64
) -> FamilyVerifyReport:
    """Closed form against the interval oracle at every x up to x_max.

    One enclosure of e**(1/a) serves every row; a row it leaves unsettled
    refines on its own, within max_refinements.  The target at x sits about
    1 / |a**(x+1) * (x+1)!| (the series tail) from an integer, so the oracle
    width for x_max + 1 settles row x_max as a rule, and every smaller x a
    fortiori.
    """
    closed = _factorial_e_table(a, rounding, x_max)
    width = _oracle_width(a ** (x_max + 1) * math.factorial(x_max + 1))
    producer = lambda w: enclose_exp_inv(a, w)  # noqa: E731
    shared = producer(width)
    rows = []
    factor = 1
    for x, value in enumerate(closed):
        if x:
            factor *= a * x
        got = _rounded_via_interval(
            shared, width, producer, factor, rounding, max_refinements
        )
        rows.append(_verify_row(x, value, got, patched=(a == 1 and x == 0)))
    return FamilyVerifyReport(tuple(rows))


def verify_hyper(
    a: int, k: int, r: int, rounding: str, x_max: int, max_refinements: int = 64
) -> FamilyVerifyReport:
    """verify_factorial_e for the congruence-filtered family: one shared
    enclosure per residue s, at the oracle width for top + k, where top is
    the largest x with that residue (the next series index after x is at most
    x + k)."""
    closed = _hyper_table(a, k, r, rounding, x_max)
    patch_len = hyper_case(a, k, r).patch_len
    shared: dict[int, tuple] = {}
    rows = []
    factor = 1
    for x, value in enumerate(closed):
        if x:
            factor *= a * x
        s = (x - r) % k
        if s not in shared:
            top = x_max - (x_max - x) % k  # the largest x with residue s
            width = _oracle_width(a ** (top + k) * math.factorial(top + k))
            producer = lambda w, s=s: enclose_hyper(k, s, a, w)  # noqa: E731
            shared[s] = (producer(width), width, producer)
        got = _rounded_via_interval(*shared[s], factor, rounding, max_refinements)
        rows.append(_verify_row(x, value, got, patched=(x < patch_len)))
    return FamilyVerifyReport(tuple(rows))


# ---------------------------------------------------------------------------
# Table-building specs, shared by the command line and the falsifier tests.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorialESpec:
    a: int
    rounding: str = "none"
    scale: int = 1

    def tabulate(self, x_max: int) -> list[int]:
        return _factorial_e_table(self.a, self.rounding, x_max, self.scale)


@dataclass(frozen=True)
class HyperSpec:
    a: int
    k: int
    r: int
    rounding: str = "none"

    def tabulate(self, x_max: int) -> list[int]:
        return _hyper_table(self.a, self.k, self.r, self.rounding, x_max)


@dataclass(frozen=True)
class PolynomialSpec:
    """Floored evaluation of a rational-coefficient polynomial."""

    coeffs: tuple[Fraction, ...]

    def tabulate(self, x_max: int) -> list[int]:
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        _check_natural(x_max, "x_max")
        out = []
        for x in range(x_max + 1):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            out.append(math.floor(acc))
        return out


@dataclass(frozen=True)
class ExponentialSpec:
    """Floored geometric table floor(alpha * base**x)."""

    alpha: Fraction
    base: int

    def tabulate(self, x_max: int) -> list[int]:
        if self.base < 2:
            raise ValueError("exponential base must be at least 2")
        _check_natural(x_max, "x_max")
        return [math.floor(self.alpha * self.base**x) for x in range(x_max + 1)]


FamilySpec = FactorialESpec | HyperSpec | PolynomialSpec | ExponentialSpec


# ---------------------------------------------------------------------------
# Continued fraction of e**(1/a), extracted from enclosures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CfConvergents:
    terms: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]


def euler_cf_convergents(a: int, n_terms: int) -> CfConvergents:
    """First n_terms continued fraction terms of e**(1/a), with convergents.

    Terms come out of an enclosure by floor-and-reciprocate.  A term is only
    accepted while the whole interval shares its floor and sits strictly
    inside the unit step, so every reported term is certified; when the
    enclosure is too loose the precision is deepened and extraction restarts.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    terms, _ = _certified_cf_terms(a, n_terms)
    return CfConvergents(tuple(terms), _convergents(terms))


def _certified_cf_terms(a: int, n_terms: int) -> tuple[list[int], RationalInterval]:
    """The terms, and the enclosure of e**(1/a) that certified them."""
    if a == 0:
        raise ValueError("a must be nonzero")
    width = Fraction(1, 10**30)
    while True:
        interval = enclose_exp_inv(a, width)
        terms = _extract_cf_terms(interval, n_terms)
        if terms is not None:
            return terms, interval
        width = width * width


def _convergents(terms: list[int]) -> tuple[tuple[int, int], ...]:
    convergents = []
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    for t in terms:
        p = t * p_prev + p_prev2
        q = t * q_prev + q_prev2
        convergents.append((p, q))
        p_prev2, p_prev = p_prev, p
        q_prev2, q_prev = q_prev, q
    return tuple(convergents)


def _extract_cf_terms(interval: RationalInterval, n_terms: int) -> list[int] | None:
    lo, hi = interval.lo, interval.hi
    terms: list[int] = []
    for _ in range(n_terms):
        head = math.floor(lo)
        if head != math.floor(hi) or lo == head:
            return None
        terms.append(head)
        lo, hi = 1 / (hi - head), 1 / (lo - head)
    return terms


def verify_convergent_gaps(a: int, count: int) -> list[bool]:
    """Check 1/(q*(q+q')) < |e**(1/a) - p/q| < 1/(q*q') for the first
    `count` convergents p/q (q' is the next denominator).

    Bounds on the gap come from the enclosure that certified the terms; while
    some inequality is still open, one tighter enclosure (a quarter of the
    width) is built and every open convergent is tried again.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    terms, interval = _certified_cf_terms(a, count + 1)
    convergents = _convergents(terms)
    results: list[bool | None] = [None] * count
    while True:
        for n, result in enumerate(results):
            if result is None:
                results[n] = _gap_verdict(interval, convergents[n], convergents[n + 1][1])
        if None not in results:
            return results
        interval = enclose_exp_inv(a, interval.width / 4)


def _gap_verdict(
    interval: RationalInterval, convergent: tuple[int, int], q_next: int
) -> bool | None:
    """Whether the gap bounds hold for p/q, or None while the interval
    cannot tell."""
    p, q = convergent
    lower = Fraction(1, q * (q + q_next))
    upper = Fraction(1, q * q_next)
    d_lo = interval.lo - Fraction(p, q)
    d_hi = interval.hi - Fraction(p, q)
    if d_lo > 0 or d_hi < 0:
        abs_lo, abs_hi = (d_lo, d_hi) if d_lo > 0 else (-d_hi, -d_lo)
        if abs_lo > lower and abs_hi < upper:
            return True
        if abs_hi <= lower or abs_lo >= upper:
            return False
    return None
