"""Reference answers the benchmark checks idrlab against.

Nothing here imports idrlab.  The algorithms deliberately differ from the
library's: differences come from whole-row subtraction, values from nested
prefix sums, family tables from their first-order recurrences, and the
continued fractions of e**(1/a) from their known closed-form pattern.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import sub


def lcm_prefix(n_max: int) -> list[int]:
    """entries[k] = lcm(1..k), entries[0] = 1."""
    out = [1]
    for k in range(1, n_max + 1):
        out.append(out[-1] * k // math.gcd(out[-1], k))
    return out


def newton_coeffs(values: list[int]) -> list[int]:
    """Heads of the forward-difference rows, one whole row per step."""
    row = list(values)
    heads = [row[0]]
    while len(row) > 1:
        row = list(map(sub, row[1:], row[:-1]))
        heads.append(row[0])
    return heads


def newton_table(coeffs: list[int]) -> list[int]:
    """f(0..len-1) of the series with these coefficients: the difference
    triangle rebuilt from its heads by prefix sums, bottom row first."""
    row = [coeffs[-1]]
    for head in reversed(coeffs[:-1]):
        row = list(accumulate(row, initial=head))
    return row


def first_violation(values: list[int]):
    """First (a, b) in lexicographic order with (a - b) not dividing
    values[a] - values[b]; None when there is none."""
    for a in range(1, len(values)):
        for b in range(a):
            if (values[a] - values[b]) % (a - b):
                return (a, b)
    return None


def pairs_before(a: int, b: int) -> int:
    """Pairs a lexicographic scan visits up to and including (a, b)."""
    return a * (a - 1) // 2 + b + 1


def failing_indices(coeffs: list[int]) -> tuple[int, ...]:
    lcms = lcm_prefix(len(coeffs) - 1)
    return tuple(k for k, c in enumerate(coeffs) if c % lcms[k])


def floored(coeffs: list[int]) -> list[int]:
    """Each coefficient floored to a multiple of lcm(1..k)."""
    lcms = lcm_prefix(len(coeffs) - 1)
    return [m * (c // m) for c, m in zip(coeffs, lcms)]


# ---------------------------------------------------------------------------
# Families.  With t = 1/a, the series value at x is a**x * x! times the
# partial sum of the target's series through t**x, so target - value is the
# tail a**x * x! * sum_{j > x} t**j / j! over the kept exponents j.  Its
# leading term t**d / ((x+1)...(x+d)) has magnitude at most 1/2 once x >= 1
# or |a| >= 2, and the later terms shrink fast enough that the tail keeps
# that term's sign and stays inside (-1, 1).  So floor and ceiling are the
# series value plus an offset fixed by the sign of t**d, where d = 1 for the
# full family and d is the gap from r up to the next multiple of k for the
# congruence-filtered one.  Row 0 with |a| = 1 is outside this argument
# (idrlab pins it), so checks start at row 1 there.
# ---------------------------------------------------------------------------


def factorial_e_table(a: int, x_max: int) -> list[int]:
    """f(x) = a*x*f(x-1) + 1, f(0) = 1."""
    out = [1]
    for x in range(1, x_max + 1):
        out.append(a * x * out[-1] + 1)
    return out


def hyper_table(a: int, k: int, r: int, x_max: int) -> list[int]:
    """f(x) = a**k * x^(k falling) * f(x-k) + [x >= r] * a**r * x^(r falling),
    with f(x) = 0 for x < 0."""
    out = []
    for x in range(x_max + 1):
        value = a**k * math.perm(x, k) * out[x - k] if x >= k else 0
        if x >= r:
            value += a**r * math.perm(x, r)
        out.append(value)
    return out


def rounded(base: list[int], tail_positive: bool, rounding: str) -> list[int]:
    if rounding == "none":
        return base
    if rounding == "floor":
        shift = 0 if tail_positive else -1
    else:
        shift = 1 if tail_positive else 0
    return [v + shift for v in base]


def family_table(spec: tuple, x_max: int) -> list[int]:
    """Expected tabulation of ("factorial-e", a, rounding) or
    ("hyper", a, k, r, rounding)."""
    if spec[0] == "factorial-e":
        _, a, rounding = spec
        return rounded(factorial_e_table(a, x_max), a > 0, rounding)
    _, a, k, r, rounding = spec
    gap = k - r if r else k
    return rounded(hyper_table(a, k, r, x_max), a > 0 or gap % 2 == 0, rounding)


def first_checked_row(a: int) -> int:
    return 1 if abs(a) == 1 else 0


# ---------------------------------------------------------------------------
# Continued fractions: e**(1/n) = [1; n-1, 1, 1, 3n-1, 1, 1, 5n-1, ...] for
# n >= 2, e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...], and e**(-1/n) = 1 / e**(1/n)
# prepends a zero term.
# ---------------------------------------------------------------------------


def cf_terms(a: int, count: int) -> list[int]:
    n = abs(a)
    terms = []
    i = 0
    while len(terms) < count + 1:
        if n == 1:
            terms.append(2 if i == 0 else (2 * (i + 1) // 3 if i % 3 == 2 else 1))
        else:
            terms.append(1 if i == 0 else ((2 * (i // 3) + 1) * n - 1 if i % 3 == 1 else 1))
        i += 1
    if a < 0:
        terms.insert(0, 0)
    return terms[:count]


def convergents(terms: list[int]) -> list[tuple[int, int]]:
    out = []
    p_prev, p_prev2, q_prev, q_prev2 = 1, 0, 0, 1
    for t in terms:
        p, q = t * p_prev + p_prev2, t * q_prev + q_prev2
        out.append((p, q))
        p_prev2, p_prev, q_prev2, q_prev = p_prev, p, q_prev, q
    return out


# ---------------------------------------------------------------------------
# Witness certificates, checked modulo the divisor with word-sized products.
# ---------------------------------------------------------------------------


def factorial_mod(n: int, m: int) -> int:
    acc = 1 % m
    for i in range(2, n + 1):
        acc = acc * i % m
    return acc


def power_factorial_mod(a: int, x: int, m: int) -> int:
    """a**x * x! mod m."""
    return pow(a, x, m) * factorial_mod(x, m) % m


def floored_scaled_factorial_mod(p: int, q: int, n: int, m: int) -> int:
    """floor(p/q * n!) mod m.  For n >= q the floor is exact: p * n!/q."""
    if n < q:
        return (p * math.factorial(n) // q) % m
    acc = p % m
    for i in range(2, n + 1):
        if i != q:
            acc = acc * i % m
    return acc
