"""Factorial-series families, their rounded closed forms, and the continued
fraction machinery.

Closed forms are compared against interval oracles (inside the library) and
against naive series brackets (from _oracles), and every rounded table is
required to survive the pairwise divisibility scan.
"""

import math
from fractions import Fraction

import pytest

import idrlab.families as families_module
from idrlab import (
    UNDECIDED,
    ExponentialSpec,
    FactorialESpec,
    HyperSpec,
    PolynomialSpec,
    check_idr_bruteforce,
    closed_form_factorial_e,
    closed_form_hyper,
    enclose_exp_inv,
    enclose_hyper,
    euler_cf_convergents,
    eval_factorial_e,
    eval_hyper_family,
    eval_scaled_factorial_e,
    hyper_case,
    oracle_rounded_factorial_e,
    oracle_rounded_hyper,
    table_compose,
    verify_convergent_gaps,
    verify_factorial_e,
    verify_hyper,
)

from _oracles import binom_ref, exp_bracket, floor_scaled, hyper_bracket


def series_value(a: int, x: int) -> int:
    return sum(a**n * math.factorial(n) * binom_ref(x, n) for n in range(x + 1))


def hyper_series_value(a: int, k: int, r: int, x: int) -> int:
    return sum(
        a**n * math.factorial(n) * binom_ref(x, n)
        for n in range(x + 1)
        if n % k == r
    )


# ---------------------------------------------------------------------------
# full family
# ---------------------------------------------------------------------------


def test_eval_factorial_e_goldens():
    assert [eval_factorial_e(1, x) for x in range(6)] == [1, 2, 5, 16, 65, 326]
    assert [eval_factorial_e(2, x) for x in range(5)] == [1, 3, 13, 79, 633]
    assert [eval_factorial_e(-1, x) for x in range(5)] == [1, 0, 1, -2, 9]


@pytest.mark.parametrize("a", [1, 2, 3, -1, -2, -3])
def test_eval_factorial_e_matches_direct_series(a):
    for x in range(20):
        assert eval_factorial_e(a, x) == series_value(a, x)


def test_eval_factorial_e_validation():
    with pytest.raises(ValueError):
        eval_factorial_e(0, 3)
    with pytest.raises(ValueError):
        eval_factorial_e(1, -1)


def test_scaled_family():
    assert [eval_scaled_factorial_e(2, 1, x) for x in range(6)] == [
        2, 4, 10, 32, 130, 652,
    ]
    with pytest.raises(ValueError):
        eval_scaled_factorial_e(0, 1, 2)


def test_closed_form_floor_tracks_e_times_factorial():
    # floor(e * x!) for x >= 1; the x = 0 entry is pinned to 1
    assert [closed_form_factorial_e(1, "floor", x) for x in range(9)] == [
        1, 2, 5, 16, 65, 326, 1957, 13700, 109601,
    ]


def test_closed_form_ceil_tracks_e_times_factorial():
    assert [closed_form_factorial_e(1, "ceil", x) for x in range(9)] == [
        2, 3, 6, 17, 66, 327, 1958, 13701, 109602,
    ]


def test_closed_form_negative_a():
    assert [closed_form_factorial_e(-1, "floor", x) for x in range(5)] == [
        0, -1, 0, -3, 8,
    ]
    assert [closed_form_factorial_e(-1, "ceil", x) for x in range(5)] == [
        1, 0, 1, -2, 9,
    ]
    # ceil(exp(-1) * (-1)**3 * 3!) = ceil(-2.207...) = -2
    assert closed_form_factorial_e(-1, "ceil", 3) == -2


def test_closed_form_rejects_unknown_rounding():
    with pytest.raises(ValueError):
        closed_form_factorial_e(1, "round", 3)


@pytest.mark.parametrize("a", [1, 2, -1, -2])
@pytest.mark.parametrize("rounding", ["floor", "ceil"])
def test_closed_form_agrees_with_series_bracket(a, rounding):
    bracket = exp_bracket(a)
    for x in range(13):
        target_floor = floor_scaled(bracket, Fraction(a) ** x * math.factorial(x))
        expected = target_floor if rounding == "floor" else target_floor + 1
        if a == 1 and x == 0:
            expected = 1 if rounding == "floor" else 2
        assert closed_form_factorial_e(a, rounding, x) == expected


def test_oracle_rounded_factorial_e_spot_values():
    assert oracle_rounded_factorial_e(1, "floor", 0) == 2
    assert oracle_rounded_factorial_e(1, "ceil", 0) == 3
    assert oracle_rounded_factorial_e(1, "floor", 6) == 1957
    assert oracle_rounded_factorial_e(-1, "floor", 3) == -3
    assert oracle_rounded_factorial_e(-1, "ceil", 3) == -2


@pytest.mark.parametrize("a", [1, 2, -1, -2])
@pytest.mark.parametrize("rounding", ["floor", "ceil"])
def test_verify_factorial_e_reports(a, rounding):
    report = verify_factorial_e(a, rounding, 10)
    assert report.consistent
    assert report.undecided_count == 0
    for row in report.rows:
        if a == 1 and row.x == 0:
            assert row.status == "patched"
        else:
            assert row.status == "match"


@pytest.mark.parametrize("a", [1, 2, 3, -1, -2, -3])
@pytest.mark.parametrize("rounding", ["floor", "ceil"])
def test_rounded_tables_have_integral_difference_ratios(a, rounding):
    table = [closed_form_factorial_e(a, rounding, x) for x in range(20)]
    assert not check_idr_bruteforce(table).found


# ---------------------------------------------------------------------------
# congruence-filtered family
# ---------------------------------------------------------------------------


def test_eval_hyper_family_matches_direct_series():
    for a in (1, -1, 2, -3):
        for k in (2, 3, 4):
            for r in range(k):
                for x in range(15):
                    assert eval_hyper_family(a, k, r, x) == hyper_series_value(a, k, r, x)


def test_hyper_validation():
    with pytest.raises(ValueError):
        eval_hyper_family(0, 2, 0, 1)
    with pytest.raises(ValueError):
        eval_hyper_family(1, 1, 0, 1)
    with pytest.raises(ValueError):
        eval_hyper_family(1, 2, 2, 1)
    with pytest.raises(ValueError):
        closed_form_hyper(1, 2, 0, "floor", -1)


def test_residue_classes_partition_the_full_family():
    for a in (-3, -1, 2):
        for k in (2, 3, 4):
            for x in range(18):
                total = sum(eval_hyper_family(a, k, r, x) for r in range(k))
                assert total == eval_factorial_e(a, x)


def test_truncated_series_derivative_shifts_the_residue():
    # termwise derivative of the degree-D truncation of the residue-r series
    # is the degree-(D-1) truncation of the residue-(r-1 mod k) series
    D = 24
    for k in (2, 3, 4):
        for r in range(k):
            coeffs = [
                Fraction(1, math.factorial(j)) if j % k == r else Fraction(0)
                for j in range(D + 1)
            ]
            derived = [(j + 1) * coeffs[j + 1] for j in range(D)]
            expected = [
                Fraction(1, math.factorial(j)) if j % k == (r - 1) % k else Fraction(0)
                for j in range(D)
            ]
            assert derived == expected


def test_enclosure_sign_matches_residue_parity_for_negative_argument():
    # for |t| < 1 the leading term t**s/s! dominates the rest of the series,
    # so the sign of the sum is the sign of t**s
    for k, s, a in [(3, 1, -2), (3, 2, -2), (2, 1, -1), (4, 3, -3)]:
        box = enclose_hyper(k, s, a, Fraction(1, 10**10))
        if s % 2:
            assert box.hi < 0
        else:
            assert box.lo > 0


ALL_CASE_LABELS = {
    "wide_a_r0",
    "wide_a_shifted_pos",
    "wide_a_shifted_neg_even_gap",
    "wide_a_shifted_neg_odd_gap",
    "unit_a_r0",
    "unit_a_shifted",
    "neg_unit_r0_even_gap",
    "neg_unit_r0_odd_gap",
    "neg_unit_shifted_even_gap",
    "neg_unit_shifted_odd_gap",
}


def sweep_parameters():
    for a in (-3, -2, -1, 1, 2, 3):
        for k in (2, 3, 4):
            for r in range(k):
                yield a, k, r


def test_case_selection_covers_every_branch():
    seen = set()
    for a, k, r in sweep_parameters():
        case = hyper_case(a, k, r)
        seen.add(case.label)
        # defect sign is the sign of a**(k-r), uniformly across branches
        assert case.delta_positive == (a > 0 or (k - r) % 2 == 0)
        if abs(a) >= 2 and r == 0:
            assert case.patch_len == 0
        elif r == 0:
            assert case.patch_len == 1
        else:
            assert case.patch_len == r
    assert seen == ALL_CASE_LABELS


def test_closed_form_hyper_is_series_plus_fixed_offset():
    for a, k, r in sweep_parameters():
        case = hyper_case(a, k, r)
        for x in range(case.patch_len, 14):
            base = eval_hyper_family(a, k, r, x)
            floor_off = 0 if case.delta_positive else -1
            ceil_off = 1 if case.delta_positive else 0
            assert closed_form_hyper(a, k, r, "floor", x) == base + floor_off
            assert closed_form_hyper(a, k, r, "ceil", x) == base + ceil_off
        for x in range(case.patch_len):
            assert closed_form_hyper(a, k, r, "floor", x) == case.floor_patch
            assert closed_form_hyper(a, k, r, "ceil", x) == case.ceil_patch


def test_closed_form_hyper_goldens():
    assert [closed_form_hyper(2, 2, 0, "floor", x) for x in range(7)] == [
        1, 1, 9, 25, 433, 2001, 51961,
    ]
    assert [closed_form_hyper(-1, 2, 1, "floor", x) for x in range(5)] == [
        -1, -2, -3, -10, -29,
    ]


@pytest.mark.parametrize("rounding", ["floor", "ceil"])
def test_all_rounded_hyper_tables_have_integral_difference_ratios(rounding):
    for a, k, r in sweep_parameters():
        table = [closed_form_hyper(a, k, r, rounding, x) for x in range(21)]
        assert not check_idr_bruteforce(table).found, (a, k, r, rounding)


def test_closed_form_hyper_agrees_with_series_bracket():
    for a, k, r in [(2, 2, 0), (2, 2, 1), (-2, 3, 1), (1, 3, 2), (-1, 2, 0)]:
        case = hyper_case(a, k, r)
        for x in range(case.patch_len, 10):
            s = (x - r) % k
            mult = Fraction(a) ** x * math.factorial(x)
            expected = floor_scaled(hyper_bracket(k, s, a), mult)
            assert closed_form_hyper(a, k, r, "floor", x) == expected


def test_oracle_rounded_hyper_spot_values():
    # residue (0 - 1) mod 2 = 1 selects the odd series, which is below 1 there
    assert oracle_rounded_hyper(2, 2, 1, "floor", 0) == 0
    assert oracle_rounded_hyper(2, 2, 0, "floor", 4) == 433
    assert oracle_rounded_hyper(-1, 2, 1, "floor", 0) == -2


@pytest.mark.parametrize("rounding", ["floor", "ceil"])
def test_verify_hyper_reports(rounding):
    for a in (-2, 1):
        for k in (2, 3):
            for r in range(k):
                report = verify_hyper(a, k, r, rounding, 8)
                assert report.consistent, (a, k, r, rounding)
                assert report.undecided_count == 0
                patch_len = hyper_case(a, k, r).patch_len
                for row in report.rows:
                    if row.x >= patch_len:
                        assert row.status == "match", (a, k, r, rounding, row)


# ---------------------------------------------------------------------------
# composite tables
# ---------------------------------------------------------------------------


def test_composite_with_quadratic_inner_table():
    inner = [x * x - 5 * x + 6 for x in range(7)]  # 6, 2, 0, 0, 2, 6, 12
    outer = [closed_form_factorial_e(1, "floor", x) for x in range(13)]
    composite = table_compose(outer, inner)
    assert composite[:5] == [1957, 5, 1, 1, 5]
    assert not check_idr_bruteforce(composite).found


def test_composite_with_itself():
    inner = [closed_form_factorial_e(1, "floor", x) for x in range(5)]
    outer = [closed_form_factorial_e(1, "floor", x) for x in range(inner[-1] + 1)]
    composite = table_compose(outer, inner)
    assert composite[:3] == [2, 5, 326]
    assert not check_idr_bruteforce(composite).found


# ---------------------------------------------------------------------------
# table-building specs
# ---------------------------------------------------------------------------


def test_factorial_spec_tabulate():
    assert FactorialESpec(1).tabulate(4) == [1, 2, 5, 16, 65]
    assert FactorialESpec(1, "floor").tabulate(3) == [1, 2, 5, 16]
    assert FactorialESpec(1, scale=3).tabulate(3) == [3, 6, 15, 48]
    with pytest.raises(ValueError):
        FactorialESpec(1, "floor", scale=2).tabulate(3)


def test_hyper_spec_tabulate():
    assert HyperSpec(-1, 2, 1, "floor").tabulate(4) == [-1, -2, -3, -10, -29]
    assert HyperSpec(1, 2, 0).tabulate(4) == [
        eval_hyper_family(1, 2, 0, x) for x in range(5)
    ]


WIDE_A = [1, 2, 3, 4, 5, -1, -2, -3, -4, -5]


@pytest.mark.parametrize("a", WIDE_A)
def test_factorial_spec_recurrence_matches_per_x_evaluation(a):
    xs = range(61)
    assert FactorialESpec(a).tabulate(60) == [eval_factorial_e(a, x) for x in xs]
    assert FactorialESpec(a, scale=-2).tabulate(60) == [
        eval_scaled_factorial_e(-2, a, x) for x in xs
    ]
    for rounding in ("floor", "ceil"):
        assert FactorialESpec(a, rounding).tabulate(60) == [
            closed_form_factorial_e(a, rounding, x) for x in xs
        ]


@pytest.mark.parametrize("a", WIDE_A)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_hyper_spec_recurrence_matches_per_x_evaluation(a, k):
    xs = range(61)
    for r in range(k):
        assert HyperSpec(a, k, r).tabulate(60) == [
            eval_hyper_family(a, k, r, x) for x in xs
        ]
        for rounding in ("floor", "ceil"):
            assert HyperSpec(a, k, r, rounding).tabulate(60) == [
                closed_form_hyper(a, k, r, rounding, x) for x in xs
            ], (r, rounding)


def test_spec_tables_reject_negative_x_max():
    specs = [
        FactorialESpec(1),
        FactorialESpec(-2, "floor"),
        HyperSpec(1, 2, 0),
        HyperSpec(-1, 3, 2, "ceil"),
        PolynomialSpec((Fraction(1),)),
        ExponentialSpec(Fraction(1), 2),
    ]
    for spec in specs:
        with pytest.raises(ValueError, match="natural number"):
            spec.tabulate(-1)
    with pytest.raises(ValueError, match="natural number"):
        verify_factorial_e(1, "floor", -3)
    with pytest.raises(ValueError, match="natural number"):
        verify_hyper(1, 2, 0, "floor", -3)


def test_spec_tables_validate_parameters_before_stepping():
    specs = [
        FactorialESpec(0),
        FactorialESpec(0, "floor"),
        FactorialESpec(1, "round"),
        FactorialESpec(1, scale=0),
        HyperSpec(0, 2, 0),
        HyperSpec(1, 1, 0),
        HyperSpec(1, 2, 2),
        HyperSpec(1, 2, -1),
        HyperSpec(1, 2, 0, "round"),
    ]
    for spec in specs:
        with pytest.raises(ValueError):
            spec.tabulate(0)
    with pytest.raises(ValueError):
        verify_factorial_e(0, "floor", 0)
    with pytest.raises(ValueError):
        verify_hyper(1, 3, 3, "floor", 0)


def count_calls(monkeypatch, name):
    """Record the calls that families makes to one of its module globals."""
    calls = []
    original = getattr(families_module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(families_module, name, counted)
    return calls


def expected_status(row, oracle, patched):
    if oracle is UNDECIDED:
        return "undecided"
    if row.closed == oracle:
        return "match"
    return "patched" if patched else "mismatch"


@pytest.mark.parametrize("a", WIDE_A)
def test_verify_factorial_e_shares_one_enclosure(monkeypatch, a):
    for rounding in ("floor", "ceil"):
        calls = count_calls(monkeypatch, "enclose_exp_inv")
        # with no refinement budget every row must settle on the shared one
        report = verify_factorial_e(a, rounding, 40, max_refinements=0)
        assert len(calls) == 1
        assert report.undecided_count == 0
        monkeypatch.undo()
        assert report == verify_factorial_e(a, rounding, 40)
        for row in report.rows:
            oracle = oracle_rounded_factorial_e(a, rounding, row.x)
            assert row.oracle == oracle
            assert row.status == expected_status(row, oracle, a == 1 and row.x == 0)


@pytest.mark.parametrize("a", WIDE_A)
def test_verify_hyper_shares_one_enclosure_per_residue(monkeypatch, a):
    for k in range(2, 6):
        for r in range(k):
            for rounding in ("floor", "ceil"):
                calls = count_calls(monkeypatch, "enclose_hyper")
                report = verify_hyper(a, k, r, rounding, 30, max_refinements=0)
                assert len(calls) == k
                assert report.undecided_count == 0, (k, r, rounding)
                assert report.consistent
                monkeypatch.undo()


@pytest.mark.parametrize("a", [1, -1, 2, -3, 5])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_verify_hyper_statuses_equal_the_per_row_oracle(a, k):
    for r in range(k):
        case = hyper_case(a, k, r)
        rounding = ("floor", "ceil")[r % 2]
        for row in verify_hyper(a, k, r, rounding, 20).rows:
            oracle = oracle_rounded_hyper(a, k, r, rounding, row.x)
            assert row.oracle == oracle
            assert row.status == expected_status(row, oracle, row.x < case.patch_len)


def test_verify_rows_refine_on_their_own_from_a_loose_shared_enclosure(monkeypatch):
    # a shared enclosure far too wide for any row: each row halves from it
    monkeypatch.setattr(families_module, "_oracle_width", lambda factor: Fraction(1, 2))
    calls = count_calls(monkeypatch, "enclose_exp_inv")
    loose = verify_factorial_e(3, "floor", 12)
    assert len(calls) > 13
    assert loose.undecided_count == 0
    assert verify_factorial_e(3, "floor", 12, max_refinements=0).undecided_count > 0
    monkeypatch.undo()
    assert loose == verify_factorial_e(3, "floor", 12)


def test_polynomial_spec_tabulate():
    spec = PolynomialSpec((Fraction(1, 3), Fraction(2), Fraction(5)))
    assert spec.tabulate(4) == [0, 7, 24, 51, 88]
    with pytest.raises(ValueError):
        PolynomialSpec(()).tabulate(3)


def test_exponential_spec_tabulate():
    spec = ExponentialSpec(Fraction(3, 2), 2)
    assert spec.tabulate(4) == [1, 3, 6, 12, 24]
    with pytest.raises(ValueError):
        ExponentialSpec(Fraction(1), 1).tabulate(2)


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


def test_cf_terms_goldens():
    assert euler_cf_convergents(1, 9).terms == (2, 1, 2, 1, 1, 4, 1, 1, 6)
    assert euler_cf_convergents(2, 10).terms == (1, 1, 1, 1, 5, 1, 1, 9, 1, 1)
    assert euler_cf_convergents(3, 8).terms == (1, 2, 1, 1, 8, 1, 1, 14)


def test_cf_convergents_golden():
    got = euler_cf_convergents(1, 6).convergents
    assert got == ((2, 1), (3, 1), (8, 3), (11, 4), (19, 7), (87, 32))


def test_cf_requested_count_is_honored():
    data = euler_cf_convergents(2, 12)
    assert len(data.terms) == 12
    assert len(data.convergents) == 12


def test_cf_validation():
    with pytest.raises(ValueError):
        euler_cf_convergents(0, 5)
    with pytest.raises(ValueError):
        euler_cf_convergents(1, 0)


def test_large_term_arithmetic_progression():
    # for a >= 2 the big partial quotients sit at indices 3m+1 and step by 2a
    for a in (2, 3, 4):
        terms = euler_cf_convergents(a, 11).terms
        for m in range(4):
            assert terms[3 * m + 1] == (2 * m + 1) * a - 1
    # for a = 1 they sit at indices 3m+2 instead
    terms = euler_cf_convergents(1, 9).terms
    for m in range(3):
        assert terms[3 * m + 2] == 2 * m + 2


@pytest.mark.parametrize("a", [1, 2, 3])
def test_convergent_invariants(a):
    data = euler_cf_convergents(a, 14)
    box = enclose_exp_inv(a, Fraction(1, 10**40))
    previous_q = 0
    for n, (p, q) in enumerate(data.convergents):
        assert math.gcd(p, q) == 1
        assert q >= previous_q
        if n >= 2:
            assert q > previous_q
        if n % 2 == 0:
            assert Fraction(p, q) < box.lo
        else:
            assert Fraction(p, q) > box.hi
        gap = max(abs(box.lo - Fraction(p, q)), abs(box.hi - Fraction(p, q)))
        assert gap < Fraction(1, q * q)
        previous_q = q


def test_convergent_gap_inequalities():
    assert verify_convergent_gaps(1, 10) == [True] * 10
    assert verify_convergent_gaps(3, 8) == [True] * 8
    with pytest.raises(ValueError):
        verify_convergent_gaps(1, 0)
