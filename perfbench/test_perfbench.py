"""Tests of the benchmark itself: its references, its checks, its counts.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import argparse
import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import _oracles  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_newton_references_agree_with_test_oracles():
    rng = random.Random(7)
    for n in (1, 2, 5, 17):
        values = [rng.randint(-50, 50) for _ in range(n)]
        coeffs = oracles.newton_coeffs(values)
        assert coeffs == _oracles.alt_sum_coeffs(values)
        assert oracles.newton_table(coeffs) == [
            _oracles.binomial_sum_value(coeffs, x) for x in range(n)
        ]
        assert oracles.first_violation(values) == _oracles.first_violation_ref(values)


@pytest.mark.parametrize("shape", workloads.SHAPES)
@pytest.mark.parametrize("magnitude", workloads.MAGNITUDES)
def test_table_cases_match_test_oracles(shape, magnitude):
    rng = random.Random(f"{shape}{magnitude}")
    for n in (8, 23, 40):
        case = workloads.table_case(shape, magnitude, n, rng)
        assert _oracles.alt_sum_coeffs(case.values) == case.coeffs
        assert _oracles.first_violation_ref(case.values) == case.violation
        assert _oracles.first_violation_ref(case.projection) is None
        assert all(p <= v for p, v in zip(case.projection, case.values))
        if magnitude == "small":
            assert shape == "near" or max(map(abs, case.values)) <= workloads.SMALL_BOUND


def _rounded_target(bracket, scale: int, rounding: str) -> int:
    if rounding == "floor":
        return _oracles.floor_scaled(bracket, Fraction(scale))
    return -_oracles.floor_scaled(bracket, Fraction(-scale))


@pytest.mark.parametrize("rounding", ["floor", "ceil"])
def test_family_tables_are_the_rounded_targets(rounding):
    for a in workloads.PARAM_A:
        table = oracles.family_table(("factorial-e", a, rounding), 12)
        for x in range(oracles.first_checked_row(a), 13):
            target = _rounded_target(_oracles.exp_bracket(a), a**x * math.factorial(x), rounding)
            assert table[x] == target, (a, x)
        for k in range(2, 6):
            for r in range(k):
                table = oracles.family_table(("hyper", a, k, r, rounding), 12)
                for x in range(oracles.first_checked_row(a), 13):
                    bracket = _oracles.hyper_bracket(k, (x - r) % k, a)
                    target = _rounded_target(bracket, a**x * math.factorial(x), rounding)
                    assert table[x] == target, (a, k, r, x)


def test_family_recurrences_match_the_series():
    for a in (-3, -1, 1, 2):
        assert oracles.factorial_e_table(a, 15) == [
            sum(a**n * math.perm(x, n) for n in range(x + 1)) for x in range(16)
        ]
        for k in (2, 3, 5):
            for r in range(k):
                assert oracles.hyper_table(a, k, r, 15) == [
                    sum(a**n * math.perm(x, n) for n in range(r, x + 1, k)) for x in range(16)
                ]


def test_cf_pattern_matches_bracket_expansion():
    for a in workloads.PARAM_A:
        lo, hi = _oracles.exp_bracket(a)
        terms = []
        for _ in range(25):
            head = math.floor(lo)
            assert head == math.floor(hi)
            terms.append(head)
            lo, hi = 1 / (hi - head), 1 / (lo - head)
        assert oracles.cf_terms(a, 25) == terms


def test_witness_checks_accept_valid_and_reject_forged_certificates():
    assert workloads.power_witness_problem(5, 13, 6, 7) is None
    assert workloads.power_witness_problem(5, 13, 6, 6) is not None
    assert workloads.power_witness_problem(2, 3, 1, 2) is not None
    assert workloads.scaled_witness_problem(3, 5, 372, 5, 367) is None
    assert workloads.scaled_witness_problem(1, 2, 4, 1, 3) is not None


def test_wrong_answers_are_counted_not_dropped():
    case = workloads.table_case("near", "small", 30, random.Random(1))
    op = workloads.Op("project", lambda: case.values, workloads.table_op("project", case).check)
    tally = run.Tally()
    tally.execute(op, op.call)
    tally.execute(op, lambda: 1 / 0)
    assert (tally.attempted, tally.wrong, tally.errors, tally.ok) == (2, 1, 1, 0)


def test_an_operation_that_errors_fails_the_run(monkeypatch, capsys):
    boom = workloads.Op("boom", lambda: 1 / 0, lambda got: None)
    monkeypatch.setitem(run.WORKLOADS, "tables", lambda seed: iter(lambda: [boom] * run.MIN_OPS, None))
    args = argparse.Namespace(workload="tables", seed=1, seconds=0, trace=0, out=None)
    assert run.run_one(args) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 100, 100)


def test_cli_family_table_past_the_digit_limit_is_an_error():
    """3**1500 * 1500! has 4831 digits, more than Python's default
    int-to-str limit of 4300, so `idr-lab family eval` answers with an
    error; this is why the cli workload's bulk tables stop at 1000 rows."""
    op = workloads.cli_eval_op(("factorial-e", 3, "none"), 1500)
    tally = run.Tally()
    tally.execute(op, op.call)
    assert (tally.attempted, tally.errors, tally.ok) == (1, 1, 0)
    assert "4300" in tally.failures[0]


COUNT_UNITS = ("count", "count/row", "ratio")


@pytest.mark.parametrize("workload,n_ops", [("tables", 8), ("families", 12), ("cli", 4)])
def test_traced_counts_repeat_exactly(workload, n_ops):
    first_tally, first = run.per_layer(workload, 11, n_ops)
    second_tally, second = run.per_layer(workload, 11, n_ops)
    assert first_tally.failed == second_tally.failed == 0
    assert list(first) == list(run.PER_LAYER)
    if workload == "families":  # the warm-up's kernel calls are left out
        assert first["kernels.first_idr_violation.calls"]["value"] == 0
    for name, entry in first.items():
        if entry["unit"] in COUNT_UNITS and name != "trace.overhead":
            assert entry["value"] == second[name]["value"], name


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.ALL)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
