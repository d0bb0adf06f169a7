"""Seeded operations for the benchmark's workloads.

A workload is an endless sequence of rounds, each a lazy sequence of
operations.  Every round holds the same list of strata (operation kind and
input size class); choices that would make a round too long, such as the
table shape, rotate from round to round.  The seed and the round number
pick the inputs inside each stratum.  So runs with different seeds do the
same mix of work on different numbers, as long as they stop at the end of
a round.  Rounds are ordered so any prefix samples the whole list evenly.

Each operation carries its expected answer, computed by `oracles` without
idrlab.  `call` is the timed part; `check` returns None for a correct
result and a message otherwise, and raises ProgramError when the program
reported an error instead of answering.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import Callable

import oracles
from spans import TOTALS_MARK

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "cli_child.py"
CLI_TIMEOUT_S = 150


class ProgramError(Exception):
    """The program answered with an error instead of a result."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    traced_call: Callable[[], object] | None = None  # CLI only: the traced child


def spread(strata: list) -> list:
    """Bit-reversal order: every prefix takes evenly spaced picks from the
    sorted list, so heavy operations are spread over a round's time rather
    than bunched, and a partial round is a fair sample of a whole one."""
    bits = max(1, (len(strata) - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [strata[i] for i in order if i < len(strata)]


def pick(options: tuple, turn: int):
    """Rotate through options: neighbouring strata and successive rounds
    take different ones, and every few rounds cover them all equally."""
    return options[turn % len(options)]


def param_turn(key: str, index: int, round_no: int) -> int:
    """Turn for picking family parameters: a seeded phase, then a stride of
    3 per round (coprime to the 10 values of a and the 14 (k, r) pairs), so
    the few rounds of a run spread over each cycle instead of taking a
    random subset of it.  Parameters like k change an operation's cost
    several times over; random draws would move the run's totals by seed."""
    return random.Random(key).randrange(10**6) + index + 3 * round_no


def in_bin(key: str, round_no: int) -> float:
    """Position in a size bin, in [0, 1): a seeded start plus the van der
    Corput point of the round (0, 1/2, 1/4, 3/4, ...), so the rounds of any
    run spread evenly over the bin whatever the seed.  Sizes stay
    continuous, which keeps latency quantiles from jumping between size
    classes, and the work per run stays steady."""
    point, scale = 0.0, 0.5
    while round_no:
        point += scale * (round_no & 1)
        round_no >>= 1
        scale /= 2
    return (random.Random(key).random() + point) % 1


def binned(low: int, high: int, bins: int, size_bin: int, u: float) -> int:
    """Size at position u of bin size_bin of `bins` log-equal bins over [low, high]."""
    return round(low * (high / low) ** ((size_bin + u) / bins))


def jittered(size: int, rng: random.Random) -> int:
    """The size shrunk by up to 3%: seeds vary lengths, not the size class."""
    return round(size * (1 - 0.03 * rng.random()))


# ---------------------------------------------------------------------------
# Tables: IDR tables, near misses and raw random tables, at two magnitudes.
# ---------------------------------------------------------------------------

TABLE_KINDS = ("to-coeffs", "to-values", "check", "project")
SHAPES = ("idr", "near", "random")
MAGNITUDES = ("small", "large")
SMALL_BOUND = 10**6


@dataclass
class TableCase:
    values: list[int]
    coeffs: list[int]
    violation: tuple[int, int] | None
    pairs: int
    failing: tuple[int, ...]
    floored: list[int]  # coefficients of the projection

    @cached_property
    def projection(self) -> list[int]:
        """Built on first use: only `project` checks need it."""
        return oracles.newton_table(self.floored)


def idr_coeffs(magnitude: str, n: int, rng: random.Random) -> list[int]:
    """Newton coefficients that are lcm(1..k) multiples.  Small tables are
    quadratics bounded by 9*10**5 on 0..n-1; large ones use every
    coefficient, each up to 4*k! in size, so values have the size of n!."""
    if magnitude == "small":
        c1 = rng.randint(-(4 * 10**5 // n), 4 * 10**5 // n)
        c2 = 2 * rng.randint(-(4 * 10**5 // n**2), 4 * 10**5 // n**2)
        return [rng.randint(-(10**5), 10**5), c1, c2] + [0] * (n - 3)
    lcms = oracles.lcm_prefix(n - 1)
    out = []
    factorial = 1
    for k in range(n):
        factorial *= max(k, 1)
        bound = 4 * factorial // lcms[k]
        out.append(lcms[k] * rng.randint(-bound, bound))
    return out


def table_case(shape: str, magnitude: str, n: int, rng: random.Random) -> TableCase:
    full_scan = n * (n - 1) // 2
    if shape == "random":
        bound = SMALL_BOUND if magnitude == "small" else 10 * math.factorial(n - 1)
        values = [rng.randint(-bound, bound) for _ in range(n)]
        coeffs = oracles.newton_coeffs(values)
        hit = oracles.first_violation(values)
        return TableCase(
            values,
            coeffs,
            hit,
            full_scan if hit is None else oracles.pairs_before(*hit),
            oracles.failing_indices(coeffs),
            oracles.floored(coeffs),
        )
    base = idr_coeffs(magnitude, n, rng)
    if shape == "idr":
        return TableCase(oracles.newton_table(base), base, None, full_scan, (), base)
    # Near miss: C(x, k) added on top of an IDR table breaks the pair (k, 0)
    # first, and only coefficient k; flooring it gives the IDR table back.
    # Small tables move k only within the top two so values stay small.
    if magnitude == "small":
        k = n - 1 - rng.randrange(2)
    else:
        k = rng.randrange(int(0.9 * (n - 1)), n)
    coeffs = list(base)
    coeffs[k] += 1
    return TableCase(
        oracles.newton_table(coeffs), coeffs, (k, 0), oracles.pairs_before(k, 0), (k,), base
    )


def _same(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: wrong answer"


def table_op(kind: str, case: TableCase) -> Op:
    from idrlab import idr, newton

    n = len(case.values)
    if kind == "to-coeffs":
        return Op(kind, lambda: newton.coeffs_from_values(case.values),
                  lambda got: _same(kind, got, case.coeffs))
    if kind == "to-values":
        return Op(kind, lambda: newton.values_from_coeffs(case.coeffs, n - 1),
                  lambda got: _same(kind, got, case.values))
    if kind == "project":
        return Op(kind, lambda: idr.project_idr(case.values),
                  lambda got: _same(kind, got, case.projection))

    def check(got):
        brute, newton_report = got
        return _same(
            kind,
            (brute.violation, brute.pairs_checked, newton_report.failing_indices),
            (case.violation, case.pairs, case.failing),
        )

    return Op(kind, lambda: (idr.check_idr_bruteforce(case.values),
                             idr.check_idr_newton(case.values)), check)


# Lengths are log-uniform over 64-1024, or 64-512 for large values, where
# cost grows like n**3: 512-entry tables of 1200-digit values cost about
# what 1024-entry small ones do, so no handful of huge operations sets the
# run's totals.
TABLE_BINS = 9
TABLE_RANGE = {"small": (64, 1024), "large": (64, 512)}
TABLE_STRATA = spread(list(enumerate(sorted(
    (m, b, kind) for m in MAGNITUDES for b in range(TABLE_BINS) for kind in TABLE_KINDS
))))


def tables(seed: int):
    for round_no in count():
        yield tables_round(seed, round_no)


def tables_round(seed: int, round_no: int):
    for index, (magnitude, size_bin, kind) in TABLE_STRATA:
        rng = random.Random(f"tables:{seed}:{round_no}:{index}")
        u = in_bin(f"tables:{seed}:{index}", round_no)
        n = binned(*TABLE_RANGE[magnitude], TABLE_BINS, size_bin, u)
        yield table_op(kind, table_case(pick(SHAPES, index + round_no), magnitude, n, rng))


# ---------------------------------------------------------------------------
# Families: tabulation, oracle verification, continued fractions, witnesses.
# ---------------------------------------------------------------------------

FAMILIES = ("factorial-e", "hyper")
ROUNDINGS = ("none", "floor", "ceil")
PARAM_A = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
HYPER_KR = tuple((k, r) for k in range(2, 6) for r in range(k))


def family_spec(family: str, rounding: str, turn: int) -> tuple:
    a = pick(PARAM_A, turn)
    if family == "factorial-e":
        return (family, a, rounding)
    return (family, a, *pick(HYPER_KR, turn), rounding)


def tabulate_op(spec: tuple, x_max: int) -> Op:
    from idrlab import families

    want = oracles.family_table(spec, x_max)
    start = oracles.first_checked_row(spec[1])
    if spec[0] == "factorial-e":
        call = lambda: families.FactorialESpec(spec[1], spec[2]).tabulate(x_max)  # noqa: E731
    else:
        call = lambda: families.HyperSpec(*spec[1:]).tabulate(x_max)  # noqa: E731

    def check(got):
        if len(got) != x_max + 1:
            return "tabulate: wrong length"
        return _same(f"tabulate {spec} to {x_max}", got[start:], want[start:])

    return Op("tabulate", call, check)


def verify_rows_problem(label: str, rows: list[tuple[int, int, str]], spec, x_max) -> str | None:
    """rows are (x, closed, status); none may be a mismatch and every
    closed value must be the rounded table."""
    want = oracles.family_table(spec, x_max)
    start = oracles.first_checked_row(spec[1])
    if [x for x, _, _ in rows] != list(range(x_max + 1)):
        return f"{label}: wrong rows"
    if any(status == "mismatch" for _, _, status in rows):
        return f"{label}: mismatch row"
    return _same(label, [closed for _, closed, _ in rows][start:], want[start:])


def verify_op(spec: tuple, x_max: int) -> Op:
    from idrlab import families

    if spec[0] == "factorial-e":
        call = lambda: families.verify_factorial_e(spec[1], spec[2], x_max)  # noqa: E731
    else:
        call = lambda: families.verify_hyper(*spec[1:], x_max)  # noqa: E731

    def check(report):
        rows = [(row.x, row.closed, row.status) for row in report.rows]
        return verify_rows_problem(f"verify {spec} to {x_max}", rows, spec, x_max)

    return Op("verify", call, check)


def cf_op(a: int, n: int) -> Op:
    from idrlab import families

    terms = oracles.cf_terms(a, n)

    def check(got):
        cf, gaps = got
        return _same(
            f"cf {a} {n}",
            (list(cf.terms), list(cf.convergents), gaps),
            (terms, oracles.convergents(terms), [True] * n),
        )

    return Op("cf", lambda: (families.euler_cf_convergents(a, n),
                             families.verify_convergent_gaps(a, n)), check)


def power_witness_problem(a: int, x: int, y: int, divisor: int) -> str | None:
    if x - y != divisor or divisor < 2:
        return f"power witness {a}: divisor is not x - y"
    diff = oracles.power_factorial_mod(a, x, divisor) - oracles.power_factorial_mod(a, y, divisor)
    return None if diff % divisor else f"power witness {a}: difference is divisible"


def scaled_witness_problem(p: int, q: int, a: int, b: int, divisor: int) -> str | None:
    if a - b != divisor or divisor < 2:
        return f"scaled witness {p}/{q}: divisor is not a - b"
    diff = oracles.floored_scaled_factorial_mod(p, q, a, divisor) - oracles.floored_scaled_factorial_mod(
        p, q, b, divisor
    )
    return None if diff % divisor else f"scaled witness {p}/{q}: difference is divisible"


def witness_op(a: int, p: int, q: int) -> Op:
    from idrlab import analysis

    def check(got):
        power, scaled = got
        return power_witness_problem(a, power.x, power.y, power.divisor) or scaled_witness_problem(
            p, q, scaled.a, scaled.b, scaled.divisor
        )

    return Op("witness", lambda: (analysis.power_factorial_witness(a),
                                  analysis.floored_scaled_factorial_witness(p, q)), check)


def coprime_p(q: int, turn: int) -> int:
    return pick(tuple(p for p in range(1, 6) if math.gcd(p, q) == 1), turn)


# Verifying a hyper table costs 0.2-1.1 s at 80 rows depending on k, so k
# is a stratum and r cycles round by round.  The witness cost grows with
# p * q!; q = 8 is pinned to p = 1 and p = 3 (about 0.05 s and 0.4 s).
# Either way the seed cannot swing the round's cost.
FAMILY_STRATA = spread(
    sorted(("tabulate", family, rounding, b) for family in FAMILIES for rounding in ROUNDINGS
           for b in range(8))
    + sorted(("verify", "factorial-e", rounding, b) for rounding in ROUNDINGS[1:] for b in range(4))
    + sorted(("verify", "hyper", k, b) for k in range(2, 6) for b in range(4))
    + [("cf", n) for n in range(5, 45, 5)]
    + [("witness", q, None) for q in range(2, 8)] + [("witness", 8, 1), ("witness", 8, 3)]
)


def families(seed: int):
    for round_no in count():
        yield families_round(seed, round_no)


def families_round(seed: int, round_no: int):
    for index, stratum in enumerate(FAMILY_STRATA):
        turn = param_turn(f"families:{seed}", index, round_no)
        u = in_bin(f"families:{seed}:{index}", round_no)
        kind = stratum[0]
        if kind == "tabulate":
            _, family, rounding, size_bin = stratum
            x_max = binned(64, 1000, 8, size_bin, u)
            yield tabulate_op(family_spec(family, rounding, turn), x_max)
        elif kind == "verify":
            _, family, variant, size_bin = stratum
            x_max = round(20 + 15 * (size_bin + u))
            if family == "factorial-e":
                spec = (family, pick(PARAM_A, turn), variant)
            else:
                step = index + round_no
                spec = (family, pick(PARAM_A, turn), variant, step % variant, pick(ROUNDINGS[1:], step))
            yield verify_op(spec, x_max)
        elif kind == "cf":
            yield cf_op(pick(PARAM_A, turn), stratum[1])
        else:
            _, q, p = stratum
            yield witness_op(pick(PARAM_A, turn), p or coprime_p(q, turn), q)


# ---------------------------------------------------------------------------
# CLI: one fresh `python -m idrlab` per operation.
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The caller's environment with idrlab importable from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(command: list[str], stdin: bytes | None) -> subprocess.CompletedProcess:
    return subprocess.run(
        command, input=stdin, capture_output=True, cwd=ROOT, env=child_env(), timeout=CLI_TIMEOUT_S
    )


def child_totals(proc: subprocess.CompletedProcess) -> dict:
    """Per-layer totals the traced child printed on stderr; none if it
    crashed, which the operation's check has already counted."""
    for line in reversed(proc.stderr.decode().splitlines()):
        if line.startswith(TOTALS_MARK):
            return json.loads(line[len(TOTALS_MARK):])
    return {}


def cli_result(proc: subprocess.CompletedProcess) -> dict:
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        raise ProgramError(f"exit {proc.returncode}, no JSON on stdout") from None
    if proc.returncode != 0 or doc.get("status") != "ok":
        raise ProgramError(f"exit {proc.returncode}: {doc.get('error')}")
    return doc["result"]


def ints(items) -> list[int]:
    return [int(item) for item in items]


def cli_op(kind: str, argv: list[str], check: Callable[[dict], str | None],
           payload: dict | None = None) -> Op:
    stdin = None if payload is None else json.dumps(payload).encode()
    return Op(
        kind,
        lambda: run_child([sys.executable, "-m", "idrlab", *argv], stdin),
        lambda proc: check(cli_result(proc)),
        lambda: run_child([sys.executable, str(CHILD), *argv], stdin),
    )


def cli_table_op(kind: str, case: TableCase) -> Op:
    n = len(case.values)
    values = {"values": [str(v) for v in case.values]}
    if kind == "to-coeffs":
        return cli_op(kind, ["newton", "to-coeffs", "--in", "-"],
                      lambda doc: _same(kind, ints(doc["coeffs"]), case.coeffs), values)
    if kind == "to-values":
        return cli_op(kind, ["newton", "to-values", "--in", "-", "--x-max", str(n - 1)],
                      lambda doc: _same(kind, ints(doc["values"]), case.values),
                      {"coeffs": [str(c) for c in case.coeffs]})
    if kind == "project":
        return cli_op(kind, ["idr", "project", "--in", "-"],
                      lambda doc: _same(kind, ints(doc["values"]), case.projection), values)

    def check(doc):
        hit = doc["bruteforce"]["violation"]
        got = (
            None if hit is None else (int(hit["a"]), int(hit["b"])),
            int(doc["bruteforce"]["pairs_checked"]),
            tuple(ints(doc["newton"]["failing_indices"])),
            doc["agree"],
        )
        return _same(kind, got, (case.violation, case.pairs, case.failing, True))

    return cli_op(kind, ["idr", "check", "--in", "-", "--method", "both"], check, values)


def spec_flags(spec: tuple) -> list[str]:
    flags = ["--family", spec[0], "--a", str(spec[1]), "--rounding", spec[-1]]
    if spec[0] == "hyper":
        flags += ["--k", str(spec[2]), "--r", str(spec[3])]
    return flags


def cli_eval_op(spec: tuple, x_max: int) -> Op:
    want = oracles.family_table(spec, x_max)
    start = oracles.first_checked_row(spec[1])

    def check(doc):
        got = ints(doc["values"])
        if len(got) != x_max + 1:
            return "family eval: wrong length"
        return _same(f"family eval {spec} to {x_max}", got[start:], want[start:])

    return cli_op("family-eval", ["family", "eval", *spec_flags(spec), "--x-max", str(x_max)], check)


def cli_verify_op(spec: tuple, x_max: int) -> Op:
    def check(doc):
        rows = [(int(row["x"]), int(row["closed"]), row["status"]) for row in doc["rows"]]
        return verify_rows_problem(f"family verify {spec} to {x_max}", rows, spec, x_max)

    return cli_op("family-verify", ["family", "verify", *spec_flags(spec), "--x-max", str(x_max)], check)


def cli_cf_op(a: int, n: int) -> Op:
    terms = oracles.cf_terms(a, n)

    def check(doc):
        got = (ints(doc["terms"]), [(int(c["p"]), int(c["q"])) for c in doc["convergents"]])
        return _same(f"cf {a} {n}", got, (terms, oracles.convergents(terms)))

    return cli_op("cf", ["cf", "convergents", "--a", str(a), "--n", str(n)], check)


def cli_power_witness_op(a: int) -> Op:
    def check(doc):
        return power_witness_problem(a, int(doc["x"]), int(doc["y"]), int(doc["divisor"]))

    return cli_op("witness", ["analyze", "witness", "--kind", "power-factorial", "--a", str(a)], check)


def cli_scaled_witness_op(p: int, q: int) -> Op:
    def check(doc):
        return scaled_witness_problem(p, q, int(doc["a"]), int(doc["b"]), int(doc["divisor"]))

    argv = ["analyze", "witness", "--kind", "scaled-factorial", "--p", str(p), "--q", str(q)]
    return cli_op("witness", argv, check)


# Most requests are small, so process start, import and JSON dominate.  A
# fixed share (6 of 25) are bulk: near-miss tables of 1024 small or 512
# large entries, and family tables of BULK_X_MAX rows.  Family tables stop
# at 1000 rows: at 1500 rows the integers pass Python's 4300-digit
# int-to-str limit and `idr-lab family eval` answers with an error, which
# would fail every run (test_perfbench shows that defect on one request).
CLI_STRATA = spread(list(enumerate(
    [("table", kind, m) for kind in TABLE_KINDS for m in MAGNITUDES]
    + [("family-eval", family) for family in FAMILIES for _ in range(2)]
    + [("family-verify", family) for family in FAMILIES]
    + [("cf",), ("cf",), ("power-witness",), ("scaled-witness",), ("scaled-witness",)]
    + [("bulk-table", kind) for kind in TABLE_KINDS]
    + [("bulk-eval", family) for family in FAMILIES]
)))
BULK_X_MAX = (300, 1000)


def cli_stratum_op(stratum: tuple, turn: int, params: int, rng: random.Random) -> Op:
    """`turn` rotates shapes, magnitudes, roundings and bulk sizes; `params`
    picks family parameters; `rng` draws the sizes of small requests."""
    kind = stratum[0]
    if kind == "table":
        _, op_kind, magnitude = stratum
        n = round(8 * 8 ** rng.random())
        return cli_table_op(op_kind, table_case(pick(SHAPES, turn), magnitude, n, rng))
    if kind == "bulk-table":
        magnitude = pick(MAGNITUDES, turn)
        n = jittered(1024 if magnitude == "small" else 512, rng)
        return cli_table_op(stratum[1], table_case("near", magnitude, n, rng))
    if kind == "family-eval":
        spec = family_spec(stratum[1], pick(ROUNDINGS, turn), params)
        return cli_eval_op(spec, rng.randint(10, 60))
    if kind == "bulk-eval":
        spec = family_spec(stratum[1], pick(ROUNDINGS, params), params)
        return cli_eval_op(spec, jittered(pick(BULK_X_MAX, turn), rng))
    if kind == "family-verify":
        spec = family_spec(stratum[1], pick(ROUNDINGS[1:], turn), params)
        return cli_verify_op(spec, rng.randint(8, 20))
    if kind == "cf":
        return cli_cf_op(pick(PARAM_A, params), rng.randint(5, 15))
    if kind == "power-witness":
        return cli_power_witness_op(pick(PARAM_A, params))
    q = rng.randint(2, 6)
    return cli_scaled_witness_op(coprime_p(q, params), q)


def cli(seed: int):
    for round_no in count():
        yield cli_round(seed, round_no)


def cli_round(seed: int, round_no: int):
    for index, stratum in CLI_STRATA:
        rng = random.Random(f"cli:{seed}:{round_no}:{index}")
        params = param_turn(f"cli:{seed}", index, round_no)
        yield cli_stratum_op(stratum, index + round_no, params, rng)


WORKLOADS = {"tables": tables, "families": families, "cli": cli}
IN_PROCESS = ("tables", "families")
