"""idr-lab benchmark: seeded, closed-loop, single-client workloads.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see workloads.py): `tables` (Newton transforms, both IDR checks
and projection, in process), `families` (family tables, oracle
verification, continued fractions and witnesses, in process) and `cli`
(one fresh `python -m idrlab` per operation).  Every answer is checked
against references computed without idrlab; a wrong answer or an
operation that errors fails the run (exit code 1).

With --trace 0 the run measures whole rounds until it has spent --seconds
in operations and done at least MIN_OPS of them, and reports the
end-to-end metrics.  With --trace 1 it runs the first round twice,
untraced and then with spans around idrlab's public functions, and reports
per-layer totals; the round depends only on the seed, so every count
repeats exactly.  Counts leave out the traced warm-up before the round;
times include it, so a layer the workload never calls reads a small
measured time instead of 0.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).  The line before it, "record: {...}",
adds the seed, Python version, kernel backend, core count, int-to-str
digit limit, git commit and failure details; --out also writes that
record to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, merge_totals, summarise
from warmup import warm_up
from workloads import IN_PROCESS, ROOT, SRC, WORKLOADS, ProgramError, child_env, child_totals

HERE = Path(__file__).resolve().parent

ALL = ("tables", "families", "cli")
SETUP_REPEATS = 7
PROBE_REPEATS = 5
MIN_OPS = 100
KEPT_FAILURES = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# metric -> (unit, span name, total key); None marks a derived metric.
PER_LAYER = {
    "kernels.forward_difference_coeffs.ms": ("ms", "kernels.forward_difference_coeffs", "ms"),
    "kernels.forward_difference_coeffs.calls": ("count", "kernels.forward_difference_coeffs", "calls"),
    "kernels.forward_difference_coeffs.cells": ("count", "kernels.forward_difference_coeffs", "cells"),
    "kernels.newton_values.ms": ("ms", "kernels.newton_values", "ms"),
    "kernels.newton_values.calls": ("count", "kernels.newton_values", "calls"),
    "kernels.newton_values.cells": ("count", "kernels.newton_values", "cells"),
    "kernels.first_idr_violation.ms": ("ms", "kernels.first_idr_violation", "ms"),
    "kernels.first_idr_violation.calls": ("count", "kernels.first_idr_violation", "calls"),
    "kernels.first_idr_violation.pairs": ("count", "kernels.first_idr_violation", "pairs"),
    "idr.check_idr_newton.self_ms": ("ms", "idr.check_idr_newton", "self_ms"),
    "idr.project_idr.self_ms": ("ms", "idr.project_idr", "self_ms"),
    "idr.check_idr_bruteforce.self_ms": ("ms", "idr.check_idr_bruteforce", "self_ms"),
    "arith.lcm_table.ms": ("ms", "arith.lcm_table", "ms"),
    "families.tabulate.ms": ("ms", "families.tabulate", "ms"),
    "families.tabulate.rows": ("count", "families.tabulate", "rows"),
    "families.eval.calls": ("count", "families.eval", "calls"),
    "families.verify.self_ms": ("ms", "families.verify", "self_ms"),
    "families.verify.rows": ("count", "families.verify", "rows"),
    "families.verify.decided_ratio": ("ratio", None, None),
    "families.cf.ms": ("ms", "families.cf", "ms"),
    "intervals.enclose.ms": ("ms", "intervals.enclose", "ms"),
    "intervals.enclose.calls": ("count", "intervals.enclose", "calls"),
    "intervals.enclose.per_row": ("count/row", None, None),
    "intervals.floor_via_interval.self_ms": ("ms", "intervals.floor_via_interval", "self_ms"),
    "analysis.witness.ms": ("ms", "analysis.witness", "ms"),
    "analysis.witness.calls": ("count", "analysis.witness", "calls"),
    "cli.interpreter_ms": ("ms", None, None),
    "cli.import_ms": ("ms", None, None),
    "cli.run.self_ms": ("ms", None, None),
    "cli.encode_ms": ("ms", None, None),
    "trace.overhead": ("ratio", None, None),
}


def wall_ms(command: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(command, check=True, capture_output=True, cwd=ROOT, env=child_env(), timeout=60)
    return (time.perf_counter() - start) * 1e3


def setup_probe() -> float:
    """Seconds a fresh interpreter takes to import idrlab and warm up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "warmup.py")],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=60,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed, cannot import idrlab from {SRC}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Outcomes of executed operations; failures are counted, never dropped."""

    def __init__(self):
        self.latencies: list[float] = []
        self.ok = self.wrong = self.errors = 0
        self.failures: list[str] = []

    def execute(self, op, call):
        """Time one call, check its result; returns the raw result."""
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the operation failed; count it and go on
            self.latencies.append(time.perf_counter() - start)
            self._fail("errors", f"{op.kind}: {type(exc).__name__}: {exc}")
            return None
        self.latencies.append(time.perf_counter() - start)
        try:
            problem = op.check(result)
        except ProgramError as exc:
            self._fail("errors", f"{op.kind}: {exc}")
            return result
        except Exception as exc:  # unreadable output is a wrong answer
            problem = f"{op.kind}: unreadable result: {type(exc).__name__}: {exc}"
        if problem is None:
            self.ok += 1
        else:
            self._fail("wrong", problem)
        return result

    def _fail(self, field: str, message: str) -> None:
        setattr(self, field, getattr(self, field) + 1)
        if len(self.failures) < KEPT_FAILURES:
            self.failures.append(message[:300])

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Whole rounds until `seconds` of operation time and MIN_OPS operations.

    The machine's speed drifts while a run lasts, so every figure is a
    median over parts of the run: throughput over rounds (each holds the
    same mix of work), latency quantiles over segments of whole rounds with
    at least MIN_OPS operations, and set-up over fresh interpreters probed
    before the first round and after each one (at least SETUP_REPEATS).
    """
    setup = [setup_probe()]
    if workload in IN_PROCESS:
        warm_up()
    tally = Tally()
    rounds = []  # (latencies, correct operations) per round
    for round_ops in WORKLOADS[workload](seed):
        start, ok = tally.attempted, tally.ok
        for op in round_ops:
            tally.execute(op, op.call)
        rounds.append((tally.latencies[start:], tally.ok - ok))
        setup.append(setup_probe())
        if sum(tally.latencies) >= seconds and tally.attempted >= MIN_OPS:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe())
    segments = [[]]
    for latencies, _ in rounds:
        if len(segments[-1]) >= MIN_OPS:
            segments.append([])
        segments[-1].extend(t * 1e3 for t in latencies)
    if len(segments) > 1 and len(segments[-1]) < MIN_OPS:
        segments[-2].extend(segments.pop())
    who = resource.RUSAGE_SELF if workload in IN_PROCESS else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(ok / sum(latencies) for latencies, ok in rounds),
        "latency_ms.p50": statistics.median(statistics.median(s) for s in segments),
        "latency_ms.p90": statistics.median(
            statistics.quantiles(s, n=10)[8] for s in segments
        ),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return tally, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(workload: str, seed: int, n_ops: int | None = None) -> tuple[Tally, dict]:
    """Per-layer totals over the first round (or its first n_ops operations)."""
    ops = list(next(WORKLOADS[workload](seed)))[:n_ops]
    warm_up()
    tally = Tally()
    for op in ops:
        tally.execute(op, op.call)
    untraced_s = sum(tally.latencies)

    warm = Tracer()
    with warm.install():
        warm_up()
    tracer = Tracer()
    children: dict = {}
    traced_from = tally.attempted
    with tracer.install():
        for op in ops:
            with tracer.span("op." + op.kind):
                result = tally.execute(op, op.traced_call or op.call)
            if op.traced_call is not None and result is not None:
                merge_totals(children, child_totals(result))
    traced_s = sum(tally.latencies[traced_from:])
    totals = summarise(tracer.spans)
    merge_totals(totals, children)
    merge_totals(totals, summarise(warm.spans), keys=("ms", "self_ms"))

    interpreter_ms = statistics.median(
        wall_ms([sys.executable, "-c", "pass"]) for _ in range(PROBE_REPEATS)
    )
    import_ms = statistics.median(
        wall_ms([sys.executable, "-c", "import idrlab.cli"]) for _ in range(PROBE_REPEATS)
    )

    def total(span: str, key: str):
        return totals.get(span, {}).get(key, 0)

    rows = total("families.verify", "rows")
    values = {
        "families.verify.decided_ratio": total("families.verify", "decided") / rows if rows else 0,
        "intervals.enclose.per_row": total("intervals.enclose", "in_verify") / rows if rows else 0,
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms - interpreter_ms,
        # cli.run's own time is the handlers' str() of results; cli.main
        # adds json.dumps and print.
        "cli.run.self_ms": total("cli.parse", "ms") + total("cli.decode", "ms"),
        "cli.encode_ms": total("cli.run", "self_ms") + total("cli.main", "ms")
        - total("cli.run", "ms"),
        "trace.overhead": untraced_s / traced_s,
    }
    metrics = {}
    for name, (unit, span, key) in PER_LAYER.items():
        value = values[name] if span is None else total(span, key)
        metrics[name] = {"value": value, "unit": unit}
    return tally, metrics


def run_one(args) -> int:
    if not (SRC / "idrlab" / "__init__.py").is_file():
        print(f"no idrlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from idrlab import kernels

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "commit": git_commit(),
    }
    if args.trace:
        tally, metrics = per_layer(args.workload, args.seed)
    else:
        tally, metrics = end_to_end(args.workload, args.seed, args.seconds)
    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        wrong=tally.wrong,
        errors=tally.errors,
        failed_ratio=tally.failed / tally.attempted,
        failures=tally.failures,
        metrics=metrics,
    )
    width = max(map(len, metrics))
    print(f"{args.workload}: {tally.attempted} operations, {tally.failed} failed")
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:.6g} {entry['unit']}")
    for message in tally.failures:
        print(f"  failure: {message}", file=sys.stderr)
    print("record: " + json.dumps(record))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    if not correct:
        print(f"{args.workload}: {tally.wrong} wrong answers, {tally.errors} errors",
              file=sys.stderr)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in ALL:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        code = max(code, proc.returncode)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(summary))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description="idr-lab benchmark")
    parser.add_argument("--workload", required=True, choices=[*ALL, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the run's record to this JSON file")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
