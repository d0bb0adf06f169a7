"""Spans around idrlab's public functions, recorded from outside the library.

`Tracer.install()` swaps each traced function for a wrapper at every module
attribute of idrlab that refers to it (or at its class attribute), so calls made
inside the library are seen too.  A span records its name, parent span,
start, end and an optional work count.  `layer_totals` turns the spans into
per-name totals: calls, inclusive ms, self ms (minus the time of direct
child spans) and summed counts.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Prefix of the stderr line on which a traced CLI child reports its totals.
TOTALS_MARK = "perfbench-totals "


def _kernel_cells_diff(args, result):
    n = len(args[0])
    return n * (n - 1) // 2


def _kernel_cells_newton(args, result):
    n, x_max = len(args[0]), args[1]
    return sum(min(x, n - 1) + 1 for x in range(x_max + 1))


def _kernel_pairs(args, result):
    if result is None:
        n = len(args[0])
        return n * (n - 1) // 2
    a, b = result
    return a * (a - 1) // 2 + b + 1


def _rows_tabulate(args, result):
    return len(result)


def _rows_verify(args, result):
    return len(result.rows)


def _decided_verify(args, result):
    return len(result.rows) - result.undecided_count


# (span name, module, attribute, count functions by suffix).  Several
# functions may share one span name; their spans are summed.
TARGETS = (
    ("kernels.forward_difference_coeffs", "kernels", "forward_difference_coeffs",
     {"cells": _kernel_cells_diff}),
    ("kernels.newton_values", "kernels", "newton_values", {"cells": _kernel_cells_newton}),
    ("kernels.first_idr_violation", "kernels", "first_idr_violation",
     {"pairs": _kernel_pairs}),
    ("idr.check_idr_newton", "idr", "check_idr_newton", {}),
    ("idr.project_idr", "idr", "project_idr", {}),
    ("idr.check_idr_bruteforce", "idr", "check_idr_bruteforce", {}),
    ("arith.lcm_table", "arith", "lcm_table", {}),
    ("families.tabulate", "families", "FactorialESpec.tabulate", {"rows": _rows_tabulate}),
    ("families.tabulate", "families", "HyperSpec.tabulate", {"rows": _rows_tabulate}),
    ("families.eval", "families", "eval_factorial_e", {}),
    ("families.eval", "families", "eval_hyper_family", {}),
    ("families.verify", "families", "verify_factorial_e",
     {"rows": _rows_verify, "decided": _decided_verify}),
    ("families.verify", "families", "verify_hyper",
     {"rows": _rows_verify, "decided": _decided_verify}),
    ("families.cf", "families", "euler_cf_convergents", {}),
    ("families.cf", "families", "verify_convergent_gaps", {}),
    ("intervals.enclose", "intervals", "enclose_exp_inv", {}),
    ("intervals.enclose", "intervals", "enclose_hyper", {}),
    ("intervals.floor_via_interval", "intervals", "floor_via_interval", {}),
    ("analysis.witness", "analysis", "power_factorial_witness", {}),
    ("analysis.witness", "analysis", "floored_scaled_factorial_witness", {}),
    ("cli.run", "cli", "run", {}),
    ("cli.main", "cli", "main", {}),
    # Argument parsing and payload decoding inside cli.run; what is left of
    # cli.run's own time is the handlers' encoding of results as strings.
    ("cli.parse", "cli", "build_parser", {}),
    ("cli.parse", "cli", "argparse.ArgumentParser.parse_args", {}),
    ("cli.decode", "cli", "_read_payload", {}),
    ("cli.decode", "cli", "_int_list", {}),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Span around a block; nests under whatever span is open."""
        record = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counters: dict):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            for suffix, count in counters.items():
                record.counts[suffix] = count(args, result)
            return result

        return traced

    @contextmanager
    def install(self):
        """Trace every TARGETS function for the duration of the block."""
        import idrlab
        import idrlab.cli  # noqa: F401  (not imported by the package itself)

        modules = [m for n, m in sys.modules.items() if n.startswith("idrlab") and m]
        patched = []
        for name, module_name, attr, counters in TARGETS:
            owner = getattr(idrlab, module_name)
            *class_path, fn_name = attr.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            fn = getattr(owner, fn_name)
            wrapper = self.wrap(name, fn, counters)
            holders = [owner] if class_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        patched.append((holder, key, fn))
                        setattr(holder, key, wrapper)
        try:
            yield self
        finally:
            for holder, key, fn in reversed(patched):
                setattr(holder, key, fn)


def layer_totals(spans: list[Span]) -> dict:
    """name -> {"calls", "ms", "self_ms", <count suffixes>}.

    "ms" is inclusive time; a span nested in one of the same name adds
    nothing to it, so recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        if record.parent is not None:
            child_time[record.parent] += record.end - record.start
    totals: dict = {}
    for index, record in enumerate(spans):
        entry = totals.setdefault(record.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        duration = record.end - record.start
        entry["calls"] += 1
        if record.parent is None or spans[record.parent].name != record.name:
            entry["ms"] += duration * 1e3
        entry["self_ms"] += (duration - child_time[index]) * 1e3
        for suffix, value in record.counts.items():
            entry[suffix] = entry.get(suffix, 0) + value
    return totals


def count_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Spans called `name` with a span called `ancestor` above them."""
    found = 0
    for record in spans:
        if record.name != name:
            continue
        parent = record.parent
        while parent is not None and spans[parent].name != ancestor:
            parent = spans[parent].parent
        found += parent is not None
    return found


def summarise(spans: list[Span]) -> dict:
    """layer_totals plus the enclosures built on behalf of verify rows."""
    totals = layer_totals(spans)
    enclose = totals.setdefault("intervals.enclose", {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    enclose["in_verify"] = count_under(spans, "intervals.enclose", "families.verify")
    return totals


def merge_totals(into: dict, more: dict, keys=None) -> None:
    """Add `more` into `into`; only the given total keys, if any."""
    for name, entry in more.items():
        target = into.setdefault(name, {})
        for key, value in entry.items():
            if keys is None or key in keys:
                target[key] = target.get(key, 0) + value
