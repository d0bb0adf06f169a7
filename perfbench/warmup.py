"""One small call into every layer the benchmark traces.

Run as a script it times a fresh interpreter's `import idrlab` plus this
warm-up and prints the seconds: the benchmark's set-up time.  It needs
idrlab importable, e.g. `PYTHONPATH=src python3 perfbench/warmup.py`.
"""

import io
import time
from contextlib import redirect_stdout


def warm_up() -> None:
    from idrlab import analysis, cli, families, idr, newton

    values = [x * x for x in range(12)]
    idr.check_idr_bruteforce(values)
    idr.check_idr_newton(values)
    idr.project_idr(values)
    newton.values_from_coeffs(newton.coeffs_from_values(values), 11)
    families.FactorialESpec(2, "floor").tabulate(8)
    families.HyperSpec(-3, 3, 1, "ceil").tabulate(8)
    families.verify_factorial_e(2, "floor", 4)
    families.verify_hyper(2, 2, 1, "floor", 4)
    families.verify_convergent_gaps(1, 3)
    analysis.power_factorial_witness(3)
    analysis.floored_scaled_factorial_witness(1, 3)
    with redirect_stdout(io.StringIO()):
        cli.main(["lcm", "table", "--n", "5"])


if __name__ == "__main__":
    start = time.perf_counter()
    warm_up()
    print(time.perf_counter() - start)
