"""Run one idr-lab command with every public layer traced.

    PYTHONPATH=src python3 perfbench/cli_child.py <idr-lab arguments>

Stdout and the exit code are the command's own.  The last stderr line is
the per-layer totals, as spans.summarise gives them, after a fixed marker.
"""

import json
import sys

import idrlab.cli
from spans import TOTALS_MARK, Tracer, summarise

if __name__ == "__main__":
    tracer = Tracer()
    with tracer.install():
        code = idrlab.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(TOTALS_MARK + json.dumps(summarise(tracer.spans)), file=sys.stderr)
    sys.exit(code)
