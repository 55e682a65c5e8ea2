"""``repro serve`` with spans recorded: ``traced_serve.py SPAN_DIR serve [options]``.

Installs the benchmark's span wrappers, points the pool backend's runner
at the traced cell runner, then runs the unmodified CLI.
"""

import sys
from pathlib import Path

import tracing

if __name__ == "__main__":
    tracing.install(Path(sys.argv[1]))
    from repro.cli import main
    from repro.service.backends import PoolBackend

    PoolBackend.__init__.__defaults__ = (None, tracing.traced_run_cell)
    sys.exit(main(sys.argv[2:]))
