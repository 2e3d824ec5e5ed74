"""``python -m repro <args>`` with the benchmark's span recorders installed.

Usage: ``python traced_serve.py SPANS_OUT <repro CLI args...>``.  Runs the
program's CLI in this process with ``layers.install`` applied, and writes
the recorded spans and counts to ``SPANS_OUT`` when the CLI returns (the
server returns on SIGTERM).  Spans recorded inside the service's pool
workers are not collected: the service terminates its workers on
shutdown.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    from repro import cli

    tracer = Tracer("server")
    layers.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main())
