"""Run the toda-atlas command line with per-layer tracing.

    python3 perfbench/traced_cli.py TRACE_JSON N verify --suite atlas --n 9 ...

The span aggregates, keyed by size N, are written to TRACE_JSON when the
command ends. The exit code is the command's. The benchmark runs this in
place of ``python -m toda_atlas.cli`` in the traced rounds of ``verify``.
"""

import json
import sys
from pathlib import Path

import toda_atlas.cli as cli
from tracing import Tracer


def main():
    trace_path, n, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.n = n
    tracer.install()
    try:
        cli.main(argv)
        code = 0
    except SystemExit as stop:
        code = stop.code
    finally:
        tracer.uninstall()
        trace_path.write_text(json.dumps(tracer.to_dict()))
    return code


if __name__ == "__main__":
    sys.exit(main())
