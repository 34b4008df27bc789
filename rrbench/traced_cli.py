"""Run one ``rieszreg`` command with the benchmark's tracer installed.

Usage: python traced_cli.py SPANS_OUT <rieszreg arguments...>

Times ``import rieszreg.cli`` as the span ``cli.import``, runs
``rieszreg.cli.main`` with every traced function wrapped, and writes the
spans and counters to SPANS_OUT as JSON once the command has finished.
Exits with the command's own exit code.
"""

import json
import sys
from time import perf_counter

import tracer as tracing


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    start = perf_counter()
    import rieszreg.cli
    tracer.record("cli.import", start, perf_counter())
    tracer.install()
    try:
        code = rieszreg.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
