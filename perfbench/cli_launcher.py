"""Runs one ``gausswork`` CLI verb with spans around each layer.

    PYTHONPATH=src python3 perfbench/cli_launcher.py --spans FILE <verb> [args ...]

It times the import of ``gausswork.cli``, wraps the layer functions as
``tracing.instrument`` does, calls ``gausswork.cli.main`` with the verb's
arguments and exits with its code.  The spans, plus the counters
``cli.import.s`` and ``cli.invocations``, are written to FILE at the end.
"""

import sys
import time

import tracing


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--spans":
        print(__doc__, file=sys.stderr)
        return 1
    path, argv = sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import gausswork.cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        return gausswork.cli.main(argv)
    finally:
        tracer.counters["cli.import.s"] += import_s
        tracer.counters["cli.invocations"] += 1
        tracer.write(path)


if __name__ == "__main__":
    sys.exit(main())
