"""Run one kleinform command with the layer tracer installed.

    python3 bench/trace_cli.py SPANS.jsonl <kleinform arguments>

Stdout is the command's own.  The spans go to SPANS.jsonl and the layer
metrics, the import time and the command's wall time to SPANS.jsonl.json.
"""

import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import worker  # noqa: E402


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    import_s = worker.import_kleinform()
    import tracing
    from kleinform import cli

    tracer = tracing.install()
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    sys.stdout.flush()
    tracer.dump(path)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "command_s": elapsed,
                   "layers": tracer.metrics()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
