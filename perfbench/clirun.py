"""One `ljchain` CLI invocation with the layer tracer installed.

    python3 perfbench/clirun.py STEM SUBCOMMAND [FLAGS...]

Behaves like `python3 -m ljchain.cli SUBCOMMAND [FLAGS...]` (same stdout,
same exit code) and writes the trace summary to STEM.json and the spans
to STEM.spans.csv.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import tracing  # noqa: E402
from ljchain import cli  # noqa: E402


def main() -> int:
    stem, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    before = tracing.caches()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(stem + ".json", "w") as fh:
            json.dump(tracing.summary(tracer, before), fh)
        with open(stem + ".spans.csv", "w") as fh:
            tracer.write_spans(fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
