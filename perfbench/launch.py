"""Traced CLI launcher: installs the span wrappers in a fresh interpreter,
then runs ``fockladder.cli.main(argv)`` and exits with its code.

    python3 perfbench/launch.py --spans FILE --layers FILE -- <cli argv>

The spans go to ``--spans`` as JSON lines and the per-layer totals to
``--layers`` as one JSON object.  Started by run.py for the traced
cli-cold ops.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--layers", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import fockladder.cli

    tracer = Tracer()
    tracer.op_id = 0
    tracer.install()
    try:
        code = fockladder.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    tracer.write_jsonl(args.spans)
    with open(args.layers, "w", encoding="utf-8") as fh:
        json.dump(tracer.layer_metrics(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
