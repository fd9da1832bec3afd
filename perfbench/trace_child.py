"""A pwclock process run under the span recorder.

Usage: python3 perfbench/trace_child.py SPANS_JSON ARGVS_JSON

Runs ``pwclock.cli.main`` once per argument list in ARGVS_JSON (a JSON list
of lists) with the recorder installed, writes the span rows to SPANS_JSON
and exits with the largest exit code.
"""

from __future__ import annotations

import json
import sys

import common

common.require_source()

from pwclock import cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argvs = sys.argv[1], json.loads(sys.argv[2])
    tracer = Tracer()
    tracer.install()
    try:
        code = max(cli.main(argv) for argv in argvs)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.drain(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
