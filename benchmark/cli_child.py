"""Runs one gkm3 CLI call with span tracing, for traced cli-mixed runs.

Usage: python cli_child.py SPANS_FILE <gkm3 cli arguments>

Behaves like ``python -m gkm3.cli <arguments>``; in addition, when the call
ends (normally, by an error, or by SIGTERM) the spans and counts are
written to SPANS_FILE as JSON.
"""

import json
import signal
import sys

from spans import Tracer


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> None:
    out = sys.argv[1]
    sys.argv = ["gkm3"] + sys.argv[2:]
    signal.signal(signal.SIGTERM, _terminate)
    tracer = Tracer()
    tracer.install()
    import gkm3.cli

    try:
        gkm3.cli.main()
    finally:
        spans, counts = tracer.take()
        with open(out, "w") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)


if __name__ == "__main__":
    main()
