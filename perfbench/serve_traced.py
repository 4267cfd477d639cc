"""``locusroute serve`` with the benchmark's layer tracer installed.

Usage::

    python perfbench/serve_traced.py PREFIX --port 0

Wraps every layer's entry points, runs the daemon exactly as
``locusroute serve`` would, and on shutdown (SIGINT) writes
``PREFIX.summary.json`` and ``PREFIX.trace.json.gz``.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, default_layers


def main() -> int:
    prefix, serve_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(default_layers())
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        with open(prefix + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write_chrome(prefix + ".trace.json.gz")


if __name__ == "__main__":
    sys.exit(main())
