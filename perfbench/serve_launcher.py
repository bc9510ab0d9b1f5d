"""Run the ``repro`` CLI with the serving layers wrapped for tracing.

    python perfbench/serve_launcher.py TRACE_OUT serve --registry DIR --port 0

Installs the timing wrappers of :func:`tracing.install_serving_layers`, then
hands the remaining arguments to ``repro.cli.main`` unchanged.  When the
server exits (SIGTERM drains it gracefully), the spans and per-layer totals
are written to ``TRACE_OUT``.
"""

from __future__ import annotations

import sys

from tracing import SERVING_INTERVALS, Tracer, install_serving_layers


def main() -> int:
    trace_out, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer("repro serve (traced)", keep_intervals=SERVING_INTERVALS)
    install_serving_layers(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
