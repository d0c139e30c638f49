"""Server process of ``serve_http_pipelined``: ``python -m repro.serve`` with optional tracing.

Usage::

    python3 perfbench/serve_launcher.py [--trace-dir DIR] -- <repro.serve arguments>

With ``--trace-dir`` the serving wrappers of :mod:`tracing` are installed
before the CLI starts, and the spans are written to ``DIR`` when the CLI
returns.  SIGTERM is turned into the CLI's Ctrl-C path, which drains the
gateway and returns; SIGINT is not used because a shell that starts a job
in the background makes its children ignore it.  The parent sets this
process's CPU affinity before it starts.
"""

from __future__ import annotations

import argparse
import signal
import sys

from paths import SRC

sys.path.insert(0, str(SRC))


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main() -> int:
    signal.signal(signal.SIGTERM, _interrupt)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    arguments = parser.parse_args()
    cli = arguments.cli[1:] if arguments.cli[:1] == ["--"] else arguments.cli

    tracer = None
    if arguments.trace_dir is not None:
        import repro.serve  # noqa: F401  (load every module the wrappers rebind)
        from tracing import Tracer

        tracer = Tracer(arguments.trace_dir)
        tracer.install_serving()
        tracer.tags["variant"] = cli[cli.index("--model") + 1]

    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(cli)
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
