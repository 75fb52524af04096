"""Run one ``genoclass`` command, optionally recording spans around its layers.

    python3 perfbench/launch.py [--spans FILE --run ID] <genoclass arguments>

With ``--spans`` the tracing wrappers are installed before the command
runs, and the spans are written to FILE when it exits, whatever its status.
"""

from __future__ import annotations

import sys


def main() -> None:
    argv = sys.argv[1:]
    tracer = None
    if argv[:1] == ["--spans"]:
        from tracing import Tracer, install

        spans_path, run, argv = argv[1], argv[3], argv[4:]
        tracer = Tracer(run)
        install(tracer)
    from genoclass.cli import main as genoclass_main

    try:
        genoclass_main(args=argv, prog_name="genoclass")
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    main()
