"""Run one spherecast subcommand, optionally with per-layer tracing.

    python3 launch.py [--trace SPANS.json] SUBCOMMAND [ARGS...]

Timed runs and traced runs go through this same launcher; with --trace the
wrappers of spans.py are installed before spherecast.cli.main is called
and the spans are written to SPANS.json when the subcommand returns.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    if spans_path is None:
        from spherecast.cli import main as cli_main
        return cli_main(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    tracer = spans.Tracer()
    tracer.install()
    from spherecast.cli import main as cli_main
    with tracer.span(f"cli.{argv[0]}"):
        code = cli_main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
