"""Run one multida command in-process with span recording.

    PYTHONPATH=src python3 bench/trace_cli.py SPANS.json -- train data.csv ...

Everything after ``--`` is passed to the ``multida`` command group.  The
spans, with a root ``cli.<command>`` span, are written to SPANS.json when
the command ends; the exit code is the command's.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, args = Path(argv[0]), argv[2:]
    import multida.cli

    tracer = spans.Tracer()
    code = 0
    with spans.patched(tracer):
        try:
            with tracer.span(f"cli.{args[0]}"):
                multida.cli.main.main(args=args, prog_name="multida",
                                      standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    out.write_text(json.dumps([asdict(s) for s in tracer.spans]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
