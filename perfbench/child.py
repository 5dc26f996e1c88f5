"""Run one specrad CLI command in a fresh process with spans installed.

Usage: python3 perfbench/child.py OUT.json [specrad arguments ...]

Times ``import specrad`` (with the CLI module), runs ``specrad.cli.main`` on
the arguments under the tracer, and writes
``{"import_s": ..., "exit": ..., "spans": [...]}`` to OUT.json before
exiting with the command's exit code.  With no specrad arguments it only
measures the import.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import specrad.cli

    import_s = time.perf_counter() - start
    code, spans = 0, []
    if argv:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            code = specrad.cli.main(argv)
        finally:
            tracer.uninstall()
            spans = tracer.take()
    out.write_text(json.dumps({"import_s": import_s, "exit": code, "spans": spans}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
