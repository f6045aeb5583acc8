"""Run one traced CLI invocation in a fresh interpreter.

    python3 benchmarks/launcher.py SUMMARY.json <schrodsep arguments...>

Times the import of ``schrodsep.cli``, installs the tracer, calls
``schrodsep.cli.main`` with the arguments and exits with its code.  The
tracer summary (plus the import time) goes to SUMMARY.json and the spans
next to it.  Untraced runs call ``python3 -m schrodsep`` instead.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    t0 = time.perf_counter()
    import schrodsep.cli as cli

    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    summary_path = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    tracer.write(summary_path.with_name(summary_path.stem + "-spans.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
