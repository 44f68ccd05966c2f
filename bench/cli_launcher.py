"""Run the cliffmod command line with layer tracing installed.

    python bench/cli_launcher.py SPANS_OUT ARG...

behaves like `python -m cliffmod ARG...` (same output and exit code) and
writes the spans of the run, with their raw totals, to SPANS_OUT.  The
spawning process passes its launch time (time.monotonic) in the
BENCH_SPAWN_T environment variable, which gives cli.startup_s.
"""

import json
import os
import sys
import time

from tracing import Tracer, raw_totals


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import cliffmod.cli
    startup = time.monotonic() - float(os.environ["BENCH_SPAWN_T"])
    try:
        return cliffmod.cli.main(argv)
    finally:
        tracer.uninstall()
        raw = raw_totals(tracer.spans)
        raw["cli.startup_s"] = startup
        with open(out_path, "w") as fh:
            json.dump({"raw": raw, "spans": tracer.spans}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
