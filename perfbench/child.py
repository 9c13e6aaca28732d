"""One spdc-etalon CLI invocation in a fresh interpreter, with timestamps.

    python3 perfbench/child.py SPAWN_MONOTONIC TRACE CLI_ARG...

SPAWN_MONOTONIC is `time.monotonic()` read by the parent just before it
started this process (CLOCK_MONOTONIC is shared by all processes), so
`parsed - spawn` covers interpreter start-up, the numpy and spdc_etalon
imports and `parse_config`.  The command runs through `cli.main`, so
exit codes and printed lines are the CLI's own.  The last stdout line
is one JSON object with the timestamps, the exit code, this process's
`ru_maxrss` and, with TRACE = 1, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Exit code for a tracer that cannot wrap its targets; the parent
# aborts the whole run on it instead of counting a failed invocation.
EXIT_TRACER = 70


def main(argv):
    spawn, trace, cli_args = float(argv[0]), argv[1] == "1", argv[2:]
    sys.path.insert(0, str(SRC))
    from spdc_etalon import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the checkout's {SRC}", file=sys.stderr)
        return 2

    with ExitStack() as cleanup:
        tracer = None
        if trace:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracer import Tracer

            try:
                tracer = cleanup.enter_context(Tracer().installed())
            except LookupError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_TRACER

        stamps = {}
        parse = cli.parse_config

        def stamped_parse(text):
            config = parse(text)
            stamps["parsed"] = time.monotonic()
            return config

        cli.parse_config = stamped_parse
        try:
            code = cli.main(cli_args)
        finally:
            done = time.monotonic()
            cli.parse_config = parse

    report = {
        "spawn": spawn,
        "parsed": stamps.get("parsed"),
        "done": done,
        "exit_code": code,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
