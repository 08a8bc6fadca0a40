"""Run one hilbk3 report with every layer wrapped, then write its trace.

    python3 trace_child.py TRACE_JSON REPORT_ID CLI_ARG...

Exit status, stdout and stderr are those of the report itself; the trace is
written even when the report raises.
"""

import json
import sys

import tracing


def main() -> int:
    path, report, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer(report)
    tracing.install(tracer)
    from hilbk3 import cli
    try:
        return cli.main(argv)
    finally:
        with open(path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
