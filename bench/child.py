"""Run one bps-series command in a fresh process and report how it went.

    python3 bench/child.py REPORT SPANS -- <bps-series arguments>

REPORT receives a JSON object: the monotonic clock reading once
bps_series.cli is imported (the parent subtracts its own reading at spawn to
get the set-up time), the time of cli.main from after the import until the
output is written, the exit code, the peak resident set size, and the error
that made the run invalid, if any.  SPANS is "-" for an untraced run;
otherwise the layer table is wrapped around the package before cli.main runs
and the spans are written there at exit.
"""

import time

import bps_series.cli as cli

READY_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402


def main():
    report_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT SPANS -- ARGS...")
    report = {"ready_ns": READY_NS, "job_s": None, "exit": None, "error": None}
    tracer = None
    try:
        entries = layers.resolve(strict=spans_path != "-")
        if spans_path != "-":
            tracer = layers.Tracer()
            tracer.install(entries)
        start = time.perf_counter()
        report["exit"] = cli.main(argv)
        report["job_s"] = time.perf_counter() - start
        if tracer is None:
            layers.check_untouched(entries)
        else:
            tracer.dump(spans_path)
    except Exception:  # any escape from cli.main is a failed job
        report["error"] = traceback.format_exc()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return report["exit"] if report["error"] is None else 70


if __name__ == "__main__":
    sys.exit(main())
