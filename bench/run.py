"""Batch benchmark of the bps-series command line.

    python3 bench/run.py --workload {hilbert,transform,resummation}
        [--seed N] [--seconds S] [--trace 0|1] [--record FILE]

Load model: a closed loop with one client.  The seeded job list of the
workload runs one command at a time, each in a fresh interpreter
(bench/child.py), so every run starts with the package's caches cold, as a
user's does.  Children get the caller's environment without
BPS_SERIES_THREADS and with PYTHONPATH set to this checkout's src; inputs and
outputs live in a temporary directory under .bench_work/ that is removed at
exit.

Untraced (--trace 0): the list is run once, then cycled job by job until
--seconds have passed; a job's time is the median over its runs.  Printed
metrics:
  setup_s      median time from spawn until bps_series.cli is imported
  batch_s      sum of the per-job times: time to solution of the batch
  job_s_p50    median per-job time
  job_s_p75    per-job time with 10 of the (>= 40) jobs above it
  peak_rss_mb  largest peak resident set of any child
  fail_ratio   failed runs / attempted runs (also in "failed"/"attempted")

Traced (--trace 1): every job runs once untraced and once with the layer
table of layers.py wrapped around the package; the per-layer calls, self
times and useful-work ratios come from the traced runs, and
trace.overhead_ratio is traced over untraced batch time.

Every run of every job is checked: exit code, no traceback, the output
against the independent oracles of workloads.py, equal bytes across repeats
and, at the default seed, against the golden digests in golden.json.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1
JOB_TIMEOUT_S = 30
RUN_DEADLINE_S = 150  # stop starting jobs here; what is left counts as failed


class Files:
    """Input files of one run, written as JSON into its work directory."""

    def __init__(self, directory):
        self.directory = directory

    def write(self, name, obj):
        path = self.directory / name
        path.write_text(json.dumps(obj))
        return str(path)


@dataclass
class Sample:
    setup_s: float = math.nan
    job_s: float = math.nan
    rss_mb: float = 0.0
    digest: str = ""
    error: str | None = None


def child_env():
    env = dict(os.environ)
    env.pop("BPS_SERIES_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(job, index, work, env, timeout, spans=None):
    out = work / f"{index}.out"
    report_path = work / f"{index}.report.json"
    for stale in (out, report_path):
        stale.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "child.py"), str(report_path),
        str(spans) if spans else "-", "--", *job.argv, "--out", str(out),
    ]
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return Sample(error=f"timeout after {timeout:.0f} s")
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return Sample(error=f"no report (exit {proc.returncode}) {tail}")
    output = out.read_bytes() if out.exists() else b""
    sample = Sample(
        setup_s=(report["ready_ns"] - spawned) / 1e9,
        job_s=report["job_s"] if report["job_s"] is not None else math.nan,
        rss_mb=report["maxrss_kb"] / 1024,
        digest=hashlib.sha256(f"{report['exit']}\n".encode() + output).hexdigest(),
    )
    if report["error"]:
        sample.error = report["error"].strip().splitlines()[-1]
    elif b"Traceback" in proc.stderr:
        sample.error = "traceback on stderr"
    elif proc.returncode != report["exit"]:
        sample.error = f"process exit {proc.returncode} but cli.main returned {report['exit']}"
    else:
        sample.error = job.check(report["exit"], output)
    return sample


def warm_up(env):
    """Import the package once untimed, so bytecode compilation is not charged
    to the first job."""
    subprocess.run(
        [sys.executable, "-c", "import bps_series.cli"],
        env=env, cwd=ROOT, capture_output=True, timeout=JOB_TIMEOUT_S,
    )


def remaining(started):
    return RUN_DEADLINE_S - (time.monotonic() - started)


def run_untraced(jobs, work, env, seconds):
    """Run the list once, then cycle it until `seconds` have passed."""
    samples = [[] for _ in jobs]
    started = time.monotonic()
    i = 0
    while i < len(jobs) or time.monotonic() - started < seconds:
        index = i % len(jobs)
        left = remaining(started)
        if left <= 0:
            for rest in samples[index:] if i < len(jobs) else ():
                rest.append(Sample(error="not started before the run deadline"))
            break
        samples[index].append(run_child(jobs[index], index, work, env, min(JOB_TIMEOUT_S, left)))
        i += 1
    return samples


def run_traced(jobs, work, env, totals):
    """One untraced and one traced run per job; the spans go into totals."""
    samples = [[] for _ in jobs]
    traced_s = []
    started = time.monotonic()
    for index, job in enumerate(jobs):
        for traced in (False, True):
            left = remaining(started)
            if left <= 0:
                samples[index].append(Sample(error="not started before the run deadline"))
                continue
            spans = work / f"{index}.spans.json" if traced else None
            sample = run_child(job, index, work, env, min(JOB_TIMEOUT_S, left), spans)
            samples[index].append(sample)
            if traced and sample.error is None:
                totals.add(json.loads(spans.read_text()))
                spans.unlink()
                traced_s.append(sample.job_s)
    return samples, traced_s


def load_golden(workload, seed):
    """Per-job digests recorded at the default seed, or None."""
    golden = json.loads(GOLDEN.read_text())
    return golden.get(workload) if golden["seed"] == seed else None


def judge(jobs, samples, golden):
    """Mark repeats whose bytes changed and runs that differ from the golden
    digests; return (attempted, failed, per-job digests)."""
    digests = []
    attempted = failed = 0
    for index, (job, runs) in enumerate(zip(jobs, samples)):
        first = next((s.digest for s in runs if s.digest), "")
        digests.append(first)
        for s in runs:
            if s.error is None and s.digest != first:
                s.error = "output bytes differ between repeats"
            if s.error is None and golden is not None and s.digest != golden["jobs"][index]:
                s.error = "output differs from the golden digest"
            attempted += 1
            if s.error is not None:
                failed += 1
                print(f"FAIL job {index} ({job.kind} {' '.join(job.argv)[:120]}): {s.error}", file=sys.stderr)
    return attempted, failed, digests


E2E_UNITS = {"setup_s": "s", "batch_s": "s", "job_s_p50": "s", "job_s_p75": "s", "peak_rss_mb": "MB"}


def nearest_rank(values, share):
    ordered = sorted(values)
    return ordered[math.ceil(share * len(ordered)) - 1]


def end_to_end(samples):
    """Metrics over the runs that measured a time (failed runs count through
    fail_ratio)."""
    timed = [[s for s in job if not math.isnan(s.job_s)] for job in samples]
    runs = [s for job in timed for s in job]
    per_job = [statistics.median(s.job_s for s in job) for job in timed if job]
    if not per_job:
        return {name: (0.0, unit) for name, unit in E2E_UNITS.items()}
    return {
        "setup_s": (statistics.median(s.setup_s for s in runs), "s"),
        "batch_s": (sum(per_job), "s"),
        "job_s_p50": (statistics.median(per_job), "s"),
        "job_s_p75": (nearest_rank(per_job, 0.75), "s"),
        "peak_rss_mb": (max(s.rss_mb for s in runs), "MB"),
    }


def per_layer(workload, totals, untraced_s, traced_s):
    """Per-layer metrics plus the self-checks of the traced run."""
    metrics = totals.metrics()
    chosen, bypassed = layers.COVERAGE[workload]
    share = layers.ratio(sum(totals.layer_self_s(layer) for layer in chosen), sum(traced_s))
    metrics["trace.overhead_ratio"] = (layers.ratio(sum(traced_s), sum(untraced_s)), "ratio")
    metrics["trace.chosen_share"] = (share, "ratio")
    problems = [f"layer {layer} was chosen but saw no call" for layer in chosen if not totals.layer_calls(layer)]
    problems += [
        f"layer {layer} is bypassed but saw {totals.layer_calls(layer)} calls"
        for layer in bypassed
        if totals.layer_calls(layer)
    ]
    if share <= 0.5:
        problems.append(f"chosen layers {chosen} cover only {share:.2f} of the traced job time")
    return metrics, problems


def commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, jobs, samples):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs": len(jobs),
        "runs": sum(len(runs) for runs in samples),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result as one JSON line to this file")
    args = parser.parse_args()
    if not (SRC / "bps_series" / "cli.py").is_file():
        print(f"error: no bps_series package under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        jobs = workloads.WORKLOADS[args.workload](rng, Files(work))
        warm_up(env)
        if args.trace:
            totals = layers.Totals()
            samples, traced_s = run_traced(jobs, work, env, totals)
            untraced_s = [runs[0].job_s for runs in samples if runs[0].error is None]
        else:
            samples = run_untraced(jobs, work, env, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    golden = load_golden(args.workload, args.seed)
    attempted, failed, digests = judge(jobs, samples, golden)
    outputs_sha256 = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    problems = []
    if golden is not None and golden["outputs_sha256"] != outputs_sha256:
        problems.append("outputs_sha256 differs from the golden digest")
    if args.trace:
        metrics, layer_problems = per_layer(args.workload, totals, untraced_s, traced_s)
        problems += layer_problems
    else:
        metrics = end_to_end(samples)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    info = provenance(args, jobs, samples)
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:48} {value:.6g} {unit}")
    print(f"{'fail_ratio':48} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"outputs_sha256 {outputs_sha256}" + ("" if golden is None else " (golden checked)"))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record:
        record = {
            **info,
            **result,
            "fail_ratio": failed / attempted,
            "problems": problems,
            "outputs_sha256": outputs_sha256,
            "job_digests": digests,
            "job_kinds": [job.kind for job in jobs],
            "job_s": [[None if math.isnan(s.job_s) else s.job_s for s in runs] for runs in samples],
        }
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
