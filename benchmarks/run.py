#!/usr/bin/env python3
"""Benchmark of the hilbk3 command line reports.

Run from the repository root:

    python3 benchmarks/run.py --workload betti_tables --seed 1 --seconds 15 --trace 0

One client runs one report at a time, each in a fresh interpreter, as a
command line user would; the package's process-wide caches are never warm.
Every report's output is checked (see checks.py).  The last line of stdout
is a JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from math import ceil

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
REPORT_TIMEOUT = 60.0   # seconds; a report running longer is killed and counted failed
RUN_DEADLINE = 150.0    # seconds; no new report starts after this, so a run ends within 180 s

# A fixed pure-Python child, run between every two timed children.  The
# host's speed swings by up to a half within seconds, because other tenants
# share its cores (the time is spent on the CPU, not stolen).  Each timed
# wall is scaled by CALIBRATION_REFERENCE_S, the child's usual time on the
# reference host, over the mean of the calibrations just before and after it.
CALIBRATION = """
from fractions import Fraction
s = Fraction(0)
for i in range(1, 4000):
    s += Fraction(i % 7 - 3, i % 97 + 1)
d = {}
for i in range(60000):
    k = (i * 7919) % 1009
    d[k] = d.get(k, 0) + i * i
"""
CALIBRATION_REFERENCE_S = 0.065


def tail_percentile(samples) -> tuple[int, float, int]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    Returns (percentile, value, samples beyond it).  With ten samples or
    fewer no percentile qualifies, and the maximum is returned as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1], 0
    p = 100 * (n - 10) // n
    rank = max(1, ceil(p * n / 100))
    return p, xs[rank - 1], n - rank


class Runner:
    """Spawns reports from a scratch directory inside the checkout."""

    def __init__(self, root: str, work: str):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.deadline = time.monotonic() + RUN_DEADLINE
        self.calibrations: list[float] = []
        self._n = 0

    def spawn(self, command) -> tuple[float, int, int, bytes, bytes]:
        """Run one child to exit.

        Returns (wall seconds, exit code, peak RSS in KiB, stdout, stderr).
        The wait blocks in wait4, so the wall time is not rounded to a
        polling interval; a watchdog kills a child that outlives
        REPORT_TIMEOUT.
        """
        self._n += 1
        out = os.path.join(self.work, f"{self._n}.out")
        err = os.path.join(self.work, f"{self._n}.err")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=fo, stderr=fe, cwd=self.work, env=self.env)
            watchdog = threading.Timer(REPORT_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)  # a late kill is a no-op
            finally:
                watchdog.cancel()
        with open(out, "rb") as fo, open(err, "rb") as fe:
            stdout, stderr = fo.read(), fe.read()
        os.remove(out)
        os.remove(err)
        return wall, proc.returncode, usage.ru_maxrss, stdout, stderr

    def _calibrate(self) -> float:
        wall, code, _, _, stderr = self.spawn([sys.executable, "-c", CALIBRATION])
        if code != 0:
            raise RuntimeError("calibration failed: " + stderr.decode(errors="replace")[-500:])
        self.calibrations.append(wall)
        return wall

    def scaled(self, command) -> tuple[float, float, int, int, bytes, bytes]:
        """`spawn`, with the wall time also scaled to the reference speed."""
        before = self.calibrations[-1] if self.calibrations else self._calibrate()
        wall, *rest = self.spawn(command)
        speed = (before + self._calibrate()) / (2 * CALIBRATION_REFERENCE_S)
        return (wall, wall / speed, *rest)

    def report(self, argv):
        return self.spawn(self.report_command(argv))

    @staticmethod
    def report_command(argv):
        return [sys.executable, "-m", "hilbk3", *argv, "--json"]

    def traced_report(self, argv, report_id: int):
        path = os.path.join(self.work, f"trace{report_id}.json")
        result = self.spawn([sys.executable, os.path.join(HERE, "trace_child.py"), path,
                             str(report_id), *argv, "--json"])
        trace = None
        if os.path.exists(path):
            with open(path) as fh:
                trace = json.load(fh)
            os.remove(path)
        return result, trace

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline


def measure_setup(runner: Runner) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that only imports hilbk3.

    Returns (unscaled, scaled) medians.
    """
    walls, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        wall, fair, code, _, _, stderr = runner.scaled([sys.executable, "-c", "import hilbk3"])
        if code != 0:
            raise RuntimeError("import hilbk3 failed: " + stderr.decode(errors="replace")[-500:])
        walls.append(wall)
        scaled.append(fair)
    return statistics.median(walls), statistics.median(scaled)


def run_untraced(plan, runner, checker, seconds):
    """Whole decks; returns (records, digest, peak KiB).

    A record is (argv, wall seconds, scaled seconds, Verdict).
    """
    first: list[bytes] = []
    digest = hashlib.sha256()
    records = []
    peak_kib = 0
    for deck in range(plan.decks(seconds)):
        for k, argv in enumerate(plan.reports):
            if runner.out_of_time():
                break
            latency, scaled, code, rss, stdout, stderr = runner.scaled(
                runner.report_command(argv))
            verdict = checker.verdict(argv, code, stdout, stderr)
            if deck == 0:
                digest.update(stdout)
                first.append(stdout)
            elif stdout != first[k]:
                verdict = checks.Verdict(False, wrong=True, reason="output differs between decks")
            records.append((argv, latency, scaled, verdict))
            peak_kib = max(peak_kib, rss)
    return records, digest.hexdigest(), peak_kib


def run_traced(plan, runner, checker):
    """Each distinct report of the deck once untraced, then once traced.

    Returns (records, traces, overhead seconds).
    """
    records, traces = [], []
    overhead = 0.0
    for k, argv in enumerate(dict.fromkeys(plan.reports)):
        if runner.out_of_time():
            break
        plain, _, _, plain_out, _ = runner.report(argv)
        (latency, code, _, stdout, stderr), trace = runner.traced_report(argv, k)
        overhead += latency - plain
        verdict = checker.verdict(argv, code, stdout, stderr)
        if stdout != plain_out:
            verdict = checks.Verdict(False, wrong=True, reason="tracing changed the output")
        if trace is None:
            verdict = checks.Verdict(False, reason="no trace written")
        else:
            traces.append(trace)
        records.append((argv, len(stdout), verdict))
    return records, traces, overhead


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "hilbk3")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def report_failures(records) -> None:
    for argv, *_, verdict in records:
        if not verdict.ok:
            print(f"failed: hilbk3 {' '.join(argv)}: {verdict.reason}")


class UnreachedError(RuntimeError):
    """A wrapped function the workload is meant to reach was never called."""


def traced_result(plan, runner, checker):
    """Per-layer metrics of one traced deck; returns (records, failed, metrics, meta)."""
    records, traces, overhead = run_traced(plan, runner, checker)
    metrics, counts = tracing.aggregate(traces)
    unreached = [name for name in plan.reached if not counts["calls." + name]]
    if unreached:
        raise UnreachedError("wrapped functions never reached: " + ", ".join(unreached))
    library = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LIBRARY_LAYERS}
    share = sum(library[layer] for layer in plan.dominant) / sum(library.values())
    print(f"dominant layers {'+'.join(plan.dominant)}: {share:.1%} of library self time"
          f" ({'confirmed' if share > 0.5 else 'NOT confirmed'})")
    failed = sum(1 for *_, v in records if not v.ok)
    metrics.update({
        "cli.output_bytes": sum(size for _, size, _ in records),
        "cli.reports": len(records),
        "cli.failed": failed,
        "failed_fraction": failed / len(records),
        "trace.overhead_s": overhead,
    })
    out = {name: metric(metrics[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()}
    return records, failed, out, {"dominant_share": share,
                                  "counters": dict(sorted(counts.items()))}


def untraced_result(plan, runner, checker, seconds):
    """End-to-end metrics; returns (records, failed, metrics, meta)."""
    setup_raw, setup_s = measure_setup(runner)
    records, digest, peak_kib = run_untraced(plan, runner, checker, seconds)
    passed = sum(1 for *_, v in records if v.ok)
    values = {}
    for key, column in (("unscaled", 1), ("scaled", 2)):
        latencies = [r[column] for r in records]
        p, tail, beyond = tail_percentile(latencies)
        values[key] = {"throughput_rps": passed / sum(latencies),
                       "latency_p50_s": statistics.median(latencies),
                       "latency_tail_s": tail}
    out = {name: metric(v, "1/s" if name == "throughput_rps" else "s")
           for name, v in values["scaled"].items()}
    out["setup_s"] = metric(setup_s, "s")
    out["peak_rss_mb"] = metric(peak_kib / 1024, "MB")
    meta = {
        "digest": digest,
        "decks": plan.decks(seconds),
        "latency_tail": {"percentile": p, "samples": len(records), "beyond": beyond},
        "failed_fraction": (len(records) - passed) / len(records),
        "speed": statistics.median(runner.calibrations) / CALIBRATION_REFERENCE_S,
        "unscaled": {**values["unscaled"], "setup_s": setup_raw},
    }
    return records, len(records) - passed, out, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hilbk3", "cli.py")):
        print("error: run from the repository root; src/hilbk3 is missing", file=sys.stderr)
        return 2

    plan = workloads.build(args.workload, args.seed)
    checker = checks.Checker()
    checker.prepare(plan.reports)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        for path, gram in plan.grams.items():
            gram.write(os.path.join(work, path))
        runner = Runner(root, work)
        if args.trace:
            records, failed, out, extra = traced_result(plan, runner, checker)
        else:
            records, failed, out, extra = untraced_result(plan, runner, checker, args.seconds)
    except UnreachedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    report_failures(records)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "host": platform.node(),
        "nproc": os.cpu_count(), "git": git_commit(root), "source": source_digest(root),
        **extra,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in out.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not any(r[-1].wrong for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
