"""Benchmark runner for credit-pricer.

    python3 perfbench/run.py --workload book --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Runs one workload (book, figures or verify; see workloads.py) through the
public API and credit_pricer.cli.main in this process, judges every output
with gate.py, and prints a human-readable report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones of a separate
traced phase (layertrace.py). --workload all runs each workload in its own
process and prints one table.

The source tree is taken from src/ next to this directory; without it the
runner exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

# solve_banded goes through LAPACK: pin every BLAS/OpenMP pool to one
# thread before numpy is first imported, here and in child processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("CREDIT_PRICER_SEED", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, ".out")
WORKLOAD_NAMES = ("book", "figures", "verify")

SETUP_RUNS = 5
SETUP_CODE = "import credit_pricer.cli as cli; cli.load_config(None)"
CHILD_TIMEOUT_S = 120
# percentiles tried for the tail, highest first; one is reported only when
# at least ten samples lie beyond it
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ---------------------------------------------------------------------------
# host record

def host_record(seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


# ---------------------------------------------------------------------------
# set-up: a fresh process importing the CLI and loading the default config

def _run_setup_child(extra: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *extra, "-c", SETUP_CODE], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)


def measure_setup() -> list[float]:
    """Wall time of SETUP_RUNS fresh processes, after one untimed run that
    writes the bytecode caches."""
    _run_setup_child([])
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        _run_setup_child([])
        times.append(time.perf_counter() - t0)
    return times


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of credit_pricer (package plus cli), and of
    every scipy module not imported by another scipy module."""
    entries = []  # (depth, name, cumulative seconds), children before parents
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = Counter()
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name in ("credit_pricer", "credit_pricer.cli") and not any(
                a.startswith("credit_pricer") for _, a in ancestors):
            totals["credit_pricer"] += cumulative
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for _, a in ancestors):
            totals["scipy"] += cumulative
        ancestors.append((depth, name))
    return totals


def measure_import_layers() -> dict[str, tuple[float, str]]:
    samples = [parse_importtime(_run_setup_child(["-X", "importtime"]).stderr)
               for _ in range(3)]
    med = {key: statistics.median(s[key] for s in samples)
           for key in ("credit_pricer", "scipy")}
    return {"setup.import_s": (med["credit_pricer"], "s"),
            "setup.scipy_import_s": (med["scipy"], "s")}


# ---------------------------------------------------------------------------
# timed phases

class Phase:
    """Outcome of running whole cycles of a workload."""

    def __init__(self):
        self.latencies: list[float] = []
        self.cycle_busy: list[float] = []
        self.failures = Counter()
        self.regressions = Counter()
        self.wall_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def busy_s(self) -> float:
        return sum(self.cycle_busy)


def run_cycles(workload, cycles, seconds: float | None, tracer=None) -> Phase:
    """Run cycles from the iterable until their request time adds up to
    seconds (None: run them all). Only the requests are timed; judging the
    outputs happens between requests, off the clock."""
    phase = Phase()
    start = time.perf_counter()
    clock = time.perf_counter
    for requests in cycles:
        busy = 0.0
        for req in requests:
            if tracer is not None:
                tracer.begin_request(phase.attempted)
            t0 = clock()
            try:
                result = workload.execute(req)
            except Exception as exc:  # a failed request is counted, never fatal
                result = exc
            dt = clock() - t0
            busy += dt
            phase.latencies.append(dt)
            verdict = workload.judge(req, result)
            if not verdict.passed:
                phase.failures[verdict.label] += 1
                if verdict.regression:
                    phase.regressions[verdict.label] += 1
        if tracer is not None:
            tracer.end_cycle()
        phase.cycle_busy.append(busy)
        if seconds is not None and phase.busy_s >= seconds:
            break
    phase.wall_s = time.perf_counter() - start
    return phase


def endless(workload):
    k = 0
    while True:
        yield workload.cycle(k)
        k += 1


def latency_tail(latencies: list[float]):
    """(percentile, value in ms) of the highest percentile in
    TAIL_PERCENTILES with at least ten samples beyond it, or None."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        beyond = int(n * (1.0 - pct / 100.0))
        if beyond >= 10:
            return pct, ordered[n - beyond - 1] * 1e3
    return None


# ---------------------------------------------------------------------------
# one workload in this process

def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_times = None if trace else measure_setup()
    import_layers = measure_import_layers() if trace else None

    import layertrace
    import workloads

    work_dir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, work_dir)
    workload.load_reference()

    warm = run_cycles(workload, [workload.warmup_cycle()], None)
    record = {"workload": name, "seconds": seconds, "trace": trace,
              "host": host_record(seed)}
    if not trace:
        phase = run_cycles(workload, endless(workload), seconds)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_ops_s": (phase.attempted / phase.busy_s, "1/s"),
            "latency_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["setup_samples_s"] = setup_times
        record["latency_tail"] = latency_tail(phase.latencies)
    else:
        # the same first cycle, untraced then traced, gives the overhead
        baseline = run_cycles(workload, [workload.cycle(0)], None)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            workload.csv_bytes = 0
            phase = run_cycles(workload, endless(workload), seconds, tracer)
        finally:
            tracer.uninstall()
        metrics = layertrace.layer_metrics(tracer, phase.attempted, workload.csv_bytes)
        metrics.update(import_layers)
        overhead = phase.cycle_busy[0] - baseline.busy_s
        metrics["trace.overhead_s"] = (overhead / baseline.attempted, "s/req")
        metrics["trace.overhead_ratio"] = (overhead / baseline.busy_s, "ratio")
        record["errors_by_type"] = layertrace.errors_by_type(tracer)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.dump(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        phase.regressions.update(baseline.regressions)
    # untimed requests count against correctness, not against error_rate
    phase.regressions.update(warm.regressions)
    os.rmdir(work_dir)

    record.update({
        "requests": phase.attempted, "cycles": len(phase.cycle_busy),
        "busy_s": phase.busy_s, "wall_s": phase.wall_s, "cycle_busy_s": phase.cycle_busy,
        "error_rate": phase.failed / phase.attempted,
        "failures_by_type": dict(phase.failures),
        "regressions_by_type": dict(phase.regressions),
        "metrics": metrics,
    })
    record["result"] = {
        "correct": not phase.regressions,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_report(record: dict) -> None:
    host = record["host"]
    print(f"workload {record['workload']}  seed {host['seed']}  trace {int(record['trace'])}  "
          f"{record['requests']} requests in {record['cycles']} cycles, "
          f"{record['busy_s']:.3f} s busy")
    print("host " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:<58} {value:>16.6g} {unit}")
    if not record["trace"]:
        tail = record["latency_tail"]
        if tail is None:
            print(f"  {'latency_tail_ms':<58} {'omitted':>16} (n={record['requests']} too few)")
        else:
            pct, value = tail
            print(f"  {'latency_tail_ms':<58} {value:>16.6g} ms (p{pct:g}, n={record['requests']})")
    print(f"  {'error_rate':<58} {record['error_rate']:>16.6g} ratio "
          f"({sum(record['failures_by_type'].values())} of {record['requests']})")
    for label, count in sorted(record["failures_by_type"].items()):
        print(f"    failed: {label} x{count}")
    for label, count in sorted(record.get("errors_by_type", {}).items()):
        print(f"    instruments layer raised: {label} x{count}")
    for label, count in sorted(record["regressions_by_type"].items()):
        print(f"    REGRESSION against the reference: {label} x{count}")


# ---------------------------------------------------------------------------
# every workload, each in a fresh process

def run_all(seed: int, seconds: int, trace: bool) -> int:
    records = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"),
                  encoding="utf-8") as fh:
            records[name] = json.load(fh)

    rows = {}  # metric -> (unit, {workload: cell})
    for name, rec in records.items():
        for metric, (value, unit) in rec["metrics"].items():
            rows.setdefault(metric, (unit, {}))[1][name] = f"{value:.6g}"
        if not trace:
            tail = rec["latency_tail"]
            rows.setdefault("latency_tail_ms", ("ms", {}))[1][name] = (
                f"{tail[1]:.6g} p{tail[0]:g}" if tail else "omitted")
        rows.setdefault("error_rate", ("ratio", {}))[1][name] = f"{rec['error_rate']:.6g}"
        for field in ("correct", "attempted", "failed"):
            rows.setdefault(field, ("", {}))[1][name] = str(rec["result"][field])
    print()
    print(f"{'metric':<58}" + "".join(f"{w:>18}" for w in WORKLOAD_NAMES) + "  unit")
    for metric, (unit, cells) in rows.items():
        print(f"{metric:<58}" + "".join(f"{cells.get(w, '-'):>18}" for w in WORKLOAD_NAMES)
              + f"  {unit}")
    print(json.dumps({name: rec["result"] for name, rec in records.items()}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "credit_pricer", "cli.py")):
        print(f"perfbench: no credit_pricer sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
