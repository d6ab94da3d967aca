"""heckepaths benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload crystal --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable report
goes to standard error.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones.  See NOTES.md for the workloads and the
definition of every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
WORKLOAD_NAMES = ("crystal", "recognize", "enumerate")


def use_checkout_library():
    """Put this checkout's src/ first on sys.path, or exit 2 if it has none."""
    if not (SRC / "heckepaths" / "__init__.py").is_file():
        print(f"error: no heckepaths package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


@dataclass
class Cycle:
    """One pass over a workload's operations."""

    busy: float = 0.0  # CPU seconds inside execute()
    busy_wall: float = 0.0  # wall-clock seconds inside execute()
    work: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    known: int = 0
    latencies: list = field(default_factory=list)  # CPU seconds, one per operation
    counts: Counter = field(default_factory=Counter)


def run_cycle(workload, hook=None) -> Cycle:
    cyc = Cycle()
    for k, op in enumerate(workload.ops):
        cyc.counts["ops"] += 1
        try:
            state = workload.prepare(op)
        except Exception as exc:  # noqa: BLE001 - an input the library now rejects
            cyc.attempted += 1
            cyc.failures.append(f"op {k}: prepare raised {type(exc).__name__}: {exc}")
            continue
        if hook:
            hook.start(k)
        w0, t0 = perf_counter(), thread_time()
        try:
            raw = workload.execute(state)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            raw = exc
        dt = thread_time() - t0
        cyc.busy_wall += perf_counter() - w0
        if hook:
            hook.stop()
        cyc.busy += dt
        cyc.latencies.append(dt)
        if isinstance(raw, Exception):
            cyc.attempted += 1
            cyc.failures.append(f"op {k}: {type(raw).__name__}: {raw}")
            continue
        chk = workload.check(op, raw)
        cyc.work += chk.work
        cyc.attempted += chk.attempted
        cyc.failures += chk.failures
        cyc.known += chk.known
        cyc.counts.update(chk.counts)
    return cyc


@dataclass
class Summary:
    attempted: int
    failures: list
    known: int

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted

    @property
    def correct(self) -> bool:
        """Every failure is a defect the golden record lists as known."""
        return self.known == self.failed


def summarize(cycles) -> Summary:
    return Summary(
        sum(c.attempted for c in cycles),
        [f for c in cycles for f in c.failures],
        sum(c.known for c in cycles),
    )


def percentile(sorted_values, q: float):
    """Nearest-rank percentile, with the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def setup(name: str, seed: int):
    """Import, build the inputs and warm up, SETUP_REPEATS times; the median
    duration is setup_s and the last workload is the one measured."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = thread_time()
        lib = wl.import_library()
        workload = wl.WORKLOADS[name](lib, seed, wl.load_golden(), wl.load_system_data())
        times.append(thread_time() - t0)
    return lib, workload, statistics.median(times)


def compare_counts(name: str, seed: int, trace: int, cycles: list, extra: dict, report):
    """Report the exact work counts; flag a cycle, or a run with the same
    seed, whose counts differ."""
    first = dict(cycles[0].counts)
    for k, cyc in enumerate(cycles[1:], 1):
        if dict(cyc.counts) != first:
            report(f"FLAG: cycle {k} counts {dict(cyc.counts)} differ from cycle 0")
    counts = {**first, **extra}
    report(f"work counts per cycle: {json.dumps(counts, sort_keys=True)}")
    path = OUT / "counts" / f"{name}-seed{seed}-trace{trace}.json"
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != counts:
            report(f"FLAG: counts differ from an earlier run with this seed: {earlier}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    use_checkout_library()
    os.environ.pop("HPL_HEIGHT_BOUND", None)  # the CLI's default height bound, as recorded

    def report(line):
        print(f"[{args.workload}] {line}", file=sys.stderr, flush=True)

    lib, workload, setup_s = setup(args.workload, args.seed)
    if args.trace:
        cycles, metrics, extra = traced_run(lib, workload, args, report)
    else:
        cycles, metrics = timed_run(workload, args.seconds, setup_s, report)
        extra = {}
    compare_counts(args.workload, args.seed, args.trace, cycles, extra, report)
    summary = summarize(cycles)
    for line in sorted(set(summary.failures))[:20]:
        report(f"failure: {line}")
    report(
        f"failed_ratio = {summary.failed_ratio:.6f} (failed={summary.failed}, "
        f"attempted={summary.attempted}, known defects={summary.known})"
    )
    result = {
        "correct": summary.correct,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


TAIL_Q = {"p99": 0.99, "p90": 0.90}


def timed_run(workload, seconds: int, setup_s: float, report):
    cycles = []
    t0 = perf_counter()
    while not cycles or perf_counter() - t0 < seconds:
        cycles.append(run_cycle(workload))
    # Every cycle repeats the same operations.  An operation's time is the
    # best of its repetitions: other processes only ever add time, in bursts
    # of about a second on a shared machine.
    per_op = [min(times) * 1000 for times in zip(*(c.latencies for c in cycles))]
    work = statistics.median(c.work for c in cycles)
    throughput = work / sum(per_op) * 1000
    wall = statistics.median(c.work / c.busy_wall for c in cycles)
    p50 = statistics.median(per_op)
    if workload.tail == "max":
        tail, beyond = max(per_op), 0
    else:
        tail, beyond = percentile(sorted(per_op), TAIL_Q[workload.tail])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    names = workload.report_names
    n = f"{len(per_op)} operations, best of {len(cycles)} cycles"
    report(f"{names[0]} = {throughput:.4f} {workload.unit}/s ({n}; wall clock, median cycle: {wall:.4f})")
    report(f"{names[1]} = {p50:.4f} ms ({n})")
    report(f"{names[2]} = {tail:.4f} ms ({n}, {beyond} above)")
    report(f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS})")
    report(f"peak_rss_mb = {peak_rss_mb:.1f} MB (n=1)")
    metrics = {
        "throughput": (throughput, "1/s"),
        "p50_ms": (p50, "ms"),
        "tail_ms": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return cycles, metrics


def traced_run(lib, workload, args, report):
    """One untraced cycle, one traced cycle and one profiled cycle."""
    from tracing import Profiler, Tracer

    reference = run_cycle(workload)
    tracer = Tracer()
    restore = tracer.install(lib)
    try:
        traced = run_cycle(workload, tracer)
    finally:
        restore()
    profiler = Profiler()
    profiled = run_cycle(workload, profiler)
    values = tracer.metrics()
    values.update(profiler.shares())
    values["trace.overhead_ratio"] = traced.busy / reference.busy
    out_dir = OUT / "trace" / f"{workload.name}-seed{args.seed}"
    tracer.write(out_dir)
    for name, value in values.items():
        report(f"{name} = {value:.6g}")
    report(f"spans written to {out_dir}")
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    calls = {f"calls.{k}": v for k, v in tracer.call_counts().items()}
    return [reference, traced, profiled], metrics, calls


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".calls", ".paths")):
        return "count"
    return "ratio"


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            rows.append((name, None))
            continue
        rows.append((name, json.loads(lines[-1])))
    for name, result in rows:
        if result is None:
            print(f"{name}: run failed")
            continue
        ratio = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} failed_ratio={ratio:.6f} "
              f"(failed={result['failed']}, attempted={result['attempted']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
