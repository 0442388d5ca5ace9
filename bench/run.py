#!/usr/bin/env python3
"""Benchmark of borda_dynamics: four seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from its `src/`.
One process, one thread, closed loop: each call starts when the previous one
returns.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed
from oracle import Oracle, Reference, RunArgs, fingerprint
from tracing import Tracer
from workloads import ROOT, SCENARIO_DIR, WORKLOADS, Timers, sha

SRC = ROOT / "src"
PACKAGE = "borda_dynamics"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"

#: the timed run makes at least this many passes, each with its own set-up
MIN_PASSES = 5


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them under `section`."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[section]}


def fresh_import():
    """Import the package anew, so every lru_cache and lazy table starts cold."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    bd = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return bd


def set_up(workload, raw, speed: HostSpeed | None = None):
    """Fresh import and every input of the batch built: (package, calls, timers).

    With `speed`, host speed is sampled between the steps of the set-up.
    """
    timers = Timers(speed.tick if speed else None)
    bd = fresh_import()
    return bd, workload.build(bd, raw, timers), timers


def input_nnz(calls) -> int:
    """Nonzero weights over the distinct networks built in set-up."""
    nets = {}
    for call in calls:
        for scenario in (getattr(call, "scenario", None), getattr(call, "reference", None)):
            net = getattr(scenario, "network", None)
            if net is not None:
                nets[id(net)] = net
    return sum(1 for net in nets.values() for row in net.weights for w in row if w != 0)


@dataclass(frozen=True)
class Crash:
    """Outcome of a call that raised."""

    text: str


class Ledger:
    """Outcomes, times and failures of the calls of one run."""

    def __init__(self):
        self.first: dict[int, object] = {}  # call index -> first outcome
        self.prints: dict[int, object] = {}  # call index -> fingerprint of that outcome
        self.ops: dict[int, int] = {}  # call index -> ops one run of it completes
        self.times: list[tuple[int, float, float]] = []  # (call index, start, seconds)
        self.ok_ops: dict[int, int] = {}  # ops of its runs not yet counted as failed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        if len(self.problems) < 5:
            self.problems.append(problem)

    def run(self, calls, ks, speed: HostSpeed | None = None) -> None:
        """Run calls[k] for each k in ks, one after another, sampling host speed between."""
        for k in ks:
            start = time.perf_counter()
            try:
                outcome = calls[k].run()
            except Exception:
                outcome = Crash(traceback.format_exc())
            seconds = time.perf_counter() - start
            if speed is not None:
                speed.sample(seconds)
            self.record(k, calls[k], outcome, seconds, start)

    def record(self, k: int, call, outcome, seconds: float, start: float = 0.0) -> None:
        if isinstance(outcome, Crash):
            self.attempted += 1
            self.fail(1, f"call {k} raised:\n{outcome.text}")
            return
        ops = call.ops(outcome)
        self.attempted += ops
        fp = fingerprint(call, outcome)
        if k not in self.first:
            self.first[k], self.prints[k], self.ops[k], self.ok_ops[k] = outcome, fp, ops, 0
        if fp != self.prints[k]:
            self.fail(ops, f"call {k}: a repeat returned a different outcome")
            return
        self.ok_ops[k] += ops
        self.times.append((k, start, seconds))

    def check(self, oracle: Oracle, calls) -> str:
        """Oracle over every distinct outcome; returns the digest of the batch."""
        items = {}
        for k, outcome in self.first.items():
            problem, items[k] = oracle.check(calls[k], outcome)
            if problem:
                self.fail_call(k, problem)
        return sha([items.get(k) for k in range(len(calls))])

    def fail_call(self, k: int, problem: str) -> None:
        """Count every so far unfailed run of call k as failed."""
        if self.ok_ops.get(k):
            self.fail(self.ok_ops[k], f"call {k}: {problem}")
            self.ok_ops[k] = 0

    def typical(self, speed: HostSpeed | None = None) -> dict[int, float]:
        """Call index -> the median of its run times, each scaled to the reference host."""
        runs: dict[int, list[float]] = {}
        for k, start, seconds in self.times:
            runs.setdefault(k, []).append(speed.scaled(start, seconds) if speed else seconds)
        return {k: statistics.median(values) for k, values in runs.items()}

    def timings(self, speed: HostSpeed | None = None) -> dict:
        """Throughput and per-op latency percentiles over each call's median run."""
        typical = self.typical(speed)
        ks = sorted(typical)
        latencies_ms = [typical[k] / self.ops[k] * 1e3 for k in ks]
        return {
            "ops_per_s": sum(self.ops[k] for k in ks) / sum(typical[k] for k in ks),
            "call_p50_ms": statistics.median(latencies_ms),
            "call_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, raw, seconds):
    """The timed run: passes until `seconds` have gone by, each a set-up and the batch.

    Every pass imports the program afresh and builds the batch from the same
    plain data, so each call is timed on new objects and cold caches, as in a
    process that runs each input once.  The first pass is kept for the oracle.
    """
    ledger, speed = Ledger(), HostSpeed()
    setups: list[tuple[float, float]] = []  # (start, seconds)
    first = bd = calls = None
    begin = time.perf_counter()
    while len(setups) < MIN_PASSES or time.perf_counter() - begin < seconds:
        bd = calls = None  # release the previous pass before timing the next set-up
        gc.collect()
        spent, start = speed.spent, time.perf_counter()
        bd, calls, _ = set_up(workload, raw, speed)
        setups.append((start, time.perf_counter() - start - (speed.spent - spent)))
        speed.sample(setups[-1][1])
        first = first or (bd, calls)
        ledger.run(calls, range(len(calls)), speed)
    rss = peak_rss_mb()
    bd, calls = first
    digest = ledger.check(Oracle(Reference.of(bd)), calls)
    setup_s = statistics.median(speed.scaled(t, s) for t, s in setups)
    raw_figures = {**ledger.timings(), "setup_s": statistics.median(s for _, s in setups),
                   "reference_median_s": statistics.median(speed.seconds)}
    print("unscaled " + " ".join(f"{key}={value}" for key, value in raw_figures.items()))
    return ledger, digest, {**ledger.timings(speed), "setup_s": setup_s, "peak_rss_mb": rss}


def plain_pass(workload, raw, speed):
    """The batch once untraced on a fresh set-up: (ledger, borda_scores hit ratio, timers)."""
    gc.collect()
    bd, calls, timers = set_up(workload, raw)
    cache_info = getattr(bd.weak_orders.borda_scores, "cache_info", None)
    before = cache_info() if cache_info else None
    ledger = Ledger()
    ledger.run(calls, range(len(calls)), speed)
    hits = lookups = 0
    if cache_info:
        after = cache_info()
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
    return ledger, hits / lookups if lookups else 0.0, timers


def traced(workload, raw, spans_path):
    """The batch untraced, traced and untraced again, each cold on a fresh set-up.

    The first pass also warms the process (allocator, the benchmark's own
    code); the overhead ratio compares the traced pass with the last one.
    """
    speed = HostSpeed()
    first, hit_ratio, timers = plain_pass(workload, raw, speed)
    gc.collect()
    bd, calls, timers_traced = set_up(workload, raw)
    oracle = Oracle(Reference.of(bd))  # the reference path is taken before tracing
    tracer, ledger = Tracer(), Ledger()
    try:
        tracer.install(bd)
        for k in range(len(calls)):
            tracer.run_id = k
            ledger.run(calls, [k], speed)
    finally:
        tracer.restore()
    traced_s = sum(ledger.typical(speed).values())
    last, _, timers_last = plain_pass(workload, raw, speed)
    untraced_s = sum(last.typical(speed).values())

    digest = ledger.check(oracle, calls)
    for plain in (first, last):
        for k, fp in plain.prints.items():
            if fp != ledger.prints.get(k):
                ledger.fail_call(k, "traced and untraced outcomes differ")
    for run_id, arguments, report in tracer.reports:
        if isinstance(report, str):  # a uniform run that used up its budget
            continue
        fields = {f: arguments[f] for f in RunArgs.__dataclass_fields__}
        problem = oracle.report(RunArgs(**fields), report)
        if problem:
            ledger.fail_call(run_id, f"inner run: {problem}")
    tracer.write(spans_path)

    metrics = {}
    for name, (n, own) in tracer.summary().items():
        metrics[f"{name}.calls"] = n
        metrics[f"{name}.self_s"] = own
    metrics.update(oracle.counters.metrics())
    counts = tracer.counts
    for key in ("candidates", "found"):
        key = f"dynamics.enumerate_fixed_points.{key}"
        metrics[key] = counts[key]
    steps = metrics["move_graph.step.calls"]
    metrics["move_graph.step.move_ratio"] = (
        counts["move_graph.step.moves"] / steps if steps else 0.0)
    metrics["weak_orders.borda_scores.hit_ratio"] = hit_ratio
    for key, value in timers.values.items():  # the fastest of the three set-ups
        metrics[key] = min(value, timers_traced.values[key], timers_last.values[key])
    metrics["influence.network.nnz"] = input_nnz(calls)
    metrics["hostspeed.reference_s"] = statistics.median(speed.seconds)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return ledger, digest, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 out_dir: Path = OUT_DIR) -> dict:
    """Run one workload and return the result object (tiny sizes for self-tests)."""
    workload = WORKLOADS[name]()
    raw = workload.generate(seed, tiny)
    if trace:
        spans_path = out_dir / f"spans-{name}-seed{seed}.tsv.gz"
        ledger, digest, metrics = traced(workload, raw, spans_path)
        units = metric_units("per_layer")
    else:
        ledger, digest, metrics = measure(workload, raw, seconds)
        units = metric_units("end_to_end")
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"digest {name} seed={seed}: {digest} over {len(ledger.first)} calls")
    print(f"failed_frac {ledger.failed / ledger.attempted} "
          f"({ledger.failed} of {ledger.attempted} ops)")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / PACKAGE / "__init__.py", SCENARIO_DIR, SPEC) if not p.exists()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run inside a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
