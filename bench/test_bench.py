"""Self-tests of the benchmark at tiny sizes: python3 -m pytest bench -q"""

import dataclasses
import gc
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import tracing
import workloads
from oracle import Counters, Oracle, Reference, check_report, run_args

sys.path.insert(0, str(run.SRC))

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


def tiny(name, trace, tmp_path, capsys):
    result = run.run_workload(name, seed=3, seconds=0.05, trace=trace, tiny=True,
                              out_dir=tmp_path)
    out = capsys.readouterr().out.splitlines()
    digest = next(line for line in out if line.startswith("digest"))
    return result, digest


def tiny_calls(name, seed=3):
    workload = workloads.WORKLOADS[name]()
    bd = run.fresh_import()
    return bd, workload.build(bd, workload.generate(seed, True), workloads.Timers())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_emitted_and_positive(name, tmp_path, capsys):
    result, _ = tiny(name, False, tmp_path, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_per_layer_metric_is_emitted(name, tmp_path, capsys):
    result, _ = tiny(name, True, tmp_path, capsys)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert result["correct"] and set(values) == set(run.metric_units("per_layer"))
    # the layers every workload reaches
    for key in ("dynamics.run_until_cycle.calls", "dynamics.target.calls",
                "dynamics.aggregate_scores.calls", "weak_orders.project.calls",
                "move_graph.step.calls", "dynamics.min_margin_over.calls",
                "dynamics.node_updates", "dynamics.states_stored",
                "weak_orders.borda_scores.hit_ratio", "move_graph.build.cold_s",
                "trace.overhead_ratio", "hostspeed.reference_s"):
        assert values[key] > 0, key
    if name == "verify_claims":
        for verifier in tracing.VERIFIER_NAMES:
            assert values[f"verifiers.{verifier}.calls"] > 0, verifier
        for key in ("cli.main.calls", "dynamics.enumerate_fixed_points.candidates",
                    "influence.perturb_weights.calls", "influence.class_structure.calls",
                    "scenarios.load.self_s"):
            assert values[key] > 0, key
    else:
        assert values["influence.network.build_s"] > 0
    assert (tmp_path / f"spans-{name}-seed3.tsv.gz").exists()


EXACT = [key for key, unit in run.metric_units("per_layer").items()
         if unit != "s" and key not in ("trace.overhead_ratio",)]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_exact_counters_and_digest_repeat(name, tmp_path, capsys):
    first, digest = tiny(name, True, tmp_path, capsys)
    second, digest_again = tiny(name, True, tmp_path, capsys)
    assert digest == digest_again
    assert {k: first["metrics"][k] for k in EXACT} == {k: second["metrics"][k] for k in EXACT}
    plain, digest_plain = tiny(name, False, tmp_path, capsys)
    assert digest_plain == digest


def test_every_pass_times_new_objects_from_a_fresh_import(monkeypatch, capsys):
    workload = workloads.WORKLOADS["census"]()
    raw = workload.generate(3, True)
    build, built = workload.build, []

    def spy(bd, raw, timers):
        calls = build(bd, raw, timers)
        built.append((bd, calls[0].scenario))
        return calls

    monkeypatch.setattr(workload, "build", spy)
    ledger, _, metrics = run.measure(workload, raw, 0.0)
    assert len(built) == run.MIN_PASSES
    assert len({id(bd) for bd, _ in built}) == run.MIN_PASSES
    assert len({id(scenario) for _, scenario in built}) == run.MIN_PASSES
    # outcomes of different imports compare by content, so the repeats agree
    assert ledger.failed == 0 and len(ledger.times) == run.MIN_PASSES * len(raw)
    assert metrics["setup_s"] > 0


def test_oracle_fails_an_orbit_with_two_swapped_prefix_states():
    bd, calls = tiny_calls("sync_large")
    ring = calls[-1]  # the copier ring: 24 distinct prefix states
    report = ring.run()
    ref = Reference.of(bd)
    assert check_report(ref, run_args(ref, ring.scenario), report, Counters()) is None
    prefix = list(report.prefix)
    prefix[1], prefix[2] = prefix[2], prefix[1]
    bad = dataclasses.replace(report, prefix=tuple(prefix), orbit=tuple(prefix[report.mu:]))
    assert "step 0" in check_report(ref, run_args(ref, ring.scenario), bad, Counters())

    ledger = run.Ledger()
    for k, call in enumerate(calls):
        ledger.record(k, call, bad if call is ring else call.run(), 0.01)
    ledger.check(Oracle(ref), calls)
    assert ledger.failed == ring.ops(bad) > 0
    assert 0 < ledger.failed / ledger.attempted < 1


def test_oracle_fails_a_prefix_that_repeats_a_state():
    bd, calls = tiny_calls("census")
    ref = Reference.of(bd)
    call = next(c for c in calls if c.run().period > 1)
    report = call.run()
    prefix = report.prefix + (report.prefix[report.mu],)
    logs = report.target_log + (report.target_log[report.mu],)
    bad = dataclasses.replace(report, prefix=prefix, mu=report.mu + 1,
                              orbit=prefix[report.mu + 1:], target_log=logs)
    assert "repeats a state" in check_report(ref, run_args(ref, call.scenario), bad, Counters())


def test_a_uniform_run_out_of_budget_is_an_outcome_not_a_failure():
    bd, calls = tiny_calls("async_mixed")
    call = next(c for c in calls if c.uniform)
    call.scenario.max_steps = 1
    outcome = call.run()
    assert outcome == workloads.BUDGET and call.ops(outcome) == 1
    ledger = run.Ledger()
    ledger.record(0, call, outcome, 0.01)
    ledger.check(Oracle(Reference.of(bd)), [call])
    assert ledger.failed == 0


def test_host_speed_scales_by_the_reference_time_around_a_call():
    speed = hostspeed.HostSpeed()
    speed.starts = [float(t) for t in range(20)]
    speed.seconds = [1e-4] * 10 + [2e-4] * 10  # the host halves its speed at t = 10
    assert speed.scaled(2.0, 0.01) == pytest.approx(0.01 * hostspeed.REFERENCE_SECONDS / 1e-4)
    assert speed.scaled(17.0, 0.01) == pytest.approx(0.01 * hostspeed.REFERENCE_SECONDS / 2e-4)
    # a long call is scaled by the reference runs around its whole span
    assert speed.factor(1.0, 18.0) == pytest.approx(hostspeed.REFERENCE_SECONDS / 1.5e-4)
    speed.sample(0.05)  # a 50 ms call is followed by three reference runs
    assert len(speed.starts) == 23
    assert gc.isenabled()  # switched off only while the reference runs


def test_a_directory_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
