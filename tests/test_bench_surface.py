"""The package surface that `bench/` reads, called as `bench/` calls it.

The benchmark is kept apart from the program and changes only with the
benchmark itself, so a program change that drops or renames one of these
names fails here, in the tests, rather than in a benchmark run.  See
`bench/README.md` for the constructors and `bench/oracle.py`,
`bench/tracing.py` and `bench/workloads.py` for the rest.
"""

import hashlib
import inspect
from fractions import Fraction
from pathlib import Path

import borda_dynamics as bd
import borda_dynamics.cli  # noqa: F401  (bench imports it as a submodule)
from reference import find_cycle
from test_cli import VERIFY_DIGESTS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: the verifiers `bench/tracing.py` wraps, by their `VERIFIERS` keys
VERIFIER_NAMES = (
    "traveling_wave", "forced_even_period", "even_period_lifting",
    "robustness", "unreachable_persistence", "single_peaked_invariance",
)


def test_the_constructors_named_in_the_bench_readme():
    rho = bd.weak_order([[0], [1], [2]])
    net = bd.influence_network([[0, 1], [1, 0]])
    for schedule in (bd.Schedule.synchronous(), bd.Schedule.sequence([0, 1]), bd.Schedule.uniform(3)):
        sc = bd.ScenarioConfig(m=3, network=net, persistent=bd.PersistentConfig({}), initial=(rho, rho),
                               schedule=schedule, label="bench", max_steps=50)
        report = sc.run()
        assert (report.mu, report.period, report.orbit, report.prefix[0]) == (0, 1, ((rho, rho),), (rho, rho))
        assert report.min_margin == 1 and all(log[0][1] == rho for log in report.target_log)
    pinned = bd.PersistentConfig({0: rho})
    assert pinned.free_nodes(2) == (1,)
    gadget = bd.build_gadget(3, rho, Fraction(1, 10))
    wave = bd.build_traveling_wave(8, find_cycle(bd.build_cover_graph(3), 4))
    assert (gadget.m, wave.network.n) == (3, 8)
    assert bd.load_scenario(SCENARIO_DIR / "gadget.json").m == 3
    assert bd.verifiers.load_suite(SCENARIO_DIR / "suite_controls.json")
    assert len(bd.enumerate_weak_orders(3)) == len(bd.build_cover_graph(3).orders) == 13
    assert issubclass(bd.BudgetExceededError, Exception)


def test_the_reference_layers_the_oracle_re_drives_with():
    net = bd.influence_network([[0, 1], [1, 0]])
    x, z = bd.parse_order("x>y>z", 3), bd.parse_order("z>y>x", 3)
    graph = bd.build_cover_graph(3)
    scores = bd.dynamics.aggregate_scores(net, (x, z), 0)
    assert bd.weak_orders.project(scores) == z
    # `bench/tracing.py` counts a move when the step differs from its third positional argument
    assert list(inspect.signature(bd.move_graph.step).parameters)[2] == "current"
    assert bd.move_graph.step(bd.StepPolicy(), graph, x, z) != x
    assert net.weights == ((0, 1), (1, 0))
    assert callable(bd.weak_orders.borda_scores.cache_info)


def test_the_run_and_search_signatures_the_tracer_binds():
    # the tracer binds `run_until_cycle`'s arguments by name and reads the
    # first four positional arguments of `enumerate_fixed_points`
    params = inspect.signature(bd.dynamics.run_until_cycle).parameters
    assert list(params)[:6] == ["net", "graph", "policy", "persistent", "initial", "schedule"]
    params = inspect.signature(bd.dynamics.enumerate_fixed_points).parameters
    assert list(params)[:4] == ["net", "graph", "policy", "persistent"]


def test_the_verifiers_and_the_cli_entry_the_tracer_wraps(capsys):
    assert set(bd.verifiers.VERIFIERS) == set(VERIFIER_NAMES)
    for name in VERIFIER_NAMES:
        assert bd.verifiers.VERIFIERS[name] is getattr(bd.verifiers, f"verify_{name}")
    assert bd.cli.main(["enumerate", "2"]) == 0
    assert capsys.readouterr().out.startswith("id,order,scores,antipode,degree\n")


def test_verify_output_is_unchanged_with_every_verifier_wrapped_as_the_tracer_wraps_it(monkeypatch, capsys):
    # `bench/tracing.py` replaces each `VERIFIERS` entry with a plain
    # (*args, **kwargs) closure, without functools.wraps
    def wrapped(fn):
        return lambda *args, **kwargs: fn(*args, **kwargs)

    for name, original in list(bd.verifiers.VERIFIERS.items()):
        monkeypatch.setitem(bd.verifiers.VERIFIERS, name, wrapped(original))
    for name, digest in VERIFY_DIGESTS.items():
        assert bd.cli.main(["verify", str(SCENARIO_DIR / name)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
