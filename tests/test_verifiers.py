import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from borda_dynamics.dynamics import PersistentConfig, Schedule, enumerate_fixed_points, run_until_cycle
from borda_dynamics.errors import BudgetExceededError, ScenarioBuildError, ScenarioFormatError
from borda_dynamics.influence import InfluenceNetwork, influence_network, perturb_weights, seeded_random_network
from borda_dynamics.move_graph import StepPolicy, build_cover_graph, distance
from borda_dynamics.scenarios import (
    ScenarioConfig,
    build_gadget,
    build_traveling_wave,
    load_scenario,
    parse_scenario,
)
from borda_dynamics import dynamics, influence, verifiers
from borda_dynamics.verifiers import (
    enumerate_single_peaked,
    is_single_peaked,
    load_suite,
    run_suite,
    verify_even_period_lifting,
    verify_forced_even_period,
    verify_robustness,
    verify_single_peaked_invariance,
    verify_traveling_wave,
    verify_unreachable_persistence,
)
from borda_dynamics.weak_orders import antipode, enumerate_weak_orders, format_order, parse_order

import reference

G3 = build_cover_graph(3)
RHO = parse_order("x>y>z", 3)
CYCLE4 = reference.find_cycle(G3, 4)
CYCLE12 = reference.find_cycle(G3, 12)


def o(text, m=3):
    return parse_order(text, m)


# --- traveling waves -----------------------------------------------------------

@pytest.mark.parametrize("ell,k,cycle", [(4, 4, CYCLE4), (8, 4, CYCLE4), (12, 12, CYCLE12)])
def test_traveling_wave_periods(ell, k, cycle):
    outcome = verify_traveling_wave(build_traveling_wave(ell, cycle), expected_k=k)
    assert outcome.passed
    assert outcome.evidence["mu"] == 0
    assert outcome.evidence["period"] == outcome.evidence["predicted_period"] == k


def test_traveling_wave_corrupted_phase_fails(scenario_dir):
    # n3 starts at (xy)>z, three cover edges from its predecessor n2's x>z>y;
    # the run still reaches a period-4 orbit, after a transient of one step
    sc = load_scenario(scenario_dir / "wave_corrupted.json")
    outcome = verify_traveling_wave(sc, expected_k=4)
    assert not outcome.passed
    assert outcome.evidence == {
        "hypothesis_met": False,
        "reason": "a node starts more than one cover edge from its predecessor's start",
        "node": "n3",
        "distance": 3,
    }
    report = sc.run()
    assert (report.mu, report.period) == (1, 4)


@pytest.mark.parametrize("schedule", [Schedule.sequence([0, 1, 2, 3]), Schedule.uniform(3)],
                         ids=["sequence", "uniform"])
def test_traveling_wave_under_an_asynchronous_schedule_is_hypothesis_not_met(scenario_dir, schedule):
    sc = load_scenario(scenario_dir / "traveling_wave_4.json")
    outcome = verify_traveling_wave(dataclasses.replace(sc, schedule=schedule), expected_k=4)
    assert not outcome.passed
    assert outcome.evidence == {"hypothesis_met": False, "reason": "schedule is not synchronous"}


@st.composite
def copier_rings(draw):
    """A copier ring on m = 2..4 alternatives and 3..12 nodes, whose node
    indices are shuffled so that ring order is not index order, and its
    start read along the ring: a closed walk in the cover graph that goes out
    `out` steps, each to a neighbour or staying, waits at the far end and
    comes back the same way, rotated, with one position replaced by any
    order in about half the draws."""
    m = draw(st.integers(2, 4))
    ell = draw(st.integers(3, 12))
    graph = build_cover_graph(m)
    out = draw(st.integers(1, ell // 2))
    walk = [graph.id_of(draw(st.sampled_from(graph.orders)))]
    for _ in range(out):
        walk.append(draw(st.sampled_from((walk[-1], *graph.adjacency[walk[-1]]))))
    start = [graph.orders[i] for i in walk + [walk[-1]] * (ell - 2 * out) + walk[out - 1:0:-1]]
    turn = draw(st.integers(0, ell - 1))
    start = start[turn:] + start[:turn]
    if draw(st.booleans()):
        start[draw(st.integers(0, ell - 1))] = draw(st.sampled_from(graph.orders))
    order = draw(st.permutations(range(ell)))  # order[k] is the node at ring position k
    rows, initial = [None] * ell, [None] * ell
    for k, node in enumerate(order):
        rows[node] = ((order[k - 1], Fraction(1)),)
        initial[node] = start[k]
    policy = StepPolicy(allow_no_move_on_ambiguity=draw(st.booleans()))
    sc = ScenarioConfig(m=m, network=InfluenceNetwork(tuple(rows), tuple(f"n{i}" for i in range(ell))),
                        persistent=PersistentConfig(), initial=tuple(initial),
                        schedule=Schedule.synchronous(), policy=policy, label="ring")
    return sc, start


@settings(max_examples=200, deadline=None)
@given(copier_rings())
def test_traveling_wave_hypothesis_is_the_adjacent_start_and_predicts_the_orbit(ring):
    """Domain: the copier rings `copier_rings` draws (m 2..4, 3..12 nodes in
    shuffled order), either step policy, synchronous, no pins, so the
    hypothesis can fail only on the start."""
    sc, start = ring
    graph = build_cover_graph(sc.m)
    ell = len(start)
    adjacent = all(distance(graph, start[k - 1], start[k]) <= 1 for k in range(ell))
    outcome = verify_traveling_wave(sc, expected_k=1)
    assert outcome.evidence["hypothesis_met"] == adjacent
    if adjacent:
        predicted = outcome.evidence["predicted_period"]
        assert predicted == min(d for d in range(1, ell + 1) if start[d:] + start[:d] == start)
        report = sc.run()
        assert (report.mu, report.period) == (0, predicted)
        assert verify_traveling_wave(sc, expected_k=predicted).passed


def test_traveling_wave_with_a_pin_is_hypothesis_not_met():
    wave = build_traveling_wave(4, CYCLE4)
    pinned = dataclasses.replace(wave, persistent=PersistentConfig({0: wave.initial[0]}))
    outcome = verify_traveling_wave(pinned, expected_k=4)
    assert not outcome.passed
    assert outcome.evidence == {"hypothesis_met": False, "reason": "persistent nodes present on the ring"}


def test_traveling_wave_consensus_is_non_oscillating():
    wave = build_traveling_wave(4, CYCLE4)
    degenerate = dataclasses.replace(wave, initial=(RHO,) * 4)
    outcome = verify_traveling_wave(degenerate, expected_k=4)
    assert not outcome.passed
    assert outcome.evidence["non_oscillating"]
    assert outcome.evidence["period"] == 1


def test_traveling_wave_hypothesis_recheck():
    # a non-ring network is rejected before any simulation
    net = influence_network([["1/2", "1/2"], ["1/2", "1/2"]])
    sc = ScenarioConfig(
        m=3,
        network=net,
        persistent=PersistentConfig(),
        initial=(RHO, o("z>y>x")),
        schedule=Schedule.synchronous(),
        label="not_a_ring",
    )
    outcome = verify_traveling_wave(sc, expected_k=2)
    assert not outcome.passed
    assert not outcome.evidence["hypothesis_met"]


def test_traveling_wave_rejects_a_rho_shaped_copier_network():
    # a <- b, b <- c, c <- b: every node copies one node, and walking the
    # copied nodes from a visits all three, but a is on no cycle
    net = influence_network([[0, 1, 0], [0, 0, 1], [0, 1, 0]], ["a", "b", "c"])
    sc = ScenarioConfig(
        m=3,
        network=net,
        persistent=PersistentConfig(),
        initial=(o("x>(yz)"), RHO, o("x>(yz)")),
        schedule=Schedule.synchronous(),
        label="rho",
    )
    outcome = verify_traveling_wave(sc, expected_k=2)
    assert not outcome.passed
    assert outcome.evidence == {"hypothesis_met": False, "reason": "network is not a single copier ring"}


def test_traveling_wave_rejects_two_copier_rings():
    # a <- b, b <- a, c <- d, d <- c: every node copies one node, but the
    # walk from a returns to a before it meets c or d
    net = influence_network([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], ["a", "b", "c", "d"])
    sc = ScenarioConfig(
        m=3,
        network=net,
        persistent=PersistentConfig(),
        initial=(RHO,) * 4,
        schedule=Schedule.synchronous(),
        label="two_rings",
    )
    outcome = verify_traveling_wave(sc, expected_k=1)
    assert not outcome.passed
    assert outcome.evidence == {"hypothesis_met": False, "reason": "network is not a single copier ring"}


def test_traveling_wave_fails_when_the_predicted_period_is_not_expected_k(scenario_dir):
    # the hypothesis holds and the run gives the predicted (0, 4) orbit, but
    # the claim names another period
    sc = load_scenario(scenario_dir / "traveling_wave_4.json")
    outcome = verify_traveling_wave(sc, expected_k=2)
    assert not outcome.passed
    assert outcome.evidence["hypothesis_met"]
    assert (outcome.evidence["mu"], outcome.evidence["period"]) == (0, 4)
    assert outcome.evidence["predicted_period"] == 4
    assert outcome.evidence["expected_period"] == 2


# --- forced even periods ---------------------------------------------------------

def test_gadget_forces_period_two():
    outcome = verify_forced_even_period(build_gadget(3, RHO, Fraction(1, 10)))
    assert outcome.passed
    assert outcome.evidence["period"] == 2
    assert outcome.evidence["mu"] == 1
    assert outcome.evidence["min_margin"] == "1/10"
    assert outcome.evidence["cyclic_parts"] == [["i"], ["j"]]


def test_gadget_fixed_points_are_the_strict_consensus_pairs():
    # exhaustive search: every strict consensus of the two free nodes is an
    # equilibrium at eps = 1/10, and nothing else is
    outcome = verify_forced_even_period(build_gadget(3, RHO, Fraction(1, 10)))
    assert outcome.evidence["fixed_point_count"] == 6
    free_states = {(fp["i"], fp["j"]) for fp in outcome.evidence["fixed_points"]}
    strict = [format_order(w) for w in G3.orders if w.is_strict]
    assert free_states == {(s, s) for s in strict}


def test_forced_even_period_sweeps_the_closed_class_from_consensus():
    # consensus is a fixed point, so the default start fails and the sweep
    # over the closed class's initial profiles finds the witness
    gadget = build_gadget(3, RHO, Fraction(1, 10))
    outcome = verify_forced_even_period(dataclasses.replace(gadget, initial=(RHO, RHO) + gadget.initial[2:]))
    assert outcome.passed
    evidence = outcome.evidence
    assert evidence["initial_profiles_tried"] == 4
    assert evidence["witness_initial"] == {"i": "x>y>z", "j": "x>z>y", "p": "x>y>z", "q": "z>y>x"}
    assert (evidence["mu"], evidence["period"]) == (0, 2)


def test_forced_even_period_reports_the_configured_start_when_the_sweep_finds_nothing():
    # at eps = 9/10 each free node follows its own camp, so every start
    # settles: all 13^2 assignments of the closed class are tried after the
    # configured start, and the evidence is the configured start's run
    outcome = verify_forced_even_period(build_gadget(3, RHO, Fraction(9, 10)))
    assert not outcome.passed
    evidence = outcome.evidence
    assert evidence["initial_profiles_tried"] == 1 + 13**2
    assert evidence["witness_initial"] == {"i": "x>y>z", "j": "z>y>x", "p": "x>y>z", "q": "z>y>x"}
    assert (evidence["mu"], evidence["period"]) == (0, 1)


def camp_bipartite(m, rows):
    """Free nodes with the given dense rows over (free..., p, q); camp p is
    pinned to the first weak order and q to its antipode, every free node
    starts at p's order."""
    rho = enumerate_weak_orders(m)[0]
    names = [chr(ord("a") + k) for k in range(len(rows))] + ["p", "q"]
    zero = ["0"] * len(rows)
    net = influence_network([*rows, zero + ["1", "0"], zero + ["0", "1"]], names)
    return ScenarioConfig(
        m=m,
        network=net,
        persistent=PersistentConfig(pins={len(rows): rho, len(rows) + 1: antipode(rho)}),
        initial=(rho,) * (len(rows) + 1) + (antipode(rho),),
        schedule=Schedule.synchronous(),
        label="camp_bipartite",
    )


# FOUR_CYCLE: each of a, b, c, d hears its two neighbours on the 4-cycle at
# 1/20, a and c hear camp p and b and d camp q at 9/10.  THREE_PATH: b hears
# a and c at 1/2, a hears b at 1/10 and p at 9/10, c hears b and q likewise.
FOUR_CYCLE = [
    ["0", "1/20", "0", "1/20", "9/10", "0"],
    ["1/20", "0", "1/20", "0", "0", "9/10"],
    ["0", "1/20", "0", "1/20", "9/10", "0"],
    ["1/20", "0", "1/20", "0", "0", "9/10"],
]
THREE_PATH = [
    ["0", "1/10", "0", "9/10", "0"],
    ["1/2", "0", "1/2", "0", "0"],
    ["0", "1/10", "0", "0", "9/10"],
]


def test_forced_sweep_past_the_budget_is_refused():
    # the configured start settles, and the class's 75^4 assignments at m = 4
    # exceed the budget, so the sweep is refused before its first start
    with pytest.raises(BudgetExceededError, match="initial profiles"):
        verify_forced_even_period(camp_bipartite(4, FOUR_CYCLE))


def test_forced_sweep_within_the_budget_runs_to_the_end():
    # a 3-node closed class of period 2 at m = 3: 13^3 assignments, none a witness
    outcome = verify_forced_even_period(camp_bipartite(3, THREE_PATH))
    assert outcome.evidence["closed_class"] == ["a", "b", "c"]
    assert not outcome.passed
    assert outcome.evidence["initial_profiles_tried"] == 1 + 13**3


def test_epsilon_sweep_regression():
    # default-start oscillation band on the /20 grid; the fixed-point set is
    # never empty anywhere on the grid
    oscillating = []
    for k in range(1, 20):
        sc = build_gadget(3, RHO, Fraction(k, 20))
        report = sc.run()
        if report.period == 2 and report.mu <= 1:
            oscillating.append(k)
        fixed = enumerate_fixed_points(sc.network, G3, sc.policy, sc.persistent)
        assert len(fixed) > 0
        if report.period == 1:
            # a period-1 orbit state is itself a fixed point, so an empty
            # fixed-point set would force every orbit to have period > 1
            assert report.orbit[0] in fixed
    assert oscillating == list(range(1, 9))  # eps = 1/20 .. 2/5


def test_single_camp_gadget_is_hypothesis_not_met(scenario_dir):
    sc = load_scenario(scenario_dir / "gadget_single_camp.json")
    outcome = verify_forced_even_period(sc)
    assert not outcome.passed
    assert not outcome.evidence["hypothesis_met"]


CONTRARIAN = {"p": "x>y>z", "q": "z>y>x"}


@pytest.mark.parametrize("pins, met", [
    pytest.param(CONTRARIAN, True, id="contrarian-pins"),
    pytest.param({"p": "x>y>z", "q": "x>y>z"}, False, id="one-order"),
    pytest.param({"p": "x>y>z", "q": "z>y>x", "r": "y>x>z"}, False, id="third-order"),
    pytest.param({"p": "(xyz)", "q": "(xyz)"}, False, id="all-tied"),
    pytest.param({"p": "x>y>z", "q": "z>y>x", "r": "z>y>x"}, True, id="camps-and-antipodal-pin"),
])
def test_forced_even_period_reads_the_camps_off_the_pins(scenario_dir, pins, met):
    # the gadget with its pins replaced; a pinned node the gadget lacks
    # joins it as an isolated self-loop
    doc = json.loads((scenario_dir / "gadget.json").read_text())
    doc["pins"] = pins
    for node in pins:
        if node not in doc["network"]["nodes"]:
            doc["network"]["nodes"].append(node)
            doc["network"]["edges"].append({"from": node, "to": node, "weight": "1"})
    evidence = verify_forced_even_period(parse_scenario(doc)).evidence
    assert evidence["hypothesis_met"] is met
    if not met:
        assert evidence["reason"] == "no contrarian camps configured"
    if pins is CONTRARIAN:
        gadget = verify_forced_even_period(load_scenario(scenario_dir / "gadget.json"))
        assert evidence == gadget.evidence


def test_forced_even_period_past_the_fixed_point_budget_reports_no_count(scenario_dir):
    # four free nodes that hear only j, indexed before the gadget's i, j, p,
    # q, leave the fixed-point search 13**6 unpruned profiles
    doc = json.loads((scenario_dir / "gadget.json").read_text())
    doc["network"]["nodes"] = [*"abcd", *doc["network"]["nodes"]]
    doc["network"]["edges"] += [{"from": "j", "to": node, "weight": "1"} for node in "abcd"]
    doc["initial"].update({node: "z>y>x" for node in "abcd"})
    sc = parse_scenario(doc)
    with pytest.raises(BudgetExceededError):
        enumerate_fixed_points(sc.network, G3, sc.policy, sc.persistent)
    outcome = verify_forced_even_period(sc)
    assert outcome.passed
    evidence = outcome.evidence
    assert (evidence["fixed_point_count"], evidence["fixed_points"]) == (None, None)
    assert evidence["initial_profiles_tried"] == 1


def test_forced_even_period_requires_period_two_class():
    # three free nodes on a directed triangle have class period 3
    rows = [
        ["0", "0", "9/10", "1/10", "0"],
        ["9/10", "0", "0", "0", "1/10"],
        ["0", "1", "0", "0", "0"],
        ["0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "1"],
    ]
    net = influence_network(rows, ["a", "b", "c", "p", "q"])
    pc = PersistentConfig(pins={3: RHO, 4: o("z>y>x")})
    sc = ScenarioConfig(
        m=3,
        network=net,
        persistent=pc,
        initial=(RHO, o("z>y>x"), o("(xyz)"), RHO, o("z>y>x")),
        schedule=Schedule.synchronous(),
        label="triangle_camps",
    )
    outcome = verify_forced_even_period(sc)
    assert not outcome.passed
    assert not outcome.evidence["hypothesis_met"]
    assert "no closed free class of period 2" in outcome.evidence["reason"]


# --- even-period lifting ------------------------------------------------------------

def test_lifting_on_directed_four_ring():
    wave = build_traveling_wave(4, CYCLE4)
    outcome = verify_even_period_lifting(wave)
    assert outcome.passed
    assert outcome.evidence["period"] == 4
    assert outcome.evidence["half_cycle_a"] == 2
    assert outcome.evidence["half_cycle_b"] == 2
    # the witness lies on the cycle, so a run from it closes in exactly the period
    witness = tuple(o(outcome.evidence["witness"][name]) for name in wave.network.names)
    replay = dataclasses.replace(wave, initial=witness).run()
    assert (replay.mu, replay.period) == (0, 4)


def test_lifting_on_gadget_half_fixed_point():
    outcome = verify_even_period_lifting(build_gadget(3, RHO, Fraction(1, 10)))
    assert outcome.passed
    assert outcome.evidence["period"] == 2
    assert outcome.evidence["half_cycle_a"] == 1


def test_lifting_trivial_consensus_case():
    wave = build_traveling_wave(4, CYCLE4)
    degenerate = dataclasses.replace(wave, initial=(o("(xy)>z"),) * 4)
    outcome = verify_even_period_lifting(degenerate)
    assert not outcome.passed
    assert outcome.evidence["trivial_fixed_point"]


def test_lifting_rejects_non_bipartite_influence(scenario_dir):
    sc = load_scenario(scenario_dir / "consensus_triangle.json")
    outcome = verify_even_period_lifting(sc)
    assert not outcome.passed
    assert not outcome.evidence["hypothesis_met"]


# --- robustness ------------------------------------------------------------------------

@pytest.mark.parametrize(
    "sc,delta,eps_star,perturbable",
    [
        (build_traveling_wave(4, CYCLE4), "1", Fraction(1, 16), 0),
        (build_gadget(3, RHO, Fraction(1, 10)), "1/10", Fraction(1, 160), 2),
    ],
    ids=["wave", "gadget"],
)
def test_robustness_with_twenty_trials(sc, delta, eps_star, perturbable):
    # a copier's one-entry row keeps its weight 1, so the wave's trials all
    # run the base network
    outcome = verify_robustness(sc, trials=20, seed=7)
    assert outcome.passed
    assert outcome.evidence["delta"] == delta
    assert outcome.evidence["eps_star"] == eps_star
    assert outcome.evidence["perturbable_rows"] == perturbable
    assert outcome.evidence["divergence"] is None


@pytest.mark.parametrize("m", [3, 4, 6])
def test_a_robustness_check_builds_few_pair_tables(m):
    # each trial perturbs the gadget's weights to new row LCDs, so a new beta,
    # but a kernel's field is a power of two wide, so the trials share a few
    # of the process-wide (m, field) tables
    rho = enumerate_weak_orders(m)[0]
    assert rho.is_strict
    dynamics._pair_tables.cache_clear()
    assert verify_robustness(build_gadget(m, rho, Fraction(1, 10)), trials=20, seed=7).passed
    assert dynamics._pair_tables.cache_info().currsize <= 2


def test_a_trial_compiles_the_kernel_of_the_perturbed_network():
    """Networks of 2 to 6 nodes on m = 3 or 4 with weights k/total, k in 0..3,
    and one-entry rows, some perturbed before to row LCDs of order 10^6, any
    pins but one; eps 0, 10^-9 or 1/2..1/50.  A trial recompiles the base
    kernel's free rows from `_perturb_rows` after an update moved it: its
    rows, beta, listeners, totals and state are those of the kernel built on
    `perturb_weights`' network, whose rows are the reference formula's."""
    for case in range(300):
        rng = random.Random(case)
        m, n = rng.choice([3, 4]), rng.randint(2, 6)
        rows = []
        for i in range(n):
            raw = [rng.choice([0, 0, 1, 2, 3]) for _ in range(n)]
            if not any(raw) or rng.random() < 0.2:
                raw = [0] * n
                raw[rng.randrange(n)] = 1
            rows.append([Fraction(w, sum(raw)) for w in raw])
        net = influence_network(rows)
        if rng.random() < 0.3:
            net = perturb_weights(net, Fraction(1, 7), rng.randrange(10**6))
        initial = tuple(rng.choice(enumerate_weak_orders(m)) for _ in range(n))
        pc = PersistentConfig(pins={i: initial[i] for i in rng.sample(range(n), rng.randint(0, n - 1))})
        eps = rng.choice([Fraction(0), Fraction(1, 10**9), Fraction(1, rng.randint(2, 50))])
        seed = rng.randrange(10**6)
        graph = build_cover_graph(m)
        trial = dynamics._Kernel(net, graph, StepPolicy(), pc, initial)
        start = tuple(trial.state)
        trial.update(trial.free, True)
        perturbed = influence._perturb_rows(list(map(influence._row_over_lcd, net.rows, net.lcds)), eps, seed)
        trial.compile({i: perturbed[i] for i in trial.free}, start)
        network = perturb_weights(net, eps, seed)
        assert network.rows == reference.perturb_weights(net, eps, seed).rows
        fresh = dynamics._Kernel(network, graph, StepPolicy(), pc, initial)
        assert trial.rows == fresh.rows, case
        assert (trial.beta, trial.listeners, trial.totals, trial.state) == (
            fresh.beta, fresh.listeners, fresh.totals, fresh.state), case


def test_a_robustness_check_builds_no_network(monkeypatch):
    sc = build_gadget(4, parse_order("x>y>z>u", 4), Fraction(1, 10))
    built = []
    post_init = InfluenceNetwork.__post_init__
    monkeypatch.setattr(InfluenceNetwork, "__post_init__", lambda net: built.append(net) or post_init(net))
    outcome = verify_robustness(sc, trials=20, seed=7)
    assert outcome.passed and outcome.evidence["perturbable_rows"] == 2
    assert built == []
    perturb_weights(sc.network, Fraction(1, 480), seed=7)  # the count sees a network built
    assert len(built) == 1


def test_no_kernel_build_or_trial_computes_a_row_lcd(monkeypatch):
    # the networks are built, so their LCDs kept, before lcm is taken away
    sc = build_gadget(4, parse_order("x>y>z>u", 4), Fraction(1, 10))
    net = perturb_weights(sc.network, Fraction(1, 7), seed=3)

    def forbidden(*args):
        raise AssertionError("a row LCD was computed")

    monkeypatch.setattr(influence, "lcm", forbidden)
    kernel = dynamics._Kernel(net, build_cover_graph(4), StepPolicy(), sc.persistent, sc.initial)
    perturbed = influence._perturb_rows(list(map(influence._row_over_lcd, net.rows, net.lcds)), Fraction(1, 480), 7)
    kernel.compile({i: perturbed[i] for i in kernel.free}, kernel.state)
    kernel.run(sc.schedule, sc.max_steps)
    assert verify_robustness(sc, trials=5, seed=7).passed
    with pytest.raises(AssertionError, match="row LCD"):
        influence_network([["1/2", "1/2"], [0, 1]])  # validation still computes one


def test_oversized_perturbation_is_allowed_to_diverge():
    # margin bound ignored on purpose: the eps=2/5 gadget orbit has a fragile
    # score gap and a quarter-sized perturbation flips it (seed 0, frozen)
    sc = build_gadget(3, RHO, Fraction(2, 5))
    base = sc.run()
    perturbed = perturb_weights(sc.network, Fraction(1, 4), seed=0)
    report = run_until_cycle(
        perturbed, G3, sc.policy, sc.persistent, sc.initial, sc.schedule
    )
    assert report.prefix != base.prefix


def test_robustness_not_certifiable_without_active_hyperplane():
    # consensus at the all-tied order: no orbit score separates anything
    net = seeded_random_network(3, 4)
    sc = ScenarioConfig(
        m=3,
        network=net,
        persistent=PersistentConfig(),
        initial=(o("(xyz)"),) * 3,
        schedule=Schedule.synchronous(),
        label="all_tied_consensus",
    )
    outcome = verify_robustness(sc, trials=5, seed=0)
    assert not outcome.passed
    assert not outcome.evidence["hypothesis_met"]


def random_robustness_case(seed):
    """A scenario with 2 to 5 nodes, m = 3 (m = 4 one time in four), weights
    k/total with k in 0..3, random pins, schedule and step policy, and a
    robustness call of 1 to 8 trials."""
    rng = random.Random(seed)
    m = 4 if rng.random() < 0.25 else 3
    n = rng.randint(2, 5)
    rows = []
    for i in range(n):
        raw = [rng.choice([0, 0, 1, 2, 3]) for _ in range(n)]
        if not any(raw):
            raw[(i + 1) % n] = 1
        rows.append([Fraction(w, sum(raw)) for w in raw])
    space = enumerate_weak_orders(m)
    initial = tuple(rng.choice(space) for _ in range(n))
    pins = {i: initial[i] for i in rng.sample(range(n), rng.randint(0, n - 1))}
    free = [i for i in range(n) if i not in pins]
    kind = ("synchronous", "sequence", "uniform")[seed % 3]
    if kind == "synchronous":
        schedule = Schedule.synchronous()
    elif kind == "sequence":
        schedule = Schedule.sequence(rng.choice(free) for _ in range(rng.randint(1, 6)))
    else:
        schedule = Schedule.uniform(rng.randrange(2**31))
    sc = ScenarioConfig(m, influence_network(rows), PersistentConfig(pins=pins), initial, schedule,
                        StepPolicy(allow_no_move_on_ambiguity=rng.random() < 0.5),
                        label=f"case_{seed}", max_steps=200)
    return sc, rng.randint(1, 8), rng.randrange(10**6)


def test_robustness_evidence_equals_running_every_trial_in_full():
    # each trial runs in ids on the kernel; the evidence must be that of the
    # loop that runs every trial on the Fraction path and compares its orders
    kinds = Counter()
    for case in range(240):
        sc, trials, seed = random_robustness_case(case)
        try:
            expected = reference.robustness_evidence(sc, trials, seed)
        except reference.BudgetExceeded:
            with pytest.raises(BudgetExceededError):
                verify_robustness(sc, trials, seed)
            continue
        outcome = verify_robustness(sc, trials, seed)
        if expected is None:
            assert not outcome.passed and not outcome.evidence["hypothesis_met"]
            continue
        assert outcome.evidence == expected, case
        assert outcome.passed == (expected["divergence"] is None)
        divergence = expected["divergence"]
        kinds["held" if divergence is None else type(divergence["first_divergence_step"]).__name__] += 1
    # trials that hold, diverge in state (an int step) and diverge in the target log only
    assert min(kinds["held"], kinds["int"], kinds["str"]) >= 10, kinds


@pytest.mark.parametrize("held", [0, 1, 4])
def test_trials_that_hold_are_passed_over_until_one_diverges(monkeypatch, held):
    # i hears the antipodal pins at 1/2 each, so every true perturbation breaks
    # its three-way tie at step 0; k copies a pin, which makes the margin 1.
    # The first `held` trials keep the weights, so they hold
    net = influence_network([[0, 0, "1/2", "1/2"], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    sc = ScenarioConfig(3, net, PersistentConfig(pins={2: o("x>y>z"), 3: o("z>y>x")}),
                        (o("z>y>x"), o("z>y>x"), o("x>y>z"), o("z>y>x")), Schedule.synchronous(), label="tie")
    perturb = verifiers._perturb_rows
    monkeypatch.setattr(verifiers, "_perturb_rows",
                        lambda rows, eps, seed: rows if seed < 100 + held else perturb(rows, eps, seed))
    outcome = verify_robustness(sc, trials=held + 2, seed=100)
    assert outcome.evidence["hypothesis_met"]
    assert outcome.evidence["divergence"]["trial"] == held


@pytest.mark.xfail(strict=True, reason=(
    "the margin skips a tie by cancellation: i ties all three alternatives, so a perturbation "
    "that breaks the cancellation moves its target, yet min_margin reads 1 and the hypothesis is met"))
def test_robustness_claim_holds_when_its_hypothesis_is_met_across_a_cancellation_tie():
    # i hears the antipodal pins at 1/2 each; k copies the pin x>y>z
    net = influence_network([[0, 0, "1/2", "1/2"], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                            ["i", "k", "p", "q"])
    sc = ScenarioConfig(
        m=3,
        network=net,
        persistent=PersistentConfig(pins={2: o("x>y>z"), 3: o("z>y>x")}),
        initial=(o("z>y>x"), o("z>y>x"), o("x>y>z"), o("z>y>x")),
        schedule=Schedule.synchronous(),
        label="cancellation_tie",
    )
    outcome = verify_robustness(sc, trials=20, seed=0)
    assert not outcome.evidence["hypothesis_met"] or outcome.passed


# --- unreachable persistence ---------------------------------------------------------------

def test_unreachable_persistence_on_bundled_scenario(scenario_dir):
    sc = load_scenario(scenario_dir / "unreachable_pins.json")
    outcome = verify_unreachable_persistence(sc, {0: o("(xyz)")})
    assert outcome.passed
    assert outcome.evidence["unreached_free"] == ["c", "d"]
    assert outcome.evidence["first_mismatch"] is None


def test_unreachable_persistence_hypothesis_not_met(scenario_dir):
    sc = load_scenario(scenario_dir / "star_frozen.json")
    outcome = verify_unreachable_persistence(sc, {0: o("(xyz)")})
    assert not outcome.passed
    assert not outcome.evidence["hypothesis_met"]


def test_unreachable_persistence_rejects_non_pinned_targets(scenario_dir):
    sc = load_scenario(scenario_dir / "unreachable_pins.json")
    with pytest.raises(ScenarioBuildError, match=r"^nodes \[1\] are not pinned in the base scenario$"):
        verify_unreachable_persistence(sc, {1: o("(xyz)")})


@pytest.mark.parametrize("alt_pins", [{}, {0: o("x>y>z")}], ids=["empty", "own-pin"])
def test_re_pinning_that_gives_no_new_order_is_hypothesis_not_met(scenario_dir, alt_pins):
    # the twin would be the base run, so the comparison would pass vacuously
    sc = load_scenario(scenario_dir / "unreachable_pins.json")
    outcome = verify_unreachable_persistence(sc, alt_pins)
    assert not outcome.passed
    assert outcome.evidence == {"hypothesis_met": False, "reason": "alt_pins gives no pinned node a new order"}


# --- one kernel per verifier call ------------------------------------------------------------

@pytest.mark.parametrize("lazy", [False, True], ids=["default", "no-move-on-ambiguity"])
def test_a_restart_runs_as_a_kernel_built_at_its_start(lazy):
    """Every free start of the m = 3 gadget at eps = 1/10, restarted on one
    kernel after a run that ended at another state, gives the states, mu,
    target logs and final totals of a kernel built at that start."""
    sc = dataclasses.replace(build_gadget(3, RHO, Fraction(1, 10)), policy=StepPolicy(allow_no_move_on_ambiguity=lazy))
    kernel = verifiers._kernel(sc)
    pins = tuple(kernel.state[2:])
    starts = [free + pins for free in product(range(G3.order_count), repeat=2)]
    decoys = iter(starts[::-1])
    for start in starts:
        while tuple(kernel.state) == start:  # the last run ended at this start: run elsewhere first
            kernel.compile(kernel.rows, next(decoys))
            kernel.run(sc.schedule, sc.max_steps)
        kernel.compile(kernel.rows, start)
        fresh = dynamics._Kernel(sc.network, G3, sc.policy, sc.persistent, tuple(G3.orders[k] for k in start))
        assert kernel.run(sc.schedule, sc.max_steps) == fresh.run(sc.schedule, sc.max_steps)
        assert kernel.totals == fresh.totals


def test_the_re_pinned_twin_is_the_run_of_a_kernel_built_with_the_new_pins(monkeypatch, scenario_dir):
    # the verifier's two reports, caught as `_Kernel.report` returns them
    sc = load_scenario(scenario_dir / "unreachable_pins.json")
    alt_pins = {0: o("(xyz)")}
    expected = []
    for pins in (sc.persistent.pins, {**sc.persistent.pins, **alt_pins}):
        start = tuple(pins.get(i, w) for i, w in enumerate(sc.initial))
        fresh = dynamics._Kernel(sc.network, G3, sc.policy, PersistentConfig(pins), start)
        expected.append(fresh.report(*fresh.run(sc.schedule, sc.max_steps)))
    assert expected[0].orbit[0] != expected[1].prefix[0]  # the restart follows a run that ended elsewhere
    reports = []
    report = dynamics._Kernel.report
    monkeypatch.setattr(dynamics._Kernel, "report", lambda kernel, *args: reports.append(report(kernel, *args)) or reports[-1])
    assert verify_unreachable_persistence(sc, alt_pins).passed
    assert reports == expected


KERNEL_BUILDS = {
    # 170 starts on one kernel, and `enumerate_fixed_points`' own
    "forced-sweep": (lambda d: verify_forced_even_period(build_gadget(3, RHO, Fraction(9, 10))), 2),
    "unreachable": (lambda d: verify_unreachable_persistence(load_scenario(d / "unreachable_pins.json"),
                                                             {0: o("(xyz)")}), 1),
    "robustness": (lambda d: verify_robustness(build_gadget(3, RHO, Fraction(1, 10)), trials=20, seed=7), 1),
}


@pytest.mark.parametrize("call, builds", KERNEL_BUILDS.values(), ids=KERNEL_BUILDS.keys())
def test_a_verifier_that_runs_again_builds_one_kernel(monkeypatch, scenario_dir, call, builds):
    built = []
    init = dynamics._Kernel.__init__
    monkeypatch.setattr(dynamics._Kernel, "__init__", lambda kernel, *args: built.append(args) or init(kernel, *args))
    outcome = call(scenario_dir)
    assert outcome.evidence["hypothesis_met"]
    if "initial_profiles_tried" in outcome.evidence:
        assert outcome.evidence["initial_profiles_tried"] == 1 + 13**2  # the whole sweep ran
    assert len(built) == builds


# --- single-peaked domain ----------------------------------------------------------------------

def test_single_peaked_membership_examples():
    axis = (0, 1, 2)
    assert is_single_peaked(o("y>x>z"), axis)
    assert not is_single_peaked(o("x>z>y"), axis)
    assert is_single_peaked(o("(xy)>z"), axis)
    assert not is_single_peaked(o("x>(yz)"), axis)  # plateau off the peak


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_single_peaked_matches_the_position_and_rank_oracle(m):
    for axis in permutations(range(m)):
        for w in enumerate_weak_orders(m):
            assert is_single_peaked(w, axis) == reference.is_single_peaked(w, axis), (format_order(w), axis)


def test_single_peaked_invariance_refuses_an_axis_that_is_not_a_permutation(scenario_dir):
    sc = load_scenario(scenario_dir / "consensus_triangle.json")
    with pytest.raises(ScenarioBuildError, match="permutation"):
        verify_single_peaked_invariance(sc, (0, 1))


def test_single_peaked_enumeration_regression():
    names = [format_order(w) for w in enumerate_single_peaked(3, (0, 1, 2))]
    assert names == [
        "x>y>z", "(xy)>z", "(xyz)", "(xz)>y", "y>x>z",
        "y>(xz)", "y>z>x", "(yz)>x", "z>y>x",
    ]
    with pytest.raises(ValueError):
        enumerate_single_peaked(3, (0, 1, 1))


def test_single_peaked_invariance_on_consensus(scenario_dir):
    sc = load_scenario(scenario_dir / "consensus_triangle.json")
    outcome = verify_single_peaked_invariance(sc, (0, 1, 2))
    assert outcome.passed


def test_single_peaked_invariance_counterexample():
    # the bounded step from the all-tied order toward x>y>z passes through
    # x>(yz), which leaves the single-peaked domain although the target is in it
    net = influence_network([["1", "0"], ["1", "0"]], ["hub", "leaf"])
    sc = ScenarioConfig(
        m=3,
        network=net,
        persistent=PersistentConfig(pins={0: RHO}),
        initial=(RHO, o("(xyz)")),
        schedule=Schedule.synchronous(),
        label="sp_counterexample",
    )
    outcome = verify_single_peaked_invariance(sc, (0, 1, 2))
    assert not outcome.passed
    assert outcome.evidence["hypothesis_met"]  # all targets stayed single-peaked
    violation = outcome.evidence["first_state_violation"]
    assert violation["step"] == 1
    assert violation["node"] == "leaf"
    assert violation["state"] == "x>(yz)"


def test_single_peaked_invariance_rejects_bad_initial():
    net = influence_network([["1", "0"], ["1", "0"]], ["hub", "leaf"])
    sc = ScenarioConfig(
        m=3,
        network=net,
        persistent=PersistentConfig(pins={0: RHO}),
        initial=(RHO, o("x>z>y")),
        schedule=Schedule.synchronous(),
        label="bad_start",
    )
    with pytest.raises(ValueError):
        verify_single_peaked_invariance(sc, (0, 1, 2))


def test_single_peaked_seeded_trials_tally():
    # the invariance can genuinely fail; tally outcomes and sanity-check shapes
    axis = (0, 1, 2)
    domain = enumerate_single_peaked(3, axis)
    tally = {"pass": 0, "target_violation": 0, "state_violation": 0}
    for trial in range(50):
        rng = random.Random(1000 + trial)
        n = rng.randint(2, 5)
        net = seeded_random_network(n, seed=rng.randint(0, 2**31))
        sc = ScenarioConfig(
            m=3,
            network=net,
            persistent=PersistentConfig(),
            initial=tuple(rng.choice(domain) for _ in range(n)),
            schedule=Schedule.synchronous(),
            label=f"sp_trial_{trial}",
        )
        outcome = verify_single_peaked_invariance(sc, axis)
        if outcome.passed:
            tally["pass"] += 1
        elif not outcome.evidence["hypothesis_met"]:
            tally["target_violation"] += 1
            assert outcome.evidence["first_target_violation"] is not None
        else:
            tally["state_violation"] += 1
            assert outcome.evidence["first_state_violation"] is not None
    assert sum(tally.values()) == 50
    assert tally["pass"] > 0


# --- suites ---------------------------------------------------------------------------------------

def test_default_suite_all_pass(scenario_dir):
    entries = load_suite(scenario_dir / "suite_default.json")
    assert len(entries) == 10
    results, all_matched = run_suite(entries)
    assert all_matched
    assert all(r["passed"] for r in results)


def test_controls_suite_fails_as_expected(scenario_dir):
    entries = load_suite(scenario_dir / "suite_controls.json")
    results, all_matched = run_suite(entries)
    assert all_matched
    assert all(not r["passed"] for r in results)
    assert all(r["matched_expectation"] for r in results)


def test_suite_rejects_duplicate_labels(tmp_path, scenario_dir):
    manifest = {
        "entries": [
            {"label": "a", "verifier": "traveling_wave",
             "scenario": str(scenario_dir / "traveling_wave_4.json"),
             "args": {"expected_k": 4}},
            {"label": "a", "verifier": "traveling_wave",
             "scenario": str(scenario_dir / "traveling_wave_4.json"),
             "args": {"expected_k": 4}},
        ]
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ScenarioFormatError):
        load_suite(path)


def test_suite_reads_integer_args_of_a_wrapped_verifier(tmp_path, monkeypatch, scenario_dir):
    # a wrapper without functools.wraps exposes no annotations, and the
    # argument must still be read as an integer at load time
    original = verifiers.VERIFIERS["robustness"]
    monkeypatch.setitem(verifiers.VERIFIERS, "robustness", lambda *args, **kwargs: original(*args, **kwargs))
    manifest = {"entries": [{"verifier": "robustness", "scenario": str(scenario_dir / "gadget.json"),
                             "args": {"trials": "20", "seed": 7}}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ScenarioFormatError) as info:
        load_suite(path)
    assert info.value.path == "entries[0].args.trials"


@pytest.mark.parametrize("args", [{"expected_k": 4, "bogus": 1}, {}], ids=["unknown-arg", "missing-arg"])
def test_suite_binds_args_to_the_signature_of_a_wrapped_verifier(tmp_path, monkeypatch, scenario_dir, args):
    # a wrapper without functools.wraps has the signature (*args, **kwargs),
    # which would bind any names: args must still bind as the verifier's own
    original = verifiers.VERIFIERS["traveling_wave"]
    monkeypatch.setitem(verifiers.VERIFIERS, "traveling_wave", lambda *a, **k: original(*a, **k))
    manifest = {"entries": [{"verifier": "traveling_wave", "args": args,
                             "scenario": str(scenario_dir / "traveling_wave_4.json")}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ScenarioFormatError) as info:
        load_suite(path)
    assert info.value.path == "entries[0].args"


def test_suite_rejects_unknown_verifier(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": [{"label": "x", "verifier": "nope", "scenario": {}}]}))
    with pytest.raises(ScenarioFormatError):
        load_suite(path)
