import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from borda_dynamics.dynamics import (
    Camps,
    PersistentConfig,
    Schedule,
    aggregate_scores,
    enumerate_fixed_points,
    is_fixed_point,
    run_until_cycle,
    step_async,
    step_sync,
    target,
)
from borda_dynamics import dynamics, move_graph, weak_orders
from borda_dynamics.errors import BudgetExceededError, ScheduleError
from borda_dynamics.influence import influence_network, perturb_weights, seeded_random_network
from borda_dynamics.move_graph import StepPolicy, build_cover_graph, distance, find_cycle, geodesic_unique
from borda_dynamics.move_graph import step as graph_step
from borda_dynamics.scenarios import build_gadget, build_traveling_wave, load_scenario
from borda_dynamics.weak_orders import (
    antipode,
    enumerate_weak_orders,
    margin_from_ties,
    parse_order,
    project,
)

G3 = build_cover_graph(3)
POLICY = StepPolicy()
FREE = PersistentConfig.none()
SPACE3 = enumerate_weak_orders(3)
CYCLE4 = find_cycle(G3, 4)


def o(text, m=3):
    return parse_order(text, m)


def uniform_net(n):
    rows = [[Fraction(1, n)] * n for _ in range(n)]
    return influence_network(rows)


def random_profile(rng, n, m=3):
    space = enumerate_weak_orders(m)
    return tuple(rng.choice(space) for _ in range(n))


# --- aggregation and targets ---------------------------------------------------

def test_aggregate_unanimity():
    net = uniform_net(3)
    w = o("x>(yz)")
    profile = (w, w, w)
    from borda_dynamics.weak_orders import borda_scores

    assert aggregate_scores(net, profile, 0) == borda_scores(w)
    assert target(net, profile, 1) == w


def test_aggregate_antipodal_half_mix_is_all_tied():
    net = influence_network([["1/2", "1/2"], ["1/2", "1/2"]])
    profile = (o("x>y>z"), o("z>y>x"))
    assert aggregate_scores(net, profile, 0) == (1, 1, 1)
    assert target(net, profile, 0) == o("(xyz)")


def test_aggregate_three_quarter_mix():
    net = influence_network([["3/4", "1/4"], ["3/4", "1/4"]])
    profile = (o("x>y>z"), o("z>y>x"))
    assert aggregate_scores(net, profile, 0) == (Fraction(3, 2), 1, Fraction(1, 2))
    assert target(net, profile, 0) == o("x>y>z")


def test_aggregate_scores_sum_preserved():
    rng = random.Random(9)
    net = seeded_random_network(4, 9)
    profile = random_profile(rng, 4)
    for i in range(4):
        assert sum(aggregate_scores(net, profile, i)) == 3


# --- single steps -----------------------------------------------------------------

def test_step_sync_fixes_consensus():
    net = seeded_random_network(5, 3)
    for w in SPACE3:
        profile = (w,) * 5
        assert step_sync(net, G3, POLICY, FREE, profile) == profile


def test_step_sync_moves_one_unit_toward_target():
    net = influence_network([["0", "1"], ["0", "1"]])  # both copy node 1
    profile = (o("x>y>z"), o("z>y>x"))
    before = distance(G3, profile[0], o("z>y>x"))
    after_profile = step_sync(net, G3, POLICY, FREE, profile)
    assert distance(G3, after_profile[0], o("z>y>x")) == before - 1
    assert after_profile[1] == o("z>y>x")


def test_step_sync_keeps_pins():
    net = influence_network([["0", "1"], ["1", "0"]])
    pc = PersistentConfig(pins={1: o("z>y>x")})
    profile = (o("x>y>z"), o("z>y>x"))
    out = step_sync(net, G3, POLICY, pc, profile)
    assert out[1] == o("z>y>x")
    assert out[0] != profile[0]


def test_step_async_changes_one_coordinate():
    net = influence_network([["0", "1"], ["1", "0"]])
    profile = (o("x>y>z"), o("z>y>x"))
    out = step_async(net, G3, POLICY, FREE, profile, 0)
    assert out[1] == profile[1]
    assert out[0] == graph_step(POLICY, G3, profile[0], o("z>y>x"))


def test_step_async_at_target_is_identity():
    net = uniform_net(2)
    profile = (o("(xyz)"), o("(xyz)"))
    assert step_async(net, G3, POLICY, FREE, profile, 0) == profile


def test_step_async_rejects_pinned_node():
    net = uniform_net(2)
    pc = PersistentConfig(pins={0: o("(xyz)")})
    with pytest.raises(ScheduleError):
        step_async(net, G3, POLICY, pc, (o("(xyz)"), o("x>y>z")), 0)


# --- runs ------------------------------------------------------------------------------

def test_consensus_run_is_immediately_fixed():
    net = seeded_random_network(4, 11)
    profile = (o("y>(xz)"),) * 4
    report = run_until_cycle(net, G3, POLICY, FREE, profile, Schedule.synchronous())
    assert (report.mu, report.period) == (0, 1)
    assert report.orbit == (profile,)


def test_run_validates_pins():
    net = uniform_net(2)
    pc = PersistentConfig(pins={0: o("x>y>z")})
    with pytest.raises(ValueError):
        run_until_cycle(net, G3, POLICY, pc, (o("(xyz)"), o("x>y>z")), Schedule.synchronous())


def test_run_budget_error_on_tiny_max_steps():
    net = influence_network([["0", "1"], ["1", "0"]])
    profile = (o("x>y>z"), o("z>y>x"))
    with pytest.raises(BudgetExceededError):
        run_until_cycle(net, G3, POLICY, FREE, profile, Schedule.synchronous(), max_steps=1)


def assert_orbit_closed(net, pc, report, policy=POLICY, graph=G3):
    # re-simulate one lap and compare against the reported orbit
    for t in range(report.period):
        nxt = step_sync(net, graph, policy, pc, report.orbit[t])
        assert nxt == report.orbit[(t + 1) % report.period]


@pytest.mark.parametrize("seed", range(12))
def test_random_synchronous_runs_close_their_orbits(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    net = seeded_random_network(n, seed)
    report = run_until_cycle(
        net, G3, POLICY, FREE, random_profile(rng, n), Schedule.synchronous()
    )
    assert_orbit_closed(net, FREE, report)
    # mu is minimal: the state just before the orbit is not on it
    if report.mu > 0:
        assert report.prefix[report.mu - 1] not in report.orbit


def test_sequence_schedule_runs_as_super_steps():
    net = influence_network([["0", "1"], ["1", "0"]])
    profile = (o("x>y>z"), o("z>y>x"))
    report = run_until_cycle(
        net, G3, POLICY, FREE, profile, Schedule.sequence([0, 1, 0]), max_steps=100
    )
    assert report.period >= 1
    assert all(len(log) == 3 for log in report.target_log)


def test_sequence_schedule_reads_interleaved_state():
    # two mutual copiers: node 1 copies node 0 as node 0's update in the same
    # super-step left it, not as the step began
    net = influence_network([["0", "1"], ["1", "0"]])
    profile = (o("x>y>z"), o("z>y>x"))
    report = run_until_cycle(
        net, G3, POLICY, FREE, profile, Schedule.sequence([0, 1]), max_steps=100
    )
    moved = graph_step(POLICY, G3, profile[0], profile[1])
    assert moved != profile[0]
    assert report.target_log[0] == ((0, profile[1]), (1, moved))
    for t, log in enumerate(report.target_log):
        assert log[1] == (1, report.state_at(t + 1)[0])


def test_sequence_schedule_rejects_pinned_nodes():
    net = uniform_net(2)
    pc = PersistentConfig(pins={1: o("(xyz)")})
    with pytest.raises(ScheduleError):
        run_until_cycle(
            net, G3, POLICY, pc, (o("(xyz)"), o("(xyz)")), Schedule.sequence([1])
        )


def test_uniform_schedule_stops_at_fixed_point():
    net = influence_network([["0", "1"], ["1", "0"]])
    # both nodes copy each other; start at consensus so the run is fixed at once
    profile = (o("x>y>z"), o("x>y>z"))
    report = run_until_cycle(net, G3, POLICY, FREE, profile, Schedule.uniform(0))
    assert (report.mu, report.period) == (0, 1)


def test_uniform_schedule_budget_error():
    net = influence_network([["0", "1"], ["1", "0"]])
    profile = (o("x>y>z"), o("z>y>x"))
    with pytest.raises(BudgetExceededError):
        run_until_cycle(net, G3, POLICY, FREE, profile, Schedule.uniform(1), max_steps=2)


# --- frozen targets --------------------------------------------------------------------

def frozen_target_star(leaf_states, hub_order="x>y>z"):
    n = len(leaf_states) + 1
    rows = [["0"] * n for _ in range(n)]
    rows[0][0] = "1"
    for leaf in range(1, n):
        rows[leaf][0] = "1"
    net = influence_network(rows)
    pc = PersistentConfig(pins={0: o(hub_order)})
    initial = (o(hub_order), *(o(t) for t in leaf_states))
    return net, pc, initial


def test_frozen_targets_drive_monotone_stabilization():
    net, pc, initial = frozen_target_star(["z>y>x", "(xyz)", "y>(xz)"])
    report = run_until_cycle(net, G3, POLICY, pc, initial, Schedule.synchronous())
    hub = o("x>y>z")
    assert report.period == 1
    assert report.orbit[0] == (hub, hub, hub, hub)
    for leaf in range(1, 4):
        start = distance(G3, initial[leaf], hub)
        distances = [
            distance(G3, report.state_at(t)[leaf], hub) for t in range(report.mu + 1)
        ]
        assert distances == sorted(distances, reverse=True)
        assert distances[0] == start and distances[start] == 0
    assert report.mu <= G3.diameter


def test_frozen_targets_log_is_constant():
    net, pc, initial = frozen_target_star(["z>y>x", "(xyz)"])
    report = run_until_cycle(net, G3, POLICY, pc, initial, Schedule.synchronous())
    for log in report.target_log:
        assert all(tau == o("x>y>z") for _, tau in log)


# --- alternating targets ---------------------------------------------------------------

def alternating_target_orbit(graph, start, beta, gamma, steps=40):
    state = start
    history = [state]
    for t in range(steps):
        state = graph_step(POLICY, graph, state, beta if t % 2 == 0 else gamma)
        history.append(state)
    return history


def test_alternating_targets_with_unique_geodesic_force_period_two():
    pairs = [
        (a, b)
        for a in SPACE3
        for b in SPACE3
        if a != b and geodesic_unique(G3, a, b)
    ]
    assert pairs, "need at least one unique-geodesic pair"
    for beta, gamma in pairs[:40]:
        for start in (beta, gamma, o("(xyz)")):
            history = alternating_target_orbit(G3, start, beta, gamma)
            tail = history[-8:]
            assert tail[0] != tail[1]
            assert all(tail[i] == tail[i + 2] for i in range(len(tail) - 2))


# --- bipartite target decoupling ----------------------------------------------------------

def test_targets_depend_only_on_opposite_side_of_a_cut():
    # directed 4-ring: arcs cross the {0,2} | {1,3} cut
    rows = [["0"] * 4 for _ in range(4)]
    for i in range(4):
        rows[i][(i - 1) % 4] = "1"
    net = influence_network(rows)
    rng = random.Random(5)
    profile = random_profile(rng, 4)
    scrambled = list(profile)
    scrambled[0] = rng.choice(SPACE3)
    scrambled[2] = rng.choice(SPACE3)
    scrambled = tuple(scrambled)
    for i in (0, 2):  # targets of side A are unchanged when side A is scrambled
        assert target(net, profile, i) == target(net, scrambled, i)


# --- unreachable persistence ----------------------------------------------------------------

def test_unreachable_nodes_ignore_pin_changes():
    rows = [
        ["1", "0", "0", "0"],
        ["1/2", "1/2", "0", "0"],
        ["0", "0", "0", "1"],
        ["0", "0", "1", "0"],
    ]
    net = influence_network(rows)
    initial = (o("x>y>z"), o("(xyz)"), o("x>z>y"), o("z>(xy)"))
    runs = []
    for pin in ("x>y>z", "(xyz)"):
        pc = PersistentConfig(pins={0: o(pin)})
        start = (o(pin),) + initial[1:]
        runs.append(run_until_cycle(net, G3, POLICY, pc, start, Schedule.synchronous()))
    horizon = max(r.mu + r.period for r in runs)
    for t in range(horizon + 1):
        state_a, state_b = runs[0].state_at(t), runs[1].state_at(t)
        assert state_a[2] == state_b[2]
        assert state_a[3] == state_b[3]


# --- fixed points -------------------------------------------------------------------------------

def test_is_fixed_point_on_consensus():
    net = seeded_random_network(4, 21)
    profile = (o("(xy)>z"),) * 4
    assert is_fixed_point(net, FREE, profile)
    assert step_sync(net, G3, POLICY, FREE, profile) == profile


def test_is_fixed_point_false_when_any_target_differs():
    net = influence_network([["0", "1"], ["1", "0"]])
    assert not is_fixed_point(net, FREE, (o("x>y>z"), o("z>y>x")))


def test_enumerate_fixed_points_contains_all_consensus_profiles():
    net = seeded_random_network(3, 2)
    fixed = enumerate_fixed_points(net, G3, POLICY, FREE)
    found = {p for p in fixed}
    for w in SPACE3:
        assert (w, w, w) in found
    assert len(fixed) >= 13


def test_single_dominated_node_has_exactly_one_fixed_point():
    net = influence_network([["0", "1"], ["0", "1"]])
    pc = PersistentConfig(pins={1: o("x>(yz)")})
    fixed = enumerate_fixed_points(net, G3, POLICY, pc)
    assert fixed == [(o("x>(yz)"), o("x>(yz)"))]


def test_enumerate_fixed_points_budget():
    net = seeded_random_network(3, 2)
    with pytest.raises(BudgetExceededError):
        enumerate_fixed_points(net, G3, POLICY, FREE, budget=100)


def test_enumerate_fixed_points_budget_counts_the_unpruned_levels():
    # one free node, checked on level 0: its 13 orders are the whole search
    net = influence_network([["0", "1"], ["0", "1"]])
    pc = PersistentConfig(pins={1: o("x>(yz)")})
    assert enumerate_fixed_points(net, G3, POLICY, pc, budget=13) == [(o("x>(yz)"), o("x>(yz)"))]
    with pytest.raises(BudgetExceededError):
        enumerate_fixed_points(net, G3, POLICY, pc, budget=12)


def test_enumerate_fixed_points_refuses_before_searching_past_its_budget(monkeypatch):
    # every node hears every node, so nothing is checked before the last of
    # six levels: 13 + 13**2 + ... + 13**6 partial profiles exceed the default
    # budget, and the search is refused before any of them is tried
    checked = []
    settled = dynamics._Kernel.settled

    def counted(self, i):
        checked.append(i)
        return settled(self, i)

    monkeypatch.setattr(dynamics._Kernel, "settled", counted)
    with pytest.raises(BudgetExceededError, match="^more than 1000000 partial profiles tried$"):
        enumerate_fixed_points(uniform_net(6), G3, POLICY, FREE)
    assert checked == []


def brute_force_fixed_points(net, graph, policy, pc):
    """Reference: every assignment of the free nodes, in itertools.product
    order, kept when one synchronous step leaves it unchanged."""
    free = pc.free_nodes(net.n)
    found = []
    for combo in product(enumerate_weak_orders(graph.m), repeat=len(free)):
        profile = [pc.pins.get(i) for i in range(net.n)]
        for node, order in zip(free, combo):
            profile[node] = order
        candidate = tuple(profile)
        if step_sync(net, graph, policy, pc, candidate) == candidate:
            found.append(candidate)
    return found


#: most free nodes per alternative count that keeps the reference at <= 243 profiles
MAX_FREE = {2: 5, 3: 2, 4: 1}


@st.composite
def fixed_point_cases(draw):
    m = draw(st.integers(2, 4))
    n_free = draw(st.integers(0, MAX_FREE[m]))
    n = draw(st.integers(max(n_free, 1), 5))
    rows = []
    for i in range(n):
        raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if not any(raw):
            raw[i] = 1
        rows.append([Fraction(w, sum(raw)) for w in raw])
    free = draw(st.permutations(range(n)))[:n_free]
    space = enumerate_weak_orders(m)
    pins = {i: draw(st.sampled_from(space)) for i in range(n) if i not in free}
    policy = StepPolicy(allow_no_move_on_ambiguity=draw(st.booleans()))
    return influence_network(rows), m, PersistentConfig(pins=pins), policy


GADGET = build_gadget(3, o("x>y>z"), Fraction(1, 10))
#: the m = 3 gadget under no-move-on-ambiguity, whose fixed profiles include stalls
GADGET_STALL_CASE = (GADGET.network, 3, GADGET.persistent, StepPolicy(allow_no_move_on_ambiguity=True))


@given(fixed_point_cases())
@example(GADGET_STALL_CASE)
@settings(deadline=None, max_examples=150)
def test_fixed_point_search_matches_brute_force(case):
    net, m, pc, policy = case
    graph = build_cover_graph(m)
    fixed = enumerate_fixed_points(net, graph, policy, pc)
    assert fixed == brute_force_fixed_points(net, graph, policy, pc)
    # a uniform run started at a fixed profile stops there at once
    if pc.free_nodes(net.n):
        for profile in fixed:
            report = run_until_cycle(net, graph, policy, pc, profile, Schedule.uniform(0), max_steps=1)
            assert (report.mu, report.period) == (0, 1)


@pytest.mark.parametrize("ell", [8, 12])
def test_copier_ring_fixed_points_are_the_consensus_profiles(ell):
    net = build_traveling_wave(ell, CYCLE4).network
    assert enumerate_fixed_points(net, G3, POLICY, FREE) == [(w,) * ell for w in SPACE3]


def test_m4_gadget_fixed_points_are_the_strict_consensus_pairs():
    rho = parse_order("x>y>z>u", 4)
    sc = build_gadget(4, rho, Fraction(1, 10))
    fixed = enumerate_fixed_points(sc.network, build_cover_graph(4), sc.policy, sc.persistent)
    strict = [w for w in enumerate_weak_orders(4) if w.is_strict]
    assert fixed == [(w, w, rho, antipode(rho)) for w in strict]
    assert len(fixed) == 24


def kernel_events(monkeypatch):
    """Patch `_Kernel.write` and `_Kernel.aggregate` to log, in call order,
    ("write", node) per move and ("aggregate", node) per target recomputation
    (an aggregate read from the kernel's own state)."""
    events = []
    write, aggregate = dynamics._Kernel.write, dynamics._Kernel.aggregate

    def logged_write(self, moves):
        moves = list(moves)
        events.extend(("write", i) for i, _ in moves)
        write(self, moves)

    def logged_aggregate(self, state, i):
        if state is self.state:
            events.append(("aggregate", i))
        return aggregate(self, state, i)

    monkeypatch.setattr(dynamics._Kernel, "write", logged_write)
    monkeypatch.setattr(dynamics._Kernel, "aggregate", logged_aggregate)
    return events


M4_GADGET = build_gadget(4, parse_order("x>y>z>u", 4), Fraction(1, 10))
SEARCHES = {
    "gadget": (GADGET.network, 3, GADGET.persistent, POLICY),
    "gadget-stall": GADGET_STALL_CASE,
    "m4-gadget": (M4_GADGET.network, 4, M4_GADGET.persistent, POLICY),
    "wave_12": (build_traveling_wave(12, CYCLE4).network, 3, FREE, POLICY),
    "random-4": (seeded_random_network(4, 5), 3, PersistentConfig(pins={3: o("y>x>z")}), POLICY),
}


@pytest.mark.parametrize("net, m, pc, policy", SEARCHES.values(), ids=SEARCHES.keys())
def test_the_search_recomputes_a_target_only_after_an_in_neighbour_is_written(net, m, pc, policy, monkeypatch):
    events = kernel_events(monkeypatch)
    enumerate_fixed_points(net, build_cover_graph(m), policy, pc)
    listeners = [[k for k in range(net.n) if j in net.in_neighbors(k)] for j in range(net.n)]
    heard: dict[int, bool] = {}  # node -> an in-neighbour was written since its last recomputation
    for kind, i in events:
        if kind == "write":
            for k in listeners[i]:
                heard[k] = True
        else:
            assert heard.get(i, True), f"node {i} recomputed with no in-neighbour written"
            heard[i] = False
    assert any(kind == "aggregate" for kind, _ in events)


def test_the_wave_12_search_aggregates_once_per_in_neighbour_value(monkeypatch):
    # node k >= 1 is checked at level k and reads node k-1 alone, so its
    # target is recomputed once per value of node k-1, not once per own value:
    # per value of node 0, ten nodes once each, node 11 once and node 0 once
    # per value of node 11, so 13 * (10 + 1 + 13) = 312
    events = kernel_events(monkeypatch)
    net = build_traveling_wave(12, CYCLE4).network
    assert enumerate_fixed_points(net, G3, POLICY, FREE) == [(w,) * 12 for w in SPACE3]
    assert sum(kind == "aggregate" for kind, _ in events) <= 312


def test_uniform_run_stops_at_a_stall():
    # under no-move-on-ambiguity neither free node's step moves this profile,
    # though neither sits at its target
    sc = build_gadget(3, o("x>y>z"), Fraction(1, 10), initial_free=(o("x>y>z"), o("(xyz)")))
    policy = StepPolicy(allow_no_move_on_ambiguity=True)
    assert not is_fixed_point(sc.network, sc.persistent, sc.initial)
    for schedule in (Schedule.synchronous(), Schedule.uniform(0)):
        report = run_until_cycle(
            sc.network, G3, policy, sc.persistent, sc.initial, schedule, sc.max_steps
        )
        assert (report.mu, report.period) == (0, 1)


def test_fixed_point_search_needs_no_call_stack_per_free_node():
    net = build_traveling_wave(80, CYCLE4).network
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        fixed = enumerate_fixed_points(net, G3, POLICY, FREE)
    finally:
        sys.setrecursionlimit(limit)
    assert fixed == [(w,) * 80 for w in SPACE3]


@pytest.mark.parametrize("m, n_free, seed", [(3, 1, 0), (3, 2, 1), (3, 2, 2), (4, 1, 3), (4, 1, 4)])
def test_contrarian_camps_always_leave_an_equilibrium(m, n_free, seed):
    # Chain argument: code base, all-tied, antipode as 1, 0, -1.  On such
    # profiles a node's target is base, all-tied or antipode as the weighted
    # sum of its in-neighbours' codes is positive, zero or negative.  That map
    # preserves order, so iterating it from all-base only descends and stops
    # within 2*|free| + 1 rounds at an equilibrium.
    rng = random.Random(seed)
    space = enumerate_weak_orders(m)
    base = rng.choice([w for w in space if w.is_strict])
    flipped, tied = antipode(base), next(w for w in space if w.is_total_tie)
    rank = {base: 1, tied: 0, flipped: -1}
    net = seeded_random_network(n_free + 2, seed)
    plus, minus = n_free, n_free + 1
    pc = PersistentConfig(pins={plus: base, minus: flipped}, camps=Camps((plus,), (minus,), base))
    profile = (base,) * n_free + (base, flipped)
    for _ in range(2 * n_free + 1):
        nxt = tuple(target(net, profile, i) for i in range(n_free)) + (base, flipped)
        assert all(w in rank for w in nxt)
        assert all(rank[a] <= rank[b] for a, b in zip(nxt, profile))
        if nxt == profile:
            break
        profile = nxt
    else:
        raise AssertionError(f"no equilibrium within {2 * n_free + 1} rounds")
    assert profile in enumerate_fixed_points(net, build_cover_graph(m), POLICY, pc)


# --- the integer kernel against the Fraction reference -------------------------------------

def reference_run(net, graph, policy, pc, initial, schedule, max_steps):
    """Re-drive a run on the Fraction path (aggregate_scores -> project ->
    move_graph.step): (mu, period, prefix, target logs, margin), or None where
    run_until_cycle must raise BudgetExceededError."""
    free = pc.free_nodes(net.n)

    def tau(view, i):
        return project(aggregate_scores(net, view, i))

    def update(state, nodes, synchronous):
        nxt, log = list(state), []
        for i in nodes:
            t = tau(state if synchronous else tuple(nxt), i)
            log.append((i, t))
            nxt[i] = graph_step(policy, graph, nxt[i], t)
        return tuple(log), tuple(nxt)

    def margin(states):
        scores = (aggregate_scores(net, state, i) for state in states for i in free)
        return min(map(margin_from_ties, scores), default=math.inf)

    prefix, logs = [initial], []
    if schedule.kind == "uniform":
        rng = random.Random(schedule.seed)
        for t in range(max_steps + 1):
            state = prefix[-1]
            if all(graph_step(policy, graph, state[i], tau(state, i)) == state[i] for i in free):
                return t, 1, prefix, logs, margin([state])
            if t < max_steps:
                log, state = update(state, (free[rng.randrange(len(free))],), True)
                logs.append(log)
                prefix.append(state)
        return None
    nodes = free if schedule.kind == "synchronous" else schedule.nodes
    seen = {}
    for t in range(max_steps + 1):
        state = prefix[-1]
        if state in seen:
            mu = seen[state]
            prefix.pop()
            return mu, t - mu, prefix, logs, margin(prefix[mu:])
        seen[state] = t
        log, state = update(state, nodes, schedule.kind == "synchronous")
        logs.append(log)
        prefix.append(state)
    return None


KERNEL_MAX_STEPS = 60


@st.composite
def kernel_cases(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    rows = []
    for i in range(n):
        raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if not any(raw):
            raw[i] = 1
        rows.append([Fraction(w, sum(raw)) for w in raw])
    net = influence_network(rows)
    if draw(st.booleans()):
        # denominators of order 10^6 per entry, so each row's LCD is large
        net = perturb_weights(net, Fraction(1, draw(st.integers(2, 20))), draw(st.integers(0, 10**6)))
    space = enumerate_weak_orders(m)
    initial = tuple(draw(st.sampled_from(space)) for _ in range(n))
    pinned = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    pc = PersistentConfig(pins={i: initial[i] for i in pinned})
    free = pc.free_nodes(n)
    kind = draw(st.sampled_from(["synchronous", "sequence", "uniform"]))
    if kind == "synchronous":
        schedule = Schedule.synchronous()
    elif kind == "sequence":
        schedule = Schedule.sequence(draw(st.lists(st.sampled_from(free), min_size=1, max_size=12)))
    else:
        schedule = Schedule.uniform(draw(st.integers(0, 2**31)))
    policy = StepPolicy(allow_no_move_on_ambiguity=draw(st.booleans()))
    return net, build_cover_graph(m), policy, pc, initial, schedule


@given(kernel_cases())
@example(
    (GADGET.network, G3, StepPolicy(True), GADGET.persistent,
     (o("x>y>z"), o("(xyz)")) + GADGET.initial[2:], Schedule.uniform(0))
)
@settings(deadline=None, max_examples=300)
def test_runs_match_the_fraction_reference(case):
    assert_run_matches_reference(*case, KERNEL_MAX_STEPS)


def assert_run_matches_reference(net, graph, policy, pc, initial, schedule, max_steps):
    """run_until_cycle equals reference_run; returns the report (None on a budget error)."""
    expected = reference_run(net, graph, policy, pc, initial, schedule, max_steps)
    if expected is None:
        with pytest.raises(BudgetExceededError):
            run_until_cycle(net, graph, policy, pc, initial, schedule, max_steps)
        return None
    report = run_until_cycle(net, graph, policy, pc, initial, schedule, max_steps)
    mu, period, prefix, logs, margin = expected
    assert (report.mu, report.period) == (mu, period)
    assert report.prefix == tuple(prefix)
    assert report.orbit == tuple(prefix[mu:])
    assert report.target_log == tuple(logs)
    assert report.min_margin == margin
    assert type(report.min_margin) is type(margin)
    return report


def test_a_sequence_step_reads_a_self_loop_move():
    # node 0 hears itself and a pin at 1/2 each; its first target (xyz) moves
    # it to x>(yz), which changes its own second target within the step
    net = influence_network([["1/2", "1/2"], ["0", "1"]])
    pc = PersistentConfig(pins={1: o("z>y>x")})
    report = assert_run_matches_reference(
        net, G3, POLICY, pc, (o("x>y>z"), o("z>y>x")), Schedule.sequence([0, 0, 0]), 20
    )
    first, second, _ = report.target_log[0]
    assert (first, second) == ((0, o("(xyz)")), (0, o("z>x>y")))


def chained_pins_case(seed):
    """A uniform run on 24 nodes with 5 free ones, each reading 3 pins and the
    free node before it, so that every move makes exactly one free target stale."""
    rng = random.Random(seed)
    n, free = 24, (0, 1, 2, 3, 4)
    rows = []
    for i in range(n):
        row = [0] * n
        if i in free:
            for j in rng.sample(range(len(free), n), 3):
                row[j] = rng.randint(1, 3)
            row[free[i - 1]] = rng.randint(2, 6)
        else:
            row[i] = 1
        rows.append([Fraction(w, sum(row)) for w in row])
    initial = random_profile(rng, n, 4)
    pc = PersistentConfig(pins={i: initial[i] for i in range(len(free), n)})
    return influence_network(rows), build_cover_graph(4), POLICY, pc, initial, Schedule.uniform(seed)


@pytest.mark.parametrize("seed", range(6))
def test_uniform_runs_recompute_a_target_only_after_an_in_neighbour_moves(seed, monkeypatch):
    case = chained_pins_case(seed)
    calls = []
    aggregate = dynamics._Kernel.aggregate

    def counted(self, state, i):
        if state is self.state:  # a target, not an orbit margin
            calls.append(i)
        return aggregate(self, state, i)

    monkeypatch.setattr(dynamics._Kernel, "aggregate", counted)
    report = assert_run_matches_reference(*case, 2000)
    free = case[3].free_nodes(case[0].n)
    updates = len(report.target_log)
    assert updates > len(free)
    # each free target is computed once, then again only after its one free
    # in-neighbour moves; re-aggregating in the stop check would add at least
    # one more call per update
    assert len(calls) <= updates + len(free)


@pytest.mark.parametrize("schedule", [Schedule.synchronous(), Schedule.sequence([0, 0]), Schedule.uniform(3)],
                         ids=["sync", "sequence", "uniform"])
def test_a_one_node_run_reports_one_tuples(schedule):
    # a single state index must still give a 1-tuple profile in the report
    report = assert_run_matches_reference(
        influence_network([[1]]), G3, POLICY, FREE, (o("x>(yz)"),), schedule, 10)
    assert report.prefix == ((o("x>(yz)"),),)


@pytest.mark.parametrize("seed", range(3))
def test_a_lane_at_its_bound_neither_carries_nor_truncates(seed):
    # node 0 hears three strict pins that share the top alternative 0; after
    # the perturbation its row has a large LCD D_0, the largest of the run, so
    # the top lane of its aggregate is 2(m-1)*D_0 and fills the lane's top bit
    m = 6
    pins = [parse_order(text, m) for text in ("0>1>2>3>4>5", "0>5>4>3>2>1", "0>3>1>5>2>4")]
    net = influence_network([[0, "1/3", "1/3", "1/3"], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    net = perturb_weights(net, Fraction(1, 7), seed)
    pc = PersistentConfig(pins={1 + k: pin for k, pin in enumerate(pins)})
    graph = build_cover_graph(m)
    initial = (parse_order("5>4>3>2>1>0", m), *pins)
    state = [graph.id_of(w) for w in initial]
    kernel = dynamics._Kernel(net, graph, POLICY, (0,), state)
    lanes = kernel.lanes(kernel.aggregate(state, 0))
    scale = kernel.rows[0][1]
    assert scale > 10**6
    assert lanes[0] == (m - 1) * scale and lanes[0].bit_length() == kernel.lane
    for schedule in (Schedule.synchronous(), Schedule.sequence([0, 0, 0])):
        report = assert_run_matches_reference(net, graph, POLICY, pc, initial, schedule, 40)
        assert report.min_margin != math.inf


def counted_projections(monkeypatch):
    """Patch `_Kernel.project` to record (packed aggregate, memo size after it) per call."""
    calls = []
    project = dynamics._Kernel.project

    def counted(self, total):
        tau = project(self, total)
        calls.append((total, len(self.memo)))
        return tau

    monkeypatch.setattr(dynamics._Kernel, "project", counted)
    return calls


def test_the_copier_ring_projects_each_distinct_aggregate_once(monkeypatch):
    cycle = find_cycle(build_cover_graph(4), 24)
    sc = build_traveling_wave(120, cycle)
    calls = counted_projections(monkeypatch)
    report = sc.run()
    assert (report.mu, report.period) == (0, 24)
    aggregates = [total for total, _ in calls]
    # 120 targets per step, but a copier's aggregate is its predecessor's
    # packed scores, one of the 24 cycle orders
    assert len(aggregates) == len(set(aggregates)) <= len(cycle)
    assert sum(map(len, report.target_log)) == 120 * 24


def test_the_projection_memo_stays_under_its_cap(monkeypatch):
    # node 1 hears node 0 at 1/3 and itself at 2/3: nearly every partial
    # profile of the m = 6 search gives node 1 a new aggregate
    net = influence_network([[1, 0], ["1/3", "2/3"]])
    calls = counted_projections(monkeypatch)
    budget = 2 * dynamics.TARGET_MEMO_CAP
    with pytest.raises(BudgetExceededError):
        enumerate_fixed_points(net, build_cover_graph(6), POLICY, FREE, budget)
    assert len(calls) > dynamics.TARGET_MEMO_CAP
    assert max(size for _, size in calls) == dynamics.TARGET_MEMO_CAP


SHIPPED_SCENARIOS = sorted(
    p for p in (Path(__file__).resolve().parent.parent / "scenarios").glob("*.json")
    if not p.name.startswith("suite")
)


def test_runs_and_fixed_point_search_do_no_fraction_arithmetic(monkeypatch):
    scenarios = [load_scenario(p) for p in SHIPPED_SCENARIOS]
    assert len(scenarios) == 8
    reports = [sc.run() for sc in scenarios]
    fixed = enumerate_fixed_points(GADGET.network, G3, POLICY, GADGET.persistent)

    def forbidden(*args, **kwargs):
        raise AssertionError("the Fraction reference path was used")

    for owner, name in [(dynamics, "aggregate_scores"), (dynamics, "target"), (dynamics, "project"),
                        (weak_orders, "project"), (weak_orders, "margin_from_ties"),
                        (dynamics, "graph_step"), (move_graph, "step")]:
        monkeypatch.setattr(owner, name, forbidden)
    for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        monkeypatch.setattr(Fraction, f"__{op}__", forbidden)
        monkeypatch.setattr(Fraction, f"__r{op}__", forbidden)
    for op in ("lt", "le", "gt", "ge"):
        monkeypatch.setattr(Fraction, f"__{op}__", forbidden)
    # the per-m tables and packed scores are rebuilt under the guard, so they
    # too are built in integers
    dynamics._id_tables.cache_clear()
    dynamics._packed_scores.cache_clear()
    again = [sc.run() for sc in scenarios]
    fixed_again = enumerate_fixed_points(GADGET.network, G3, POLICY, GADGET.persistent)
    monkeypatch.undo()
    assert again == reports
    assert fixed_again == fixed


@pytest.mark.parametrize("m", range(2, 7))
def test_id_tables_hold_doubled_borda_scores_and_dense_ranks(m):
    scores, rank_ids = dynamics._id_tables(m)
    space = enumerate_weak_orders(m)
    assert scores == tuple(tuple(2 * s for s in weak_orders.borda_scores(w)) for w in space)
    assert rank_ids == {tuple(w.class_index(a) for a in range(m)): k for k, w in enumerate(space)}


M3_SWAP = (o("x>y>z"), o("z>y>x"))
M3_M4_MIX = (parse_order("x>y>z>u", 4), o("z>y>x"))
SWAP_NET = influence_network([["0", "1"], ["1", "0"]])
G4 = build_cover_graph(4)
ON_G4 = {
    "run-sync": lambda p: run_until_cycle(SWAP_NET, G4, POLICY, FREE, p, Schedule.synchronous()),
    "run-sequence": lambda p: run_until_cycle(SWAP_NET, G4, POLICY, FREE, p, Schedule.sequence([1, 0])),
    "run-uniform": lambda p: run_until_cycle(SWAP_NET, G4, POLICY, FREE, p, Schedule.uniform(0)),
    "step-sync": lambda p: step_sync(SWAP_NET, G4, POLICY, FREE, p),
    "step-async": lambda p: step_async(SWAP_NET, G4, POLICY, FREE, p, 1),
    "fixed-points": lambda p: enumerate_fixed_points(
        SWAP_NET, G4, POLICY, PersistentConfig(pins=dict(enumerate(p)))),
}


@pytest.mark.parametrize("profile, node", [(M3_SWAP, 0), (M3_M4_MIX, 1)], ids=["m3", "m3-m4-mix"])
@pytest.mark.parametrize("call", ON_G4.values(), ids=ON_G4.keys())
def test_orders_on_another_alternative_count_are_rejected(call, profile, node):
    with pytest.raises(ValueError, match=f"^node {node} has an order on 3 alternatives, "):
        call(profile)


ON_SWAP = {
    "run-sync": lambda pc, p: run_until_cycle(SWAP_NET, G3, POLICY, pc, p, Schedule.synchronous()),
    "run-sequence": lambda pc, p: run_until_cycle(SWAP_NET, G3, POLICY, pc, p, Schedule.sequence([1])),
    "run-uniform": lambda pc, p: run_until_cycle(SWAP_NET, G3, POLICY, pc, p, Schedule.uniform(0)),
    "step-sync": lambda pc, p: step_sync(SWAP_NET, G3, POLICY, pc, p),
    "step-async": lambda pc, p: step_async(SWAP_NET, G3, POLICY, pc, p, 1),
    "is-fixed-point": lambda pc, p: is_fixed_point(SWAP_NET, pc, p),
}
BAD_PROFILES = {
    "three-orders": (FREE, (*M3_SWAP, o("(xyz)")), "^profile length 3, but the network has 2 nodes$"),
    "one-order": (FREE, M3_SWAP[:1], "^profile length 1, but the network has 2 nodes$"),
    "pin-past-the-end": (PersistentConfig(pins={5: o("x>y>z")}), M3_SWAP,
                         r"^pin at node 5, but the network's nodes are 0\.\.1$"),
    "pin-negative": (PersistentConfig(pins={-1: M3_SWAP[1]}), M3_SWAP,
                     r"^pin at node -1, but the network's nodes are 0\.\.1$"),
    "pin-mismatch": (PersistentConfig(pins={0: M3_SWAP[1]}), M3_SWAP, "^profile disagrees with pin at node 0$"),
}


@pytest.mark.parametrize("pc, profile, message", BAD_PROFILES.values(), ids=BAD_PROFILES.keys())
@pytest.mark.parametrize("call", ON_SWAP.values(), ids=ON_SWAP.keys())
def test_every_entry_point_checks_the_profile_against_the_network_and_pins(call, pc, profile, message):
    with pytest.raises(ValueError, match=message):
        call(pc, profile)


@pytest.mark.parametrize("node", [5, -1])
def test_the_fixed_point_search_refuses_a_pin_outside_the_network(node):
    pc = PersistentConfig(pins={node: o("x>y>z")})
    with pytest.raises(ValueError, match=rf"^pin at node {node}, but the network's nodes are 0\.\.1$"):
        enumerate_fixed_points(SWAP_NET, G3, POLICY, pc)


# --- persistent config validation -----------------------------------------------------------------

def test_camps_must_match_pins():
    base = o("x>y>z")
    with pytest.raises(ValueError):
        PersistentConfig(pins={0: base, 1: base}, camps=Camps((0,), (1,), base))
    pc = PersistentConfig(
        pins={0: base, 1: antipode(base)}, camps=Camps((0,), (1,), base)
    )
    assert pc.free_nodes(4) == (2, 3)


@given(st.integers(min_value=0, max_value=10**6))
@settings(deadline=None, max_examples=20)
def test_seeded_runs_are_reproducible(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    net = seeded_random_network(n, seed)
    initial = random_profile(random.Random(seed + 1), n)
    first = run_until_cycle(net, G3, POLICY, FREE, initial, Schedule.uniform(seed), max_steps=3000)
    second = run_until_cycle(net, G3, POLICY, FREE, initial, Schedule.uniform(seed), max_steps=3000)
    assert first.prefix == second.prefix
    assert (first.mu, first.period) == (second.mu, second.period)
