import ast
import math
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from borda_dynamics.dynamics import (
    PersistentConfig,
    Schedule,
    aggregate_scores,
    enumerate_fixed_points,
    is_fixed_point,
    run_until_cycle,
    step_async,
    step_sync,
)
from borda_dynamics import dynamics, move_graph, weak_orders
from borda_dynamics.errors import BudgetExceededError, ScheduleError
from borda_dynamics.influence import influence_network, perturb_weights, seeded_random_network
from borda_dynamics.move_graph import StepPolicy, build_cover_graph, distance
from borda_dynamics.move_graph import step as graph_step
from borda_dynamics.scenarios import build_gadget, build_traveling_wave, load_scenario
from borda_dynamics.weak_orders import antipode, enumerate_weak_orders, parse_order

import reference
from reference import diameter, find_cycle, paths_between, reference_run, target

G3 = build_cover_graph(3)
POLICY = StepPolicy()
FREE = PersistentConfig()
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


@pytest.mark.parametrize("node", [0, 5, -1, 1.0, True], ids=["pinned", "past-the-end", "negative", "float", "bool"])
def test_step_async_rejects_pinned_node(node):
    # node 0 is pinned; 5 and -1 are not nodes of the 2-node network, and
    # 1.0 and True, though equal to the free node 1, are not ints
    net = uniform_net(2)
    pc = PersistentConfig(pins={0: o("(xyz)")})
    with pytest.raises(ScheduleError, match=f"^scheduled node {re.escape(repr(node))} is pinned or unknown$"):
        step_async(net, G3, POLICY, pc, (o("(xyz)"), o("x>y>z")), node)


MALFORMED = {
    "short": (o("(xyz)"),),
    "off-the-pin": (o("x>y>z"), o("x>y>z")),
    "on-m4": (parse_order("x>y>z>u", 4), o("x>y>z")),
}


@pytest.mark.parametrize("profile", MALFORMED.values(), ids=MALFORMED.keys())
def test_step_async_refuses_a_pinned_node_before_it_reads_the_profile(profile):
    # each profile alone raises ValueError; the scheduled node is checked first
    net = uniform_net(2)
    pc = PersistentConfig(pins={0: o("(xyz)")})
    with pytest.raises(ValueError):
        step_sync(net, G3, POLICY, pc, profile)
    with pytest.raises(ScheduleError, match="^scheduled node 0 is pinned or unknown$"):
        step_async(net, G3, POLICY, pc, profile, 0)


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
    # re-simulate one lap on the Fraction reference and compare against the reported orbit
    for t in range(report.period):
        nxt = reference.step_sync(net, graph, policy, pc, report.orbit[t])
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


@pytest.mark.parametrize("node", [0.0, False], ids=["float", "bool"])
def test_sequence_schedule_rejects_a_node_that_is_not_an_int(node):
    # equal to the free node 0, yet not a node index
    net = uniform_net(2)
    with pytest.raises(ScheduleError, match=rf"^scheduled nodes \[{node!r}\] are pinned or unknown$"):
        run_until_cycle(net, G3, POLICY, FREE, (o("(xyz)"), o("(xyz)")), Schedule.sequence([0, node]))


def test_state_at_refuses_a_time_before_the_start():
    net = influence_network([["0", "1"], ["1", "0"]])
    report = run_until_cycle(net, G3, POLICY, FREE, (o("x>y>z"), o("z>y>x")), Schedule.synchronous())
    assert report.state_at(0) == report.prefix[0]
    with pytest.raises(ValueError, match="^time -1 is before the start of the run$"):
        report.state_at(-1)


def test_uniform_schedule_stops_at_fixed_point():
    net = influence_network([["0", "1"], ["1", "0"]])
    # both nodes copy each other; start at consensus so the run is fixed at once
    profile = (o("x>y>z"), o("x>y>z"))
    report = run_until_cycle(net, G3, POLICY, FREE, profile, Schedule.uniform(0))
    assert (report.mu, report.period) == (0, 1)


SCHEDULE_REFUSALS = {
    "empty-sequence": (lambda: Schedule.sequence([]), "^empty update sequence$"),
    "uniform-every-node-pinned": (
        lambda: run_until_cycle(uniform_net(2), G3, POLICY, PersistentConfig({0: o("x>y>z"), 1: o("z>y>x")}),
                                (o("x>y>z"), o("z>y>x")), Schedule.uniform(0)),
        "^uniform schedule needs at least one free node$"),
    "unknown-kind": (lambda: run_until_cycle(uniform_net(2), G3, POLICY, FREE, (o("x>y>z"),) * 2, Schedule("bogus")),
                     "^unknown schedule kind 'bogus'$"),
}


@pytest.mark.parametrize("call, message", SCHEDULE_REFUSALS.values(), ids=SCHEDULE_REFUSALS.keys())
def test_a_schedule_that_cannot_run_is_refused(call, message):
    with pytest.raises(ScheduleError, match=message):
        call()


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
    assert report.mu <= diameter(G3)


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
        if a != b and paths_between(G3, a.canonical_id, b.canonical_id) == 1
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


def test_enumerate_fixed_points_budget_is_checked_inside_the_search():
    # node 2 hears itself and node 0, so it is checked on its own level and
    # the pre-check bound is 13 + 13**2 = 182; the search tries 351
    net = influence_network([[0, 1, 0], [1, 0, 0], ["1/2", 0, "1/2"]])
    assert len(enumerate_fixed_points(net, G3, POLICY, FREE, budget=351)) == 37
    with pytest.raises(BudgetExceededError, match="^more than 350 partial profiles tried$"):
        enumerate_fixed_points(net, G3, POLICY, FREE, budget=350)


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
    order, kept when one synchronous Fraction reference step leaves it
    unchanged."""
    free = pc.free_nodes(net.n)
    found = []
    for combo in product(enumerate_weak_orders(graph.m), repeat=len(free)):
        profile = [pc.pins.get(i) for i in range(net.n)]
        for node, order in zip(free, combo):
            profile[node] = order
        candidate = tuple(profile)
        if reference.step_sync(net, graph, policy, pc, candidate) == candidate:
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


#: a pin p feeding free node a, which feeds free node b: both levels solved
PATH_ROWS = [[0, 0, 1], [1, 0, 0], [0, 0, 1]]
#: the same path with a self-loop on b, whose level is then not solved
LOOP_ROWS = [[0, 0, 1], ["1/2", "1/2", 0], [0, 0, 1]]
PATH_PINS = PersistentConfig(pins={2: o("x>y>z")})


@given(fixed_point_cases())
@example(GADGET_STALL_CASE)
@example((influence_network(PATH_ROWS), 3, PATH_PINS, POLICY))
@example((influence_network(PATH_ROWS), 3, PATH_PINS, StepPolicy(allow_no_move_on_ambiguity=True)))
@example((influence_network(LOOP_ROWS), 3, PATH_PINS, POLICY))
@example((influence_network(LOOP_ROWS), 3, PATH_PINS, StepPolicy(allow_no_move_on_ambiguity=True)))
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


class KernelWork:
    """The work of every kernel built while it is installed, counted by
    patching `_Kernel` once each is built: `reads` of packed scores (a write
    takes two, and a row summed on read takes one per in-neighbour),
    `updates` of totals (one per mover-listener pair), `targets` read (one
    lookup in `keys` each), and the nodes `written`, in order."""

    def __init__(self, monkeypatch):
        self.reads = self.updates = self.targets = 0
        self.written = []
        work = self
        init, write = dynamics._Kernel.__init__, dynamics._Kernel.write

        class Packed(tuple):
            def __getitem__(self, k):
                work.reads += 1
                return tuple.__getitem__(self, k)

        class Totals(list):
            def __setitem__(self, k, value):
                work.updates += 1
                list.__setitem__(self, k, value)

        class Keys(dict):
            def __getitem__(self, key):
                work.targets += 1
                return dict.__getitem__(self, key)

        def counted_init(kernel, *args):
            init(kernel, *args)
            kernel.packed, kernel.totals, kernel.keys = Packed(kernel.packed), Totals(kernel.totals), Keys(kernel.keys)

        def counted_write(kernel, moves):
            moves = list(moves)
            work.written.extend(j for j, _ in moves)
            write(kernel, moves)

        monkeypatch.setattr(dynamics._Kernel, "__init__", counted_init)
        monkeypatch.setattr(dynamics._Kernel, "write", counted_write)

    def assert_no_row_is_summed_on_read(self):
        assert self.reads == 2 * len(self.written)

    def listener_pairs(self, net, free):
        """Mover-listener pairs of the writes: the free nodes that hear each mover."""
        return sum(sum(j in net.in_neighbors(k) for k in free) for j in self.written)


M4_GADGET = build_gadget(4, parse_order("x>y>z>u", 4), Fraction(1, 10))
SEARCHES = {
    "gadget": (GADGET.network, 3, GADGET.persistent, POLICY),
    "gadget-stall": GADGET_STALL_CASE,
    "m4-gadget": (M4_GADGET.network, 4, M4_GADGET.persistent, POLICY),
    "wave_12": (build_traveling_wave(12, CYCLE4).network, 3, FREE, POLICY),
    "random-4": (seeded_random_network(4, 5), 3, PersistentConfig(pins={3: o("y>x>z")}), POLICY),
}


@pytest.mark.parametrize("net, m, pc, policy", SEARCHES.values(), ids=SEARCHES.keys())
def test_the_search_changes_a_total_only_when_an_in_neighbour_is_written(net, m, pc, policy, monkeypatch):
    # a total changes only by the delta of a written in-neighbour
    work = KernelWork(monkeypatch)
    enumerate_fixed_points(net, build_cover_graph(m), policy, pc)
    assert work.written
    work.assert_no_row_is_summed_on_read()
    assert work.updates == work.listener_pairs(net, pc.free_nodes(net.n))


def test_the_wave_12_search_aggregates_once_per_in_neighbour_value(monkeypatch):
    # node k >= 1 reads node k-1 alone, so its level is solved and it is
    # written once per value of node k-1, at its target: each of node 0's 13
    # orders is written, then nodes 1 to 11 once each, and every write
    # updates the one total that hears it, so 13 * 12 = 156 updates (summing
    # a row per stale read took 312)
    work = KernelWork(monkeypatch)
    net = build_traveling_wave(12, CYCLE4).network
    assert enumerate_fixed_points(net, G3, POLICY, FREE) == [(w,) * 12 for w in SPACE3]
    work.assert_no_row_is_summed_on_read()
    assert work.updates <= 13 * 12


def m4_gadget_search(budget=dynamics.DEFAULT_ENUM_BUDGET):
    sc = M4_GADGET
    return enumerate_fixed_points(sc.network, build_cover_graph(4), sc.policy, sc.persistent, budget)


def test_the_m4_gadget_search_tries_node_j_at_its_target_alone(monkeypatch):
    # node j hears node i and a pin, so its level is solved and it takes its
    # target alone: each of node i's 75 orders is written once and node j's
    # target once after it, each write updating the one other free node's
    # total, so 75 + 75 = 150 updates (trying all 75 orders of node j would
    # write node j 5,625 times)
    work = KernelWork(monkeypatch)
    assert len(m4_gadget_search()) == 24  # the strict-consensus pairs, as above
    work.assert_no_row_is_summed_on_read()
    assert work.updates <= 150


def test_a_solved_level_counts_all_its_orders_against_the_budget():
    # nothing is checked on node i's level, so each of its 75 orders opens
    # node j's solved level, which counts 75 though it tries one: 75 + 75 * 75
    assert len(m4_gadget_search(budget=5700)) == 24
    with pytest.raises(BudgetExceededError, match="^more than 5699 partial profiles tried$"):
        m4_gadget_search(budget=5699)


def test_uniform_run_stops_at_a_stall():
    # under no-move-on-ambiguity neither free node's step moves this profile,
    # though neither sits at its target
    sc = replace(GADGET, initial=(o("x>y>z"), o("(xyz)")) + GADGET.initial[2:])
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
    flipped, tied = antipode(base), next(w for w in space if len(w.classes) == 1)
    rank = {base: 1, tied: 0, flipped: -1}
    net = seeded_random_network(n_free + 2, seed)
    plus, minus = n_free, n_free + 1
    pc = PersistentConfig(pins={plus: base, minus: flipped})
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


@given(kernel_cases())
@settings(deadline=None, max_examples=200)
def test_single_steps_and_the_fixed_point_test_match_the_fraction_reference(case):
    net, graph, policy, pc, profile, _ = case
    assert step_sync(net, graph, policy, pc, profile) == reference.step_sync(net, graph, policy, pc, profile)
    for i in pc.free_nodes(net.n):
        assert step_async(net, graph, policy, pc, profile, i) == reference.step_async(net, graph, policy, profile, i)
    assert is_fixed_point(net, pc, profile) == reference.is_fixed_point(net, pc, profile)


@given(kernel_cases(), st.data())
@settings(deadline=None, max_examples=200)
def test_every_total_is_its_rows_aggregate_after_any_writes(case, data):
    """Networks of 1 to 6 nodes on m = 2..6 with weights k/total, k in 0..3,
    some perturbed to row LCDs D_i of order 10^6, any pins but one, either
    step policy.  A kernel at the case's initial state takes up to 8
    synchronous or sequence updates of any free nodes, or one at the
    search's start (free nodes at id 0) up to 8 writes of any free node to
    any id.  After each, every free node's total equals sum_j W_ij *
    packed[state_j] summed anew and lifted to beta, and it is exactly its
    pair fields, field (a, b) being 2*D_i*(agg[a] - agg[b]) + beta for the
    Fraction aggregate of the kernel's state."""
    net, graph, policy, pc, initial, _ = case
    free = pc.free_nodes(net.n)
    search = data.draw(st.booleans(), label="search")
    start = tuple(pc.pins.get(i, graph.orders[0]) for i in range(net.n)) if search else initial
    kernel = dynamics._Kernel(net, graph, policy, pc, start)
    assert kernel.state == [0 if search and i in free else graph.id_of(w) for i, w in enumerate(initial)]
    # a power of two wide, so runs of many row LCDs share a few (m, field) tables
    width = kernel.mask.bit_length()
    assert width & width - 1 == 0 and (2 * kernel.beta).bit_length() <= width
    ones = sum(1 << shift for shift in kernel.shifts)
    for _ in range(data.draw(st.integers(0, 8), label="operations")):
        if search:
            kernel.write([(data.draw(st.sampled_from(free)), data.draw(st.integers(0, graph.order_count - 1)))])
        else:
            kernel.update(data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=6)), data.draw(st.booleans()))
        profile = tuple(graph.orders[k] for k in kernel.state)
        for i in free:
            d = math.lcm(*(w.denominator for _, w in net.rows[i]))
            row_sum = sum(int(w * d) * kernel.packed[kernel.state[j]] for j, w in net.rows[i])
            assert kernel.totals[i] == row_sum + (kernel.beta - 2 * (graph.m - 1) * d) * ones
            fields = pair_fields(kernel, kernel.totals[i])
            assert kernel.totals[i] == sum(f << shift for f, shift in zip(fields, kernel.shifts))
            agg = aggregate_scores(net, profile, i)
            assert fields == [2 * d * (agg[a] - agg[b]) + kernel.beta for a, b in combinations(range(graph.m), 2)]


def pair_fields(kernel, total):
    """The fields of a packed total, pair (a, b), a < b, in `combinations` order."""
    return [total >> shift & kernel.mask for shift in kernel.shifts]


def policy_turn_cases(m, count):
    """The m-alternative gadget from its start, then `count` seeded networks
    of 2 to 5 nodes with some pins, each under one of the three schedules."""
    gadget = build_gadget(m, enumerate_weak_orders(m)[0], Fraction(1, 10))
    cases = [(gadget.network, gadget.persistent, gadget.initial, Schedule.synchronous())]
    rng = random.Random(m)
    for seed in range(count):
        n = rng.randint(2, 5)
        initial = random_profile(rng, n, m)
        pc = PersistentConfig(pins={i: initial[i] for i in rng.sample(range(n), rng.randint(0, n - 1))})
        free = pc.free_nodes(n)
        schedule = rng.choice([Schedule.synchronous(), Schedule.sequence(rng.choices(free, k=3)),
                               Schedule.uniform(seed)])
        cases.append((seeded_random_network(n, seed), pc, initial, schedule))
    return cases


@pytest.mark.parametrize("m", [3, 4])
def test_runs_on_one_graph_under_each_policy_in_turn_match_the_reference(m):
    """A graph keeps one set of step rows per policy, each entry the resolved
    step: on one fresh graph, every run under the default policy, then under
    no-move-on-ambiguity, then the default again, equals the reference
    re-driven on a fresh graph of its own, which shares no step row."""
    graph = move_graph.MoveGraph(m)
    assert not any(graph.step_rows(False)) and not any(graph.step_rows(True))
    cases = policy_turn_cases(m, 30)
    lazy = StepPolicy(allow_no_move_on_ambiguity=True)
    outcomes = []
    for policy in (POLICY, lazy, POLICY):
        for net, pc, initial, schedule in cases:
            expected = reference_run(net, move_graph.MoveGraph(m), policy, pc, initial, schedule, KERNEL_MAX_STEPS)
            if expected is None:
                with pytest.raises(BudgetExceededError):
                    run_until_cycle(net, graph, policy, pc, initial, schedule, KERNEL_MAX_STEPS)
            else:
                report = run_until_cycle(net, graph, policy, pc, initial, schedule, KERNEL_MAX_STEPS)
                mu, period, prefix, logs, margin = expected
                assert (report.mu, report.period, report.prefix, report.target_log, report.min_margin) == (
                    mu, period, tuple(prefix), tuple(logs), margin), (policy, schedule)
            outcomes.append(expected)
    # the policies part somewhere, and the second default pass repeats the first
    first, second, third = outcomes[:len(cases)], outcomes[len(cases):-len(cases)], outcomes[-len(cases):]
    assert first != second and first == third


@pytest.mark.parametrize("lazy", [False, True], ids=["default", "no-move-on-ambiguity"])
def test_a_run_decides_only_the_steps_it_reads(lazy):
    # a synchronous run reads the step of every node update off its target,
    # from the state before the step; it stores those entries and no other
    graph = move_graph.MoveGraph(4)
    net = seeded_random_network(6, 3)
    initial = random_profile(random.Random(3), 6, 4)
    report = run_until_cycle(net, graph, StepPolicy(lazy), FREE, initial, Schedule.synchronous())
    read, off_target = set(), 0
    for before, log in zip(report.prefix, report.target_log):
        for i, tau in log:
            if before[i] != tau:
                off_target += 1
                read.add((graph.id_of(tau), graph.id_of(before[i])))
    stored = {(t, c) for t, row in enumerate(graph.step_rows(lazy)) for c in row}
    assert report.mu + report.period > 2 and stored == read and len(stored) <= off_target
    assert not any(graph.step_rows(not lazy))


@pytest.mark.parametrize("m", [3, 4])
def test_the_orbit_margin_is_read_from_any_state_the_kernel_is_in(m):
    # after each deterministic run the kernel is written to its start's ids
    # in reverse, pins included; the orbit margin seats it at orbit[0] itself
    for net, pc, initial, schedule in policy_turn_cases(m, 30):
        if schedule.kind == "uniform":
            continue
        kernel = dynamics._Kernel(net, move_graph.MoveGraph(m), POLICY, pc, initial)
        states, mu, logs = kernel.run(schedule, KERNEL_MAX_STEPS)
        margin = kernel.report(states, mu, logs).min_margin
        kernel.write(enumerate(states[0][::-1]))  # another state of the same network
        assert kernel.min_margin(states[mu:]) == margin and tuple(kernel.state) == states[-1]


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


#: node 0 starts at (xyz), which the antipodal pins at 1/2 each hold it at, and
#: any perturbation of its row moves its target: a uniform run stops at once,
#: a perturbed one does not, with no logged step to tell them apart
TIE_START = (
    influence_network([[0, "1/2", "1/2"], [0, 1, 0], [0, 0, 1]]), G3, POLICY,
    PersistentConfig(pins={1: o("x>y>z"), 2: o("z>y>x")}), (o("(xyz)"), o("x>y>z"), o("z>y>x")),
    Schedule.uniform(0),
)
#: nodes 0 and 1 copy strict pins at weight 1, the run's largest D, so pair
#: (0, 5) of node 0 sits at 2*beta and of node 1 at 0
COPIERS = (
    influence_network([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]), build_cover_graph(6), POLICY,
    PersistentConfig(pins={2: parse_order("0>1>2>3>4>5", 6), 3: parse_order("5>1>2>3>4>0", 6)}),
    (parse_order("(012345)", 6), parse_order("(012345)", 6), parse_order("0>1>2>3>4>5", 6),
     parse_order("5>1>2>3>4>0", 6)),
    Schedule.synchronous(),
)


@given(kernel_cases())
@example(TIE_START)
@example(COPIERS)
@settings(deadline=None, max_examples=300)
def test_every_target_is_the_projection_of_the_fraction_aggregate(case):
    """Networks of 1 to 6 nodes on m = 2..6 with weights k/total, k in 0..3,
    some perturbed to row LCDs D_i of order 10^6, any pins but one, either
    step policy; the examples add a cancellation tie (antipodal pins at 1/2
    each) and pair fields at 0 and 2*beta.  At the case's initial state and
    after each of 3 synchronous updates, every free node's target read from
    its guard bits is `weak_orders.project` of its Fraction aggregate."""
    net, graph, policy, pc, initial, _ = case
    free = pc.free_nodes(net.n)
    kernel = dynamics._Kernel(net, graph, policy, pc, initial)
    for _ in range(4):
        profile = tuple(map(graph.orders.__getitem__, kernel.state))
        for i in free:
            assert graph.orders[kernel.target(i)] == weak_orders.project(aggregate_scores(net, profile, i))
        kernel.update(free, True)


@given(kernel_cases())
@example(TIE_START)
@settings(deadline=None, max_examples=300)
def test_kernel_run_is_the_run_until_cycle_report_in_ids(case):
    """Networks of 1 to 6 nodes on m = 2..6 with weights k/total, k in 0..3,
    some perturbed to row LCDs D_i of order 10^6; synchronous, sequence and
    uniform schedules, with and without pins, under both step policies.
    `_Kernel.run` gives the report's prefix, mu and target logs as canonical
    ids, and raises BudgetExceededError exactly when `run_until_cycle` does."""
    net, graph, policy, pc, initial, schedule = case

    def run():
        return dynamics._Kernel(net, graph, policy, pc, initial).run(schedule, KERNEL_MAX_STEPS)

    try:
        report = run_until_cycle(net, graph, policy, pc, initial, schedule, KERNEL_MAX_STEPS)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            run()
        return
    states, mu, logs = run()
    id_of = graph.id_of
    assert states == [tuple(map(id_of, state)) for state in report.prefix]
    assert mu == report.mu
    assert logs == [tuple((i, id_of(order)) for i, order in log) for log in report.target_log]


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
    free node before it, so that every move changes exactly one free total."""
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
def test_uniform_runs_change_a_total_only_when_an_in_neighbour_moves(seed, monkeypatch):
    case = chained_pins_case(seed)
    work = KernelWork(monkeypatch)
    report = assert_run_matches_reference(*case, 2000)
    free = case[3].free_nodes(case[0].n)
    updates = len(report.target_log)
    assert updates > len(free)
    # each move updates the total of the one free node that hears the mover;
    # re-aggregating in the stop check would read rows
    work.assert_no_row_is_summed_on_read()
    assert work.updates == len(work.written) <= updates


def copier_star_case(seed):
    """A uniform run on 20 free nodes that each copy pin 20 alone: nodes 0 to
    18 start at its order, settled, and node 19 at its antipode, four moves
    away, so most draws hit a settled node."""
    n = 21
    net = influence_network([[int(j == 20) for j in range(n)] for _ in range(n)])
    pc = PersistentConfig(pins={20: o("x>y>z")})
    initial = (o("x>y>z"),) * 19 + (o("z>y>x"), o("x>y>z"))
    return net, G3, POLICY, pc, initial, Schedule.uniform(seed)


@pytest.mark.parametrize("case", [copier_star_case(0), copier_star_case(1), chained_pins_case(0), chained_pins_case(1)],
                         ids=["star-0", "star-1", "chain-0", "chain-1"])
def test_a_uniform_run_reads_targets_per_draw_and_per_move(case, monkeypatch):
    # one target per draw, one per free node to start, and one per node a
    # move can unsettle (the mover and the free nodes that hear it); a scan
    # of the free nodes before each draw reads about 20 per draw on the star
    work = KernelWork(monkeypatch)
    report = assert_run_matches_reference(*case, 2000)
    net, free, draws = case[0], case[3].free_nodes(case[0].n), len(report.target_log)
    assert work.targets <= draws + len(free) + len(work.written) + work.listener_pairs(net, free)


def test_a_uniform_run_may_settle_on_its_last_budgeted_update():
    # the run settles on its mu-th update: a budget of mu returns, mu - 1 raises
    case = chained_pins_case(0)
    mu = reference_run(*case, 2000)[0]
    assert mu > 0
    assert assert_run_matches_reference(*case, mu).mu == mu
    assert assert_run_matches_reference(*case, mu - 1) is None
    with pytest.raises(BudgetExceededError, match=f"^no fixed point within {mu - 1} asynchronous updates$"):
        run_until_cycle(*case, mu - 1)


def test_a_uniform_run_reads_a_self_loop_move():
    # node 0 hears itself and a pin at 1/2 each, so its own moves change its target
    net = influence_network([["1/2", "1/2"], ["0", "1"]])
    pc = PersistentConfig(pins={1: o("z>y>x")})
    report = assert_run_matches_reference(net, G3, POLICY, pc, (o("x>y>z"), o("z>y>x")), Schedule.uniform(0), 20)
    assert report.mu > 1 and len({tau for (_, tau), in report.target_log}) > 1


def test_a_uniform_run_can_move_into_a_stall():
    # under no-move-on-ambiguity the gadget's free nodes move five times and
    # stop at (x>y>z, (xyz)), though node j is not at its target there
    sc = replace(GADGET, initial=(o("x>(yz)"), o("y>(xz)")) + GADGET.initial[2:])
    policy = StepPolicy(allow_no_move_on_ambiguity=True)
    report = assert_run_matches_reference(sc.network, G3, policy, sc.persistent, sc.initial, Schedule.uniform(2), 100)
    assert report.mu == 5 and report.prefix[-1][:2] == (o("x>y>z"), o("(xyz)"))
    assert not is_fixed_point(sc.network, sc.persistent, report.prefix[-1])


@pytest.mark.parametrize("schedule", [Schedule.synchronous(), Schedule.sequence([0, 0]), Schedule.uniform(3)],
                         ids=["sync", "sequence", "uniform"])
def test_a_one_node_run_reports_one_tuples(schedule):
    # a single state index must still give a 1-tuple profile in the report
    report = assert_run_matches_reference(
        influence_network([[1]]), G3, POLICY, FREE, (o("x>(yz)"),), schedule, 10)
    assert report.prefix == ((o("x>(yz)"),),)


@pytest.mark.parametrize("reverse", [False, True], ids=["at-2beta", "at-0"])
@pytest.mark.parametrize("seed", range(3))
def test_a_lane_at_its_bound_neither_carries_nor_truncates(seed, reverse):
    # node 0 hears three strict pins that rank alternative 0 top and 5 bottom
    # (reversed: 0 bottom and 5 top); after the perturbation its row has a
    # large LCD D_0, the largest of the run, so beta = 2(m-1)*D_0 and the
    # field of pair (0, 5) is beta +- 2(m-1)*D_0: 2*beta, or 0, the field's bounds
    m = 6
    pins = [parse_order(text, m) for text in ("0>1>2>3>4>5", "0>4>3>2>1>5", "0>2>4>1>3>5")]
    start = parse_order("5>4>3>2>1>0", m)
    if reverse:
        pins, start = [antipode(pin) for pin in pins], antipode(start)
    net = influence_network([[0, "1/3", "1/3", "1/3"], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    net = perturb_weights(net, Fraction(1, 7), seed)
    pc = PersistentConfig(pins={1 + k: pin for k, pin in enumerate(pins)})
    graph = build_cover_graph(m)
    initial = (start, *pins)
    kernel = dynamics._Kernel(net, graph, POLICY, pc, initial)
    assert kernel.rows[0][1] > 10**6
    assert pair_fields(kernel, kernel.totals[0])[4] == (0 if reverse else 2 * kernel.beta)
    assert graph.orders[kernel.target(0)] == weak_orders.project(aggregate_scores(net, initial, 0))
    for schedule in (Schedule.synchronous(), Schedule.sequence([0, 0, 0])):
        report = assert_run_matches_reference(net, graph, POLICY, pc, initial, schedule, 40)
        assert report.min_margin != math.inf


def test_the_orbit_margin_computes_each_distinct_gap_once(monkeypatch):
    # each state of a 24-node copier ring on a 24-cycle of m = 4 orders holds
    # all 24 orders, so the orbit margin reads 24 distinct totals 24 times
    # each, and computes each one's gap once
    sc = build_traveling_wave(24, find_cycle(build_cover_graph(4), 24))
    calls = []  # total per computed gap
    gap = dynamics._Kernel.gap

    def counted(self, total):
        calls.append(total)
        return gap(self, total)

    monkeypatch.setattr(dynamics._Kernel, "gap", counted)
    report = sc.run()
    assert (report.mu, report.period) == (0, 24)
    assert len(calls) == len(set(calls)) == 24


SHIPPED_SCENARIOS = sorted(
    p for p in (Path(__file__).resolve().parent.parent / "scenarios").glob("*.json")
    if not p.name.startswith("suite")
)


def single_steps(scenarios):
    """step_sync, step_async of every free node and is_fixed_point, on each
    scenario's initial profile and on the first state of its orbit."""
    results = []
    for sc, report in scenarios:
        graph = build_cover_graph(sc.m)
        for profile in (sc.initial, report.orbit[0]):
            results.append(step_sync(sc.network, graph, sc.policy, sc.persistent, profile))
            results.extend(step_async(sc.network, graph, sc.policy, sc.persistent, profile, i)
                           for i in sc.persistent.free_nodes(sc.network.n))
            results.append(is_fixed_point(sc.network, sc.persistent, profile))
    return results


def test_runs_and_fixed_point_search_do_no_fraction_arithmetic(monkeypatch):
    scenarios = [load_scenario(p) for p in SHIPPED_SCENARIOS]
    assert len(scenarios) == 9
    reports = [sc.run() for sc in scenarios]
    fixed = enumerate_fixed_points(GADGET.network, G3, POLICY, GADGET.persistent)
    steps = single_steps(zip(scenarios, reports))
    assert True in steps and False in steps  # both fixed and unfixed profiles are tested

    def forbidden(*args, **kwargs):
        raise AssertionError("the Fraction reference path was used")

    for owner, name in [(dynamics, "aggregate_scores"), (weak_orders, "borda_scores"),
                        (weak_orders, "project"), (move_graph, "step")]:
        monkeypatch.setattr(owner, name, forbidden)
    for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        monkeypatch.setattr(Fraction, f"__{op}__", forbidden)
        monkeypatch.setattr(Fraction, f"__r{op}__", forbidden)
    for op in ("lt", "le", "gt", "ge"):
        monkeypatch.setattr(Fraction, f"__{op}__", forbidden)
    # the per-(m, field) tables are rebuilt under the guard, so they too are
    # built in integers
    dynamics._pair_tables.cache_clear()
    again = [sc.run() for sc in scenarios]
    fixed_again = enumerate_fixed_points(GADGET.network, G3, POLICY, GADGET.persistent)
    steps_again = single_steps(zip(scenarios, reports))
    monkeypatch.undo()
    assert again == reports
    assert fixed_again == fixed
    assert steps_again == steps


def test_the_reference_reads_no_kernel():
    # the oracle takes from `dynamics` only the Fraction aggregate and data
    # types, and no module that runs the kernel, so comparing the package
    # with it never compares the kernel with itself
    allowed = {"aggregate_scores", "OrbitReport", "PersistentConfig", "Profile", "Schedule"}
    modules = {"borda_dynamics.dynamics", "borda_dynamics.move_graph", "borda_dynamics.weak_orders"}
    for node in ast.walk(ast.parse(Path(reference.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported = [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported = [(alias.name, None) for alias in node.names]
        else:
            continue
        for module, name in imported:
            if module.split(".")[0] == "borda_dynamics":
                assert module in modules, module
                assert module != "borda_dynamics.dynamics" or name in allowed, name


@pytest.mark.parametrize("m", range(2, 7))
def test_pair_tables_pack_doubled_score_differences_and_key_each_order_once(m):
    space = enumerate_weak_orders(m)
    pairs = list(combinations(range(m), 2))
    # the narrowest field a kernel uses on m alternatives, and a wide one
    for field in (1 << ((4 * (m - 1)).bit_length() - 1).bit_length(), 64):
        packed, keys = dynamics._pair_tables(m, field)
        mask = (1 << field) - 1
        for k, w in enumerate(space):
            b = weak_orders.borda_scores(w)
            assert packed[k] >> len(pairs) * field == 0
            assert [packed[k] >> p * field & mask for p in range(len(pairs))] == [
                2 * (b[x] - b[y]) + 2 * (m - 1) for x, y in pairs]
        # the key dict is a bijection onto the ids
        assert sorted(keys.values()) == list(range(len(space)))


M3_SWAP = (o("x>y>z"), o("z>y>x"))
M3_M4_MIX = (parse_order("x>y>z>u", 4), o("z>y>x"))
SWAP_NET = influence_network([["0", "1"], ["1", "0"]])
G4 = build_cover_graph(4)
ON_G4 = {
    "run-sync": lambda p: run_until_cycle(SWAP_NET, G4, POLICY, FREE, p, Schedule.synchronous()),
    "run-sequence": lambda p: run_until_cycle(SWAP_NET, G4, POLICY, FREE, p, Schedule.sequence([1, 0])),
    "run-uniform": lambda p: run_until_cycle(SWAP_NET, G4, POLICY, FREE, p, Schedule.uniform(0)),
    "kernel-run": lambda p: dynamics._Kernel(SWAP_NET, G4, POLICY, FREE, p).run(Schedule.synchronous(), KERNEL_MAX_STEPS),
    "step-sync": lambda p: step_sync(SWAP_NET, G4, POLICY, FREE, p),
    "step-async": lambda p: step_async(SWAP_NET, G4, POLICY, FREE, p, 1),
    "fixed-points": lambda p: enumerate_fixed_points(
        SWAP_NET, G4, POLICY, PersistentConfig(pins=dict(enumerate(p)))),
}

#: (call, profile, message) per case; `is_fixed_point` takes its graph from the first order's m
REJECTED = {
    f"{name}-{key}": (call, profile, f"node {node} has an order on 3 alternatives, but the move graph is on 4")
    for name, call in ON_G4.items()
    for key, (profile, node) in {"m3": (M3_SWAP, 0), "m3-m4-mix": (M3_M4_MIX, 1)}.items()
}
REJECTED["is-fixed-point-m4-first"] = (lambda p: is_fixed_point(SWAP_NET, FREE, p), M3_M4_MIX,
                                       "node 1 has an order on 3 alternatives, but the move graph is on 4")
REJECTED["is-fixed-point-m3-first"] = (lambda p: is_fixed_point(SWAP_NET, FREE, p), M3_M4_MIX[::-1],
                                       "node 1 has an order on 4 alternatives, but the move graph is on 3")


@pytest.mark.parametrize("call, profile, message", REJECTED.values(), ids=REJECTED.keys())
def test_orders_on_another_alternative_count_are_rejected(call, profile, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(profile)


ON_SWAP = {
    "run-sync": lambda pc, p: run_until_cycle(SWAP_NET, G3, POLICY, pc, p, Schedule.synchronous()),
    "run-sequence": lambda pc, p: run_until_cycle(SWAP_NET, G3, POLICY, pc, p, Schedule.sequence([1])),
    "run-uniform": lambda pc, p: run_until_cycle(SWAP_NET, G3, POLICY, pc, p, Schedule.uniform(0)),
    "kernel-run": lambda pc, p: dynamics._Kernel(SWAP_NET, G3, POLICY, pc, p).run(Schedule.uniform(0), KERNEL_MAX_STEPS),
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
    # equal to node 0 and agreeing with the profile there, yet not a node index
    "pin-text": (PersistentConfig(pins={"a": M3_SWAP[0]}), M3_SWAP,
                 r"^pin at node 'a', but the network's nodes are 0\.\.1$"),
    "pin-bool": (PersistentConfig(pins={False: M3_SWAP[0]}), M3_SWAP,
                 r"^pin at node False, but the network's nodes are 0\.\.1$"),
    # equal to node 1, the node `step-async` schedules: refused as a pin, not read as node 1 pinned
    "pin-true": (PersistentConfig(pins={True: M3_SWAP[1]}), M3_SWAP,
                 r"^pin at node True, but the network's nodes are 0\.\.1$"),
    "pin-mismatch": (PersistentConfig(pins={0: M3_SWAP[1]}), M3_SWAP, "^profile disagrees with pin at node 0$"),
}


@pytest.mark.parametrize("pc, profile, message", BAD_PROFILES.values(), ids=BAD_PROFILES.keys())
@pytest.mark.parametrize("call", ON_SWAP.values(), ids=ON_SWAP.keys())
def test_every_entry_point_checks_the_profile_against_the_network_and_pins(call, pc, profile, message):
    with pytest.raises(ValueError, match=message):
        call(pc, profile)


@pytest.mark.parametrize("node", [5, -1, "a", False])
def test_the_fixed_point_search_refuses_a_pin_outside_the_network(node):
    pc = PersistentConfig(pins={node: o("x>y>z")})
    with pytest.raises(ValueError, match=rf"^pin at node {node!r}, but the network's nodes are 0\.\.1$"):
        enumerate_fixed_points(SWAP_NET, G3, POLICY, pc)


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
