import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from borda_dynamics import weak_orders
from borda_dynamics.move_graph import (
    MoveGraph,
    StepPolicy,
    build_cover_graph,
    distance,
    move_graph_to_dot,
    step,
)
from borda_dynamics.weak_orders import antipode, enumerate_weak_orders, format_order, parse_order
from reference import BudgetExceeded, diameter, find_cycle, paths_between

G3 = build_cover_graph(3)
G4 = build_cover_graph(4)
POLICY = StepPolicy()


def o(text, m=3):
    return parse_order(text, m)


# --- construction ---------------------------------------------------------------

def test_supported_range():
    with pytest.raises(ValueError):
        build_cover_graph(1)
    with pytest.raises(ValueError):
        build_cover_graph(7)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_a_graph_built_from_m_numbers_its_orders_by_canonical_id(m):
    graph = MoveGraph(m)
    assert graph.orders is enumerate_weak_orders(m)
    assert graph._ids is weak_orders._index_map(m)
    assert [graph.id_of(w) for w in graph.orders] == [w.canonical_id for w in graph.orders]


@pytest.mark.parametrize("m", [1, 7])
def test_a_graph_outside_the_supported_range_is_refused(m):
    with pytest.raises(ValueError, match=f"^move graph supported for 2 <= m <= 6, got {m}$"):
        MoveGraph(m)


def test_edge_count_regression():
    assert len(list(G3.edges())) == 18
    assert len(list(G4.edges())) == 158


def test_degree_of_full_tie():
    # ordered splits of a 3-set into two nonempty parts: 2^3 - 2
    assert G3.degree(o("(xyz)")) == 6
    assert G4.degree(parse_order("(xyzu)", 4)) == 14


def test_adjacency_examples():
    a = o("(xy)>z").canonical_id
    b = o("x>y>z").canonical_id
    c = o("x>z>y").canonical_id
    assert b in G3.adjacency[a]
    assert c not in G3.adjacency[b]  # two strict orders are never adjacent


def test_no_cover_edge_joins_two_strict_orders():
    # a cover move splits or merges one class, so one end of every edge has a tie
    for m in range(2, 7):
        graph = build_cover_graph(m)
        strict = [w.is_strict for w in graph.orders]
        assert not any(strict[i] and strict[j] for i, j in graph.edges())


def _is_cover_pair(coarse, fine):
    # independent oracle: fine arises from coarse by splitting one class
    if len(fine.classes) != len(coarse.classes) + 1:
        return False
    for i in range(len(coarse.classes)):
        merged = fine.classes[:i] + (
            tuple(sorted(fine.classes[i] + fine.classes[i + 1])),
        ) + fine.classes[i + 2 :]
        if merged == coarse.classes:
            return True
    return False


@pytest.mark.parametrize("graph", [G3, G4, build_cover_graph(5)])
def test_adjacency_matches_cover_oracle(graph):
    orders = graph.orders
    expected = set()
    for u in orders:
        for v in orders:
            if _is_cover_pair(u, v):
                expected.add((min(u.canonical_id, v.canonical_id), max(u.canonical_id, v.canonical_id)))
    assert set(graph.edges()) == expected


@pytest.mark.parametrize("graph", [G3, G4])
def test_connected_and_bipartite_by_class_parity(graph):
    assert all(d >= 0 for d in _reference_bfs(graph, 0))
    for i, j in graph.edges():
        ki = len(graph.orders[i].classes)
        kj = len(graph.orders[j].classes)
        assert abs(ki - kj) == 1


@pytest.mark.parametrize("graph", [G3, G4])
def test_antipode_is_an_automorphism(graph):
    for i, j in graph.edges():
        ai = antipode(graph.orders[i]).canonical_id
        aj = antipode(graph.orders[j]).canonical_id
        assert aj in graph.adjacency[ai]


# --- distances --------------------------------------------------------------------

def test_distance_examples():
    assert distance(G3, o("x>y>z"), o("x>y>z")) == 0
    assert distance(G3, o("(xy)>z"), o("x>y>z")) == 1
    assert distance(G3, o("x>y>z"), o("z>y>x")) == 4  # regression constant


def test_diameters():
    assert diameter(G3) == 4
    assert diameter(G4) == 6


def _reference_bfs(graph, src):
    # independent BFS written against the adjacency only
    ref = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if v not in ref:
                    ref[v] = ref[u] + 1
                    nxt.append(v)
        frontier = nxt
    return [ref.get(v, -1) for v in range(graph.order_count)]


def test_distance_table_agrees_with_reference_bfs():
    # every source for m = 2..5; 20 seeded sources for m = 6
    sources = {m: range(build_cover_graph(m).order_count) for m in range(2, 6)}
    sources[6] = random.Random(6).sample(range(build_cover_graph(6).order_count), 20)
    for m, srcs in sources.items():
        graph = build_cover_graph(m)
        for src in srcs:
            row = [graph.distance_ids(src, v) for v in range(graph.order_count)]
            assert row == _reference_bfs(graph, src), (m, src)


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=74),
    st.integers(min_value=0, max_value=74),
    st.integers(min_value=0, max_value=74),
)
def test_triangle_inequality(i, j, k):
    d = G4.distance_ids
    assert d(i, j) <= d(i, k) + d(k, j)


# --- bounded step ---------------------------------------------------------------------

def test_step_identity_and_adjacent():
    w = o("x>(yz)")
    assert step(POLICY, G3, w, w) == w
    assert step(POLICY, G3, o("(xy)>z"), o("x>y>z")) == o("x>y>z")


def test_step_tie_break_regression():
    # from x>y>z toward z>y>x both merges decrease distance; min id wins
    assert step(POLICY, G3, o("x>y>z"), o("z>y>x")) == o("x>(yz)")


def test_step_consumes_exactly_one_unit_exhaustive_m3():
    for a in enumerate_weak_orders(3):
        for b in enumerate_weak_orders(3):
            d = distance(G3, a, b)
            moved = step(POLICY, G3, a, b)
            assert distance(G3, moved, b) == max(d - 1, 0)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=74), st.integers(min_value=0, max_value=74))
def test_step_consumes_exactly_one_unit_m4(i, j):
    a, b = G4.orders[i], G4.orders[j]
    d = distance(G4, a, b)
    assert distance(G4, step(POLICY, G4, a, b), b) == max(d - 1, 0)


def test_no_move_on_ambiguity_flag():
    lazy = StepPolicy(allow_no_move_on_ambiguity=True)
    src, dst = o("x>y>z"), o("z>y>x")
    assert step(lazy, G3, src, dst) == src  # two candidates, stays put
    assert step(lazy, G3, o("(xy)>z"), o("x>y>z")) == o("x>y>z")  # unique, moves


@pytest.mark.parametrize("base", [G3, G4], ids=["m3", "m4"])
def test_step_is_the_smallest_id_neighbour_one_unit_closer_exhaustive(base):
    # the step rule's oracle: distances from a BFS written here, candidates
    # scanned here; under no-move-on-ambiguity the step stays put exactly
    # when more than one neighbour is one unit closer
    lazy = StepPolicy(allow_no_move_on_ambiguity=True)
    expected = {}
    for b in range(base.order_count):
        dist = _reference_bfs(base, b)
        for a in range(base.order_count):
            closer = [v for v in base.adjacency[a] if dist[v] == dist[a] - 1]
            eager = min(closer) if closer else a
            expected[a, b] = {POLICY: eager, lazy: a if len(closer) > 1 else eager}
    # each policy first, on a graph whose step cache starts empty
    for policies in ((POLICY, lazy), (lazy, POLICY)):
        graph = MoveGraph(base.m)
        for (a, b), want in expected.items():
            for policy in policies:
                moved = step(policy, graph, graph.orders[a], graph.orders[b])
                assert moved == graph.orders[want[policy]], (a, b, policy)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("lazy", [False, True], ids=["default", "no-move-on-ambiguity"])
def test_resting_ids_are_the_ids_the_step_leaves_in_place(m, lazy):
    graph = MoveGraph(m)
    ids = range(graph.order_count)
    for t in ids:
        assert graph.resting_ids(t, lazy) == tuple(x for x in ids if graph.next_id(x, t, lazy) == x), t
    # from m = 3 on, some ids stall short of their target under no-move-on-ambiguity
    assert (max(len(graph.resting_ids(t, lazy)) for t in ids) > 1) == (lazy and m > 2)


M4_ON_G3 = {
    "distance-first": lambda w: distance(G3, w, o("x>y>z")),
    "distance-second": lambda w: distance(G3, o("x>y>z"), w),
    "step-current": lambda w: step(POLICY, G3, w, o("x>y>z")),
    "step-target": lambda w: step(POLICY, G3, o("x>y>z"), w),
    "degree": lambda w: G3.degree(w),
}


@pytest.mark.parametrize("order_id", [5, 74], ids=["id-inside-m3", "id-beyond-m3"])
@pytest.mark.parametrize("call", M4_ON_G3.values(), ids=M4_ON_G3.keys())
def test_an_order_on_another_alternative_count_is_rejected_at_the_graph(call, order_id):
    # at id 5 a bare canonical id would answer for the wrong order, at 74 it
    # would index past the m = 3 graph
    with pytest.raises(ValueError, match="is on 4 alternatives, not the graph's 3$"):
        call(G4.orders[order_id])


# --- geodesics ---------------------------------------------------------------------------

def test_geodesic_examples():
    def count(a, b):
        return paths_between(G3, o(a).canonical_id, o(b).canonical_id)

    assert count("(xy)>z", "x>y>z") == 1
    assert count("x>y>z", "x>y>z") == 1
    assert count("x>y>z", "z>y>x") == 4  # regression constant
    assert count("x>y>z", "z>y>x") != 1


# --- cycles -----------------------------------------------------------------------------
# `reference.find_cycle` gives the tests their copier-ring starts

def test_find_cycle_rejects_short_lengths():
    with pytest.raises(ValueError):
        find_cycle(G3, 2)


@pytest.mark.parametrize("length", [3, 5, 7])
def test_no_odd_cycles(length):
    assert find_cycle(G3, length) is None


def test_long_cycle_search_stops_at_its_budget():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        find_cycle(G4, 64)
    assert time.perf_counter() - start < 15


def test_four_cycle_regression():
    cycle = find_cycle(G3, 4)
    assert [format_order(w) for w in cycle] == ["x>y>z", "x>(yz)", "(xyz)", "(xy)>z"]
    for r in range(4):
        assert distance(G3, cycle[r], cycle[(r + 1) % 4]) == 1


def test_twelve_cycle_regression():
    cycle = find_cycle(G3, 12)
    assert [format_order(w) for w in cycle] == [
        "x>y>z", "x>(yz)", "x>z>y", "(xz)>y", "(xyz)", "z>(xy)",
        "z>y>x", "(yz)>x", "y>z>x", "y>(xz)", "y>x>z", "(xy)>z",
    ]
    assert len({w.canonical_id for w in cycle}) == 12
    for r in range(12):
        assert distance(G3, cycle[r], cycle[(r + 1) % 12]) == 1


def test_strict_two_class_perimeter_is_also_a_twelve_cycle():
    perimeter = [
        "x>y>z", "x>(yz)", "x>z>y", "(xz)>y", "z>x>y", "z>(xy)",
        "z>y>x", "(yz)>x", "y>z>x", "y>(xz)", "y>x>z", "(xy)>z",
    ]
    orders = [o(t) for t in perimeter]
    assert all(len(w.classes) > 1 for w in orders)
    for r in range(12):
        assert distance(G3, orders[r], orders[(r + 1) % 12]) == 1


# --- export -----------------------------------------------------------------------------

def test_dot_export_is_deterministic():
    dot = move_graph_to_dot(G3)
    assert dot == move_graph_to_dot(G3)
    assert dot.startswith("graph move_graph_m3 {")
    assert dot.count('label="') == 13
    assert dot.count(" -- ") == 18
