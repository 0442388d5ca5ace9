import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from borda_dynamics import weak_orders
from borda_dynamics.errors import BudgetExceededError
from borda_dynamics.move_graph import (
    MoveGraph,
    StepPolicy,
    build_cover_graph,
    distance,
    find_cycle,
    geodesic_count,
    geodesic_unique,
    move_graph_to_dot,
    step,
)
from borda_dynamics.weak_orders import antipode, enumerate_weak_orders, format_order, parse_order

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
    assert G3.edge_count == 18
    assert G4.edge_count == 158


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
    assert G3.diameter == 4
    assert G4.diameter == 6


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
    for m in range(2, 6):
        graph = build_cover_graph(m)
        table = graph.distance_table
        for src in range(graph.order_count):
            assert list(table[src]) == _reference_bfs(graph, src), (m, src)
    graph = build_cover_graph(6)
    for src in random.Random(6).sample(range(graph.order_count), 20):
        row = [graph.distance_ids(src, v) for v in range(graph.order_count)]
        assert row == _reference_bfs(graph, src), (6, src)


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


M4_ON_G3 = {
    "distance-first": lambda w: distance(G3, w, o("x>y>z")),
    "distance-second": lambda w: distance(G3, o("x>y>z"), w),
    "step-current": lambda w: step(POLICY, G3, w, o("x>y>z")),
    "step-target": lambda w: step(POLICY, G3, o("x>y>z"), w),
    "geodesic_count": lambda w: geodesic_count(G3, w, o("x>y>z")),
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
    assert geodesic_unique(G3, o("(xy)>z"), o("x>y>z"))
    assert geodesic_unique(G3, o("x>y>z"), o("x>y>z"))
    assert geodesic_count(G3, o("x>y>z"), o("z>y>x")) == 4  # regression constant
    assert not geodesic_unique(G3, o("x>y>z"), o("z>y>x"))


def _paths_between(graph, a, b, limit):
    # brute-force oracle: enumerate simple paths of exactly the BFS length
    found = 0
    target = graph.distance_ids(a, b)

    def walk(u, depth, seen):
        nonlocal found
        if depth == target:
            if u == b:
                found += 1
            return
        for v in graph.adjacency[u]:
            if v not in seen and graph.distance_ids(v, b) == target - depth - 1:
                walk(v, depth + 1, seen | {v})

    walk(a, 0, {a})
    assert found <= limit
    return found


def test_geodesic_count_matches_path_enumeration():
    for a in range(G3.order_count):
        for b in range(G3.order_count):
            oracle = _paths_between(G3, a, b, limit=10**6)
            assert geodesic_count(G3, G3.orders[a], G3.orders[b]) == oracle


# --- cycles -----------------------------------------------------------------------------

def test_find_cycle_rejects_short_lengths():
    with pytest.raises(ValueError):
        find_cycle(G3, 2)


@pytest.mark.parametrize("length", [3, 5, 7])
def test_no_odd_cycles(length):
    assert find_cycle(G3, length) is None


def test_long_cycle_search_stops_at_its_budget():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
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
    assert all(not w.is_total_tie for w in orders)
    for r in range(12):
        assert distance(G3, orders[r], orders[(r + 1) % 12]) == 1


# --- export -----------------------------------------------------------------------------

def test_dot_export_is_deterministic():
    dot = move_graph_to_dot(G3)
    assert dot == move_graph_to_dot(G3)
    assert dot.startswith("graph move_graph_m3 {")
    assert dot.count('label="') == 13
    assert dot.count(" -- ") == 18
