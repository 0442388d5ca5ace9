import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from borda_dynamics import cli
from borda_dynamics.influence import (
    InfluenceNetwork,
    _crossing_bipartition,
    _perturb_rows,
    _row_over_lcd,
    class_structure,
    influence_network,
    network_to_dot,
    normalize_random_walk,
    perturb_weights,
    reach,
    seeded_random_network,
    verify_minus_one_mode,
)
from borda_dynamics.scenarios import load_scenario

import reference


def support_only_network(n, arcs):
    """Network whose support is exactly `arcs` (j -> i), weights uniform per row."""
    rows = []
    for i in range(n):
        ins = [j for j in range(n) if (j, i) in arcs]
        if not ins:
            raise ValueError(f"node {i} has no in-arc")
        rows.append([Fraction(1, len(ins)) if j in ins else Fraction(0) for j in range(n)])
    return influence_network(rows)


# --- construction and normalization -----------------------------------------------

def test_rows_must_sum_to_one():
    with pytest.raises(ValueError):
        influence_network([[Fraction(1, 2), Fraction(1, 3)], [0, 1]])
    with pytest.raises(ValueError):
        influence_network([[Fraction(3, 2), Fraction(-1, 2)], [0, 1]])


def test_validation_messages_name_the_row():
    with pytest.raises(ValueError, match=r"^negative weight in row 0$"):
        influence_network([["3/2", "-1/2"], ["0", "1"]])
    with pytest.raises(ValueError, match=r"^row 0 sums to 5/6, expected exactly 1$"):
        influence_network([["1/2", "1/3"], ["0", "1"]])
    with pytest.raises(ValueError, match=r"^row 1 sums to 0, expected exactly 1$"):
        influence_network([["0", "1"], [0, "0"]])


@st.composite
def weight_rows(draw):
    """Row-stochastic rows given as Fractions, ints and strings, zeros included."""
    n = draw(st.integers(1, 6))
    rows = []
    for i in range(n):
        raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if not any(raw):
            raw[i] = 1
        total = sum(raw)
        coerce = draw(st.sampled_from([lambda w: Fraction(w, total), lambda w: f"{w}/{total}"]))
        rows.append([0 if w == 0 and draw(st.booleans()) else coerce(w) for w in raw])
    return rows


@given(weight_rows(), st.booleans(), st.integers(0, 10**6))
@settings(deadline=None, max_examples=100)
def test_rows_hold_the_nonzero_entries(rows, perturb, seed):
    net = influence_network(rows)
    if perturb:
        net = perturb_weights(net, Fraction(1, 10), seed)
    for i in range(net.n):
        assert net.rows[i] == tuple((j, w) for j, w in enumerate(net.weights[i]) if w != 0)
        assert net.in_neighbors(i) == tuple(j for j, w in enumerate(net.weights[i]) if w > 0)
        assert all(type(w) is Fraction for w in net.weights[i])
    assert InfluenceNetwork(net.rows, net.names) == net
    assert influence_network(net.weights, net.names) == net


F = Fraction
# row 1 of a three-node network whose rows 0 and 2 are valid, and the message's tail
MALFORMED_ROWS = {
    "float": (((0, 0.5), (2, F(1, 2))), "has weight 0.5, expected a Fraction"),
    "bool": (((0, True),), "has weight True, expected a Fraction"),
    "unsorted-column": (((2, F(1, 2)), (0, F(1, 2))), "has column 0 out of order"),
    "duplicate-column": (((0, F(1, 2)), (0, F(1, 2))), "has column 0 out of order"),
    "column-out-of-range": (((0, F(1, 2)), (3, F(1, 2))), "has column 3 out of order or outside 0..2"),
    "stored-zero": (((0, F(0)), (2, F(1))), "^zero weight in row 1$"),
    "negative-weight": (((0, F(3, 2)), (2, F(-1, 2))), "^negative weight in row 1$"),
    "sum-not-one": (((0, F(1, 2)), (2, F(1, 3))), "^row 1 sums to 5/6, expected exactly 1$"),
}


@pytest.mark.parametrize("row, message", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_malformed_sparse_rows_are_rejected_naming_the_row(row, message):
    with pytest.raises(ValueError, match=r"\brow 1\b") as caught:
        InfluenceNetwork((((1, F(1)),), row, ((0, F(1)),)), ("a", "b", "c"))
    assert re.search(message, str(caught.value))


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10**4), min_size=1, max_size=6),
       st.booleans())
@settings(deadline=None, max_examples=200)
def test_a_row_is_accepted_exactly_when_its_fraction_sum_is_one(weights, complete):
    # the constructor sums in integers over a common denominator; the
    # Fraction sum is the oracle for both the verdict and the message
    weights = [w for w in weights if w > 0] or [Fraction(1)]
    if complete and sum(weights[:-1]) < 1:
        weights[-1] = Fraction(1) - sum(weights[:-1])
    row = tuple(enumerate(weights))
    rows = (row,) + tuple(((0, Fraction(1)),) for _ in weights[1:])
    names = tuple(str(k) for k in range(len(weights)))
    total = sum(weights)
    if total == 1:
        assert InfluenceNetwork(rows, names).rows[0] == row
    else:
        with pytest.raises(ValueError, match=rf"^row 0 sums to {total}, expected exactly 1$"):
            InfluenceNetwork(rows, names)


def test_a_float_matrix_that_sums_to_one_is_rejected():
    with pytest.raises(ValueError, match=r"\brow 0\b"):
        InfluenceNetwork(((0.5, 0.5), (0.5, 0.5)), ("a", "b"))


@pytest.mark.parametrize("rows, row", [([[0.5, 0.5], ["1", 0]], 0), ([["1/2", "1/2"], [True, 0]], 1)],
                         ids=["float", "bool"])
def test_dense_float_and_bool_entries_are_rejected_naming_the_row(rows, row):
    # 0.5 and True would coerce to exact Fractions; a weight must be exact as written
    with pytest.raises(ValueError, match=rf"^row {row} has entry "):
        influence_network(rows)


@pytest.mark.parametrize("zero", [0, "0", "0/5", Fraction(0)], ids=["int", "str", "p/q", "Fraction"])
def test_dense_zeros_in_every_spelling_are_dropped(zero):
    net = influence_network([[zero, "1/2", "1/2"], [1, zero, zero], [zero, Fraction(1), 0]])
    assert net.rows == (((1, F(1, 2)), (2, F(1, 2))), ((0, F(1)),), ((1, F(1)),))


@pytest.mark.parametrize("bad", [0.0, 0.5, False, True])
@pytest.mark.parametrize("column", range(3))
def test_a_dense_float_or_bool_in_any_column_is_rejected(bad, column):
    rows = [["1/2", "1/2", 0], ["0", "0", "1"], [1, 0, 0]]
    rows[1][column] = bad
    message = f"row 1 has entry {bad!r}, expected a Fraction, an int or a p/q string"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        influence_network(rows)


def test_a_network_built_from_lists_equals_the_tuple_one_and_hashes():
    half, one = Fraction(1, 2), Fraction(1)
    from_lists = InfluenceNetwork([[[1, half], [2, half]], [(0, one)], [[0, one]]], ["a", "b", "c"])
    from_tuples = InfluenceNetwork((((1, half), (2, half)), ((0, one),), ((0, one),)), ("a", "b", "c"))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert from_lists.rows == from_tuples.rows and from_lists.names == ("a", "b", "c")


def test_normalize_two_nodes():
    net = normalize_random_walk(2, [(0, 1)])
    assert net.weights == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def test_normalize_four_cycle():
    net = normalize_random_walk(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for i in range(4):
        assert sorted(w for w in net.weights[i] if w > 0) == [Fraction(1, 2), Fraction(1, 2)]


def test_normalize_triangle():
    net = normalize_random_walk(3, [(0, 1), (1, 2), (0, 2)])
    for i in range(3):
        assert sum(net.weights[i]) == 1
        assert net.weights[i][i] == 0


def test_normalize_rejects_isolated_vertex():
    with pytest.raises(ValueError):
        normalize_random_walk(3, [(0, 1)])


def test_normalize_rejects_self_loop():
    # the scenario reader refuses a self-loop by its edge path first; API callers meet this check
    with pytest.raises(ValueError, match="^self-loop at node 1 not allowed in random-walk normalization$"):
        normalize_random_walk(3, [(0, 1), (1, 1), (1, 2)])


NETWORK_REFUSALS = {
    "name-count": (lambda: InfluenceNetwork((((0, F(1)),), ((1, F(1)),)), ("a",)), "^1 names for 2 nodes$"),
    "repeated-names": (lambda: InfluenceNetwork((((0, F(1)),), ((1, F(1)),)), ("a", "a")),
                       "^node names must be distinct$"),
    "short-dense-row": (lambda: influence_network([["1"], ["0", "1"]]), "^row 0 has length 1, expected 2$"),
    "seeded-one-node": (lambda: seeded_random_network(1, 0), "^need at least two nodes$"),
}


@pytest.mark.parametrize("call, message", NETWORK_REFUSALS.values(), ids=NETWORK_REFUSALS.keys())
def test_a_network_builder_refuses_a_malformed_shape(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_network_needs_a_node():
    with pytest.raises(ValueError, match="at least one node"):
        influence_network([])
    with pytest.raises(ValueError, match="at least one node"):
        normalize_random_walk(0, [])


# --- reachability ---------------------------------------------------------------------

def test_reach_examples():
    chain = support_only_network(3, {(0, 0), (0, 1), (1, 2)})  # p -> a -> b
    assert reach(chain, []) == frozenset()
    assert reach(chain, [0]) == frozenset({0, 1, 2})
    two_parts = support_only_network(4, {(0, 1), (1, 0), (2, 3), (3, 2)})
    assert reach(two_parts, [0]) == frozenset({0, 1})


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=6))
def test_reach_is_monotone(seed, n):
    net = seeded_random_network(n, seed)
    rng = random.Random(seed)
    small = {i for i in range(n) if rng.random() < 0.4}
    big = small | {rng.randrange(n)}
    assert reach(net, small) <= reach(net, big)


# --- class structure -------------------------------------------------------------------

def test_directed_three_cycle_has_period_three():
    net = support_only_network(3, {(0, 1), (1, 2), (2, 0)})
    cs = class_structure(net, [0, 1, 2])
    assert cs.closed_classes == ((0, 1, 2),)
    assert cs.period_of[(0, 1, 2)] == 3


def test_undirected_four_cycle_has_period_two_with_opposite_pairs():
    net = normalize_random_walk(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    cs = class_structure(net, [0, 1, 2, 3])
    assert cs.period_of[(0, 1, 2, 3)] == 2
    assert cs.cyclic_parts[(0, 1, 2, 3)] == ((0, 2), (1, 3))


def test_undirected_triangle_has_period_one():
    net = normalize_random_walk(3, [(0, 1), (1, 2), (0, 2)])
    cs = class_structure(net, [0, 1, 2])
    assert cs.period_of[(0, 1, 2)] == 1


def test_open_class_is_not_closed():
    # 0 <-> 1 strongly connected but 0 also listens to free node 2
    arcs = {(0, 1), (1, 0), (2, 0), (2, 2)}
    net = support_only_network(3, arcs)
    cs = class_structure(net, [0, 1, 2])
    assert (0, 1) in cs.sccs
    assert (0, 1) not in cs.closed_classes
    assert cs.period_of[(2,)] == 1  # self-loop is a cycle of length 1


def test_arcless_singleton_class_has_period_zero():
    # free node 0 hears only the pinned node 1
    net = support_only_network(2, {(1, 0), (1, 1)})
    cs = class_structure(net, [0])
    assert cs.closed_classes == ((0,),)
    assert cs.period_of[(0,)] == 0


def _simple_cycle_lengths(nodes, succ):
    # oracle: enumerate all simple cycles by DFS with a fixed smallest start
    lengths = set()
    nodes = sorted(nodes)

    def walk(start, u, depth, seen):
        for v in succ[u]:
            if v == start:
                lengths.add(depth)
            elif v > start and v not in seen:
                walk(start, v, depth + 1, seen | {v})

    for s in nodes:
        walk(s, s, 1, {s})
    return lengths


def _closure_scc_partition(nodes, succ):
    # oracle: mutual reachability via boolean transitive closure
    nodes = sorted(nodes)
    reachable = {u: {u} for u in nodes}
    changed = True
    while changed:
        changed = False
        for u in nodes:
            for v in list(reachable[u]):
                for w in succ[v]:
                    if w not in reachable[u]:
                        reachable[u].add(w)
                        changed = True
    comps = set()
    for u in nodes:
        comp = tuple(sorted(v for v in nodes if v in reachable[u] and u in reachable[v]))
        comps.add(comp)
    return comps


def _check_structure_against_oracles(net, free):
    free_set = set(free)
    weights = net.weights
    succ = {
        j: [i for i in range(net.n) if weights[i][j] > 0 and i in free_set] for j in free
    }
    cs = class_structure(net, free)
    assert set(cs.sccs) == _closure_scc_partition(free, succ)
    from math import gcd

    for comp in cs.closed_classes:
        comp_set = set(comp)
        comp_succ = {u: [v for v in succ[u] if v in comp_set] for u in comp}
        lengths = _simple_cycle_lengths(comp, comp_succ)
        expected = 0
        for length in lengths:
            expected = gcd(expected, length)
        assert cs.period_of[comp] == expected
        if expected == 2:
            side_a, side_b = cs.cyclic_parts[comp]
            assert sorted(side_a + side_b) == list(comp)
            for u in comp:
                for v in comp_succ[u]:
                    assert (u in side_a) != (v in side_a)  # every arc crosses


def test_period_gcd_matches_cycle_oracle_exhaustively_n3():
    pairs = [(j, i) for i in range(3) for j in range(3)]
    count = 0
    for mask in range(1 << 9):
        arcs = {pairs[k] for k in range(9) if mask >> k & 1}
        if any(not any((j, i) in arcs for j in range(3)) for i in range(3)):
            continue  # every node needs an in-arc to be row-stochastic
        net = support_only_network(3, arcs)
        _check_structure_against_oracles(net, [0, 1, 2])
        count += 1
    assert count > 100


@pytest.mark.parametrize("seed", range(25))
def test_period_gcd_matches_cycle_oracle_seeded_n6(seed):
    net = seeded_random_network(6, seed)
    rng = random.Random(seed)
    free = [i for i in range(6) if rng.random() < 0.8] or [0]
    _check_structure_against_oracles(net, free)


@st.composite
def support_digraphs(draw):
    """Support arcs (j, i) on 1..9 nodes, one to three in-arcs per node, self-loops
    allowed, and a free subset of the nodes (possibly empty)."""
    n = draw(st.integers(1, 9))
    arcs = set()
    for i in range(n):
        arcs |= {(j, i) for j in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))}
    free = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return support_only_network(n, arcs), [i for i in range(n) if free[i]]


@given(support_digraphs())
@settings(deadline=None, max_examples=200)
def test_class_structure_matches_the_oracles_on_random_digraphs(graph):
    _check_structure_against_oracles(*graph)


@given(support_digraphs())
@settings(deadline=None, max_examples=200)
def test_crossing_bipartition_exists_iff_no_odd_cycle(graph):
    net, free = graph
    free_arcs = [(j, i) for i in free for j in net.in_neighbors(i) if j in free]
    # oracle: the undirected free-free graph has no odd cycle iff some
    # 2-colouring of the free nodes puts the ends of every arc apart
    two_colourable = any(
        all(colour[free.index(j)] != colour[free.index(i)] for j, i in free_arcs)
        for colour in itertools.product((0, 1), repeat=len(free))
    )
    parts = _crossing_bipartition(net, free)
    assert (parts is not None) == two_colourable
    if parts is not None:
        side_a, side_b = parts
        assert sorted(side_a + side_b) == free
        assert all((j in side_a) != (i in side_a) for j, i in free_arcs)


def test_structure_walks_do_not_recurse_on_deep_networks():
    n = 50_000
    ring = InfluenceNetwork(tuple((((i - 1) % n, Fraction(1)),) for i in range(n)), [str(i) for i in range(n)])
    path = normalize_random_walk(n, [(i, i + 1) for i in range(n - 1)])
    everyone = range(n)
    assert class_structure(ring, everyone).period_of == {tuple(everyone): n}
    cs = class_structure(path, everyone)
    assert cs.period_of == {tuple(everyone): 2}
    assert cs.cyclic_parts[tuple(everyone)] == (tuple(everyone[0::2]), tuple(everyone[1::2]))
    for net in (ring, path):
        assert reach(net, [0]) == frozenset(everyone)
        assert _crossing_bipartition(net, everyone) == (tuple(everyone[0::2]), tuple(everyone[1::2]))
    assert reach(ring, [n - 1]) == frozenset(everyone)


# --- the -1 eigenmode ----------------------------------------------------------------------

def test_minus_one_mode_four_cycle():
    net = normalize_random_walk(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert verify_minus_one_mode(net, ((0, 2), (1, 3)))


def test_minus_one_mode_star():
    net = normalize_random_walk(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert verify_minus_one_mode(net, ((0,), (1, 2, 3, 4)))


def test_minus_one_mode_fails_on_triangle_parts():
    net = normalize_random_walk(3, [(0, 1), (1, 2), (0, 2)])
    assert not verify_minus_one_mode(net, ((0,), (1, 2)))


def test_minus_one_mode_rejects_overlapping_parts():
    net = normalize_random_walk(2, [(0, 1)])
    with pytest.raises(ValueError):
        verify_minus_one_mode(net, ((0,), (0, 1)))


@given(st.integers(min_value=0, max_value=100))
@settings(deadline=None)
def test_minus_one_mode_on_random_bipartite_graphs(seed):
    n, edges, parts = reference.seeded_random_bipartite(3, 4, seed)
    net = normalize_random_walk(n, edges)
    assert verify_minus_one_mode(net, parts)


# --- perturbation ----------------------------------------------------------------------------

GADGET_ROWS = [
    ["0", "9/10", "1/10", "0"],
    ["9/10", "0", "0", "1/10"],
    ["0", "0", "1", "0"],
    ["0", "0", "0", "1"],
]


def test_perturb_zero_eps_is_identity():
    net = influence_network(GADGET_ROWS)
    assert perturb_weights(net, Fraction(0), seed=5) == net


def test_perturb_balances_two_entry_row():
    net = normalize_random_walk(2, [(0, 1)])
    # single-entry rows are forced to weight 1 and must stay put
    assert perturb_weights(net, Fraction(1, 10), seed=1) == net

    half = influence_network([["1/2", "1/2"], ["0", "1"]])
    out = perturb_weights(half, Fraction(1, 10), seed=1)
    a, b = out.weights[0]
    assert a + b == 1
    assert abs(a - Fraction(1, 2)) <= Fraction(1, 10)
    assert abs(b - Fraction(1, 2)) <= Fraction(1, 10)


@pytest.mark.parametrize("seed", range(20))
def test_perturb_keeps_support_stochasticity_and_bound(seed):
    net = influence_network(GADGET_ROWS)
    eps = Fraction(1, 10)
    out = perturb_weights(net, eps, seed)
    assert out.names == net.names
    for i in range(net.n):
        assert sum(out.weights[i]) == 1
        for j in range(net.n):
            assert (out.weights[i][j] > 0) == (net.weights[i][j] > 0)
            assert abs(out.weights[i][j] - net.weights[i][j]) <= eps


def test_perturb_is_deterministic_per_seed():
    net = influence_network(GADGET_ROWS)
    assert perturb_weights(net, Fraction(1, 100), 3) == perturb_weights(net, Fraction(1, 100), 3)
    assert perturb_weights(net, Fraction(1, 100), 3) != perturb_weights(net, Fraction(1, 100), 4)


def test_perturb_draws_one_number_per_support_entry_in_row_order():
    # row 0 is forced but still takes its draw, so row 2 gets the same numbers as ever
    net = influence_network([["0", "1", "0"], ["1/2", "0", "1/2"], ["1/3", "1/3", "1/3"]])
    out = perturb_weights(net, Fraction(1, 10), seed=7)
    assert [[str(w) for w in row] for row in out.weights] == [
        ["0", "1", "0"],
        ["3/5", "0", "2/5"],
        ["20474771/59717580", "25308707/59717580", "7/30"],
    ]


def test_perturb_rejects_negative_eps():
    net = influence_network(GADGET_ROWS)
    with pytest.raises(ValueError):
        perturb_weights(net, Fraction(-1, 10), seed=0)


@pytest.mark.parametrize("eps", [0.1, 0.0, True, False])
def test_perturb_refuses_a_float_or_bool_eps(eps):
    # 0.1 would perturb by its binary value and True would act as eps = 1
    net = influence_network(GADGET_ROWS)
    with pytest.raises(ValueError, match="must be exact"):
        perturb_weights(net, eps, seed=3)


def test_perturb_takes_an_int_or_string_eps_as_its_fraction():
    net = influence_network(GADGET_ROWS)
    assert perturb_weights(net, 1, seed=3) == perturb_weights(net, Fraction(1), seed=3)
    assert perturb_weights(net, "1/10", seed=3) == perturb_weights(net, Fraction(1, 10), seed=3)


PERTURB_EPS = [Fraction(0), Fraction(1, 480), Fraction(1, 10), Fraction(1), Fraction(7, 3)]


@given(weight_rows(), st.sampled_from(PERTURB_EPS), st.integers(0, 10**6), st.booleans())
@example([["0", "1", "0"], ["1/2", "0", "1/2"], ["1/3", "1/3", "1/3"]], Fraction(7, 3), 7, False)
@example([["1"]], Fraction(1, 10), 0, False)
@settings(deadline=None, max_examples=300)
def test_integer_perturbation_equals_the_fraction_formula(rows, eps, seed, perturbed):
    """Networks of 1 to 6 nodes with weights k/total, k in 0..3 (so rows of one
    entry occur), optionally perturbed once before so denominators reach about
    10**6; eps in {0, 1/480, 1/10, 1, 7/3}; any seed."""
    net = influence_network(rows)
    if perturbed:
        net = reference.perturb_weights(net, Fraction(1, 7), seed + 1)
    assert perturb_weights(net, eps, seed).rows == reference.perturb_weights(net, eps, seed).rows


@st.composite
def lcd_networks(draw):
    """A network from `weight_rows` or random-walk weights on a random graph
    with a spanning path, perturbed by `perturb_weights` or not."""
    if draw(st.booleans()):
        net = influence_network(draw(weight_rows()))
    else:
        n = draw(st.integers(2, 7))
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
        net = normalize_random_walk(n, [(i, i + 1) for i in range(n - 1)] + [(u, v) for u, v in extra if u != v])
    if draw(st.booleans()):
        net = perturb_weights(net, draw(st.sampled_from(PERTURB_EPS)), draw(st.integers(0, 10**6)))
    return net


@given(lcd_networks())
@settings(deadline=None, max_examples=200)
def test_a_network_keeps_each_row_lcd_and_each_row_scales_over_it_exactly(net):
    assert len(net.lcds) == net.n
    for i, row in enumerate(net.rows):
        assert net.lcds[i] == math.lcm(*(w.denominator for _, w in row)), i
        scaled, d = _row_over_lcd(row, net.lcds[i])
        assert type(scaled) is tuple and d == net.lcds[i]
        assert tuple((j, Fraction(w, d)) for j, w in scaled) == row, i


@pytest.mark.parametrize("row", [
    (((1, 1), (2, 1)), 3),  # 1/3 + 1/3 sums to 2/3
    (((1, 0), (2, 2)), 2),  # a zero entry stays zero: the cap min(eps, 0/2) is 0
], ids=["short-sum", "zero-entry"])
def test_an_integer_row_that_is_not_a_positive_row_of_sum_one_is_refused(row):
    # the checks InfluenceNetwork makes on every row, made on each perturbed one
    with pytest.raises(ValueError, match="row 1 is not positive or does not sum to its scale"):
        _perturb_rows([(((0, 1),), 1), row], Fraction(1, 10), seed=1)


# --- export -------------------------------------------------------------------------------------

def test_network_dot_export():
    net = influence_network(GADGET_ROWS, ["i", "j", "p", "q"])
    dot = network_to_dot(net)
    assert dot.startswith("digraph influence {")
    assert 'n1 -> n0 [label="9/10"];' in dot
    assert dot == network_to_dot(net)


# --- the stored form --------------------------------------------------------------------------

def test_the_package_never_reads_the_dense_view(monkeypatch, scenario_dir):
    def forbidden(self):
        raise AssertionError("the dense weights view was read")

    monkeypatch.setattr(InfluenceNetwork, "weights", property(forbidden))
    scenario_files = sorted(p for p in scenario_dir.glob("*.json") if not p.name.startswith("suite"))
    assert len(scenario_files) == 9
    for path in scenario_files:
        sc = load_scenario(path)
        sc.run()
        class_structure(sc.network, sc.persistent.free_nodes(sc.network.n))
        reach(sc.network, sc.persistent.pins)
        assert cli.main(["export-dot", "--scenario", str(path)]) == 0
    for suite in ("suite_default.json", "suite_controls.json"):
        assert cli.main(["verify", str(scenario_dir / suite)]) == 0
    with pytest.raises(AssertionError, match="dense weights view"):
        sc.network.weights
