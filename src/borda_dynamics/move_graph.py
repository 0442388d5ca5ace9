"""Cover graph of the weak-order lattice and the deterministic bounded step.

Two weak orders are adjacent when one arises from the other by splitting a
single indifference class into two consecutive nonempty classes (or merging
two adjacent classes, the inverse move).  An order is the chain of its cuts,
the alternative sets of its proper prefixes of classes; a split adds one cut
and a merge drops one.  So the distance of two orders is the number of cuts
exactly one of them has: an edge changes that number by one, and since any
subset of a chain is a chain, dropping the first order's extra cuts one by
one and then adding the second's is a path of that length.

The bounded step advances one edge along a shortest path toward a target
order, breaking ties by smallest canonical id.  `MoveGraph(m)` numbers the
orders of `enumerate_weak_orders(m)` by position, so its ids are canonical
ids by construction.  It is the one place where orders become ids (`id_of`)
and where the step is decided, by id: each target's `_StepRow` under each
policy (`step_rows`, `next_id`), with the ids that step leaves in place
(`resting_ids`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .weak_orders import MAX_ALTERNATIVES, WeakOrder, _index_map, enumerate_weak_orders, format_order


@dataclass(frozen=True)
class StepPolicy:
    """Deterministic tie-breaking for the bounded step.

    With `allow_no_move_on_ambiguity` the step stays put whenever several
    neighbors decrease the distance; by default it always moves to the
    distance-decreasing neighbor of smallest canonical id.
    """

    allow_no_move_on_ambiguity: bool = False


class MoveGraph:
    """Undirected cover graph on the weak orders for 2 <= m <= 6, by canonical id.

    `cuts[i]` is order i's chain of cuts as one bitmask: bit p is set when
    the alternative set with bitmask p is a cut.  Dropping a cut merges two
    adjacent classes, so `adjacency` derives from `cuts`, and the distance of
    two ids is the number of cuts exactly one of them has.  `id_of` is one
    lookup in the class-sequence -> canonical id dict of `weak_orders`.  The
    step rows (`step_rows`) are the only lazy state.
    """

    def __init__(self, m: int):
        if not 2 <= m <= MAX_ALTERNATIVES:
            raise ValueError(f"move graph supported for 2 <= m <= {MAX_ALTERNATIVES}, got {m}")
        self.m = m
        self.orders = orders = enumerate_weak_orders(m)
        self.cuts = tuple(map(_cuts, orders))
        index = {c: i for i, c in enumerate(self.cuts)}
        neighbors: list[list[int]] = [[] for _ in orders]
        for i, c in enumerate(self.cuts):
            rest = c
            while rest:  # drop each cut in turn, lowest bit first
                j = index[c & ~(rest & -rest)]
                neighbors[i].append(j)
                neighbors[j].append(i)
                rest &= rest - 1
        self.adjacency = tuple(tuple(sorted(nb)) for nb in neighbors)
        self._ids = _index_map(m)
        self._steps = tuple(tuple(_StepRow(self.cuts, self.adjacency, t, stay) for t in range(len(orders)))
                            for stay in (False, True))

    @property
    def order_count(self) -> int:
        return len(self.orders)

    def edges(self):
        """All edges as (i, j) id pairs with i < j, in id order."""
        for i, nb in enumerate(self.adjacency):
            for j in nb:
                if i < j:
                    yield i, j

    def id_of(self, order: WeakOrder) -> int:
        """Canonical id of `order`, which must be on the graph's m alternatives."""
        k = self._ids.get(order.classes)
        if k is None:
            raise ValueError(f"{format_order(order)} is on {order.m} alternatives, not the graph's {self.m}")
        return k

    def degree(self, order: WeakOrder) -> int:
        return len(self.adjacency[self.id_of(order)])

    def distance_ids(self, a: int, b: int) -> int:
        """Shortest-path hop count between two ids: the cuts exactly one has."""
        return (self.cuts[a] ^ self.cuts[b]).bit_count()

    def step_rows(self, stay_on_ambiguity: bool) -> tuple[_StepRow, ...]:
        """The `_StepRow` of each target id under one policy."""
        return self._steps[stay_on_ambiguity]

    def next_id(self, current: int, target: int, stay_on_ambiguity: bool) -> int:
        """Id one bounded step from `current` toward `target` (see `_StepRow`)."""
        return self._steps[stay_on_ambiguity][target][current]

    def resting_ids(self, target: int, stay_on_ambiguity: bool) -> tuple[int, ...]:
        """The ids, ascending, whose step toward `target` leaves them in place:
        `target` alone, or under `stay_on_ambiguity` also every id with
        several neighbours one unit closer."""
        if not stay_on_ambiguity:
            return (target,)
        row = self._steps[True][target]
        return tuple(x for x in range(self.order_count) if row[x] == x)


class _StepRow(dict):
    """The bounded steps toward one target under one policy: by current id,
    the id one step moves to.  A step is decided the first time it is read
    and then kept: `current` itself when it is the target, or under
    `stay_on_ambiguity` when several neighbours are one unit closer; else
    the neighbour of smallest id one unit closer."""

    __slots__ = ("cuts", "adjacency", "target", "stay_on_ambiguity")

    def __init__(self, cuts: tuple[int, ...], adjacency: tuple[tuple[int, ...], ...], target: int,
                 stay_on_ambiguity: bool):
        self.cuts, self.adjacency, self.target, self.stay_on_ambiguity = cuts, adjacency, target, stay_on_ambiguity

    def __missing__(self, current: int) -> int:
        if current == self.target:
            nxt = current
        else:
            cuts, goal = self.cuts, self.cuts[self.target]
            want = (cuts[current] ^ goal).bit_count() - 1
            candidates = [v for v in self.adjacency[current] if (cuts[v] ^ goal).bit_count() == want]
            nxt = current if self.stay_on_ambiguity and len(candidates) > 1 else candidates[0]
        self[current] = nxt
        return nxt


def _cuts(order: WeakOrder) -> int:
    """The chain of cuts of `order` (the alternatives of each proper prefix of
    its classes) as one bitmask over the cuts' own bitmasks."""
    cuts = prefix = 0
    for cls in order.classes[:-1]:
        for a in cls:
            prefix |= 1 << a
        cuts |= 1 << prefix
    return cuts


@lru_cache(maxsize=None)
def build_cover_graph(m: int) -> MoveGraph:
    """The cover graph on m alternatives, cached (graphs are immutable)."""
    return MoveGraph(m)


def distance(graph: MoveGraph, order1: WeakOrder, order2: WeakOrder) -> int:
    """Exact shortest-path hop count between two orders."""
    return graph.distance_ids(graph.id_of(order1), graph.id_of(order2))


def step(policy: StepPolicy, graph: MoveGraph, current: WeakOrder, target: WeakOrder) -> WeakOrder:
    """One bounded step from `current` toward `target`, as `_StepRow` decides it."""
    nxt = graph.next_id(graph.id_of(current), graph.id_of(target), policy.allow_no_move_on_ambiguity)
    return graph.orders[nxt]


def move_graph_to_dot(graph: MoveGraph) -> str:
    """DOT export with vertices labeled by order text, in canonical id order."""
    lines = [f"graph move_graph_m{graph.m} {{"]
    for i, w in enumerate(graph.orders):
        lines.append(f'  n{i} [label="{format_order(w)}"];')
    for i, j in graph.edges():
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
