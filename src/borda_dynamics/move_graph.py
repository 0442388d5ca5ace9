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
and where the step is decided, by id (`next_id`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError
from .weak_orders import MAX_ALTERNATIVES, WeakOrder, _index_map, enumerate_weak_orders, format_order

#: most path extensions one `find_cycle` call may make (about a second)
FIND_CYCLE_BUDGET = 10**6


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
    step rows are the only lazy state: one per target, holding by current id
    -1 until asked, else the first candidate, plus order_count if ambiguous.
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
        self._steps: dict[int, array] = {}

    @property
    def order_count(self) -> int:
        return len(self.orders)

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.adjacency) // 2

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

    def next_id(self, current: int, target: int, stay_on_ambiguity: bool) -> int:
        """Id one bounded step from `current` toward `target`: the neighbour of
        smallest id one unit closer, or `current` under `stay_on_ambiguity`
        when several neighbours are."""
        if current == target:
            return current
        row = self._steps.get(target)
        if row is None:
            row = self._steps[target] = array("h", [-1]) * self.order_count
        first = row[current]
        if first < 0:
            cuts, goal = self.cuts, self.cuts[target]
            want = (cuts[current] ^ goal).bit_count() - 1
            candidates = [v for v in self.adjacency[current] if (cuts[v] ^ goal).bit_count() == want]
            first = row[current] = candidates[0] + len(row) * (len(candidates) > 1)
        return first if first < len(row) else (current if stay_on_ambiguity else first - len(row))

    @property
    def distance_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple((a ^ b).bit_count() for b in self.cuts) for a in self.cuts)

    @property
    def diameter(self) -> int:
        return max(map(max, self.distance_table))


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
    """One bounded step from `current` toward `target`, as `MoveGraph.next_id` decides it."""
    nxt = graph.next_id(graph.id_of(current), graph.id_of(target), policy.allow_no_move_on_ambiguity)
    return graph.orders[nxt]


def geodesic_count(graph: MoveGraph, order1: WeakOrder, order2: WeakOrder) -> int:
    """Number of distinct shortest paths, counted over distance layers."""
    a = graph.id_of(order1)
    b = graph.id_of(order2)
    dist = [graph.distance_ids(a, v) for v in range(graph.order_count)]
    counts = [0] * graph.order_count
    counts[a] = 1
    for v in sorted(range(graph.order_count), key=lambda v: dist[v]):
        if v == a:
            continue
        counts[v] = sum(counts[u] for u in graph.adjacency[v] if dist[u] == dist[v] - 1)
    return counts[b]


def geodesic_unique(graph: MoveGraph, order1: WeakOrder, order2: WeakOrder) -> bool:
    """True when exactly one shortest path joins the two orders."""
    return geodesic_count(graph, order1, order2) == 1


def find_cycle(graph: MoveGraph, length: int) -> tuple[WeakOrder, ...] | None:
    """First simple cycle of exactly `length` vertices in deterministic DFS order.

    The search fixes the smallest vertex of the cycle as the start and visits
    neighbors in increasing id; returns None when no such cycle exists.
    Every edge changes the number of classes by one, so the graph is
    bipartite and an odd length has no cycle.  Raises BudgetExceededError
    once the search has extended its path FIND_CYCLE_BUDGET times.
    """
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    if length % 2:
        return None
    adjacency = graph.adjacency
    extensions = 0
    for start in range(graph.order_count):
        back = [graph.distance_ids(start, v) for v in range(graph.order_count)]
        path = [start]
        on_path = {start}
        # one neighbour iterator per path vertex; no recursion, so a long
        # cycle cannot exhaust the call stack
        pending = [iter(adjacency[start])]
        while pending:
            v = next(pending[-1], None)
            if v is None:
                pending.pop()
                on_path.discard(path.pop())
                continue
            # only cycles whose minimum vertex is `start`; prune vertices
            # too far from start to close the cycle in time
            if v <= start or v in on_path or back[v] > length - len(path):
                continue
            extensions += 1
            if extensions > FIND_CYCLE_BUDGET:
                raise BudgetExceededError(
                    f"no {length}-cycle found within {FIND_CYCLE_BUDGET} search steps"
                )
            path.append(v)
            if len(path) == length:
                if start in adjacency[v]:
                    return tuple(graph.orders[i] for i in path)
                path.pop()
                continue
            on_path.add(v)
            pending.append(iter(adjacency[v]))
    return None


def move_graph_to_dot(graph: MoveGraph) -> str:
    """DOT export with vertices labeled by order text, in canonical id order."""
    lines = [f"graph move_graph_m{graph.m} {{"]
    for i, w in enumerate(graph.orders):
        lines.append(f'  n{i} [label="{format_order(w)}"];')
    for i, j in graph.edges():
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
