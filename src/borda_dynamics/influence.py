"""Directed weighted influence networks with exact rational weights.

Row i of the weight matrix holds the weights node i places on its in-neighbors
(`w[i][j] > 0` means j's state enters i's aggregate), and every row sums to
exactly 1.  The support digraph therefore carries an arc j -> i whenever
`w[i][j] > 0`: influence flows along arcs into i, and reachability is always
stated in this forward-influence orientation.

The dense matrix `weights` is the constructor's contract.  Each network also
derives `rows`, its support: for every node i the `(j, w)` pairs with
`w != 0`, in increasing j.  Validation sums only the support, and
`in_neighbors` and the integer kernel in `dynamics` read only `rows`, so
their cost follows the number of arcs rather than n².

Besides construction and normalization the module computes the structural
facts the oscillation checks rely on: reachability, strongly connected
classes of the free part, class periods with their bipartitions, the exact
-1 eigenmode identity on bipartite walks, and seeded weight perturbations
that keep the support and the exact row sums.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


@dataclass(frozen=True)
class InfluenceNetwork:
    """Row-stochastic rational weight matrix plus display names for nodes."""

    weights: tuple[tuple[Fraction, ...], ...]
    names: tuple[str, ...]
    #: per node i, the (j, w) pairs of row i with w != 0
    rows: tuple[tuple[tuple[int, Fraction], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = len(self.weights)
        if len(self.names) != n:
            raise ValueError(f"{len(self.names)} names for {n} nodes")
        if len(set(self.names)) != n:
            raise ValueError("node names must be distinct")
        rows = []
        for i, row in enumerate(self.weights):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            support = tuple((j, w) for j, w in enumerate(row) if w)
            if any(w < 0 for _, w in support):
                raise ValueError(f"negative weight in row {i}")
            total = sum(w for _, w in support)
            if total != 1:
                raise ValueError(f"row {i} sums to {total}, expected exactly 1")
            rows.append(support)
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def n(self) -> int:
        return len(self.weights)

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Nodes j whose state enters node i's aggregate."""
        return tuple(j for j, _ in self.rows[i])

    def out_influence(self, j: int) -> tuple[int, ...]:
        """Nodes i that listen to j (targets of support arcs j -> i)."""
        return tuple(i for i in range(self.n) if self.weights[i][j] > 0)

    def support_arcs(self) -> tuple[tuple[int, int], ...]:
        """All support arcs (j, i), meaning j influences i."""
        return tuple(
            (j, i) for j in range(self.n) for i in range(self.n) if self.weights[i][j] > 0
        )


_ZERO = Fraction(0)


def influence_network(
    rows: Sequence[Sequence[Fraction | int | str]], names: Sequence[str] | None = None
) -> InfluenceNetwork:
    """Build a network from any row data coercible to Fractions.

    Fraction entries are kept as given (they are immutable) and every other
    zero becomes one shared Fraction(0), so the zeros of a sparse matrix
    allocate nothing.
    """
    weights = tuple(
        tuple(w if type(w) is Fraction else _ZERO if w == 0 else Fraction(w) for w in row)
        for row in rows
    )
    if names is None:
        names = tuple(str(i) for i in range(len(weights)))
    return InfluenceNetwork(weights, tuple(names))


def normalize_random_walk(
    n: int, edges: Iterable[tuple[int, int]], names: Sequence[str] | None = None
) -> InfluenceNetwork:
    """Random-walk weights on an undirected graph: w[i][j] = 1/deg(i) per neighbor."""
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at node {u} not allowed in random-walk normalization")
        adjacency[u].add(v)
        adjacency[v].add(u)
    rows = []
    for i in range(n):
        deg = len(adjacency[i])
        if deg == 0:
            raise ValueError(f"isolated vertex {i}: cannot normalize an empty neighborhood")
        rows.append([Fraction(1, deg) if j in adjacency[i] else Fraction(0) for j in range(n)])
    return influence_network(rows, names)


def reach(net: InfluenceNetwork, sources: Iterable[int]) -> frozenset[int]:
    """Forward closure along support arcs j -> i, sources included."""
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        j = frontier.pop()
        for i in net.out_influence(j):
            if i not in seen:
                seen.add(i)
                frontier.append(i)
    return frozenset(seen)


@dataclass(frozen=True)
class ClassStructure:
    """SCC decomposition of the free-to-free support with periods.

    `period_of` maps each closed class to the gcd of its internal directed
    cycle lengths (0 when the class has no internal arcs at all);
    `cyclic_parts` carries the bipartition of every period-2 class.
    """

    sccs: tuple[tuple[int, ...], ...]
    closed_classes: tuple[tuple[int, ...], ...]
    period_of: dict[tuple[int, ...], int]
    cyclic_parts: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]


def _tarjan_sccs(nodes: Sequence[int], succ: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan over the given nodes."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def class_structure(net: InfluenceNetwork, free_nodes: Iterable[int]) -> ClassStructure:
    """SCCs of the free-to-free support, closedness, periods, and bipartitions.

    A class is closed when none of its members places weight on a free node
    outside the class (weight on pinned nodes is allowed).  The period is the
    gcd of directed cycle lengths, computed from BFS level differences.
    """
    free = sorted(set(free_nodes))
    free_set = set(free)
    succ = {j: [i for i in net.out_influence(j) if i in free_set] for j in free}

    sccs = tuple(tuple(c) for c in sorted(_tarjan_sccs(free, succ)))

    closed = []
    period_of: dict[tuple[int, ...], int] = {}
    parts: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for comp in sccs:
        comp_set = set(comp)
        is_closed = all(
            sum(net.weights[i][j] for j in free if j not in comp_set) == 0 for i in comp
        )
        if not is_closed:
            continue
        closed.append(comp)
        internal = [(u, v) for u in comp for v in succ[u] if v in comp_set]
        if not internal:
            period_of[comp] = 0
            continue
        # BFS levels from the smallest node; arcs u->v contribute
        # gcd(level[u] + 1 - level[v]) which equals the class period
        root = comp[0]
        level = {root: 0}
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in succ[u]:
                if v in comp_set and v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
        g = 0
        for u, v in internal:
            g = gcd(g, abs(level[u] + 1 - level[v]))
        period_of[comp] = g
        if g == 2:
            side_a = tuple(v for v in comp if level[v] % 2 == 0)
            side_b = tuple(v for v in comp if level[v] % 2 == 1)
            parts[comp] = (side_a, side_b)
    return ClassStructure(sccs, tuple(closed), period_of, parts)


def verify_minus_one_mode(
    net: InfluenceNetwork, parts: tuple[Iterable[int], Iterable[int]]
) -> bool:
    """Exact check of W f = -f for f = +1 on one part and -1 on the other.

    The identity is evaluated on the subnetwork spanned by the two parts, in
    rational arithmetic; the return value is the truth of the identity.
    """
    side_a, side_b = (set(parts[0]), set(parts[1]))
    if side_a & side_b:
        raise ValueError("parts overlap")
    sign = {i: 1 for i in side_a}
    sign.update({i: -1 for i in side_b})
    nodes = side_a | side_b
    for i in nodes:
        image = sum(net.weights[i][j] * sign[j] for j in nodes)
        if image != -sign[i]:
            return False
    return True


def perturb_weights(net: InfluenceNetwork, eps: Fraction, seed: int) -> InfluenceNetwork:
    """Seeded perturbation with identical support, exact row sums, entries within eps.

    Per row, signed rational deltas are drawn for the support entries, centered
    to sum to zero, and scaled so every entry stays positive and moves by at
    most eps; single-entry rows are forced and stay unchanged.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    rng = random.Random(seed)
    denom = 10**6
    rows = []
    for i in range(net.n):
        row = list(net.weights[i])
        support = [j for j, w in enumerate(row) if w > 0]
        draws = [Fraction(rng.randint(-denom, denom), denom) for _ in support]
        if eps == 0 or len(support) < 2:
            rows.append(tuple(row))
            continue
        mean = sum(draws) / len(draws)
        deltas = [d - mean for d in draws]
        if all(d == 0 for d in deltas):
            rows.append(tuple(row))
            continue
        scale = min(
            min(eps, row[j] / 2) / abs(d) for j, d in zip(support, deltas) if d != 0
        )
        for j, d in zip(support, deltas):
            row[j] += scale * d
        rows.append(tuple(row))
    return InfluenceNetwork(tuple(rows), net.names)


def seeded_random_network(
    n: int, seed: int, arc_prob: float = 0.5, max_weight: int = 9
) -> InfluenceNetwork:
    """Random row-stochastic network with integer-ratio weights, no self-loops."""
    if n < 2:
        raise ValueError("need at least two nodes")
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        ins = [j for j in range(n) if j != i and rng.random() < arc_prob]
        if not ins:
            ins = [rng.choice([j for j in range(n) if j != i])]
        raw = {j: rng.randint(1, max_weight) for j in ins}
        total = sum(raw.values())
        rows.append([Fraction(raw.get(j, 0), total) for j in range(n)])
    return influence_network(rows)


def seeded_random_bipartite(
    size_a: int, size_b: int, seed: int, extra_prob: float = 0.3
) -> tuple[int, list[tuple[int, int]], tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected undirected bipartite graph: a zigzag spanning path plus extras.

    Returns (n, edges, (part_a, part_b)) with part_a = 0..size_a-1.
    """
    rng = random.Random(seed)
    part_a = tuple(range(size_a))
    part_b = tuple(range(size_a, size_a + size_b))
    edges: set[tuple[int, int]] = set()
    # spanning zigzag over the paired prefix keeps the graph connected, then
    # leftovers of the longer part attach across the cut
    paired = min(size_a, size_b)
    chain = []
    for k in range(paired):
        chain.append(part_a[k])
        chain.append(part_b[k])
    for u, v in zip(chain, chain[1:]):
        edges.add((min(u, v), max(u, v)))
    for a in part_a[paired:]:
        edges.add((min(a, part_b[0]), max(a, part_b[0])))
    for b in part_b[paired:]:
        edges.add((part_a[0], b))
    for a in part_a:
        for b in part_b:
            if rng.random() < extra_prob:
                edges.add((a, b))
    return size_a + size_b, sorted(edges), (part_a, part_b)


def network_to_dot(net: InfluenceNetwork) -> str:
    """DOT export of the support digraph with weights as p/q arc labels."""
    lines = ["digraph influence {"]
    for i, name in enumerate(net.names):
        lines.append(f'  n{i} [label="{name}"];')
    for j, i in sorted(net.support_arcs()):
        lines.append(f'  n{j} -> n{i} [label="{net.weights[i][j]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
