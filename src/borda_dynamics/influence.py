"""Directed weighted influence networks with exact rational weights.

Row i holds the weights node i places on its in-neighbors (`w[i][j] > 0`
means j's state enters i's aggregate), and every row sums to exactly 1.  The
support digraph therefore carries an arc j -> i whenever `w[i][j] > 0`:
influence flows along arcs into i, and reachability is always stated in this
forward-influence orientation.

A network stores only its support: `rows[i]` holds the `(j, w)` pairs of row
i with `w > 0`, in increasing j.  Every builder here emits rows and every
reader reads them, so costs follow the number of arcs rather than n².  The
dense matrix `weights` is a view built on each read, for tests and callers
that want it; `influence_network` is the one dense entry point.  Validation
sums each row in integers over its least common denominator, and the network
keeps those LCDs as `lcds`, so a reader that scales a row to integers
(`_row_over_lcd`) takes its LCD from there and computes none.

Besides construction and normalization the module computes the structural
facts the oscillation checks rely on: reachability, strongly connected
classes of the free part, class periods with their bipartitions, the
crossing bipartition of the free part, the exact -1 eigenmode identity on
bipartite walks, and seeded weight perturbations that keep the support and
the exact row sums.  Every graph fact reads one breadth-first walk,
`_levels`; the classes add Kosaraju's depth-first finishing pass.  No walk
recurses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

@dataclass(frozen=True)
class InfluenceNetwork:
    """Row-stochastic rational weights, stored as their support, plus node names.

    `lcds` is derived, not given: per row, the least common denominator of
    its weights, the one `__post_init__` sums the row over.
    """

    #: per node i, the (j, w) pairs of row i with w > 0, in increasing j
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]
    names: tuple[str, ...]
    #: per node i, the least common denominator of row i's weights
    lcds: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.rows)
        if not n:
            raise ValueError("a network needs at least one node")
        names = tuple(self.names)
        if len(names) != n:
            raise ValueError(f"{len(names)} names for {n} nodes")
        if len(set(names)) != n:
            raise ValueError("node names must be distinct")
        rows, lcds = [], []
        for i, row in enumerate(self.rows):
            last, pairs = -1, []
            try:
                for j, w in row:
                    if type(j) is not int or not last < j < n:
                        raise ValueError(f"row {i} has column {j!r} out of order or outside 0..{n - 1}")
                    if type(w) is not Fraction:
                        raise ValueError(f"row {i} has weight {w!r}, expected a Fraction")
                    if w.numerator <= 0:
                        raise ValueError(f"negative weight in row {i}" if w else f"zero weight in row {i}")
                    last = j
                    pairs.append((j, w))
            except TypeError:
                raise ValueError(f"row {i} is not a sequence of (column, weight) pairs") from None
            den = lcm(*(w.denominator for _, w in pairs))  # sum exactly, in integers
            num = sum(w.numerator * (den // w.denominator) for _, w in pairs)
            if num != den:
                raise ValueError(f"row {i} sums to {Fraction(num, den)}, expected exactly 1")
            rows.append(tuple(pairs))
            lcds.append(den)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "lcds", tuple(lcds))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def weights(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense n x n matrix, built on each read; nothing in the package reads it."""
        zero = Fraction(0)
        dense = []
        for row in self.rows:
            line = [zero] * len(self.rows)
            for j, w in row:
                line[j] = w
            dense.append(tuple(line))
        return tuple(dense)

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Nodes j whose state enters node i's aggregate."""
        return tuple(j for j, _ in self.rows[i])


def _names(names: Sequence[str] | None, n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n)) if names is None else tuple(names)


def influence_network(
    rows: Sequence[Sequence[Fraction | int | str]], names: Sequence[str] | None = None
) -> InfluenceNetwork:
    """Build a network from dense rows of Fractions, ints or "p/q" strings; zeros are dropped."""
    n = len(rows)
    support = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        pairs = []
        for j, w in enumerate(row):
            if type(w) is not Fraction:
                if isinstance(w, (float, bool)):
                    raise ValueError(f"row {i} has entry {w!r}, expected a Fraction, an int or a p/q string")
                w = Fraction(w)
            if w:
                pairs.append((j, w))
        support.append(tuple(pairs))
    return InfluenceNetwork(tuple(support), _names(names, n))


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
    for i, neighbors in enumerate(adjacency):
        if not neighbors:
            raise ValueError(f"isolated vertex {i}: cannot normalize an empty neighborhood")
        w = Fraction(1, len(neighbors))
        rows.append(tuple((j, w) for j in sorted(neighbors)))
    return InfluenceNetwork(tuple(rows), _names(names, n))


def _successors(net: InfluenceNetwork) -> list[list[int]]:
    """Per node j, the nodes i it influences, in increasing i."""
    succ: list[list[int]] = [[] for _ in range(net.n)]
    for i, row in enumerate(net.rows):
        for j, _ in row:
            succ[j].append(i)
    return succ


def _levels(succ, sources: Iterable[int], allowed=None) -> dict[int, int]:
    """Breadth-first distance from `sources` along `succ`, inside `allowed` when given."""
    level = dict.fromkeys(sources, 0)
    queue = list(level)
    for u in queue:  # the queue grows while it is read
        for v in succ[u]:
            if v not in level and (allowed is None or v in allowed):
                level[v] = level[u] + 1
                queue.append(v)
    return level


def reach(net: InfluenceNetwork, sources: Iterable[int]) -> frozenset[int]:
    """Forward closure along support arcs j -> i, sources included."""
    return frozenset(_levels(_successors(net), sources))


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


def _free_arcs(net: InfluenceNetwork, free: Sequence[int]):
    """Free successors and free in-neighbours of each free node."""
    free_set = set(free)
    successors = _successors(net)
    succ = {j: [i for i in successors[j] if i in free_set] for j in free}
    preds = {i: [j for j, _ in net.rows[i] if j in free_set] for i in free}
    return succ, preds


def _parity_sides(nodes: Sequence[int], level: dict[int, int]):
    """The nodes at even levels, then those at odd levels."""
    return tuple(v for v in nodes if level[v] % 2 == 0), tuple(v for v in nodes if level[v] % 2)


def class_structure(net: InfluenceNetwork, free_nodes: Iterable[int]) -> ClassStructure:
    """SCCs of the free-to-free support, closedness, periods, and bipartitions.

    Kosaraju: one depth-first finishing pass along free successors, then per
    root in reverse finishing order a BFS along free in-neighbours over the
    unassigned nodes collects a class.  A class is closed when none of its
    members has a free node outside the class on its support (weight on
    pinned nodes is allowed).  The period is the gcd of directed cycle
    lengths, computed from BFS level differences.
    """
    free = sorted(set(free_nodes))
    succ, preds = _free_arcs(net, free)

    # the DFS starts at a virtual root None whose successors are all free nodes
    finished: list = []
    seen: set[int] = set()
    stack = [(None, iter(free))]
    while stack:
        u, it = stack[-1]
        for v in it:
            if v not in seen:
                seen.add(v)
                stack.append((v, iter(succ[v])))
                break
        else:
            finished.append(stack.pop()[0])
    unassigned = set(free)
    classes = []
    for root in reversed(finished[:-1]):
        if root in unassigned:
            comp = _levels(preds, [root], unassigned)
            unassigned.difference_update(comp)
            classes.append(tuple(sorted(comp)))
    sccs = tuple(sorted(classes))

    closed = []
    period_of: dict[tuple[int, ...], int] = {}
    parts: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for comp in sccs:
        comp_set = set(comp)
        if any(j not in comp_set for i in comp for j in preds[i]):
            continue
        closed.append(comp)
        # BFS levels from the smallest node; arcs u->v contribute
        # gcd(level[u] + 1 - level[v]) which equals the class period
        # (gcd() is 0 when the class has no internal arc)
        level = _levels(succ, [comp[0]], comp_set)
        g = gcd(*(abs(level[u] + 1 - level[v]) for u in comp for v in succ[u] if v in comp_set))
        period_of[comp] = g
        if g == 2:
            parts[comp] = _parity_sides(comp, level)
    return ClassStructure(sccs, tuple(closed), period_of, parts)


def _crossing_bipartition(
    net: InfluenceNetwork, free_nodes: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """2-colouring of the free nodes such that every free-free arc crosses it.

    Colours are the parity of the BFS level in the undirected free-free
    graph; None when that graph has an odd cycle, a self-loop included.
    """
    free = sorted(set(free_nodes))
    succ, preds = _free_arcs(net, free)
    both = {i: succ[i] + preds[i] for i in free}
    level: dict[int, int] = {}
    for root in free:
        if root not in level:
            level.update(_levels(both, [root]))
    if any((level[u] - level[v]) % 2 == 0 for u in free for v in succ[u]):
        return None
    return _parity_sides(free, level)


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
        image = sum(w * sign[j] for j, w in net.rows[i] if j in nodes)
        if image != -sign[i]:
            return False
    return True


def _row_over_lcd(row, d: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """A row over its least common denominator `d` (the network's `lcds`
    entry): ((j, W_j), d) with w_j = W_j / d."""
    return tuple([(j, w.numerator * (d // w.denominator)) for j, w in row]), d


def _perturb_rows(rows, eps: Fraction, seed: int) -> list:
    """`perturb_weights` in integers, on rows over their LCDs (`_row_over_lcd`).

    With the deltas d scaled by p/q, the new entries x_j are W*q + D*p*d over
    S = D*q, and dividing them and S by gcd(S, x_1..x_k) puts the row over
    its LCD.  An unchanged row is returned as given.  Raises ValueError on a new
    row that is not positive or does not sum to S.
    """
    ep, eq = eps.numerator, eps.denominator
    draw = random.Random(seed).randint
    denom = 10**6
    out = []
    for i, (pairs, lcd) in enumerate(rows):
        draws = [draw(-denom, denom) for _ in pairs]
        k, total = len(pairs), sum(draws)
        deltas = [k * r - total for r in draws]
        if not ep or k < 2 or not any(deltas):
            out.append(rows[i])
            continue
        # scale = min over d != 0 of min(eps, W/2D) * k*denom / |d|, kept as p/q
        p, q = None, 1
        for (_, w), d in zip(pairs, deltas):
            if d:
                cap_p, cap_q = (ep, eq) if ep * 2 * lcd <= w * eq else (w, 2 * lcd)
                cand_p, cand_q = cap_p * k * denom, cap_q * abs(d)
                if p is None or cand_p * q < p * cand_q:
                    p, q = cand_p, cand_q
        q *= k * denom
        entries = [w * q + lcd * p * d for (_, w), d in zip(pairs, deltas)]
        q *= lcd  # S
        if min(entries) <= 0 or sum(entries) != q:
            raise ValueError(f"row {i} is not positive or does not sum to its scale once perturbed")
        g = gcd(*entries, q)
        out.append((tuple((j, x // g) for (j, _), x in zip(pairs, entries)), q // g))
    return out


def perturb_weights(net: InfluenceNetwork, eps: Fraction, seed: int) -> InfluenceNetwork:
    """Seeded perturbation with identical support, exact row sums, entries within eps.

    Per row, one draw r in -10**6..10**6 is taken per support entry, a
    single entry too; the draws are centered to sum to zero and scaled so
    every entry stays positive and moves by at most eps.  Single-entry rows
    are forced and stay unchanged.  The Fractions are the reduced view of
    `_perturb_rows`' integer rows.  eps is a Fraction, an int or a "p/q"
    string; a float or bool is refused.
    """
    if isinstance(eps, (float, bool)):
        raise ValueError(f"eps {eps!r} must be exact: a Fraction, an int or a p/q string")
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    rows = list(map(_row_over_lcd, net.rows, net.lcds))
    return InfluenceNetwork(tuple(row if new is old else tuple((j, Fraction(w, new[1])) for j, w in new[0])
                                  for row, old, new in zip(net.rows, rows, _perturb_rows(rows, eps, seed))),
                            net.names)


def seeded_random_network(n: int, seed: int) -> InfluenceNetwork:
    """Random row-stochastic network with integer-ratio weights, no self-loops."""
    if n < 2:
        raise ValueError("need at least two nodes")
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        ins = [j for j in range(n) if j != i and rng.random() < 0.5]
        if not ins:
            ins = [rng.choice([j for j in range(n) if j != i])]
        raw = [rng.randint(1, 9) for _ in ins]
        total = sum(raw)
        rows.append(tuple((j, Fraction(r, total)) for j, r in zip(ins, raw)))
    return InfluenceNetwork(tuple(rows), _names(None, n))


def network_to_dot(net: InfluenceNetwork) -> str:
    """DOT export of the support digraph with weights as p/q arc labels."""
    lines = ["digraph influence {"]
    for i, name in enumerate(net.names):
        lines.append(f'  n{i} [label="{name}"];')
    for j, i, w in sorted((j, i, w) for i, row in enumerate(net.rows) for j, w in row):
        lines.append(f'  n{j} -> n{i} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
