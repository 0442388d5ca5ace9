"""The Fraction re-drive of the paper's definitions: the oracle the kernel is tested against.

A node's target is the projection of its exact aggregate (`aggregate_scores`
then `weak_orders.project`), a move is `move_graph.step`, and a tie margin is
the smallest gap between distinct aggregate values.  A weight perturbation
is the mean-centred Fraction formula, and a robustness check runs every
trial in full.  The module reads only those definitions and the package's
data types, never the integer kernel that `borda_dynamics.dynamics` runs
on, so a test that compares the two compares the kernel with an
independent computation.

It also holds the counts and generators the tests check the package with:
the number of weak orders (`fubini`), the shortest paths between two orders
counted by brute force (`paths_between`), the cover graph's `diameter`,
its first cycle of a given length, which starts a copier-ring wave
(`find_cycle`), a seeded connected bipartite graph
(`seeded_random_bipartite`), and single-peakedness checked side by side
with position and rank maps (`is_single_peaked`).
"""

import math
import random
from fractions import Fraction

from borda_dynamics.dynamics import aggregate_scores
from borda_dynamics.move_graph import build_cover_graph, step as graph_step
from borda_dynamics.weak_orders import project


def target(net, profile, i):
    """Node i's target order: projection of its aggregated score vector."""
    return project(aggregate_scores(net, profile, i))


def margin_from_ties(scores):
    """Smallest score gap between alternatives separated in the projected order.

    That is the smallest gap between consecutive distinct scores: ties already
    realized in the projection lie on a tie hyperplane by construction and are
    not counted.  When all scores tie there is no separating hyperplane at all
    and the sentinel ``math.inf`` is returned.  Scores must be exact.
    """
    if any(isinstance(s, float) for s in scores):
        raise TypeError("margins require exact scores (int or Fraction)")
    distinct = sorted(set(scores))
    if len(distinct) < 2:
        return math.inf
    return min(Fraction(high) - low for low, high in zip(distinct, distinct[1:]))


def update(net, graph, policy, profile, nodes, synchronous):
    """Move each of `nodes` in turn one step toward its target: a synchronous
    step reads every target from `profile`, a sequence step the profile as
    the earlier nodes left it.  Returns the target log and the new profile."""
    nxt, log = list(profile), []
    for i in nodes:
        tau = target(net, profile if synchronous else tuple(nxt), i)
        log.append((i, tau))
        nxt[i] = graph_step(policy, graph, nxt[i], tau)
    return tuple(log), tuple(nxt)


def step_sync(net, graph, policy, pc, profile):
    return update(net, graph, policy, profile, pc.free_nodes(net.n), True)[1]


def step_async(net, graph, policy, profile, i):
    return update(net, graph, policy, profile, (i,), True)[1]


def is_fixed_point(net, pc, profile):
    return all(target(net, profile, i) == profile[i] for i in pc.free_nodes(net.n))


def reference_run(net, graph, policy, pc, initial, schedule, max_steps):
    """Re-drive a run on the Fraction path: (mu, period, prefix, target logs,
    margin), or None where run_until_cycle must raise BudgetExceededError."""
    free = pc.free_nodes(net.n)

    def margin(states):
        scores = (aggregate_scores(net, state, i) for state in states for i in free)
        return min(map(margin_from_ties, scores), default=math.inf)

    prefix, logs = [initial], []
    if schedule.kind == "uniform":
        rng = random.Random(schedule.seed)
        for t in range(max_steps + 1):
            state = prefix[-1]
            if all(graph_step(policy, graph, state[i], target(net, state, i)) == state[i] for i in free):
                return t, 1, prefix, logs, margin([state])
            if t < max_steps:
                log, state = update(net, graph, policy, state, (free[rng.randrange(len(free))],), True)
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
        log, state = update(net, graph, policy, state, nodes, schedule.kind == "synchronous")
        logs.append(log)
        prefix.append(state)
    return None


class BudgetExceeded(Exception):
    """A reference run hit its step budget, where the package raises BudgetExceededError,
    or a cycle search its FIND_CYCLE_BUDGET."""


def perturb_weights(net, eps, seed):
    """Per row, one draw in -10**6..10**6 per support entry over 10**6, centred on
    the row's mean and scaled so every entry stays positive and moves by at most
    eps; single-entry rows keep their weight.  The result has the given
    network's type, so the oracle imports nothing more of the package."""
    eps = Fraction(eps)
    rng = random.Random(seed)
    denom = 10**6
    rows = []
    for row in net.rows:
        draws = [Fraction(rng.randint(-denom, denom), denom) for _ in row]
        if eps == 0 or len(row) < 2:
            rows.append(row)
            continue
        mean = sum(draws) / len(draws)
        deltas = [d - mean for d in draws]
        if all(d == 0 for d in deltas):
            rows.append(row)
            continue
        scale = min(min(eps, w / 2) / abs(d) for (_, w), d in zip(row, deltas) if d != 0)
        rows.append(tuple((j, w + scale * d) for (j, w), d in zip(row, deltas)))
    return type(net)(tuple(rows), net.names)


def robustness_evidence(sc, trials, seed):
    """The evidence of `verify_robustness` with every trial re-driven in full
    on the Fraction path, or None where its hypothesis is not met.  Raises
    BudgetExceeded where a run would raise BudgetExceededError."""
    graph = build_cover_graph(sc.m)

    def run(net):
        result = reference_run(net, graph, sc.policy, sc.persistent, sc.initial, sc.schedule, sc.max_steps)
        if result is None:
            raise BudgetExceeded
        return result

    mu, period, prefix, logs, delta = run(sc.network)
    if delta == 0 or delta == math.inf:
        return None
    eps_star = Fraction(delta) / (2 * (sc.m - 1) * sc.network.n)
    divergence = None
    for t in range(trials):
        mu_t, period_t, prefix_t, logs_t, _ = run(perturb_weights(sc.network, eps_star / 2, seed + t))
        if (mu_t, period_t) != (mu, period) or prefix_t != prefix:
            step = next((k for k, (a, b) in enumerate(zip(prefix_t, prefix)) if a != b),
                        min(len(prefix_t), len(prefix)))
            divergence = {"trial": t, "first_divergence_step": step}
            break
        if logs_t != logs:
            divergence = {"trial": t, "first_divergence_step": "target log"}
            break
    return {
        "hypothesis_met": True,
        "delta": str(Fraction(delta)),
        "eps_star": eps_star,
        "eps_used": eps_star / 2,
        "trials": trials,
        "perturbable_rows": sum(sum(w != 0 for w in sc.network.weights[i]) >= 2
                                for i in sc.persistent.free_nodes(sc.network.n)),
        "mu": mu,
        "period": period,
        "divergence": divergence,
    }


def fubini(m):
    """Number of weak orders on m alternatives (ordered Bell number).

    Computed as sum over k of k! * S(m, k) with S the Stirling numbers of the
    second kind; agrees with len(enumerate_weak_orders(m)).
    """
    if m < 1:
        raise ValueError("empty alternative domain: need m >= 1")
    # one DP row of Stirling numbers of the second kind
    row = [1] + [0] * m
    for i in range(1, m + 1):
        new = [0] * (m + 1)
        for k in range(1, i + 1):
            new[k] = k * row[k] + row[k - 1]
        row = new
    return sum(math.factorial(k) * row[k] for k in range(1, m + 1))


def paths_between(graph, a, b):
    """Number of shortest paths between ids a and b, by enumerating the
    simple paths of exactly their distance."""
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
    return found


def diameter(graph):
    """The largest distance between two ids of the cover graph."""
    ids = range(graph.order_count)
    return max(graph.distance_ids(a, b) for a in ids for b in ids)


#: most path extensions one `find_cycle` call may make (about a second)
FIND_CYCLE_BUDGET = 10**6


def find_cycle(graph, length):
    """First simple cycle of exactly `length` vertices in deterministic DFS order.

    The search fixes the smallest vertex of the cycle as the start and visits
    neighbors in increasing id; returns None when no such cycle exists.
    Every edge changes the number of classes by one, so the graph is
    bipartite and an odd length has no cycle.  Raises BudgetExceeded once
    the search has extended its path FIND_CYCLE_BUDGET times.
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
                raise BudgetExceeded(f"no {length}-cycle found within {FIND_CYCLE_BUDGET} search steps")
            path.append(v)
            if len(path) == length:
                if start in adjacency[v]:
                    return tuple(graph.orders[i] for i in path)
                path.pop()
                continue
            on_path.add(v)
            pending.append(iter(adjacency[v]))
    return None


def seeded_random_bipartite(size_a, size_b, seed):
    """Connected undirected bipartite graph: a zigzag spanning path plus extras.

    Returns (n, edges, (part_a, part_b)) with part_a = 0..size_a-1.
    """
    rng = random.Random(seed)
    part_a = tuple(range(size_a))
    part_b = tuple(range(size_a, size_a + size_b))
    edges = set()
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
            if rng.random() < 0.3:
                edges.add((a, b))
    return size_a + size_b, sorted(edges), (part_a, part_b)


def is_single_peaked(order, axis):
    """Single-peaked w.r.t. an axis: the top class is the peak set, and on each
    side of its span, preference strictly decreases moving outward."""
    position = {alt: k for k, alt in enumerate(axis)}
    peak_positions = [position[a] for a in order.classes[0]]
    lo, hi = min(peak_positions), max(peak_positions)
    rank = {a: order.class_index(a) for a in position}
    right = sorted((a for a in position if position[a] > hi), key=lambda a: position[a])
    left = sorted((a for a in position if position[a] < lo), key=lambda a: -position[a])
    for side in (right, left):
        for nearer, farther in zip(side, side[1:]):
            if rank[nearer] >= rank[farther]:
                return False
    return True
