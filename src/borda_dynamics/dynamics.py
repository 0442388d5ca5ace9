"""Bounded Borda dynamics: synchronous and asynchronous updates with pinning.

Each free node aggregates its in-neighbors' Borda score vectors with its
exact row weights, projects the aggregate back to a weak order (its target),
and moves at most one cover-graph edge toward that target.  Pinned nodes
never move.  Runs are iterated until the state revisits itself, which yields
the exact transient length and period.

Deterministic schedules (synchronous, or a fixed node sequence applied as one
super-step) always terminate with a cycle.  Seeded uniform-random schedules
are stochastic, so they report convergence to a fixed point or raise a budget
error; no period is claimed for them.

Runs and the fixed-point search execute on an integer kernel compiled per
run.  A state is the tuple of its orders' canonical ids.  Row i is scaled by
the least common denominator D_i of its weights to integers W_ij (they sum
to D_i), and each order's Borda scores are doubled to integers B2, so node
i's aggregate sum_j W_ij * B2[state_j] is exactly 2*D_i times the Fraction
aggregate: ties and order are decided by integer equality, with no float and
no tolerance.  Each order's B2 is packed into one int with a fixed-width lane
per alternative, B2[a] in the bits from a*lane up.  A lane of an aggregate
lies between 0 and 2*(m-1)*D_i, and a lane has as many bits as the largest
such bound of the run needs, so the weighted sum of packed ints never
carries from one lane into the next: it is the aggregate, one multiply-add
per in-neighbour.
The target is read from the dense ranks of the lanes and memoised by the
packed int, which fixes the lane values and so the target, whatever the row;
the memo is emptied once it holds TARGET_MEMO_CAP entries, which bounds the
memory of a long fixed-point search.  A tie margin is the smallest gap
between distinct lane values over 2*D_i, and each step is asked of the move
graph by id (`MoveGraph.next_id`).
A node's target depends on its in-neighbours' states alone, so the kernel
keeps one target per node and marks it stale when an in-neighbour is
written: a synchronous step writes after all its reads, a sequence step
each move, the fixed-point search each assignment.  The uniform stop check
and the search's pruning check read cached targets, so a target is
recomputed only after an in-neighbour has moved.
WeakOrders appear again only in the returned OrbitReport.
`aggregate_scores`, `target`, `is_fixed_point`, `step_sync` and `step_async`
keep the Fraction arithmetic as the reference path.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, sub
from typing import IO, Iterable, Sequence

from .errors import BudgetExceededError, ScheduleError
from .influence import InfluenceNetwork
from .move_graph import MoveGraph, StepPolicy
from .move_graph import step as graph_step
from .weak_orders import (
    WeakOrder,
    antipode,
    borda_scores,
    enumerate_weak_orders,
    format_order,
    project,
)

Profile = tuple[WeakOrder, ...]

#: one log entry per applied update: (node, target at the moment of update)
TargetLog = tuple[tuple[int, WeakOrder], ...]

DEFAULT_MAX_STEPS = 10_000
DEFAULT_ENUM_BUDGET = 10**6
#: a kernel forgets its memoised projections once it holds this many, so a
#: long fixed-point search keeps bounded memory
TARGET_MEMO_CAP = 2**16


@dataclass(frozen=True)
class Camps:
    """Two persistent camps pinned to a base order and its antipode."""

    plus: tuple[int, ...]
    minus: tuple[int, ...]
    base: WeakOrder


@dataclass
class PersistentConfig:
    """Pinned nodes with their constant orders, optionally organized as camps."""

    pins: dict[int, WeakOrder] = field(default_factory=dict)
    camps: Camps | None = None

    def __post_init__(self):
        if self.camps is not None:
            camp_nodes = set(self.camps.plus) | set(self.camps.minus)
            if set(self.camps.plus) & set(self.camps.minus):
                raise ValueError("camps overlap")
            if camp_nodes != set(self.pins):
                raise ValueError("camps must cover exactly the pinned nodes")
            flipped = antipode(self.camps.base)
            for p in self.camps.plus:
                if self.pins[p] != self.camps.base:
                    raise ValueError(f"node {p} not pinned to the camp base order")
            for p in self.camps.minus:
                if self.pins[p] != flipped:
                    raise ValueError(f"node {p} not pinned to the antipodal order")

    @classmethod
    def none(cls) -> "PersistentConfig":
        return cls({})

    def free_nodes(self, n: int) -> tuple[int, ...]:
        return tuple(i for i in range(n) if i not in self.pins)


@dataclass(frozen=True)
class Schedule:
    """Update schedule: synchronous, a fixed free-node sequence, or seeded uniform."""

    kind: str
    nodes: tuple[int, ...] = ()
    seed: int | None = None

    @classmethod
    def synchronous(cls) -> "Schedule":
        return cls("synchronous")

    @classmethod
    def sequence(cls, nodes: Iterable[int]) -> "Schedule":
        nodes = tuple(nodes)
        if not nodes:
            raise ScheduleError("empty update sequence")
        return cls("sequence", nodes=nodes)

    @classmethod
    def uniform(cls, seed: int) -> "Schedule":
        return cls("uniform", seed=seed)


@dataclass
class OrbitReport:
    """Outcome of a run: minimal transient, period, and the closed orbit.

    `prefix` holds the visited states sigma(0..mu+period-1), so
    orbit == prefix[mu:].  `target_log` holds one entry per applied step with
    every updated node's target at that step.  `min_margin` is the smallest
    tie margin of any free node's aggregate score over the orbit states
    (math.inf when no orbit score has separated alternatives).
    """

    mu: int
    period: int
    orbit: tuple[Profile, ...]
    min_margin: Fraction | float
    target_log: tuple[TargetLog, ...]
    prefix: tuple[Profile, ...]

    def state_at(self, t: int) -> Profile:
        """State at any time, extending past the stored prefix by periodicity."""
        if t < len(self.prefix):
            return self.prefix[t]
        return self.orbit[(t - self.mu) % self.period]


def aggregate_scores(net: InfluenceNetwork, profile: Profile, i: int) -> tuple[Fraction, ...]:
    """Weighted average of the in-neighbors' Borda score vectors, exact.

    Fraction reference path; runs use the integer kernel.
    """
    m = profile[i].m
    totals = [Fraction(0)] * m
    for j, w in net.rows[i]:
        for a, s in enumerate(borda_scores(profile[j])):
            totals[a] += w * s
    return tuple(totals)


def target(net: InfluenceNetwork, profile: Profile, i: int) -> WeakOrder:
    """Node i's target order: projection of its aggregated score vector.

    Fraction reference path; runs use the integer kernel.
    """
    return project(aggregate_scores(net, profile, i))


def step_sync(
    net: InfluenceNetwork,
    graph: MoveGraph,
    policy: StepPolicy,
    persistent: PersistentConfig,
    profile: Profile,
) -> Profile:
    """One synchronous step: every free node moves toward its target, targets
    taken from the pre-update profile; pinned nodes unchanged.

    Fraction reference path; runs use the integer kernel.
    """
    _state_ids(net.n, persistent, profile, graph)
    return _update(net, graph, policy, persistent.free_nodes(net.n), profile, True)[1]


def step_async(
    net: InfluenceNetwork,
    graph: MoveGraph,
    policy: StepPolicy,
    persistent: PersistentConfig,
    profile: Profile,
    i: int,
) -> Profile:
    """One asynchronous step: only node i moves.

    Fraction reference path; runs use the integer kernel.
    """
    if i in persistent.pins:
        raise ScheduleError(f"node {i} is pinned and cannot be scheduled")
    _state_ids(net.n, persistent, profile, graph)
    return _update(net, graph, policy, (i,), profile, True)[1]


def _update(net, graph, policy, nodes, profile, synchronous):
    """Move each of `nodes` in turn one step toward its target (Fraction path).

    A synchronous step reads every target from `profile`; a sequence step
    reads the profile as the earlier nodes left it.  Returns the target log
    and the new profile.
    """
    log = []
    nxt = list(profile)
    for i in nodes:
        tau = target(net, profile if synchronous else tuple(nxt), i)
        log.append((i, tau))
        nxt[i] = graph_step(policy, graph, nxt[i], tau)
    return tuple(log), tuple(nxt)


def _state_ids(
    n: int, persistent: PersistentConfig, profile: Profile | None = None, graph: MoveGraph | None = None
) -> dict[int, int]:
    """Node -> id on `graph` of each order of `profile`, or of each pin without
    one ({} without a graph).  Raises ValueError on a pin outside 0..n-1, a
    profile of other than n orders or off a pin, and an order on another m."""
    orders = persistent.pins.items()
    for node, _ in orders:
        if not 0 <= node < n:
            raise ValueError(f"pin at node {node}, but the network's nodes are 0..{n - 1}")
    if profile is not None:
        if len(profile) != n:
            raise ValueError(f"profile length {len(profile)}, but the network has {n} nodes")
        for node, order in orders:
            if profile[node] != order:
                raise ValueError(f"profile disagrees with pin at node {node}")
        orders = enumerate(profile)
    if graph is None:
        return {}
    ids = {}
    for node, order in orders:
        try:
            ids[node] = graph.id_of(order)
        except ValueError:
            raise ValueError(f"node {node} has an order on {order.m} alternatives, "
                             f"but the move graph is on {graph.m}") from None
    return ids


@lru_cache(maxsize=None)
def _id_tables(m: int) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
    """Doubled Borda scores by canonical id, and dense-rank tuple -> canonical id.

    A class of c alternatives above `below` others occupies the ranks below
    to below + c - 1, so each of its alternatives scores their average, and
    the doubled score 2*below + c - 1 is an integer.  The dense rank of an
    alternative is the index of its class, so an aggregate projects to the
    order whose class indices are its dense ranks.
    """
    scores, rank_ids = [], {}
    for k, order in enumerate(enumerate_weak_orders(m)):
        doubled, ranks = [0] * m, [0] * m
        below = m
        for index, cls in enumerate(order.classes):
            below -= len(cls)
            for a in cls:
                doubled[a], ranks[a] = 2 * below + len(cls) - 1, index
        scores.append(tuple(doubled))
        rank_ids[tuple(ranks)] = k
    return tuple(scores), rank_ids


@lru_cache(maxsize=None)
def _packed_scores(m: int, lane: int) -> tuple[int, ...]:
    """Doubled Borda scores by canonical id, alternative a in the bits from a*lane up."""
    return tuple(sum(s << a * lane for a, s in enumerate(scores)) for scores in _id_tables(m)[0])


class _Kernel:
    """One run compiled to integers over canonical ids (see the module docstring).

    Built per run or search and dropped with it: `rows[i]` is ((j, W_ij) per
    in-neighbour, 2*D_i) for each compiled node, and `listeners[j]` lists the
    compiled nodes whose row reads j; the graph keeps the steps.  `packed[k]`
    holds order k's doubled Borda scores in one int, alternative a in the
    `lane` bits from a*lane up, so an aggregate is one int too.  `memo` maps
    a packed aggregate to its target id, shared by every row, and is emptied
    when it holds TARGET_MEMO_CAP entries.  The kernel owns one state, which
    only `write` changes.  `targets[i]` caches node i's target in that state,
    -1 when stale: `write` marks every listener of a mover stale, so `target`
    recomputes a target only after one of its in-neighbours has moved, and
    `settled` asks the graph whether node i's step would leave it in place.
    """

    def __init__(self, net: InfluenceNetwork, graph: MoveGraph, policy: StepPolicy, nodes: Iterable[int],
                 state: Sequence[int | None]):
        m = graph.m
        self.graph = graph
        self.stay_on_ambiguity = policy.allow_no_move_on_ambiguity
        self.rank_ids = _id_tables(m)[1]
        self.rows: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}
        self.listeners: list[list[int]] = [[] for _ in range(net.n)]
        for i in nodes:
            support = net.rows[i]
            d = math.lcm(*(w.denominator for _, w in support))
            self.rows[i] = (tuple((j, w.numerator * (d // w.denominator)) for j, w in support), 2 * d)
            for j, _ in support:
                self.listeners[j].append(i)
        # a lane of an aggregate lies in 0..2(m-1)*D_i, so lanes never carry
        lane = ((m - 1) * max((scale for _, scale in self.rows.values()), default=2)).bit_length()
        self.lane, self.mask, self.shifts = lane, (1 << lane) - 1, range(0, m * lane, lane)
        self.packed = _packed_scores(m, lane)
        self.memo: dict[int, int] = {}
        self.state = list(state)
        self.targets = [-1] * net.n

    def aggregate(self, state: Sequence[int], i: int) -> int:
        """Node i's aggregate in `state` times 2*D_i, packed: one lane per alternative."""
        packed = self.packed
        return sum([w * packed[state[j]] for j, w in self.rows[i][0]])

    def lanes(self, total: int) -> list[int]:
        """The per-alternative values of a packed aggregate."""
        mask = self.mask
        return [total >> shift & mask for shift in self.shifts]

    def target(self, i: int) -> int:
        """Node i's target in the kernel's state, recomputed only when stale."""
        tau = self.targets[i]
        if tau < 0:
            total = self.aggregate(self.state, i)
            tau = self.memo.get(total)
            if tau is None:
                tau = self.project(total)
            self.targets[i] = tau
        return tau

    def project(self, total: int) -> int:
        """The target of a packed aggregate, read from its dense ranks and memoised."""
        if len(self.memo) >= TARGET_MEMO_CAP:
            self.memo.clear()
        lanes = self.lanes(total)
        distinct = sorted(set(lanes), reverse=True)
        tau = self.memo[total] = self.rank_ids[tuple(map(distinct.index, lanes))]
        return tau

    def settled(self, i: int) -> bool:
        """True iff node i's step leaves it where it is: at its target, or
        stalled there under no-move-on-ambiguity."""
        current = self.state[i]
        return self.graph.next_id(current, self.target(i), self.stay_on_ambiguity) == current

    def write(self, moves: Iterable[tuple[int, int]]) -> None:
        """Apply `(node, id)` moves, marking each mover's listeners stale."""
        state, targets, listeners = self.state, self.targets, self.listeners
        for i, nxt in moves:
            state[i] = nxt
            for k in listeners[i]:
                targets[k] = -1

    def update(self, nodes: Sequence[int], synchronous: bool):
        """Move each of `nodes` in turn one step toward its target.

        A synchronous step reads every target from the state before the
        step, so its moves are written once every node has been read; a
        sequence step writes each move at once, so later nodes (the mover
        too, on a self-loop) read it.  Returns the target log and the new
        state.
        """
        state, target, write = self.state, self.target, self.write
        next_id, lazy = self.graph.next_id, self.stay_on_ambiguity
        log, moves = [], []
        for i in nodes:
            tau = target(i)
            log.append((i, tau))
            nxt = next_id(state[i], tau, lazy)
            if nxt != state[i]:
                if synchronous:
                    moves.append((i, nxt))
                else:
                    write(((i, nxt),))
        write(moves)
        return tuple(log), tuple(state)

    def min_margin(self, states: Iterable[Sequence[int]]) -> Fraction | float:
        """Smallest tie margin of any compiled node's aggregate over `states`:
        the smallest gap between distinct aggregate values over 2*D_i."""
        best: tuple[int, int] | None = None  # (gap, 2*D_i)
        for state in states:
            for i, (_, scale) in self.rows.items():
                distinct = sorted(set(self.lanes(self.aggregate(state, i))))
                if len(distinct) < 2:
                    continue
                gap = min(map(sub, distinct[1:], distinct))
                if best is None or gap * best[1] < best[0] * scale:
                    best = (gap, scale)
        return math.inf if best is None else Fraction(*best)

    def report(self, states: Sequence[tuple[int, ...]], mu: int, logs) -> OrbitReport:
        """The OrbitReport of visited `states` whose orbit starts at `mu`."""
        orders = self.graph.orders
        if len(states[0]) > 1:
            prefix = tuple(itemgetter(*state)(orders) for state in states)
        else:  # itemgetter of one index returns the bare order
            prefix = tuple(tuple(map(orders.__getitem__, state)) for state in states)
        return OrbitReport(
            mu=mu,
            period=len(states) - mu,
            orbit=prefix[mu:],
            min_margin=self.min_margin(states[mu:]),
            target_log=tuple([tuple([(i, orders[tau]) for i, tau in log]) for log in logs]),
            prefix=prefix,
        )


def run_until_cycle(
    net: InfluenceNetwork,
    graph: MoveGraph,
    policy: StepPolicy,
    persistent: PersistentConfig,
    initial: Profile,
    schedule: Schedule,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> OrbitReport:
    """Iterate until the state revisits itself and report the exact orbit.

    Deterministic schedules use full state hashing, so mu is minimal and the
    period exact; a fixed node sequence counts as one super-step.  Uniform
    schedules stop at the first profile that no free node's step would move
    (an equilibrium, or a stall under no-move-on-ambiguity) and raise
    BudgetExceededError if none is reached within max_steps single-node
    updates.  Every order of `initial` must be on the graph's alternatives.
    """
    state = tuple(_state_ids(net.n, persistent, initial, graph).values())
    free = persistent.free_nodes(net.n)
    kernel = _Kernel(net, graph, policy, free, state)

    if schedule.kind == "uniform":
        return _run_uniform(kernel, free, state, schedule, max_steps)

    if schedule.kind == "synchronous":
        nodes, synchronous = free, True
    elif schedule.kind == "sequence":
        bad = [i for i in schedule.nodes if i not in free]
        if bad:
            raise ScheduleError(f"scheduled nodes {bad} are pinned or unknown")
        nodes, synchronous = schedule.nodes, False
    else:
        raise ScheduleError(f"unknown schedule kind {schedule.kind!r}")

    seen: dict[tuple[int, ...], int] = {}  # state -> time of first visit, in visit order
    logs = []
    for t in range(max_steps + 1):
        first = seen.get(state)
        if first is not None:
            return kernel.report(list(seen), first, logs)
        seen[state] = t
        log, state = kernel.update(nodes, synchronous)
        logs.append(log)
    raise BudgetExceededError(f"no cycle within {max_steps} steps")


def _run_uniform(kernel: _Kernel, free, state, schedule, max_steps):
    if not free:
        raise ScheduleError("uniform schedule needs at least one free node")
    rng = random.Random(schedule.seed)
    states = [state]
    logs = []
    for t in range(max_steps + 1):
        if all(map(kernel.settled, free)):
            return kernel.report(states, t, logs)
        if t == max_steps:
            break
        log, state = kernel.update((free[rng.randrange(len(free))],), True)
        logs.append(log)
        states.append(state)
    raise BudgetExceededError(f"no fixed point within {max_steps} asynchronous updates")


def is_fixed_point(net: InfluenceNetwork, persistent: PersistentConfig, profile: Profile) -> bool:
    """True iff every free node sits at its target (an equilibrium).

    Fraction reference path.
    """
    _state_ids(net.n, persistent, profile)
    return all(target(net, profile, i) == profile[i] for i in persistent.free_nodes(net.n))


def enumerate_fixed_points(
    net: InfluenceNetwork,
    graph: MoveGraph,
    policy: StepPolicy,
    persistent: PersistentConfig,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> list[Profile]:
    """All profiles the synchronous step map fixes: the equilibria, plus the
    stalls under no-move-on-ambiguity, in the lexicographic order of the free
    nodes' canonical ids.

    Free nodes are assigned in index order.  Node i is checked as soon as it
    and its free in-neighbours all have states, which fixes its target, and a
    failed check prunes every completion.  Raises BudgetExceededError once
    more than `budget` partial profiles have been tried, and before searching
    when the levels up to the first check, which nothing prunes, already
    hold more.
    """
    pinned = _state_ids(net.n, persistent, graph=graph)
    free = persistent.free_nodes(net.n)
    orders = graph.orders
    if not free:
        return [tuple(orders[pinned[i]] for i in range(net.n))]
    # a free node's None is written before any check reads it
    kernel = _Kernel(net, graph, policy, free, [pinned.get(i) for i in range(net.n)])
    level = {node: k for k, node in enumerate(free)}
    checks: list[list[int]] = [[] for _ in free]
    for i in free:
        checks[max(level.get(j, -1) for j in (i, *net.in_neighbors(i)))].append(i)
    space = range(graph.order_count)
    # nothing prunes before the first check, so every partial profile on the
    # levels up to it is tried: refuse at once when they alone exceed the budget
    size, unpruned = 1, 0
    for nodes in checks:
        size *= len(space)
        unpruned += size
        if unpruned > budget:
            raise BudgetExceededError(f"more than {budget} partial profiles tried")
        if nodes:
            break
    write, settled = kernel.write, kernel.settled
    found = []
    tried = 0
    # one iterator over the order ids per assigned level; no recursion, so
    # thousands of free nodes cannot exhaust the call stack
    pending = [iter(space)]
    while pending:
        k = len(pending) - 1
        order = next(pending[-1], None)
        if order is None:
            pending.pop()
            continue
        tried += 1
        if tried > budget:
            raise BudgetExceededError(f"more than {budget} partial profiles tried")
        write(((free[k], order),))
        if not all(map(settled, checks[k])):
            continue
        if k + 1 < len(free):
            pending.append(iter(space))
        else:
            found.append(tuple(kernel.state))
    return [tuple(map(orders.__getitem__, profile)) for profile in found]


def write_trajectory_csv(
    report: OrbitReport,
    node_names: Sequence[str],
    stream: IO[str],
    alt_names: Sequence[str] | None = None,
) -> None:
    """One row per time step up to and including the first repeated state."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["time", *node_names])
    horizon = report.mu + report.period
    for t in range(horizon + 1):
        state = report.state_at(t)
        writer.writerow([t, *(format_order(w, alt_names) for w in state)])


def margin_text(margin: Fraction | float) -> str:
    return "inf" if margin == math.inf else str(Fraction(margin))


def report_to_json_dict(
    report: OrbitReport,
    node_names: Sequence[str],
    alt_names: Sequence[str] | None = None,
    label: str | None = None,
) -> dict:
    """Structured orbit report: mu, period, margin as p/q, orbit in text form."""
    doc = {
        "mu": report.mu,
        "period": report.period,
        "min_margin": margin_text(report.min_margin),
        "orbit": [
            {name: format_order(w, alt_names) for name, w in zip(node_names, state)}
            for state in report.orbit
        ],
    }
    if label is not None:
        doc["label"] = label
    return doc
