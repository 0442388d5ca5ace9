"""Bounded Borda dynamics: synchronous and asynchronous updates with pinning.

Each free node aggregates its in-neighbors' Borda score vectors with its
exact row weights, projects the aggregate back to a weak order (its target),
and moves at most one cover-graph edge toward that target.  Pinned nodes
never move.  Deterministic schedules (synchronous, or a fixed node sequence
applied as one super-step) run until the state revisits itself, which yields
the exact transient length and period.  Seeded uniform-random schedules are
stochastic, so they report convergence to a fixed point or raise a budget
error; no period is claimed for them.

Every entry point compiles one integer kernel, `_Kernel`, from (network,
graph, policy, pins, profile) and runs on it; a verifier's further runs
(sweep starts, a re-pinned twin, trials) restart it by `compile`, with
new start ids or new rows, and build no new kernel.  A state is the tuple of
its orders' canonical ids.  Row i is scaled by the least common denominator D_i
of its weights, the network's `lcds[i]` kept from validation, to integers
W_ij (`_row_over_lcd`, which computes no LCD; a robustness trial's
`_perturb_rows` gives its rows so), and Borda scores are doubled to integers
B2, so node i's aggregate sum_j W_ij * B2[state_j] is exactly 2*D_i times
the Fraction aggregate: ties are decided by integer equality, with no float
and no tolerance.  Order k is packed into one int with a field per pair p =
(a, b), a < b: B2[a] - B2[b] + 2(m-1), in the bits from p*field up.  Node
i's packed aggregate, its total, holds 2*D_i*(agg[a] - agg[b]) in field p,
lifted once to centre every node's fields on beta = 2(m-1)*max D_i; fields
then lie in 0..2*beta and, a power of two wide, never carry into each
other.  The aggregate is linear in each in-neighbour's scores, so writing
node j from order a to b adds W_kj * (packed[b] - packed[a]) to the total
of each listener k, exactly, and no read sums a row.  A target is read from
the total's guard bits by one dict lookup; a tie margin is the smallest
nonzero |field - beta| over 2*D_i.  A move reads its step from the step rows
of the kernel's policy (`MoveGraph.step_rows`).

A run, `_Kernel.run`, yields the visited states, mu and the target logs in
ids, and `run_until_cycle` reads them into an OrbitReport, the one place
WeakOrders appear again, with the orbit margin, which walks the orbit by
writes.  A deterministic run hashes each state to find its cycle.  A
uniform run keeps the set of unsettled free nodes, those whose step would
move them: only a move can change it, and only for the mover and its
listeners, so a draw costs one target read and a move one refresh of those
nodes.  The run stops when the set is empty.  A draw that moves nothing
stores the previous state's tuple again, and the report converts each such
shared tuple once.

The fixed-point search assigns free nodes one level each.  A level is solved
when its node hears only pins and earlier levels, with no self-loop: its
target is fixed as the level opens, so the level tries only the ids that
target's step leaves in place (`MoveGraph.resting_ids`), yet counts every
order against the budget.  `aggregate_scores` keeps the paper's exact
Fraction aggregate as the definition that reference re-drives of a run read.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, mul
from itertools import combinations
from typing import IO, Iterable, Sequence

from .errors import BudgetExceededError, ScheduleError
from .influence import InfluenceNetwork, _row_over_lcd
from .move_graph import MoveGraph, StepPolicy, build_cover_graph
from .weak_orders import WeakOrder, _doubled_borda, borda_scores, enumerate_weak_orders, format_order

Profile = tuple[WeakOrder, ...]

#: one log entry per applied update: (node, target at the moment of update)
TargetLog = tuple[tuple[int, WeakOrder], ...]

DEFAULT_MAX_STEPS = 10_000
DEFAULT_ENUM_BUDGET = 10**6


@dataclass
class PersistentConfig:
    """Pinned nodes with their constant orders.

    The pins are the whole persistent configuration: contrarian camps are
    pins that hold exactly two orders, each the antipode of the other.
    """

    pins: dict[int, WeakOrder] = field(default_factory=dict)

    def free_nodes(self, n: int) -> tuple[int, ...]:
        """The nodes 0..n-1 that hold no pin.  Raises ValueError on a pin at
        other than an int in 0..n-1 (a bool included)."""
        for node in self.pins:
            if type(node) is not int or not 0 <= node < n:
                raise ValueError(f"pin at node {node!r}, but the network's nodes are 0..{n - 1}")
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
    nonzero tie margin of any free node's aggregate score over the orbit
    states, so always a positive Fraction, or math.inf when no orbit score
    has separated alternatives: a realized tie is skipped, not reported as 0.
    """

    mu: int
    period: int
    orbit: tuple[Profile, ...]
    min_margin: Fraction | float
    target_log: tuple[TargetLog, ...]
    prefix: tuple[Profile, ...]

    def state_at(self, t: int) -> Profile:
        """State at any time t >= 0, extending past the stored prefix by
        periodicity.  Raises ValueError for t < 0."""
        if t < 0:
            raise ValueError(f"time {t} is before the start of the run")
        if t < len(self.prefix):
            return self.prefix[t]
        return self.orbit[(t - self.mu) % self.period]


def aggregate_scores(net: InfluenceNetwork, profile: Profile, i: int) -> tuple[Fraction, ...]:
    """Weighted average of the in-neighbors' Borda score vectors, exact.

    The paper's definition in Fractions; runs use the integer kernel.
    """
    m = profile[i].m
    totals = [Fraction(0)] * m
    for j, w in net.rows[i]:
        for a, s in enumerate(borda_scores(profile[j])):
            totals[a] += w * s
    return tuple(totals)


def step_sync(
    net: InfluenceNetwork,
    graph: MoveGraph,
    policy: StepPolicy,
    persistent: PersistentConfig,
    profile: Profile,
) -> Profile:
    """One synchronous step: every free node moves toward its target, targets
    taken from the pre-update profile; pinned nodes unchanged."""
    kernel = _Kernel(net, graph, policy, persistent, profile)
    return tuple(map(graph.orders.__getitem__, kernel.update(kernel.free, True)[1]))


def step_async(
    net: InfluenceNetwork,
    graph: MoveGraph,
    policy: StepPolicy,
    persistent: PersistentConfig,
    profile: Profile,
    i: int,
) -> Profile:
    """One asynchronous step: only node i moves.  Raises ScheduleError when
    node i is pinned or not one of the network's nodes (a bool or another
    non-int included), after the pins are checked and before the profile is
    read."""
    if type(i) is not int or i not in persistent.free_nodes(net.n):
        raise ScheduleError(f"scheduled node {i!r} is pinned or unknown")
    kernel = _Kernel(net, graph, policy, persistent, profile)
    return tuple(map(graph.orders.__getitem__, kernel.update((i,), True)[1]))


def _guard_key(total: int, c1: int, c2: int, guards: int) -> int:
    """The guard bits of a packed aggregate's pair fields (see `_Kernel`)."""
    return (total + c1 & guards) | (total + c2 & guards) >> 1


def _guards(m: int, field: int, beta: int) -> tuple[int, int, int, int]:
    """(C1, C2, G) of `_guard_key` for `field`-bit fields centred on `beta`, and a 1 in every field."""
    ones = sum(1 << p * field for p in range(m * (m - 1) // 2))
    top = 1 << field - 1
    return (top - beta) * ones, (top - beta - 1) * ones, top * ones, ones


@lru_cache(maxsize=None)
def _pair_tables(m: int, field: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """Packed pair fields by canonical id (see the module docstring), and guard key -> canonical id.

    An order's doubled scores are `_doubled_borda`'s.  `signs[a]` is +1 in
    the fields of the pairs that open with a and -1 in those that close with
    it.  An order's own scores project to it (criterion 02), so its key is
    that of every aggregate that projects to it.  Raises RuntimeError if two
    orders share a key.
    """
    c1, c2, guards, ones = _guards(m, field, 2 * (m - 1))
    signs = [0] * m
    for p, (a, b) in enumerate(combinations(range(m), 2)):
        signs[a] += 1 << p * field
        signs[b] -= 1 << p * field
    lift = 2 * (m - 1) * ones
    packed = [sum(map(mul, _doubled_borda(order), signs), lift) for order in enumerate_weak_orders(m)]
    keys = {_guard_key(total, c1, c2, guards): k for k, total in enumerate(packed)}
    if len(keys) != len(packed):
        raise RuntimeError(f"two orders on {m} alternatives share a guard key")
    return tuple(packed), keys


class _Kernel:
    """The one kernel of every entry point: a network, graph, policy and pins
    compiled to integers over canonical ids, with one state that only
    `write` changes (see the module docstring).

    `free` holds the free nodes, the compiled ones: `rows[i]` is ((j, W_ij)
    per in-neighbour, D_i), D_i the network's `lcds[i]` or a trial's own
    LCD, `listeners[j]` holds (k, W_kj) per free node k whose row reads j,
    and `totals[i]` is node i's packed aggregate in the state.  `packed[k]`
    is order k's pair fields.  A field's top bit 2^top exceeds beta, so
    adding C1 (2^top - beta per field) sets it in field (a, b) iff agg[a] >=
    agg[b], C2 (one less) iff agg[a] > agg[b], and neither carries out:
    `keys` maps these guard bits, ((t + C1) & G) | ((t + C2) & G) >> 1 for G
    the top bits, to the target id.  `steps` is the graph's step rows for
    the kernel's policy.
    """

    def __init__(self, net: InfluenceNetwork, graph: MoveGraph, policy: StepPolicy, persistent: PersistentConfig,
                 profile: Profile):
        """Start at `profile`'s ids.  Raises ValueError on a pin at other
        than an int in 0..n-1 (a bool included), a profile of other than n
        orders or off a pin, and an order on another m, in that order."""
        n, pins = net.n, persistent.pins
        self.free = persistent.free_nodes(n)
        if len(profile) != n:
            raise ValueError(f"profile length {len(profile)}, but the network has {n} nodes")
        for node, order in pins.items():
            if profile[node] is not order and profile[node] != order:
                raise ValueError(f"profile disagrees with pin at node {node}")
        state = [0] * n
        try:
            for node, order in enumerate(profile):
                state[node] = graph.id_of(order)
        except ValueError:
            raise ValueError(f"node {node} has an order on {order.m} alternatives, "
                             f"but the move graph is on {graph.m}") from None
        self.graph = graph
        self.stay_on_ambiguity = policy.allow_no_move_on_ambiguity
        self.steps = graph.step_rows(self.stay_on_ambiguity)
        self.compile({i: _row_over_lcd(net.rows[i], net.lcds[i]) for i in self.free}, state)

    def compile(self, rows: dict[int, tuple[tuple[tuple[int, int], ...], int]], start: Sequence[int]) -> None:
        """Compile `rows[i]` = ((j, W_ij), D_i) per free node i and put the kernel at the `start` ids."""
        self.state = state = list(start)
        m = self.graph.m
        self.rows = rows
        self.listeners: list[list[tuple[int, int]]] = [[] for _ in state]
        for i, (row, _) in rows.items():
            for j, w in row:
                self.listeners[j].append((i, w))
        self.beta = beta = 2 * (m - 1) * max((d for _, d in rows.values()), default=1)
        field = 1 << ((2 * beta).bit_length() - 1).bit_length()
        self.mask, self.shifts = (1 << field) - 1, range(0, m * (m - 1) // 2 * field, field)
        self.packed, self.keys = _pair_tables(m, field)
        self.c1, self.c2, self.guards, ones = _guards(m, field, beta)
        # node i's row centres its fields on 2(m-1)*D_i: lift them to beta once
        self.totals = [0] * len(state)
        for i, (row, d) in rows.items():
            self.totals[i] = sum([w * self.packed[state[j]] for j, w in row]) + (beta - 2 * (m - 1) * d) * ones

    def target(self, i: int) -> int:
        """Node i's target in the kernel's state."""
        return self.keys[_guard_key(self.totals[i], self.c1, self.c2, self.guards)]

    def gap(self, total: int) -> int:
        """The smallest nonzero |field - beta| of a packed aggregate (0 if none),
        2*D_i times its smallest gap between distinct scores."""
        beta, mask = self.beta, self.mask
        return min(filter(None, [abs((total >> shift & mask) - beta) for shift in self.shifts]), default=0)

    def settled(self, i: int) -> bool:
        """True iff node i's step leaves it where it is: at its target, or
        stalled there under no-move-on-ambiguity."""
        current = self.state[i]
        return self.steps[self.target(i)][current] == current

    def write(self, moves: Iterable[tuple[int, int]]) -> None:
        """Apply `(node, id)` moves, adding each one's score delta to its listeners' totals."""
        state, totals, listeners, packed = self.state, self.totals, self.listeners, self.packed
        for j, nxt in moves:
            delta = packed[nxt] - packed[state[j]]
            state[j] = nxt
            for k, w in listeners[j]:
                totals[k] += w * delta

    def update(self, nodes: Sequence[int], synchronous: bool):
        """Move each of `nodes` in turn one step toward its target.

        A synchronous step reads every target from the state before the
        step, so its moves are written once every node has been read; a
        sequence step writes each move at once, so later nodes (the mover
        too, on a self-loop) read it.  Returns the target log and the new
        state.
        """
        state, totals, keys, write = self.state, self.totals, self.keys, self.write
        c1, c2, guards = self.c1, self.c2, self.guards
        steps, log, moves = self.steps, [], []
        for i in nodes:
            total = totals[i]
            tau = keys[(total + c1 & guards) | (total + c2 & guards) >> 1]  # `_guard_key`, inline
            log.append((i, tau))
            current = state[i]
            if current == tau:
                continue
            nxt = steps[tau][current]
            if nxt != current:
                if synchronous:
                    moves.append((i, nxt))
                else:
                    write(((i, nxt),))
        write(moves)
        return tuple(log), tuple(state)

    def run(self, schedule: Schedule, max_steps: int):
        """`run_until_cycle` from the kernel's state, in ids: the visited
        states (a uniform run's last one included, a repeated state not), mu
        and each step's target log.  The kernel ends at states[mu].  A
        deterministic step is `update`'s (nodes, synchronous): all free nodes
        at once, or the sequence in turn.  A uniform run keeps the set of
        free nodes whose step would move them, refreshed only for each mover
        and its listeners, and stops once it is empty; a draw that moves
        nothing logs its target and repeats the previous state object."""
        free, kind = self.free, schedule.kind
        if kind == "uniform":
            if not free:
                raise ScheduleError("uniform schedule needs at least one free node")
            return self._settle(random.Random(schedule.seed), max_steps)
        if kind == "synchronous":
            nodes = free
        elif kind == "sequence":
            bad = [i for i in schedule.nodes if type(i) is not int or i not in free]
            if bad:
                raise ScheduleError(f"scheduled nodes {bad} are pinned or unknown")
            nodes = schedule.nodes
        else:
            raise ScheduleError(f"unknown schedule kind {kind!r}")
        synchronous, update = kind == "synchronous", self.update
        seen: dict[tuple[int, ...], int] = {}  # state -> time of first visit, in visit order
        logs = []
        state = tuple(self.state)
        for t in range(max_steps + 1):
            if (first := seen.setdefault(state, t)) != t:
                return list(seen), first, logs
            if t < max_steps:
                log, state = update(nodes, synchronous)
                logs.append(log)
        raise BudgetExceededError(f"no cycle within {max_steps} steps")

    def _settle(self, rng: random.Random, max_steps: int):
        """`run`'s uniform schedule: one `rng.randrange(len(free))` draw per update."""
        free, state, listeners, settled, target = self.free, self.state, self.listeners, self.settled, self.target
        steps, write, draw = self.steps, self.write, rng.randrange
        unsettled = {i for i in free if not settled(i)}
        visited = tuple(state)
        states, logs = [visited], []
        while unsettled:
            if len(logs) == max_steps:
                raise BudgetExceededError(f"no fixed point within {max_steps} asynchronous updates")
            i = free[draw(len(free))]
            tau = target(i)
            logs.append(((i, tau),))
            if i in unsettled:
                write(((i, steps[tau][state[i]]),))
                visited = tuple(state)
                for k in (i, *[k for k, _ in listeners[i]]):  # a self-loop lists i twice
                    if settled(k):
                        unsettled.discard(k)
                    else:
                        unsettled.add(k)
            states.append(visited)
        return states, len(logs), logs

    def min_margin(self, orbit: Sequence[tuple[int, ...]]) -> Fraction | float:
        """Smallest tie margin of any compiled node's aggregate over the
        `orbit` states: the smallest gap between distinct aggregate values
        over 2*D_i.  The kernel reaches each state in turn by writing the
        nodes whose ids differ, so it ends at orbit[-1].  Each distinct
        (total, D_i) the orbit holds has its gap computed once."""
        state, totals, rows, write, gap_of = self.state, self.totals, self.rows, self.write, self.gap
        held = set()
        for ids in orbit:
            write([(j, b) for j, (a, b) in enumerate(zip(state, ids)) if a != b])
            held.update([(totals[i], d) for i, (_, d) in rows.items()])
        best: tuple[int, int] | None = None  # (gap, D_i)
        for total, d in held:
            gap = gap_of(total)
            if gap and (best is None or gap * best[1] < best[0] * d):
                best = (gap, d)
        return math.inf if best is None else Fraction(best[0], 2 * best[1])

    def report(self, states: Sequence[tuple[int, ...]], mu: int, logs) -> OrbitReport:
        """The OrbitReport of visited `states` with the orbit from `mu`.  A
        state object that repeats from one visit to the next (a uniform draw
        that moved nothing) is converted once."""
        orders = self.graph.orders
        rows, last, row = [], None, ()
        for state in states:
            if state is not last:
                # itemgetter of one index returns the bare order
                last, row = state, itemgetter(*state)(orders) if len(state) > 1 else (orders[state[0]],)
            rows.append(row)
        prefix = tuple(rows)
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
    kernel = _Kernel(net, graph, policy, persistent, initial)
    return kernel.report(*kernel.run(schedule, max_steps))


def is_fixed_point(net: InfluenceNetwork, persistent: PersistentConfig, profile: Profile) -> bool:
    """True iff every free node sits at its target (an equilibrium).

    Targets are read on the move graph of the first order's m, so an order
    on another m is refused as at every other entry point.
    """
    graph = build_cover_graph(profile[0].m if profile else 2)  # an empty profile has no m; any graph checks it
    kernel = _Kernel(net, graph, StepPolicy(), persistent, profile)
    return all(kernel.target(i) == kernel.state[i] for i in kernel.free)


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
    failed check prunes every completion.  A level whose node hears only
    pins and earlier levels, with no self-loop, is solved: it tries only the
    ids its node's target leaves in place, but counts every order as tried
    when it opens, so the budget reads as if each had been.  Raises
    BudgetExceededError once more than `budget` partial profiles have been
    tried, and before searching when the levels up to the first check, which
    nothing prunes, already hold more.
    """
    # unassigned free nodes sit at id 0, so every total is a real state's
    kernel = _Kernel(net, graph, policy, persistent,
                     tuple(persistent.pins.get(i, graph.orders[0]) for i in range(net.n)))
    free, orders = kernel.free, graph.orders
    if not free:
        return [tuple(map(orders.__getitem__, kernel.state))]
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
    # solved levels (see the module docstring); a self-loop reads level k itself, so is never solved
    solved = [max(level.get(j, -1) for j in net.in_neighbors(i)) < k for k, i in enumerate(free)]
    write, settled = kernel.write, kernel.settled
    found = []
    tried = 0

    def opened(k):
        """The ids level k tries.  A solved level counts all of `space` as it
        opens; it holds at least its target, so the budget check follows."""
        nonlocal tried
        if not solved[k]:
            return iter(space)
        tried += len(space)
        return iter(graph.resting_ids(kernel.target(free[k]), kernel.stay_on_ambiguity))

    # one iterator over the order ids per assigned level; no recursion, so
    # thousands of free nodes cannot exhaust the call stack
    pending = [opened(0)]
    while pending:
        k = len(pending) - 1
        order = next(pending[-1], None)
        if order is None:
            pending.pop()
            continue
        tried += not solved[k]
        if tried > budget:
            raise BudgetExceededError(f"more than {budget} partial profiles tried")
        write(((free[k], order),))
        if not all(map(settled, checks[k])):
            continue
        if k + 1 < len(free):
            pending.append(opened(k + 1))
        else:
            found.append(tuple(kernel.state))
    return [tuple(map(orders.__getitem__, profile)) for profile in found]


def write_trajectory_csv(report: OrbitReport, node_names: Sequence[str], stream: IO[str]) -> None:
    """One row per time step up to and including the first repeated state."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["time", *node_names])
    horizon = report.mu + report.period
    for t in range(horizon + 1):
        state = report.state_at(t)
        writer.writerow([t, *map(format_order, state)])


def margin_text(margin: Fraction | float) -> str:
    return "inf" if margin == math.inf else str(Fraction(margin))


def report_to_json_dict(report: OrbitReport, node_names: Sequence[str], label: str) -> dict:
    """Structured orbit report: mu, period, margin as p/q, orbit in text form."""
    return {
        "mu": report.mu,
        "period": report.period,
        "min_margin": margin_text(report.min_margin),
        "orbit": [
            dict(zip(node_names, map(format_order, state)))
            for state in report.orbit
        ],
        "label": label,
    }
