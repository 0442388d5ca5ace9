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
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
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
    margin_from_ties,
    project,
)

Profile = tuple[WeakOrder, ...]

#: one log entry per applied update: (node, target at the moment of update)
TargetLog = tuple[tuple[int, WeakOrder], ...]

DEFAULT_MAX_STEPS = 10_000
DEFAULT_ENUM_BUDGET = 10**6


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

    def check_profile(self, profile: Profile) -> None:
        for node, order in self.pins.items():
            if profile[node] != order:
                raise ValueError(f"profile disagrees with pin at node {node}")


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
    """Weighted average of the in-neighbors' Borda score vectors, exact."""
    m = profile[i].m
    totals = [Fraction(0)] * m
    for j, w in enumerate(net.weights[i]):
        if w == 0:
            continue
        for a, s in enumerate(borda_scores(profile[j])):
            totals[a] += w * s
    return tuple(totals)


def target(net: InfluenceNetwork, profile: Profile, i: int) -> WeakOrder:
    """Node i's target order: projection of its aggregated score vector."""
    return project(aggregate_scores(net, profile, i))


def step_sync(
    net: InfluenceNetwork,
    graph: MoveGraph,
    policy: StepPolicy,
    persistent: PersistentConfig,
    profile: Profile,
) -> Profile:
    """One synchronous step: every free node moves toward its target, targets
    taken from the pre-update profile; pinned nodes unchanged."""
    return _update(net, graph, policy, persistent.free_nodes(net.n), profile, True)[1]


def step_async(
    net: InfluenceNetwork,
    graph: MoveGraph,
    policy: StepPolicy,
    persistent: PersistentConfig,
    profile: Profile,
    i: int,
) -> Profile:
    """One asynchronous step: only node i moves."""
    if i in persistent.pins:
        raise ScheduleError(f"node {i} is pinned and cannot be scheduled")
    return _update(net, graph, policy, (i,), profile, True)[1]


def _update(net, graph, policy, nodes, profile, synchronous):
    """Move each of `nodes` in turn one step toward its target.

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


def _ids(profile: Profile) -> tuple[int, ...]:
    return tuple(w.canonical_id for w in profile)


def min_margin_over(
    net: InfluenceNetwork, free: Sequence[int], states: Iterable[Profile]
) -> Fraction | float:
    """Smallest tie margin of any free node's aggregate over the given states."""
    best: Fraction | float = math.inf
    for state in states:
        for i in free:
            margin = margin_from_ties(aggregate_scores(net, state, i))
            if margin < best:
                best = margin
    return best


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
    updates.
    """
    persistent.check_profile(initial)
    free = persistent.free_nodes(net.n)
    for node, order in persistent.pins.items():
        if order.m != initial[0].m:
            raise ValueError(f"pin at node {node} has mismatched alternative count")

    if schedule.kind == "uniform":
        return _run_uniform(net, graph, policy, persistent, initial, schedule, max_steps, free)

    if schedule.kind == "synchronous":
        nodes, synchronous = free, True
    elif schedule.kind == "sequence":
        bad = [i for i in schedule.nodes if i not in free]
        if bad:
            raise ScheduleError(f"scheduled nodes {bad} are pinned or unknown")
        nodes, synchronous = schedule.nodes, False
    else:
        raise ScheduleError(f"unknown schedule kind {schedule.kind!r}")

    seen: dict[tuple[int, ...], int] = {}
    prefix: list[Profile] = []
    logs: list[TargetLog] = []
    state = initial
    for t in range(max_steps + 1):
        key = _ids(state)
        first = seen.get(key)
        if first is not None:
            mu, period = first, t - first
            orbit = tuple(prefix[mu:t])
            return OrbitReport(
                mu=mu,
                period=period,
                orbit=orbit,
                min_margin=min_margin_over(net, free, orbit),
                target_log=tuple(logs),
                prefix=tuple(prefix),
            )
        seen[key] = t
        prefix.append(state)
        log, state = _update(net, graph, policy, nodes, state, synchronous)
        logs.append(log)
    raise BudgetExceededError(f"no cycle within {max_steps} steps")


def _run_uniform(net, graph, policy, persistent, initial, schedule, max_steps, free):
    if not free:
        raise ScheduleError("uniform schedule needs at least one free node")
    rng = random.Random(schedule.seed)
    state = initial
    prefix = [state]
    logs: list[TargetLog] = []
    for t in range(max_steps + 1):
        if all(_stays(net, graph, policy, state, i) for i in free):
            return OrbitReport(
                mu=t,
                period=1,
                orbit=(state,),
                min_margin=min_margin_over(net, free, (state,)),
                target_log=tuple(logs),
                prefix=tuple(prefix),
            )
        if t == max_steps:
            break
        i = free[rng.randrange(len(free))]
        log, state = _update(net, graph, policy, (i,), state, True)
        logs.append(log)
        prefix.append(state)
    raise BudgetExceededError(f"no fixed point within {max_steps} asynchronous updates")


def is_fixed_point(net: InfluenceNetwork, persistent: PersistentConfig, profile: Profile) -> bool:
    """True iff every free node sits at its target (an equilibrium)."""
    persistent.check_profile(profile)
    return all(target(net, profile, i) == profile[i] for i in persistent.free_nodes(net.n))


def _stays(
    net: InfluenceNetwork, graph: MoveGraph, policy: StepPolicy, profile: Sequence[WeakOrder], i: int
) -> bool:
    """True iff node i's step leaves it where it is: at its target, or
    stalled there under no-move-on-ambiguity."""
    return graph_step(policy, graph, profile[i], target(net, profile, i)) == profile[i]


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
    more than `budget` partial profiles have been tried.
    """
    free = persistent.free_nodes(net.n)
    profile: list[WeakOrder | None] = [None] * net.n
    for node, order in persistent.pins.items():
        profile[node] = order
    if not free:
        return [tuple(profile)]  # type: ignore[arg-type]
    level = {node: k for k, node in enumerate(free)}
    checks: list[list[int]] = [[] for _ in free]
    for i in free:
        checks[max(level.get(j, -1) for j in (i, *net.in_neighbors(i)))].append(i)
    space = enumerate_weak_orders(graph.m)
    found = []
    tried = 0
    # one iterator over the orders per assigned level; no recursion, so
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
        profile[free[k]] = order
        if not all(_stays(net, graph, policy, profile, i) for i in checks[k]):
            continue
        if k + 1 < len(free):
            pending.append(iter(space))
        else:
            found.append(tuple(profile))
    return found


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
