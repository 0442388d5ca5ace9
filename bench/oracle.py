"""Per-op correctness oracle and exact counters, run outside the timed pass.

Every returned OrbitReport is re-driven with the program's reference path
(aggregate_scores -> project -> move_graph.step): each prefix transition and
its target log must be reproduced, the last transition must close the orbit,
the prefix states must be distinct (so mu is minimal), and a uniform run must
end at a fixed point.  The exact counters are taken from the same re-drive,
so they describe the returned reports, never the program's internals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from workloads import BUDGET, sha


@dataclass
class Reference:
    """The reference layer functions, taken before any tracing is installed."""

    aggregate_scores: object
    project: object
    step: object
    build_cover_graph: object

    @classmethod
    def of(cls, bd) -> "Reference":
        return cls(bd.dynamics.aggregate_scores, bd.weak_orders.project, bd.move_graph.step,
                   bd.build_cover_graph)

    def target(self, net, state, i):
        return self.project(self.aggregate_scores(net, state, i))


@dataclass
class Counters:
    steps: int = 0
    node_updates: int = 0
    moves: int = 0
    stalls: int = 0
    states_stored: int = 0
    target_repeats: int = 0
    targets_away: set = field(default_factory=set)  # distinct targets a step had to reach

    def metrics(self) -> dict:
        return {
            "dynamics.steps": self.steps,
            "dynamics.node_updates": self.node_updates,
            "dynamics.moves": self.moves,
            "dynamics.stalls": self.stalls,
            "dynamics.states_stored": self.states_stored,
            "dynamics.target.repeat_share": self.target_repeats / max(self.node_updates, 1),
            "move_graph.distance_rows": len(self.targets_away),
        }


@dataclass(frozen=True)
class RunArgs:
    """The arguments of one run_until_cycle call."""

    net: object
    graph: object
    policy: object
    persistent: object
    initial: tuple
    schedule: object


def run_args(ref: Reference, scenario) -> RunArgs:
    return RunArgs(scenario.network, ref.build_cover_graph(scenario.m), scenario.policy,
                   scenario.persistent, scenario.initial, scenario.schedule)


def check_report(ref: Reference, run: RunArgs, report, counters: Counters) -> str | None:
    """None when the report is what the reference path gives, else the first problem."""
    net, graph, policy = run.net, run.graph, run.policy
    free = run.persistent.free_nodes(net.n)
    prefix, logs = report.prefix, report.target_log
    if not prefix or prefix[0] != run.initial:
        return "prefix does not start at the initial profile"
    listens_to = {i: net.in_neighbors(i) for i in free}
    seen = set()

    def update(view, i):
        # one reference update of node i reading the profile `view`
        current = view[i]
        tau = ref.target(net, view, i)
        nxt = ref.step(policy, graph, current, tau)
        key = (i, tuple(view[j] for j in listens_to[i]))
        counters.target_repeats += key in seen
        seen.add(key)
        counters.node_updates += 1
        counters.moves += nxt != current
        if tau != current:
            counters.targets_away.add(tau)
            counters.stalls += nxt == current
        return tau, nxt

    counters.steps += len(logs)
    counters.states_stored += len(prefix)

    if run.schedule.kind == "uniform":
        if (len(prefix) != len(logs) + 1 or report.mu != len(logs) or report.period != 1
                or tuple(report.orbit) != (prefix[-1],)):
            return "uniform report is not a path ending in its orbit state"
        for t, log in enumerate(logs):
            if len(log) != 1 or log[0][0] not in listens_to:
                return f"update {t}: log is not one free node"
            i, tau = log[0]
            state = prefix[t]
            ref_tau, nxt = update(state, i)
            if tau != ref_tau:
                return f"update {t}: logged target differs from the reference"
            if prefix[t + 1] != state[:i] + (nxt,) + state[i + 1:]:
                return f"update {t}: next state differs from the reference"
        last = prefix[-1]
        if any(ref.target(net, last, i) != last[i] for i in free):
            return "uniform run did not end at a fixed point"
        return None

    mu, period = report.mu, report.period
    if period < 1 or mu < 0 or len(prefix) != mu + period or len(logs) != len(prefix):
        return "report lengths disagree with mu and period"
    if tuple(report.orbit) != tuple(prefix[mu:]):
        return "orbit is not prefix[mu:]"
    if len(set(prefix)) != len(prefix):
        return "prefix repeats a state, so mu is not minimal"
    synchronous = run.schedule.kind == "synchronous"
    nodes = free if synchronous else run.schedule.nodes
    for t, state in enumerate(prefix):
        cur = list(state)
        log = []
        for i in nodes:
            tau, cur[i] = update(state if synchronous else tuple(cur), i)
            log.append((i, tau))
        if tuple(log) != tuple(logs[t]):
            return f"step {t}: target log differs from the reference"
        closing = t + 1 == len(prefix)
        if tuple(cur) != (prefix[mu] if closing else prefix[t + 1]):
            return f"step {t}: " + ("orbit does not close" if closing else "next state differs")
    return None


def ids(state) -> tuple:
    return tuple(w.canonical_id for w in state)


def orbit_digest(report) -> tuple:
    return (report.mu, report.period, tuple(ids(state) for state in report.orbit))


def fingerprint(call, outcome):
    """The whole outcome of a call as plain data.

    Each pass imports the program afresh, so outcomes of two passes are objects
    of different classes and compare unequal; their fingerprints compare equal
    exactly when the outcomes have the same content.
    """
    if call.kind == "run":
        if outcome == BUDGET:
            return BUDGET
        return (outcome.mu, outcome.period, str(outcome.min_margin),
                tuple(ids(state) for state in outcome.prefix),
                tuple(tuple((i, tau.canonical_id) for i, tau in log)
                      for log in outcome.target_log))
    if call.kind == "verifier":
        return json.dumps(outcome.to_json_dict(), sort_keys=True)
    return outcome  # (exit code, stdout) of a CLI call


class Oracle:
    """Checks call outcomes; one instance per pass so report checks are shared."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.counters = Counters()
        self._checked: dict[int, str | None] = {}

    def report(self, run: RunArgs, report) -> str | None:
        """Check one report once, adding its counts to the pass counters."""
        key = id(report)
        if key not in self._checked:
            self._checked[key] = check_report(self.ref, run, report, self.counters)
        return self._checked[key]

    def check(self, call, outcome) -> tuple[str | None, tuple]:
        """(problem or None, digest item) for one call outcome."""
        kind = call.kind
        if kind == "run":
            if outcome == BUDGET:
                return None, (call.spec.label, BUDGET)
            return self.report(run_args(self.ref, call.scenario), outcome), orbit_digest(outcome)
        if kind == "verifier":
            doc = outcome.to_json_dict()
            problem = None if outcome.passed else f"{outcome.claim} did not hold"
            return problem, (call.verifier, outcome.passed, sha(json.dumps(doc, sort_keys=True)))
        code, stdout = outcome
        item = (kind, call.name, code, sha(stdout))
        if kind == "verify":
            return verify_problem(call, code, stdout), item
        return self.simulate_problem(call, code, stdout), item

    def simulate_problem(self, call, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"simulate {call.name}: exit code {code}, expected 0"
        doc = json.loads(stdout)
        scenario = call.reference
        report = scenario.run()
        problem = check_report(self.ref, run_args(self.ref, scenario), report, Counters())
        if problem:
            return f"simulate {call.name}: {problem}"
        printed = (doc["mu"], doc["period"], len(doc["orbit"]))
        if printed != (report.mu, report.period, report.period):
            return f"simulate {call.name}: printed orbit differs from the reference run"
        return None


def verify_problem(call, code: int, stdout: str) -> str | None:
    """Exit code 0 and every suite entry matching its expectation."""
    if code != 0:
        return f"verify {call.name}: exit code {code}, expected 0"
    results = json.loads(stdout)
    labels = [r["label"] for r in results]
    if labels != [entry.label for entry in call.reference]:
        return f"verify {call.name}: labels {labels} differ from the suite"
    missed = [r["label"] for r in results if not r["matched_expectation"]]
    if missed:
        return f"verify {call.name}: entries {missed} missed their expectation"
    return None
