"""Executable checks for the constructive dynamical claims.

Each verifier re-derives its hypotheses from the realized scenario (it never
trusts the builder), runs the dynamics, and returns a VerificationOutcome
whose evidence is enough to replay a failure: measured transient and period,
margins, and the first offending step where applicable.  A verifier that
runs more than once compiles one kernel (`_kernel`): each further run is a
restart, `_Kernel.compile` then `_Kernel.run`.  A suite manifest
(`load_suite`) pairs each verifier with a scenario file, named by its path.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .dynamics import (
    DEFAULT_ENUM_BUDGET,
    Profile,
    _Kernel,
    enumerate_fixed_points,
    margin_text,
)
from .errors import BudgetExceededError, ScenarioBuildError, ScenarioFormatError
from .influence import _crossing_bipartition, _perturb_rows, _row_over_lcd, class_structure, reach
from .move_graph import build_cover_graph
from .scenarios import (
    ScenarioConfig,
    _field,
    _node,
    _only,
    _orders,
    _read_json,
    load_scenario,
)
from .weak_orders import (
    WeakOrder,
    alternative_names,
    antipode,
    enumerate_weak_orders,
    format_order,
)


@dataclass
class VerificationOutcome:
    """Result of one verifier: a claim, a verdict, and replayable evidence."""

    claim: str
    passed: bool
    evidence: dict

    def to_json_dict(self) -> dict:
        return {"claim": self.claim, "passed": self.passed, "evidence": _jsonable(self.evidence)}


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _profile_text(sc: ScenarioConfig, profile: Profile) -> dict[str, str]:
    return dict(zip(sc.network.names, map(format_order, profile)))


def _hypothesis_not_met(claim: str, reason: str, **extra) -> VerificationOutcome:
    evidence = {"hypothesis_met": False, "reason": reason}
    evidence.update(extra)
    return VerificationOutcome(claim, False, evidence)


def _kernel(sc: ScenarioConfig) -> _Kernel:
    """The one kernel of a verifier that runs `sc` more than once, at its start."""
    return _Kernel(sc.network, build_cover_graph(sc.m), sc.policy, sc.persistent, sc.initial)


# --- traveling waves on directed rings --------------------------------------


def _ring_order(sc: ScenarioConfig) -> list[int] | None:
    """The nodes from node 0 along the copied nodes, when the network is one
    copier ring: every row has one entry, and the walk meets every node once
    before it returns to node 0."""
    rows = sc.network.rows
    if any(len(row) != 1 for row in rows):
        return None
    walk = [0]
    for _ in rows[1:]:
        walk.append(rows[walk[-1]][0][0])
    return walk if len(set(walk)) == len(rows) and rows[walk[-1]][0][0] == 0 else None


def verify_traveling_wave(sc: ScenarioConfig, expected_k: int) -> VerificationOutcome:
    """A synchronous copier ring sustains a wave of period expected_k from time 0.

    The hypothesis: no pins, a synchronous schedule, one copier ring, and
    every node starting within one cover edge of its predecessor's start.
    Then each node reaches its target, its predecessor's state, in one step,
    so x_i(t+1) = x_pred(i)(t) from time 0 and the start rotates along the
    ring: the predicted orbit has mu 0 and, as period, the least rotation
    period of the start read along the ring.  Passes when the run gives the
    predicted orbit and the predicted period is expected_k.
    """
    claim = f"{sc.label}: copier ring oscillates with period {expected_k}"
    if sc.persistent.pins:
        return _hypothesis_not_met(claim, "persistent nodes present on the ring")
    if sc.schedule.kind != "synchronous":
        return _hypothesis_not_met(claim, "schedule is not synchronous")
    ring = _ring_order(sc)
    if ring is None:
        return _hypothesis_not_met(claim, "network is not a single copier ring")
    graph = build_cover_graph(sc.m)
    ids = [graph.id_of(w) for w in sc.initial]
    for i, ((pred, _),) in enumerate(sc.network.rows):
        gap = graph.distance_ids(ids[i], ids[pred])
        if gap > 1:
            reason = "a node starts more than one cover edge from its predecessor's start"
            return _hypothesis_not_met(claim, reason, node=sc.network.names[i], distance=gap)
    predicted = _cyclic_min_period([ids[i] for i in ring])

    report = sc.run()
    return VerificationOutcome(
        claim,
        (report.mu, report.period) == (0, predicted) and predicted == expected_k,
        {
            "hypothesis_met": True,
            "mu": report.mu,
            "period": report.period,
            "predicted_period": predicted,
            "expected_period": expected_k,
            "non_oscillating": report.period == 1,
            "min_margin": margin_text(report.min_margin),
        },
    )


# --- forced even-period oscillations under contrarian camps ------------------


def verify_forced_even_period(sc: ScenarioConfig) -> VerificationOutcome:
    """Contrarian camps on a period-2 closed free class force an even period.

    The camps are read off the pins: the hypothesis holds when the pinned
    nodes hold exactly two distinct orders, each the antipode of the other.

    Runs the configured initial profile first and, if needed, sweeps all
    initial assignments on the closed class (BudgetExceededError past
    DEFAULT_ENUM_BUDGET of them), each a restart of one kernel.  Passes when
    some run has an even period greater than 1; the evidence's run, margin
    included, is the witness's, else the configured start's.

    The claim is about an orbit, not about every start: contrarian camps never
    remove every equilibrium.  With B(rho) = c + v, B(all-tied) = c and
    B(antipode) = c - v, free profiles in {rho, all-tied, antipode}, coded
    1, 0, -1, map to targets in the same set by the sign of the weighted sum
    of each node's in-neighbour codes, an order-preserving map whose
    iteration from all-rho stops at a fixed point.  `fixed_point_count` is
    therefore evidence only and is never zero; it is null only when the
    fixed-point search exceeds its budget.
    """
    claim = f"{sc.label}: contrarian camps force an even period > 1"
    pc = sc.persistent
    orders = set(pc.pins.values())
    if len(orders) != 2 or orders != {antipode(w) for w in orders}:
        return _hypothesis_not_met(claim, "no contrarian camps configured")
    free = pc.free_nodes(sc.network.n)
    structure = class_structure(sc.network, free)
    period2 = [c for c in structure.closed_classes if structure.period_of.get(c) == 2]
    if not period2:
        return _hypothesis_not_met(
            claim,
            "no closed free class of period 2",
            closed_class_periods={str(c): structure.period_of.get(c) for c in structure.closed_classes},
        )
    cls = period2[0]

    kernel = _kernel(sc)
    found, reported = False, None
    for tried, start in enumerate(_class_starts(kernel, cls), 1):
        kernel.compile(kernel.rows, start)
        states, mu, _ = kernel.run(sc.schedule, sc.max_steps)
        orbit = states[mu:]
        reported = reported or (start, mu, orbit)  # the configured start's run, unless a witness replaces it
        if len(orbit) > 1 and len(orbit) % 2 == 0:
            found, reported = True, (start, mu, orbit)
            break
    witness, mu, orbit = reported
    margin = kernel.min_margin(orbit)

    try:
        fixed_points = enumerate_fixed_points(sc.network, build_cover_graph(sc.m), sc.policy, pc)
    except BudgetExceededError:
        fixed_points = None

    return VerificationOutcome(
        claim,
        found,
        {
            "hypothesis_met": True,
            "closed_class": [sc.network.names[i] for i in cls],
            "cyclic_parts": [
                [sc.network.names[i] for i in side] for side in structure.cyclic_parts[cls]
            ],
            "fixed_point_count": None if fixed_points is None else len(fixed_points),
            "fixed_points": None
            if fixed_points is None
            else [_profile_text(sc, p) for p in fixed_points],
            "initial_profiles_tried": tried,
            "witness_initial": _profile_text(sc, [kernel.graph.orders[k] for k in witness]),
            "mu": mu,
            "period": len(orbit),
            "period_even": len(orbit) % 2 == 0,
            "min_margin": margin_text(margin),
        },
    )


def _class_starts(kernel: _Kernel, cls: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The kernel's start ids, then every id assignment of the closed class `cls` in
    `product` order; the sweep's budget is checked after the kernel's start."""
    start = tuple(kernel.state)
    yield start
    space = range(kernel.graph.order_count)
    if len(space) ** len(cls) > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(f"more than {DEFAULT_ENUM_BUDGET} initial profiles to sweep")
    for combo in product(space, repeat=len(cls)):
        assigned = dict(zip(cls, combo))
        yield tuple(assigned.get(i, k) for i, k in enumerate(start))


# --- even-period lifting across a bipartite cut ------------------------------


def _cyclic_min_period(seq: Sequence) -> int:
    """Least d dividing len(seq) such that rotating seq by d leaves it unchanged; seq is not empty."""
    n = len(seq)
    return next(d for d in range(1, n + 1) if n % d == 0 and all(seq[(j + d) % n] == seq[j] for j in range(n)))


def verify_even_period_lifting(sc: ScenarioConfig) -> VerificationOutcome:
    """Free-to-free influence crosses a bipartition (A, B), and the period p
    is > 1 and equals 2 k_a or 2 k_b, where k_a and k_b are the least periods
    of A's and B's states along the orbit's even-time subsequence orbit[0],
    orbit[2], ...  The orbit's first state is the witness.
    """
    claim = f"{sc.label}: bipartite two-step cycle of length k lifts to full period 2k"
    parts = _crossing_bipartition(sc.network, sc.persistent.free_nodes(sc.network.n))
    if parts is None:
        return _hypothesis_not_met(claim, "free-to-free influence does not cross a bipartition")
    side_a, side_b = parts

    report = sc.run()
    p = report.period
    orbit = report.orbit

    def even_time_period(side: tuple[int, ...]) -> int:
        length = p if p % 2 else p // 2
        seq = [tuple(orbit[(2 * j) % p][i] for i in side) for j in range(length)]
        return _cyclic_min_period(seq)

    k_a = even_time_period(side_a)
    k_b = even_time_period(side_b)

    passed = p > 1 and (p == 2 * k_a or p == 2 * k_b)
    return VerificationOutcome(
        claim,
        passed,
        {
            "hypothesis_met": True,
            "part_a": [sc.network.names[i] for i in side_a],
            "part_b": [sc.network.names[i] for i in side_b],
            "mu": report.mu,
            "period": p,
            "half_cycle_a": k_a,
            "half_cycle_b": k_b,
            "witness": _profile_text(sc, orbit[0]),
            "trivial_fixed_point": p == 1,
        },
    )


# --- robustness of periodic orbits away from tie hyperplanes -----------------


def verify_robustness(sc: ScenarioConfig, trials: int, seed: int) -> VerificationOutcome:
    """Seeded weight perturbations below the margin bound leave the orbit intact.

    The bound eps* = delta / (2 (m-1) n) keeps every aggregate score strictly
    inside its tie margin delta (an entrywise-eps weight change moves a score
    by at most n*eps*(m-1); the factor 2 covers a score pair).  The base run
    and delta are read in ids from one kernel.  A trial recompiles its free
    rows from `_perturb_rows` at the start ids, the rows `_Kernel` compiles
    from `perturb_weights`' network, and runs.  It must give the base run's
    mu, states and target logs: the evidence names the first trial that does
    not, with the index of its first state that differs from the base run's
    (or the shorter run's length), else "target log".  `perturbable_rows`
    counts the free nodes whose row has two or more entries: a one-entry row
    keeps its weight 1, so with none every trial is the base run and none is run.
    """
    if trials < 1:
        raise ScenarioBuildError(f"robustness needs at least one trial, got {trials}")
    claim = f"{sc.label}: periodic orbit survives weight perturbations below the margin bound"
    kernel = _kernel(sc)
    start, free = tuple(kernel.state), kernel.free
    states, mu, logs = kernel.run(sc.schedule, sc.max_steps)
    delta = kernel.min_margin(states[mu:])
    if delta == math.inf:
        return _hypothesis_not_met(
            claim, "no orbit score separates any alternatives; margin bound undefined"
        )
    eps_star = Fraction(delta) / (2 * (sc.m - 1) * sc.network.n)
    eps = eps_star / 2

    perturbable = sum(len(sc.network.rows[i]) > 1 for i in free)
    rows = list(map(_row_over_lcd, sc.network.rows, sc.network.lcds))
    divergence = None
    for t in range(trials if perturbable else 0):
        perturbed = _perturb_rows(rows, eps, seed + t)
        kernel.compile({i: perturbed[i] for i in free}, start)
        states_t, mu_t, logs_t = kernel.run(sc.schedule, sc.max_steps)
        if mu_t != mu or states_t != states:
            first_bad = next((k for k, (a, b) in enumerate(zip(states_t, states)) if a != b),
                             min(len(states_t), len(states)))
            divergence = {"trial": t, "first_divergence_step": first_bad}
            break
        if logs_t != logs:
            divergence = {"trial": t, "first_divergence_step": "target log"}
            break

    return VerificationOutcome(
        claim,
        divergence is None,
        {
            "hypothesis_met": True,
            "delta": margin_text(delta),
            "eps_star": eps_star,
            "eps_used": eps,
            "trials": trials,
            "perturbable_rows": perturbable,
            "mu": mu,
            "period": len(states) - mu,
            "divergence": divergence,
        },
    )


# --- irrelevance of unreachable persistent nodes -----------------------------


def verify_unreachable_persistence(
    sc: ScenarioConfig, alt_pins: dict[int, WeakOrder]
) -> VerificationOutcome:
    """Re-pinning persistent nodes leaves every node outside their reach untouched.

    The twin run restarts the base run's kernel at the `alt_pins` ids of the pinned nodes."""
    claim = f"{sc.label}: nodes outside the reach of the pinned set ignore re-pinning"
    pc = sc.persistent
    if unknown := [i for i in alt_pins if i not in pc.pins]:
        raise ScenarioBuildError(f"nodes {unknown} are not pinned in the base scenario")
    if all(pc.pins[i] == w for i, w in alt_pins.items()):
        return _hypothesis_not_met(claim, "alt_pins gives no pinned node a new order")
    reached = reach(sc.network, pc.pins)
    outside = [i for i in pc.free_nodes(sc.network.n) if i not in reached]
    if not outside:
        return _hypothesis_not_met(claim, "every free node is reachable from the pinned set")

    kernel = _kernel(sc)
    twin = [kernel.graph.id_of(alt_pins[i]) if i in alt_pins else k for i, k in enumerate(kernel.state)]
    base_report = kernel.report(*kernel.run(sc.schedule, sc.max_steps))
    kernel.compile(kernel.rows, twin)
    twin_report = kernel.report(*kernel.run(sc.schedule, sc.max_steps))
    horizon = max(base_report.mu + base_report.period, twin_report.mu + twin_report.period)
    mismatch = next(({"step": t, "node": sc.network.names[i]} for t in range(horizon + 1) for i in outside
                     if base_report.state_at(t)[i] != twin_report.state_at(t)[i]), None)

    return VerificationOutcome(
        claim,
        mismatch is None,
        {
            "hypothesis_met": True,
            "reach_of_pins": sorted(sc.network.names[i] for i in reached),
            "unreached_free": [sc.network.names[i] for i in outside],
            "compared_steps": horizon + 1,
            "first_mismatch": mismatch,
        },
    )


# --- single-peaked domain ----------------------------------------------------


def is_single_peaked(order: WeakOrder, axis: Sequence[int]) -> bool:
    """Single-peaked w.r.t. an axis, a permutation of the alternatives: the top class
    is the peak set, and the class index strictly rises outward on each side of its span."""
    ranks = [order.class_index(a) for a in axis]
    peak = [k for k, rank in enumerate(ranks) if rank == 0]
    sides = (ranks[peak[-1] :], ranks[peak[0] :: -1])
    return all(nearer < farther for side in sides for nearer, farther in zip(side, side[1:]))


def _axis(m: int, axis: Sequence[int]) -> tuple[int, ...]:
    axis = tuple(axis)
    if sorted(axis) != list(range(m)):
        raise ScenarioBuildError(f"axis {axis} is not a permutation of 0..{m - 1}")
    return axis


def enumerate_single_peaked(m: int, axis: Sequence[int]) -> tuple[WeakOrder, ...]:
    """All single-peaked weak orders for the axis, in canonical enumeration order."""
    axis = _axis(m, axis)
    return tuple(w for w in enumerate_weak_orders(m) if is_single_peaked(w, axis))


def verify_single_peaked_invariance(
    sc: ScenarioConfig, axis: Sequence[int]
) -> VerificationOutcome:
    """While every target stays single-peaked, every state stays single-peaked.

    Target violations refute the hypothesis, state violations (with the
    hypothesis intact up to that step) refute the invariance itself; the first
    of either is reported.  An axis that is not a permutation of the
    alternatives, or a start that is not single-peaked, is a ScenarioBuildError.
    """
    claim = f"{sc.label}: single-peaked profiles stay single-peaked while targets do"
    axis = _axis(sc.m, axis)
    for i, w in enumerate(sc.initial):
        if not is_single_peaked(w, axis):
            raise ScenarioBuildError(f"initial state of node {sc.network.names[i]} is not single-peaked")
    report = sc.run()

    nodes = sc.network.names
    target_violation = None
    state_violation = None
    for t, log in enumerate(report.target_log):
        for i, tau in log:
            if not is_single_peaked(tau, axis):
                target_violation = {"step": t, "node": nodes[i], "target": format_order(tau)}
                break
        if target_violation:
            break
        after = report.state_at(t + 1)
        for i, w in enumerate(after):
            if not is_single_peaked(w, axis):
                state_violation = {"step": t + 1, "node": nodes[i], "state": format_order(w)}
                break
        if state_violation:
            break

    return VerificationOutcome(
        claim,
        target_violation is None and state_violation is None,
        {
            "hypothesis_met": target_violation is None,
            "axis": list(axis),
            "definition": "tied peak set at the top, strictly decreasing outward along the axis",
            "steps_checked": len(report.target_log),
            "first_target_violation": target_violation,
            "first_state_violation": state_violation,
            "mu": report.mu,
            "period": report.period,
        },
    )


# --- suite manifests ----------------------------------------------------------


@dataclass
class SuiteEntry:
    label: str
    verifier: str
    scenario: ScenarioConfig
    args: dict
    expect_pass: bool


VERIFIERS: dict[str, Callable[..., VerificationOutcome]] = {
    "traveling_wave": verify_traveling_wave,
    "forced_even_period": verify_forced_even_period,
    "even_period_lifting": verify_even_period_lifting,
    "robustness": verify_robustness,
    "unreachable_persistence": verify_unreachable_persistence,
    "single_peaked_invariance": verify_single_peaked_invariance,
}

#: taken at import: an entry rebound to a wrapper without functools.wraps binds any args
_SIGNATURES = {name: inspect.signature(f) for name, f in VERIFIERS.items()}


def _verifier_args(doc: dict, path: str, verifier: str, sc: ScenarioConfig) -> dict:
    """Bind a suite entry's args to the verifier's signature, then read each by
    name: `alt_pins` and `axis` with their parsers, any other as an integer."""
    try:
        _SIGNATURES[verifier].bind(sc, **doc)
    except TypeError as exc:
        raise ScenarioFormatError(path, str(exc)) from None
    args = {key: _field(doc, key, path, int) for key in doc if key not in ("alt_pins", "axis")}
    if "alt_pins" in doc:
        args["alt_pins"] = _orders(_field(doc, "alt_pins", path, dict), f"{path}.alt_pins", sc.network.names, sc.m)
    if "axis" in doc:
        raw = _field(doc, "axis", path, str)
        axis = tuple(_node(alternative_names(sc.m), c, f"{path}.axis") for c in raw)
        if sorted(axis) != list(range(sc.m)):
            raise ScenarioFormatError(f"{path}.axis", f"expected all {sc.m} alternatives, got {raw!r}")
        args["axis"] = axis
    return args


def load_suite(path: str | Path) -> list[SuiteEntry]:
    """Read a suite manifest: labeled scenario/verifier pairs with expectations.

    The manifest's `entries` list holds one or more objects with: `label`,
    unique, by default `entry_k` for the k-th; `verifier`, a `VERIFIERS` key;
    `scenario`, the path of a scenario file, relative to the suite; `args`,
    the verifier's arguments by name: `alt_pins`, new orders for pinned nodes
    as `{node: order}` like a scenario's `pins`, `axis` as a string of
    `alternative_names(m)`, any other an integer; and `expect`, "pass" (the
    default) or "fail".  A malformed, unknown or repeated field raises
    ScenarioFormatError naming its path.
    """
    path = Path(path)
    doc = _read_json(path)
    entries = []
    labels = set()
    manifest = _field(doc, "entries", "", list)
    _only(doc, "", {"entries"})
    if not manifest:
        raise ScenarioFormatError("entries", "expected at least one entry")
    for k, entry in enumerate(manifest):
        epath = f"entries[{k}]"
        _only(entry, epath, {"label", "verifier", "scenario", "expect", "args"})
        label = _field(entry, "label", epath, str, f"entry_{k}")
        if label in labels:
            raise ScenarioFormatError(f"{epath}.label", f"duplicate label {label!r}")
        labels.add(label)
        verifier = _field(entry, "verifier", epath, str)
        if verifier not in VERIFIERS:
            raise ScenarioFormatError(f"{epath}.verifier", f"unknown verifier {verifier!r}")
        spec = _field(entry, "scenario", epath, str)
        try:
            scenario = load_scenario(path.parent / spec)
        except ScenarioFormatError as exc:
            raise ScenarioFormatError(f"{epath}.scenario", f"{spec}: {exc}") from None
        expect = _field(entry, "expect", epath, str, "pass")
        if expect not in ("pass", "fail"):
            raise ScenarioFormatError(f"{epath}.expect", f"expected \"pass\" or \"fail\", got {expect!r}")
        args = _field(entry, "args", epath, dict, {})
        entries.append(
            SuiteEntry(
                label=label,
                verifier=verifier,
                scenario=scenario,
                args=_verifier_args(args, f"{epath}.args", verifier, scenario),
                expect_pass=expect == "pass",
            )
        )
    return entries


def run_suite(entries: Iterable[SuiteEntry]) -> tuple[list[dict], bool]:
    """Run every entry; overall success means each outcome matched expectation."""
    results = []
    all_matched = True
    for k, entry in enumerate(entries):
        try:
            outcome = VERIFIERS[entry.verifier](entry.scenario, **entry.args)
        except ScenarioBuildError as exc:  # a verifier precondition on the entry's args
            raise ScenarioFormatError(f"entries[{k}]", str(exc)) from None
        matched = outcome.passed == entry.expect_pass
        all_matched = all_matched and matched
        results.append(
            {
                "label": entry.label,
                "verifier": entry.verifier,
                "expected": "pass" if entry.expect_pass else "fail",
                "matched_expectation": matched,
                **outcome.to_json_dict(),
            }
        )
    return results, all_matched
