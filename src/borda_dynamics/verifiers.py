"""Executable checks for the constructive dynamical claims.

Each verifier re-derives its hypotheses from the realized scenario (it never
trusts the builder), runs the dynamics, and returns a VerificationOutcome
whose evidence is enough to replay a failure: measured transient and period,
margins, and the first offending step where applicable.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .dynamics import (
    OrbitReport,
    Profile,
    enumerate_fixed_points,
    margin_text,
)
from .errors import BudgetExceededError, ScenarioBuildError, ScenarioFormatError
from .influence import class_structure, perturb_weights, reach
from .move_graph import build_cover_graph, find_cycle
from .scenarios import (
    ScenarioConfig,
    _alternative_count,
    _field,
    _node,
    _parse_order_at,
    _parse_weight,
    _read_json,
    build_gadget,
    build_traveling_wave,
    load_scenario,
    with_pins,
)
from .weak_orders import (
    WeakOrder,
    alternative_names,
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
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _profile_text(sc: ScenarioConfig, profile: Profile) -> dict[str, str]:
    return {name: format_order(w, sc.alt_names) for name, w in zip(sc.network.names, profile)}


def _hypothesis_not_met(claim: str, reason: str, **extra) -> VerificationOutcome:
    evidence = {"hypothesis_met": False, "reason": reason}
    evidence.update(extra)
    return VerificationOutcome(claim, False, evidence)


# --- traveling waves on directed rings --------------------------------------


def _ring_predecessors(sc: ScenarioConfig) -> dict[int, int] | None:
    """Predecessor map when the network is a pure single-cycle copier ring."""
    net = sc.network
    pred = {}
    for i, row in enumerate(net.rows):
        if len(row) != 1:  # a row's only entry has weight 1
            return None
        pred[i] = row[0][0]
    # the predecessor permutation must be one n-cycle
    seen = {0}
    node = pred[0]
    while node not in seen:
        seen.add(node)
        node = pred[node]
    if len(seen) != net.n:
        return None
    return pred


def verify_traveling_wave(sc: ScenarioConfig, expected_k: int) -> VerificationOutcome:
    """The ring of copiers sustains a wave of period expected_k from time 0,
    with every logged target equal to the predecessor's current state."""
    claim = f"{sc.label}: copier ring oscillates with period {expected_k}"
    if sc.persistent.pins:
        return _hypothesis_not_met(claim, "persistent nodes present on the ring")
    pred = _ring_predecessors(sc)
    if pred is None:
        return _hypothesis_not_met(claim, "network is not a single copier ring")

    report = sc.run()
    violation = None
    for t, log in enumerate(report.target_log):
        state = report.prefix[t]
        for i, tau in log:
            if tau != state[pred[i]]:
                violation = {"step": t, "node": sc.network.names[i]}
                break
        if violation:
            break
    hypothesis_held = violation is None
    passed = hypothesis_held and report.mu == 0 and report.period == expected_k
    return VerificationOutcome(
        claim,
        passed,
        {
            "hypothesis_met": True,
            "mu": report.mu,
            "period": report.period,
            "expected_period": expected_k,
            "targets_copy_predecessor": hypothesis_held,
            "first_target_violation": violation,
            "non_oscillating": report.period == 1,
            "min_margin": margin_text(report.min_margin),
        },
    )


# --- forced even-period oscillations under contrarian camps ------------------


def verify_forced_even_period(sc: ScenarioConfig) -> VerificationOutcome:
    """Contrarian camps on a period-2 closed free class force an even period.

    Simulates the configured initial profile first and, if needed, sweeps all
    initial assignments on the closed class.  Passes when some run has an
    even period greater than 1 with positive orbit margin.

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
    if pc.camps is None:
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

    try:
        fixed_points = enumerate_fixed_points(sc.network, build_cover_graph(sc.m), sc.policy, pc)
    except BudgetExceededError:
        fixed_points = None

    def attempt(initial: Profile) -> tuple[bool, OrbitReport]:
        report = replace(sc, initial=initial).run()
        good = report.period > 1 and report.period % 2 == 0 and report.min_margin > 0
        return good, report

    tried = 1
    found, report = attempt(sc.initial)
    witness = sc.initial
    if not found:
        for combo in product(enumerate_weak_orders(sc.m), repeat=len(cls)):
            candidate = list(sc.initial)
            for node, order in zip(cls, combo):
                candidate[node] = order
            tried += 1
            ok, rep = attempt(tuple(candidate))
            if ok:
                found, report, witness = True, rep, tuple(candidate)
                break

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
            "witness_initial": _profile_text(sc, witness),
            "mu": report.mu,
            "period": report.period,
            "period_even": report.period % 2 == 0,
            "min_margin": margin_text(report.min_margin),
            "margin_positive": report.min_margin > 0,
        },
    )


# --- even-period lifting across a bipartite cut ------------------------------


def _crossing_bipartition(sc: ScenarioConfig) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """2-coloring of the free nodes such that every free-free arc crosses it."""
    net = sc.network
    free = sc.persistent.free_nodes(net.n)
    free_set = set(free)
    undirected: dict[int, set[int]] = {i: set() for i in free}
    for j, i in net.support_arcs():
        if i in free_set and j in free_set:
            undirected[i].add(j)
            undirected[j].add(i)
    color: dict[int, int] = {}
    for root in free:
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in undirected[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    side_a = tuple(i for i in free if color[i] == 0)
    side_b = tuple(i for i in free if color[i] == 1)
    return side_a, side_b


def _cyclic_min_period(seq: Sequence) -> int:
    n = len(seq)
    for d in range(1, n + 1):
        if n % d == 0 and all(seq[(j + d) % n] == seq[j] for j in range(n)):
            return d
    return n


def verify_even_period_lifting(sc: ScenarioConfig) -> VerificationOutcome:
    """A k-cycle of the two-step half dynamics lifts to a 2k-cycle of the full map.

    The half-map cycle length k is measured on the even-time subsequence of one
    side of the cut along the realized orbit; the orbit state itself is the
    lifted witness and is re-run to confirm a closed cycle of length 2k.
    """
    claim = f"{sc.label}: bipartite two-step cycle of length k lifts to full period 2k"
    parts = _crossing_bipartition(sc)
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

    # replay from the witness: a state on the orbit must close in exactly p steps
    replay = replace(sc, initial=orbit[0]).run()
    witness_closed = replay.mu == 0 and replay.period == p

    passed = witness_closed and p > 1 and (p == 2 * k_a or p == 2 * k_b)
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
            "witness_closed": witness_closed,
            "trivial_fixed_point": p == 1,
        },
    )


# --- robustness of periodic orbits away from tie hyperplanes -----------------


def verify_robustness(sc: ScenarioConfig, trials: int, seed: int) -> VerificationOutcome:
    """Seeded weight perturbations below the margin bound leave the orbit intact.

    The bound eps* = delta / (2 (m-1) n) keeps every aggregate score strictly
    inside its tie margin delta (an entrywise-eps weight change moves a score
    by at most n*eps*(m-1); the factor 2 covers a score pair).  Each trial must
    reproduce the identical target log and the identical orbit.
    """
    if trials < 1:
        raise ScenarioBuildError(f"robustness needs at least one trial, got {trials}")
    claim = f"{sc.label}: periodic orbit survives weight perturbations below the margin bound"
    base = sc.run()
    delta = base.min_margin
    if delta == 0:
        return _hypothesis_not_met(claim, "orbit has zero tie margin; not certifiable")
    if delta == math.inf:
        return _hypothesis_not_met(
            claim, "no orbit score separates any alternatives; margin bound undefined"
        )
    eps_star = Fraction(delta) / (2 * (sc.m - 1) * sc.network.n)
    eps = eps_star / 2

    divergence = None
    for t in range(trials):
        rep = replace(sc, network=perturb_weights(sc.network, eps, seed + t)).run()
        if (rep.mu, rep.period) != (base.mu, base.period) or rep.prefix != base.prefix:
            first_bad = next(
                (
                    i
                    for i, (a, b) in enumerate(zip(rep.prefix, base.prefix))
                    if a != b
                ),
                min(len(rep.prefix), len(base.prefix)),
            )
            divergence = {"trial": t, "first_divergence_step": first_bad}
            break
        if rep.target_log != base.target_log:
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
            "mu": base.mu,
            "period": base.period,
            "divergence": divergence,
        },
    )


# --- irrelevance of unreachable persistent nodes -----------------------------


def verify_unreachable_persistence(
    sc: ScenarioConfig, alt_pins: dict[int, WeakOrder]
) -> VerificationOutcome:
    """Re-pinning persistent nodes leaves every node outside their reach untouched."""
    claim = f"{sc.label}: nodes outside the reach of the pinned set ignore re-pinning"
    pc = sc.persistent
    twin = with_pins(sc, alt_pins)  # ScenarioBuildError unless every alt_pins node is pinned
    reached = reach(sc.network, pc.pins)
    outside = [i for i in pc.free_nodes(sc.network.n) if i not in reached]
    if not outside:
        return _hypothesis_not_met(claim, "every free node is reachable from the pinned set")

    base_report = sc.run()
    twin_report = twin.run()
    horizon = max(
        base_report.mu + base_report.period, twin_report.mu + twin_report.period
    )
    mismatch = None
    for t in range(horizon + 1):
        state_a = base_report.state_at(t)
        state_b = twin_report.state_at(t)
        for i in outside:
            if state_a[i] != state_b[i]:
                mismatch = {"step": t, "node": sc.network.names[i]}
                break
        if mismatch:
            break

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


def enumerate_single_peaked(m: int, axis: Sequence[int]) -> tuple[WeakOrder, ...]:
    """All single-peaked weak orders for the axis, in canonical enumeration order."""
    axis = tuple(axis)
    if sorted(axis) != list(range(m)):
        raise ValueError(f"axis {axis} is not a permutation of 0..{m - 1}")
    return tuple(w for w in enumerate_weak_orders(m) if is_single_peaked(w, axis))


def verify_single_peaked_invariance(
    sc: ScenarioConfig, axis: Sequence[int]
) -> VerificationOutcome:
    """While every target stays single-peaked, every state stays single-peaked.

    Target violations refute the hypothesis, state violations (with the
    hypothesis intact up to that step) refute the invariance itself; the first
    of either is reported.
    """
    claim = f"{sc.label}: single-peaked profiles stay single-peaked while targets do"
    axis = tuple(axis)
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
                target_violation = {"step": t, "node": nodes[i], "target": format_order(tau, sc.alt_names)}
                break
        if target_violation:
            break
        after = report.state_at(t + 1)
        for i, w in enumerate(after):
            if not is_single_peaked(w, axis):
                state_violation = {"step": t + 1, "node": nodes[i], "state": format_order(w, sc.alt_names)}
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


#: most nodes a suite's traveling-wave builder spec may ask for.  The ring
#: stores one arc per node, so loading is linear in ell: at 1,024 (m = 3) a load
#: takes about 0.01 s and a 0.2 MB allocation peak.  The bound caps the verify
#: run, which makes ell x period node updates: an m = 4 wave on a 32-cycle
#: verifies in 0.4 s at 1,024 and 2.9 s at 8,192 (Intel Xeon, CPython 3.11).
MAX_WAVE_LENGTH = 1024


def _build_from_spec(doc: dict, path: str) -> ScenarioConfig:
    kind = _field(doc, "builder", path, str)
    m = _alternative_count(doc, path, 3)
    try:
        if kind == "traveling_wave":
            length = _field(doc, "cycle_length", path, int)
            graph = build_cover_graph(m)
            if length > graph.order_count:
                # a simple cycle visits each of the orders at most once
                raise ScenarioFormatError(
                    f"{path}.cycle_length",
                    f"at most {graph.order_count} (the weak orders on {m} alternatives), got {length}",
                )
            ell = _field(doc, "ell", path, int)
            if ell > MAX_WAVE_LENGTH:
                raise ScenarioFormatError(f"{path}.ell", f"at most {MAX_WAVE_LENGTH}, got {ell}")
            cycle = find_cycle(graph, length) if length >= 3 else None
            if cycle is None:
                raise ScenarioFormatError(path, f"no cycle of length {length} in the move graph")
            return build_traveling_wave(ell, cycle)
        if kind == "gadget":
            rho = _parse_order_at(_field(doc, "rho", path, object, "x>y>z"), m, None, f"{path}.rho")
            eps = _parse_weight(_field(doc, "eps", path, object, "1/10"), f"{path}.eps")
            initial = _field(doc, "initial", path, list, None)
            if initial is not None:
                if len(initial) != 2:
                    raise ScenarioFormatError(f"{path}.initial", "expected the two free nodes' orders")
                initial = tuple(
                    _parse_order_at(t, m, None, f"{path}.initial[{k}]") for k, t in enumerate(initial)
                )
            return build_gadget(m, rho, eps, initial_free=initial)
    except ScenarioBuildError as exc:
        raise ScenarioFormatError(path, str(exc)) from None
    raise ScenarioFormatError(f"{path}.builder", f"unknown builder {kind!r}")


def _verifier_args(doc: dict, path: str, verifier: Callable, sc: ScenarioConfig) -> dict:
    """Convert a suite entry's args (type-checking those annotated `int` or
    `bool`) and bind them to the verifier's signature."""
    signature = inspect.signature(verifier, eval_str=True)
    args = {}
    for key, value in doc.items():
        param = signature.parameters.get(key)
        if key == "alt_pins":
            args[key] = {}
            for name, text in _field(doc, key, path, dict).items():
                where = f"{path}.alt_pins.{name}"
                node = _node(sc.network.names, name, where)
                args[key][node] = _parse_order_at(text, sc.m, sc.alt_names, where)
        elif key == "axis":
            # a string of alternative names or a list of alternative indices
            axis = raw = _field(doc, key, path, (str, list))
            if isinstance(raw, str):
                axis = [_node(alternative_names(sc.m, sc.alt_names), c, f"{path}.axis") for c in raw]
            if any(type(a) is not int for a in axis) or sorted(axis) != list(range(sc.m)):
                raise ScenarioFormatError(f"{path}.axis", f"expected all {sc.m} alternatives, got {raw!r}")
            args[key] = tuple(axis)
        elif param is not None and param.annotation in (int, bool):
            args[key] = _field(doc, key, path, param.annotation)
        else:
            args[key] = value
    try:
        signature.bind(sc, **args)
    except TypeError as exc:
        raise ScenarioFormatError(path, str(exc)) from None
    return args


VERIFIERS: dict[str, Callable[..., VerificationOutcome]] = {
    "traveling_wave": verify_traveling_wave,
    "forced_even_period": verify_forced_even_period,
    "even_period_lifting": verify_even_period_lifting,
    "robustness": verify_robustness,
    "unreachable_persistence": verify_unreachable_persistence,
    "single_peaked_invariance": verify_single_peaked_invariance,
}


def load_suite(path: str | Path) -> list[SuiteEntry]:
    """Read a suite manifest: labeled scenario/verifier pairs with expectations."""
    path = Path(path)
    doc = _read_json(path)
    entries = []
    labels = set()
    for k, entry in enumerate(_field(doc, "entries", "", list, [])):
        epath = f"entries[{k}]"
        label = _field(entry, "label", epath, str, f"entry_{k}")
        if label in labels:
            raise ScenarioFormatError(f"{epath}.label", f"duplicate label {label!r}")
        labels.add(label)
        verifier = _field(entry, "verifier", epath, str)
        if verifier not in VERIFIERS:
            raise ScenarioFormatError(f"{epath}.verifier", f"unknown verifier {verifier!r}")
        spec = _field(entry, "scenario", epath, (str, dict))
        if isinstance(spec, str):
            try:
                scenario = load_scenario(path.parent / spec)
            except ScenarioFormatError as exc:
                raise ScenarioFormatError(f"{epath}.scenario", f"{spec}: {exc}") from None
        else:
            scenario = _build_from_spec(spec, f"{epath}.scenario")
        expect = _field(entry, "expect", epath, str, "pass")
        if expect not in ("pass", "fail"):
            raise ScenarioFormatError(f"{epath}.expect", f"expected \"pass\" or \"fail\", got {expect!r}")
        args = _field(entry, "args", epath, dict, {})
        entries.append(
            SuiteEntry(
                label=label,
                verifier=verifier,
                scenario=scenario,
                args=_verifier_args(args, f"{epath}.args", VERIFIERS[verifier], scenario),
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
