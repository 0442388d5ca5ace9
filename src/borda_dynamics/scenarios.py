"""Declarative experiment scenarios: builders and JSON ingestion.

A scenario bundles one experiment end to end: alternative count, network,
pinned nodes, initial profile, schedule, step policy, and a step budget.
Scenario files are JSON documents; weights must be exact "p/q" strings
(decimals are rejected), and every parse error is addressed by field path.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .dynamics import (
    DEFAULT_MAX_STEPS,
    Camps,
    OrbitReport,
    PersistentConfig,
    Profile,
    Schedule,
    run_until_cycle,
)
from .errors import ScenarioBuildError, ScenarioFormatError
from .influence import InfluenceNetwork, influence_network, normalize_random_walk
from .move_graph import StepPolicy, build_cover_graph, distance
from .weak_orders import WeakOrder, alternative_names, antipode, parse_order

_WEIGHT_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one run."""

    m: int
    network: InfluenceNetwork
    persistent: PersistentConfig
    initial: Profile
    schedule: Schedule
    policy: StepPolicy = field(default_factory=StepPolicy)
    label: str = "scenario"
    max_steps: int = DEFAULT_MAX_STEPS
    alt_names: tuple[str, ...] | None = None

    def run(self) -> OrbitReport:
        graph = build_cover_graph(self.m)
        return run_until_cycle(
            self.network,
            graph,
            self.policy,
            self.persistent,
            self.initial,
            self.schedule,
            self.max_steps,
        )


def build_traveling_wave(
    ell: int, h_cycle: Sequence[WeakOrder], label: str | None = None
) -> ScenarioConfig:
    """Directed ell-ring of pure copiers initialized along a move-graph cycle.

    Node i listens only to node i-1 (mod ell) with weight 1 and starts at
    h_cycle[i mod k].  The cycle length k must divide ell, otherwise the
    wrap-around assignment is inconsistent.
    """
    cycle = tuple(h_cycle)
    k = len(cycle)
    if ell < 3:
        raise ScenarioBuildError("ring length must be at least 3")
    if k < 3:
        raise ScenarioBuildError("move-graph cycle must have at least 3 states")
    if len({w.canonical_id for w in cycle}) != k:
        raise ScenarioBuildError("move-graph cycle revisits a state")
    m = cycle[0].m
    graph = build_cover_graph(m)
    for r in range(k):
        if distance(graph, cycle[r], cycle[(r + 1) % k]) != 1:
            raise ScenarioBuildError(
                f"cycle states {r} and {(r + 1) % k} are not adjacent in the move graph"
            )
    if ell % k != 0:
        raise ScenarioBuildError(
            f"cycle length {k} must divide ring length {ell} for a consistent start"
        )
    rows = []
    for i in range(ell):
        row = [Fraction(0)] * ell
        row[(i - 1) % ell] = Fraction(1)
        rows.append(row)
    net = influence_network(rows, [f"n{i}" for i in range(ell)])
    initial = tuple(cycle[i % k] for i in range(ell))
    return ScenarioConfig(
        m=m,
        network=net,
        persistent=PersistentConfig.none(),
        initial=initial,
        schedule=Schedule.synchronous(),
        label=label or f"traveling_wave_l{ell}_k{k}",
    )


def build_gadget(
    m: int,
    rho: WeakOrder,
    eps: Fraction,
    initial_free: tuple[WeakOrder, WeakOrder] | None = None,
    label: str | None = None,
) -> ScenarioConfig:
    """Two free nodes cross-listening, each nudged by one of two antipodal camps.

    Node i hears node j with weight 1-eps and the camp pinned to rho with
    weight eps; node j symmetrically hears i and the camp pinned to the
    antipode of rho.  Free initial states default to (rho, antipode(rho)).
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ScenarioBuildError("eps must lie strictly between 0 and 1")
    if rho.m != m:
        raise ScenarioBuildError(f"base order is over {rho.m} alternatives, expected {m}")
    if not rho.is_strict:
        raise ScenarioBuildError("base order must be strict so its antipode differs")
    flipped = antipode(rho)
    zero, one = Fraction(0), Fraction(1)
    rows = [
        [zero, one - eps, eps, zero],  # i hears j and the plus camp
        [one - eps, zero, zero, eps],  # j hears i and the minus camp
        [zero, zero, one, zero],  # pinned nodes keep a self-loop row
        [zero, zero, zero, one],
    ]
    net = influence_network(rows, ["i", "j", "p", "q"])
    persistent = PersistentConfig(
        pins={2: rho, 3: flipped}, camps=Camps(plus=(2,), minus=(3,), base=rho)
    )
    free_init = initial_free or (rho, flipped)
    initial = (free_init[0], free_init[1], rho, flipped)
    return ScenarioConfig(
        m=m,
        network=net,
        persistent=persistent,
        initial=initial,
        schedule=Schedule.synchronous(),
        label=label or f"gadget_m{m}_eps{eps.numerator}_{eps.denominator}",
    )


# --- scenario JSON ---------------------------------------------------------


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ScenarioFormatError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _parse_weight(raw, path: str) -> Fraction:
    if not isinstance(raw, str) or not _WEIGHT_RE.match(raw):
        raise ScenarioFormatError(
            path, f"weights must be exact rationals like \"3/4\" or \"1\", got {raw!r}"
        )
    return Fraction(raw)


def _parse_order_at(text, m: int, names, path: str) -> WeakOrder:
    if not isinstance(text, str):
        raise ScenarioFormatError(path, f"expected an order string, got {text!r}")
    try:
        return parse_order(text, m, names)
    except ValueError as exc:
        raise ScenarioFormatError(path, str(exc)) from None


def _parse_schedule(doc, net: InfluenceNetwork, path: str) -> Schedule:
    kind = _require(doc, "kind", path)
    if kind == "S":
        return Schedule.synchronous()
    if kind != "A":
        raise ScenarioFormatError(f"{path}.kind", f"variant must be \"S\" or \"A\", got {kind!r}")
    spec = _require(doc, "schedule", path)
    if not isinstance(spec, str):
        raise ScenarioFormatError(f"{path}.schedule", "expected a schedule string")
    if spec.startswith("seq:"):
        body = spec[len("seq:") :].strip().strip("[]")
        names = [s.strip() for s in body.split(",") if s.strip()]
        if not names:
            raise ScenarioFormatError(f"{path}.schedule", "empty update sequence")
        try:
            return Schedule.sequence(net.index_of(name) for name in names)
        except ValueError as exc:
            raise ScenarioFormatError(f"{path}.schedule", str(exc)) from None
    if spec.startswith("uniform:"):
        seed_text = spec[len("uniform:") :]
        try:
            return Schedule.uniform(int(seed_text))
        except ValueError:
            raise ScenarioFormatError(
                f"{path}.schedule", f"uniform schedule needs an integer seed, got {seed_text!r}"
            ) from None
    raise ScenarioFormatError(
        f"{path}.schedule", f"expected \"seq:[...]\" or \"uniform:<seed>\", got {spec!r}"
    )


def _parse_network(doc, path: str) -> InfluenceNetwork:
    nodes = _require(doc, "nodes", path)
    if not isinstance(nodes, list) or not all(isinstance(s, str) for s in nodes):
        raise ScenarioFormatError(f"{path}.nodes", "expected a list of node names")
    if len(set(nodes)) != len(nodes):
        raise ScenarioFormatError(f"{path}.nodes", "node names must be distinct")
    index = {name: i for i, name in enumerate(nodes)}
    n = len(nodes)
    edges = _require(doc, "edges", path)
    if not isinstance(edges, list):
        raise ScenarioFormatError(f"{path}.edges", "expected a list of edges")
    normalize = doc.get("normalize", False)

    def node_at(raw, epath):
        if raw not in index:
            raise ScenarioFormatError(epath, f"unknown node {raw!r}")
        return index[raw]

    if normalize:
        pairs = []
        for k, edge in enumerate(edges):
            epath = f"{path}.edges[{k}]"
            if "weight" in edge:
                raise ScenarioFormatError(
                    f"{epath}.weight", "explicit weights are not allowed with normalize"
                )
            pairs.append(
                (node_at(_require(edge, "from", epath), f"{epath}.from"),
                 node_at(_require(edge, "to", epath), f"{epath}.to"))
            )
        try:
            return normalize_random_walk(n, pairs, nodes)
        except ValueError as exc:
            raise ScenarioFormatError(path, str(exc)) from None

    rows = [[Fraction(0)] * n for _ in range(n)]
    seen_pairs = set()
    for k, edge in enumerate(edges):
        epath = f"{path}.edges[{k}]"
        src = node_at(_require(edge, "from", epath), f"{epath}.from")
        dst = node_at(_require(edge, "to", epath), f"{epath}.to")
        weight = _parse_weight(_require(edge, "weight", epath), f"{epath}.weight")
        if (src, dst) in seen_pairs:
            raise ScenarioFormatError(epath, f"duplicate edge {edges[k]['from']}->{edges[k]['to']}")
        seen_pairs.add((src, dst))
        rows[dst][src] = weight
    for i in range(n):
        if sum(rows[i]) != 1:
            raise ScenarioFormatError(
                f"{path}.edges",
                f"incoming weights of node {nodes[i]!r} sum to {sum(rows[i])}, expected 1",
            )
    try:
        return influence_network(rows, nodes)
    except ValueError as exc:
        raise ScenarioFormatError(path, str(exc)) from None


def parse_scenario(doc: dict, label: str = "scenario") -> ScenarioConfig:
    """Validate a scenario document and build the corresponding config."""
    m = _require(doc, "m", "")
    if not isinstance(m, int) or m < 2:
        raise ScenarioFormatError("m", f"expected an integer >= 2, got {m!r}")
    alt_names = None
    if "alternatives" in doc:
        try:
            alt_names = alternative_names(m, doc["alternatives"])
        except ValueError as exc:
            raise ScenarioFormatError("alternatives", str(exc)) from None

    net = _parse_network(_require(doc, "network", ""), "network")

    pins: dict[int, WeakOrder] = {}
    camps = None
    pdoc = doc.get("persistent", {})
    if not isinstance(pdoc, dict):
        raise ScenarioFormatError("persistent", "expected an object")
    for k, pin in enumerate(pdoc.get("pins", [])):
        ppath = f"persistent.pins[{k}]"
        node = _require(pin, "node", ppath)
        try:
            idx = net.index_of(node)
        except ValueError as exc:
            raise ScenarioFormatError(f"{ppath}.node", str(exc)) from None
        order = _parse_order_at(_require(pin, "order", ppath), m, alt_names, f"{ppath}.order")
        if idx in pins and pins[idx] != order:
            raise ScenarioFormatError(f"{ppath}.node", f"conflicting pins for node {node!r}")
        pins[idx] = order
    if "camps" in pdoc:
        cdoc = pdoc["camps"]
        base = _parse_order_at(_require(cdoc, "rho", "persistent.camps"), m, alt_names,
                               "persistent.camps.rho")
        flipped = antipode(base)
        plus, minus = [], []
        for side, key, order in ((plus, "plus", base), (minus, "minus", flipped)):
            names = _require(cdoc, key, "persistent.camps")
            if not isinstance(names, list):
                raise ScenarioFormatError(
                    f"persistent.camps.{key}", "expected a list of node names"
                )
            for name in names:
                try:
                    idx = net.index_of(name)
                except ValueError as exc:
                    raise ScenarioFormatError(f"persistent.camps.{key}", str(exc)) from None
                if idx in pins and pins[idx] != order:
                    raise ScenarioFormatError(
                        f"persistent.camps.{key}",
                        f"node {name!r} pinned to a different order than its camp",
                    )
                pins[idx] = order
                side.append(idx)
        camps = Camps(plus=tuple(plus), minus=tuple(minus), base=base)
    try:
        persistent = PersistentConfig(pins, camps)
    except ValueError as exc:
        raise ScenarioFormatError("persistent", str(exc)) from None

    idoc = _require(doc, "initial", "")
    if not isinstance(idoc, dict):
        raise ScenarioFormatError("initial", "expected an object mapping node names to orders")
    states: list[WeakOrder | None] = [None] * net.n
    for name, text in idoc.items():
        ipath = f"initial.{name}"
        try:
            idx = net.index_of(name)
        except ValueError as exc:
            raise ScenarioFormatError(ipath, str(exc)) from None
        order = _parse_order_at(text, m, alt_names, ipath)
        if idx in pins and order != pins[idx]:
            raise ScenarioFormatError(ipath, f"initial state of pinned node {name!r} must equal its pin")
        states[idx] = order
    for idx, order in pins.items():
        if states[idx] is None:
            states[idx] = order
    missing = [net.names[i] for i, s in enumerate(states) if s is None]
    if missing:
        raise ScenarioFormatError("initial", f"missing initial states for nodes {missing}")

    schedule = _parse_schedule(_require(doc, "variant", ""), net, "variant")

    policy = StepPolicy()
    if "policy" in doc:
        if not isinstance(doc["policy"], dict):
            raise ScenarioFormatError("policy", "expected an object")
        flag = doc["policy"].get("no_move_on_ambiguity", False)
        if not isinstance(flag, bool):
            raise ScenarioFormatError("policy.no_move_on_ambiguity", "expected a boolean")
        policy = StepPolicy(allow_no_move_on_ambiguity=flag)

    max_steps = doc.get("max_steps", DEFAULT_MAX_STEPS)
    if not isinstance(max_steps, int) or isinstance(max_steps, bool) or max_steps < 1:
        raise ScenarioFormatError("max_steps", f"expected a positive integer, got {max_steps!r}")

    return ScenarioConfig(
        m=m,
        network=net,
        persistent=persistent,
        initial=tuple(states),  # type: ignore[arg-type]
        schedule=schedule,
        policy=policy,
        label=doc.get("label", label),
        max_steps=max_steps,
        alt_names=alt_names,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and parse a scenario JSON file; the label defaults to the file stem."""
    path = Path(path)
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(str(path), f"invalid JSON: {exc}") from None
    return parse_scenario(doc, label=path.stem)


def with_pins(sc: ScenarioConfig, new_pins: dict[int, WeakOrder]) -> ScenarioConfig:
    """Copy of a scenario with some pinned nodes re-pinned (camps dropped)."""
    unknown = [i for i in new_pins if i not in sc.persistent.pins]
    if unknown:
        raise ScenarioBuildError(f"nodes {unknown} are not pinned in the base scenario")
    pins = dict(sc.persistent.pins)
    pins.update(new_pins)
    initial = list(sc.initial)
    for node, order in pins.items():
        initial[node] = order
    return replace(
        sc,
        persistent=PersistentConfig(pins, camps=None),
        initial=tuple(initial),
        label=f"{sc.label}_repinned",
    )
