"""Declarative experiment scenarios: builders and JSON ingestion.

A scenario bundles one experiment end to end: alternative count, network,
pinned nodes, initial profile, schedule, step policy, and a step budget.
Scenario files are JSON documents; weights must be exact "p/q" strings
(decimals are rejected).  Every field of a scenario or suite document is read
through `_field`, which checks its JSON type, a key that no reader reads is
refused by `_only`, and a key repeated in one object is refused by
`_read_json`, so every parse error is a `ScenarioFormatError` addressed by
field path (the file's path for unreadable JSON).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .dynamics import (
    DEFAULT_MAX_STEPS,
    OrbitReport,
    PersistentConfig,
    Profile,
    Schedule,
    run_until_cycle,
)
from .errors import ScenarioBuildError, ScenarioFormatError
from .influence import InfluenceNetwork, normalize_random_walk
from .move_graph import StepPolicy, build_cover_graph, distance
from .weak_orders import MAX_ALTERNATIVES, WeakOrder, antipode, parse_order

_WEIGHT_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")
_SEED_RE = re.compile(r"-?[0-9]+")


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


def build_traveling_wave(ell: int, h_cycle: Sequence[WeakOrder]) -> ScenarioConfig:
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
    if len(set(cycle)) != k:
        raise ScenarioBuildError("move-graph cycle revisits a state")
    m = cycle[0].m
    for r, state in enumerate(cycle):
        if state.m != m:
            raise ScenarioBuildError(f"cycle state {r} is on {state.m} alternatives, state 0 on {m}")
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
    one = Fraction(1)
    rows = tuple((((i - 1) % ell, one),) for i in range(ell))
    net = InfluenceNetwork(rows, tuple(f"n{i}" for i in range(ell)))
    initial = tuple(cycle[i % k] for i in range(ell))
    return ScenarioConfig(
        m=m,
        network=net,
        persistent=PersistentConfig(),
        initial=initial,
        schedule=Schedule.synchronous(),
        label=f"traveling_wave_l{ell}_k{k}",
    )


def build_gadget(m: int, rho: WeakOrder, eps: Fraction) -> ScenarioConfig:
    """Two free nodes cross-listening, each nudged by one of two antipodal camps.

    Node i hears node j with weight 1-eps and the camp pinned to rho with
    weight eps; node j symmetrically hears i and the camp pinned to the
    antipode of rho.  The free nodes start at (rho, antipode(rho)); for
    another start, `dataclasses.replace` the built scenario's `initial`.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ScenarioBuildError("eps must lie strictly between 0 and 1")
    if rho.m != m:
        raise ScenarioBuildError(f"base order is over {rho.m} alternatives, expected {m}")
    if not rho.is_strict:
        raise ScenarioBuildError("base order must be strict so its antipode differs")
    flipped = antipode(rho)
    one = Fraction(1)
    rows = (
        ((1, one - eps), (2, eps)),  # i hears j and the plus camp
        ((0, one - eps), (3, eps)),  # j hears i and the minus camp
        ((2, one),),  # pinned nodes keep a self-loop row
        ((3, one),),
    )
    net = InfluenceNetwork(rows, ("i", "j", "p", "q"))
    persistent = PersistentConfig(pins={2: rho, 3: flipped})
    return ScenarioConfig(
        m=m,
        network=net,
        persistent=persistent,
        initial=(rho, flipped, rho, flipped),
        schedule=Schedule.synchronous(),
        label=f"gadget_m{m}_eps{eps.numerator}_{eps.denominator}",
    )


# --- scenario JSON ---------------------------------------------------------

_KIND_NAMES = {dict: "object", list: "list", str: "string", int: "integer", bool: "boolean"}


def _field(doc, key: str, path: str, kind, default=...):
    """Read `doc[key]`, a value of type `kind` (`object`: any, for a parser to
    check), or `default` when the key is missing (`...`: required).  A JSON
    boolean is never an integer."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError(path or "document", f"expected an object, got {doc!r}")
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if default is ...:
            raise ScenarioFormatError(where, "missing required field")
        return default
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ScenarioFormatError(where, f"expected {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _only(doc, path: str, keys: set[str]) -> None:
    """Refuse a key of the object `doc` that is not in `keys`: no reader reads it."""
    for key in doc if isinstance(doc, dict) else ():
        if key not in keys:
            raise ScenarioFormatError(f"{path}.{key}" if path else key, "unknown field")


def _node(names: tuple[str, ...], name, path: str) -> int:
    """Index of a node or alternative name; any other JSON value is an input error."""
    try:
        return names.index(name)
    except ValueError:
        raise ScenarioFormatError(path, f"unknown name {name!r}") from None


def _parse_weight(raw, path: str) -> Fraction:
    if not isinstance(raw, str) or not _WEIGHT_RE.fullmatch(raw):
        raise ScenarioFormatError(
            path, f"weights must be exact rationals like \"3/4\" or \"1\", got {raw!r}"
        )
    try:
        return Fraction(raw)
    except ValueError as exc:  # an integer past CPython's digit limit for str -> int
        raise ScenarioFormatError(path, str(exc)) from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object as a dict; a key given twice is a ValueError naming it (`json` keeps the last)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(key for key in keys if keys.count(key) > 1)!r}")
    return obj


def _read_json(path: Path):
    """Load a JSON file; an unreadable or invalid file, or a repeated key, is an input error naming it."""
    try:
        with open(path) as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # ValueError: invalid JSON or text, a NUL in the path
        raise ScenarioFormatError(str(path), f"cannot read JSON: {exc}") from None


def _orders(doc: dict, path: str, names: tuple[str, ...], m: int) -> dict[int, WeakOrder]:
    """Read a `{node: order}` object as orders by node index."""
    orders = {}
    for name, text in doc.items():
        where = f"{path}.{name}"
        node = _node(names, name, where)
        if not isinstance(text, str):
            raise ScenarioFormatError(where, f"expected an order string, got {text!r}")
        try:
            orders[node] = parse_order(text, m)
        except ValueError as exc:
            raise ScenarioFormatError(where, str(exc)) from None
    return orders


def _parse_schedule(spec: str, names: tuple[str, ...], pins: dict[int, WeakOrder], where: str) -> Schedule:
    if spec == "S":
        return Schedule.synchronous()
    if spec.startswith("seq:[") and spec.endswith("]"):
        nodes = [s.strip() for s in spec[len("seq:[") : -1].split(",")]
        if not all(nodes):
            raise ScenarioFormatError(where, f"expected comma-separated node names, got {spec!r}")
        indices = [_node(names, name, where) for name in nodes]
        pinned = [names[i] for i in indices if i in pins]
        if pinned:
            raise ScenarioFormatError(where, f"scheduled nodes {pinned} are pinned")
        return Schedule.sequence(indices)
    if spec.startswith("uniform:"):
        seed_text = spec[len("uniform:") :]
        if not _SEED_RE.fullmatch(seed_text):
            raise ScenarioFormatError(where, f"uniform schedule needs an integer seed, got {seed_text!r}")
        if len(pins) == len(names):
            raise ScenarioFormatError(where, "uniform schedule needs at least one free node")
        try:
            return Schedule.uniform(int(seed_text))
        except ValueError as exc:  # an integer past CPython's digit limit for str -> int
            raise ScenarioFormatError(where, str(exc)) from None
    raise ScenarioFormatError(where, f"expected \"S\", \"seq:[...]\" or \"uniform:<seed>\", got {spec!r}")


def _parse_network(doc, path: str) -> InfluenceNetwork:
    _only(doc, path, {"nodes", "edges", "normalize"})
    names = tuple(_field(doc, "nodes", path, list))
    if not all(isinstance(s, str) for s in names):
        raise ScenarioFormatError(f"{path}.nodes", "expected a list of node names")
    if len(set(names)) != len(names):
        raise ScenarioFormatError(f"{path}.nodes", "node names must be distinct")
    n = len(names)
    edges = _field(doc, "edges", path, list)
    normalize = _field(doc, "normalize", path, bool, False)

    def end(edge, epath: str, key: str) -> int:
        return _node(names, _field(edge, key, epath, object), f"{epath}.{key}")

    joined: set[tuple[int, int]] = set()  # each normalize edge, both ways
    incoming: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for k, edge in enumerate(edges):
        epath = f"{path}.edges[{k}]"
        _only(edge, epath, {"from", "to", "weight"})
        src, dst = end(edge, epath, "from"), end(edge, epath, "to")
        if normalize:
            if "weight" in edge:
                raise ScenarioFormatError(f"{epath}.weight", "explicit weights are not allowed with normalize")
            if src == dst:
                raise ScenarioFormatError(epath, f"self-loop at node {names[src]!r} not allowed with normalize")
            if (src, dst) in joined:
                raise ScenarioFormatError(
                    epath, f"duplicate edge {names[src]}-{names[dst]} (normalize edges are undirected)")
            joined.update(((src, dst), (dst, src)))
            continue
        weight = _parse_weight(_field(edge, "weight", epath, object), f"{epath}.weight")
        if weight < 0:
            raise ScenarioFormatError(f"{epath}.weight", f"weights must be nonnegative, got {weight}")
        if src in incoming[dst]:
            raise ScenarioFormatError(epath, f"duplicate edge {names[src]}->{names[dst]}")
        incoming[dst][src] = weight
    if normalize:
        touched = {src for src, _ in joined}
        isolated = [name for i, name in enumerate(names) if i not in touched]
        if isolated:
            raise ScenarioFormatError(
                f"{path}.nodes", f"node {isolated[0]!r} has no edge: cannot normalize an empty neighborhood")
        try:
            return normalize_random_walk(n, joined, names)
        except ValueError as exc:
            raise ScenarioFormatError(path, str(exc)) from None
    for i, row in enumerate(incoming):
        total = sum(row.values())
        if total != 1:
            raise ScenarioFormatError(
                f"{path}.edges", f"incoming weights of node {names[i]!r} sum to {total}, expected 1"
            )
    rows = tuple(tuple(sorted((j, w) for j, w in row.items() if w)) for row in incoming)
    try:
        return InfluenceNetwork(rows, names)
    except ValueError as exc:
        raise ScenarioFormatError(path, str(exc)) from None


def parse_scenario(doc: dict, label: str = "scenario") -> ScenarioConfig:
    """Validate a scenario document and build the corresponding config.

    Fields: `m`, 2..MAX_ALTERNATIVES; `network`, `{"nodes": [...], "edges":
    [{"from", "to", "weight"}, ...]}`, each node's incoming weights summing to
    1, or with `"normalize": true` unweighted edges given random-walk weights;
    optional `pins`, `{node: order}` (contrarian camps are pins holding an
    order and its antipode); `initial`, `{node: order}` for exactly the free
    nodes, since a pinned node starts at its pin; `variant`, "S", or Variant
    A's schedule "seq:[a,b,...]" or "uniform:<seed>"; optional `policy`,
    `{"no_move_on_ambiguity": bool}`, and `max_steps` > 0.  Orders use
    `alternative_names(m)`, as in "x>(yz)"; any other key is refused.  The
    label is `label`, which `load_scenario` sets to the file stem.
    """
    _only(doc, "", {"m", "network", "pins", "initial", "variant", "policy", "max_steps"})
    m = _field(doc, "m", "", int)
    if not 2 <= m <= MAX_ALTERNATIVES:
        raise ScenarioFormatError("m", f"expected an integer in 2..{MAX_ALTERNATIVES}, got {m}")

    net = _parse_network(_field(doc, "network", "", dict), "network")
    pins = _orders(_field(doc, "pins", "", dict, {}), "pins", net.names, m)
    states = _orders(_field(doc, "initial", "", dict), "initial", net.names, m)
    pinned = [net.names[i] for i in states if i in pins]
    if pinned:
        raise ScenarioFormatError(f"initial.{pinned[0]}", f"node {pinned[0]!r} is pinned: it starts at its pin")
    states.update(pins)
    missing = [name for i, name in enumerate(net.names) if i not in states]
    if missing:
        raise ScenarioFormatError("initial", f"missing initial states for nodes {missing}")

    schedule = _parse_schedule(_field(doc, "variant", "", str), net.names, pins, "variant")

    policy_doc = _field(doc, "policy", "", dict, {})
    _only(policy_doc, "policy", {"no_move_on_ambiguity"})
    flag = _field(policy_doc, "no_move_on_ambiguity", "policy", bool, False)
    policy = StepPolicy(allow_no_move_on_ambiguity=flag)

    max_steps = _field(doc, "max_steps", "", int, DEFAULT_MAX_STEPS)
    if max_steps < 1:
        raise ScenarioFormatError("max_steps", f"expected a positive integer, got {max_steps}")

    return ScenarioConfig(
        m=m,
        network=net,
        persistent=PersistentConfig(pins),
        initial=tuple(states[i] for i in range(net.n)),
        schedule=schedule,
        policy=policy,
        label=label,
        max_steps=max_steps,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and parse a scenario JSON file; the label defaults to the file stem."""
    path = Path(path)
    return parse_scenario(_read_json(path), label=path.stem)

