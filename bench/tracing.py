"""Spans around the program's public layer functions, installed from outside.

The tracer rebinds each layer function at the module-level names its callers
look up (for example `dynamics.target`, which `_sync_update` calls through the
dynamics namespace), records one span per call and restores the originals
afterwards.  Spans live in flat arrays in memory and are written out when the
run ends.  A name that a later version of the program no longer has, or no
longer calls, is skipped and reports zero calls.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import Counter, defaultdict

from workloads import BUDGET

VERIFIER_NAMES = (
    "traveling_wave", "forced_even_period", "even_period_lifting",
    "robustness", "unreachable_persistence", "single_peaked_invariance",
)

#: span name -> (module attribute, the module-level names that are rebound)
LAYERS = {
    "dynamics.run_until_cycle": ("run_until_cycle", ("dynamics", "scenarios", "verifiers")),
    "dynamics.target": ("target", ("dynamics",)),
    "dynamics.aggregate_scores": ("aggregate_scores", ("dynamics",)),
    "dynamics.min_margin_over": ("min_margin_over", ("dynamics",)),
    "dynamics.enumerate_fixed_points": ("enumerate_fixed_points", ("dynamics", "verifiers")),
    "weak_orders.project": ("project", ("dynamics", "weak_orders")),
    "weak_orders.margin_from_ties": ("margin_from_ties", ("dynamics", "weak_orders")),
    "move_graph.step": ("graph_step", ("dynamics",)),
    "influence.perturb_weights": ("perturb_weights", ("verifiers",)),
    "influence.class_structure": ("class_structure", ("verifiers",)),
    "cli.main": ("main", ("cli",)),
    **{f"verifiers.{v}": (f"verify_{v}", ("verifiers",)) for v in VERIFIER_NAMES},
}


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.runs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.run_id = -1
        #: counts taken at the boundaries: step moves, enumeration sizes
        self.counts: Counter = Counter()
        #: (run id, run_until_cycle arguments, report or BUDGET) per traced run
        self.reports: list = []
        self._patches: list = []

    # --- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, starts, ends = self._stack, self.starts, self.ends

        def traced(*args, **kwargs):
            sid = len(starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[sid] = time.perf_counter()
                starts[sid] = start
                stack.pop()
                if after is not None:
                    after(args, kwargs, exc)
                raise
            ends[sid] = time.perf_counter()
            starts[sid] = start
            stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_step(self, args, kwargs, result):
        self.counts["move_graph.step.moves"] += result != args[2]

    def _after_enumerate(self, bd):
        def after(args, kwargs, result):
            if isinstance(result, Exception):
                return
            net, graph, _policy, persistent = args[:4]
            free = persistent.free_nodes(net.n)
            self.counts["dynamics.enumerate_fixed_points.candidates"] += (
                len(bd.enumerate_weak_orders(graph.m)) ** len(free))
            self.counts["dynamics.enumerate_fixed_points.found"] += len(result)
        return after

    def _after_run(self, signature, budget_error):
        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            if isinstance(result, budget_error):
                result = BUDGET
            elif isinstance(result, Exception):
                return
            self.reports.append((self.run_id, bound.arguments, result))
        return after

    # --- installing ---------------------------------------------------------

    def install(self, bd) -> None:
        """Wrap every layer function that the program still has, then enable."""
        hooks = {
            "move_graph.step": self._after_step,
            "dynamics.enumerate_fixed_points": self._after_enumerate(bd),
        }
        if hasattr(bd.dynamics, "run_until_cycle"):
            hooks["dynamics.run_until_cycle"] = self._after_run(
                inspect.signature(bd.dynamics.run_until_cycle), bd.BudgetExceededError)
        for name, (attr, owners) in LAYERS.items():
            wrapped: dict[int, object] = {}
            targets = [(getattr(bd, owner), attr) for owner in owners]
            if name.startswith("verifiers."):
                targets.append((bd.verifiers.VERIFIERS, name.split(".", 1)[1]))
            for owner, key in targets:
                original = owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)
                if original is None:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, hooks.get(name))
                self._patches.append((owner, key, original, wrapped[id(original)]))
        self.enable()

    def enable(self) -> None:
        for owner, key, _original, replacement in self._patches:
            _set(owner, key, replacement)

    def restore(self) -> None:
        for owner, key, original, _replacement in reversed(self._patches):
            _set(owner, key, original)

    # --- results -------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every span; self time excludes children."""
        child = [0.0] * len(self.starts)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        calls: Counter = Counter()
        own: defaultdict = defaultdict(float)
        for sid, nid in enumerate(self.name_ids):
            name = self.names[nid]
            calls[name] += 1
            own[name] += self.ends[sid] - self.starts[sid] - child[sid]
        return {name: (calls[name], own[name]) for name in LAYERS}

    def write(self, path) -> None:
        """One line per span: run id, span id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("run\tspan\tparent\tname\tstart\tend\n")
            for sid in range(len(self.starts)):
                out.write(f"{self.runs[sid]}\t{sid}\t{self.parents[sid]}\t"
                          f"{self.names[self.name_ids[sid]]}\t{self.starts[sid]:.9f}\t"
                          f"{self.ends[sid]:.9f}\n")
