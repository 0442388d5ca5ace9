"""Seeded inputs and calls for the four benchmark workloads.

Every input is generated here from the workload seed as plain data (Fraction
rows and class tuples) and handed to the program only through its public
constructors during set-up.  Nothing is drawn through the program's own
random helpers or the scripts, so a change to the program cannot silently
change a workload.

A workload is a fixed batch of distinct calls over plain data.  Each pass of
the timed run builds the batch afresh from that data and runs it once, so
every call is timed several times, each time on new objects, and its median
time can be taken.  Why each workload was chosen is noted beside it; the
one-line summaries are in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

ZERO = Fraction(0)

#: uniform runs stop at the first fixed point or after this many updates;
#: set well above the longest run seen while sizing (about 2,500 updates)
UNIFORM_BUDGET = 5_000

#: a 24-cycle of the m = 4 cover graph; a relabelling of the alternatives
#: maps it to another 24-cycle, so every seed gets a ring of the same cost
CYCLE_24 = (
    "x>y>z>u", "x>y>(zu)", "x>y>u>z", "x>(yu)>z", "x>(yzu)", "x>(yz)>u",
    "x>z>y>u", "x>z>(yu)", "x>z>u>y", "x>(zu)>y", "x>u>z>y", "x>u>(yz)",
    "x>u>y>z", "(xu)>y>z", "(xyu)>z", "(xy)>u>z", "(xy)>(zu)", "(xyzu)",
    "(xyz)>u", "y>(xz)>u", "y>(xzu)", "y>x>(zu)", "y>x>z>u", "(xy)>z>u",
)

#: the shipped scenario files that `simulate` is run on
SIMULATE_FILES = (
    "consensus_triangle", "gadget", "gadget_single_camp", "star_frozen",
    "traveling_wave_4", "traveling_wave_8", "unreachable_pins", "wave_corrupted",
)
SUITES = ("suite_default", "suite_controls")


def sha(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


# --- plain-data generators ----------------------------------------------------


@cache
def all_weak_orders(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every ordered partition of range(m), as class tuples, in a fixed order."""

    def parts(items):
        if not items:
            yield ()
            return
        for size in range(1, len(items) + 1):
            for top in itertools.combinations(items, size):
                rest = tuple(a for a in items if a not in top)
                for tail in parts(rest):
                    yield (top,) + tail

    return tuple(parts(tuple(range(m))))


def parse_classes(text: str) -> tuple[tuple[int, ...], ...]:
    """Class tuples of an order written as in CYCLE_24."""
    return tuple(
        tuple(sorted("xyzu".index(c) for c in token.strip("()"))) for token in text.split(">")
    )


def random_rows(rng: random.Random, n: int, indegree: int | None = None,
                arc_prob: float = 0.5) -> list[list[Fraction]]:
    """Row-stochastic weights without self-loops, integer ratios 1..9.

    With `indegree` every node hears exactly that many others; otherwise each
    arc is present with `arc_prob` and an empty row gets one random arc.
    """
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        if indegree is not None:
            ins = rng.sample(others, indegree)
        else:
            ins = [j for j in others if rng.random() < arc_prob] or [rng.choice(others)]
        raw = [rng.randint(1, 9) for _ in ins]
        total = sum(raw)
        row = [ZERO] * n
        for j, w in zip(ins, raw):
            row[j] = Fraction(w, total)
        rows.append(row)
    return rows


def random_profile(rng: random.Random, m: int, n: int) -> tuple:
    space = all_weak_orders(m)
    return tuple(rng.choice(space) for _ in range(n))


def copier_ring_rows(ell: int) -> list[list[Fraction]]:
    """Node i copies node i-1 (mod ell), the network of a traveling wave."""
    rows = []
    for i in range(ell):
        row = [ZERO] * ell
        row[(i - 1) % ell] = Fraction(1)
        rows.append(row)
    return rows


def relabelled_cycle(rng: random.Random) -> tuple:
    """CYCLE_24 under a seeded relabelling of the alternatives and a seeded start."""
    perm = list(range(4))
    rng.shuffle(perm)
    cycle = [
        tuple(tuple(sorted(perm[a] for a in cls)) for cls in parse_classes(text))
        for text in CYCLE_24
    ]
    start = rng.randrange(len(cycle))
    return tuple(cycle[start:] + cycle[:start])


@dataclass(frozen=True)
class RunSpec:
    """One run_until_cycle call as plain data."""

    label: str
    m: int
    rows: list
    initial: tuple
    schedule: tuple  # ("synchronous",), ("sequence", nodes) or ("uniform", seed)
    max_steps: int | None = None  # None keeps the program's default
    pinned: tuple = ()  # nodes held at their initial order


# --- set-up through the public constructors ---------------------------------


class Timers:
    """Per-layer set-up times of one set-up, measured around public calls.

    `between`, if given, is called after each of those calls, outside the
    time taken for it: the timed run samples host speed there.
    """

    def __init__(self, between=None):
        self.values = {
            "weak_orders.enumerate.cold_s": 0.0,
            "move_graph.build.cold_s": 0.0,
            "influence.network.build_s": 0.0,
            "scenarios.load.self_s": 0.0,
        }
        self.between = between

    def timed(self, key, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.values[key] += time.perf_counter() - start
        if self.between is not None:
            self.between()
        return result


def build_graphs(bd, ms, timers: Timers) -> None:
    """Cold-build the weak-order enumeration and cover graph for each m."""
    for m in sorted(set(ms)):
        timers.timed("weak_orders.enumerate.cold_s", bd.enumerate_weak_orders, m)
        timers.timed("move_graph.build.cold_s", bd.build_cover_graph, m)


class OrderCache:
    """Maps class tuples to the program's WeakOrder objects via `weak_order`."""

    def __init__(self, bd):
        self.bd = bd
        self.orders = {}

    def __call__(self, classes):
        order = self.orders.get(classes)
        if order is None:
            order = self.orders[classes] = self.bd.weak_order(classes)
        return order


def build_scenario(bd, spec: RunSpec, orders: OrderCache, timers: Timers):
    net = timers.timed("influence.network.build_s", bd.influence_network, spec.rows)
    kind = spec.schedule[0]
    if kind == "synchronous":
        schedule = bd.Schedule.synchronous()
    elif kind == "sequence":
        schedule = bd.Schedule.sequence(spec.schedule[1])
    else:
        schedule = bd.Schedule.uniform(spec.schedule[1])
    extra = {} if spec.max_steps is None else {"max_steps": spec.max_steps}
    initial = tuple(orders(c) for c in spec.initial)
    return bd.ScenarioConfig(
        m=spec.m,
        network=net,
        persistent=bd.PersistentConfig({i: initial[i] for i in spec.pinned}),
        initial=initial,
        schedule=schedule,
        label=spec.label,
        **extra,
    )


# --- calls --------------------------------------------------------------------


BUDGET = "budget"  # outcome of a uniform run that met no fixed point in its budget


class SimCall:
    """One run_until_cycle through ScenarioConfig.run."""

    kind = "run"

    def __init__(self, bd, spec: RunSpec, scenario, ops_per_call: bool):
        self.bd = bd
        self.spec = spec
        self.scenario = scenario
        self.ops_per_call = ops_per_call
        self.uniform = spec.schedule[0] == "uniform"

    def run(self):
        try:
            return self.scenario.run()
        except self.bd.BudgetExceededError:
            if not self.uniform:
                raise
            return BUDGET

    def ops(self, outcome) -> int:
        """One op per call in census; one per node update elsewhere."""
        if self.ops_per_call:
            return 1
        if outcome == BUDGET:
            return self.scenario.max_steps
        return sum(len(log) for log in outcome.target_log)


class CliCall:
    """cli.main in process, stdout captured."""

    def __init__(self, bd, argv, kind, name, reference):
        self.bd = bd
        self.argv = argv
        self.kind = kind  # "verify" or "simulate"
        self.name = name
        self.reference = reference  # suite entries or the loaded scenario

    def run(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.bd.cli.main(self.argv)
        return code, out.getvalue()

    def ops(self, outcome) -> int:
        return 1


class VerifierCall:
    """One verifier on a scenario built in set-up; the claim is expected to hold."""

    def __init__(self, bd, verifier, scenario, kwargs):
        self.bd = bd
        self.verifier = verifier
        self.scenario = scenario
        self.kwargs = kwargs
        self.kind = "verifier"

    def run(self):
        return getattr(self.bd.verifiers, f"verify_{self.verifier}")(self.scenario, **self.kwargs)

    def ops(self, outcome) -> int:
        return 1


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""

    def generate(self, seed: int, tiny: bool):
        raise NotImplementedError

    def build(self, bd, raw, timers: Timers) -> list:
        raise NotImplementedError


class SimWorkload(Workload):
    ops_per_call = False

    def specs(self, rng: random.Random, tiny: bool) -> list[RunSpec]:
        raise NotImplementedError

    def generate(self, seed, tiny):
        return self.specs(random.Random(f"{self.name}:{seed}"), tiny)

    def build(self, bd, raw, timers):
        build_graphs(bd, (s.m for s in raw), timers)
        orders = OrderCache(bd)
        return [
            SimCall(bd, spec, build_scenario(bd, spec, orders, timers), self.ops_per_call)
            for spec in raw
        ]


class Census(SimWorkload):
    name = "census"
    # 1,000 tiny random networks, synchronous.  Chosen because per-run fixed
    # cost (cycle hashing, report assembly, orbit margin, WeakOrder churn)
    # dominates, so a kernel that adds per-scenario compile cost, or helps
    # only long rows, shows here as a loss or as no change.
    ops_per_call = True

    def specs(self, rng, tiny):
        out = []
        for k in range(20 if tiny else 1000):
            # every (n, m) pair in equal shares, so a seed changes the networks
            # but not the mix of sizes
            n = 2 + k % 7
            m = 3 + k // 7 % 2
            rows = random_rows(rng, n, arc_prob=0.5)
            out.append(RunSpec(f"census_{k}", m, rows, random_profile(rng, m, n), ("synchronous",)))
        return out


class SyncLarge(SimWorkload):
    name = "sync_large"
    # Two sparse n = 300 networks and a 120-node copier ring, synchronous.
    # Chosen because aggregate_scores scans the full dense row (O(n) on sparse
    # input), and the ring's long orbit gives cycle detection, stored states
    # and the orbit re-aggregation in min_margin_over real weight.  Sizes are
    # fixed so that a seed changes the networks but not the size of the work.
    NETS = ((300, 4), (300, 5))
    RING = 120

    def specs(self, rng, tiny):
        nets = ((30, 4), (30, 5)) if tiny else self.NETS
        ring = 48 if tiny else self.RING
        out = []
        for k, (n, m) in enumerate(nets):
            rows = random_rows(rng, n, indegree=4)
            out.append(RunSpec(f"sparse_{k}_n{n}_m{m}", m, rows, random_profile(rng, m, n),
                               ("synchronous",)))
        cycle = relabelled_cycle(rng)
        initial = tuple(cycle[i % len(cycle)] for i in range(ring))
        out.append(RunSpec(f"ring_{ring}", 4, copier_ring_rows(ring), initial, ("synchronous",)))
        return out


class AsyncMixed(SimWorkload):
    name = "async_mixed"
    # Sequence schedules on n = 60-150 sparse networks and seeded uniform
    # schedules on n = 60 networks with 5 free nodes: interleaved writes and
    # fixed-point re-checks.
    # Chosen because a gain that batches the reads of a synchronous step, or
    # caches aggregates per state, and costs interleaved writes shows here.
    # The cost of one uniform update varies from run to run with the random
    # schedule (the re-check stops at the first free node off its target), so
    # there are many short uniform runs: pinning most nodes keeps the rows
    # mid-size while each run stays short.
    SEQUENCE = (60, 80, 100, 120, 140, 150)
    UNIFORM = (80, 60, 5)  # runs, nodes, free nodes

    def specs(self, rng, tiny):
        sequence = (16,) if tiny else self.SEQUENCE
        runs, n_uniform, free = (2, 12, 4) if tiny else self.UNIFORM
        out = []
        for k, n in enumerate(sequence):
            # a permutation of all nodes, then a quarter of them again
            nodes = list(range(n))
            rng.shuffle(nodes)
            nodes += rng.sample(range(n), n // 4)
            out.append(RunSpec(f"seq_{k}_n{n}", 4, random_rows(rng, n, indegree=4),
                               random_profile(rng, 4, n), ("sequence", tuple(nodes))))
        for k in range(runs):
            initial = random_profile(rng, 4, n_uniform)
            pinned = tuple(sorted(rng.sample(range(n_uniform), n_uniform - free)))
            out.append(RunSpec(f"uniform_{k}_n{n_uniform}", 4,
                               random_rows(rng, n_uniform, indegree=4), initial,
                               ("uniform", rng.randrange(2**31)), UNIFORM_BUDGET, pinned))
        return out


class VerifyClaims(Workload):
    name = "verify_claims"
    # CLI verify on both suites, CLI simulate on the shipped scenarios, and the
    # m = 4 gadget, robustness and long-wave verifiers.
    # Chosen because verifier logic, exhaustive fixed-point enumeration (5,625
    # profiles on the m = 4 gadget) and big-denominator arithmetic from
    # perturb_weights dominate here while n is tiny.

    #: eps values inside the oscillation band of the m = 4 gadget
    EPS = ("1/20", "1/10", "3/20", "1/5")

    def generate(self, seed, tiny):
        rng = random.Random(f"{self.name}:{seed}")
        return {
            "m": 3 if tiny else 4,
            "eps": rng.choice(self.EPS),
            "trials": 5 if tiny else 100,
            "robust_seed": rng.randrange(2**31),
            "cycle": relabelled_cycle(rng),
            "ell": 24 if tiny else 48,
        }

    def build(self, bd, raw, timers):
        build_graphs(bd, (3, 4, raw["m"]), timers)
        calls = []
        for suite in SUITES:
            path = SCENARIO_DIR / f"{suite}.json"
            entries = timers.timed("scenarios.load.self_s", bd.verifiers.load_suite, path)
            calls.append(CliCall(bd, ["verify", str(path)], "verify", suite, entries))
        for stem in SIMULATE_FILES:
            path = SCENARIO_DIR / f"{stem}.json"
            scenario = timers.timed("scenarios.load.self_s", bd.load_scenario, path)
            calls.append(CliCall(bd, ["simulate", str(path)], "simulate", stem, scenario))
        m = raw["m"]
        rho = bd.weak_order([[a] for a in range(m)])
        gadget = bd.build_gadget(m, rho, Fraction(raw["eps"]))
        calls.append(VerifierCall(bd, "forced_even_period", gadget, {}))
        calls.append(VerifierCall(bd, "robustness", gadget,
                                  {"trials": raw["trials"], "seed": raw["robust_seed"]}))
        orders = OrderCache(bd)
        wave = bd.build_traveling_wave(raw["ell"], [orders(c) for c in raw["cycle"]])
        calls.append(VerifierCall(bd, "traveling_wave", wave, {"expected_k": len(raw["cycle"])}))
        return calls


WORKLOADS = {w.name: w for w in (Census, SyncLarge, AsyncMixed, VerifyClaims)}

