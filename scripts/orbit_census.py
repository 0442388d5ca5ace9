#!/usr/bin/env python3
"""Census of transients and periods over seeded random scenarios.

Runs synchronous dynamics on random row-stochastic networks from random
initial profiles and tallies (mu, period) pairs: a quick empirical look at
how often small random instances oscillate rather than freeze.
"""

import argparse
import random
from collections import Counter

from borda_dynamics import PersistentConfig, Schedule, build_cover_graph, run_until_cycle
from borda_dynamics.influence import seeded_random_network
from borda_dynamics.move_graph import StepPolicy
from borda_dynamics.weak_orders import enumerate_weak_orders


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--max-nodes", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    space = enumerate_weak_orders(args.m)
    graph = build_cover_graph(args.m)
    policy = StepPolicy()
    tally: Counter[tuple[int, int]] = Counter()
    periods: Counter[int] = Counter()
    for run in range(args.runs):
        rng = random.Random(1000 * args.seed + run)
        n = rng.randint(2, args.max_nodes)
        net = seeded_random_network(n, seed=rng.randint(0, 2**31))
        initial = tuple(rng.choice(space) for _ in range(n))
        report = run_until_cycle(
            net, graph, policy, PersistentConfig(), initial, Schedule.synchronous()
        )
        tally[(report.mu, report.period)] += 1
        periods[report.period] += 1

    print(f"{args.runs} runs, m={args.m}, n <= {args.max_nodes}")
    print("period histogram:")
    for p in sorted(periods):
        print(f"  period {p:>3}: {periods[p]}")
    print("most common (mu, period):")
    for (mu, p), count in tally.most_common(10):
        print(f"  mu={mu:>3} period={p:>3}: {count}")


if __name__ == "__main__":
    main()
