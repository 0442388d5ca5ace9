#!/usr/bin/env python3
"""Seeded trials of single-peaked invariance on small random networks.

Draws random single-peaked initial profiles, runs the synchronous dynamics,
and tallies how often every target stays single-peaked and, when it does,
whether the states ever leave the single-peaked domain.  Counterexamples are
printed with the step and node where the first violation occurred.
"""

import argparse
import random

from borda_dynamics import PersistentConfig, Schedule
from borda_dynamics.influence import seeded_random_network
from borda_dynamics.scenarios import ScenarioConfig
from borda_dynamics.verifiers import enumerate_single_peaked, verify_single_peaked_invariance


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--max-nodes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    axis = tuple(range(args.m))
    domain = enumerate_single_peaked(args.m, axis)
    passed = hypothesis_broke = invariance_broke = 0
    for trial in range(args.trials):
        rng = random.Random(1000 * args.seed + trial)
        n = rng.randint(2, args.max_nodes)
        net = seeded_random_network(n, seed=rng.randint(0, 2**31))
        initial = tuple(rng.choice(domain) for _ in range(n))
        sc = ScenarioConfig(
            m=args.m,
            network=net,
            persistent=PersistentConfig(),
            initial=initial,
            schedule=Schedule.synchronous(),
            label=f"sp_trial_{trial}",
        )
        outcome = verify_single_peaked_invariance(sc, axis)
        if outcome.passed:
            passed += 1
        elif not outcome.evidence["hypothesis_met"]:
            hypothesis_broke += 1
            bad = outcome.evidence["first_target_violation"]
            print(f"trial {trial}: target left the domain at step {bad['step']} (node {bad['node']})")
        else:
            invariance_broke += 1
            bad = outcome.evidence["first_state_violation"]
            print(f"trial {trial}: STATE left the domain at step {bad['step']} (node {bad['node']})")
            print(f"  scenario: {sc.label}, counterexample state {bad['state']}")

    print(f"\n{args.trials} trials: {passed} invariant, "
          f"{hypothesis_broke} with non-single-peaked targets, "
          f"{invariance_broke} genuine invariance violations")


if __name__ == "__main__":
    main()
