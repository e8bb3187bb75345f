"""Peak resident memory growth by stage of one benchmark workload.

    PYTHONPATH=src python3 tools/rss_by_stage.py [--workload corpus]
        [--seed 1] [--rounds 1]

Runs the workload's inputs from ``bench/workloads.py`` as the benchmark's
rounds do, in this one process: a warm-up verification, then per round a
verify pass (``run_checks`` on every scenario, each rebuilt from its dict)
and the workload's cross-check passes (``numeric_oracle`` on every
identity ``bench/known.py`` lists for the scenario).  After each stage it
prints the process's ``ru_maxrss`` and its growth since the stage before,
in KiB, so that a rise of the benchmark's ``peak_rss_mb`` can be placed.
Run it on two checkouts to compare them.  It only reads the benchmark's
files.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import known  # noqa: E402
import workloads  # noqa: E402

from contact_pair_lab import (numeric_oracle, run_checks,  # noqa: E402
                              scenario_from_dict)


class Stages:
    """Prints each stage's ``ru_maxrss`` and its growth."""

    def __init__(self):
        self.last = self.maxrss()
        print(f"{'stage':<64} {'maxrss_kb':>10} {'growth_kb':>10}")
        self.mark("import")

    @staticmethod
    def maxrss() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def mark(self, stage: str) -> None:
        now = self.maxrss()
        print(f"{stage:<64} {now:>10} {now - self.last:>+10}")
        self.last = now


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="corpus",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    stages = Stages()
    answers = known.load_known()
    inputs = workloads.workload_inputs(args.workload, args.seed)
    warm_up = workloads.WARM_UP[args.workload]
    run_checks(scenario_from_dict(workloads.load_base()[warm_up], warm_up),
               seed=args.seed)
    stages.mark(f"warm-up {warm_up}")
    for number in range(1, args.rounds + 1):
        for name, data in inputs:
            run_checks(scenario_from_dict(data, name), seed=args.seed)
            stages.mark(f"round {number} run_checks {name}")
        for _ in range(workloads.CROSSCHECKS[args.workload]):
            for name, data in inputs:
                scenario = scenario_from_dict(data, name)
                stages.mark(f"round {number} scenario_from_dict {name}")
                for oracle_id in known.answer_for(answers, name)["oracle"]:
                    numeric_oracle(scenario, oracle_id, seed=args.seed)
                    stages.mark(f"round {number} {name} {oracle_id}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
