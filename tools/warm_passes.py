"""Median warm verify and cross-check times of one benchmark workload.

    PYTHONPATH=src python3 tools/warm_passes.py [--workload darboux-scaling]
        [--seed 1] [--reps 5] [--by-identity]
    PYTHONPATH=src python3 tools/warm_passes.py --setup 5

Runs the workload's inputs from ``bench/workloads.py`` in this one
process: a warm-up verification, then ``--reps`` passes, each a verify
pass (``run_checks`` on every scenario, rebuilt from its dict) and a
cross-check pass (``numeric_oracle`` on every identity ``bench/known.py``
lists for the scenario).  It prints, per scenario, the median wall time
and the median ``time.process_time`` of each over the passes, in ms, and
the ``CheckReport.counters`` of its last run; the process time leaves out
the time other processes take the core.  With ``--by-identity`` it also
prints, per scenario, the median process time of each oracle id in the
order ``bench/known.py`` lists them; the first builds the scenario's
float view (table, probe points, jet), which the others read.  The
benchmark times a darboux-scaling scenario once per run, so its metrics
are single samples; a median over many warm passes shows a change that
those samples spread too widely to tell.

With ``--setup N`` it times set-up instead: N fresh interpreters, each
under ``PYTHONDONTWRITEBYTECODE=1`` (so each compiles the package, as the
benchmark's do), run ``import contact_pair_lab.cli``; it prints the median
wall and process ms of that import and whether it loaded numpy.  The
benchmark's ``setup_s`` is a pace-scaled median of five such imports.

Run it on two checkouts to compare them.  It only reads the benchmark's
files.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import known  # noqa: E402
import workloads  # noqa: E402

from contact_pair_lab import (numeric_oracle, run_checks,  # noqa: E402
                              scenario_from_dict)


# one fresh interpreter's set-up: wall and process seconds of the import,
# and whether it loaded numpy
_SETUP_CODE = """\
import sys, time
t0, p0 = time.perf_counter(), time.process_time()
import contact_pair_lab.cli
print(time.perf_counter() - t0, time.process_time() - p0,
      "numpy" in sys.modules)
"""


def setup_times(count: int) -> None:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env,
                              capture_output=True, text=True, check=True)
        wall, cpu, numpy = done.stdout.split()
        samples.append((float(wall), float(cpu), numpy == "True"))
    loaded = sum(numpy for _, _, numpy in samples)
    print(f"import contact_pair_lab.cli, {count} fresh interpreters: "
          f"median {statistics.median(s[0] for s in samples) * 1e3:.1f} ms "
          f"wall, {statistics.median(s[1] for s in samples) * 1e3:.1f} ms "
          f"process; numpy loaded in {loaded} of {count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="darboux-scaling",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--by-identity", action="store_true",
                        help="also print the median process ms of each "
                        "oracle id per scenario")
    parser.add_argument("--setup", type=int, metavar="N",
                        help="instead time `import contact_pair_lab.cli` "
                        "in N fresh interpreters")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.setup is not None:
        if args.setup < 1:
            parser.error("--setup must be at least 1")
        setup_times(args.setup)
        return 0
    answers = known.load_known()
    inputs = workloads.workload_inputs(args.workload, args.seed)
    warm_up = workloads.WARM_UP[args.workload]
    run_checks(scenario_from_dict(workloads.load_base()[warm_up], warm_up),
               seed=args.seed)
    # (wall ms, process ms) of every pass, by scenario
    verify_ms = {name: [] for name, _ in inputs}
    cross_ms = {name: [] for name, _ in inputs}
    counters = {}
    oracle_ids = {name: list(known.answer_for(answers, name)["oracle"])
                  for name, _ in inputs}
    # process ms of each oracle id, by scenario, with --by-identity
    by_id = {name: {oracle_id: [] for oracle_id in oracle_ids[name]}
             for name, _ in inputs}
    for _ in range(args.reps):
        for name, data in inputs:
            t0, p0 = time.perf_counter(), time.process_time()
            report = run_checks(scenario_from_dict(data, name),
                                seed=args.seed)
            verify_ms[name].append(((time.perf_counter() - t0) * 1e3,
                                    (time.process_time() - p0) * 1e3))
            counters[name] = report.counters
        for name, data in inputs:
            t0, p0 = time.perf_counter(), time.process_time()
            scenario = scenario_from_dict(data, name)
            for oracle_id in oracle_ids[name]:
                if args.by_identity:
                    q0 = time.process_time()
                numeric_oracle(scenario, oracle_id, seed=args.seed)
                if args.by_identity:
                    by_id[name][oracle_id].append(
                        (time.process_time() - q0) * 1e3)
            cross_ms[name].append(((time.perf_counter() - t0) * 1e3,
                                   (time.process_time() - p0) * 1e3))
    print(f"{'scenario':<24} {'verify_ms':>10} {'verify_cpu':>10} "
          f"{'crosscheck_ms':>14} {'crosscheck_cpu':>14}  counters")
    for name, _ in inputs:
        medians = [statistics.median(sample[i] for sample in times[name])
                   for times in (verify_ms, cross_ms) for i in (0, 1)]
        text = " ".join(f"{key}={value}"
                        for key, value in counters[name].items())
        print(f"{name:<24} {medians[0]:>10.2f} {medians[1]:>10.2f} "
              f"{medians[2]:>14.2f} {medians[3]:>14.2f}  {text}")
    if args.by_identity:
        print(f"\n{'scenario':<24} {'oracle id':<46} {'cpu_ms':>8}")
        for name, _ in inputs:
            for rank, (oracle_id, times) in enumerate(by_id[name].items()):
                label = oracle_id + (" (builds the view)" if rank == 0
                                     else "")
                print(f"{name:<24} {label:<46} "
                      f"{statistics.median(times):>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
