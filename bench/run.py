"""Verdict-time benchmark for contact-pair-lab.

    python3 bench/run.py [--workload corpus|darboux-scaling|nonconstant|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each workload runs in a fresh,
single-threaded child interpreter (``child.py``) for its fixed number of
rounds (``workloads.ROUNDS``), one workload at a time; ``--seconds``
belongs to the calling convention the benchmark is run with and does not
change the work.  With ``all`` (the default) the metric names in the JSON
line are prefixed with the workload's name.
Set-up time is measured apart, in fresh interpreters that only import.
Prints every metric ``BENCHMARK.json`` declares, by name and unit, the
environment, the problems found against the known answers and the known
defects of the code under test (``known.py``), which are counted in
``wrong_verdict_rate`` but do not fail a run; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits non-zero, printing no result, when the package cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import pace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_SAMPLES = 5
# the whole run, children included, ends within this many seconds
RUN_LIMIT_S = 170
# fresh interpreter: import the CLI and the modules the warm-up loaded,
# and state the time at the reference speed of pace.py, from calibration
# runs on either side of the import
_SETUP_CODE = """\
import importlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from pace import REFERENCE_S, calibration
names = json.load(sys.stdin)
speed = [calibration() for _ in range(5)]
t0 = time.perf_counter()
import contact_pair_lab.cli
for name in names:
    importlib.import_module(name)
wall = time.perf_counter() - t0
speed = sorted(speed + [calibration() for _ in range(5)])
print(wall * REFERENCE_S / ((speed[4] + speed[5]) / 2))
"""


class BenchError(Exception):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd: List[str], deadline: float, stdin: str = "") -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {cmd[1]}")
    try:
        done = subprocess.run(cmd, input=stdin, capture_output=True,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} stopped after {timeout:.0f} s, at the "
                         f"run's {RUN_LIMIT_S} s limit")
    if done.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {done.returncode}:\n"
                         + done.stderr[-2000:])
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(lazy_modules: List[str], deadline: float) -> float:
    """Median import time over fresh interpreters; one extra first run
    leaves the bytecode caches written."""
    stdin = json.dumps(lazy_modules)
    cmd = [sys.executable, "-c", _SETUP_CODE, HERE]
    samples = [float(_run(cmd, deadline, stdin))
               for _ in range(SETUP_SAMPLES + 1)]
    return statistics.median(samples[1:])


def declared_metrics(trace: int) -> Dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json declares for the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def pick(measured: dict, declared: Dict[str, str], trace: int) -> dict:
    """The declared metrics from the child's values.  A traced run leaves
    out spans and counters that never fired, which are zero; any value
    the declaration does not list is an error."""
    extra = set(measured) - set(declared) - {"rounds", "wrong_verdict_rate",
                                             "calibration_ms"}
    if extra:
        raise BenchError(f"undeclared metrics: {sorted(extra)}")
    if not trace and set(declared) - set(measured):
        raise BenchError(f"metrics not measured: "
                         f"{sorted(set(declared) - set(measured))}")
    return {name: {"value": measured.get(name, 0), "unit": unit}
            for name, unit in declared.items()}


def run_workload(workload: str, seed: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    result = json.loads(_run(cmd, deadline))
    if not trace:
        result["metrics"]["setup_s"] = setup_seconds(result["lazy_modules"],
                                                     deadline)
    return result


def show(result: dict, metrics: dict, trace: int) -> None:
    env = result["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{', '.join(result['scenarios'])}; "
          f"{result['metrics']['rounds']} rounds, "
          f"{result['attempted']} scenario runs, {result['failed']} failed, "
          f"{result['defective']} with a known defect only")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']!r} {metric['unit']}")
    if not trace:
        print(f"  {'wrong_verdict_rate':28s} "
              f"{result['metrics']['wrong_verdict_rate']!r} "
              f"(({result['failed']} + {result['defective']})"
              f"/{result['attempted']})")
        print(f"  calibration loop, median     "
              f"{result['metrics']['calibration_ms']:.3f} ms (times above "
              f"are scaled to {pace.REFERENCE_S * 1e3:g} ms)")
    lazy = sorted({name.split(".")[0] for name in result["lazy_modules"]})
    print(f"  lazily loaded by the warm-up: {', '.join(lazy) or 'nothing'}")
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")
    for defect in result["defects"]:
        print(f"  known defect: {defect}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Verdict-time benchmark for contact-pair-lab.")
    parser.add_argument("--workload", default="all",
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted and ignored: the work per run is "
                        "fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    declared = declared_metrics(args.trace)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.trace)
            picked = pick(result["metrics"], declared, args.trace)
            show(result, picked, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in picked.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
