"""Run one workload in this process and print one JSON line.

Started by ``run.py`` in a fresh single-threaded interpreter with the
package on ``PYTHONPATH``.  Batch verification in a closed loop: one
caller, each scenario starts when the previous verdict has returned, and
every pass rebuilds each scenario from its dict.

Without --trace: warm up, then run the workload's fixed number of rounds,
each a verify pass (``run_checks`` on every scenario) followed by the
workload's number of cross-check passes (``numeric_oracle`` on every
identity the known answers list), holding each scenario run to its known
answer.

With --trace: one round of an untraced verify pass, a ``run_checks`` pass
under counting wrappers, a replay of its stage order through the public
functions with each stage in its own span, and a cross-check pass, all at
probe seed --seed.  A scenario whose rows differ from its reference rows is
verified again at the probe seed of the reference, to count the rows a
change has altered.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from typing import Dict, List, Optional, Tuple

import known
import pace
import tracing
import workloads

import contact_pair_lab.cli  # noqa: F401  loads the package as a user does
from contact_pair_lab import (ChartDomainWarning, EndoField,
                              LeviCivita, ScalarExpr, ValidationError,
                              check_connection_identities,
                              check_curvature_identity, classify,
                              hermitian_data, normality, numeric_oracle,
                              restrict_structure, run_checks,
                              scenario_from_dict, seeded_probe_points,
                              shape_data, validate_contact_pair,
                              validate_metric, validate_structure,
                              verify_theorems)
from contact_pair_lab import frames, linalg
from contact_pair_lab.submanifolds import SubframeError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINALG = ("rref", "kernel_basis", "solve_unique", "solve_in_span", "invert",
          "determinant", "matmul", "rational_rank")

Inputs = List[Tuple[str, dict]]


class ScenarioRun:
    """One scenario in one round: its report rows, its oracle residuals
    from each cross-check pass, everything that disagrees with the known
    answer and the known defects it shows."""

    def __init__(self, name: str):
        self.name = name
        self.rows: Optional[List[known.Row]] = None
        self.residuals: List[Dict[str, float]] = []
        self.problems: List[str] = []
        self.defects: List[str] = []

    def judge(self, answers: dict) -> None:
        answer = known.answer_for(answers, self.name)
        if self.rows is not None:
            self.problems += known.verdict_problems(answer, self.rows)
            self.defects = known.known_missing(answer, self.rows)
        for residuals in self.residuals:
            self.problems += known.residual_problems(
                answer, residuals, answers["threshold"])


def verify(name: str, data: dict, seed: int, run: ScenarioRun,
           clock: pace.Pace) -> pace.Interval:
    mark = clock.mark()
    try:
        report = run_checks(scenario_from_dict(data, name), seed=seed)
    except Exception as exc:  # a crash is a wrong verdict, not a stop
        run.problems.append(f"run_checks raised {type(exc).__name__}: {exc}")
    else:
        run.rows = [(r.id, r.verdict, r.witness) for r in report.rows]
    return clock.since(mark)


def crosscheck(name: str, data: dict, seed: int, oracle_ids: List[str],
               run: ScenarioRun, clock: pace.Pace) -> pace.Interval:
    mark = clock.mark()
    try:
        scenario = scenario_from_dict(data, name)
        run.residuals.append({oracle_id: numeric_oracle(scenario, oracle_id,
                                                        seed=seed)
                              for oracle_id in oracle_ids})
    except Exception as exc:  # as in verify
        run.problems.append(f"numeric_oracle raised "
                            f"{type(exc).__name__}: {exc}")
    return clock.since(mark)


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.inputs: Inputs = workloads.workload_inputs(name, seed)
        self.answers = known.load_known()
        self.oracle_ids = {
            sname: list(known.answer_for(self.answers, sname)["oracle"])
            for sname, _ in self.inputs}
        self.attempted = 0
        self.failed = 0
        self.defective = 0
        self.problems: set = set()
        self.defects: set = set()
        self.clock = pace.Pace()

    def verify_pass(self, runs: Dict[str, ScenarioRun]
                    ) -> Dict[str, pace.Interval]:
        return {name: verify(name, data, self.seed, runs[name], self.clock)
                for name, data in self.inputs}

    def crosscheck_pass(self, runs: Dict[str, ScenarioRun]
                        ) -> Dict[str, pace.Interval]:
        return {name: crosscheck(name, data, self.seed,
                                 self.oracle_ids[name], runs[name],
                                 self.clock)
                for name, data in self.inputs}

    def tally(self, runs: Dict[str, ScenarioRun]) -> None:
        """A run with a problem has failed; a run whose only flaw is a
        known defect has not, and is counted apart."""
        for run in runs.values():
            run.judge(self.answers)
            self.attempted += 1
            if run.problems:
                self.failed += 1
                self.problems.update(f"{run.name}: {p}"
                                     for p in run.problems)
            elif run.defects:
                self.defective += 1
            self.defects.update(f"{run.name}: {d}" for d in run.defects)

    def wrong_verdict_rate(self) -> float:
        """Runs with a problem or a known defect over all runs."""
        return (self.failed + self.defective) / self.attempted

    def new_runs(self) -> Dict[str, ScenarioRun]:
        return {name: ScenarioRun(name) for name, _ in self.inputs}

    def warm_up(self) -> List[str]:
        """Verify the workload's warm-up scenario once; returns the modules
        this loaded lazily."""
        before = set(sys.modules)
        name = workloads.WARM_UP[self.name]
        verify(name, workloads.load_base()[name], self.seed,
               ScenarioRun(name), self.clock)
        return [m for m in sys.modules if m not in before]


# -- untraced -----------------------------------------------------------------


def measure(work: Workload) -> dict:
    """Times are wall times at the reference speed of ``pace``."""
    names = [name for name, _ in work.inputs]
    verify_s: Dict[str, List[pace.Interval]] = {name: [] for name in names}
    cross_s: Dict[str, List[pace.Interval]] = {name: [] for name in names}
    rounds = workloads.ROUNDS[work.name]
    with work.clock:
        for _ in range(rounds):
            runs = work.new_runs()
            for name, interval in work.verify_pass(runs).items():
                verify_s[name].append(interval)
            for _ in range(workloads.CROSSCHECKS[work.name]):
                for name, interval in work.crosscheck_pass(runs).items():
                    cross_s[name].append(interval)
            work.tally(runs)
        # samples after the last call
        time.sleep(pace.WINDOW_S)

    def median_s(intervals: List[pace.Interval]) -> float:
        return statistics.median(work.clock.scaled(i) for i in intervals)

    verdict = {name: median_s(v) for name, v in verify_s.items()}
    return {
        "rounds": rounds,
        "verify_pass_s": sum(verdict.values()),
        "slowest_verdict_s": max(verdict.values()),
        "crosscheck_pass_s": sum(median_s(v) for v in cross_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "wrong_verdict_rate": work.wrong_verdict_rate(),
        "calibration_ms": statistics.median(
            dt for _, dt in work.clock.samples) * 1e3,
    }


# -- traced -------------------------------------------------------------------


def install_wraps(tracer: tracing.Tracer) -> None:
    import sympy

    tracer.wrap(frames, "bracket", count="frames.bracket_calls")
    tracer.wrap(frames, "nijenhuis", count="frames.nijenhuis_calls")
    tracer.wrap(LeviCivita, "nabla", count="frames.nabla_calls")
    tracer.wrap(EndoField, "apply", count="frames.endo_apply_calls")
    for name in LINALG:
        tracer.wrap(linalg, name, count="linalg.calls", timer="linalg.ms")

    def constant(args, _):
        if args[0].is_constant():
            tracer.counts["scalars.constant"] += 1

    tracer.wrap(ScalarExpr, "__init__", count="scalars.constructed",
                after=constant)
    tracer.wrap(sympy.Poly, "gcd", count="scalars.gcd_calls",
                timer="scalars.gcd_ms")


def replay(tracer: tracing.Tracer, name: str, data: dict, seed: int) -> None:
    """``run_checks``' stage order through the public functions."""
    span = tracer.span
    with span("corpus.load_ms"):
        scenario = scenario_from_dict(data, name)
    with span("frames.presentation_ms"):
        presentation = scenario.presentation()
    with span("frames.inputs_ms"):
        probes = seeded_probe_points(presentation, seed=seed)
        alpha1, alpha2 = scenario.forms()
        phi, metric = scenario.phi_endo(), scenario.metric_field()
    try:
        with span("contact.pair_ms"), warnings.catch_warnings(record=True):
            warnings.simplefilter("always", ChartDomainWarning)
            pair = validate_contact_pair(presentation, alpha1, alpha2,
                                         *scenario.pair_type, probes=probes)
        with span("contact.structure_ms"):
            structure = validate_structure(pair, phi, probes=probes,
                                           metric=metric)
    except ValidationError:
        return
    with span("contact.metric_ms"):
        mcp = validate_metric(structure, metric, probes=probes)
    with span("contact.normality_ms"):
        normality(mcp)
    with span("contact.connection_ms"):
        check_connection_identities(mcp)
    with span("contact.curvature_ms"):
        check_curvature_identity(mcp)
    with span("contact.hermitian_ms"):
        hermitian_data(mcp)
    for sub_name in sorted(scenario.submanifolds):
        try:
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always", ChartDomainWarning)
                with span("submanifolds.subframe_ms"):
                    sub = scenario.subframe(sub_name)
                with span("submanifolds.classify_ms"):
                    profile = classify(sub, mcp)
                with span("submanifolds.shape_ms"):
                    shape_data(sub, mcp.connection)
                with span("submanifolds.restrict_ms"):
                    restrict_structure(sub, mcp, profile)
                with span("submanifolds.theorems_ms"):
                    verify_theorems(sub, mcp, profile)
        except SubframeError:
            continue


def rows_changed(work: Workload, runs: Dict[str, ScenarioRun]) -> int:
    """Rows that differ from the reference report of each fixed scenario.

    The reference was made at probe seed ``reference_seed``, and one
    witness prints a residual at float probe points.  A scenario whose
    rows in ``runs`` equal its reference rows is unchanged; any other is
    verified again at the reference seed and compared there, unless
    ``runs`` was made at that seed.  A run without rows has changed every
    row.
    """
    seed = work.answers["reference_seed"]
    changed = 0
    for name, data in work.inputs:
        reference = work.answers["scenarios"][name].get("reference_rows")
        if reference is None:
            continue
        rows = runs[name].rows or []
        if work.seed != seed and known.rows_changed(reference, rows):
            again = ScenarioRun(name)
            verify(name, data, seed, again, work.clock)
            rows = again.rows or []
        changed += known.rows_changed(reference, rows)
    return changed


def traced_round(work: Workload) -> Dict[str, float]:
    """One traced round and its per-layer values."""
    untraced = work.new_runs()
    untraced_s = sum(i.wall for i in work.verify_pass(untraced).values())

    runs = work.new_runs()
    wrapped = tracing.Tracer()
    install_wraps(wrapped)
    try:
        traced_s = sum(i.wall for i in work.verify_pass(runs).values())
    finally:
        wrapped.restore()

    tracer = tracing.Tracer()
    install_wraps(tracer)
    try:
        for name, data in work.inputs:
            replay(tracer, name, data, work.seed)
    finally:
        tracer.restore()

    cross_ms = sum(i.wall
                   for i in work.crosscheck_pass(runs).values()) * 1e3
    below = [value for run in runs.values()
             for residuals in run.residuals
             for oracle_id, value in residuals.items()
             if known.answer_for(work.answers, run.name)["oracle"][oracle_id]
             == "below"]
    changed = rows_changed(work, untraced)
    missing = sum(
        len(set(known.answer_for(work.answers, run.name)["verdicts"])
            - {row[0] for row in run.rows or []})
        for run in runs.values())
    work.tally(untraced)
    work.tally(runs)

    # spans, timers and counts that never fired are absent, i.e. zero
    values = {**tracer.spans, **tracer.ms, **tracer.counts}
    constant = values.pop("scalars.constant", 0)
    constructed = tracer.counts["scalars.constructed"]
    values["scalars.constant_share"] = \
        constant / constructed if constructed else 0.0
    values["checks.run_ms"] = traced_s * 1e3
    values["checks.rows"] = sum(len(run.rows) for run in runs.values()
                                if run.rows is not None)
    values["checks.rows_changed"] = changed
    values["checks.missing_rows"] = missing
    values["checks.wrong_verdict_rate"] = work.wrong_verdict_rate()
    values["oracle.crosscheck_ms"] = cross_ms
    values["oracle.max_residual"] = max(below, default=0.0)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.span_coverage"] = \
        sum(tracer.spans.values()) / (traced_s * 1e3)
    return values


# -- entry point -------------------------------------------------------------


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "gmpy2": "present" if importlib.util.find_spec("gmpy2")
        else "absent",
        "python-flint": "present" if importlib.util.find_spec("flint")
        else "absent",
        "SYMPY_GROUND_TYPES": os.environ.get("SYMPY_GROUND_TYPES", "unset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    package_dir = os.path.dirname(contact_pair_lab.cli.__file__)
    expected = os.path.join(ROOT, "src", "contact_pair_lab")
    if os.path.realpath(package_dir) != os.path.realpath(expected):
        print(f"error: package loaded from {package_dir}, not {expected}",
              file=sys.stderr)
        return 2

    work = Workload(args.workload, args.seed)
    lazy = work.warm_up()
    if args.trace:
        metrics = traced_round(work)
        metrics["rounds"] = 1
    else:
        metrics = measure(work)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "scenarios": [name for name, _ in work.inputs],
        "attempted": work.attempted, "failed": work.failed,
        "problems": sorted(work.problems), "defects": sorted(work.defects),
        "defective": work.defective, "lazy_modules": lazy,
        "environment": environment(), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
