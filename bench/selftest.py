"""Self-tests of the benchmark, outside the package's test suite.

    PYTHONPATH=src python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import sys
import time

import pytest
import sympy

import child
import known
import pace
import run
import workloads
from contact_pair_lab import run_checks, scenario_from_dict


def _verdicts(data: dict, name: str, seed: int):
    report = run_checks(scenario_from_dict(data, name), seed=seed)
    return [(row.id, row.verdict) for row in report.rows]


def test_gauge_preserves_verdicts_on_a_cheap_scenario():
    base = workloads.load_base()["darboux-J-noninvariant"]
    expected = _verdicts(base, "plain", 1)
    for seed in (1, 2):
        rng = random.Random(seed)
        draw = {a: (rng.choice(("1/4", "1/2", "1", "2")), t)
                for a, t in ((0, "y1"), (1, "x1"))}
        gauged = workloads.gauge(base, draw)
        assert gauged["frame"] != base["frame"]
        assert _verdicts(gauged, "gauged", seed) == expected


def test_gauged_heis6_depends_on_the_seed_only():
    draws = {seed: workloads.workload_inputs("nonconstant", seed)[0][1]
             for seed in (1, 2, 3)}
    assert draws[1] == workloads.workload_inputs("nonconstant", 1)[0][1]
    assert len({json.dumps(d, sort_keys=True) for d in draws.values()}) > 1


def _heis6_rows():
    answers = known.load_known()
    return answers, [tuple(r) for r in
                     answers["scenarios"]["heis6"]["reference_rows"]]


def test_known_answers_accept_the_reference_report():
    answers, rows = _heis6_rows()
    answer = known.answer_for(answers, "heis6-gauged")
    assert known.verdict_problems(answer, rows) == []
    assert known.rows_changed(rows, rows) == 0


def test_known_answers_flag_a_dropped_row():
    answers, rows = _heis6_rows()
    answer = known.answer_for(answers, "heis6")
    dropped = [r for r in rows if r[0] != "connection.reeb_killing"]
    assert known.verdict_problems(answer, dropped) == [
        "connection.reeb_killing: row missing"]
    assert known.rows_changed(rows, dropped) == 1


def test_known_missing_rows_are_defects_and_other_missing_rows_fail():
    answers = known.load_known()
    answer = answers["scenarios"]["heis6-twisted"]
    rows = [tuple(r) for r in answer["reference_rows"]]
    ids = {r[0] for r in rows}
    assert set(answer["known_missing"]) == set(answer["verdicts"]) - ids
    assert known.verdict_problems(answer, rows) == []
    assert len(known.known_missing(answer, rows)) == 2
    dropped = [r for r in rows if r[0] != "normality.N1"]
    assert known.verdict_problems(answer, dropped) == [
        "normality.N1: row missing"]
    emitted = rows + [("connection.h_vanishes", "skipped", ""),
                      ("connection.reeb_killing", "fail", "")]
    assert known.known_missing(answer, emitted) == []
    assert known.verdict_problems(answer, emitted) == [
        "connection.reeb_killing: verdict fail, expected ['skipped', 'pass']"]


def test_known_answers_flag_a_flipped_verdict():
    answers, rows = _heis6_rows()
    answer = known.answer_for(answers, "heis6")
    flipped = [(i, "fail" if i == "normality.N1" else v, w)
               for i, v, w in rows]
    assert known.verdict_problems(answer, flipped) == [
        "normality.N1: verdict fail, expected pass"]
    assert known.rows_changed(rows, flipped) == 1


def test_known_answers_flag_a_residual_on_the_wrong_side():
    answers = known.load_known()
    answer = known.answer_for(answers, "heis6-twisted")
    residuals = {oid: (1.0 if side == "above" else 1e-9)
                 for oid, side in answer["oracle"].items()}
    assert known.residual_problems(answer, residuals, 1e-6) == []
    residuals["normality.N1"] = 1e-9
    assert len(known.residual_problems(answer, residuals, 1e-6)) == 1


def _package_bindings():
    bound = {}
    for key, module in list(sys.modules.items()):
        if key.startswith("contact_pair_lab"):
            for attr, value in vars(module).items():
                if not attr.startswith("__"):
                    bound[(key, attr)] = value
    for cls in (child.LeviCivita, child.EndoField, child.ScalarExpr,
                sympy.Poly):
        for attr, value in vars(cls).items():
            bound[(cls.__qualname__, attr)] = value
    return bound


def test_wrapped_callables_are_restored_after_the_traced_run():
    work = child.Workload("corpus", 1)
    work.inputs = [pair for pair in work.inputs
                   if pair[0] == "darboux-J-noninvariant"]
    before = _package_bindings()
    values = child.traced_round(work)
    # this scenario reaches every stage, so every declared metric fires
    assert set(values) == set(run.declared_metrics(1))
    assert values["frames.bracket_calls"] > 0
    assert values["scalars.gcd_calls"] > 0
    assert values["checks.rows_changed"] == 0
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_pace_leaves_out_its_own_time_and_scales_by_the_loop_around():
    clock = pace.Pace()
    with clock:
        mark = clock.mark()
        deadline = time.perf_counter() + 4 * pace.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
        interval = clock.since(mark)
        time.sleep(pace.WINDOW_S)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [dt for when, dt in clock.samples
              if interval.start <= when <= interval.end]
    assert len(inside) >= 2
    assert interval.wall < interval.end - interval.start - sum(inside) / 2
    around = [dt for when, dt in clock.samples
              if interval.start - pace.WINDOW_S <= when
              <= interval.end + pace.WINDOW_S]
    assert clock.scaled(interval) == pytest.approx(
        interval.wall * pace.REFERENCE_S / statistics.median(around))
