"""The cancellation table of one verification run: ``run_checks`` opens
it for the run alone, its counters reach the report, and concurrent runs
never share one."""

import collections
import io
import json
import os
import sys
import threading

import pytest

from contact_pair_lab import (checks, corpus_build, run_checks, scalars,
                              scenario_from_dict)
from contact_pair_lab.cli import main as cli_main
from conftest import (FOUR_FIELD_GAUGE, gauged_heis6,
                      twisted_phi_structure, volume_probe_heis6)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "report_rows.json")


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's input builder, which draws heis6-gauged."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import workloads
    return workloads


def _inputs(workloads):
    """The benchmark inputs by name, heis6-gauged at gauge seed 1."""
    return {name: data for workload in workloads.WORKLOADS
            for name, data in workloads.workload_inputs(workload, 1)}


def _gcd_pairs(monkeypatch):
    """Every nonconstant operand pair that reaches ``_terms_gcd``."""
    pairs = []
    gcd = scalars._terms_gcd

    def spy(a, b):
        if not (scalars._is_constant(a) or scalars._is_constant(b)):
            pairs.append((frozenset(a.items()), frozenset(b.items())))
        return gcd(a, b)

    monkeypatch.setattr(scalars, "_terms_gcd", spy)
    return pairs


def _count_calls(monkeypatch, name):
    calls = collections.Counter()
    original = getattr(scalars, name)

    def spy(*args):
        calls[name] += 1
        return original(*args)

    monkeypatch.setattr(scalars, name, spy)
    return calls


def test_a_run_reports_its_counters_and_repeats_them(workloads, monkeypatch):
    data = _inputs(workloads)["heis6-gauged"]
    run_checks(scenario_from_dict(data))  # warm
    first_scenario = scenario_from_dict(data)
    second_scenario = scenario_from_dict(data)
    pairs = _gcd_pairs(monkeypatch)
    divisions = _count_calls(monkeypatch, "_exact_div")
    first = run_checks(first_scenario)
    first_pairs, first_divisions = list(pairs), divisions["_exact_div"]
    del pairs[:]
    second = run_checks(second_scenario)
    assert list(first.counters) == list(scalars.COUNTERS)
    # nothing is carried from one run to the next
    assert second.counters == first.counters
    assert sorted(pairs) == sorted(first_pairs)
    # within a run each distinct nonconstant pair is reduced once
    assert len(first_pairs) == len(set(first_pairs))
    gcds = sum(first.counters[name] for name in scalars.COUNTERS
               if name.startswith("gcd."))
    assert gcds <= 120 and first_divisions <= 200
    assert first.counters["cancel.from_table"] > \
        first.counters["cancel.asked"] / 2
    assert "counters" not in first.to_dict()


def test_gcd_counts_of_the_benchmark_inputs(workloads, monkeypatch):
    calls = _count_calls(monkeypatch, "_terms_gcd")
    for name, data in _inputs(workloads).items():
        scenario = scenario_from_dict(data)
        calls.clear()
        counters = run_checks(scenario).counters
        gcds = sum(counters[key] for key in scalars.COUNTERS
                   if key.startswith("gcd."))
        assert gcds == calls["_terms_gcd"], name
        if name == "darboux-J-noninvariant":
            assert gcds <= 25
        elif name != "heis6-gauged":
            # constants only
            assert gcds == 0 and counters["cancel.asked"] == 0, name


def test_a_cancellation_freezes_its_operands_once(monkeypatch):
    """On a table miss the cancellation's key is also its gcd's key, so
    each operand is frozen once; a hit freezes them once to look up."""
    frozen = []

    def counted(items):
        frozen.append(items)
        return frozenset(items)

    monkeypatch.setattr(scalars, "frozenset", counted, raising=False)
    a, b = (scalars.parse_expr(text, ["x"]).num
            for text in ("x^2 - 1", "x - 1"))
    with scalars.cancellation_table() as table:
        for expected in (2, 4):
            assert scalars._cancel(a, b) == ({(1,): 1, (0,): 1}, {(0,): 1})
            assert len(frozen) == expected
    assert table.counters["cancel.asked"] == 2
    assert table.counters["cancel.from_table"] == 1


def test_no_table_outlives_a_run(monkeypatch):
    assert scalars._TABLE.get() is None
    run_checks(corpus_build("darboux-J-noninvariant"))
    assert scalars._TABLE.get() is None
    seen = []

    def failing(mcp):
        seen.append(scalars._TABLE.get())
        raise RuntimeError("injected")

    monkeypatch.setattr(checks, "normality", failing)
    with pytest.raises(RuntimeError, match="injected"):
        run_checks(corpus_build("heis6"))
    assert seen and seen[0] is not None
    assert scalars._TABLE.get() is None


def _twisted():
    scenario = corpus_build("heis6")
    scenario._cache["phi"] = twisted_phi_structure(scenario)
    return scenario


def _gauged():
    return gauged_heis6(corpus_build("heis6"), FOUR_FIELD_GAUGE)


def _rows(report):
    return [[r.id, r.verdict, r.witness] for r in report.rows]


def test_concurrent_runs_keep_their_own_tables():
    alone = {"gauged": run_checks(_gauged()),
             "twisted": run_checks(_twisted()),
             "volume-probe": run_checks(volume_probe_heis6())}
    scenarios = {"gauged": _gauged(), "twisted": _twisted(),
                 "gauged-again": _gauged(),
                 "volume-probe": volume_probe_heis6()}
    start = threading.Barrier(len(scenarios))
    reports, errors = {}, []

    def run(label):
        try:
            start.wait()
            reports[label] = run_checks(scenarios[label])
        except Exception as exc:  # reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(label,))
               for label in scenarios]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the runs interleave finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert _rows(reports["twisted"]) == golden["heis6-twisted-phi"]["1"]
    # the gauge keeps heis6's verdicts; a witness prints frame components
    heis6 = [row[:2] for row in golden["heis6"]["1"]
             if not row[0].startswith("submanifold.")]
    assert [row[:2] for row in _rows(alone["gauged"])] == heis6
    for label in ("gauged", "gauged-again"):
        assert _rows(reports[label]) == _rows(alone["gauged"])
        assert reports[label].counters == alone["gauged"].counters
    assert reports["twisted"].counters == alone["twisted"].counters
    # the volume form's probe stays on its own run's pair row
    assert alone["volume-probe"].rows[0].verdict == "warn"
    assert _rows(reports["volume-probe"]) == _rows(alone["volume-probe"])
    assert not any(row.verdict == "warn" for label in ("gauged", "twisted",
                                                       "gauged-again")
                   for row in reports[label].rows)


def test_stats_follow_the_rows():
    out, err = io.StringIO(), io.StringIO()
    assert cli_main(["corpus", "run", "darboux-J-noninvariant", "--stats"],
                    out=out, err=err) == 0
    lines = out.getvalue().splitlines()
    at = lines.index("stats: darboux-J-noninvariant")
    assert lines[at - 1] == "overall: pass"
    assert [line.split()[0] for line in lines[at + 1:]] == \
        list(scalars.COUNTERS)
    out, err = io.StringIO(), io.StringIO()
    assert cli_main(["corpus", "run", "heis6", "--format", "json",
                     "--stats"], out=out, err=err) == 0
    assert json.loads(out.getvalue())["overall"] == "pass"
    assert err.getvalue().startswith("stats: heis6\n")
