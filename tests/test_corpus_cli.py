import copy
import io
import json

import pytest

from contact_pair_lab import (CHECK_IDS, CORPUS_NAMES, Finding,
                              ScenarioError, checks, corpus_build,
                              load_scenario, run_checks, save_scenario,
                              scalars, scenario_from_dict, scenario_to_dict)
from contact_pair_lab.checks import CHECKS, STAGES
from contact_pair_lab.cli import main as cli_main
from conftest import (FOUR_FIELD_GAUGE, canonical_equal, gauged_heis6,
                      scaled_metric, twisted_phi_structure)


# -- scenario construction ----------------------------------------------

def test_corpus_names_build(tmp_path):
    for name in CORPUS_NAMES:
        scenario = corpus_build(name)
        assert scenario.name == name
        assert len(scenario.coordinates) == 2 * sum(scenario.pair_type) + 2


def test_built_scenarios_do_not_share_span_lists():
    for name in ("heis6", "heis6-n4"):
        edited = corpus_build(name)
        span = edited.submanifolds[sorted(edited.submanifolds)[0]][0]
        original = span[0]
        span[0] = "1/x"
        try:
            for other in ("heis6", "heis6-leaf3", "heis6-n4"):
                for vectors in corpus_build(other).submanifolds.values():
                    assert all("1/x" not in v for v in vectors), (name, other)
        finally:
            span[0] = original


def test_darboux_params_range():
    corpus_build("darboux", (2, 1))
    with pytest.raises(ScenarioError):
        corpus_build("darboux", (0, 0))
    with pytest.raises(ScenarioError):
        corpus_build("darboux", (3, 0))
    with pytest.raises(ScenarioError):
        corpus_build("unknown-scenario")
    with pytest.raises(ScenarioError):
        corpus_build("heis6", (1, 1))


# -- JSON round trip -----------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    for name, params in (("darboux", (1, 1)), ("heis6", None),
                         ("darboux-J-noninvariant", None)):
        scenario = corpus_build(name, params)
        path = tmp_path / f"{name}.json"
        save_scenario(scenario, str(path))
        loaded = load_scenario(str(path))
        assert loaded.name == name
        assert canonical_equal(scenario, loaded)


def test_hand_written_file_matches_builder(tmp_path):
    scenario = corpus_build("heis6")
    data = scenario_to_dict(scenario)
    # rewrite a few expressions in equivalent but different text
    data["alpha1"][0] = "-2*y/2"
    data["metric"][0][0] = "2/4"
    data["phi"][1][0] = "0 - 1"
    rebuilt = scenario_from_dict(data, "heis6")
    assert canonical_equal(scenario, rebuilt)


def test_schema_errors_are_path_addressed():
    scenario = corpus_build("heis6")
    good = scenario_to_dict(scenario)

    data = copy.deepcopy(good)
    data["frame"] = data["frame"][:5]
    with pytest.raises(ScenarioError, match="frame"):
        scenario_from_dict(data)

    data = copy.deepcopy(good)
    del data["alpha1"]
    with pytest.raises(ScenarioError, match="alpha1"):
        scenario_from_dict(data)

    data = copy.deepcopy(good)
    data["base_point"]["x"] = "one half"
    with pytest.raises(ScenarioError, match="base_point.x"):
        scenario_from_dict(data)

    data = copy.deepcopy(good)
    data["type"] = [3, 0]
    with pytest.raises(ScenarioError, match="type"):
        scenario_from_dict(data)

    # 2*(-1) + 2*3 + 2 == 6, but a type has no negative entry
    data = copy.deepcopy(good)
    data["type"] = [-1, 3]
    with pytest.raises(ScenarioError,
                       match=r"^type: type \(-1,3\) has a negative entry$"):
        scenario_from_dict(data)

    # JSON booleans are not integers, though 2*True + 2*True + 2 == 6
    data = copy.deepcopy(good)
    data["type"] = [True, True]
    with pytest.raises(ScenarioError, match=r"type: expected \[h, k\]"):
        scenario_from_dict(data)

    data = copy.deepcopy(good)
    data["expectations"] = {"pair.valid": "maybe"}
    with pytest.raises(ScenarioError, match="expectations.pair.valid"):
        scenario_from_dict(data)

    data = copy.deepcopy(good)
    data["metric"][2][2] = "1 +"
    with pytest.raises(ScenarioError, match=r"metric\[2\]\[2\]"):
        scenario_from_dict(data)


# -- check runner ---------------------------------------------------------

def _strip_ms(report_dict):
    cleaned = copy.deepcopy(report_dict)
    for row in cleaned["checks"]:
        row.pop("ms")
    return cleaned


def test_all_corpus_scenarios_pass():
    for name in CORPUS_NAMES:
        report = run_checks(corpus_build(name))
        failed = [row.id for row in report.rows if row.verdict == "fail"]
        assert report.overall == "pass", (name, failed)


def test_a_four_field_gauge_keeps_the_heis6_verdicts(monkeypatch):
    general = []
    prs_gcd = scalars._prs_gcd

    def counted(a, b):
        general.append((a, b))
        return prs_gcd(a, b)

    monkeypatch.setattr(scalars, "_prs_gcd", counted)
    gauged = run_checks(gauged_heis6(corpus_build("heis6"), FOUR_FIELD_GAUGE))
    assert general, "no gcd reached the general algorithm"
    heis6 = {row.id: row.verdict
             for row in run_checks(corpus_build("heis6")).rows
             if not row.id.startswith("submanifold.")}
    assert {row.id: row.verdict for row in gauged.rows} == heis6


def test_expected_failures_flip_polarity():
    scenario = corpus_build("heis6-n4")
    report = run_checks(scenario)
    key = "submanifold.heis6-n4.induced-pair-is-a-contact-pair"
    row = next(r for r in report.rows if r.id == key)
    assert row.verdict == "pass"
    assert "expected failure" in row.witness

    # drop the expectation: the same raw failure now fails the report
    scenario.expectations.pop(key)
    report = run_checks(scenario)
    row = next(r for r in report.rows if r.id == key)
    assert row.verdict == "fail"
    assert report.overall == "fail"


def test_unmet_expected_failure_fails():
    scenario = corpus_build("heis6-n4")
    scenario.expectations["pair.valid"] = "fail"
    report = run_checks(scenario, selection=("pair",))
    row = next(r for r in report.rows if r.id == "pair.valid")
    assert row.verdict == "fail"
    assert "expected a failure" in row.witness


def test_selection_resolves_dependencies():
    report = run_checks(corpus_build("darboux"), selection=("normality",))
    ids = [row.id for row in report.rows]
    assert "pair.valid" in ids and "normality.N1" in ids
    assert not any(i.startswith("hermitian.") for i in ids)
    with pytest.raises(ValueError):
        run_checks(corpus_build("darboux"), selection=("bogus",))


def test_broken_pair_short_circuits_dependents():
    scenario = corpus_build("heis6")
    scenario.alpha2 = list(scenario.alpha1)  # same form twice: no volume
    scenario._cache.clear()
    report = run_checks(scenario)
    assert report.rows[0].id == "pair.valid"
    assert report.rows[0].verdict == "fail"
    assert all(row.verdict == "skipped" for row in report.rows[1:])
    assert report.overall == "fail"


def test_reports_are_deterministic_modulo_timing():
    first = run_checks(corpus_build("heis6"), seed=1)
    second = run_checks(corpus_build("heis6"), seed=1)
    assert _strip_ms(first.to_dict()) == _strip_ms(second.to_dict())


def test_check_id_registry_covers_the_theorems():
    """Every headline construction and theorem must be exercised by at
    least one corpus check id."""
    seen = set()
    for name in CORPUS_NAMES:
        for row in run_checks(corpus_build(name)).rows:
            seen.add(row.id)
    required = set(CHECK_IDS) | {
        # Sasakian leaf (span{X1,X2,X3}) and its minimality
        "submanifold.factor.induced-structure-satisfies-the-sasakian"
        "-covariant-identity",
        "submanifold.factor.mean-curvature-vanishes",
        # diagonal 3-leaf: constant angle and minimality equivalence
        "submanifold.heis6-leaf3.reeb-angle-is-constant-along-the-vertical"
        "-tangent-direction",
        "submanifold.heis6-leaf3.minimality-is-equivalent-to-angle"
        "-constancy",
        # 4-dimensional group leaf: complex shape identity, induced-pair
        # obstruction, minimality from Reeb tangency
        "submanifold.heis6-n4.complex-shape-identity-on-span-fields",
        "submanifold.heis6-n4.induced-pair-is-a-contact-pair",
        "submanifold.heis6-n4.minimality-is-equivalent-to-reeb-tangency",
        # non-invariant graph example: negative direction
        "submanifold.darboux-J-noninvariant.minimal",
        "submanifold.darboux-J-noninvariant.invariant-J",
    }
    missing = required - seen
    assert not missing, sorted(missing)


# -- CLI -------------------------------------------------------------------

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_cli_corpus_list():
    code, out, _ = _run_cli(["corpus", "list"])
    assert code == 0
    assert out.split() == list(CORPUS_NAMES)


def test_cli_corpus_run_json():
    code, out, _ = _run_cli(["corpus", "run", "darboux", "--checks",
                             "normality", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["overall"] == "pass"
    assert report["seed"] == 1
    ids = [row["id"] for row in report["checks"]]
    assert "normality.N1" in ids
    verdicts = {row["id"]: row["verdict"] for row in report["checks"]}
    assert verdicts["normality.N1"] == "pass"


def test_cli_exit_codes(tmp_path):
    code, _, _ = _run_cli(["corpus", "run", "heis6"])
    assert code == 0

    broken = tmp_path / "broken.json"
    broken.write_text('{"coordinates": ["x"]}')
    code, _, err = _run_cli(["verify", "--input", str(broken)])
    assert code == 2 and err

    code, _, err = _run_cli(["corpus", "run", "darboux", "--checks", "huh"])
    assert code == 2 and "huh" in err

    scenario = corpus_build("heis6-n4")
    scenario.expectations.clear()
    path = tmp_path / "failing.json"
    save_scenario(scenario, str(path))
    code, out, _ = _run_cli(["verify", "--input", str(path)])
    assert code == 1


def test_cli_verify_and_submanifold(tmp_path):
    path = tmp_path / "heis6.json"
    save_scenario(corpus_build("heis6"), str(path))
    code, out, _ = _run_cli(["verify", "--input", str(path)])
    assert code == 0 and "overall: pass" in out

    code, out, _ = _run_cli(["submanifold", "--input", str(path),
                             "--name", "factor", "--theorems",
                             "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["submanifold"] == "factor"
    ids = [row["id"] for row in report["checks"]]
    assert "mean-curvature-vanishes" in ids

    code, _, err = _run_cli(["submanifold", "--input", str(path),
                             "--name", "nope"])
    assert code == 2 and "nope" in err


def test_cli_determinism(tmp_path):
    runs = []
    for _ in range(2):
        code, out, _ = _run_cli(["corpus", "run", "heis6",
                                 "--format", "json", "--seed", "1"])
        assert code == 0
        runs.append(_strip_ms(json.loads(out)))
    assert runs[0] == runs[1]


# -- check registry ---------------------------------------------------------

def _registry_controls():
    for name in CORPUS_NAMES:
        yield name, corpus_build(name)
    twisted = corpus_build("heis6")
    twisted._cache["phi"] = twisted_phi_structure(twisted)
    yield "heis6 twisted phi", twisted
    scaled = corpus_build("heis6-n4")
    scaled._cache["metric"] = scaled_metric(scaled)
    yield "heis6-n4 scaled metric", scaled
    broken = corpus_build("heis6")
    broken.alpha2 = list(broken.alpha1)
    yield "heis6 broken pair", broken


# the stages each selection runs first; every later stage needs the metric
_NEEDS = {"pair": (), "structure": ("pair",),
          "metric": ("pair", "structure")}
_NEEDS_METRIC = ("pair", "structure", "metric")


def test_report_ids_are_the_registry_ids():
    fixed = [check.id for check in CHECKS if check.stage == "submanifolds"]
    for label, scenario in _registry_controls():
        for selection in STAGES + ("all",):
            stages = (set(STAGES) if selection == "all" else
                      {selection, *_NEEDS.get(selection, _NEEDS_METRIC)})
            rows = run_checks(scenario, [selection]).rows
            ids = [row.id for row in rows]
            assert len(ids) == len(set(ids)), (label, selection)
            assert [i for i in ids if not i.startswith("submanifold.")] \
                == [i for i in CHECK_IDS
                    if i.split(".")[0] in stages], (label, selection)
            if "submanifolds" not in stages:
                assert not any(i.startswith("submanifold.") for i in ids)
                continue
            for name in scenario.submanifolds:
                mine = [i for i in ids if i.startswith(f"submanifold.{name}.")]
                if rows[0].verdict != "fail":
                    assert mine[:len(fixed)] == \
                        [i.format(name) for i in fixed], (label, name)
                else:
                    assert mine == [f"submanifold.{name}.analysis"]


def test_rows_keep_their_own_witnesses():
    scaled = corpus_build("heis6-n4")
    scaled._cache["metric"] = scaled_metric(scaled)
    rows = {row.id: row for row in run_checks(scaled, ["normality"]).rows}
    associated = rows["metric.associated"]
    assert associated.verdict == "fail" and associated.witness
    for check_id in ("normality.N1", "normality.NJ", "normality.NT"):
        assert (rows[check_id].verdict, rows[check_id].witness) == \
            ("pass", ""), check_id
    assert rows["normality.normal_mcp"].verdict == "fail"
    assert rows["normality.normal_mcp"].witness == associated.witness

    twisted = corpus_build("heis6")
    twisted._cache["phi"] = twisted_phi_structure(twisted)
    rows = {row.id: row for row in run_checks(twisted, ["normality"]).rows}
    for check_id, head in (("normality.N1", "N1("), ("normality.NJ", "N_J("),
                           ("normality.NT", "N_T(")):
        assert rows[check_id].verdict == "fail"
        assert rows[check_id].witness.startswith(head), check_id


def test_duplicate_row_ids_raise(monkeypatch):
    monkeypatch.setattr(
        checks, "verify_theorems",
        lambda sub, mcp, profile: [Finding("same condition", True),
                                   Finding("same condition", False)])
    with pytest.raises(ValueError,
                       match="submanifold.factor.same-condition"):
        run_checks(corpus_build("heis6"), ["submanifolds"])


def test_cli_submanifold_rows_are_run_checks_rows(tmp_path):
    scenario = corpus_build("heis6")
    path = tmp_path / "heis6.json"
    save_scenario(scenario, str(path))
    prefix = "submanifold.factor."
    expected = [(row.id.removeprefix(prefix), row.verdict, row.witness)
                for row in run_checks(scenario, ["submanifolds"]).rows
                if not row.id.startswith("submanifold.")
                or row.id.startswith(prefix)]
    for flags in ([], ["--theorems"]):
        code, out, _ = _run_cli(["submanifold", "--input", str(path),
                                 "--name", "factor", "--format", "json"]
                                + flags)
        assert code == 0
        rows = [(row["id"], row["verdict"], row["witness"])
                for row in json.loads(out)["checks"]]
        assert rows == expected


def test_cli_submanifold_exit_codes(tmp_path):
    scenario = corpus_build("heis6")
    scenario.alpha2 = list(scenario.alpha1)
    path = tmp_path / "broken.json"
    save_scenario(scenario, str(path))
    # phi with a pole at x = -5/9, the first probe point at seed 1
    pole = corpus_build("heis6")
    pole.phi[0][0] = "1/(x + 5/9)"
    save_scenario(pole, str(tmp_path / "pole.json"))
    # a span with a pole at the base point x = 0 (a new list, as builds
    # share the span lists)
    span_pole = corpus_build("heis6")
    span_pole.submanifolds["factor"] = [["1/x", "0", "0", "0", "0", "0"],
                                        *span_pole.submanifolds["factor"][1:]]
    save_scenario(span_pole, str(tmp_path / "span-pole.json"))
    for broken in (path, tmp_path / "pole.json",
                   tmp_path / "span-pole.json"):
        code, out, err = _run_cli(["verify", "--input", str(broken),
                                   "--seed", "1"])
        assert code == 1 and not err
    code, out, err = _run_cli(["submanifold", "--input", str(path),
                               "--name", "factor", "--format", "json"])
    assert code == 1 and not err
    verdicts = {row["id"]: row["verdict"]
                for row in json.loads(out)["checks"]}
    assert verdicts["pair.valid"] == "fail"
    assert verdicts["analysis"] == "skipped"

    code, _, err = _run_cli(["submanifold", "--input",
                             str(tmp_path / "absent.json"),
                             "--name", "factor"])
    assert code == 2 and err
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"coordinates": ["x"]}')
    code, _, err = _run_cli(["submanifold", "--input", str(invalid),
                             "--name", "factor"])
    assert code == 2 and err


@pytest.mark.parametrize("field, i, j, text, message", [
    ("metric", 0, 0, "-1/2", "not positive definite at the base point"),
    ("metric", 0, 0, "0", "singular over the scalar field"),
    ("metric", 0, 1, "1/8", "must be symmetric"),
    ("frame", 0, 0, "x", "singular at the base point"),
])
def test_cli_bad_metric_or_frame_is_an_input_error(tmp_path, field, i, j,
                                                    text, message):
    scenario = corpus_build("heis6")
    getattr(scenario, field)[i][j] = text
    path = tmp_path / "bad.json"
    save_scenario(scenario, str(path))
    for argv in (["verify", "--input", str(path)],
                 ["submanifold", "--input", str(path), "--name", "factor"]):
        code, out, err = _run_cli(argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


def test_the_structure_stage_does_not_read_the_metric(tmp_path):
    # no structure row reads the metric, so an asymmetric Gram matrix stays
    # an input error only for the selections that reach the metric stage
    scenario = corpus_build("heis6")
    scenario.metric[0][1] = "1/8"
    path = tmp_path / "asymmetric.json"
    save_scenario(scenario, str(path))
    argv = ["verify", "--input", str(path), "--format", "json"]
    code, out, err = _run_cli(argv + ["--checks", "structure"])
    assert code == 0 and err == ""
    verdicts = {row["id"]: row["verdict"]
                for row in json.loads(out)["checks"]}
    assert verdicts and set(verdicts.values()) == {"pass"}
    assert {i.split(".")[0] for i in verdicts} == {"pair", "structure"}
    for selection in (["--checks", "metric"], []):
        code, out, err = _run_cli(argv + selection)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "must be symmetric" in err
