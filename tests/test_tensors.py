"""The tensors a metric contact pair builds once and every check reads:
the lowered index g(x, e_c), the orthogonal projector, the projections
P_i and F_i, the Reeb-sum curvature R(e_a, e_b) Z, nabla A as a
commutator with the connection matrices and the Nijenhuis tensors from
the nabla tables.  Each is compared with a direct reference written here
or in ``conftest``."""

import pytest

from contact_pair_lab import (CORPUS_NAMES, Subframe, corpus_build, linalg,
                              validate_metric, validate_structure)
from contact_pair_lab.contact import certify
from contact_pair_lab.frames import (VectorField, nijenhuis,
                                     orthogonal_projector)

from conftest import (build_mcp, curvature, darboux_mixed_phi,
                      darboux_skew_metric, gauged_heis6, nabla_endo_reference,
                      nijenhuis_reference, perturbed_phi_structure,
                      sample_fields, scaled_metric, skew_metric,
                      twisted_heis6, twisted_phi_structure)


def gram_loop_projection(metric, span, v):
    """g-orthogonal projection of v onto span, solved from the span's Gram
    matrix for this one field."""
    frame = metric.frame
    out = VectorField(frame, (frame.zero,) * frame.dim)
    if not span:
        return out
    gram = [[metric.pair(x, y) for y in span] for x in span]
    inverse = linalg.invert(gram)
    pairings = [metric.pair(v, s) for s in span]
    for b, field in enumerate(span):
        coeff = sum((pairings[a] * inverse[a][b] for a in range(len(span))),
                    frame.zero)
        out = out + field.scale(coeff)
    return out


def _cases(scenario):
    """(metric, spans) on heis6 and on its gauged frame."""
    out = []
    for metric in (scenario.metric_field(),
                   gauged_heis6(scenario).metric_field()):
        pres = metric.frame
        spans = [
            [],
            [pres.frame_field(2)],
            list(sample_fields(pres)),
            [pres.frame_field(0), pres.vector(["0", "1", "x", "0", "0", "0"]),
             pres.vector(["0", "0", "0", "1", "y", "z"])],
        ]
        out.append((metric, spans))
    return out


def _sample_fields(presentation):
    return [presentation.frame_field(a) for a in range(presentation.dim)] + [
        presentation.vector(["x", "1", "0", "y*z", "0", "1 + u^2"])]


def _projector(metric, span):
    if not span:
        return orthogonal_projector(metric, span, [])
    gram = [[metric.pair(x, y) for y in span] for x in span]
    return orthogonal_projector(metric, span, linalg.invert(gram))


def test_orthogonal_projector_matches_the_gram_loop(heis6_scenario):
    for metric, spans in _cases(heis6_scenario):
        for span in spans:
            p = _projector(metric, span)
            for a in range(metric.frame.dim):
                assert p.column(a) == gram_loop_projection(
                    metric, span, metric.frame.frame_field(a))
            for v in _sample_fields(metric.frame):
                assert p.apply(v) == gram_loop_projection(metric, span, v)


def test_lower_and_pair_match_the_index_sums(heis6_scenario):
    """lower(x)[c] = sum_a x^a g_ac and pair(x, y) = sum_ab x^a g_ab y^b,
    on an off-diagonal Gram matrix and on a non-constant one."""
    for metric in (skew_metric(heis6_scenario),
                   gauged_heis6(heis6_scenario).metric_field()):
        frame, g = metric.frame, metric.gram
        n = frame.dim
        fields = list(sample_fields(frame)) + [frame.frame_field(a)
                                               for a in range(n)]
        for x in fields:
            assert metric.lower(x) == [
                sum((x.components[a] * g[a][c] for a in range(n)), frame.zero)
                for c in range(n)]
            for y in fields:
                assert metric.pair(x, y) == sum(
                    (x.components[a] * g[a][b] * y.components[b]
                     for a in range(n) for b in range(n)), frame.zero)


def test_orthogonal_projector_is_idempotent_and_self_adjoint(heis6_scenario):
    for metric, spans in _cases(heis6_scenario):
        frame = metric.frame
        for span in spans:
            p = _projector(metric, span)
            assert p.compose(p) == p
            for a in range(frame.dim):
                for b in range(frame.dim):
                    assert metric.pair(p.column(a), frame.frame_field(b)) == \
                        metric.pair(frame.frame_field(a), p.column(b))


def test_subframe_tangent_matches_the_gram_loop(heis6_scenario):
    for metric, _ in _cases(heis6_scenario):
        pres = metric.frame
        # involutive spans: a line, and the first Heisenberg factor
        for span in ([pres.vector(["0", "0", "1 + x^2", "0", "0", "y"])],
                     [pres.frame_field(0), pres.frame_field(1),
                      pres.frame_field(2)]):
            sub = Subframe(pres, span, metric)
            for v in _sample_fields(metric.frame):
                assert sub.tangent(v) == gram_loop_projection(metric, span, v)
    for name in sorted(heis6_scenario.submanifolds):
        sub = heis6_scenario.subframe(name)
        for v in _sample_fields(sub.ambient):
            assert sub.tangent(v) == gram_loop_projection(sub.metric,
                                                          sub.fields, v)


@pytest.mark.parametrize("name", CORPUS_NAMES + ("heis6-gauged",))
def test_projections_of_the_metric_contact_pair(name):
    scenario = gauged_heis6(corpus_build("heis6")) \
        if name == "heis6-gauged" else corpus_build(name)
    mcp = build_mcp(scenario)
    pair, g = mcp.pair, mcp.metric
    n = mcp.presentation.dim
    for i, (alpha, target) in enumerate(((pair.alpha1, "H2"),
                                         (pair.alpha2, "H1"))):
        span = pair.splitting[target]
        for a in range(n):
            e_a = mcp.presentation.frame_field(a)
            assert mcp.pi[i].column(a) == gram_loop_projection(g, span, e_a)
            # alpha_i o F_i = alpha_i
            folded = mcp.foliation[i].column(a)
            value = sum((alpha.get((c,)) * folded.components[c]
                         for c in range(n)), mcp.presentation.zero)
            assert value == alpha.get((a,))


def _curvature_cases(scenario):
    mcp = build_mcp(scenario)
    yield "heis6", mcp
    structure = validate_structure(mcp.pair, twisted_phi_structure(scenario),
                                   metric=scenario.metric_field())
    yield "twisted phi", validate_metric(structure, scenario.metric_field())
    metric = scaled_metric(scenario)
    structure = validate_structure(mcp.pair, scenario.phi_endo(),
                                   metric=metric)
    yield "scaled metric", validate_metric(structure, metric)
    yield "gauged frame", build_mcp(gauged_heis6(scenario))


def test_reeb_curvature_matches_the_connection(heis6_scenario):
    for label, mcp in _curvature_cases(heis6_scenario):
        frame, conn = mcp.presentation, mcp.connection
        z = mcp.pair.reeb_sum
        for a in range(frame.dim):
            assert mcp.nabla_reeb.column(a) == conn.nabla(
                frame.frame_field(a), z)
            assert mcp.reeb_curvature[a][a].is_zero()
            for b in range(a + 1, frame.dim):
                expected = curvature(conn, frame.frame_field(a),
                                     frame.frame_field(b), z)
                assert mcp.reeb_curvature[a][b] == expected, (label, a, b)
                assert mcp.reeb_curvature[b][a] == -expected, (label, a, b)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_unreported_findings_hold_on_the_corpus(name):
    """The structure findings have no report row; they must hold on every
    corpus scenario, and so must the implication "associated implies
    compatible", which is not certified."""
    mcp = build_mcp(corpus_build(name))
    findings = mcp.structure.findings
    conditions = {f.condition for f in findings}
    assert "decomposability matches orthogonality of the characteristic " \
        "foliations" in conditions
    assert [f for f in findings if not f.ok] == []
    assert mcp.compatible.ok or not mcp.associated.ok


# the scenarios on which nabla A and N_A are compared with the bracket
# references: the corpus, both darboux-scaling inputs, heis6 in a gauge
# (non-constant entries of A, so e_a(A) is not zero), heis6 with a twisted
# phi, and three controls that fail (N_A nonzero or the metric changed)
TENSOR_CONTROLS = {
    "darboux-2-2-mixed-phi": ("phi", darboux_mixed_phi),
    "darboux-2-2-skew-metric": ("metric", darboux_skew_metric),
    "heis6-perturbed-phi": ("phi", perturbed_phi_structure),
}
TENSOR_CASES = CORPUS_NAMES + (
    "darboux-2-1", "darboux-2-2", "heis6-gauged", "heis6-twisted",
    *TENSOR_CONTROLS)


def tensor_scenario(label):
    if label in TENSOR_CONTROLS:
        key, make = TENSOR_CONTROLS[label]
        scenario = corpus_build(*(("heis6",) if label.startswith("heis6")
                                  else ("darboux", (2, 2))))
        scenario._cache[key] = make(scenario)
        return scenario
    if label in ("darboux-2-1", "darboux-2-2"):
        return corpus_build("darboux", (2, int(label[-1])))
    if label == "heis6-gauged":
        return gauged_heis6(corpus_build("heis6"))
    if label == "heis6-twisted":
        return twisted_heis6()
    return corpus_build(label)


@pytest.mark.parametrize("label", TENSOR_CASES)
def test_nabla_and_nijenhuis_match_the_bracket_references(label):
    mcp = build_mcp(tensor_scenario(label))
    conn, structure = mcp.connection, mcp.structure
    n = mcp.presentation.dim
    tensors = {}
    for name, endo in (("phi", structure.phi), ("J", structure.j),
                       ("T", structure.t)):
        nabla = [conn.nabla_endo(a, endo) for a in range(n)]
        assert nabla == [nabla_endo_reference(conn, a, endo)
                         for a in range(n)], name
        tensors[name] = nijenhuis_reference(endo)
        assert nijenhuis(endo, nabla) == tensors[name], name
    assert mcp.nabla_phi == [conn.nabla_endo(a, structure.phi)
                             for a in range(n)]
    assert mcp.nabla_j == [conn.nabla_endo(a, structure.j) for a in range(n)]

    # the report reads N_T from nabla T = 2 nabla phi - nabla J
    pair = mcp.pair
    zero = VectorField.zero(mcp.presentation)
    n1 = certify("normality tensor vanishes", (
        (f"N1(e_{a}, e_{b})",
         value + (pair.z1.scale(pair.d_alpha1.get((a, b)))
                  + pair.z2.scale(pair.d_alpha2.get((a, b)))), zero)
        for (a, b), value in tensors["phi"].items()))
    nj, nt = (certify(f"{name} integrable", (
        (f"N_{name}(e_{a}, e_{b})", value, zero)
        for (a, b), value in tensors[name].items())) for name in ("J", "T"))
    report = mcp.normality
    assert (report.n1, report.nj, report.nt) == (n1, nj, nt)
    # the twisted phi breaks all three, the cross-factor phi N_J and N_T
    if label == "heis6-twisted":
        assert not (n1.ok or nj.ok or nt.ok)
    if label == "darboux-2-2-mixed-phi":
        assert not (nj.ok or nt.ok)
