"""The supports of the frame tensors, and every contraction that loops over
them, against dense references written here with plain loops over all
indices: on heis6, heis6 in the default gauge (a non-constant Gram matrix
and non-constant bracket coefficients) and the Darboux product (2, 2).

The two n^3 identity streams of ``contact``, the covariant phi pairing
identity and the Hermitian covariant identity, compare their entries
(a, b, c) over the keys of two sparse maps; here they are checked against
the loops over every c that they replaced, also on residuals that only
one of the two maps holds.  The n^2 streams whose right-hand sides are
now summed over supports, the covariant phi projection identity, the
closed form of nabla J, the Reeb curvature identity and the association
of the metric, are checked against the field arithmetic they replaced,
also on a residual at an (a, b) where every coefficient of the
right-hand side vanishes.

The last tests count the scalar sums and products, and the vector fields
built, of one verify pass, so a dense loop that comes back shows without
a clock."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_pair_lab import corpus_build, run_checks
from contact_pair_lab.contact import (certify, check_connection_identities,
                                      check_curvature_identity,
                                      hermitian_data)
from contact_pair_lab.frames import (EndoField, LeviCivita, PForm,
                                     VectorField, add_term, bracket,
                                     eval_form, exterior_derivative,
                                     form_rows, interior, wedge)
from contact_pair_lab.scalars import ScalarExpr

from conftest import (build_mcp, darboux_mixed_phi, darboux_skew_metric,
                      gauged_heis6, mixed_phi_structure, skew_metric,
                      twisted_phi_structure)

FRAMES = ("heis6", "heis6-gauged", "darboux-2-2")


@lru_cache(maxsize=None)
def frame_data(name):
    """(presentation, metric, connection, phi) of a named scenario."""
    if name == "darboux-2-2":
        scenario = corpus_build("darboux", (2, 2))
    else:
        scenario = corpus_build("heis6")
        if name == "heis6-gauged":
            scenario = gauged_heis6(scenario)
    metric = scenario.metric_field()
    return (scenario.presentation(), metric, LeviCivita(metric),
            scenario.phi_endo())


def entry_texts(coordinates):
    """Entries for random tensors, zero drawn most often."""
    x, y = coordinates[0], coordinates[1]
    return ["0", "0", "0", "0", "1", "-2", "1/3", x, f"{y}^2 + 1",
            f"{x}/(1 + {y}^2)"]


@st.composite
def tensors(draw):
    """A frame, two vector fields, an endomorphism field, a scalar and a
    form of degree 1 or 2 on it, with random sparse entries."""
    name = draw(st.sampled_from(FRAMES))
    presentation = frame_data(name)[0]
    n = presentation.dim
    texts = st.sampled_from(entry_texts(presentation.coordinates))

    def field():
        return presentation.vector(draw(st.lists(texts, min_size=n,
                                                 max_size=n)))

    x, y = field(), field()
    rows = [[presentation.scalar(text)
             for text in draw(st.lists(texts, min_size=n, max_size=n))]
            for _ in range(n)]
    degree = draw(st.sampled_from((1, 2)))
    keys = list(combinations(range(n), degree))
    coeffs = {key: presentation.scalar(draw(texts))
              for key in draw(st.lists(st.sampled_from(keys), max_size=6))}
    f = presentation.scalar(draw(texts))
    return (name, x, y, EndoField(presentation, rows),
            PForm(presentation, degree, coeffs), f)


def assert_support(support, entries):
    """``support`` holds exactly the nonzero entries, by ascending index."""
    assert list(support) == [(a, e) for a, e in enumerate(entries)
                             if not e.is_zero()]


# -- dense references ---------------------------------------------------

def dense_lower(metric, x):
    n = metric.frame.dim
    return [sum((x.components[a] * metric.gram[a][c] for a in range(n)),
                metric.frame.zero) for c in range(n)]


def dense_pair(metric, x, y):
    n = metric.frame.dim
    return sum((x.components[a] * metric.gram[a][b] * y.components[b]
                for a in range(n) for b in range(n)), metric.frame.zero)


def dense_apply(x, f):
    frame = x.frame
    return sum((x.components[a] * frame.direction(a, f)
                for a in range(frame.dim)), frame.zero)


def dense_bracket(x, y):
    frame = x.frame
    n = frame.dim
    out = []
    for c in range(n):
        total = dense_apply(x, y.components[c]) - dense_apply(
            y, x.components[c])
        for a in range(n):
            for b in range(n):
                total = total + (x.components[a] * y.components[b]
                                 * frame.frame_bracket(a, b).components[c])
        out.append(total)
    return frame.vector(out)


@lru_cache(maxsize=None)
def dense_christoffel(name):
    """gamma[a][b][d] from the Koszul formula, summed over every index."""
    frame, metric, _, _ = frame_data(name)
    n, zero = frame.dim, frame.zero
    g = metric.gram

    def lowered_bracket(a, b, c):
        brk = frame.frame_bracket(a, b).components
        return sum((brk[d] * g[d][c] for d in range(n)), zero)

    half = frame.scalar(Fraction(1, 2))
    koszul = [[[half * (frame.direction(a, g[b][c])
                        + frame.direction(b, g[a][c])
                        - frame.direction(c, g[a][b])
                        + lowered_bracket(a, b, c)
                        - lowered_bracket(a, c, b)
                        - lowered_bracket(b, c, a))
                for c in range(n)] for b in range(n)] for a in range(n)]
    return [[[sum((koszul[a][b][c] * metric.inverse[c][d] for c in range(n)),
                  zero) for d in range(n)] for b in range(n)]
            for a in range(n)]


def dense_nabla(name, x, y):
    frame = x.frame
    n = frame.dim
    gamma = dense_christoffel(name)
    out = []
    for c in range(n):
        total = dense_apply(x, y.components[c])
        for a in range(n):
            for b in range(n):
                total = total + (x.components[a] * y.components[b]
                                 * gamma[a][b][c])
        out.append(total)
    return frame.vector(out)


def dense_endo_apply(endo, x):
    n = endo.frame.dim
    return endo.frame.vector([
        sum((endo.matrix[c][a] * x.components[a] for a in range(n)),
            endo.frame.zero) for c in range(n)])


def dense_compose(a, b):
    n, zero = a.frame.dim, a.frame.zero
    return [[sum((a.matrix[c][k] * b.matrix[k][e] for k in range(n)), zero)
             for e in range(n)] for c in range(n)]


def dense_exterior_derivative(form):
    context = form.context
    n, zero = context.dim, context.zero
    coeffs = {}
    for key in combinations(range(n), form.degree + 1):
        total = zero
        for i, a in enumerate(key):
            rest = key[:i] + key[i + 1:]
            term = context.direction(a, form.get(rest))
            total = total + term if i % 2 == 0 else total - term
        for i in range(len(key)):
            for j in range(i + 1, len(key)):
                rest = tuple(k for t, k in enumerate(key) if t not in (i, j))
                brk = context.frame_bracket(key[i], key[j]).components
                inner = sum((brk[c] * form.get((c,) + rest)
                             for c in range(n)), zero)
                total = total - inner if (i + j) % 2 else total + inner
        coeffs[key] = total
    return PForm(context, form.degree + 1, coeffs)


# -- the properties -----------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(tensors())
def test_contractions_over_supports_match_dense_loops(case):
    name, x, y, endo, form, f = case
    frame, metric, connection, phi = frame_data(name)
    n = frame.dim

    for field in (x, y, x + y, x - y, -x, x.scale(f)):
        assert_support(field.support, field.components)
    assert (x + y).components == tuple(
        a + b for a, b in zip(x.components, y.components))
    assert (x - y).components == tuple(
        a - b for a, b in zip(x.components, y.components))
    assert x.scale(f).components == tuple(f * a for a in x.components)
    for matrix in (endo, phi):
        for a, column in enumerate(matrix.columns):
            assert_support(column.support, [row[a] for row in matrix.matrix])
    for a, row in enumerate(metric.rows):
        assert_support(list(row.items()), metric.gram[a])
    for a in range(n):
        for b in range(n):
            brk = frame.frame_bracket(a, b)
            assert_support(brk.support, brk.components)
            gamma = connection.gamma[a][b]
            assert_support(gamma.support, gamma.components)

    assert metric.lower(x) == dense_lower(metric, x)
    assert metric.pair(x, y) == dense_pair(metric, x, y)
    assert x.apply(f) == dense_apply(x, f)
    assert bracket(x, y) == dense_bracket(x, y)
    assert connection.nabla(x, y) == dense_nabla(name, x, y)
    gamma = dense_christoffel(name)
    assert all(connection.gamma[a][b].components == tuple(gamma[a][b])
               for a in range(n) for b in range(n))
    for matrix in (endo, phi):
        assert matrix.apply(x) == dense_endo_apply(matrix, x)
    assert endo.compose(phi).matrix == dense_compose(endo, phi)
    assert phi.compose(endo).matrix == dense_compose(phi, endo)
    derivative = exterior_derivative(form)
    reference = dense_exterior_derivative(form)
    assert derivative.coeffs == reference.coeffs


@pytest.mark.parametrize("name", FRAMES)
def test_the_exterior_derivative_of_the_coframe_matches_the_dense_loop(name):
    # d(theta^c) = -sum_{p<q} C^c_pq theta^p ^ theta^q: constant
    # coefficients, so every term comes from the bracket supports
    frame = frame_data(name)[0]
    n = frame.dim
    for degree in (1, 2):
        for key in combinations(range(n), degree):
            form = PForm(frame, degree, {key: frame.one})
            assert exterior_derivative(form).coeffs \
                == dense_exterior_derivative(form).coeffs, key


# -- the two n^3 identity streams ---------------------------------------

def dense_pairing_entries(mcp):
    """The entries of the covariant phi pairing identity by a loop over
    every (a, b, c), the rhs from the supports of the alpha_i."""
    pair, frame, g = mcp.pair, mcp.presentation, mcp.metric
    n = frame.dim
    phi = mcp.structure.phi
    # d alpha_i(phi e_b, e_a) by a, indexed [i][b]
    d_phi = [[{a: value for (a,), value
               in interior(form, phi.column(b)).coeffs.items()}
              for b in range(n)] for form in (pair.d_alpha1, pair.d_alpha2)]
    rhs = {}
    for i, alpha in enumerate(pair.alphas()):
        for negate in (False, True):
            for (e,), value in alpha.coeffs.items():
                for f, row in enumerate(d_phi[i]):
                    for a, d in row.items():
                        add_term(rhs, (a, e, f) if negate else (a, f, e),
                                 d * value, negate)
    for a in range(n):
        for b in range(n):
            for c, lhs in enumerate(dense_lower(g, mcp.nabla_phi[a][b])):
                yield (f"pairing residual at ({a},{b},{c})", lhs,
                       rhs.get((a, b, c), frame.zero))


def dense_hermitian_entries(mcp):
    """The entries of the Hermitian covariant identity
    4 g((nabla_a J) e_b, e_c) = 6 dF(e_a, J e_b, J e_c) - 6 dF(e_a, e_b, e_c)
    by a loop over every (a, b, c)."""
    pair, frame, g = mcp.pair, mcp.presentation, mcp.metric
    n, zero = frame.dim, frame.zero
    j_fields = [mcp.structure.j.column(a) for a in range(n)]
    fundamental = (pair.d_alpha1 + pair.d_alpha2
                   - wedge(pair.alpha1, pair.alpha2).scale(frame.scalar(2)))
    d_fundamental = exterior_derivative(fundamental)
    four = frame.scalar(4)
    slices = [{} for _ in range(n)]
    for key in d_fundamental.coeffs:
        for a, q, r in permutations(key):
            slices[a].setdefault(q, {})[r] = d_fundamental.get((a, q, r))
    for a in range(n):
        for b in range(n):
            df_jb = {}
            for q, v in j_fields[b].support:
                for r, df in slices[a].get(q, {}).items():
                    add_term(df_jb, r, v * df)
            for c, lhs in enumerate(dense_lower(g, mcp.nabla_j[a][b])):
                yield (f"residual at ({a},{b},{c})", four * lhs,
                       sum((w * df_jb[r] for r, w in j_fields[c].support
                            if r in df_jb), zero)
                       - slices[a].get(b, {}).get(c, zero))


# the stage that certifies each stream, the table [a][b] whose lowered
# fields are its lhs, and its dense reference
STREAMS = {
    "covariant phi pairing identity": (
        check_connection_identities, "nabla_phi", dense_pairing_entries),
    "Hermitian covariant identity": (
        hermitian_data, "nabla_j", dense_hermitian_entries),
}
STREAM_CASES = {
    "heis6": (None, None),
    "heis6-gauged": (None, None),
    "heis6-twisted-phi": ("phi", twisted_phi_structure),
    "heis6-mixed-phi": ("phi", mixed_phi_structure),
    "heis6-skew-metric": ("metric", skew_metric),
    "darboux-2-2": (None, None),
    "darboux-2-2-mixed-phi": ("phi", darboux_mixed_phi),
    "darboux-2-2-skew-metric": ("metric", darboux_skew_metric),
}


def stream_mcp(name):
    """A fresh metric contact pair of a stream case."""
    key, make = STREAM_CASES[name]
    if name.startswith("darboux"):
        scenario = corpus_build("darboux", (2, 2))
    else:
        scenario = corpus_build("heis6")
        if name == "heis6-gauged":
            scenario = gauged_heis6(scenario)
    if make is not None:
        scenario._cache[key] = make(scenario)
    return build_mcp(scenario)


def stream_finding(mcp, condition):
    check = STREAMS[condition][0]
    return next(f for f in check(mcp) if f.condition == condition)


def dense_finding(mcp, condition):
    return certify(condition, STREAMS[condition][2](mcp))


@pytest.mark.parametrize("condition", STREAMS)
@pytest.mark.parametrize("name", STREAM_CASES)
def test_the_identity_streams_match_the_dense_loops(name, condition):
    mcp = stream_mcp(name)
    finding = stream_finding(mcp, condition)
    assert finding == dense_finding(mcp, condition)
    assert finding.ok == (name in ("heis6", "heis6-gauged", "darboux-2-2"))


def replace_entry(mcp, condition, a, b, field):
    """Put ``field`` at [a][b] of the table the stream reads its lhs from."""
    attribute = STREAMS[condition][1]
    table = [list(row) for row in getattr(mcp, attribute)]
    table[a][b] = field
    setattr(mcp, attribute, table)


@pytest.mark.parametrize("condition", STREAMS)
def test_a_residual_on_the_rhs_alone_gives_the_dense_witness(condition):
    # on darboux (2, 2) both sides at (0, 0) hold the one key c = 4; with
    # the lhs field gone the residual is nonzero there only, a key that
    # only the rhs holds
    mcp = stream_mcp("darboux-2-2")
    replace_entry(mcp, condition, 0, 0, VectorField.zero(mcp.presentation))
    finding = stream_finding(mcp, condition)
    assert not finding.ok and " at (0,0,4) = " in finding.witness
    assert finding == dense_finding(mcp, condition)


@pytest.mark.parametrize("condition", STREAMS)
def test_a_residual_on_the_lhs_alone_gives_the_dense_witness(condition):
    # at (4, 4), Z1 twice, neither side of either stream holds a key:
    # phi Z1 = 0, alpha_i and dF are killed by the Reeb fields there; e_0
    # put on the lhs lowers to the one key c = 0 of a diagonal metric
    mcp = stream_mcp("darboux-2-2")
    replace_entry(mcp, condition, 4, 4, mcp.presentation.frame_field(0))
    finding = stream_finding(mcp, condition)
    assert not finding.ok and " at (4,4,0) = " in finding.witness
    assert finding == dense_finding(mcp, condition)


# -- the n^2 streams with right-hand sides over supports --------------

def dense_projection_entries(mcp):
    """The covariant phi projection identity by field arithmetic:
    nabla_a phi e_b = sum_i g(F_i e_a, F_i e_b) Z_i - alpha_i(e_b) F_i e_a."""
    pair, g, n = mcp.pair, mcp.metric, mcp.presentation.dim
    zero = VectorField.zero(mcp.presentation)
    zs = (pair.z1, pair.z2)
    a_rows = form_rows(pair.alpha1) + form_rows(pair.alpha2)
    proj = [[f.column(a) for a in range(n)] for f in mcp.foliation]
    for a in range(n):
        for b in range(n):
            yield (f"residual at ({a},{b})", mcp.nabla_phi[a][b],
                   sum((zs[i].scale(g.pair(proj[i][a], proj[i][b]))
                        - proj[i][a].scale(a_rows[i][b]) for i in (0, 1)),
                       zero))


def closed_form_coefficients(mcp, a, b):
    """c1, c2, alpha_1(e_b) and alpha_2(e_b) of the closed form of
    (nabla_a J) e_b, by evaluating the forms."""
    pair, frame = mcp.pair, mcp.presentation
    ea, eb = frame.frame_field(a), frame.frame_field(b)
    jb = mcp.structure.j.column(b)
    d1, d2 = pair.d_alpha1, pair.d_alpha2
    return (-eval_form(d2, ea, eb) - eval_form(d1, ea, jb),
            eval_form(d1, ea, eb) - eval_form(d2, ea, jb),
            pair.alpha1.get((b,)), pair.alpha2.get((b,)))


def dense_closed_form_entries(mcp):
    """The closed form of nabla J by field arithmetic: (nabla_a J) e_b =
    c1 Z1 + c2 Z2 + alpha_2(e_b) P_1 J e_a - alpha_1(e_b) P_2 J e_a
    - alpha_1(e_b) P_1 e_a - alpha_2(e_b) P_2 e_a."""
    pair, n = mcp.pair, mcp.presentation.dim
    j = mcp.structure.j
    pi_j = [p.compose(j) for p in mcp.pi]
    for a in range(n):
        for b in range(n):
            c1, c2, alpha1_b, alpha2_b = closed_form_coefficients(mcp, a, b)
            yield (f"residual at ({a},{b})", mcp.nabla_j[a][b],
                   pair.z1.scale(c1) + pair.z2.scale(c2)
                   + pi_j[0].column(a).scale(alpha2_b)
                   - pi_j[1].column(a).scale(alpha1_b)
                   - mcp.pi[0].column(a).scale(alpha1_b)
                   - mcp.pi[1].column(a).scale(alpha2_b))


def dense_curvature_entries(mcp):
    """The Reeb curvature identity by field arithmetic: R(e_a, e_b) Z =
    sum_i alpha_i(e_b) F_i e_a - alpha_i(e_a) F_i e_b, for a < b."""
    alphas, n = mcp.pair.alphas(), mcp.presentation.dim
    zero = VectorField.zero(mcp.presentation)
    proj = [[f.column(a) for a in range(n)] for f in mcp.foliation]
    for a in range(n):
        for b in range(a + 1, n):
            yield (f"residual at ({a},{b})", mcp.reeb_curvature[a][b],
                   sum((proj[i][a].scale(alphas[i].get((b,)))
                        - proj[i][b].scale(alphas[i].get((a,)))
                        for i in (0, 1)), zero))


FIELD_STREAMS = {
    "covariant phi projection identity": (
        check_connection_identities, "nabla_phi", dense_projection_entries),
    "closed form of the covariant derivative of J": (
        hermitian_data, "nabla_j", dense_closed_form_entries),
    "Reeb curvature identity": (
        check_curvature_identity, "reeb_curvature", dense_curvature_entries),
}


def field_stream_finding(mcp, condition):
    check = FIELD_STREAMS[condition][0]
    return next(f for f in check(mcp) if f.condition == condition)


def dense_associated_finding(mcp):
    """The association of the metric by a loop over every (a, b) and every
    a: g(e_a, phi e_b) = d-sum(e_a, e_b) and g(e_a, Z_i) = alpha_i(e_a)."""
    pair, g, frame = mcp.pair, mcp.metric, mcp.presentation
    n = frame.dim
    phi = mcp.structure.phi
    d_sum = pair.d_alpha1 + pair.d_alpha2
    d_sum_rows = [interior(d_sum, frame.frame_field(a)) for a in range(n)]
    phi_lowered = [g.lower(phi.column(b)) for b in range(n)]
    entries = [(f"g(e_{a}, phi e_{b}) - d-sum(e_{a}, e_{b})",
                phi_lowered[b][a], d_sum_rows[a].get((b,)))
               for a in range(n) for b in range(n)]
    entries += [(f"g(e_{a}, Z{i}) - alpha{i}(e_{a})", g_az, alpha.get((a,)))
                for i, (z, alpha) in enumerate(((pair.z1, pair.alpha1),
                                                (pair.z2, pair.alpha2)),
                                               start=1)
                for a, g_az in enumerate(g.lower(z))]
    return certify("metric is associated", entries)


@pytest.mark.parametrize("condition", FIELD_STREAMS)
@pytest.mark.parametrize("name", STREAM_CASES)
def test_the_field_streams_match_the_dense_loops(name, condition):
    mcp = stream_mcp(name)
    finding = field_stream_finding(mcp, condition)
    assert finding == certify(condition, FIELD_STREAMS[condition][2](mcp))


@pytest.mark.parametrize("name", STREAM_CASES)
def test_the_association_matches_the_dense_loop(name):
    mcp = stream_mcp(name)
    assert mcp.associated == dense_associated_finding(mcp)
    assert mcp.associated.ok == (name in ("heis6", "heis6-gauged",
                                          "darboux-2-2"))


@pytest.mark.parametrize("condition", (
    "covariant phi projection identity",
    "closed form of the covariant derivative of J"))
def test_a_residual_where_the_rhs_vanishes_gives_the_dense_witness(
        condition):
    # at (4, 0), a = Z1 and b horizontal, i_{Z1} d alpha_i = 0 and the
    # alpha_i kill e_0, so c1, c2, alpha_1(e_0) and alpha_2(e_0) vanish and
    # the closed form adds nothing; the projection's rhs is zero there too.
    # e_0 put on the lhs is then the one residual of the stream
    mcp = stream_mcp("darboux-2-2")
    assert all(not c for c in closed_form_coefficients(mcp, 4, 0))
    label, lhs, rhs = next(
        entry for entry in FIELD_STREAMS[condition][2](mcp)
        if entry[0] == "residual at (4,0)")
    assert lhs.is_zero() and rhs.is_zero()
    attribute = FIELD_STREAMS[condition][1]
    table = [list(row) for row in getattr(mcp, attribute)]
    table[4][0] = mcp.presentation.frame_field(0)
    setattr(mcp, attribute, table)
    finding = field_stream_finding(mcp, condition)
    assert not finding.ok
    assert finding.witness.startswith("residual at (4,0) = ")
    assert finding == certify(condition, FIELD_STREAMS[condition][2](mcp))


def test_one_verify_pass_does_few_scalar_sums_and_products(monkeypatch):
    """One warm seed-1 ``run_checks`` of the Darboux product (2, 2) takes
    1,165 sums, differences and products with nabla A, the Nijenhuis
    tensors and the n^2 right-hand sides over supports.  It took 1,390
    while those were built by field arithmetic, 3,366 while the two n^3
    identity streams compared every (a, b, c), and 54,624 (13,291 + 21,866
    + 19,467) with loops over every index.  The bound is twice the first:
    a dense vector sum alone, back in ``VectorField.__add__``, takes
    11,638."""
    run_checks(corpus_build("darboux", (2, 2)), seed=1)
    counts = Counter()
    for name in ("__add__", "__sub__", "__mul__"):
        def counted(self, other, _op=getattr(ScalarExpr, name), _name=name):
            counts[_name] += 1
            return _op(self, other)
        monkeypatch.setattr(ScalarExpr, name, counted)
    report = run_checks(corpus_build("darboux", (2, 2)), seed=1)
    assert report.overall == "pass"
    assert sum(counts.values()) <= 2 * 1165, counts


def test_one_verify_pass_builds_few_vector_fields(monkeypatch):
    """The same pass builds 457 vector fields, through the constructor or
    ``VectorField.from_support``: a field without a nonzero component is
    the context's shared zero field, and e_a is one shared field per
    index.  It built 2,399 while nabla A took n covariant derivatives and
    n applications per index, the Nijenhuis tensors took brackets, and
    every zero field was a new one.  The bound is twice the count."""
    run_checks(corpus_build("darboux", (2, 2)), seed=1)
    built = Counter()
    init = VectorField.__init__
    from_support = VectorField.__dict__["from_support"].__func__

    def counted_init(self, *args):
        built["__init__"] += 1
        init(self, *args)

    def counted_from_support(cls, *args):
        built["from_support"] += 1
        return from_support(cls, *args)

    monkeypatch.setattr(VectorField, "__init__", counted_init)
    monkeypatch.setattr(VectorField, "from_support",
                        classmethod(counted_from_support))
    report = run_checks(corpus_build("darboux", (2, 2)), seed=1)
    assert report.overall == "pass"
    assert sum(built.values()) <= 2 * 457, built
