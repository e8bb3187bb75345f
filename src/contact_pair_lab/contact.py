"""Contact pairs, contact pair structures, metrics and their certification.

All verdicts are produced by canonical-form identity checks on frame
components.  Every exact identity goes through ``certify``, the one
witness rule: it compares lhs and rhs entry by entry, stops at the first
entry where they differ and names it, ``"<label> = <lhs - rhs>"``.  The
two identities with n^3 entries (a, b, c) stream, for each (a, b), only
the c that a side holds a term at (``_key_union``); the n^2 right-hand
sides are sums over supports (``frames.combination``).

The tensors the checks read are built once per ``MetricContactPair`` and
cached there: the projections P_i and F_i (``pi``, ``foliation``), nabla Z
and R(., .)Z for the Reeb sum Z (``nabla_reeb``, ``reeb_curvature``, from
nabla of nabla Z), nabla phi, nabla J and the normality report, whose
Nijenhuis tensors are read off nabla phi and nabla J.  A check
reads columns of these endomorphisms, and an identity between
endomorphisms is witnessed by its first differing column.  One test,
``pair_type_findings``, decides the type (h, k) of every pair of forms.

A contact pair certifies its type, [Z1, Z2] = 0 and the rank of its
splitting at the base point; the rest follows from the type (see
``validate_contact_pair``).  ``ContactPair.splitting`` holds H1 and H2,
one kernel each, and TF1 = H1 + [Z2], TF2 = H2 + [Z1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, permutations
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .frames import (EndoField, FramePresentation, LeviCivita, MetricField,
                     PForm, VectorField, _accumulate, add_term, bracket,
                     combination, eval_form, exterior_derivative, form_power,
                     form_rows, interior, is_killing, lie_derivative_endo,
                     nijenhuis, nonvanishing_certificate,
                     orthogonal_projector, pole_polynomial,
                     seeded_probe_points, wedge)
from .scalars import ScalarError, ScalarExpr


@dataclass
class Finding:
    """A certified condition; ``probe`` names a probe point where a
    quantity it needs nonzero vanishes (``nonvanishing_certificate``)."""

    condition: str
    ok: bool
    witness: str = ""
    probe: str = ""


def certify(condition: str, entries: Iterable[Tuple[str, Any, Any]]
            ) -> Finding:
    """The identity lhs = rhs on every ``(label, lhs, rhs)`` entry.  The
    search stops at the first entry where the two sides differ, which
    witnesses the failure as ``"<label> = <lhs - rhs>"``; ``entries`` may be
    a lazy stream, and may leave out entries whose sides are both zero."""
    for label, lhs, rhs in entries:
        if lhs != rhs:
            return Finding(condition, False, f"{label} = {lhs - rhs}")
    return Finding(condition, True)


class ValidationError(Exception):
    def __init__(self, message: str, findings: Sequence[Finding] = ()):
        details = "; ".join(f.condition + (f": {f.witness}" if f.witness else "")
                            for f in findings if not f.ok)
        super().__init__(message + (f" [{details}]" if details else ""))


@dataclass
class ContactPair:
    presentation: FramePresentation
    alpha1: PForm
    alpha2: PForm
    h: int
    k: int
    z1: VectorField
    z2: VectorField
    d_alpha1: PForm
    d_alpha2: PForm
    splitting: Dict[str, List[VectorField]]
    valid: Finding

    @property
    def reeb_sum(self) -> VectorField:
        return self.z1 + self.z2

    def alphas(self) -> Tuple[PForm, PForm]:
        return (self.alpha1, self.alpha2)


def solve_reeb(presentation: FramePresentation, alpha1: PForm, alpha2: PForm,
               d_alpha1: PForm, d_alpha2: PForm) -> Tuple[VectorField, VectorField]:
    """Unique fields with alpha_i(Z_j) = delta_ij and i_{Z_j} d(alpha_i) = 0,
    from one reduction of the rows beside both right-hand sides."""
    n, zero, one = presentation.dim, presentation.zero, presentation.one
    # the d(alpha_i) rows first: the forms' entries have the higher degree,
    # and a pivot taken among them would divide every later row
    rows = [*form_rows(d_alpha1), *form_rows(d_alpha2), *form_rows(alpha1),
            *form_rows(alpha2)]
    reduced, _, values, _ = linalg.row_reduce(
        [row + [one if i == 2 * n else zero, one if i == 2 * n + 1 else zero]
         for i, row in enumerate(rows)], n)
    # a right-hand side left in a row without a pivot has no solution
    if len(values) < n or any(row[n] or row[n + 1] for row in reduced[n:]):
        raise ValidationError("Reeb system has no unique solution")
    z1, z2 = (VectorField(presentation, tuple(row[n + j] for row in reduced[:n]))
              for j in (0, 1))
    return z1, z2


def _splitting(presentation: FramePresentation, alpha1: PForm, alpha2: PForm,
               d_alpha1: PForm, d_alpha2: PForm, z1: VectorField,
               z2: VectorField) -> Dict[str, List[VectorField]]:
    # H_i = ker d(alpha_i) cap ker alpha_1 cap ker alpha_2
    alpha_rows = form_rows(alpha1) + form_rows(alpha2)
    h1, h2 = ([VectorField(presentation, tuple(vec)) for vec in
               linalg.kernel_basis(form_rows(form) + alpha_rows)]
              for form in (d_alpha1, d_alpha2))
    return {"H1": h1, "H2": h2, "TF1": h1 + [z2], "TF2": h2 + [z1]}


def pair_type_findings(alpha1: PForm, alpha2: PForm, d1: PForm, d2: PForm,
                       h: int, k: int
                       ) -> Tuple[List[Finding], Optional[ScalarExpr]]:
    """Type (h, k) of forms with exterior derivatives d1, d2: the volume
    form alpha1 ^ d1^h ^ alpha2 ^ d2^k is nonzero and d1^(h+1), d2^(k+1)
    vanish where their degree fits.  Also returns the volume form's first
    nonzero coefficient, or None.  Not read off the Reeb reduction: on a
    dense pair of the wrong type its gcds grow for minutes."""
    n = alpha1.context.dim
    volume = wedge(wedge(wedge(alpha1, form_power(d1, h)), alpha2),
                   form_power(d2, k))
    top = volume.nonzero_witness()
    findings = [Finding("volume form", top is not None,
                        "top-degree coefficient is identically zero"
                        if top is None else f"coefficient {top[1]}")]
    for name, form, p in (("first", d1, h), ("second", d2, k)):
        if 2 * (p + 1) <= n:
            entry = form_power(form, p + 1).nonzero_witness()
            findings.append(Finding(
                f"degeneracy of the {name} form", entry is None,
                "" if entry is None
                else f"power {p + 1} has {entry[0]} -> {entry[1]}"))
    return findings, None if top is None else top[1]


def validate_contact_pair(presentation: FramePresentation, alpha1: PForm,
                          alpha2: PForm, h: int, k: int,
                          probes: Optional[Sequence] = None) -> ContactPair:
    """Certify the contact pair conditions and produce the splitting.

    Only the type (``pair_type_findings``), [Z1, Z2] = 0 and the
    splitting's rank at the base point are certified; the rest follows.
    (d alpha_1)^h divides the nonzero volume form and (d alpha_1)^(h+1)
    = 0, so d(alpha_1) has rank 2h and a kernel of dimension 2k + 2.  That
    kernel holds Z1 and Z2, with alpha_i(Z_j) = delta_ij: H1 has dimension
    2k and TF1 = H1 + [Z2] 2k + 1.  alpha_1 ^ (d alpha_1)^h divides the
    volume form too, so alpha_1 has Cartan class 2h + 1; where that
    witness vanishes at a probe point, so does the volume form, whose
    probe ``valid`` reports.  Likewise for alpha_2, with h and k swapped.
    """
    n = presentation.dim
    if n != 2 * h + 2 * k + 2:
        raise ValidationError(
            f"dimension {n} does not match type ({h},{k})")
    if probes is None:
        probes = seeded_probe_points(presentation)
    d1 = exterior_derivative(alpha1)
    d2 = exterior_derivative(alpha2)
    points = [presentation.base_point, *probes]
    findings, top = pair_type_findings(alpha1, alpha2, d1, d2, h, k)
    if any(not f.ok for f in findings):
        raise ValidationError("not a contact pair", findings)
    # the volume form holds, so top is its first nonzero coefficient
    probe = nonvanishing_certificate("volume form", [top], points)[1]

    z1, z2 = solve_reeb(presentation, alpha1, alpha2, d1, d2)
    findings.append(certify("Reeb fields commute", [
        ("[Z1,Z2]", bracket(z1, z2), VectorField.zero(presentation))]))
    if not findings[-1].ok:
        raise ValidationError("not a contact pair", findings)

    split = _splitting(presentation, alpha1, alpha2, d1, d2, z1, z2)
    columns = split["H1"] + split["H2"] + [z1, z2]
    try:
        rank = linalg.rational_rank([[f.components[a].evaluate(
            presentation.base_point) for f in columns] for a in range(n)])
        spans, witness = rank == n, f"rank {rank} at the base point"
    except ScalarError as exc:
        spans, witness = False, f"splitting has a pole at the base point ({exc})"
    findings.append(Finding("pointwise splitting spans the tangent space",
                            spans, witness))
    if not spans:
        raise ValidationError("splitting failure", findings)
    return ContactPair(presentation, alpha1, alpha2, h, k, z1, z2, d1, d2,
                       split, Finding("contact pair", True, probe=probe))


@dataclass
class ContactPairStructure:
    pair: ContactPair
    phi: EndoField
    j: EndoField
    t: EndoField
    rho: EndoField
    decomposable: Finding
    findings: List[Finding]


def natural_complex_structures(pair: ContactPair, phi: EndoField
                               ) -> Tuple[EndoField, EndoField, EndoField]:
    a2z1 = EndoField.outer(pair.alpha2, pair.z1)
    a1z2 = EndoField.outer(pair.alpha1, pair.z2)
    j = phi - a2z1 + a1z2
    t = phi + a2z1 - a1z2
    rho = a2z1 - a1z2
    return j, t, rho


def validate_structure(pair: ContactPair, phi: EndoField,
                       probes: Optional[Sequence] = None,
                       metric: Optional[MetricField] = None) -> ContactPairStructure:
    presentation = pair.presentation
    n = presentation.dim
    if probes is None:
        probes = seeded_probe_points(presentation)
    zero = presentation.zero
    findings: List[Finding] = []

    expected = (EndoField.identity(presentation).scale(
        ScalarExpr.constant(-1, presentation.coordinates))
        + EndoField.outer(pair.alpha1, pair.z1)
        + EndoField.outer(pair.alpha2, pair.z2)).columns
    square = phi.compose(phi).columns
    findings.append(certify("phi squared identity", (
        (f"component ({c},{a})", square[a].components[c],
         expected[a].components[c])
        for c in range(n) for a in range(n))))

    for name, z in (("Z1", pair.z1), ("Z2", pair.z2)):
        findings.append(certify(f"phi kills {name}", [
            (f"phi({name})", phi.apply(z), VectorField.zero(presentation))]))

    for name, alpha in (("first", pair.alpha1), ("second", pair.alpha2)):
        findings.append(certify(
            f"{name} form annihilates the image of phi", (
                (f"alpha(phi e_{a})", eval_form(alpha, phi.column(a)), zero)
                for a in range(n))))

    # phi^2 = -I + sum alpha_i (x) Z_i gives rank phi >= n - 2 wherever phi is
    # defined, and phi Z_i = 0 zeroes every (n-1)-minor: rank n - 2 off poles
    poles = pole_polynomial(phi.matrix)
    pole = next((point for point in [presentation.base_point, *probes]
                 if poles.evaluate(point) == 0), None)
    findings.append(Finding("rank of phi", pole is None,
                            "" if pole is None else f"pole at {dict(pole)}"))

    if any(not f.ok for f in findings):
        raise ValidationError("not a contact pair structure", findings)

    j, t, rho = natural_complex_structures(pair, phi)

    # every spanning field of TF1 and TF2 whose phi image leaves the span
    witnesses = []
    for name in ("TF1", "TF2"):
        span = pair.splitting[name]
        left = linalg.left_inverse([[f.components[a] for f in span]
                                    for a in range(n)])
        for idx, f in enumerate(span):
            image = phi.apply(f)
            if linalg.solve_in_span(left, image.components) is None:
                witnesses.append(f"phi invariance of {name}: image of "
                                 f"spanning field {idx} leaves the "
                                 "distribution")
    decomposable = Finding("phi preserves TF1 and TF2", not witnesses,
                           "; ".join(witnesses))

    if metric is not None:
        ortho = _span_orthogonal(metric, pair.splitting["TF1"],
                                 pair.splitting["TF2"])
        findings.append(Finding(
            "decomposability matches orthogonality of the characteristic foliations",
            decomposable.ok == ortho,
            f"decomposable={decomposable.ok}, orthogonal={ortho}"))

    return ContactPairStructure(pair, phi, j, t, rho, decomposable, findings)


def _span_orthogonal(metric: MetricField, span_a: Sequence[VectorField],
                     span_b: Sequence[VectorField]) -> bool:
    return all(metric.pair(x, y).is_zero() for x in span_a for y in span_b)


@dataclass
class MetricContactPair:
    """A contact pair structure with a metric, and the tensors every check
    reads, each built once on first use: the connection, nabla phi,
    nabla J, the projections ``pi`` and ``foliation``, the Reeb-sum
    tensors ``nabla_reeb`` and ``reeb_curvature`` and the ``normality``
    report, its four findings.  An associated metric is compatible, so
    that implication is not certified: g(phi X, phi Y) = -g(Y, phi^2 X)
    = g(X, Y) - sum_i alpha_i(X) alpha_i(Y)."""

    structure: ContactPairStructure
    metric: MetricField
    compatible: Finding
    associated: Finding
    orthogonal_splitting: Finding
    probes: List[Dict[str, Fraction]]

    @property
    def pair(self) -> ContactPair:
        return self.structure.pair

    @property
    def presentation(self) -> FramePresentation:
        return self.pair.presentation

    @cached_property
    def connection(self) -> LeviCivita:
        return LeviCivita(self.metric)

    @cached_property
    def nabla_phi(self) -> List[List[VectorField]]:
        """(nabla_{e_a} phi) e_b, indexed [a][b]."""
        return [self.connection.nabla_endo(a, self.structure.phi)
                for a in range(self.presentation.dim)]

    @cached_property
    def nabla_j(self) -> List[List[VectorField]]:
        """(nabla_{e_a} J) e_b, indexed [a][b]."""
        return [self.connection.nabla_endo(a, self.structure.j)
                for a in range(self.presentation.dim)]

    @cached_property
    def pi(self) -> Tuple[EndoField, EndoField]:
        """(P_1, P_2), the orthogonal projections with the index convention
        used throughout: P_1 maps onto H2 and P_2 onto H1."""
        def projector(span: List[VectorField]) -> EndoField:
            gram = [[self.metric.pair(x, y) for y in span] for x in span]
            return orthogonal_projector(self.metric, span,
                                        linalg.invert(gram) if span else [])
        split = self.pair.splitting
        return projector(split["H2"]), projector(split["H1"])

    @cached_property
    def foliation(self) -> Tuple[EndoField, EndoField]:
        """(F_1, F_2) with F_i = P_i + alpha_i (x) Z_i: F_1 maps onto TF2
        and F_2 onto TF1."""
        pair = self.pair
        return (self.pi[0] + EndoField.outer(pair.alpha1, pair.z1),
                self.pi[1] + EndoField.outer(pair.alpha2, pair.z2))

    @cached_property
    def nabla_reeb(self) -> EndoField:
        """nabla Z for the Reeb sum Z = Z1 + Z2; column a is
        nabla_{e_a} Z."""
        frame = self.presentation
        z = self.pair.reeb_sum
        return EndoField.from_fields(frame, [
            self.connection.nabla(frame.frame_field(a), z)
            for a in range(frame.dim)])

    @cached_property
    def reeb_curvature(self) -> List[List[VectorField]]:
        """R(e_a, e_b) Z for the Reeb sum Z, indexed [a][b]: with A = nabla Z
        and a torsion-free connection, (nabla_a A) e_b - (nabla_b A) e_a."""
        n = self.presentation.dim
        nabla = [self.connection.nabla_endo(a, self.nabla_reeb)
                 for a in range(n)]
        return [[nabla[a][b] - nabla[b][a] for b in range(n)]
                for a in range(n)]

    @cached_property
    def normality(self) -> "NormalityReport":
        """The normality tensor, the two almost complex structures and
        the normal metric contact pair, which also asks for an associated
        metric.  N_phi, N_J and N_T come from nabla phi, nabla J and, as
        T = 2 phi - J, nabla T = 2 nabla phi - nabla J."""
        pair = self.pair
        structure = self.structure
        zero = VectorField.zero(self.presentation)
        nabla_t = [[p + (p - q) for p, q in zip(row_phi, row_j)]
                   for row_phi, row_j in zip(self.nabla_phi, self.nabla_j)]
        # 2 d(alpha_i)(e_a, e_b) is the coefficient on (a, b)
        n1 = certify("normality tensor vanishes", (
            (f"N1(e_{a}, e_{b})",
             value + (pair.z1.scale(pair.d_alpha1.get((a, b)))
                      + pair.z2.scale(pair.d_alpha2.get((a, b)))), zero)
            for (a, b), value in nijenhuis(structure.phi,
                                           self.nabla_phi).items()))
        nj, nt = [certify(f"{label} integrable", (
            (f"N_{label}(e_{a}, e_{b})", value, zero)
            for (a, b), value in nijenhuis(endo, nabla).items()))
            for label, endo, nabla in (("J", structure.j, self.nabla_j),
                                       ("T", structure.t, nabla_t))]
        witness = next((f.witness for f in (n1, nj, nt, self.associated)
                        if not f.ok), "")
        return NormalityReport(n1, nj, nt, Finding(
            "normal metric contact pair", n1.ok and self.associated.ok,
            witness))


def validate_metric(structure: ContactPairStructure, metric: MetricField,
                    probes: Optional[Sequence] = None) -> MetricContactPair:
    pair = structure.pair
    presentation = pair.presentation
    n = presentation.dim
    if probes is None:
        probes = seeded_probe_points(presentation)
    phi = structure.phi

    phi_fields = [phi.column(a) for a in range(n)]
    (a1,), (a2,) = form_rows(pair.alpha1), form_rows(pair.alpha2)

    # reduction[(a, b)] = g_ab - sum_i alpha_i(e_a) alpha_i(e_b), from the
    # Gram rows and the supports of the alpha_i; an absent key is zero
    reduction = {(a, b): g_ab for a, row in enumerate(metric.rows)
                 for b, g_ab in row.items()}
    for alpha in pair.alphas():
        for (a,), alpha_a in alpha.coeffs.items():
            for (b,), alpha_b in alpha.coeffs.items():
                add_term(reduction, (a, b), alpha_a * alpha_b, negate=True)
    compatible = certify("metric is compatible", (
        (f"g(phi e_{a}, phi e_{b}) - reduction",
         metric.pair(phi_fields[a], phi_fields[b]),
         reduction.get((a, b), presentation.zero))
        for a in range(n) for b in range(a, n)))

    # g(e_a, phi e_b) and d-sum(e_a, e_b), by (a, b), nonzero entries only;
    # d-sum(e_a, e_b) is half the coefficient of d-sum on (a, b)
    phi_lowered = {(a, b): value for b, f in enumerate(phi_fields)
                   for a, value in metric.lowered(f).items()}
    half = ScalarExpr.constant(Fraction(1, 2), presentation.coordinates)
    d_sum: Dict[Tuple[int, int], ScalarExpr] = {}
    for (a, b), value in (pair.d_alpha1 + pair.d_alpha2).coeffs.items():
        d_sum[(a, b)] = half * value
        d_sum[(b, a)] = -d_sum[(a, b)]
    associated = certify("metric is associated", chain((
        (f"g(e_{a}, phi e_{b}) - d-sum(e_{a}, e_{b})", lhs, rhs)
        for (a, b), lhs, rhs in _key_union(phi_lowered, d_sum,
                                           presentation.zero)), (
        (f"g(e_{a}, Z{i}) - alpha{i}(e_{a})", g_az, alpha[a])
        for i, (z, alpha) in enumerate(((pair.z1, a1), (pair.z2, a2)),
                                       start=1)
        for a, g_az in enumerate(metric.lower(z)))))

    split = pair.splitting
    blocks = [("H1", split["H1"]), ("H2", split["H2"]),
              ("RZ1", [pair.z1]), ("RZ2", [pair.z2])]
    orthogonal = next((
        Finding("splitting is orthogonal", False,
                f"{name_a} and {name_b} are not orthogonal")
        for i, (name_a, span_a) in enumerate(blocks)
        for name_b, span_b in blocks[i + 1:]
        if not _span_orthogonal(metric, span_a, span_b)),
        Finding("splitting is orthogonal", True))

    return MetricContactPair(structure, metric, compatible, associated,
                             orthogonal, list(probes))


@dataclass
class NormalityReport:
    """The four normality findings: N1 vanishes, J and T are integrable,
    and the bundle is a normal metric contact pair.  ``normal`` carries
    the first witness among the other three and the association, also
    when it holds."""

    n1: Finding
    nj: Finding
    nt: Finding
    normal: Finding


def normality(mcp: MetricContactPair) -> NormalityReport:
    """The normality report cached on ``mcp``."""
    return mcp.normality


def check_connection_identities(mcp: MetricContactPair) -> List[Finding]:
    """Certify the covariant-derivative characterizations on frame tuples."""
    pair = mcp.pair
    presentation = mcp.presentation
    n = presentation.dim
    phi = mcp.structure.phi
    g = mcp.metric
    findings: List[Finding] = []
    phi_fields = [phi.column(a) for a in range(n)]
    d_forms = (pair.d_alpha1, pair.d_alpha2)
    zs = (pair.z1, pair.z2)
    zero = VectorField.zero(presentation)

    nabla_phi = mcp.nabla_phi
    # d alpha_i(phi e_b, e_a) by a, nonzero entries only, indexed [i][b]
    d_phi = [[{a: value for (a,), value in interior(form, f).coeffs.items()}
              for f in phi_fields] for form in d_forms]

    # pairing_rhs[(a, b)][c] = sum_i d alpha_i(phi e_b, e_a) alpha_i(e_c)
    #     - d alpha_i(phi e_c, e_a) alpha_i(e_b), from the supports of the
    # alpha_i; an absent key is zero, and each key takes its terms in the
    # order of the sum
    pairing_rhs: Dict[Tuple[int, int], Dict[int, ScalarExpr]] = {}
    for i, alpha in enumerate(pair.alphas()):
        for negate in (False, True):
            for (e,), value in alpha.coeffs.items():
                for f, row in enumerate(d_phi[i]):
                    for a, d in row.items():
                        key, c = ((a, e), f) if negate else ((a, f), e)
                        add_term(pairing_rhs.setdefault(key, {}), c,
                                 d * value, negate)

    findings.append(certify("covariant phi pairing identity", (
        (f"pairing residual at ({a},{b},{c})", lhs, rhs)
        for a in range(n) for b in range(n)
        for c, lhs, rhs in _key_union(g.lowered(nabla_phi[a][b]),
                                      pairing_rhs.get((a, b), {}),
                                      presentation.zero))))

    z = pair.reeb_sum
    findings.append(_endo_finding("Reeb sum derivative identity",
                                  mcp.nabla_reeb + phi))

    # F_i e_a, indexed [i][a], and g(F_i e_a, .) by index, lowered once
    proj = [[f.column(a) for a in range(n)] for f in mcp.foliation]
    proj_lowered = [[g.lowered(f) for f in row] for row in proj]

    def projection_terms(a: int, b: int):
        # sum_i g(F_i e_a, F_i e_b) Z_i - alpha_i(e_b) F_i e_a
        for i, alpha in enumerate(pair.alphas()):
            low = proj_lowered[i][a]
            yield (sum((low[c] * value for c, value in proj[i][b].support
                        if c in low), presentation.zero), zs[i], False)
            yield alpha.coeffs.get((b,)), proj[i][a], True

    findings.append(certify("covariant phi projection identity", (
        (f"residual at ({a},{b})", nabla_phi[a][b],
         combination(presentation, projection_terms(a, b)))
        for a in range(n) for b in range(n))))

    half = ScalarExpr.constant(Fraction(1, 2), presentation.coordinates)
    h_endo = lie_derivative_endo(z, phi).scale(half)
    # Q e_a = R(Z, e_a) Z = sum_c Z^c R(e_c, e_a) Z
    curvature = mcp.reeb_curvature
    q = EndoField.from_fields(presentation, [
        sum((curvature[c][a].scale(zc) for c, zc in z.support), zero)
        for a in range(n)])
    findings.append(_endo_finding(
        "curvature h-tensor identity",
        (q - phi.compose(q).compose(phi)).scale(half)
        - phi.compose(phi) - h_endo.compose(h_endo)))
    findings.append(_endo_finding("Reeb derivative with h-tensor",
                                  mcp.nabla_reeb + phi + phi.compose(h_endo)))

    if mcp.normality.normal.ok:
        findings.append(_endo_finding("h-tensor vanishes on the normal bundle",
                                      h_endo))
        findings.append(Finding("Reeb sum is Killing",
                                is_killing(mcp.nabla_reeb, g)))
    return findings


def _key_union(lhs: Dict[int, ScalarExpr], rhs: Dict[int, ScalarExpr],
               zero: ScalarExpr) -> Iterable[Tuple[int, Any, Any]]:
    """(c, lhs[c], rhs[c]) over the ascending union of the keys of two
    maps, an absent key being zero.  Both sides are zero at every other c,
    so the first c where they differ is that of a loop over every c."""
    for c in sorted(lhs.keys() | rhs.keys()):
        yield c, lhs.get(c, zero), rhs.get(c, zero)


def _endo_finding(condition: str, residual: EndoField) -> Finding:
    """The identity ``residual = 0``, witnessed by its first nonzero
    column."""
    frame = residual.frame
    zero = VectorField.zero(frame)
    return certify(condition, ((f"residual along e_{a}", residual.column(a),
                                zero) for a in range(frame.dim)))


def check_curvature_identity(mcp: MetricContactPair) -> List[Finding]:
    """Certify the curvature characterization of normality on frame pairs."""
    pair = mcp.pair
    frame = mcp.presentation
    n = frame.dim
    # F_i e_a, indexed [i][a]; the rhs is
    # sum_i alpha_i(e_b) F_i e_a - alpha_i(e_a) F_i e_b
    proj = [[f.column(a) for a in range(n)] for f in mcp.foliation]
    holds = certify("Reeb curvature identity", (
        (f"residual at ({a},{b})", mcp.reeb_curvature[a][b],
         combination(frame, ((alpha.coeffs.get((y,)), proj[i][x], x == b)
                             for i, alpha in enumerate(pair.alphas())
                             for x, y in ((a, b), (b, a)))))
        for a in range(n) for b in range(a + 1, n)))
    normal = mcp.normality.normal
    detail = f"identity={holds.ok}, normal={normal.ok}"
    if holds.ok != normal.ok and normal.witness:
        detail += f"; {normal.witness}"
    agreement = Finding("curvature identity is equivalent to normality",
                        holds.ok == normal.ok, detail)
    return [holds, agreement]


def hermitian_data(mcp: MetricContactPair) -> List[Finding]:
    """Certify the Hermitian identities driven by the integrable structure J."""
    pair = mcp.pair
    presentation = mcp.presentation
    n = presentation.dim
    g = mcp.metric
    j = mcp.structure.j
    findings: List[Finding] = []
    frame_fields = [presentation.frame_field(a) for a in range(n)]
    j_fields = [j.column(a) for a in range(n)]

    fundamental = (pair.d_alpha1 + pair.d_alpha2
                   - wedge(pair.alpha1, pair.alpha2).scale(
                       ScalarExpr.constant(2, presentation.coordinates)))
    d_fundamental = exterior_derivative(fundamental)

    findings.append(certify("second form pulls back to the first under J", (
        (f"residual on e_{a}", eval_form(pair.alpha2, j_fields[a]),
         pair.alpha1.get((a,))) for a in range(n))))

    # P_i J, whose columns are the projections of J e_a, and J P_i
    pi_j = [p.compose(j) for p in mcp.pi]
    j_pi = [j.compose(p) for p in mcp.pi]
    findings.append(certify("projections commute with J", (
        (f"pi_{i + 1} J residual on e_{a}", pi_j[i].column(a),
         j_pi[i].column(a)) for i in (0, 1) for a in range(n))))

    four = ScalarExpr.constant(4, presentation.coordinates)
    nabla_j = mcp.nabla_j
    # 6 dF(X, Y, W) = sum_pqr X^p Y^q W^r dF_pqr, so the right-hand side
    # 6 dF(e_a, J e_b, J e_c) - 6 dF(e_a, e_b, e_c) is read off the
    # coefficients of dF, contracted with the supports of the columns of J.
    # slices[a][q][r] = dF_aqr, over the nonzero coefficients of dF
    slices: List[Dict[int, Dict[int, ScalarExpr]]] = [{} for _ in range(n)]
    for key in d_fundamental.coeffs:
        for a, q, r in permutations(key):
            slices[a].setdefault(q, {})[r] = d_fundamental.get((a, q, r))
    # j_rows[r] = the nonzero pairs (c, J^r_c) of row r of J
    j_rows = [[(c, w) for c, w in enumerate(row) if w] for row in j.matrix]

    def covariant_entries():
        for a in range(n):
            for b in range(n):
                # sum_q J^q_b dF_aqr, by r; an absent r is zero
                df_jb: Dict[int, ScalarExpr] = {}
                for q, v in j_fields[b].support:
                    _accumulate(df_jb, v, slices[a].get(q, {}).items())
                # sum_r J^r_c (df_jb)_r - dF_abc by c, r ascending
                rhs: Dict[int, ScalarExpr] = {}
                for r in sorted(df_jb):
                    _accumulate(rhs, df_jb[r], j_rows[r])
                for c, df in slices[a].get(b, {}).items():
                    add_term(rhs, c, df, negate=True)
                for c, lhs, value in _key_union(
                        g.lowered(nabla_j[a][b]), rhs, presentation.zero):
                    yield f"residual at ({a},{b},{c})", four * lhs, value

    findings.append(certify("Hermitian covariant identity",
                            covariant_entries()))

    # The closed form is c1 Z1 + c2 Z2 + alpha_2(e_b) U_a - alpha_1(e_b) V_a
    # with U_a = P_1 J e_a - P_2 e_a, V_a = P_2 J e_a + P_1 e_a,
    # c1 = -d alpha_2(e_a, e_b) - d alpha_1(e_a, J e_b) and
    # c2 = d alpha_1(e_a, e_b) - d alpha_2(e_a, J e_b)
    alpha1, alpha2 = ({b: value for (b,), value in alpha.coeffs.items()}
                      for alpha in pair.alphas())

    def closed_form_terms(a: int):
        # (coefficient by b, field, negated) of the four terms at a; the
        # row i_{e_a} d alpha_i, contracted with the rows of J for J e_b
        d1, d2 = ({b: value for (b,), value
                   in interior(form, frame_fields[a]).coeffs.items()}
                  for form in (pair.d_alpha1, pair.d_alpha2))
        minus_c1, c2 = dict(d2), dict(d1)
        for out, row, negate in ((minus_c1, d1, False), (c2, d2, True)):
            for q, value in row.items():
                _accumulate(out, value, j_rows[q], negate)
        return ((minus_c1, pair.z1, True), (c2, pair.z2, False),
                (alpha2, pi_j[0].column(a) - mcp.pi[1].column(a), False),
                (alpha1, pi_j[1].column(a) + mcp.pi[0].column(a), True))

    terms = [closed_form_terms(a) for a in range(n)]
    findings.append(certify("closed form of the covariant derivative of J", (
        (f"residual at ({a},{b})", nabla_j[a][b], combination(
            presentation, ((coefficients.get(b), field, negate)
                           for coefficients, field, negate in terms[a])))
        for a in range(n) for b in range(n))))

    witness_entry = d_fundamental.nonzero_witness()
    findings.append(Finding(
        "fundamental 2-form is not closed", witness_entry is not None,
        "" if witness_entry is None else
        f"coefficient {witness_entry[0]} -> {witness_entry[1]}"))
    return findings
