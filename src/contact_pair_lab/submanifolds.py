"""Involutive subframes: invariance profiles, second fundamental form,
mean curvature, induced structures, and the minimality certifications.

A submanifold is modeled as an involutive subframe of the ambient frame:
a spanning set of vector fields whose pairwise brackets stay in the span.
The subframe is a ``frames.FrameContext`` over the presentation, so the
induced forms are pullbacks and the induced structure is certified with
the same bracket, exterior derivative and connection as the ambient one.
All identities are certified exactly, over rational functions, as ambient
identities along the distribution; nothing here evaluates in floating
point.  Each subframe builds its tangent projector and the left inverse of
its span once, so a membership test is one product; the theorem checks
read the ambient projections ``mcp.pi`` and ``mcp.foliation`` cached on the
metric contact pair.  ``classify`` returns only the invariance profile, and
``restrict_structure``, ``verify_theorems`` and ``angle_constancy`` take it
from the caller.  Their identities are certified by ``contact.certify``,
except the Reeb angle constancy, a boolean, and the induced form's value on
the induced Reeb field, which is witnessed as that value.  A Reeb field's
tangential part is vertical exactly when phi kills it: ker phi = <Z1, Z2>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .contact import Finding, MetricContactPair, certify
from .frames import (EndoField, FrameContext, LeviCivita, MetricField, PForm,
                     VectorField, _cartan_class, eval_form,
                     exterior_derivative, nonvanishing_certificate,
                     orthogonal_projector, wedge)
from .scalars import ScalarError, ScalarExpr


class SubframeError(Exception):
    pass


class Subframe(FrameContext):
    """A span of ambient vector fields, closed under the Lie bracket.

    The subframe is a frame context over the presentation, as the
    presentation is over the chart: forms, exterior derivatives and Cartan
    classes of induced objects are computed against the span basis, whose
    bracket coefficients are the span coefficients of the ambient brackets.
    """

    def __init__(self, ambient, fields: Sequence[VectorField],
                 metric: MetricField, name: str = "subframe"):
        if not fields:
            raise SubframeError("empty span")
        self.metric = metric
        self.name = name
        self.base_point = ambient.base_point
        r = len(fields)

        try:
            point_matrix = [[f.components[a].evaluate(ambient.base_point)
                             for f in fields]
                            for a in range(ambient.dim)]
        except ScalarError as exc:
            raise SubframeError(
                f"{name}: span has a pole at the base point ({exc})")
        if linalg.rational_rank(point_matrix) != r:
            raise SubframeError(
                f"{name}: span is linearly dependent at the base point")

        # independent at the base point, hence over the scalar field
        self._left_inverse = linalg.left_inverse(
            [[f.components[a] for f in fields] for a in range(ambient.dim)])
        super().__init__(ambient, fields)

        self.gram = [[metric.pair(x, y) for y in self.fields]
                     for x in self.fields]
        try:
            self.gram_inverse = linalg.invert(self.gram)
        except linalg.LinearAlgebraError as exc:
            raise SubframeError(f"{name}: singular induced metric ({exc})")
        self.projector = orthogonal_projector(metric, self.fields,
                                              self.gram_inverse)
        # (connection, ShapeData) of the last shape_data call
        self._shape: Optional[Tuple[object, "ShapeData"]] = None

    def _coefficients(self, v: VectorField, a: int, b: int
                      ) -> VectorField:
        coeffs = self.membership(v)
        if coeffs is None:
            raise SubframeError(
                f"{self.name}: bracket of span fields {a} and {b} "
                f"leaves the span ({v})")
        return VectorField(self, tuple(coeffs))

    # -- tangential geometry ----------------------------------------------

    def membership(self, v: VectorField) -> Optional[List[ScalarExpr]]:
        """Span coefficients of an ambient field, or None when outside."""
        return linalg.solve_in_span(self._left_inverse, v.components)

    def contains(self, v: VectorField) -> bool:
        return self.membership(v) is not None

    def tangent(self, v: VectorField) -> VectorField:
        """Orthogonal projection onto the span, as an ambient field."""
        return self.projector.apply(v)

    def normal(self, v: VectorField) -> VectorField:
        return v - self.tangent(v)

    def __repr__(self):
        return f"Subframe({self.name}, dim={self.dim})"


@dataclass
class InvarianceProfile:
    dimension: int
    phi_invariant: bool
    j_invariant: bool
    t_invariant: bool
    rho_invariant: bool
    reeb_position: str
    z1_tangential: VectorField
    z2_tangential: VectorField
    # the first norm probe that left the position mixed/unknown, or ""
    position_probe: str = ""

    @property
    def tangent_both(self) -> bool:
        return self.reeb_position == "tangent-both"


def _endo_invariant(sub: Subframe, endo: EndoField) -> bool:
    return all(sub.contains(endo.apply(f)) for f in sub.fields)


def classify(sub: Subframe, mcp: MetricContactPair) -> InvarianceProfile:
    pair = mcp.pair
    g = mcp.metric
    points = [sub.ambient.base_point, *mcp.probes]

    phi_inv = _endo_invariant(sub, mcp.structure.phi)
    j_inv = _endo_invariant(sub, mcp.structure.j)
    t_inv = _endo_invariant(sub, mcp.structure.t)
    rho_inv = _endo_invariant(sub, mcp.structure.rho)

    z1t = sub.tangent(pair.z1)
    z2t = sub.tangent(pair.z2)
    z1_perp, z2_perp = pair.z1 - z1t, pair.z2 - z2t
    tangent = [z1_perp.is_zero(), z2_perp.is_zero()]
    orthogonal = [z1t.is_zero(), z2t.is_zero()]

    probe = ""
    if tangent[0] and tangent[1]:
        position = "tangent-both"
    elif tangent[0] and orthogonal[1]:
        position = "tangent-Z1-orthogonal-Z2"
    elif tangent[1] and orthogonal[0]:
        position = "tangent-Z2-orthogonal-Z1"
    elif not any(tangent) and not any(orthogonal):
        position = "nowhere-tangent-nowhere-orthogonal"
        for label, v in (
                ("tangential part of Z1", z1t), ("tangential part of Z2", z2t),
                ("normal part of Z1", z1_perp), ("normal part of Z2", z2_perp)):
            ok, probe = nonvanishing_certificate(
                f"{label} of {sub.name}", [g.norm_squared(v)], points)
            if not ok:
                position = "mixed/unknown"
                break
    else:
        position = "mixed/unknown"

    return InvarianceProfile(sub.dim, phi_inv, j_inv, t_inv, rho_inv,
                             position, z1t, z2t, probe)


@dataclass
class ShapeData:
    table: Dict[Tuple[int, int], VectorField]
    mean_curvature: VectorField
    minimal: bool


def second_fundamental_form(sub: Subframe, connection, x: VectorField,
                            y: VectorField) -> VectorField:
    """Normal part of the ambient covariant derivative of tangent fields."""
    for label, v in (("first", x), ("second", y)):
        if not sub.contains(v):
            raise SubframeError(f"{label} argument is not tangent to the span")
    return sub.normal(connection.nabla(x, y))


def shape_data(sub: Subframe, connection) -> ShapeData:
    """Second fundamental form on the span fields and the mean curvature.

    The result is cached on ``sub`` for the last connection it was
    computed with.
    """
    if sub._shape is not None and sub._shape[0] is connection:
        return sub._shape[1]
    table: Dict[Tuple[int, int], VectorField] = {}
    for a in range(sub.dim):
        for b in range(a, sub.dim):
            table[(a, b)] = sub.normal(
                connection.nabla(sub.fields[a], sub.fields[b]))
    h = None
    for a in range(sub.dim):
        for b in range(sub.dim):
            entry = table[(a, b) if a <= b else (b, a)]
            term = entry.scale(sub.gram_inverse[a][b])
            h = term if h is None else h + term
    h = h.scale(sub.scalar(Fraction(1, sub.dim)))
    data = ShapeData(table, h, h.is_zero())
    sub._shape = (connection, data)
    return data


def angle_constancy(sub: Subframe, mcp: MetricContactPair,
                    profile: InvarianceProfile) -> bool:
    """Constancy of the Reeb angle along the vertical tangent direction,
    certified radical-free as Z1T applied to its own squared norm."""
    if profile.reeb_position != "nowhere-tangent-nowhere-orthogonal" \
            or not profile.phi_invariant:
        raise SubframeError(
            "angle constancy requires a phi-invariant span nowhere tangent "
            "and nowhere orthogonal to the Reeb fields")
    z1t = profile.z1_tangential
    return z1t.apply(mcp.metric.norm_squared(z1t)).is_zero()


def _induced_pair_verdict(sub: Subframe, alpha1: PForm, alpha2: PForm,
                          points) -> Finding:
    """Type (h, k) exactly when the Cartan classes are 2h + 1 and 2k + 1,
    summing to the dimension, and the wedge of the two class witnesses,
    the volume form alpha1 ^ (d alpha1)^h ^ alpha2 ^ (d alpha2)^k, is
    nonzero; a class 2h + 1 makes (d alpha1)^(h+1) vanish."""
    r = sub.dim
    (c1, witness1, probe1), (c2, witness2, probe2) = (
        _cartan_class(alpha, exterior_derivative(alpha), points, label)
        for alpha, label in ((alpha1, "first induced form"),
                             (alpha2, "second induced form")))
    classes, probe = (c1, c2), "; ".join(t for t in (probe1, probe2) if t)
    if r % 2 == 1 or r < 2:
        return Finding("induced pair is a contact pair", False,
                       f"dimension {r} is odd; classes {classes}", probe)
    if (c1 % 2 == 1 and c2 % 2 == 1 and c1 + c2 == r
            and not wedge(witness1, witness2).is_zero()):
        return Finding("induced pair is a contact pair", True,
                       f"type ({c1 // 2},{c2 // 2}); classes {classes}",
                       probe)
    return Finding("induced pair is a contact pair", False,
                   f"no admissible type; classes {classes}", probe)


def _tangent_reeb(profile: InvarianceProfile) -> Optional[int]:
    """For a phi-invariant span tangent to one Reeb field and orthogonal to
    the other, the index (0 or 1) of the tangent one, which also selects
    its form and the other index's foliation projection; None otherwise."""
    if not profile.phi_invariant:
        return None
    return {"tangent-Z1-orthogonal-Z2": 0,
            "tangent-Z2-orthogonal-Z1": 1}.get(profile.reeb_position)


def restrict_structure(sub: Subframe, mcp: MetricContactPair,
                       profile: InvarianceProfile) -> List[Finding]:
    """Induced forms, metric and endomorphism on the span, with the
    contact-metric and Sasakian certifications when they apply; ``profile``
    is ``classify(sub, mcp)``."""
    pair = mcp.pair
    points = [sub.base_point, *mcp.probes]
    findings: List[Finding] = []

    alphas = [sub.pullback(alpha) for alpha in pair.alphas()]
    findings.append(_induced_pair_verdict(sub, *alphas, points))

    i = _tangent_reeb(profile)
    if i is None:
        return findings

    alpha = alphas[i]
    reeb = VectorField(sub, tuple(sub.membership((pair.z1, pair.z2)[i])))
    phi_tilde = EndoField.from_fields(sub, [
        VectorField(sub, tuple(sub.membership(mcp.structure.phi.apply(f))))
        for f in sub.fields])
    g_tilde = MetricField(sub, sub.gram)
    d_alpha = exterior_derivative(alpha)

    value = eval_form(alpha, reeb)
    findings.append(Finding("induced form evaluates to one on the induced "
                            "Reeb field", value == sub.one, str(value)))

    r = range(sub.dim)
    square = phi_tilde.compose(phi_tilde)
    expected = (EndoField.identity(sub).scale(-sub.one)
                + EndoField.outer(alpha, reeb))
    findings.append(certify("induced endomorphism squares correctly", (
        (f"residual along e_{a}", square.column(a), expected.column(a))
        for a in r)))

    sub_frame_fields = [sub.frame_field(a) for a in r]
    # phi_lowered[b][a] = g(phi e_b, e_a)
    phi_lowered = [g_tilde.lower(phi_tilde.column(b)) for b in r]
    findings.append(certify(
        "induced metric is associated to the induced contact form", (
            (f"residual at ({a},{b})", phi_lowered[b][a],
             eval_form(d_alpha, sub_frame_fields[a], sub_frame_fields[b]))
            for a in r for b in r)))

    if mcp.normality.normal.ok:
        conn = LeviCivita(g_tilde)

        def sasakian_entries():
            for a in r:
                nabla_phi = conn.nabla_endo(a, phi_tilde)
                for b in r:
                    yield (f"residual at ({a},{b})", nabla_phi[b],
                           reeb.scale(sub.gram[a][b])
                           - sub_frame_fields[a].scale(alpha.get((b,))))

        findings.append(certify("induced structure satisfies the Sasakian "
                                "covariant identity", sasakian_entries()))
    return findings


def _pairing_identity(condition: str, b_of, phi: EndoField,
                      horizontals: Sequence[VectorField], folded: Sequence,
                      rhs) -> Finding:
    """b(X, phi Y) - phi b(X, Y) = rhs(FX, FY) on the horizontal fields,
    where ``folded`` holds FX for each X."""
    return certify(condition, (
        ("residual", b_of(x, phi.apply(y)) - phi.apply(b_of(x, y)),
         rhs(fx, fy))
        for x, fx in zip(horizontals, folded)
        for y, fy in zip(horizontals, folded)))


def _orthogonal_complement_in_span(sub: Subframe, direction: VectorField,
                                   g: MetricField) -> List[VectorField]:
    """Span fields with their components along ``direction`` removed."""
    norm = g.norm_squared(direction)
    out = []
    for f in sub.fields:
        reduced = f - direction.scale(g.pair(f, direction) / norm)
        if not reduced.is_zero():
            out.append(reduced)
    return out


def verify_theorems(sub: Subframe, mcp: MetricContactPair,
                    profile: InvarianceProfile) -> List[Finding]:
    """Dispatch the minimality certifications on the invariance profile
    ``profile = classify(sub, mcp)``.

    A phi-invariant span first gets the dimension parity its Reeb position
    forces and the check that it is not orthogonal to both Reeb fields.
    A J-invariant span also gets the orthonormal-basis mean curvature
    formula, certified exactly in its trace form; its condition text still
    reads "probe residual below tolerance" because it names the report row.
    """
    pair = mcp.pair
    g = mcp.metric
    conn = mcp.connection
    phi = mcp.structure.phi
    j = mcp.structure.j
    findings: List[Finding] = []
    zs = (pair.z1, pair.z2)
    z_tangential = (profile.z1_tangential, profile.z2_tangential)
    z1_perp, z2_perp = (z - zt for z, zt in zip(zs, z_tangential))
    zero = VectorField.zero(mcp.presentation)

    if profile.phi_invariant:
        if profile.tangent_both:
            findings.append(Finding(
                "even dimension for a phi-invariant span tangent to both "
                "Reeb fields", sub.dim % 2 == 0, f"dim {sub.dim}"))
        elif profile.reeb_position in ("tangent-Z1-orthogonal-Z2",
                                       "tangent-Z2-orthogonal-Z1",
                                       "nowhere-tangent-nowhere-orthogonal"):
            findings.append(Finding(
                "odd dimension for a phi-invariant span transverse to one "
                "Reeb direction", sub.dim % 2 == 1, f"dim {sub.dim}"))
        findings.append(Finding(
            "phi-invariant span is not orthogonal to both Reeb fields",
            not all(zt.is_zero() for zt in z_tangential)))

    shape = shape_data(sub, conn)

    def b_of(x: VectorField, y: VectorField) -> VectorField:
        return sub.normal(conn.nabla(x, y))

    semi = _tangent_reeb(profile)
    if semi is not None:
        z_tan, z_orth = zs[semi], zs[1 - semi]
        horizontals = _orthogonal_complement_in_span(sub, z_tan, g)
        folded = [mcp.foliation[1 - semi].apply(x) for x in horizontals]
        difference = z_orth - z_tan
        findings.append(_pairing_identity(
            "shape operator pairing identity on horizontal span fields",
            b_of, phi, horizontals, folded,
            lambda xi, yi: difference.scale(g.pair(xi, yi))))
        findings.append(certify(
            "shape operator annihilates the tangent Reeb field", [
                (f"b(Z{semi + 1},Z{semi + 1})", b_of(z_tan, z_tan), zero)]))
        findings.append(certify("mean curvature vanishes", [
            ("H", shape.mean_curvature, zero)]))

    nowhere = profile.phi_invariant and profile.reeb_position == \
        "nowhere-tangent-nowhere-orthogonal"
    if nowhere:
        z1t = profile.z1_tangential
        norm = g.norm_squared(z1t)
        constant = angle_constancy(sub, mcp, profile)
        findings.append(Finding("Reeb angle is constant along the vertical "
                                "tangent direction", constant))
        findings.append(Finding(
            "minimality is equivalent to angle constancy",
            shape.minimal == constant,
            f"minimal={shape.minimal}, constant={constant}"))

        horizontals = _orthogonal_complement_in_span(sub, z1t, g)
        # (F_1 x, F_2 x) for each horizontal x
        folded = [[f.apply(x) for f in mcp.foliation] for x in horizontals]
        findings.append(_pairing_identity(
            "shape operator pairing identity on fields orthogonal to the "
            "vertical direction", b_of, phi, horizontals, folded,
            lambda fx, fy: (z1_perp.scale(g.pair(fx[0], fy[0]))
                            + z2_perp.scale(g.pair(fx[1], fy[1])))))

        findings.append(certify(
            "shape trace concentrates on the vertical tangent direction", [
                ("shape trace",
                 shape.mean_curvature.scale(sub.scalar(sub.dim)),
                 b_of(z1t, z1t).scale(sub.one / norm))]))

        derivative = conn.nabla(z1t, z1t)
        tangential = sub.tangent(derivative)
        findings.append(certify(
            "vertical direction derivative has no tangential part", [
                ("tangential part", tangential, zero)]))
        normal = (derivative - tangential).components
        along = sub.normal(j.apply(z1t)).components
        n_amb = sub.ambient.dim
        # the 2x2 minors of (normal part, rotated direction) vanish
        findings.append(certify(
            "vertical direction derivative is normal along the rotated "
            "vertical direction", (
                (f"minor ({a},{b})", normal[a] * along[b],
                 normal[b] * along[a])
                for a in range(n_amb) for b in range(a + 1, n_amb))))

    if profile.j_invariant:
        probes_fields = list(sub.fields)
        for a in range(sub.dim):
            for b in range(a + 1, sub.dim):
                probes_fields.append(sub.fields[a] + sub.fields[b])
        two = sub.scalar(2)

        def complex_shape_entries():
            for x in probes_fields:
                jx = j.apply(x)
                a1x, a2x = (eval_form(alpha, x) for alpha in pair.alphas())
                pi1x, pi2x = (p.apply(x) for p in mcp.pi)
                pi1jx, pi2jx = (p.apply(jx) for p in mcp.pi)
                bracket_term = (pi1jx.scale(-a1x) + pi2jx.scale(-a2x)
                                + pi1x.scale(-a2x) + pi2x.scale(a1x))
                yield ("residual", b_of(x, x) + b_of(jx, jx),
                       z1_perp.scale(-two * g.norm_squared(pi2x))
                       + z2_perp.scale(two * g.norm_squared(pi1x))
                       + sub.normal(bracket_term).scale(two))

        findings.append(certify("complex shape identity on span fields",
                                complex_shape_entries()))
        findings.append(Finding(
            "minimality is equivalent to Reeb tangency",
            shape.minimal == profile.tangent_both,
            f"minimal={shape.minimal}, tangent-both={profile.tangent_both}"))
        # the orthonormal-basis formula sums |P_i e|^2 over a J-adapted half
        # basis; J is an isometry commuting with P_i, so that sum is half
        # of tau_i = tr(Pi P_i) = sum_ac Pi^a_c P_i^c_a, Pi the tangent
        # projector, and
        # dim H = -tau_2 Z1perp + tau_1 Z2perp + 2 (P_2 Z1T - P_1 Z2T)perp
        p1, p2 = mcp.pi
        tangent_columns = sub.projector.columns
        tau1, tau2 = (sum((sum((tangent_columns[c].components[a] * value
                                for c, value in column.support), sub.zero)
                           for a, column in enumerate(p.columns)), sub.zero)
                      for p in (p1, p2))
        mixed = p2.apply(z_tangential[0]) - p1.apply(z_tangential[1])
        rhs = (z1_perp.scale(-tau2) + z2_perp.scale(tau1)
               + sub.normal(mixed).scale(two))
        findings.append(certify(
            "normalized mean curvature probe residual below tolerance", [
                ("residual", shape.mean_curvature, rhs.scale(
                    sub.scalar(Fraction(1, sub.dim))))]))

    if profile.phi_invariant:
        for i, (zt, zperp) in enumerate(
                zip(z_tangential, (z1_perp, z2_perp)), start=1):
            kills = certify(
                f"endomorphism kills the tangential part of Z{i}", [
                    (f"phi(Z{i}T)", phi.apply(zt), zero)])
            findings.append(kills)
            findings.append(certify(
                f"endomorphism kills the normal part of Z{i}", [
                    (f"phi(Z{i}perp)", phi.apply(zperp), zero)]))
            # the certified phi^2 and phi Z_i = 0 make ker phi = span(Z1, Z2)
            findings.append(Finding(
                f"tangential part of Z{i} is vertical", kills.ok))

    flags = (profile.phi_invariant, profile.j_invariant,
             profile.t_invariant, profile.tangent_both)
    if sum(flags) >= 2:
        findings.append(Finding(
            "two invariance properties imply all four",
            all(flags), f"flags={flags}"))

    return findings
