"""Exact symbolic verification toolkit for metric contact pair geometry."""

from .scalars import ParseError, Rational, ScalarError, ScalarExpr, parse_expr
from .frames import (ChartDomainWarning, EndoField, FramePresentation,
                     LeviCivita, MetricField, PForm, VectorField,
                     cartan_class, eval_form, exterior_derivative,
                     lie_derivative_endo, nijenhuis, one_form,
                     seeded_probe_points, wedge)
from .contact import (ContactPair, ContactPairStructure, Finding,
                      MetricContactPair, NormalityReport, ValidationError,
                      check_connection_identities, check_curvature_identity,
                      hermitian_data, natural_complex_structures, normality,
                      solve_reeb, validate_contact_pair, validate_metric,
                      validate_structure)
from .submanifolds import (InvarianceProfile, ShapeData, Subframe,
                           SubframeError, angle_constancy, classify,
                           restrict_structure, second_fundamental_form,
                           shape_data, verify_theorems)
from .corpus import (CORPUS_NAMES, Scenario, ScenarioError, corpus_build,
                     load_scenario, save_scenario, scenario_from_dict,
                     scenario_to_dict)
from .checks import CHECK_IDS, CheckReport, CheckRow, run_checks
from .oracle import ORACLE_IDS, numeric_oracle

__all__ = [
    "ParseError", "Rational", "ScalarError", "ScalarExpr", "parse_expr",
    "ChartDomainWarning", "EndoField", "FramePresentation", "LeviCivita",
    "MetricField", "PForm", "VectorField", "cartan_class", "eval_form",
    "exterior_derivative", "lie_derivative_endo", "nijenhuis", "one_form",
    "seeded_probe_points", "wedge",
    "ContactPair", "ContactPairStructure", "Finding", "MetricContactPair",
    "NormalityReport", "ValidationError",
    "check_connection_identities", "check_curvature_identity",
    "hermitian_data", "natural_complex_structures", "normality",
    "solve_reeb", "validate_contact_pair", "validate_metric",
    "validate_structure",
    "InvarianceProfile", "ShapeData", "Subframe", "SubframeError",
    "angle_constancy", "classify", "restrict_structure",
    "second_fundamental_form", "shape_data", "verify_theorems",
    "CORPUS_NAMES", "Scenario", "ScenarioError", "corpus_build",
    "load_scenario", "save_scenario", "scenario_from_dict",
    "scenario_to_dict",
    "CHECK_IDS", "CheckReport", "CheckRow", "run_checks",
    "ORACLE_IDS", "numeric_oracle",
]
