"""Exact symbolic verification toolkit for metric contact pair geometry.

The float oracle, ``ORACLE_IDS`` and ``numeric_oracle``, loads on first
access to either name (PEP 562), and numpy with it: the exact pipeline and
the CLI never evaluate a float, so they run without numpy, which the
``oracle`` extra installs.
"""

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

_ORACLE_NAMES = ("ORACLE_IDS", "numeric_oracle")


def __getattr__(name):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        from . import oracle
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise ImportError(
            f"contact_pair_lab.{name} needs numpy: install the oracle extra, "
            "pip install 'contact-pair-lab[oracle]'") from exc
    # bound here, later reads are plain attribute lookups
    for lazy in _ORACLE_NAMES:
        globals()[lazy] = getattr(oracle, lazy)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_ORACLE_NAMES))
