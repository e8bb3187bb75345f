"""Built-in scenarios and the JSON scenario file format.

A scenario stores everything as expression text in the scalar-algebra
grammar: forms in coordinate components, the endomorphism, metric and
submanifold spans in frame components.  Construction of the exact
geometric objects is deferred to the accessor methods.  ``_cells`` walks
the expression cells of a scenario dict, for the schema check.

Each scenario parses each distinct cell text once: its parse table, kept
in ``_cache`` with the exact objects, is filled by the eager check of
``scenario_from_dict`` (or on first use), and the accessors and the float
oracle read their expressions from it.  Clearing ``_cache`` clears the
table too, and a ``dataclasses.replace`` copy starts with a table of its
own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .frames import EndoField, FramePresentation, MetricField, PForm, one_form
from .scalars import ParseError, ParseTable, ScalarExpr
from .submanifolds import Subframe

CORPUS_NAMES = ("darboux", "heis6", "heis6-leaf3", "heis6-n4",
                "darboux-J-noninvariant")


class ScenarioError(Exception):
    """Schema violation; the message is path-addressed."""


@dataclass
class Scenario:
    name: str
    coordinates: List[str]
    frame: List[List[str]]
    base_point: Dict[str, str]
    alpha1: List[str]
    alpha2: List[str]
    pair_type: Tuple[int, int]
    phi: List[List[str]]
    metric: List[List[str]]
    submanifolds: Dict[str, List[List[str]]] = field(default_factory=dict)
    expectations: Dict[str, str] = field(default_factory=dict)
    # not an init field, so `dataclasses.replace` gives the copy a cache of
    # its own instead of the original's objects for the original fields
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def parse_table(self) -> ParseTable:
        """The scenario's expressions by cell text, each parsed once."""
        if "parsed" not in self._cache:
            self._cache["parsed"] = ParseTable(self.coordinates)
        return self._cache["parsed"]

    def _parsed(self, texts: Sequence[str]) -> List[ScalarExpr]:
        table = self.parse_table()
        return [table[text] for text in texts]

    def presentation(self) -> FramePresentation:
        if "presentation" not in self._cache:
            base = {name: Fraction(text)
                    for name, text in self.base_point.items()}
            self._cache["presentation"] = FramePresentation(
                self.coordinates, [self._parsed(row) for row in self.frame],
                base)
        return self._cache["presentation"]

    def _coordinate_form(self, components: Sequence[str]) -> PForm:
        """The pullback to the frame of the coordinate form on the chart."""
        pres = self.presentation()
        return pres.pullback(one_form(pres.ambient,
                                      self._parsed(components)))

    def forms(self) -> Tuple[PForm, PForm]:
        if "forms" not in self._cache:
            self._cache["forms"] = (self._coordinate_form(self.alpha1),
                                    self._coordinate_form(self.alpha2))
        return self._cache["forms"]

    def phi_endo(self) -> EndoField:
        if "phi" not in self._cache:
            self._cache["phi"] = EndoField(
                self.presentation(), [self._parsed(row) for row in self.phi])
        return self._cache["phi"]

    def metric_field(self) -> MetricField:
        if "metric" not in self._cache:
            gram = [self._parsed(row) for row in self.metric]
            self._cache["metric"] = MetricField(self.presentation(), gram)
        return self._cache["metric"]

    def subframe(self, name: str) -> Subframe:
        key = ("sub", name)
        if key not in self._cache:
            pres = self.presentation()
            fields = [pres.vector(self._parsed(vec))
                      for vec in self.submanifolds[name]]
            self._cache[key] = Subframe(pres, fields, self.metric_field(),
                                        name)
        return self._cache[key]


# -- built-in scenarios ----------------------------------------------------

def _zeros(n: int) -> List[str]:
    return ["0"] * n


def _darboux_data(h: int, k: int) -> dict:
    if h + k < 1 or h < 0 or k < 0 or h > 2 or k > 2:
        raise ScenarioError(f"type ({h},{k}) out of the supported range")
    coords = ([f"x{i}" for i in range(1, h + 1)]
              + [f"y{i}" for i in range(1, h + 1)] + ["z"]
              + [f"xp{j}" for j in range(1, k + 1)]
              + [f"yp{j}" for j in range(1, k + 1)] + ["zp"])
    n = 2 * h + 2 * k + 2
    index = {name: i for i, name in enumerate(coords)}
    frame = [_zeros(n) for _ in range(n)]

    # first factor: columns 0..h-1 are d/dy_i, columns h..2h-1 are
    # d/dx_i + y_i d/dz, column 2h is the Reeb field 2 d/dz
    for i in range(1, h + 1):
        frame[index[f"y{i}"]][i - 1] = "1"
        frame[index[f"x{i}"]][h + i - 1] = "1"
        frame[index["z"]][h + i - 1] = f"y{i}"
    frame[index["z"]][2 * h] = "2"
    factor_offset = 2 * h + 1
    for j in range(1, k + 1):
        frame[index[f"yp{j}"]][factor_offset + j - 1] = "1"
        col = factor_offset + k + j - 1
        frame[index[f"xp{j}"]][col] = "1"
        frame[index["zp"]][col] = f"yp{j}"
    frame[index["zp"]][factor_offset + 2 * k] = "2"

    alpha1 = _zeros(n)
    alpha1[index["z"]] = "1/2"
    for i in range(1, h + 1):
        alpha1[index[f"x{i}"]] = f"-y{i}/2"
    alpha2 = _zeros(n)
    alpha2[index["zp"]] = "1/2"
    for j in range(1, k + 1):
        alpha2[index[f"xp{j}"]] = f"-yp{j}/2"

    phi = [_zeros(n) for _ in range(n)]
    for i in range(h):
        phi[h + i][i] = "1"
        phi[i][h + i] = "-1"
    for j in range(k):
        phi[factor_offset + k + j][factor_offset + j] = "1"
        phi[factor_offset + j][factor_offset + k + j] = "-1"

    metric = [_zeros(n) for _ in range(n)]
    for a in range(n):
        if a == 2 * h or a == n - 1:
            metric[a][a] = "1"
        else:
            metric[a][a] = "1/4"
    return {"coordinates": coords, "frame": frame,
            "base_point": {c: "0" for c in coords},
            "alpha1": alpha1, "alpha2": alpha2, "pair_type": (h, k),
            "phi": phi, "metric": metric}


def _heis6_data() -> dict:
    coords = ["x", "y", "z", "u", "v", "w"]
    frame = [
        ["1", "0", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0", "0"],
        ["y", "0", "1", "0", "0", "0"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "1", "0"],
        ["0", "0", "0", "v", "0", "1"],
    ]
    alpha1 = ["-y", "0", "1", "0", "0", "0"]
    alpha2 = ["0", "0", "0", "-v", "0", "1"]
    phi = [_zeros(6) for _ in range(6)]
    phi[0][1] = "1"   # second horizontal of the first factor -> first
    phi[1][0] = "-1"
    phi[3][4] = "1"
    phi[4][3] = "-1"
    metric = [_zeros(6) for _ in range(6)]
    for a, value in enumerate(("1/2", "1/2", "1", "1/2", "1/2", "1")):
        metric[a][a] = value
    return {"coordinates": coords, "frame": frame,
            "base_point": {c: "0" for c in coords},
            "alpha1": alpha1, "alpha2": alpha2, "pair_type": (1, 1),
            "phi": phi, "metric": metric}


_HEIS6_SUBFRAMES = {
    "factor": [["1", "0", "0", "0", "0", "0"],
               ["0", "1", "0", "0", "0", "0"],
               ["0", "0", "1", "0", "0", "0"]],
    "heis6-leaf3": [["0", "0", "1", "0", "0", "1"],
                    ["1", "0", "0", "1", "0", "0"],
                    ["0", "1", "0", "0", "1", "0"]],
    "heis6-n4": [["0", "0", "1", "0", "0", "0"],
                 ["0", "0", "0", "0", "0", "1"],
                 ["1", "0", "0", "1", "0", "0"],
                 ["0", "1", "0", "0", "1", "0"]],
}

_INDUCED_PAIR_ID = "induced-pair-is-a-contact-pair"


def _heis6_expectations(subs: Sequence[str]) -> Dict[str, str]:
    out = {}
    for name in subs:
        # a leaf of one foliation or a diagonal leaf is phi-invariant but
        # not invariant under the rotated structures
        if name in ("factor", "heis6-leaf3"):
            for endo in ("J", "T", "rho"):
                out[f"submanifold.{name}.invariant-{endo}"] = "fail"
        out[f"submanifold.{name}.{_INDUCED_PAIR_ID}"] = "fail"
    return out


def corpus_build(name: str, params: Optional[Tuple[int, int]] = None
                 ) -> Scenario:
    if name == "darboux":
        h, k = params if params is not None else (1, 1)
        data = _darboux_data(h, k)
        return Scenario(name="darboux", **data)
    if params is not None:
        raise ScenarioError(f"scenario {name} takes no parameters")
    if name in ("heis6", "heis6-leaf3", "heis6-n4"):
        # fresh span lists, so that editing one build leaves the others
        subs = {sub: [list(vector) for vector in vectors]
                for sub, vectors in _HEIS6_SUBFRAMES.items()
                if name in ("heis6", sub)}
        return Scenario(name=name, submanifolds=subs,
                        expectations=_heis6_expectations(subs),
                        **_heis6_data())
    if name == "darboux-J-noninvariant":
        data = _darboux_data(1, 0)
        data["base_point"]["x1"] = "1"
        # span {Y1, J Y1} with Y1 built from the first horizontal pair
        sub = {"darboux-J-noninvariant": [["1", "0", "x1/2", "0"],
                                          ["0", "1", "0", "x1/2"]]}
        expectations = {
            "submanifold.darboux-J-noninvariant.invariant-phi": "fail",
            "submanifold.darboux-J-noninvariant.invariant-T": "fail",
            "submanifold.darboux-J-noninvariant.invariant-rho": "fail",
            "submanifold.darboux-J-noninvariant.minimal": "fail",
            "submanifold.darboux-J-noninvariant."
            + _INDUCED_PAIR_ID: "fail",
        }
        return Scenario(name=name, submanifolds=sub,
                        expectations=expectations, **data)
    raise ScenarioError(f"unknown scenario name {name!r}; "
                        f"choose from {', '.join(CORPUS_NAMES)}")


# -- JSON serialization ----------------------------------------------------

_SCHEMA_KEYS = ("coordinates", "frame", "base_point", "alpha1", "alpha2",
                "type", "phi", "metric", "submanifolds", "expectations")


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ScenarioError(f"{path}: {message}")


def _check_matrix(value, path: str, rows: int, cols: int) -> None:
    _require(isinstance(value, list) and len(value) == rows, path,
             f"expected {rows} rows")
    for i, row in enumerate(value):
        _require(isinstance(row, list) and len(row) == cols,
                 f"{path}[{i}]", f"expected {cols} entries")


def _cells(data: dict) -> Iterator[Tuple[str, object]]:
    """(path, text) for each expression cell of a scenario dict of checked
    shape: frame, phi, metric, the forms and the spans by name."""
    for key in ("frame", "phi", "metric"):
        for i, row in enumerate(data[key]):
            for j, text in enumerate(row):
                yield f"{key}[{i}][{j}]", text
    for key in ("alpha1", "alpha2"):
        for i, text in enumerate(data[key]):
            yield f"{key}[{i}]", text
    subs = data.get("submanifolds", {})
    for name in sorted(subs):
        for i, vector in enumerate(subs[name]):
            for j, text in enumerate(vector):
                yield f"submanifolds.{name}[{i}][{j}]", text


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "coordinates": list(scenario.coordinates),
        "frame": [list(row) for row in scenario.frame],
        "base_point": dict(scenario.base_point),
        "alpha1": list(scenario.alpha1),
        "alpha2": list(scenario.alpha2),
        "type": list(scenario.pair_type),
        "phi": [list(row) for row in scenario.phi],
        "metric": [list(row) for row in scenario.metric],
        "submanifolds": {name: [list(vec) for vec in vectors]
                         for name, vectors in scenario.submanifolds.items()},
        "expectations": dict(scenario.expectations),
    }


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    _require(isinstance(data, dict), "$", "expected a JSON object")
    for key in _SCHEMA_KEYS[:8]:
        _require(key in data, key, "missing required field")
    coords = data["coordinates"]
    _require(isinstance(coords, list) and coords
             and all(isinstance(c, str) for c in coords),
             "coordinates", "expected a nonempty list of names")
    _require(len(set(coords)) == len(coords), "coordinates",
             "duplicate names")
    n = len(coords)
    _check_matrix(data["frame"], "frame", n, n)
    base = data["base_point"]
    _require(isinstance(base, dict) and set(base) == set(coords),
             "base_point", "expected one rational per coordinate")
    for key, value in base.items():
        try:
            Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(f"base_point.{key}: not a rational")
    for field_name in ("alpha1", "alpha2"):
        comps = data[field_name]
        _require(isinstance(comps, list) and len(comps) == n
                 and all(isinstance(c, str) for c in comps),
                 field_name, f"expected {n} expression strings")
    pair_type = data["type"]
    _require(isinstance(pair_type, list) and len(pair_type) == 2
             and all(type(x) is int for x in pair_type),
             "type", "expected [h, k]")
    h, k = pair_type
    _require(2 * h + 2 * k + 2 == n, "type",
             f"type ({h},{k}) does not match dimension {n}")
    _check_matrix(data["phi"], "phi", n, n)
    _check_matrix(data["metric"], "metric", n, n)
    subs = data.get("submanifolds", {})
    _require(isinstance(subs, dict), "submanifolds", "expected an object")
    for sub_name, vectors in subs.items():
        path = f"submanifolds.{sub_name}"
        _require(isinstance(vectors, list) and vectors, path,
                 "expected a nonempty list of vectors")
        for i, vec in enumerate(vectors):
            _require(isinstance(vec, list) and len(vec) == n,
                     f"{path}[{i}]", f"expected {n} frame components")
    expectations = data.get("expectations", {})
    _require(isinstance(expectations, dict), "expectations",
             "expected an object")
    for key, value in expectations.items():
        _require(value in ("pass", "fail", "warn"),
                 f"expectations.{key}",
                 "verdict must be pass, fail or warn")

    scenario = Scenario(
        name=name, coordinates=list(coords),
        frame=[list(row) for row in data["frame"]],
        base_point={key: str(value) for key, value in base.items()},
        alpha1=list(data["alpha1"]), alpha2=list(data["alpha2"]),
        pair_type=(h, k), phi=[list(row) for row in data["phi"]],
        metric=[list(row) for row in data["metric"]],
        submanifolds={sub_name: [list(vec) for vec in vectors]
                      for sub_name, vectors in subs.items()},
        expectations={key: str(value)
                      for key, value in expectations.items()})
    # parse every expression eagerly, so that errors carry their location,
    # into the parse table the exact objects and the oracle read
    table = scenario.parse_table()
    for path, text in _cells(data):
        _require(isinstance(text, str), path, "expected an expression string")
        try:
            table[text]
        except ParseError as exc:
            raise ScenarioError(f"{path}: {exc}")
    return scenario


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario_to_dict(scenario), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


def load_scenario(path: str, name: Optional[str] = None) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"$: invalid JSON ({exc})")
    import os
    default = os.path.splitext(os.path.basename(path))[0]
    return scenario_from_dict(data, name or default)
