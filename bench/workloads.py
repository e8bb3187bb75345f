"""Benchmark inputs: scenario dicts for each workload, made from a seed.

The fixed scenarios are a snapshot in ``scenarios.json`` (the five corpus
scenarios, the two larger Darboux products and heis6 with a z-dependent
twisted endomorphism).  ``heis6-gauged`` is drawn from the seed: it is
heis6 written in a rescaled frame, so every verdict must equal heis6's.
Nothing here imports the package under test.
"""

from __future__ import annotations

import copy
import json
import os
import random
from fractions import Fraction
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

CORPUS = ("darboux-J-noninvariant", "darboux", "heis6", "heis6-leaf3",
          "heis6-n4")
WORKLOADS = {
    "corpus": CORPUS,
    "darboux-scaling": ("darboux-2-1", "darboux-2-2"),
    "nonconstant": ("heis6-gauged", "heis6-twisted"),
}
# Rounds (a verify pass and its cross-check passes) per untraced run.  The
# work is fixed, so every run takes the same number of samples whatever the
# machine's speed; a darboux-scaling round alone takes about 28 s.
ROUNDS = {"corpus": 3, "darboux-scaling": 1, "nonconstant": 3}
# Cross-check passes in each round.  A darboux-scaling pass takes about 6 s
# and a nonconstant one about 2 s; two of them per round steady the
# cross-check time where one round, or a short pass, gives too few samples.
CROSSCHECKS = {"corpus": 1, "darboux-scaling": 2, "nonconstant": 2}
# The cheap scenario each run verifies once before timing.  It reaches
# every module the workload loads lazily (sympy's gcd for corpus and
# nonconstant, nothing for darboux-scaling), so no import lands in a
# timed pass.
WARM_UP = {"corpus": "darboux-J-noninvariant", "darboux-scaling": "darboux",
           "nonconstant": "darboux-J-noninvariant"}

# The four horizontal heis6 fields, each rescaled by 1 + c t^2 in its own
# coordinate t.  Which fields get rescaled changes the gcd work by up to 2x
# between draws, so the seed draws only the coefficients, which leave it
# unchanged.  Positive c keeps the factor nonzero on the whole chart.
_GAUGED_FIELDS = {0: "x", 1: "y", 3: "u", 4: "v"}
_GAUGE_COEFFS = ("1/4", "1/2", "1", "2")


def load_base() -> Dict[str, dict]:
    with open(os.path.join(HERE, "scenarios.json"), encoding="utf-8") as fh:
        return json.load(fh)


def gauge_draw(base: dict, seed: int) -> Dict[int, Tuple[str, str]]:
    """The factors 1 + c t^2 of the rescaled fields, {field: (c, t)}.

    A draw with a factor that vanishes at the base point would make the
    frame singular there and is redrawn.
    """
    rng = random.Random(f"heis6-gauged/{seed}")
    while True:
        draw = {a: (rng.choice(_GAUGE_COEFFS), t)
                for a, t in _GAUGED_FIELDS.items()}
        if all(1 + Fraction(c) * Fraction(base["base_point"][t]) ** 2 != 0
               for c, t in draw.values()):
            return draw


def gauge(base: dict, draw: Dict[int, Tuple[str, str]]) -> dict:
    """The same geometry in the frame e'_a = s_a e_a.

    Coordinate forms are unchanged; frame components transform as
    phi'^a_b = phi^a_b s_b / s_a, g'_ab = s_a s_b g_ab and span vectors
    v'^a = v^a / s_a.
    """
    n = len(base["coordinates"])
    s = ["1"] * n
    for a, (c, t) in draw.items():
        s[a] = f"(1 + {c}*{t}^2)"

    def times(text: str, *factors: str) -> str:
        if text == "0":
            return "0"
        out = f"({text})"
        for factor in factors:
            if factor != "1":
                out += f"*{factor}"
        return out

    def over(text: str, factor: str) -> str:
        return text if text == "0" or factor == "1" else f"({text})/{factor}"

    out = copy.deepcopy(base)
    out["frame"] = [[times(base["frame"][i][a], s[a]) for a in range(n)]
                    for i in range(n)]
    out["phi"] = [[over(times(base["phi"][a][b], s[b]), s[a])
                   for b in range(n)] for a in range(n)]
    out["metric"] = [[times(base["metric"][a][b], s[a], s[b])
                      for b in range(n)] for a in range(n)]
    out["submanifolds"] = {
        name: [[over(vec[a], s[a]) for a in range(n)] for vec in vectors]
        for name, vectors in base["submanifolds"].items()}
    return out


def workload_inputs(workload: str, seed: int) -> List[Tuple[str, dict]]:
    """(name, scenario dict) for every scenario of one pass."""
    base = load_base()
    out = []
    for name in WORKLOADS[workload]:
        if name == "heis6-gauged":
            out.append((name, gauge(base["heis6"],
                                    gauge_draw(base["heis6"], seed))))
        else:
            out.append((name, base[name]))
    return out
