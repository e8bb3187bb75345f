"""Known answers and the checker that holds each scenario run to them.

``known_answers.json`` holds, for every benchmark scenario, the verdict
each check id must have and the side of the oracle threshold each
numeric residual must fall on.  Where a scenario's answer follows from
another scenario's (heis6 in a rescaled frame is still heis6), the entry
names that scenario under ``same_as``.  Ids that the code the benchmark
was written against leaves out of a report are listed, with the reason,
under ``known_missing``: their absence is counted and printed as a known
defect, and does not fail the run.  The fixed scenarios also carry the
report rows of the code the benchmark was written against, so a later
change can count the rows it altered.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

Row = Tuple[str, str, str]


def load_known() -> dict:
    with open(os.path.join(HERE, "known_answers.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def answer_for(known: dict, scenario: str) -> dict:
    entry = known["scenarios"][scenario]
    if "same_as" in entry:
        return known["scenarios"][entry["same_as"]]
    return entry


def verdict_problems(answer: dict, rows: Sequence[Row]) -> List[str]:
    """Rows that are missing, unexpected, duplicated or have the wrong
    verdict.  An answer may allow several verdicts for one id.  A missing
    row the answer lists under ``known_missing`` is a known defect of the
    code under test, reported by ``known_missing`` rather than here."""
    problems = []
    seen = set()
    for check_id, verdict, _ in rows:
        if check_id in seen:
            problems.append(f"{check_id}: duplicate row")
            continue
        seen.add(check_id)
        wanted = answer["verdicts"].get(check_id)
        if wanted is None:
            problems.append(f"{check_id}: unexpected row")
        elif verdict not in (wanted if isinstance(wanted, list)
                             else [wanted]):
            problems.append(f"{check_id}: verdict {verdict}, "
                            f"expected {wanted}")
    for check_id in answer["verdicts"]:
        if check_id not in seen and check_id not in answer.get(
                "known_missing", {}):
            problems.append(f"{check_id}: row missing")
    return problems


def known_missing(answer: dict, rows: Sequence[Row]) -> List[str]:
    """The rows of ``known_missing`` that are absent, with the reason."""
    seen = {row[0] for row in rows}
    return [f"{check_id}: row missing, {reason}"
            for check_id, reason in answer.get("known_missing", {}).items()
            if check_id not in seen]


def residual_problems(answer: dict, residuals: Dict[str, float],
                      threshold: float) -> List[str]:
    problems = []
    for oracle_id, side in answer["oracle"].items():
        value = residuals.get(oracle_id)
        if value is None:
            problems.append(f"oracle {oracle_id}: no residual")
        elif (value > threshold) != (side == "above"):
            problems.append(f"oracle {oracle_id}: residual {value:.3e} "
                            f"should be {side} {threshold:g}")
    return problems


def rows_changed(reference: Sequence[Row], rows: Sequence[Row]) -> int:
    """Rows whose (verdict, witness) differ from the reference, plus rows
    present on one side only."""
    ref = {r[0]: tuple(r[1:]) for r in reference}
    new = {r[0]: tuple(r[1:]) for r in rows}
    return sum(1 for key in ref.keys() | new.keys()
               if ref.get(key) != new.get(key))
