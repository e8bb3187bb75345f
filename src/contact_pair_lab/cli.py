"""Command-line scenario runner.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 input/usage/schema error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional, Sequence

from .checks import STAGES, CheckReport, run_checks
from .corpus import (CORPUS_NAMES, Scenario, ScenarioError, corpus_build,
                     load_scenario)
from .contact import ValidationError
from .frames import FrameError
from .scalars import ParseError, ScalarError
from .submanifolds import SubframeError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contact-pair-lab",
        description="Exact verification of metric contact pair scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="built-in scenarios")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="list built-in scenario names")
    run = corpus_sub.add_parser("run", help="run checks on a scenario")
    run.add_argument("name", nargs="?", default=None,
                     help="scenario name (default: every scenario)")
    run.add_argument("--params", default=None, metavar="H,K",
                     help="type parameters for the darboux scenario")
    _common_flags(run)

    verify = sub.add_parser("verify", help="run checks on a scenario file")
    verify.add_argument("--input", required=True, metavar="FILE")
    _common_flags(verify)

    subm = sub.add_parser("submanifold",
                          help="analyze one named submanifold of a scenario"
                               " file")
    subm.add_argument("--input", required=True, metavar="FILE")
    subm.add_argument("--name", required=True, metavar="SUB")
    subm.add_argument("--theorems", action="store_true",
                      help="accepted for older invocations; has no effect,"
                           " theorem rows are always shown")
    subm.add_argument("--format", choices=("text", "json"), default="text")
    subm.add_argument("--seed", type=int, default=1)
    return parser


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--checks", default="all", metavar="LIST",
                        help="comma-separated subset of: "
                             + ", ".join(STAGES) + ", all")
    parser.add_argument("--stats", action="store_true",
                        help="print each run's kernel counters after the"
                             " rows (to stderr with --format json)")


def _parse_checks(text: str) -> List[str]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    unknown = [item for item in items
               if item != "all" and item not in STAGES]
    if unknown:
        raise ScenarioError(
            f"--checks: unknown selection {', '.join(unknown)}")
    return items or ["all"]


def _emit(report: CheckReport, fmt: str, out,
          submanifold: Optional[str] = None) -> int:
    if fmt == "json":
        data = report.to_dict()
        if submanifold is not None:
            data["submanifold"] = submanifold
        json.dump(data, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        title = report.scenario
        if submanifold is not None:
            title += f", submanifold: {submanifold}"
        out.write(f"scenario: {title} (seed {report.seed})\n")
        for row in report.rows:
            line = f"  [{row.verdict:>7s}] {row.id}"
            if row.witness:
                line += f"  -- {row.witness}"
            out.write(line + "\n")
        out.write(f"overall: {report.overall}\n")
    return 0 if report.overall == "pass" else 1


def _run_scenarios(scenarios: Sequence[Scenario], selection: List[str],
                   args, out, err) -> int:
    reports = [run_checks(scenario, selection, seed=args.seed)
               for scenario in scenarios]
    if args.format == "json" and len(reports) > 1:
        json.dump([r.to_dict() for r in reports], out, indent=2,
                  sort_keys=True)
        out.write("\n")
        code = 1 if any(r.overall != "pass" for r in reports) else 0
    else:
        code = max(_emit(report, args.format, out) for report in reports)
    if args.stats:
        # after every row; a JSON document on stdout stays one document
        stream = err if args.format == "json" else out
        for report in reports:
            stream.write(f"stats: {report.scenario}\n")
            for name, value in report.counters.items():
                stream.write(f"  {name} {value}\n")
    return code


def _cmd_submanifold(args, seed: int, out) -> int:
    scenario = load_scenario(args.input)
    if args.name not in scenario.submanifolds:
        raise ScenarioError(
            f"submanifolds.{args.name}: not present in {args.input}; "
            f"available: {', '.join(sorted(scenario.submanifolds)) or 'none'}")
    narrowed = dataclasses.replace(
        scenario, submanifolds={args.name: scenario.submanifolds[args.name]})
    report = run_checks(narrowed, ["submanifolds"], seed)
    prefix = f"submanifold.{args.name}."
    report.rows = [dataclasses.replace(row, id=row.id.removeprefix(prefix))
                   for row in report.rows]
    return _emit(report, args.format, out, submanifold=args.name)


def main(argv: Optional[Sequence[str]] = None,
         out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    seed = getattr(args, "seed", 1)

    try:
        if args.command == "corpus":
            if args.corpus_command == "list":
                for name in CORPUS_NAMES:
                    out.write(name + "\n")
                return 0
            selection = _parse_checks(args.checks)
            params = None
            if args.params is not None:
                try:
                    h, k = (int(x) for x in args.params.split(","))
                except ValueError:
                    raise ScenarioError("--params: expected H,K integers")
                params = (h, k)
            if args.name is None:
                scenarios = [corpus_build(name) for name in CORPUS_NAMES]
            else:
                scenarios = [corpus_build(args.name, params)]
            return _run_scenarios(scenarios, selection, args, out, err)
        if args.command == "verify":
            selection = _parse_checks(args.checks)
            scenario = load_scenario(args.input)
            return _run_scenarios([scenario], selection, args, out, err)
        if args.command == "submanifold":
            return _cmd_submanifold(args, seed, out)
    except (ScenarioError, ParseError, ScalarError, OSError, FrameError,
            ValidationError, SubframeError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
