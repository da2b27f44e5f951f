"""Command-line lint runner.

Usage::

    python -m repro.lint figure1                  # named example circuit
    python -m repro.lint avr --audit-mates        # core + cached MATE audit
    python -m repro.lint avr msp430 --mate-engine sat   # SAT-backed audit
    python -m repro.lint avr --audit-prune        # def-use pruning audit
    python -m repro.lint design.json              # netlist in JSON form
    python -m repro.lint design.v --format json   # structural Verilog
    python -m repro.lint avr --write-baseline lint-baseline.json
    python -m repro.lint avr --baseline lint-baseline.json
    python -m repro.lint --list-rules

Exits 1 when any error-severity finding remains after baseline
suppression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.baseline import write_baseline
from repro.lint.registry import LintConfig, LintTarget, default_registry
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import run_lint

#: Designs loadable by name (the evaluation circuits).
NAMED_TARGETS = ("figure1", "avr", "msp430")


def _load_target(
    name: str, audit_mates: bool, audit_prune: bool = False,
    prune_program: str = "fib",
) -> LintTarget:
    """Resolve a CLI target argument to a :class:`LintTarget`."""
    if name == "figure1":
        if audit_prune:
            raise ValueError(
                "--audit-prune needs a sequential design "
                "(avr, msp430); figure1 has no flip-flops"
            )
        from repro.eval.example_circuit import (
            FIGURE1_FAULT_WIRES,
            figure1_netlist,
        )

        netlist = figure1_netlist()
        if not audit_mates:
            return LintTarget.for_netlist(netlist)
        from repro.core.search import find_mates

        search = find_mates(
            netlist, faulty_wires={w: "" for w in FIGURE1_FAULT_WIRES}
        )
        return LintTarget.for_search(netlist, search)
    if name in ("avr", "msp430"):
        from repro.eval.context import get_netlist, get_search

        netlist = get_netlist(name)
        if audit_prune:
            from repro.prune import get_prune_audit

            target = LintTarget(name=f"{name}-{prune_program}", netlist=netlist)
            target.prune = get_prune_audit(f"{name}-{prune_program}")
            if audit_mates:
                search_target = LintTarget.for_search(
                    netlist, get_search(name, False)
                )
                target.mates = search_target.mates
                target.unmatched = search_target.unmatched
            return target
        if not audit_mates:
            return LintTarget.for_netlist(netlist)
        return LintTarget.for_search(netlist, get_search(name, False))

    path = Path(name)
    if not path.is_file():
        raise ValueError(
            f"target {name!r} is neither a named design "
            f"({', '.join(NAMED_TARGETS)}) nor an existing file"
        )
    if audit_mates:
        raise ValueError("--audit-mates requires a named design target")
    if audit_prune:
        raise ValueError("--audit-prune requires avr or msp430")
    from repro.cells.nangate15 import nangate15_library

    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        from repro.netlist.json_io import netlist_from_json

        return LintTarget.for_netlist(netlist_from_json(text, nangate15_library()))
    if path.suffix == ".v":
        from repro.netlist.verilog import parse_verilog

        return LintTarget.for_netlist(parse_verilog(text, nangate15_library()))
    raise ValueError(f"unsupported netlist file type {path.suffix!r} (.json/.v)")


def _split_ids(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [item.strip() for item in text.split(",") if item.strip()]


def _rule_catalog() -> str:
    registry = default_registry()
    rows = [("RULE", "LAYER", "SEVERITY", "REQUIRES", "TAGS", "SUMMARY")]
    rows += [
        (
            rule.id,
            rule.layer,
            str(rule.severity),
            ",".join(rule.requires) or "-",
            ",".join(sorted(rule.tags)) or "-",
            rule.summary,
        )
        for rule in sorted(registry, key=lambda r: r.id)
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    return "\n".join(
        "  ".join(
            [*(f"{row[i]:<{widths[i]}}" for i in range(5)), row[5]]
        )
        for row in rows
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Cross-layer static analysis over netlists, RTL, and MATEs.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="target",
        help=f"named design ({', '.join(NAMED_TARGETS)}) or a .json/.v netlist file",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="run only these rule ids or glob patterns, e.g. 'prune.*' "
        "(default: all)",
    )
    parser.add_argument(
        "--disable",
        metavar="ID[,ID...]",
        help="skip these rule ids or glob patterns",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="suppress findings fingerprinted in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="accept all current findings into a new baseline file and exit 0",
    )
    parser.add_argument(
        "--mate-budget",
        type=int,
        default=LintConfig.mate_budget_bits,
        metavar="BITS",
        help="free-wire budget of the static MATE enumeration (default: %(default)s)",
    )
    parser.add_argument(
        "--audit-mates",
        action="store_true",
        help="audit the design's (cached) MATE search with the static checker",
    )
    parser.add_argument(
        "--mate-engine",
        choices=("enum", "sat"),
        default=LintConfig.mate_engine,
        help="stage-2 MATE decision procedure: budget-capped enumeration or "
        "an unbounded SAT proof (implies --audit-mates for named designs; "
        "default: %(default)s)",
    )
    parser.add_argument(
        "--audit-prune",
        action="store_true",
        help="audit the def-use equivalence map (repro.prune) with the "
        "prune.* rules: certificate re-derivation plus sampled "
        "ground-truth injections (avr/msp430 only)",
    )
    parser.add_argument(
        "--prune-program",
        choices=("fib", "conv"),
        default="fib",
        help="workload for --audit-prune (default: %(default)s)",
    )
    parser.add_argument(
        "--prune-samples",
        type=int,
        default=LintConfig.prune_samples,
        metavar="N",
        help="sampled claims per ground-truth prune rule (default: %(default)s)",
    )
    parser.add_argument(
        "--prune-seed",
        type=int,
        default=LintConfig.prune_seed,
        help="RNG seed for prune.* sampling (default: %(default)s)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_rule_catalog())
        return 0
    if not args.targets:
        parser.error("a target is required (or use --list-rules)")
    if args.write_baseline and len(args.targets) > 1:
        parser.error("--write-baseline accepts a single target")

    config = LintConfig(
        mate_budget_bits=args.mate_budget,
        mate_engine=args.mate_engine,
        prune_samples=args.prune_samples,
        prune_seed=args.prune_seed,
    )
    reports = []
    for name in args.targets:
        # The SAT engine only matters when MATEs are audited; asking for it
        # on a named design implies the audit.
        audit = args.audit_mates or (
            args.mate_engine == "sat" and name in NAMED_TARGETS
        )
        try:
            target = _load_target(
                name, audit,
                audit_prune=args.audit_prune,
                prune_program=args.prune_program,
            )
            reports.append(
                run_lint(
                    target,
                    config=config,
                    enable=_split_ids(args.rules),
                    disable=_split_ids(args.disable) or (),
                    baseline=args.baseline,
                )
            )
        except (ValueError, KeyError, OSError) as error:
            print(f"repro-lint: {error}", file=sys.stderr)
            return 2

    if args.write_baseline:
        count = write_baseline(args.write_baseline, reports[0])
        print(f"baseline: accepted {count} finding(s) into {args.write_baseline}")
        return 0

    for i, report in enumerate(reports):
        if args.format == "json":
            print(render_json(report))
        else:
            if len(reports) > 1:
                if i:
                    print()
                print(f"== {args.targets[i]} ==")
            print(render_text(report))
    return 1 if any(report.has_errors for report in reports) else 0


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:  # e.g. `... --list-rules | head`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
