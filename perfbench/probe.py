"""In-copy half of the benchmark: the traced run, the oracle, the reference.

Runs under the interpreter that ``run.py`` starts, with the copied
``src/`` and this directory on ``PYTHONPATH``. Subcommands:

``trace``
    One campaign through public APIs (``named_target`` via
    :func:`hooks.traced_target`, ``Campaign`` inside ``CampaignRunner``,
    ``replay_mates``, ``analyze_target``, ``EquivalenceMap.collapse``,
    ``CampaignRunner.run``) with in-memory spans around each call and the
    per-cycle accumulators of :mod:`hooks`; writes spans and totals as JSON.
``oracle``
    Plain ``Campaign.inject`` of a list of points, one outcome each.
``reference``
    Rewrites ``reference.json``: every workload's point list at the
    reference seed, each point decided by plain injection. Run it from the
    repository root as ``PYTHONPATH=src python perfbench/probe.py reference``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import hooks
from workloads import REFERENCE_SEED, WORKLOADS, Workload

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def campaign_points(
    workload: Workload, netlist, golden_cycles: int, seed: int,
    tracer: hooks.Tracer,
):
    """The point list, journal meta and MATE vectors ``fi run`` would use.

    The pruned branch mirrors the sampling of ``python -m repro.fi run
    --pruned``, which has no public function; the benchmark's
    record-for-record comparison with the untraced campaign and the
    reference check at seed 0 catch any divergence.
    """
    from repro.fi.runner import sample_points

    if not workload.pruned:
        points = sample_points(netlist, golden_cycles, workload.points, seed)
        meta = {"pruned": False, "space_points": len(netlist.dffs) * golden_cycles}
        return points, meta, None

    import numpy as np

    from repro.core.faultspace import FaultSpace
    from repro.core.replay import replay_mates
    from repro.eval import context

    core, _, program = workload.target.partition("-")
    mates = context.get_mates(core, exclude_register_file=False)
    fault_wires = context.get_fault_wires(core, exclude_register_file=False)
    trace = context.get_trace(core, program)
    with tracer.span("core.replay"):
        replay = replay_mates(mates, trace, fault_wires)
    mate_vectors = {
        wire: np.unpackbits(replay.masked_vector(wire))[:golden_cycles]
        for wire in fault_wires
    }
    dff_of_wire = {dff.q: name for name, dff in netlist.dffs.items()}
    space = FaultSpace(list(mate_vectors), golden_cycles)
    for wire, benign in mate_vectors.items():
        space.mark_benign_cycles(wire, benign)
    remaining = [
        (dff_of_wire[wire], cycle)
        for wire, cycle in space.remaining_points()
        if wire in dff_of_wire
    ]
    if len(remaining) > workload.points:
        remaining = random.Random(seed).sample(remaining, workload.points)
    meta = {
        "pruned": True,
        "space_points": space.size,
        "pruned_points": int(space.num_benign),
    }
    return remaining, meta, mate_vectors


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.eval import context
    from repro.fi.journal import CampaignJournal
    from repro.fi.runner import CampaignRunner, RunnerConfig, TargetSpec
    from repro.store import ResultsStore

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    journal = workdir / "journal.jsonl"
    tracer = hooks.Tracer()
    tracer.wrap_method(CampaignJournal, "append_record", "journal.append")
    tracer.wrap_method(ResultsStore, "ingest_journal", "store.ingest")
    config = RunnerConfig(
        workers=1,
        telemetry_dir=workdir / "journal.jsonl.telemetry",
        store_path=workdir / "store.sqlite3",
    )
    spec = TargetSpec(factory="hooks:traced_target", kwargs={"name": workload.target})
    with tracer.span("runner.init"):
        runner = CampaignRunner(spec, config)
    netlist = runner.target.simulator.netlist
    points, meta, mate_vectors = campaign_points(
        workload, netlist, runner.golden_cycles, args.seed, tracer
    )
    plan = None
    if workload.pruned:
        from repro.prune import account, analyze_target

        core = workload.target.partition("-")[0]
        with tracer.span("prune.defuse_build"):
            analysis = analyze_target(
                runner.target, netlist_hash=context.netlist_hash(core)
            )
        with tracer.span("prune.collapse"):
            collapse = analysis.map.collapse(points)
            accounting = account(
                workload.target, netlist, analysis.map, mate_vectors
            )
        plan = collapse.annotation_plan()
        meta.update(
            defuse=True,
            defuse_injected=collapse.num_injected,
            defuse_annotated=collapse.num_annotated,
            layers=accounting.layers(),
        )
    with tracer.span("runner.run"):
        report = runner.run(points, journal, seed=args.seed, meta=meta, plan=plan)
    gauges = {name: g.value for name, g in obs.get_registry().gauges.items()}
    doc = {
        "spans": tracer.spans,
        "self_times": tracer.self_times(),
        "timers": {
            "parent": hooks.TIMERS.as_dict(),
            "worker": hooks.CycleTimers.from_gauges(gauges, "worker=0"),
        },
        "mate_pruned_points": meta.get("pruned_points", 0),
    }
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0 if report.complete else 1


def plain_campaign(target: str):
    """A plain ``Campaign`` on a named target: no pool, no pruning."""
    from repro.fi.campaign import Campaign
    from repro.fi.targets import named_target

    return Campaign(named_target(target))


def plain_outcomes(campaign, points: list[tuple[str, int]]) -> list[str]:
    """Each point's outcome by plain injection."""
    return [campaign.inject(dff, cycle).value for dff, cycle in points]


def cmd_oracle(args: argparse.Namespace) -> int:
    points = [tuple(p) for p in json.loads(Path(args.points).read_text())]
    outcomes = plain_outcomes(plain_campaign(args.target), points)
    Path(args.out).write_text(json.dumps(outcomes), encoding="utf-8")
    return 0


def cmd_reference(args: argparse.Namespace) -> int:
    reference = {}
    for workload in WORKLOADS.values():
        campaign = plain_campaign(workload.target)
        points, _, _ = campaign_points(
            workload, campaign.target.simulator.netlist,
            campaign.golden_cycles, REFERENCE_SEED, hooks.Tracer(),
        )
        outcomes = plain_outcomes(campaign, points)
        tally = {o: outcomes.count(o) for o in sorted(set(outcomes))}
        print(f"{workload.name}: {len(points)} points, {tally}")
        reference[workload.name] = {
            "target": workload.target,
            "seed": REFERENCE_SEED,
            "points": [[dff, cycle] for dff, cycle in points],
            "outcomes": outcomes,
        }
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items()]
    REFERENCE_FILE.write_text(
        "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    trace_p = sub.add_parser("trace")
    trace_p.add_argument("--workload", required=True, choices=WORKLOADS)
    trace_p.add_argument("--seed", type=int, required=True)
    trace_p.add_argument("--workdir", required=True)
    trace_p.add_argument("--out", required=True)
    trace_p.set_defaults(func=cmd_trace)
    oracle_p = sub.add_parser("oracle")
    oracle_p.add_argument("--target", required=True)
    oracle_p.add_argument("--points", required=True)
    oracle_p.add_argument("--out", required=True)
    oracle_p.set_defaults(func=cmd_oracle)
    reference_p = sub.add_parser("reference")
    reference_p.set_defaults(func=cmd_reference)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
