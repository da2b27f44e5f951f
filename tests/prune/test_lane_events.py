"""The lane-kernel def-use pass against its oracles on the real targets.

- The maps it builds serialise byte for byte like the committed
  ``.repro_cache/defuse_*.json`` maps (fib targets here, conv under
  ``slow``; ``make prune-smoke`` runs both).
- Sampled points agree with the independent scalar checker
  (``classify_cycle``) on a separately recorded golden trace.
- As the exact one-cycle oracle it exposes the MATE layer's missing
  testbench-read channel (ROADMAP item 1), recorded as a strict xfail.
"""

import json
import random
from functools import lru_cache

import numpy as np
import pytest

from repro.eval import context
from repro.fi import CampaignRunner, RunnerConfig, TargetSpec
from repro.fi.__main__ import _mate_vectors
from repro.prune import (
    EVENT_KILL,
    EquivalenceMap,
    analyze_target,
    classify_cycle,
    golden_events,
)
from repro.prune.analyze import _map_cache_path

FIB = ("avr-fib", "msp430-fib")
CONV = ("avr-conv", "msp430-conv")


@lru_cache(maxsize=None)
def _runner(name: str) -> CampaignRunner:
    spec = TargetSpec(factory="repro.fi.targets:named_target", kwargs={"name": name})
    return CampaignRunner(spec, RunnerConfig(workers=0, install_signal_handlers=False))


def _assert_matches_committed_map(name: str) -> None:
    netlist_hash = context.netlist_hash(name.partition("-")[0])
    built = EquivalenceMap.build(
        _runner(name).campaign, workload=name, netlist_hash=netlist_hash
    )
    committed = _map_cache_path(name, netlist_hash).read_text(encoding="utf-8")
    assert json.dumps(built.to_dict()) == committed


@pytest.mark.parametrize("name", FIB)
def test_fib_map_is_byte_identical_to_the_committed_one(name):
    _assert_matches_committed_map(name)


@pytest.mark.slow
@pytest.mark.parametrize("name", CONV)
def test_conv_map_is_byte_identical_to_the_committed_one(name):
    _assert_matches_committed_map(name)


@pytest.mark.parametrize("name", FIB)
def test_sampled_points_agree_with_the_scalar_checker(name):
    runner = _runner(name)
    analysis = analyze_target(runner.target)
    netlist = analysis.netlist
    rng = random.Random(16)
    names = list(netlist.dffs)
    for _ in range(200):
        dff, cycle = rng.choice(names), rng.randrange(runner.golden_cycles)
        derived = classify_cycle(
            netlist, analysis.trace, analysis.reads, dff, cycle
        )
        assert analysis.map.wires[dff].events[cycle] == derived, (dff, cycle)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: MATEs are replayed on the free-running trace and "
    "know no testbench-read channel, so some MATE-pruned points escape",
)
@pytest.mark.parametrize("name", FIB)
def test_every_mate_pruned_point_is_a_one_cycle_kill(name):
    runner = _runner(name)
    netlist = runner.target.simulator.netlist
    dff_of_wire = {dff.q: dff_name for dff_name, dff in netlist.dffs.items()}
    events = golden_events(runner.campaign)
    claimed = not_killed = 0
    for wire, vector in _mate_vectors(runner, name).items():
        dff = dff_of_wire.get(wire)
        if dff is None:
            continue
        for cycle in np.flatnonzero(vector):
            claimed += 1
            not_killed += events[dff][cycle] != EVENT_KILL
    assert claimed
    assert not_killed == 0, f"{not_killed} of {claimed} MATE claims escape or hold"
