"""Shared fixtures for the def-use pruning tests."""

import pytest

from repro.fi import Campaign
from repro.prune import EquivalenceMap

from .prune_targets import seq_target


@pytest.fixture(scope="session")
def target():
    return seq_target()


@pytest.fixture(scope="session")
def netlist(target):
    return target.simulator.netlist


@pytest.fixture(scope="session")
def golden(target):
    """Golden run with the trace and per-cycle read sets recorded."""
    result = target.simulator.run(
        target.make_testbench(),
        max_cycles=100,
        record_trace=True,
        record_reads=True,
    )
    assert result.halted
    return result


@pytest.fixture(scope="session")
def campaign(target):
    """The fixture's campaign: the golden run the def-use map is built on."""
    return Campaign(target, max_cycles=100)


@pytest.fixture(scope="session")
def emap(campaign):
    return EquivalenceMap.build(
        campaign, workload="fixture", netlist_hash="fixture-hash"
    )
