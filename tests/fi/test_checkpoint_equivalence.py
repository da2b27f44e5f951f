"""Checkpointed injection against the replay-from-reset oracle.

``Campaign.inject`` starts every SEU run from the golden checkpoint at its
cycle. The oracle replays the same injection from reset with
``Simulator.run(flips=...)``; the two must agree record for record: halt
cycle, halted flag, final FF state, last outputs, observables and outcome.
``make sim-equivalence`` runs the 2000-point gate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fi import Outcome
from repro.fi.campaign import Campaign
from repro.fi.runner import sample_points
from repro.fi.targets import avr_target, msp430_target
from tests.prune.prune_targets import seq_target


def _oracle(campaign: Campaign, dff: str, cycle: int):
    target = campaign.target
    tb = target.make_testbench()
    result = target.simulator.run(
        tb,
        max_cycles=campaign.cycle_budget,
        record_trace=False,
        flips={cycle: [dff]},
    )
    return tb, result


def _record(campaign: Campaign, tb, result) -> tuple:
    return (
        result.cycles,
        result.halted,
        list(result.final_state),
        result.outputs_last,
        campaign.target.observables(tb, result),
        campaign.classify(tb, result),
    )


def assert_equivalent(campaign: Campaign, points) -> list[Outcome]:
    """Compare checkpointed and from-reset runs point by point."""
    outcomes = []
    for dff, cycle in points:
        checkpointed = _record(campaign, *campaign.run_injection(dff, cycle))
        oracle = _record(campaign, *_oracle(campaign, dff, cycle))
        assert checkpointed == oracle, f"diverged at ({dff}, {cycle})"
        outcomes.append(checkpointed[-1])
    return outcomes


@pytest.fixture(scope="module")
def figure1_campaign():
    return Campaign(seq_target())


@pytest.fixture(scope="module")
def core_campaigns(avr_sim, msp430_sim):
    return {
        "avr-fib": Campaign(avr_target("fib", avr_sim)),
        "msp430-fib": Campaign(msp430_target("fib", msp430_sim)),
    }


def _sampled(campaign: Campaign, count: int, seed: int):
    return sample_points(
        campaign.target.simulator.netlist, campaign.golden_cycles, count, seed
    )


def test_figure1_exhaustive(figure1_campaign):
    campaign = figure1_campaign
    points = [
        (dff, cycle)
        for dff in campaign.target.simulator.netlist.dffs
        for cycle in range(campaign.golden_cycles)
    ]
    outcomes = assert_equivalent(campaign, points)
    # The gate must see both classes, or it proves little.
    assert Outcome.BENIGN in outcomes and Outcome.SDC in outcomes


@pytest.mark.parametrize("name", ["avr-fib", "msp430-fib"])
def test_cores_sampled(core_campaigns, name):
    campaign = core_campaigns[name]
    outcomes = assert_equivalent(campaign, _sampled(campaign, 200, seed=0))
    assert len(set(outcomes)) == 3  # benign, SDC and timeout all exercised


@pytest.mark.slow
@pytest.mark.parametrize("name", ["avr-fib", "msp430-fib"])
def test_cores_sampled_2000(core_campaigns, name):
    campaign = core_campaigns[name]
    assert_equivalent(campaign, _sampled(campaign, 2000, seed=1))


@pytest.mark.parametrize("name", ["figure1", "avr-fib", "msp430-fib"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fault_free_restore_reproduces_golden(
    figure1_campaign, core_campaigns, name, data
):
    """Any golden checkpoint, run without a fault, finishes like golden."""
    campaign = (
        figure1_campaign if name == "figure1" else core_campaigns[name]
    )
    target = campaign.target
    golden_tb = target.make_testbench()
    golden = target.simulator.run(
        golden_tb, max_cycles=campaign.cycle_budget, record_trace=False
    )
    cycle = data.draw(st.integers(0, campaign.golden_cycles - 1))
    tb = target.make_testbench()
    result = target.simulator.run(
        tb,
        max_cycles=campaign.cycle_budget,
        record_trace=False,
        start=campaign.checkpoints[cycle],
    )
    assert result.halted and result.cycles == golden.cycles
    assert result.final_state == golden.final_state
    assert target.observables(tb, result) == target.observables(golden_tb, golden)


def test_checkpoint_can_be_restored_repeatedly(core_campaigns):
    """Restoring must not consume or alias the golden snapshot."""
    campaign = core_campaigns["avr-fib"]
    points = _sampled(campaign, 20, seed=2)
    first = {point: campaign.inject(*point) for point in points}
    again = {point: campaign.inject(*point) for point in reversed(points)}
    assert again == first
