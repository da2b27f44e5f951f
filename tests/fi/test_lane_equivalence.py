"""Golden-shadow lane batches against plain scalar injection.

``Campaign.inject_batch`` decides many points at once: each point is one
bit lane of the lane kernel, held against the golden run's reads, inputs
and outputs, and evicted to the scalar path once it differs. The oracle is
``Campaign.inject``, one scalar run per point; the two must agree outcome
for outcome. ``make sim-equivalence`` runs the 2000-point gate.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fi import Outcome
from repro.fi.campaign import LANES, Campaign, sample_points
from repro.fi.targets import avr_target, msp430_target
from tests.prune.prune_targets import seq_target


def assert_batch_matches(campaign: Campaign, points) -> list[Outcome]:
    """``inject_batch`` equals one scalar ``inject`` per point."""
    batched = campaign.inject_batch(points)
    scalar = [campaign.inject(dff, cycle) for dff, cycle in points]
    wrong = [p for p, b, s in zip(points, batched, scalar) if b is not s]
    assert not wrong, f"{len(wrong)} point(s) differ, first {wrong[0]}"
    return batched


@pytest.fixture(scope="module")
def figure1_campaign():
    return Campaign(seq_target())


@pytest.fixture(scope="module")
def figure1_points(figure1_campaign):
    return [
        (dff, cycle)
        for dff in figure1_campaign.target.simulator.netlist.dffs
        for cycle in range(figure1_campaign.golden_cycles)
    ]


@pytest.fixture(scope="module")
def figure1_reference(figure1_campaign, figure1_points):
    """Scalar outcome and one-lane provenance of every figure1 point."""
    reference = {}
    for point in figure1_points:
        (alone,) = figure1_campaign.run_batch([point])
        reference[point] = (figure1_campaign.inject(*point), alone.left_golden)
    return reference


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


def test_figure1_exhaustive(figure1_campaign, figure1_points):
    assert len(figure1_points) > LANES  # several batches
    outcomes = assert_batch_matches(figure1_campaign, figure1_points)
    # The gate must see both classes and both lane fates, or it proves little.
    assert Outcome.BENIGN in outcomes and Outcome.SDC in outcomes
    registry = obs.get_registry()
    assert registry.counter("campaign.lanes.evicted").value > 0
    assert registry.counter("campaign.lanes.shadow_benign").value > 0
    # figure1's observables include the final FF state: a flip that lingers
    # unread shadows golden to the end and is still an SDC.
    assert registry.counter("campaign.lanes.shadow_sdc").value > 0


@pytest.mark.parametrize("name", ["avr-fib", "msp430-fib"])
def test_cores_sampled(core_campaigns, name):
    campaign = core_campaigns[name]
    outcomes = assert_batch_matches(campaign, _sampled(campaign, 200, seed=0))
    assert len(set(outcomes)) == 3  # benign, SDC and timeout all exercised


@pytest.mark.slow
@pytest.mark.parametrize("name", ["avr-fib", "msp430-fib"])
def test_cores_sampled_2000(core_campaigns, name):
    campaign = core_campaigns[name]
    assert_batch_matches(campaign, _sampled(campaign, 2000, seed=1))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_outcomes_do_not_depend_on_batching(
    figure1_campaign, figure1_points, figure1_reference, data
):
    """Any split into batches, any order, duplicates allowed: same outcomes
    and the same ``left_golden`` as deciding each point alone."""
    points = data.draw(
        st.lists(st.sampled_from(figure1_points), min_size=1, max_size=150)
    )
    cuts = sorted(
        data.draw(st.sets(st.integers(1, len(points)), max_size=6))
        | {len(points)}
    )
    decided = []
    start = 0
    for cut in cuts:
        decided.extend(figure1_campaign.run_batch(points[start:cut]))
        start = cut
    assert [(d.outcome, d.left_golden) for d in decided] == [
        figure1_reference[point] for point in points
    ]


@pytest.mark.parametrize(
    "bad", [("ghost_b0", 0), ("rk", -1), ("rk", "golden")], ids=str
)
def test_bad_points_raise_like_run_injection(figure1_campaign, bad):
    campaign = figure1_campaign
    if bad[1] == "golden":
        bad = (bad[0], campaign.golden_cycles)
    with pytest.raises((KeyError, ValueError)) as scalar:
        campaign.run_injection(*bad)
    with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
        campaign.inject_batch([("rk", 0), bad])
    # Validation comes first: nothing was simulated.
    assert obs.get_registry().counter("campaign.lanes.batches").value == 0


def test_empty_batch(figure1_campaign):
    assert figure1_campaign.inject_batch([]) == []
