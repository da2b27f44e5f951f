"""Per-cycle access-event classification (escape / hold / kill)."""

from repro.fi import Campaign
from repro.prune import golden_events
from repro.prune.access import EVENT_ESCAPE, EVENT_HOLD, EVENT_KILL

from .prune_targets import seq_target


class TestFixtureEvents:
    def test_every_dff_gets_one_event_per_cycle(self, netlist, campaign):
        events = golden_events(campaign)
        assert list(events) == list(netlist.dffs)
        for string in events.values():
            assert len(string) == campaign.golden_cycles
            assert set(string) <= {EVENT_ESCAPE, EVENT_HOLD, EVENT_KILL}

    def test_output_register_always_escapes(self, campaign):
        # rk's Q drives the kq primary output through a buffer: a flip is
        # visible the same cycle, every cycle.
        events = golden_events(campaign)["rk"]
        assert events == EVENT_ESCAPE * campaign.golden_cycles

    def test_unread_register_kills_every_write(self, campaign):
        # rdead's D toggles with the inputs but its Q drives nothing, so
        # every flip is overwritten without ever being observed.
        events = golden_events(campaign)["rdead"]
        assert events == EVENT_KILL * campaign.golden_cycles

    def test_self_loop_register_holds_forever(self, campaign):
        # rhold's D is its own Q and nothing reads it: a flip persists
        # (hold) to the end of the trace without escaping or dying.
        events = golden_events(campaign)["rhold"]
        assert events == EVENT_HOLD * campaign.golden_cycles

    def test_enable_gated_registers_mix_kinds(self, campaign):
        # ra/rb hold while their enable is low and are killed/escape on
        # writes — the interesting interval structure.
        events = golden_events(campaign)
        for name in ("ra", "rb"):
            assert EVENT_HOLD in events[name]


class TestReadChannel:
    def test_testbench_read_is_an_escape(self):
        # Force a synthetic read of the otherwise-unobserved rhold: the
        # read cycle must reclassify from hold to escape.
        campaign = Campaign(seq_target(), max_cycles=100)
        rhold = campaign.target.simulator.dff_index["rhold"]
        campaign._golden_reads[5] = (rhold,)
        events = golden_events(campaign)["rhold"]
        assert events[5] == EVENT_ESCAPE
        assert set(events[:5] + events[6:]) == {EVENT_HOLD}

