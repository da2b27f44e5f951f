"""The ``prune.*`` audit rules: zero findings on a sound map, concrete
counterexamples on a doctored one, skipped without the prune facet."""

import dataclasses

import pytest

from repro.fi.classify import Outcome
from repro.lint.registry import LintConfig, LintTarget
from repro.lint.runner import run_lint
from repro.prune import PruneAudit, analyze_target
from repro.prune.defuse import KIND_DEAD, KIND_LIVE, IntervalClaim

from tests.prune.prune_targets import seq_target

PRUNE_RULES = ["prune.cert-invalid", "prune.dead-refuted", "prune.equiv-refuted"]

#: Large enough to audit every claim of the 16-cycle fixture, so the
#: doctored claims below are guaranteed to be sampled.
EXHAUSTIVE = LintConfig(prune_samples=10_000, prune_cert_samples=10_000)


def _fresh_audit():
    """A private audit bundle the doctoring tests may mutate freely."""
    return PruneAudit(analyze_target(seq_target(), max_cycles=100))


@pytest.fixture(scope="module")
def audit():
    return _fresh_audit()


@pytest.fixture(scope="module")
def ground_truth(audit):
    """Real outcome of every injection point, straight from the campaign."""
    campaign = audit.campaign()
    return {
        (dff, cycle): campaign.inject(dff, cycle)
        for dff in audit.analysis.netlist.dffs
        for cycle in range(campaign.golden_cycles)
    }


class TestHappyPath:
    def test_sound_map_yields_zero_findings(self, audit):
        report = run_lint(
            LintTarget.for_prune(audit), config=EXHAUSTIVE, enable=PRUNE_RULES
        )
        assert report.diagnostics == []
        assert report.skipped_rules == []

    def test_rules_skip_without_the_prune_facet(self, audit):
        bare = LintTarget(name="bare", netlist=audit.analysis.netlist)
        report = run_lint(bare, enable=PRUNE_RULES)
        assert sorted(report.skipped_rules) == sorted(PRUNE_RULES)
        assert report.diagnostics == []


class TestDoctoredMaps:
    def test_cert_invalid_catches_a_relabeled_interval(self):
        audit = _fresh_audit()
        classes = audit.map.wires["rb"]
        index = next(
            i
            for i, claim in enumerate(classes.intervals)
            if claim.kind == KIND_LIVE
        )
        classes.intervals[index] = dataclasses.replace(
            classes.intervals[index], kind=KIND_DEAD
        )
        report = run_lint(
            LintTarget.for_prune(audit),
            config=EXHAUSTIVE,
            enable=["prune.cert-invalid"],
        )
        assert report.diagnostics
        assert all(d.rule == "prune.cert-invalid" for d in report.diagnostics)

    def test_dead_refuted_names_the_counterexample(self, ground_truth):
        audit = _fresh_audit()
        cycle, outcome = next(
            (c, o)
            for (dff, c), o in sorted(ground_truth.items())
            if dff == "rk" and o is not Outcome.BENIGN
        )
        classes = audit.map.wires["rk"]
        classes.intervals[:] = [
            IntervalClaim("rk", classes.wire, cycle, cycle, KIND_DEAD, "k")
        ]
        report = run_lint(
            LintTarget.for_prune(audit),
            config=EXHAUSTIVE,
            enable=["prune.dead-refuted"],
        )
        (finding,) = report.diagnostics
        assert finding.rule == "prune.dead-refuted"
        assert f"@{cycle}" in finding.location
        assert outcome.value in finding.message

    def test_equiv_refuted_names_the_divergent_member(self, ground_truth):
        audit = _fresh_audit()
        dff, cycle = next(
            (dff, c)
            for (dff, c), o in sorted(ground_truth.items())
            if c + 1 < audit.map.golden_cycles
            and o is not ground_truth[(dff, c + 1)]
        )
        classes = audit.map.wires[dff]
        # A two-point "interval" whose member provably disagrees with its
        # representative (= the end cycle).
        classes.intervals[:] = [
            IntervalClaim(
                dff,
                classes.wire,
                cycle,
                cycle + 1,
                KIND_LIVE,
                classes.events[cycle : cycle + 2],
            )
        ]
        report = run_lint(
            LintTarget.for_prune(audit),
            config=EXHAUSTIVE,
            enable=["prune.equiv-refuted"],
        )
        (finding,) = report.diagnostics
        assert finding.rule == "prune.equiv-refuted"
        assert f"@{cycle}" in finding.location
        assert "representative" in finding.message
