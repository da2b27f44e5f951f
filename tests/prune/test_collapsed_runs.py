"""Collapsed campaigns: representatives injected, the rest back-annotated.

Covers both execution paths — :meth:`Campaign.run_collapsed` (one-shot,
in-memory) and :meth:`CampaignRunner.run` with an
:class:`~repro.fi.runner.AnnotationPlan` (journaled, resumable) — against
the brute-force reference that injects every requested point.
"""

import pytest

from repro.fi import CampaignRunner, RunnerConfig, TargetSpec
from repro.fi.journal import load_journal
from repro.fi.runner import AnnotationPlan

from .prune_targets import seq_target

SEQ = TargetSpec(factory="tests.prune.prune_targets:seq_target")


@pytest.fixture(scope="module")
def points(campaign, netlist):
    """Exhaustive fault space plus a duplicate — every collapse shape."""
    pts = [
        (dff, cycle)
        for dff in netlist.dffs
        for cycle in range(campaign.golden_cycles)
    ]
    return pts + [pts[0]]


@pytest.fixture(scope="module")
def reference(campaign, points):
    return campaign.run_points(points)


def _outcomes(result):
    return [(r.dff_name, r.cycle, r.outcome) for r in result.records]


class TestRunCollapsed:
    def test_matches_brute_force_with_fewer_injections(
        self, campaign, emap, points, reference
    ):
        result, injected = campaign.run_collapsed(points, emap)
        assert _outcomes(result) == _outcomes(reference)
        assert injected < len(points) / 2  # the headline ≥2× saving
        assert injected == len(
            emap.collapse(points).executed
        )

    def test_rejects_stale_map(self, campaign, emap):
        stale = type(emap)(
            emap.design, emap.workload, emap.netlist_hash,
            emap.golden_cycles + 1, emap.wires,
        )
        with pytest.raises(ValueError, match="golden run"):
            campaign.run_collapsed([("rdead", 0)], stale)


class TestRunnerAnnotationPlan:
    def _config(self, **overrides):
        defaults = dict(
            workers=0, max_cycles=100, install_signal_handlers=False
        )
        defaults.update(overrides)
        return RunnerConfig(**defaults)

    def test_inline_run_back_annotates(
        self, emap, points, reference, tmp_path
    ):
        runner = CampaignRunner(SEQ, self._config())
        plan = emap.collapse(points).annotation_plan()
        report = runner.run(
            points, tmp_path / "c.jsonl", plan=plan
        )
        assert report.complete
        assert _outcomes(report.result) == _outcomes(reference)
        assert report.annotated == len(plan.dead) + len(plan.follows)
        assert report.executed + report.annotated == len(points)

    def test_journal_carries_provenance(self, emap, points, tmp_path):
        runner = CampaignRunner(SEQ, self._config())
        collapse = emap.collapse(points)
        runner.run(points, tmp_path / "c.jsonl", plan=collapse.annotation_plan())
        state = load_journal(tmp_path / "c.jsonl")
        for index in collapse.dead:
            assert state.details[index]["pruned_by"] == "defuse"
            assert "equivalence_rep" not in state.details[index]
        for follower, rep in collapse.follows.items():
            detail = state.details[follower]
            assert detail["pruned_by"] == "defuse"
            assert tuple(detail["equivalence_rep"]) == points[rep]
        for index in collapse.executed:
            assert "pruned_by" not in state.details.get(index, {})

    def test_limit_then_resume_completes(
        self, emap, points, reference, tmp_path
    ):
        plan = emap.collapse(points).annotation_plan()
        journal = tmp_path / "c.jsonl"
        first = CampaignRunner(SEQ, self._config(limit=3)).run(
            points, journal, plan=plan
        )
        assert not first.complete
        assert first.executed == 3
        second = CampaignRunner(SEQ, self._config()).run(
            points, journal, plan=plan, resume=True
        )
        assert second.complete
        assert _outcomes(second.result) == _outcomes(reference)

    def test_validate_rejects_bad_plans(self):
        with pytest.raises(IndexError):
            AnnotationPlan(dead=(9,)).validate(3)
        with pytest.raises(ValueError, match="follow itself"):
            AnnotationPlan(follows={1: 1}).validate(3)
        with pytest.raises(ValueError, match="both dead and a follower"):
            AnnotationPlan(dead=(1,), follows={1: 0}).validate(3)
        with pytest.raises(ValueError, match="executable"):
            AnnotationPlan(dead=(0,), follows={1: 0}).validate(3)
        with pytest.raises(ValueError, match="executable"):
            AnnotationPlan(follows={1: 2, 2: 0}).validate(3)

    def test_followers_of_groups_and_sorts(self):
        plan = AnnotationPlan(follows={5: 0, 2: 0, 4: 3})
        assert plan.followers_of() == {0: [2, 5], 3: [4]}
