"""Collapsed (def-use) campaigns in the warehouse: schema v2 round-trip,
back-annotation provenance, first-class diffing, and surfacing."""

from repro.store import diff_campaigns
from repro.store.__main__ import main
from repro.store.heatmap import render_heatmap

from tests.store.conftest import RECORDS, make_journal

DEFUSE_META = {
    "defuse": True,
    "defuse_injected": 3,
    "defuse_annotated": 2,
    "layers": {"mate": 4, "defuse": 7, "both": 2},
}
#: The same campaign as written with the removed static liveness layer:
#: ingest ignores its ``static`` keys.
LEGACY_META = {**DEFUSE_META, "static": True, "static_annotated": 1}

#: q1@2 (index 2) follows the representative q1@2 (index 1); q3@0 is a
#: statically-benign dead point.
PROVENANCE = {
    2: {"pruned_by": "defuse", "equivalence_rep": ("q1", 2)},
    4: {"pruned_by": "defuse"},
}


def _collapsed_journal(path, meta=DEFUSE_META, **kwargs):
    return make_journal(path, meta=meta, provenance=PROVENANCE, **kwargs)


class TestSchemaRoundTrip:
    def test_campaign_row_carries_collapse_metadata(self, store, tmp_path):
        for meta in (DEFUSE_META, LEGACY_META):
            cid = store.ingest_journal(
                _collapsed_journal(tmp_path / "c.jsonl", meta=meta)
            )
            c = store.campaign(cid)
            assert c.defuse
            assert c.defuse_injected == 3
            assert c.defuse_annotated == 2
            assert c.layers == {"mate": 4, "defuse": 7, "both": 2}

    def test_plain_campaign_defaults(self, store, tmp_path):
        cid = store.ingest_journal(make_journal(tmp_path / "c.jsonl"))
        c = store.campaign(cid)
        assert not c.defuse
        assert c.defuse_injected is None
        assert c.layers is None

    def test_outcome_rows_carry_provenance(self, store, tmp_path):
        cid = store.ingest_journal(_collapsed_journal(tmp_path / "c.jsonl"))
        outcomes = store.outcomes(cid)
        annotated = [o for o in outcomes if o.annotated]
        assert [(o.dff, o.cycle) for o in annotated] == [("q1", 2), ("q3", 0)]
        follower = annotated[0]
        assert follower.pruned_by == "defuse"
        assert follower.equivalence_rep == ("q1", 2)
        dead = annotated[1]
        assert dead.pruned_by == "defuse"
        assert dead.equivalence_rep is None
        assert all(o.pruned_by is None for o in outcomes if not o.annotated)

    def test_annotation_tally(self, store, tmp_path):
        cid = store.ingest_journal(_collapsed_journal(tmp_path / "c.jsonl"))
        assert store.annotation_tally(cid) == {"defuse": 2}
        plain = store.ingest_journal(
            make_journal(tmp_path / "p.jsonl", seed=9)
        )
        assert store.annotation_tally(plain) == {}


class TestCampaignKey:
    def test_full_and_collapsed_coexist(self, store, tmp_path):
        """Same (netlist, workload, points, seed) — the defuse flag keys
        them apart so the control campaign survives ingestion."""
        full = store.ingest_journal(make_journal(tmp_path / "full.jsonl"))
        collapsed = store.ingest_journal(
            _collapsed_journal(tmp_path / "defuse.jsonl")
        )
        assert {c.id for c in store.campaigns()} == {full, collapsed}

    def test_legacy_static_journal_replaces_its_defuse_twin(
        self, store, tmp_path
    ):
        store.ingest_journal(_collapsed_journal(tmp_path / "defuse.jsonl"))
        legacy = store.ingest_journal(
            _collapsed_journal(tmp_path / "legacy.jsonl", meta=LEGACY_META)
        )
        assert [c.id for c in store.campaigns()] == [legacy]

    def test_reingest_collapsed_replaces_collapsed(self, store, tmp_path):
        store.ingest_journal(make_journal(tmp_path / "full.jsonl"))
        store.ingest_journal(_collapsed_journal(tmp_path / "d1.jsonl"))
        again = store.ingest_journal(_collapsed_journal(tmp_path / "d2.jsonl"))
        ids = sorted(c.id for c in store.campaigns())
        assert len(ids) == 2 and again == ids[-1]


class TestDiff:
    def test_back_annotated_outcomes_do_not_flip(self, store, tmp_path):
        """The acceptance gate: a collapsed campaign diffs clean against
        its full-injection control."""
        full = store.ingest_journal(make_journal(tmp_path / "full.jsonl"))
        collapsed = store.ingest_journal(
            _collapsed_journal(tmp_path / "defuse.jsonl")
        )
        diff = diff_campaigns(store, full, collapsed)
        assert diff.clean
        assert diff.flips == []
        assert diff.annotated_a == 0
        assert diff.annotated_b == 2
        assert "back-annotated" in diff.summary()

    def test_plain_diff_summary_stays_quiet(self, store, tmp_path):
        a = store.ingest_journal(make_journal(tmp_path / "a.jsonl", seed=1))
        b = store.ingest_journal(make_journal(tmp_path / "b.jsonl", seed=2))
        assert "back-annotated" not in diff_campaigns(store, a, b).summary()


class TestCli:
    def _run(self, tmp_path, *args):
        return main(["--db", str(tmp_path / "w.sqlite3"), *args])

    def test_list_marks_collapsed_campaigns(self, tmp_path, capsys):
        journal = _collapsed_journal(tmp_path / "c.jsonl")
        assert self._run(tmp_path, "ingest", str(journal)) == 0
        assert self._run(tmp_path, "list") == 0
        assert "+defuse" in capsys.readouterr().out

    def test_show_surfaces_layers_and_provenance(self, tmp_path, capsys):
        journal = _collapsed_journal(tmp_path / "c.jsonl")
        assert self._run(tmp_path, "ingest", str(journal)) == 0
        assert self._run(tmp_path, "show", "1") == 0
        shown = capsys.readouterr().out
        assert "def-use collapsed" in shown
        assert "7 pruned by defuse" in shown
        assert "4 pruned by mate" in shown
        assert "3 representative(s) injected" in shown
        assert "annotated (defuse)" in shown


class TestHeatmap:
    def test_attribution_includes_layer_rows(self, store, tmp_path):
        cid = store.ingest_journal(_collapsed_journal(tmp_path / "c.jsonl"))
        html = render_heatmap(store, cid)
        assert "back-annotated" in html
        assert "def-use" in html
        assert "representatives injected" in html
