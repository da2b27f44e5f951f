"""End-to-end CLI resilience tests: kill/interrupt real campaign processes.

These drive ``python -m repro.fi`` as a subprocess (its own process group),
SIGKILL or SIGTERM it mid-campaign, and check the acceptance criteria: the
journal survives, ``resume`` completes it, and the final record list is
record-for-record identical to an uninterrupted run.
"""

import json
import os
from collections import Counter
import signal
import subprocess
import sys
import time

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT]),
)
TARGET = "tests.fi.runner_targets:accum_target"
#: Same workload/netlist, ~20 ms per simulated cycle — slow enough that a
#: test can reliably kill the campaign while it is mid-flight.
SLOW_TARGET = "tests.fi.runner_targets:slow_accum_target"


def _cli(*args, **kwargs):
    if args and args[0] in ("run", "resume"):
        args = (*args, "--no-store")  # keep tests out of the real warehouse
    return subprocess.run(
        [sys.executable, "-m", "repro.fi", *args],
        env=ENV,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        **kwargs,
    )


def _records(journal_path):
    """Injection records by index: ``{i: (dff, cycle, outcome)}`` sorted."""
    out = {}
    with open(journal_path) as fh:
        for line in fh:
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn tail from the kill
            if doc.get("kind") == "record":
                out[doc["i"]] = (doc["dff"], doc["cycle"], doc["outcome"])
    return [out[i] for i in sorted(out)]


def _annotated(journal_path):
    """Indices of the records decided without simulation (``pruned_by``)."""
    from repro.fi.journal import load_journal

    details = load_journal(journal_path).details
    return sorted(i for i, detail in details.items() if "pruned_by" in detail)


def _start_and_wait_for_records(journal, *extra_args, min_records=10):
    """Launch a slow-ish campaign; block until records hit the journal."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.fi", "run",
            "--target", SLOW_TARGET,
            "--sampled", "120", "--seed", "5", "--workers", "2",
            "--journal", str(journal), "--no-store", *extra_args,
        ],
        env=ENV,
        cwd=REPO_ROOT,
        start_new_session=True,  # own process group, like a real terminal job
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.time() + 120
    while time.time() < deadline:
        if journal.exists() and len(_records(journal)) >= min_records:
            return proc
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    out, err = proc.communicate(timeout=10)
    raise AssertionError(
        f"campaign never journaled {min_records} records "
        f"(rc={proc.returncode}):\n{out}\n{err}"
    )


@pytest.mark.slow
class TestCliResilience:
    def test_sigkill_then_resume_record_identical(self, tmp_path):
        """The headline acceptance test: SIGKILL the whole process group
        mid-campaign, resume from the journal, match an uninterrupted run
        record for record."""
        reference = tmp_path / "ref.jsonl"
        done = _cli(
            "run", "--target", TARGET, "--sampled", "120", "--seed", "5",
            "--workers", "0", "--journal", str(reference),
        )
        assert done.returncode == 0, done.stderr

        journal = tmp_path / "killed.jsonl"
        proc = _start_and_wait_for_records(journal)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        survived = len(_records(journal))
        assert 0 < survived < 120  # really died mid-campaign

        resumed = _cli("resume", "--journal", str(journal), "--workers", "2")
        assert resumed.returncode == 0, resumed.stderr
        assert "campaign complete" in resumed.stdout
        assert _records(journal) == _records(reference)

    def test_sigterm_graceful_shutdown(self, tmp_path):
        journal = tmp_path / "termed.jsonl"
        proc = _start_and_wait_for_records(journal, "--timeout-seconds", "30")
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert "interrupted by SIGTERM" in out
        assert f"resume --journal {journal}" in out

        status = _cli("status", "--journal", str(journal))
        assert status.returncode == 0
        assert "partial" in status.stdout
        assert "resume" in status.stdout

    def test_status_complete_and_limit_resume(self, tmp_path):
        journal = tmp_path / "limited.jsonl"
        first = _cli(
            "run", "--target", TARGET, "--sampled", "9", "--workers", "0",
            "--limit", "4", "--journal", str(journal),
        )
        assert first.returncode == 0  # a --limit stop is not an error
        assert "stopped at --limit" in first.stdout

        resumed = _cli("resume", "--journal", str(journal), "--workers", "0")
        assert resumed.returncode == 0, resumed.stderr

        status = _cli("status", "--journal", str(journal))
        assert "9/9 injections recorded" in status.stdout
        assert "state:     complete" in status.stdout


class TestStatusReport:
    """In-process ``status`` checks: outcome table + telemetry rate/ETA."""

    def _journal(self, tmp_path, records=2):
        from repro.fi.campaign import InjectionRecord
        from repro.fi.classify import Outcome
        from repro.fi.journal import CampaignJournal, points_hash

        points = [("q0", 1), ("q1", 2), ("q2", 3)]
        path = tmp_path / "c.jsonl"
        header = {
            "netlist_hash": "abc123",
            "workload": "accum",
            "points_hash": points_hash(points),
            "seed": 7,
            "num_points": len(points),
            "golden_cycles": 8,
            "max_cycles": 100,
            "points": [list(p) for p in points],
        }
        outcomes = [Outcome.BENIGN, Outcome.SDC, Outcome.BENIGN]
        with CampaignJournal(path, header) as journal:
            for i in range(records):
                journal.append_record(
                    i, InjectionRecord(points[i][0], points[i][1], outcomes[i])
                )
        return path

    def _telemetry(self, journal, spans=4):
        from repro.obs.remote import FORMAT_VERSION

        tdir = journal.parent / f"{journal.name}.telemetry"
        tdir.mkdir()
        lines = [
            {"kind": "hello", "version": FORMAT_VERSION, "role": "worker",
             "pid": 1, "mono": 0.0, "wall": 1000.0}
        ]
        for k in range(spans):
            lines.append(
                {"kind": "span", "name": "campaign/inject",
                 "path": "campaign/inject",
                 "mono_start": float(k), "mono_end": k + 0.5}
            )
        (tdir / "worker-1.jsonl").write_text(
            "".join(json.dumps(doc) + "\n" for doc in lines)
        )

    def test_outcome_table_with_shares(self, tmp_path, capsys):
        from repro.fi.__main__ import main

        journal = self._journal(tmp_path)
        assert main(["status", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "2/3 injections recorded" in out
        # One benign, one sdc out of two recorded: 50% each, zeros listed.
        assert "benign" in out and "50.0%" in out
        assert "timeout" in out and "0.0%" in out
        assert "last rate" not in out  # no telemetry directory

    def test_rate_and_eta_from_telemetry(self, tmp_path, capsys):
        from repro.fi.__main__ import main

        journal = self._journal(tmp_path)
        self._telemetry(journal)  # 4 spans, one per second -> 1.0/s
        assert main(["status", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "last rate: 1.0 injections/s" in out
        assert "eta ~1s for 1 remaining" in out


class TestLegacyStaticJournal:
    """Collapsed journals written with the removed static liveness layer
    (header meta ``{"defuse": true, "static": true}``) still resume and
    ingest. Its dead points were all def-use dead, so the def-use plan
    rebuilt on resume is the plan the journal was started under."""

    #: Dense enough that some followers' representatives land after the
    #: --limit stop, so only a rebuilt plan back-annotates them.
    RUN = ("--target", "avr-fib", "--sampled", "300", "--seed", "11",
           "--defuse", "--workers", "0", "--no-store")

    def _legacy(self, tmp_path):
        """A partial ``--defuse`` journal relabeled as a static+defuse one."""
        from repro.fi.__main__ import main

        journal = tmp_path / "legacy.jsonl"
        assert main(["run", *self.RUN, "--limit", "2",
                     "--journal", str(journal)]) == 0
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        lines[0]["meta"].update(static=True, static_annotated=1)
        dead = next(doc for doc in lines[1:] if doc.get("pruned_by")
                    and "equivalence_rep" not in doc)
        dead["pruned_by"] = "static"
        journal.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
        return journal

    def test_resume_and_ingest_match_a_fresh_defuse_run(self, tmp_path):
        from repro.fi.__main__ import main
        from repro.fi.journal import load_journal
        from repro.store import ResultsStore

        fresh = tmp_path / "fresh.jsonl"
        assert main(["run", *self.RUN, "--journal", str(fresh)]) == 0
        legacy = self._legacy(tmp_path)
        assert not load_journal(legacy).complete
        assert main(["resume", "--journal", str(legacy), "--workers", "0",
                     "--no-store"]) == 0

        assert load_journal(legacy).complete
        assert _records(legacy) == _records(fresh)
        # Same plan: exactly the fresh run's points skipped simulation.
        assert _annotated(legacy) == _annotated(fresh)

        with ResultsStore(tmp_path / "w.sqlite3") as store:
            cid = store.ingest_journal(legacy)
            row = store.campaign(cid)
            assert row.defuse and row.complete
            assert store.outcome_tally(cid) == dict(
                Counter(outcome for _, _, outcome in _records(fresh))
            )


class TestDefuseColdCache:
    def test_map_is_built_from_the_campaign_without_a_trace_run(
        self, tmp_path, monkeypatch
    ):
        """``--pruned --defuse`` with no cached map builds it from the
        campaign's own golden run: no trace-recording simulation, and the
        map written equals the committed one."""
        from repro.eval import context
        from repro.fi.__main__ import main
        from repro.prune import analyze
        from repro.sim.simulator import Simulator

        monkeypatch.setattr(
            analyze, "_map_cache_path",
            lambda name, digest: tmp_path / f"defuse_{name}_{digest}.json",
        )
        record_trace = []
        run = Simulator.run

        def spy(self, *args, **kwargs):
            record_trace.append(kwargs.get("record_trace", True))
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", spy)
        assert main(["run", "--target", "avr-fib", "--sampled", "40",
                     "--pruned", "--defuse", "--workers", "0", "--no-store",
                     "--journal", str(tmp_path / "j.jsonl")]) == 0
        assert record_trace and not any(record_trace)
        (built,) = tmp_path.glob("defuse_avr-fib_*.json")
        assert built.read_text() == (context.cache_dir() / built.name).read_text()


class TestCliErrors:
    def test_unknown_target_fails_cleanly(self, tmp_path):
        result = _cli(
            "run", "--target", "pdp11-fib",
            "--journal", str(tmp_path / "x.jsonl"),
        )
        assert result.returncode != 0
        assert "unknown target" in result.stderr

    def test_resume_missing_journal_fails_cleanly(self, tmp_path):
        result = _cli("resume", "--journal", str(tmp_path / "absent.jsonl"))
        assert result.returncode == 2
        assert "no journal" in result.stderr
