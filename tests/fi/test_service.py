"""Unit tests of the distributed campaign service.

Everything here runs in-process: the wire protocol against in-memory
buffers and socketpairs, the shard planner and merge against hand-written
journals, and the asyncio coordinator in a background thread with real
loopback TCP clients — handshake rejection, lease expiry and reassignment,
stale-worker aborts, shard quarantine, local-fallback degradation, and
restart-resume from partially written shard journals. Process-killing
chaos lives in ``test_service_chaos.py``.
"""

import asyncio
import contextlib
import socket
import struct
import threading
import time

import pytest

from repro.fi.classify import Outcome
from repro.fi.journal import CampaignJournal, InjectionRecord, load_journal
from repro.fi.runner import CampaignRunner, RunnerConfig, TargetSpec
from repro.fi.service import (
    CampaignManifest,
    Coordinator,
    ServiceConfig,
    is_campaign_dir,
    load_campaign_dir,
    merge_campaign_dir,
    plan_shards,
    run_worker,
)
from repro.fi.service import protocol
from repro.fi.service.protocol import Connection, ProtocolError, handshake
from repro.fi.service.shards import ShardError, shard_journal_path

from .runner_targets import TRIP_FF

ACCUM = "tests.fi.runner_targets:accum_target"
ACCUM_SPEC = TargetSpec(factory=ACCUM)
RAISING = "tests.fi.runner_targets:raising_target"


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        doc = {"kind": "record", "i": 3, "outcome": "benign"}
        frame = protocol.encode_frame(doc)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert protocol.decode_payload(frame[4:]) == doc

    def test_payload_must_be_a_message_object(self):
        with pytest.raises(ProtocolError, match="not a message object"):
            protocol.decode_payload(b'["not", "a", "dict"]')
        with pytest.raises(ProtocolError, match="not a message object"):
            protocol.decode_payload(b'{"no": "kind"}')
        with pytest.raises(ProtocolError, match="not JSON"):
            protocol.decode_payload(b"\xff\xfe")

    def test_oversized_frame_refused(self):
        too_big = struct.pack(">I", protocol.MAX_FRAME + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol._check_length(too_big)

    def test_read_message_clean_eof_is_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await protocol.read_message(reader)

        assert asyncio.run(scenario()) is None

    def test_read_message_torn_frame_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            frame = protocol.encode_frame({"kind": "hello"})
            reader.feed_data(frame[: len(frame) - 2])  # die mid-body
            reader.feed_eof()
            return await protocol.read_message(reader)

        with pytest.raises(ProtocolError, match="inside a frame body"):
            asyncio.run(scenario())

    def test_blocking_connection_round_trip(self):
        ours, theirs = socket.socketpair()
        with Connection(ours) as connection:
            theirs.sendall(protocol.encode_frame({"kind": "welcome"}))
            connection.send({"kind": "hello", "version": 1})
            assert connection.recv() == {"kind": "welcome"}
            raw = theirs.recv(1 << 16)
            assert protocol.decode_payload(raw[4:])["kind"] == "hello"
        theirs.close()

    def test_blocking_connection_torn_frame(self):
        ours, theirs = socket.socketpair()
        with Connection(ours) as connection:
            frame = protocol.encode_frame({"kind": "ok"})
            theirs.sendall(frame[:-1])
            theirs.close()
            with pytest.raises(ProtocolError, match="inside a frame"):
                connection.recv()


# ----------------------------------------------------------------------
# Shard planning, manifests, merge
# ----------------------------------------------------------------------
def _manifest(points, shard_points=4, name="unit", **overrides):
    fields = dict(
        name=name,
        target=ACCUM_SPEC.to_dict(),
        workload="accum",
        netlist_hash="cafecafecafecafe",
        seed=7,
        golden_cycles=9,
        max_cycles=50_000,
        points=points,
        shard_points=shard_points,
        status="running",
    )
    fields.update(overrides)
    return CampaignManifest(**fields)


def _points(n):
    return [(f"ff{i % 3}", i % 9) for i in range(n)]


class TestShardPlanning:
    def test_exact_division(self):
        assert plan_shards(8, 4) == [(0, 4), (4, 8)]

    def test_remainder_goes_to_last_shard(self):
        assert plan_shards(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_single_shard_covers_everything(self):
        assert plan_shards(3, 100) == [(0, 3)]

    def test_zero_points_is_zero_shards(self):
        assert plan_shards(0, 4) == []

    def test_invalid_sizes_refused(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 4)
        with pytest.raises(ValueError):
            plan_shards(4, 0)

    def test_manifest_round_trip(self, tmp_path):
        manifest = _manifest(_points(10))
        manifest.save(tmp_path)
        assert is_campaign_dir(tmp_path)
        loaded = CampaignManifest.load(tmp_path)
        assert loaded.points == manifest.points
        assert loaded.shards == [(0, 4), (4, 8), (8, 10)]
        assert loaded.header() == manifest.header()

    def test_shard_header_keys_the_sub_list(self):
        from repro.fi.journal import points_hash

        manifest = _manifest(_points(10))
        header = manifest.shard_header(1)
        assert header["points"] == [
            [dff, cycle] for dff, cycle in manifest.points[4:8]
        ]
        assert header["points_hash"] == points_hash(manifest.points[4:8])
        assert header["num_points"] == 4
        assert header["meta"]["shard"] == {"id": 1, "start": 4, "stop": 8}
        # The campaign-wide resume keys are the campaign's, unchanged.
        for key in ("netlist_hash", "workload", "seed", "golden_cycles"):
            assert header[key] == manifest.header()[key]


def _write_shard(directory, manifest, shard_id, outcomes, **details):
    start, stop = manifest.shard_slice(shard_id)
    with CampaignJournal(
        shard_journal_path(directory, shard_id),
        manifest.shard_header(shard_id),
    ) as journal:
        for local, outcome in enumerate(outcomes):
            dff, cycle = manifest.points[start + local]
            journal.append_record(
                local, InjectionRecord(dff, cycle, outcome), **details
            )


class TestMerge:
    def test_merge_is_single_host_identical(self, tmp_path):
        manifest = _manifest(_points(10))
        manifest.save(tmp_path)
        per_shard = [
            [Outcome.BENIGN, Outcome.SDC, Outcome.BENIGN, Outcome.TIMEOUT],
            [Outcome.SDC] * 4,
            [Outcome.BENIGN, Outcome.BENIGN],
        ]
        provenance = [
            {},
            {"left_golden": 2},
            {"pruned_by": "defuse", "equivalence_rep": ("ff0", 0)},
        ]
        for shard_id, outcomes in enumerate(per_shard):
            _write_shard(tmp_path, manifest, shard_id, outcomes,
                         worker=4000 + shard_id, seconds=0.25,
                         **provenance[shard_id])

        merged = merge_campaign_dir(tmp_path)
        state = load_journal(merged)
        assert state.complete
        assert state.header == {
            "kind": "header", "version": 1, **manifest.header()
        }
        flat = [o for outcomes in per_shard for o in outcomes]
        assert [state.records[i].outcome for i in range(10)] == flat
        # Per-record details survive the merge (who ran what, how long).
        assert state.details[4]["worker"] == 4001
        assert state.details[9]["seconds"] == 0.25
        # So does lane and pruning provenance, and only where it was set.
        assert state.details[4]["left_golden"] == 2
        assert "left_golden" not in state.details[0]
        assert state.details[9]["pruned_by"] == "defuse"
        assert state.details[9]["equivalence_rep"] == ["ff0", 0]

    def test_merge_refuses_incomplete_shards(self, tmp_path):
        manifest = _manifest(_points(10))
        manifest.save(tmp_path)
        _write_shard(tmp_path, manifest, 0, [Outcome.BENIGN] * 4)
        _write_shard(tmp_path, manifest, 1, [Outcome.BENIGN] * 2)  # 2 of 4
        with pytest.raises(ShardError, match="shard 1 .* incomplete"):
            merge_campaign_dir(tmp_path)

    def test_merge_is_idempotent(self, tmp_path):
        manifest = _manifest(_points(4), shard_points=4)
        manifest.save(tmp_path)
        _write_shard(tmp_path, manifest, 0, [Outcome.BENIGN] * 4)
        first = merge_campaign_dir(tmp_path).read_bytes()
        assert merge_campaign_dir(tmp_path).read_bytes() == first

    def test_campaign_dir_status_counts_per_shard(self, tmp_path):
        manifest = _manifest(_points(10))
        manifest.save(tmp_path)
        _write_shard(tmp_path, manifest, 0,
                     [Outcome.BENIGN, Outcome.SDC, Outcome.SDC])
        status = load_campaign_dir(tmp_path)
        assert status.done == 3
        assert status.total == 10
        assert not status.complete
        assert [s.records for s in status.shards] == [3, 0, 0]
        assert status.outcomes == {"benign": 1, "sdc": 2}
        assert status.merged_path is None


# ----------------------------------------------------------------------
# Coordinator (in a background thread, real loopback TCP)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def coordinator(tmp_path, **overrides):
    fields = dict(
        state_dir=tmp_path / "campaigns",
        port=0,
        tick=0.02,
        idle_delay=0.05,
        fallback_seconds=None,
        retry_backoff=0.05,
        retry_backoff_cap=0.1,
        store_path=None,
    )
    fields.update(overrides)
    coord = Coordinator(ServiceConfig(**fields))
    thread = threading.Thread(target=coord.run, daemon=True)
    thread.start()
    assert coord.started.wait(10), "coordinator never came up"
    try:
        yield coord
    finally:
        coord.request_shutdown()
        thread.join(15)
        assert not thread.is_alive(), "coordinator did not shut down"


def _client(coord):
    connection = Connection.connect("127.0.0.1", coord.port)
    handshake(connection, "client")
    return connection


def _submit(connection, *, sampled=6, name="svc", **extra):
    return connection.call(
        {
            "kind": "submit",
            "target": ACCUM,
            "sampled": sampled,
            "seed": 0,
            "name": name,
            **extra,
        }
    )


def _wait_status(connection, name, predicate, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = connection.call({"kind": "status", "campaign": name})
        rows = doc.get("campaigns") or []
        if rows and predicate(rows[0]):
            return rows[0]
        time.sleep(0.05)
    raise AssertionError(f"campaign {name!r} never reached the wanted state")


class TestCoordinatorProtocol:
    def test_version_mismatch_is_refused(self, tmp_path):
        with coordinator(tmp_path) as coord:
            with Connection.connect("127.0.0.1", coord.port) as connection:
                reply = connection.call(
                    {"kind": "hello", "version": 999, "role": "worker"}
                )
            assert reply["kind"] == "error"
            assert "version" in reply["reason"]
            assert str(protocol.PROTOCOL_VERSION) in reply["reason"]

    def test_handshake_helper_raises_on_refusal(self):
        ours, theirs = socket.socketpair()
        theirs.sendall(
            protocol.encode_frame({"kind": "error", "reason": "bad version"})
        )
        with Connection(ours) as connection:
            with pytest.raises(ProtocolError, match="refused.*bad version"):
                handshake(connection, "worker")
        theirs.close()

    def test_unknown_message_kind_is_an_error(self, tmp_path):
        with coordinator(tmp_path) as coord:
            with _client(coord) as connection:
                reply = connection.call({"kind": "frobnicate"})
            assert reply["kind"] == "error"

    def test_submit_unknown_target_is_an_error(self, tmp_path):
        with coordinator(tmp_path) as coord:
            with _client(coord) as connection:
                reply = connection.call(
                    {"kind": "submit", "target": "no-such-core",
                     "sampled": 5}
                )
            assert reply["kind"] == "error"
            assert "no-such-core" in reply["reason"]

    def test_duplicate_campaign_name_is_an_error(self, tmp_path):
        with coordinator(tmp_path) as coord:
            with _client(coord) as connection:
                assert _submit(connection)["kind"] == "queued"
                reply = _submit(connection)
            assert reply["kind"] == "error"
            assert "already exists" in reply["reason"]

    def test_idle_worker_gets_idle_reply(self, tmp_path):
        with coordinator(tmp_path) as coord:
            with Connection.connect("127.0.0.1", coord.port) as connection:
                handshake(connection, "worker")
                reply = connection.call({"kind": "request"})
            assert reply["kind"] == "idle"
            assert reply["delay"] > 0


class TestLeases:
    def test_expired_lease_reassigns_and_aborts_the_stale_worker(
        self, tmp_path
    ):
        with coordinator(
            tmp_path, lease_seconds=0.3, fallback_seconds=None
        ) as coord:
            with _client(coord) as client:
                assert _submit(client, sampled=5)["kind"] == "queued"
                stale = Connection.connect("127.0.0.1", coord.port)
                handshake(stale, "worker")
                lease = stale.call({"kind": "request"})
                assert lease["kind"] == "shard"
                assert lease["indices"] == list(range(5))

                # Silence past the lease deadline: the shard must return
                # to pending with a retry count.
                _wait_status(
                    client, "svc",
                    lambda c: c["shards"][0]["status"] == "pending"
                    and c["shards"][0]["retries"] == 1,
                    timeout=15,
                )
                # The stale worker's late record is answered `abort` and
                # journals nothing.
                reply = stale.call(
                    {
                        "kind": "record", "campaign": "svc", "shard": 0,
                        "i": 0, "dff": "acc[0]", "cycle": 1,
                        "outcome": "benign",
                    }
                )
                assert reply["kind"] == "abort"
                row = _wait_status(client, "svc", lambda c: True)
                assert row["done"] == 0
                stale.close()

    def test_worker_disconnect_releases_its_lease(self, tmp_path):
        with coordinator(tmp_path, lease_seconds=30.0) as coord:
            with _client(coord) as client:
                assert _submit(client, sampled=5)["kind"] == "queued"
                doomed = Connection.connect("127.0.0.1", coord.port)
                handshake(doomed, "worker")
                assert doomed.call({"kind": "request"})["kind"] == "shard"
                doomed.close()  # dies mid-shard, well before the deadline
                _wait_status(
                    client, "svc",
                    lambda c: c["shards"][0]["status"] == "pending"
                    and c["shards"][0]["retries"] == 1,
                    timeout=15,
                )

    def test_repeated_failure_quarantines_missing_points(self, tmp_path):
        with coordinator(
            tmp_path, max_shard_retries=1, lease_seconds=30.0
        ) as coord:
            with _client(coord) as client:
                assert _submit(client, sampled=4)["kind"] == "queued"
                for _ in range(2):  # retries 1, 2 > max_shard_retries=1
                    worker = Connection.connect("127.0.0.1", coord.port)
                    handshake(worker, "worker")
                    lease = None
                    for _ in range(100):
                        lease = worker.call({"kind": "request"})
                        if lease["kind"] == "shard":
                            break
                        time.sleep(0.05)
                    assert lease["kind"] == "shard"
                    worker.close()
                row = _wait_status(
                    client, "svc", lambda c: c["status"] == "complete"
                )
                assert row["quarantined"] == 4

        merged = tmp_path / "campaigns" / "svc" / "merged.jsonl"
        state = load_journal(merged)
        assert state.complete
        assert all(
            r.outcome is Outcome.ERROR for r in state.records.values()
        )
        assert "quarantined" in state.details[0]["error"]

    def test_partial_shard_only_requeues_missing_indices(self, tmp_path):
        """A half-finished shard re-leases only its missing points —
        records a dead worker already streamed are never re-run."""
        with coordinator(tmp_path, lease_seconds=30.0) as coord:
            with _client(coord) as client:
                assert _submit(client, sampled=6)["kind"] == "queued"
                first = Connection.connect("127.0.0.1", coord.port)
                handshake(first, "worker")
                lease = first.call({"kind": "request"})
                assert lease["kind"] == "shard"
                points = lease["points"]
                for i in (0, 2, 4):
                    reply = first.call(
                        {
                            "kind": "record", "campaign": "svc", "shard": 0,
                            "i": i, "dff": points[i][0],
                            "cycle": points[i][1], "outcome": "benign",
                        }
                    )
                    assert reply["kind"] == "ok"
                first.close()
                _wait_status(
                    client, "svc",
                    lambda c: c["shards"][0]["status"] == "pending",
                    timeout=15,
                )
                second = Connection.connect("127.0.0.1", coord.port)
                handshake(second, "worker")
                release = None
                for _ in range(100):
                    release = second.call({"kind": "request"})
                    if release["kind"] == "shard":
                        break
                    time.sleep(0.05)
                assert release["indices"] == [1, 3, 5]
                second.close()


@pytest.mark.slow
class TestEndToEnd:
    def test_remote_worker_runs_campaign_to_merged_journal(self, tmp_path):
        with coordinator(tmp_path, lease_seconds=30.0) as coord:
            stop = []
            worker = threading.Thread(
                target=run_worker,
                args=("127.0.0.1", coord.port),
                kwargs={"log": stop.append},
                daemon=True,
            )
            worker.start()
            with _client(coord) as client:
                assert _submit(
                    client, sampled=12, shard_points=5
                )["kind"] == "queued"
                _wait_status(
                    client, "svc", lambda c: c["status"] == "complete"
                )
            coord.request_shutdown()
            stopping = time.monotonic()
            worker.join(60)
            assert not worker.is_alive()
            assert time.monotonic() - stopping < 5
            assert any("coordinator shut down" in line for line in stop)

        directory = tmp_path / "campaigns" / "svc"
        state = load_journal(directory / "merged.jsonl")
        assert state.complete
        assert len(state.records) == 12
        # Worker telemetry was relayed into the campaign directory.
        relayed = list((directory / "telemetry").glob("worker-*.jsonl"))
        assert relayed, "no relayed telemetry stream"

    def test_local_fallback_degrades_gracefully(self, tmp_path):
        """Zero workers: after fallback_seconds the coordinator runs the
        shards itself through the same lease/record path."""
        with coordinator(
            tmp_path, fallback_seconds=0.1, lease_seconds=30.0
        ) as coord:
            with _client(coord) as client:
                assert _submit(client, sampled=8)["kind"] == "queued"
                _wait_status(
                    client, "svc", lambda c: c["status"] == "complete"
                )
        state = load_journal(tmp_path / "campaigns" / "svc" / "merged.jsonl")
        assert state.complete
        assert len(state.records) == 8
        assert all(
            r.outcome is not Outcome.ERROR for r in state.records.values()
        )

    def test_restart_resumes_from_shard_journals_record_identical(
        self, tmp_path
    ):
        """The coordinator-crash story: shard journals written before the
        crash are honored on restart, only missing indices run, and the
        merged journal matches a single-host run record for record."""
        runner = CampaignRunner(
            ACCUM_SPEC, RunnerConfig(workers=0, install_signal_handlers=False)
        )
        points = runner.sample_points(12, seed=3)
        reference = tmp_path / "reference.jsonl"
        report = runner.run(points, reference, seed=3)
        assert report.complete
        ref_state = load_journal(reference)

        # Hand-build the post-crash state dir: manifest + shard 0 already
        # holding its first 3 records (copied from the reference).
        state_dir = tmp_path / "campaigns"
        directory = state_dir / "crashed"
        manifest = CampaignManifest(
            name="crashed",
            target=ACCUM_SPEC.to_dict(),
            workload=runner.target.name,
            netlist_hash=runner.netlist_hash,
            seed=3,
            golden_cycles=runner.golden_cycles,
            max_cycles=runner.config.max_cycles,
            points=points,
            shard_points=5,
            meta={"distributed": True},
            status="running",
        )
        manifest.save(directory)
        with CampaignJournal(
            shard_journal_path(directory, 0), manifest.shard_header(0)
        ) as journal:
            for local in range(3):
                journal.append_record(local, ref_state.records[local])

        with coordinator(
            tmp_path, fallback_seconds=0.1, lease_seconds=30.0
        ) as coord:
            with _client(coord) as client:
                _wait_status(
                    client, "crashed", lambda c: c["status"] == "complete"
                )

        merged = load_journal(directory / "merged.jsonl")
        assert merged.complete
        assert [
            (r.dff_name, r.cycle, r.outcome)
            for _, r in sorted(merged.records.items())
        ] == [
            (r.dff_name, r.cycle, r.outcome)
            for _, r in sorted(ref_state.records.items())
        ]
        # The pre-crash records were honored, not re-run: shard 0's journal
        # holds exactly its 5 records, no duplicates.
        shard0 = load_journal(shard_journal_path(directory, 0))
        assert len(shard0.records) == 5

    def test_sharded_status_cli(self, tmp_path, capsys):
        from repro.fi.__main__ import main

        manifest = _manifest(_points(10), name="clistat")
        directory = tmp_path / "clistat"
        manifest.save(directory)
        _write_shard(directory, manifest, 0,
                     [Outcome.BENIGN, Outcome.SDC, Outcome.BENIGN,
                      Outcome.BENIGN])
        assert main(["status", "--journal", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "sharded" in out
        assert "4/10 injections recorded across 3 shard(s)" in out
        assert "partial" in out


# ----------------------------------------------------------------------
# One injection policy: service points are decided like ``fi run``'s
# ----------------------------------------------------------------------
def _quarantined(state):
    """``{index: (attempts, error)}`` of every quarantined record."""
    return {
        index: (state.details[index]["attempts"], state.details[index]["error"])
        for index, record in state.records.items()
        if record.outcome is Outcome.ERROR
    }


class TestOnePolicy:
    def test_local_fallback_quarantines_like_the_inline_runner(self, tmp_path):
        runner = CampaignRunner(
            TargetSpec(factory=RAISING),
            RunnerConfig(workers=0, install_signal_handlers=False),
        )
        points = runner.sample_points(60, seed=4)  # 5 of them on the trip FF
        assert sum(dff == TRIP_FF for dff, _ in points) >= 2
        assert runner.run(points, tmp_path / "ref.jsonl", seed=4).complete
        reference = load_journal(tmp_path / "ref.jsonl")

        with coordinator(
            tmp_path, fallback_seconds=0.1, lease_seconds=30.0
        ) as coord:
            with _client(coord) as client:
                reply = client.call(
                    {
                        "kind": "submit", "target": RAISING, "sampled": 60,
                        "seed": 4, "name": "raising", "shard_points": 10,
                    }
                )
                assert reply["kind"] == "queued"
                _wait_status(
                    client, "raising", lambda c: c["status"] == "complete"
                )
        merged = load_journal(tmp_path / "campaigns" / "raising" / "merged.jsonl")

        quarantined = _quarantined(reference)
        assert set(quarantined) == {
            i for i, (dff, _) in enumerate(points) if dff == TRIP_FF
        }
        assert _quarantined(merged) == quarantined
        assert {
            attempts for attempts, _ in quarantined.values()
        } == {2}  # the default bound: one retry, then quarantine
        assert [r.outcome for _, r in sorted(merged.records.items())] == [
            r.outcome for _, r in sorted(reference.records.items())
        ]

    def test_remote_worker_matches_single_host_provenance(self, tmp_path):
        from repro.fi.__main__ import main

        reference = tmp_path / "ref.jsonl"
        assert main(
            [
                "run", "--target", ACCUM, "--sampled", "24", "--seed", "0",
                "--workers", "0", "--journal", str(reference), "--no-store",
            ]
        ) == 0
        with coordinator(tmp_path, lease_seconds=30.0) as coord:
            worker = threading.Thread(
                target=run_worker,
                args=("127.0.0.1", coord.port),
                # Exit at the first lost connection, not after the backoff.
                kwargs={"log": lambda msg: None, "reconnect_attempts": 0},
                daemon=True,
            )
            worker.start()
            with _client(coord) as client:
                assert _submit(
                    client, sampled=24, shard_points=7
                )["kind"] == "queued"
                _wait_status(
                    client, "svc", lambda c: c["status"] == "complete"
                )
            coord.request_shutdown()
            worker.join(60)
            assert not worker.is_alive()

        def provenance(state):
            return [
                (
                    i, record.dff_name, record.cycle, record.outcome,
                    state.details[i].get("left_golden"),
                )
                for i, record in sorted(state.records.items())
            ]

        expected = provenance(load_journal(reference))
        assert any(row[4] is not None for row in expected)
        assert any(row[4] is None for row in expected)
        merged = load_journal(tmp_path / "campaigns" / "svc" / "merged.jsonl")
        assert provenance(merged) == expected

    def test_service_path_never_injects_point_by_point(self):
        from pathlib import Path

        from repro.fi import service
        from repro.fi.service import worker

        assert not hasattr(worker, "ShardExecutor")
        sources = sorted(Path(service.__file__).parent.glob("*.py"))
        assert sources
        assert [
            path.name for path in sources if ".inject(" in path.read_text()
        ] == []


# ----------------------------------------------------------------------
# Shared-secret auth + live console
# ----------------------------------------------------------------------
class TestAuth:
    def test_wrong_or_missing_token_is_refused(self, tmp_path):
        with coordinator(tmp_path, auth_token="sekrit") as coord:
            for hello_extra in ({}, {"token": "wrong"}):
                with Connection.connect("127.0.0.1", coord.port) as conn:
                    reply = conn.call(
                        {
                            "kind": "hello",
                            "version": protocol.PROTOCOL_VERSION,
                            "role": "worker",
                            **hello_extra,
                        }
                    )
                assert reply["kind"] == "error"
                assert "token" in reply["reason"]

    def test_correct_token_is_welcomed(self, tmp_path):
        with coordinator(tmp_path, auth_token="sekrit") as coord:
            with Connection.connect("127.0.0.1", coord.port) as conn:
                reply = handshake(conn, "client", token="sekrit")
            assert reply["kind"] == "welcome"

    def test_no_token_configured_stays_open(self, tmp_path):
        with coordinator(tmp_path) as coord:
            with Connection.connect("127.0.0.1", coord.port) as conn:
                assert handshake(conn, "client")["kind"] == "welcome"

    def test_handshake_helper_surfaces_the_refusal(self, tmp_path):
        with coordinator(tmp_path, auth_token="sekrit") as coord:
            with Connection.connect("127.0.0.1", coord.port) as conn:
                with pytest.raises(ProtocolError, match="token"):
                    handshake(conn, "client")

    def test_authenticated_worker_gets_work_replies(self, tmp_path):
        with coordinator(tmp_path, auth_token="sekrit") as coord:
            with Connection.connect("127.0.0.1", coord.port) as conn:
                handshake(conn, "worker", token="sekrit")
                reply = conn.call({"kind": "request"})
            assert reply["kind"] == "idle"


class TestConsole:
    def test_console_mounts_and_serves_status(self, tmp_path):
        import json
        import urllib.request

        from repro.fi.service.shards import CONSOLE_NAME

        with coordinator(tmp_path, console_port=0) as coord:
            assert coord.console is not None
            discovery = json.loads(
                (tmp_path / "campaigns" / CONSOLE_NAME).read_text()
            )
            assert discovery["url"] == coord.console.url
            with _client(coord) as connection:
                assert _submit(connection, sampled=4)["kind"] == "queued"
                with urllib.request.urlopen(
                    coord.console.url + "/status.json", timeout=10
                ) as response:
                    doc = json.loads(response.read())
                assert doc["kind"] == "status"
                assert [c["name"] for c in doc["campaigns"]] == ["svc"]
                assert "alerts" in doc and "worker_table" in doc
                with urllib.request.urlopen(
                    coord.console.url + "/metrics", timeout=10
                ) as response:
                    assert b"# TYPE" in response.read()
        # The discovery file is cleaned up on shutdown.
        assert not (tmp_path / "campaigns" / CONSOLE_NAME).exists()
