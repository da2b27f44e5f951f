"""The remote injector worker: a stateless shard executor over TCP.

A worker owns no durable state at all — every outcome it produces is
streamed to the coordinator record by record, and the coordinator journals
them. That makes the worker's failure story trivial: SIGKILL one mid-shard
and the coordinator's lease machinery re-runs only the shard's missing
points on another worker; nothing is lost but the in-flight lane batch.

Per shard the worker runs the single-host runner's own in-process loop,
:func:`repro.fi.runner.decide_points` — build the target from the shipped
:class:`~repro.fi.runner.TargetSpec` (cached per spec, so consecutive
shards of one campaign reuse the compiled simulator and golden run),
decide the outstanding points in golden-shadow lane batches under the
runner's retry and quarantine policy, and stream one ``record`` frame per
point. Telemetry (:mod:`repro.obs.remote` spans and metrics) is buffered
locally and piggybacked on those frames; the coordinator relays it into
the campaign's telemetry directory, so dashboards, Prometheus export, and
the warehouse see remote workers exactly like local pool workers.

A worker survives coordinator restarts: a dropped connection is retried
with jittered backoff for a bounded number of consecutive attempts before
the worker gives up.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.fi.campaign import Campaign
from repro.fi.runner import (
    Decision,
    RunnerConfig,
    TargetSpec,
    backoff_delay,
    decide_points,
)
from repro.fi.service import protocol
from repro.fi.service.protocol import Connection, ProtocolError
from repro.obs import counter, events, remote, resource, span

#: A worker inside a shard sends a heartbeat before a lane batch when it
#: has sent nothing for this long (seconds).
HEARTBEAT_SECONDS = 5.0


def campaign_for(
    cache: dict[tuple[str, int], Campaign], spec_doc: dict, max_cycles: int
) -> Campaign:
    """The campaign for one target spec, built once per ``cache``.

    Building runs synthesis, compile, and the golden execution — the
    expensive part of taking a first shard of a new campaign; every later
    shard with the same spec is free.
    """
    key = (json.dumps(spec_doc, sort_keys=True), max_cycles)
    if key not in cache:
        with span("service/build-target"):
            target = TargetSpec.from_dict(spec_doc).build()
            cache[key] = Campaign(target, max_cycles=max_cycles)
    return cache[key]


def record_frame(
    lease: dict,
    index: int,
    point: tuple[str, int],
    decision: Decision,
    worker: int | None,
) -> dict:
    """The ``record`` frame of one decided point of a leased shard."""
    frame = {
        "kind": "record",
        "campaign": lease["campaign"],
        "shard": lease["shard"],
        "i": index,
        "dff": point[0],
        "cycle": point[1],
        "outcome": decision.outcome.value,
        "attempts": decision.attempts,
        "worker": worker,
    }
    if decision.seconds is not None:
        frame["seconds"] = round(decision.seconds, 6)
    if decision.error is not None:
        frame["error"] = decision.error
    if decision.left_golden is not None:
        frame["left_golden"] = decision.left_golden
    return frame


def _run_shard(
    connection: Connection,
    lease: dict,
    campaigns: dict[tuple[str, int], Campaign],
    buffer: remote.TelemetryBuffer,
) -> None:
    """Execute one leased shard, streaming records in lockstep.

    Raises :class:`ProtocolError`/``OSError`` when the connection dies (the
    caller reconnects; the coordinator requeues the shard). An ``abort``
    reply — the lease expired and the shard was reassigned — drops the
    rest of the shard silently.
    """
    points = [(dff, int(cycle)) for dff, cycle in lease["points"]]
    campaign = campaign_for(campaigns, lease["target"], int(lease["max_cycles"]))
    heartbeat_seconds = float(lease.get("heartbeat_seconds", HEARTBEAT_SECONDS))
    last_sent = time.monotonic()
    aborted = False

    def call(frame: dict) -> bool:
        nonlocal last_sent, aborted
        reply = connection.call(frame)
        last_sent = time.monotonic()
        aborted = reply.get("kind") == "abort"
        return not aborted

    def before_batch(batch: list[int]) -> bool:
        if time.monotonic() - last_sent > heartbeat_seconds and not call(
            {"kind": "heartbeat", "campaign": lease["campaign"],
             "shard": lease["shard"]}
        ):
            return False
        for index in batch:
            dff_name, cycle = points[index]
            buffer.emit("inject-start", i=index, dff=dff_name, cycle=cycle)
        return True

    def emit(index: int, decision: Decision) -> bool:
        # Refresh this worker's resource.* gauges (rate-limited) so the
        # cumulative snapshot below carries host health home.
        resource.sample_self()
        buffer.flush_metrics()
        frame = record_frame(lease, index, points[index], decision, os.getpid())
        frame["telemetry"] = buffer.drain()
        return call(frame)

    with span(
        "service/shard", campaign=lease["campaign"], shard=lease["shard"],
        points=len(lease["indices"]),
    ):
        decide_points(
            campaign, points, lease["indices"], emit,
            RunnerConfig().retry_policy(), before_batch=before_batch,
        )
    if aborted:
        return
    buffer.flush_metrics()
    connection.call(
        {
            "kind": "shard_done",
            "campaign": lease["campaign"],
            "shard": lease["shard"],
            "telemetry": buffer.drain(),
        }
    )


def run_worker(
    host: str,
    port: int,
    reconnect_attempts: int = 10,
    reconnect_backoff: float = 0.5,
    reconnect_cap: float = 5.0,
    log=None,
    token: str | None = None,
) -> int:
    """The worker main loop; returns a process exit code.

    Connects (with a version handshake), then alternates between asking
    for work and executing shards until the coordinator says ``shutdown``.
    A lost connection — coordinator crash or restart — is retried with
    jittered backoff up to ``reconnect_attempts`` consecutive failures, so
    workers ride out a coordinator kill -9 + resume without operator help.
    ``token`` is the shared-secret auth token of coordinators running with
    ``--auth-token``; a wrong or missing token is rejected at handshake.
    """
    log = log or (lambda msg: print(msg, file=sys.stderr))
    campaigns: dict[tuple[str, int], Campaign] = {}
    buffer = remote.TelemetryBuffer()
    events.install_sink(buffer)
    failures = 0
    try:
        while True:
            try:
                connection = Connection.connect(host, port)
            except OSError as exc:
                failures += 1
                if failures > reconnect_attempts:
                    log(
                        f"worker: giving up after {failures} failed "
                        f"connection attempts to {host}:{port} ({exc})"
                    )
                    return 1
                delay = backoff_delay(
                    failures, reconnect_backoff, cap=reconnect_cap
                )
                time.sleep(delay)
                continue
            try:
                extra: dict = {"telemetry": remote.hello_record("worker")}
                if token is not None:
                    extra["token"] = token
                protocol.handshake(connection, "worker", **extra)
                failures = 0
                log(f"worker {os.getpid()}: connected to {host}:{port}")
                while True:
                    reply = connection.call({"kind": "request"})
                    kind = reply.get("kind")
                    if kind == "shard":
                        _run_shard(connection, reply, campaigns, buffer)
                    elif kind == "idle":
                        # Blocking sleep is fine: there is nothing else to do.
                        time.sleep(float(reply.get("delay", 1.0)))
                    elif kind == "shutdown":
                        log(f"worker {os.getpid()}: coordinator shut down")
                        return 0
                    else:
                        raise ProtocolError(
                            f"unexpected reply kind {kind!r} to a request"
                        )
            except (ProtocolError, OSError) as exc:
                failures += 1
                counter("service.worker.reconnects").inc()
                log(f"worker {os.getpid()}: connection lost ({exc}), retrying")
                if failures > reconnect_attempts:
                    log(f"worker: giving up after {failures} failures")
                    return 1
                time.sleep(
                    backoff_delay(failures, reconnect_backoff, cap=reconnect_cap)
                )
            finally:
                connection.close()
    finally:
        events.remove_sink(buffer)
        buffer.close()
