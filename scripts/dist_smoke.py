#!/usr/bin/env python
"""Distributed-campaign smoke drill: coordinator, two workers, one kill.

The acceptance sequence CI runs as ``make dist-smoke``:

1. Single-host reference: ``fi run`` over a sampled avr-fib fault list.
2. Coordinator (with shared-secret worker auth and the live HTTP console
   mounted) plus two loopback injector workers; the same campaign
   submitted over the wire and sharded across both. ``/metrics`` and
   ``/status.json`` are scraped mid-run, the dashboard page and a
   flamegraph of the relayed telemetry are saved as artifacts, and the
   run must finish with zero health alerts fired.
3. One worker SIGKILLed mid-campaign — lease expiry must reassign its
   shard and the campaign must still complete.
4. The merged shard journal and the reference ingest into one warehouse
   and ``store diff`` must report zero outcome flips (exit 1 otherwise);
   the two journals must also agree on ``left_golden`` (the cycle a lane
   left golden's shadow) at every index.
5. Stall drill: a fresh coordinator with a tight stall threshold, one
   worker SIGSTOPped mid-campaign — the ``stalled`` health rule must
   fire, ``submit --wait --fail-on-alert`` must exit nonzero, and the
   alert must clear after SIGCONT.

Everything lands under ``--smoke-dir`` so CI uploads the reference
journal, the sharded campaign directory (shard journals + relayed
telemetry), the console/flamegraph pages, and the warehouse as one
artifact.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))

TARGET = "avr-fib"
CAMPAIGN = "dist-smoke"
#: The shared-secret the drill distributes: flag on the coordinator and
#: submit side, $REPRO_FI_TOKEN on the workers — both paths exercised.
TOKEN = "dist-smoke-token"
WORKER_ENV = dict(ENV, REPRO_FI_TOKEN=TOKEN)


def _log(message):
    print(f"[dist-smoke] {message}", flush=True)


def _run(*args, timeout=1200):
    """One foreground CLI step; raises on nonzero exit."""
    _log("$ " + " ".join(str(a) for a in args))
    subprocess.run(
        [sys.executable, "-m", *map(str, args)],
        env=ENV, cwd=REPO_ROOT, check=True, timeout=timeout,
    )


def _spawn(*args, env=None):
    _log("$ " + " ".join(str(a) for a in args) + " &")
    return subprocess.Popen(
        [sys.executable, "-m", *map(str, args)],
        env=env or ENV, cwd=REPO_ROOT, start_new_session=True,
    )


def _scrape(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode()


def _console_url(state_dir):
    return json.loads((state_dir / "console.json").read_text())["url"]


def _kill(proc, signum=signal.SIGKILL):
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signum)
        except ProcessLookupError:
            pass
    proc.wait(timeout=60)


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.2)
    raise SystemExit(f"dist-smoke: timed out waiting for {what}")


def _journaled_records(directory):
    """Completed injection records across every shard journal so far."""
    count = 0
    for path in directory.glob("shard-*.jsonl"):
        with open(path) as fh:
            for line in fh:
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue  # torn tail mid-write
                if doc.get("kind") == "record":
                    count += 1
    return count


def _left_golden(journal):
    """``{index: left_golden or None}`` over a journal's records."""
    found = {}
    with open(journal) as fh:
        for line in fh:
            doc = json.loads(line)
            if doc.get("kind") == "record":
                found[doc["i"]] = doc.get("left_golden")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--smoke-dir", type=Path, default=Path(".repro_cache/smoke")
    )
    parser.add_argument(
        "--kill-after", type=int, default=200, metavar="N",
        help="SIGKILL one worker once N records are journaled (default 200)",
    )
    args = parser.parse_args(argv)

    smoke = args.smoke_dir.resolve()
    smoke.mkdir(parents=True, exist_ok=True)
    reference = smoke / "dist-smoke-reference.jsonl"
    state_dir = smoke / "dist-smoke-state"
    warehouse = smoke / "dist-smoke.sqlite3"
    port_file = smoke / "dist-smoke.port"
    for stale in (reference, warehouse, port_file):
        stale.unlink(missing_ok=True)
    if state_dir.exists():
        shutil.rmtree(state_dir)

    _log(f"single-host reference: {TARGET} x {args.points} points")
    _run(
        "repro.fi", "run", "--target", TARGET,
        "--sampled", args.points, "--seed", args.seed,
        "--journal", reference, "--no-store",
    )

    coordinator = _spawn(
        "repro.fi", "serve", "--host", "127.0.0.1", "--port", "0",
        "--port-file", port_file, "--state-dir", state_dir,
        "--no-store", "--lease-seconds", "15",
        "--console-port", "0", "--auth-token", TOKEN,
    )
    workers = []
    try:
        _wait_for(port_file.exists, 60, "the coordinator's port file")
        port = int(port_file.read_text())
        _wait_for(
            lambda: (state_dir / "console.json").exists(),
            60, "the console discovery file",
        )
        console = _console_url(state_dir)
        _log(f"coordinator listening on 127.0.0.1:{port}, console {console}")
        workers = [
            _spawn(
                "repro.fi", "worker", "--connect", f"127.0.0.1:{port}",
                env=WORKER_ENV,  # token via $REPRO_FI_TOKEN
            )
            for _ in range(2)
        ]
        _run(
            "repro.fi", "submit", "--connect", f"127.0.0.1:{port}",
            "--target", TARGET, "--sampled", args.points,
            "--seed", args.seed, "--name", CAMPAIGN,
            "--auth-token", TOKEN,
        )
        directory = state_dir / CAMPAIGN

        _wait_for(
            lambda: _journaled_records(directory) >= args.kill_after,
            600, f"{args.kill_after} journaled records",
        )

        _log("mid-run console scrape")
        metrics = _scrape(console + "/metrics")
        for needle in (
            "repro_service_records_total",
            "repro_obs_health_firing",
            "{worker=",  # relayed, worker-labelled series
        ):
            if needle not in metrics:
                raise SystemExit(f"dist-smoke: {needle!r} missing /metrics")
        status = json.loads(_scrape(console + "/status.json"))
        if not status["campaigns"][0]["shards"]:
            raise SystemExit("dist-smoke: no lease table in /status.json")
        if not all(w["authenticated"] for w in status["worker_table"]):
            raise SystemExit("dist-smoke: worker rows not authenticated")
        (smoke / "dist-smoke-console.html").write_text(_scrape(console + "/"))

        _log(f"SIGKILL worker pid {workers[0].pid} mid-campaign")
        _kill(workers[0])

        _wait_for(
            lambda: (directory / "merged.jsonl").exists()
            and coordinator.poll() is None,
            900, "the merged journal",
        )
        status = json.loads(_scrape(console + "/status.json"))
        if status.get("alerts_fired_total", 0):
            raise SystemExit(
                f"dist-smoke: health alerts fired during a healthy run: "
                f"{status['alerts_fired_total']}"
            )
        _log("campaign complete, zero health alerts; sharded status:")
        _run("repro.fi", "status", "--journal", directory)
    finally:
        for proc in workers:
            _kill(proc)
        _kill(coordinator, signal.SIGTERM)

    _log("flamegraph from the relayed campaign telemetry")
    _run(
        "repro.obs", "flame", directory / "telemetry",
        "--out", smoke / "dist-smoke-flame.html",
        "--title", "dist-smoke campaign",
    )

    _log("warehouse diff: distributed merge vs single-host reference")
    _run("repro.store", "--db", warehouse, "ingest", reference)
    _run("repro.store", "--db", warehouse, "ingest", directory)
    _run("repro.store", "--db", warehouse, "list")
    # Exits 1 on any outcome flip between the two campaigns — the gate.
    _run("repro.store", "--db", warehouse, "diff", "1", "2")
    _log("zero outcome flips: distributed == single-host")
    expected = _left_golden(reference)
    merged = _left_golden(directory / "merged.jsonl")
    differ = sorted(
        i for i in expected.keys() | merged.keys()
        if i not in expected or i not in merged or expected[i] != merged[i]
    )
    if differ:
        raise SystemExit(
            f"dist-smoke: left_golden differs at {len(differ)} index(es), "
            f"first {differ[:5]}"
        )
    _log(f"left_golden identical at all {len(expected)} indices")

    _stall_drill(smoke, args.seed)
    return 0


def _stall_drill(smoke, seed):
    """A SIGSTOPped worker must trip the stall rule, then clear on SIGCONT."""
    _log("stall drill: tight stall threshold, SIGSTOPped worker")
    state_dir = smoke / "dist-smoke-stall-state"
    port_file = smoke / "dist-smoke-stall.port"
    if state_dir.exists():
        shutil.rmtree(state_dir)
    port_file.unlink(missing_ok=True)
    coordinator = _spawn(
        "repro.fi", "serve", "--host", "127.0.0.1", "--port", "0",
        "--port-file", port_file, "--state-dir", state_dir,
        "--no-store", "--no-fallback", "--stall-seconds", "3",
        "--console-port", "0", "--auth-token", TOKEN,
    )
    worker = waiter = None
    try:
        _wait_for(port_file.exists, 60, "the stall coordinator's port file")
        port = int(port_file.read_text())
        worker = _spawn(
            "repro.fi", "worker", "--connect", f"127.0.0.1:{port}",
            env=WORKER_ENV,
        )
        waiter = _spawn(
            "repro.fi", "submit", "--connect", f"127.0.0.1:{port}",
            "--target", TARGET, "--sampled", "600", "--seed", seed,
            "--name", "stall", "--auth-token", TOKEN,
            "--wait", "--poll", "0.5", "--fail-on-alert",
        )
        _wait_for(
            lambda: _journaled_records(state_dir / "stall") >= 20,
            600, "the stall campaign to warm up",
        )
        _log(f"SIGSTOP worker pid {worker.pid}")
        os.killpg(worker.pid, signal.SIGSTOP)
        waiter_rc = waiter.wait(timeout=120)
        if waiter_rc == 0:
            raise SystemExit(
                "dist-smoke: submit --fail-on-alert exited 0 despite "
                "the stall"
            )
        _log(f"submit --wait --fail-on-alert exited {waiter_rc} as expected")
        console = _console_url(state_dir)
        if "repro_obs_health_stalled 1" not in _scrape(console + "/metrics"):
            raise SystemExit(
                "dist-smoke: stalled gauge not 1 while the worker is stopped"
            )
        _log(f"SIGCONT worker pid {worker.pid}")
        os.killpg(worker.pid, signal.SIGCONT)
        _wait_for(
            lambda: "repro_obs_health_stalled 0"
            in _scrape(console + "/metrics"),
            120, "the stall alert to clear",
        )
        _log("stall alert cleared after SIGCONT")
    finally:
        if worker is not None:
            try:
                os.killpg(worker.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            _kill(worker)
        if waiter is not None:
            _kill(waiter)
        _kill(coordinator, signal.SIGTERM)


if __name__ == "__main__":
    sys.exit(main())
