"""Real-core campaign benchmark: ``python -m repro.fi run`` end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload inject-avr-fib --seed 0 \\
        --seconds 45 --trace 0

Every run works in a fresh copy of ``src/`` under ``.perfbench_work/``,
whose ``.repro_cache/`` holds only the committed ``mates_*`` and
``trace_*`` artifacts and is reset before each campaign. The copy's
bytecode is compiled first, so ``.pyc`` compilation stays out of set-up.

``--trace 0`` launches ``fi run --workers 1`` as a fresh process, one
campaign at a time, until ``--seconds`` are used (at least two), times
each from outside and reports the medians of the end-to-end metrics.
``--trace 1`` makes one such untraced campaign plus one traced campaign
(``probe.py trace``) and reports the per-layer metrics.

Every run checks every campaign's outcomes: a complete journal and a zero
exit, no ``error`` records, identical records across the campaigns of the
run (traced included), agreement with ``reference.json`` at the reference
seed, and plain injection of a sample of points (``probe.py oracle``).
It also checks that the repository's ``.repro_cache`` and, in a git
checkout, ``git status`` are unchanged. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

from workloads import REFERENCE_SEED, WORKLOADS, Workload  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
CACHE_PATTERNS = ("mates_*", "trace_*")

#: Campaigns per untraced run: at least this many, more while time allows.
MIN_REPS = 2
#: Points per run re-decided by plain injection (the outcome oracle).
ORACLE_POINTS = 16
#: A run still going after this long kills its current process and fails.
RUN_LIMIT_S = 170.0
#: Journal poll period of the set-up watcher.
POLL_S = 0.002


@dataclass
class ProcessRun:
    """One process tree, timed and reaped from outside."""

    exit_code: int
    wall_s: float
    cpu_s: float
    max_rss_kb: int
    #: Seconds from launch until the first *injected* record landed.
    first_injected_s: float | None = None
    #: (seconds from launch, record) for every journal record seen.
    landings: list[tuple[float, dict]] = field(default_factory=list)


class JournalWatcher(threading.Thread):
    """Polls a growing journal and stamps each record as it lands."""

    def __init__(
        self, path: Path | None, t0: float, deadline: float, pgid: int
    ) -> None:
        super().__init__(daemon=True)
        self.path = path
        self.t0 = t0
        self.deadline = deadline
        self.pgid = pgid
        self.stop = threading.Event()
        self.landings: list[tuple[float, dict]] = []
        self.first_injected: float | None = None
        self._offset = 0
        self._partial = b""

    def poll(self) -> None:
        if self.path is None:
            return
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except FileNotFoundError:
            return
        if not chunk:
            return
        now = time.perf_counter() - self.t0
        self._offset += len(chunk)
        lines = (self._partial + chunk).split(b"\n")
        self._partial = lines.pop()
        for line in lines:
            doc = json.loads(line)
            if doc.get("kind") != "record":
                continue
            self.landings.append((now, doc))
            if self.first_injected is None and "pruned_by" not in doc:
                self.first_injected = now

    def run(self) -> None:
        while not self.stop.wait(POLL_S):
            self.poll()
            if time.perf_counter() > self.deadline:
                _kill_group(self.pgid)
                return


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def become_subreaper() -> None:
    """Adopt orphaned descendants, so their CPU and RSS can be reaped here.

    The campaign pool SIGKILLs its worker at shutdown and may exit before
    reaping it; as a child subreaper this process inherits the worker.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    pr_set_child_subreaper = 36
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def run_tree(
    argv: list[str], env: dict, cwd: Path, log: Path, deadline: float,
    journal: Path | None = None,
) -> ProcessRun:
    """Run ``argv`` as its own session; time it and reap the whole tree."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    watcher = JournalWatcher(journal, t0, deadline, proc.pid)
    watcher.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:  # interrupted: take the whole tree down with us
        _kill_group(proc.pid)
        for _ in _reap_orphans(proc.pid, grace_s=0):
            pass
        raise
    finally:
        watcher.stop.set()
        watcher.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    watcher.poll()
    cpu = usage.ru_utime + usage.ru_stime
    max_rss = usage.ru_maxrss
    for orphan in _reap_orphans(proc.pid):
        cpu += orphan.ru_utime + orphan.ru_stime
        max_rss = max(max_rss, orphan.ru_maxrss)
    return ProcessRun(
        exit_code=proc.returncode, wall_s=wall, cpu_s=cpu,
        max_rss_kb=max_rss, first_injected_s=watcher.first_injected,
        landings=watcher.landings,
    )


def _reap_orphans(pgid: int, grace_s: float = 2.0):
    """Reap adopted descendants; kill the session's leftovers after a grace."""
    deadline = time.perf_counter() + grace_s
    while True:
        try:
            pid, _, usage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            yield usage
        elif time.perf_counter() < deadline:
            time.sleep(0.005)
        else:
            _kill_group(pgid)
            deadline = float("inf")


# ----------------------------------------------------------------------
# Workspace: a private copy of src/ with a resettable artifact cache
# ----------------------------------------------------------------------
class Workspace:
    def __init__(self) -> None:
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        WORK_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
        try:
            shutil.copytree(
                ROOT / "src", self.dir / "src",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            subprocess.run(
                [sys.executable, "-m", "compileall", "-q", str(self.dir / "src")],
                check=True, stdout=subprocess.DEVNULL,
            )
        except BaseException:
            self.close()
            raise
        self.env = {
            key: value for key, value in os.environ.items()
            if not key.startswith(("PYTHON", "REPRO_"))
        }
        self.env["PYTHONPATH"] = str(self.dir / "src")
        self.probe_env = dict(
            self.env,
            PYTHONPATH=f"{self.dir / 'src'}{os.pathsep}{BENCH_DIR}",
            PYTHONDONTWRITEBYTECODE="1",
        )
        self._serial = 0

    def reset_cache(self) -> None:
        cache = self.dir / ".repro_cache"
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir()
        for pattern in CACHE_PATTERNS:
            for path in (ROOT / ".repro_cache").glob(pattern):
                shutil.copy2(path, cache / path.name)

    def fresh_dir(self, label: str) -> Path:
        self._serial += 1
        path = self.dir / f"{self._serial:02d}-{label}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run's workspace is still there


def repo_snapshot() -> dict:
    """Hashes of the repository's artifact cache, plus ``git status``."""
    snapshot: dict = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((ROOT / ".repro_cache").iterdir())
        if path.is_file()
    }
    if (ROOT / ".git").exists() and shutil.which("git"):
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT,
            capture_output=True, text=True, check=False,
        )
        snapshot["git status"] = status.stdout
    return snapshot


# ----------------------------------------------------------------------
# Host noise (reported beside each campaign, never used to scale)
# ----------------------------------------------------------------------
def calibration_ms() -> float:
    """Time of a fixed pure-Python loop, in milliseconds."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def host_noise() -> str:
    return f"load1={os.getloadavg()[0]:.2f} calib_ms={calibration_ms():.1f}"


# ----------------------------------------------------------------------
# Campaigns and their checks
# ----------------------------------------------------------------------
@dataclass
class Campaign:
    """One finished campaign: its process figures and journal."""

    label: str
    proc: ProcessRun
    header: dict
    records: dict[int, dict]
    complete: bool
    journal: Path

    @property
    def decided(self) -> int:
        return len(self.records)

    @property
    def injected(self) -> list[dict]:
        return [r for r in self.records.values() if "pruned_by" not in r]

    def signature(self) -> dict[int, tuple]:
        """What must agree record for record between campaigns."""
        return {
            i: (r["dff"], r["cycle"], r["outcome"], r.get("pruned_by"),
                tuple(r.get("equivalence_rep") or ()))
            for i, r in self.records.items()
        }


def load_campaign(label: str, proc: ProcessRun, journal: Path) -> Campaign:
    header: dict = {}
    records: dict[int, dict] = {}
    complete = False
    if journal.exists():
        for line in journal.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            if doc["kind"] == "header":
                header = doc
            elif doc["kind"] == "record":
                records[doc["i"]] = doc
            elif doc["kind"] == "complete":
                complete = True
    return Campaign(label, proc, header, records, complete, journal)


class Checker:
    """Collects every failed outcome check of one benchmark run."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first: Campaign | None = None
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
        self.reference = (
            reference.get(workload.name) if seed == REFERENCE_SEED else None
        )

    def campaign(self, camp: Campaign) -> None:
        requested = self.workload.points
        self.attempted += requested
        errors = sum(1 for r in camp.records.values() if r["outcome"] == "error")
        self.failed += errors + max(0, requested - camp.decided)
        if camp.proc.exit_code != 0:
            self.problems.append(f"{camp.label}: exit code {camp.proc.exit_code}")
        if not camp.complete or camp.decided != requested:
            self.problems.append(
                f"{camp.label}: incomplete journal, {camp.decided} of "
                f"{requested} records"
            )
        if errors:
            self.problems.append(f"{camp.label}: {errors} error record(s)")
        if self.reference is not None:
            self._against_reference(camp)
        if self.first is None:
            self.first = camp
            return
        ours, theirs = camp.signature(), self.first.signature()
        diff = [i for i in range(requested) if ours.get(i) != theirs.get(i)]
        if diff:
            self.problems.append(
                f"{camp.label}: {len(diff)} record(s) differ from "
                f"{self.first.label}, first at index {diff[0]}"
            )

    def _against_reference(self, camp: Campaign) -> None:
        points = camp.header.get("points")
        if points != self.reference["points"]:
            self.problems.append(f"{camp.label}: point list differs from reference")
            return
        wrong = [
            i for i, outcome in enumerate(self.reference["outcomes"])
            if camp.records.get(i, {}).get("outcome") != outcome
        ]
        if wrong:
            self.problems.append(
                f"{camp.label}: {len(wrong)} outcome(s) differ from the "
                f"reference, first at index {wrong[0]}"
            )

    def oracle(self, ws: Workspace) -> None:
        """Re-decide a sample of points by plain injection."""
        camp = self.first
        if camp is None or not camp.records:
            return
        records = list(camp.records.values())
        annotated = [r for r in records if "pruned_by" in r]
        pool = annotated if len(annotated) >= ORACLE_POINTS else records
        sample = random.Random(self.seed).sample(
            pool, min(ORACLE_POINTS, len(pool))
        )
        out = ws.fresh_dir("oracle")
        (out / "points.json").write_text(
            json.dumps([[r["dff"], r["cycle"]] for r in sample])
        )
        proc = run_tree(
            [sys.executable, str(BENCH_DIR / "probe.py"), "oracle",
             "--target", self.workload.target,
             "--points", str(out / "points.json"),
             "--out", str(out / "outcomes.json")],
            ws.probe_env, out, out / "oracle.log", ws.deadline,
        )
        if proc.exit_code != 0:
            self.problems.append(f"oracle: exit code {proc.exit_code}")
            return
        outcomes = json.loads((out / "outcomes.json").read_text())
        for record, outcome in zip(sample, outcomes):
            if record["outcome"] != outcome:
                self.problems.append(
                    f"oracle: point {record['dff']}@{record['cycle']} is "
                    f"{outcome} by plain injection, journaled {record['outcome']}"
                )


def launch(
    ws: Workspace, workload: Workload, seed: int, label: str, traced: bool = False
) -> Campaign:
    """One campaign in a fresh process, with a reset artifact cache.

    Untraced: ``python -m repro.fi run``. Traced: ``probe.py trace``, which
    also writes ``trace.json`` next to the journal.
    """
    ws.reset_cache()
    out = ws.fresh_dir(label)
    journal = out / "journal.jsonl"
    if traced:
        argv = [
            sys.executable, str(BENCH_DIR / "probe.py"), "trace",
            "--workload", workload.name, "--seed", str(seed),
            "--workdir", str(out), "--out", str(out / "trace.json"),
        ]
        env = ws.probe_env
    else:
        argv = [
            sys.executable, "-m", "repro.fi", "run", *workload.fi_args(seed),
            "--journal", str(journal), "--store", str(out / "store.sqlite3"),
            "--metrics-out", str(out / "metrics.json"),
        ]
        env = ws.env
    noise = host_noise()
    proc = run_tree(argv, env, out, out / "run.log", ws.deadline, journal=journal)
    camp = load_campaign(label, proc, journal)
    print(
        f"{workload.name} seed={seed} {label}: decided={camp.decided} "
        f"wall={proc.wall_s:.3f}s setup={proc.first_injected_s or 0:.3f}s "
        f"cpu={proc.cpu_s:.3f}s rss={proc.max_rss_kb / 1024:.1f}MB "
        f"exit={proc.exit_code} {noise}"
    )
    return camp


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(camps: list[Campaign]) -> dict[str, tuple[float, str]]:
    """Medians over the run's untraced campaigns."""
    median = statistics.median
    return {
        "decided_per_s": (
            median([c.decided / c.proc.wall_s for c in camps]), "points/s"),
        "setup_s": (
            median([c.proc.first_injected_s or c.proc.wall_s for c in camps]), "s"),
        "cpu_ms_per_point": (
            median([c.proc.cpu_s * 1e3 / max(1, c.decided) for c in camps]), "ms"),
        "peak_rss_mb": (
            median([c.proc.max_rss_kb / 1024 for c in camps]), "MB"),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def per_layer(untraced: Campaign, traced: Campaign, doc: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced run and one untraced campaign."""
    parent, worker = doc["timers"]["parent"], doc["timers"]["worker"]

    def both(key: str) -> float:
        return parent[key] + worker[key]

    metrics_path = untraced.journal.parent / "metrics.json"
    counters = json.loads(metrics_path.read_text())["counters"]

    def count(name: str) -> int:
        return sum(v for k, v in counters.items() if k.split("{")[0] == name)

    golden = untraced.header["golden_cycles"]
    injected = untraced.injected
    seconds = [r["seconds"] for r in injected]
    landed = [t for t, r in untraced.proc.landings if "pruned_by" not in r]
    first_dispatch = landed[0] - seconds[0]
    last_landing = max(t for t, _ in untraced.proc.landings)

    spans = doc["spans"]
    run_span = next(s for s in spans if s["name"] == "runner.run")
    appends = [
        s for s in spans
        if s["name"] == "journal.append" and "pruned_by" not in s["attrs"]
    ]
    first, last = appends[0], appends[-1]
    pool_start = (first["start"] - run_span["start"]) / 1e9 - first["attrs"]["seconds"]
    window = (last["start"] - first["start"]) / 1e9 + first["attrs"]["seconds"]
    busy = sum(s["attrs"]["seconds"] for s in appends)
    self_times = doc["self_times"]
    telemetry = untraced.journal.parent / "journal.jsonl.telemetry"
    telemetry_bytes = sum(p.stat().st_size for p in telemetry.rglob("*") if p.is_file())
    untraced_rate = untraced.decided / untraced.proc.wall_s
    traced_rate = traced.decided / traced.proc.wall_s
    annotated = traced.decided - len(traced.injected)
    return {
        "synth.netlist_s": (both("synth_ns") / 1e9, "s"),
        "sim.compile_s": (both("compile_ns") / 1e9, "s"),
        "sim.step_s": (both("step_ns") / 1e9, "s"),
        "sim.step_us_per_cycle": (both("step_ns") / 1e3 / both("steps"), "us"),
        "sim.io_s": (both("io_ns") / 1e9, "s"),
        "sim.cycles": (count("sim.cycles.simulated"), "count"),
        "sim.cycles_per_injection": (
            (counters.get("sim.cycles.simulated{worker=0}", 0) - golden)
            / len(injected), "count"),
        "sim.timeout_cycle_frac": (
            both("timeout_cycles") / both("inject_cycles"), "ratio"),
        "tb.drive_s": (both("drive_ns") / 1e9, "s"),
        "tb.observe_s": (both("observe_ns") / 1e9, "s"),
        "fi.golden_s": (both("golden_ns") / 1e9, "s"),
        "fi.classify_s": (both("classify_ns") / 1e9, "s"),
        "fi.inject_p50_ms": (percentile(seconds, 50) * 1e3, "ms"),
        "fi.inject_p90_ms": (percentile(seconds, 90) * 1e3, "ms"),
        "runner.pool_start_s": (pool_start, "s"),
        "runner.worker_busy_frac": (
            sum(seconds) / (last_landing - first_dispatch), "ratio"),
        "runner.overhead_ms_per_point": (
            (window - busy) * 1e3 / len(appends), "ms"),
        "runner.retries": (count("campaign.retries"), "count"),
        "runner.quarantined": (count("campaign.points.quarantined"), "count"),
        "runner.worker_restarts": (count("campaign.worker_restarts"), "count"),
        "journal.append_s": (self_times.get("journal.append", 0.0), "s"),
        "journal.bytes": (traced.journal.stat().st_size, "bytes"),
        "core.replay_s": (self_times.get("core.replay", 0.0), "s"),
        "core.mate_pruned_points": (doc["mate_pruned_points"], "count"),
        "prune.defuse_build_s": (self_times.get("prune.defuse_build", 0.0), "s"),
        "prune.collapse_s": (self_times.get("prune.collapse", 0.0), "s"),
        "prune.annotated_frac": (annotated / traced.decided, "ratio"),
        "store.ingest_s": (self_times.get("store.ingest", 0.0), "s"),
        "obs.telemetry_bytes": (telemetry_bytes, "bytes"),
        "obs.trace_overhead_frac": (1 - traced_rate / untraced_rate, "ratio"),
    }


# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            ws: Workspace, checker: Checker) -> dict[str, tuple[float, str]]:
    if trace:
        untraced = launch(ws, workload, seed, "untraced")
        checker.campaign(untraced)
        traced = launch(ws, workload, seed, "traced", traced=True)
        checker.campaign(traced)
        checker.oracle(ws)
        trace_doc = traced.journal.parent / "trace.json"
        if checker.problems or not trace_doc.exists():
            return {}
        return per_layer(untraced, traced, json.loads(trace_doc.read_text()))
    camps: list[Campaign] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(camps) >= MIN_REPS and elapsed * (len(camps) + 1) / len(camps) > seconds:
            break
        camp = launch(ws, workload, seed, f"rep{len(camps) + 1}")
        checker.campaign(camp)
        camps.append(camp)
    checker.oracle(ws)
    metrics = end_to_end(camps)
    error_frac = checker.failed / checker.attempted
    print(
        f"{workload.name} seed={seed} medians of {len(camps)}: "
        + "  ".join(f"{k}={v:.4g} {u}" for k, (v, u) in metrics.items())
        + f"  error_frac={error_frac:.4g} ratio"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not any(
        (ROOT / ".repro_cache").glob("mates_*")
    ):
        print(
            f"error: {ROOT} holds no repro sources and MATE cache to benchmark",
            file=sys.stderr,
        )
        return 2
    become_subreaper()
    # SIGTERM unwinds like Ctrl-C, so campaigns are killed and reaped and
    # the workspace is removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    workload = WORKLOADS[args.workload]
    checker = Checker(workload, args.seed)
    before = repo_snapshot()
    ws = Workspace()
    try:
        metrics = measure(
            workload, args.seed, args.seconds, bool(args.trace), ws, checker
        )
    finally:
        ws.close()
    if repo_snapshot() != before:
        checker.problems.append("the repository's .repro_cache or git status changed")
    for problem in checker.problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    correct = not checker.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
