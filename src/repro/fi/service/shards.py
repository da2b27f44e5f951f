"""Sharded campaign state on disk: manifest, shard journals, merge.

A distributed campaign lives in one directory owned by the coordinator::

    <state-dir>/<campaign>/
        campaign.json       # manifest: spec, points, shard table, status
        shard-0000.jsonl    # one crash-safe journal per shard
        shard-0001.jsonl
        ...
        telemetry/          # relayed per-worker telemetry streams
        merged.jsonl        # written once every shard is complete

The fault list is sharded by the journal resume key: each shard is a
contiguous slice of the campaign's point list, and its journal is a
completely ordinary :mod:`repro.fi.journal` file over that slice — header
keyed by the same netlist hash / workload / seed / golden length as the
campaign plus the slice's own ``points_hash``, records indexed shard-
locally. Every durability property (single-``os.write`` appends, batched
fsync, torn-tail-tolerant load) is inherited, which is what makes the
coordinator's kill -9 story free: restart, reload every shard journal,
and only the missing indices are redispatched.

:func:`merge_campaign_dir` reassembles the shards into ``merged.jsonl``
with the exact header and global index order a single-host
:class:`~repro.fi.runner.CampaignRunner` run of the same spec would have
produced — record-for-record identical, so ``python -m repro.store diff``
against the single-host journal is the acceptance gate.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.fi.journal import (
    CampaignJournal,
    JournalError,
    JournalState,
    journal_header,
    load_journal,
)

MANIFEST_VERSION = 1
MANIFEST_NAME = "campaign.json"
MERGED_NAME = "merged.jsonl"
TELEMETRY_DIR = "telemetry"
#: Console discovery file a serving coordinator drops in its state dir
#: (``{"url": ..., "pid": ...}``) so ``fi status`` can point at it.
CONSOLE_NAME = "console.json"

#: Manifest lifecycle states (the per-campaign status of the queue).
STATUSES = ("queued", "running", "complete", "failed")


class ShardError(JournalError):
    """A sharded campaign directory is inconsistent or incomplete."""


def plan_shards(num_points: int, shard_points: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` slices covering ``num_points``."""
    if num_points < 0:
        raise ValueError(f"negative point count {num_points}")
    if shard_points < 1:
        raise ValueError(f"shard size must be >= 1, got {shard_points}")
    return [
        (start, min(start + shard_points, num_points))
        for start in range(0, num_points, shard_points)
    ]


def shard_journal_path(directory: str | Path, shard_id: int) -> Path:
    return Path(directory) / f"shard-{shard_id:04d}.jsonl"


def is_campaign_dir(path: str | Path) -> bool:
    """Whether ``path`` is a sharded campaign directory (has a manifest)."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).exists()


@dataclass
class CampaignManifest:
    """Everything needed to rebuild a campaign's shard table after a crash.

    The manifest is the coordinator's only non-journal state: the target
    spec, the full sampled point list, the shard boundaries, and a status
    field. It is written atomically (temp file + ``os.replace``) so a
    kill -9 can never leave a half-written manifest; everything mutable —
    which points are done — lives in the shard journals instead.
    """

    name: str
    target: dict
    workload: str
    netlist_hash: str
    seed: int | None
    golden_cycles: int
    max_cycles: int
    points: list[tuple[str, int]]
    shard_points: int
    meta: dict = field(default_factory=dict)
    status: str = "queued"
    created: float = 0.0

    def __post_init__(self) -> None:
        self.points = [(dff, int(cycle)) for dff, cycle in self.points]
        if self.status not in STATUSES:
            raise ValueError(f"unknown campaign status {self.status!r}")

    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def shards(self) -> list[tuple[int, int]]:
        return plan_shards(len(self.points), self.shard_points)

    def shard_slice(self, shard_id: int) -> tuple[int, int]:
        shards = self.shards
        if not 0 <= shard_id < len(shards):
            raise IndexError(f"shard {shard_id} outside 0..{len(shards) - 1}")
        return shards[shard_id]

    def header(self) -> dict:
        """The merged-journal header — identical to a single-host run's."""
        return self._header(self.points, self.meta)

    def shard_header(self, shard_id: int) -> dict:
        """The journal header of one shard (keyed by its own sub-list)."""
        start, stop = self.shard_slice(shard_id)
        return self._header(
            self.points[start:stop],
            {
                "campaign": self.name,
                "shard": {"id": shard_id, "start": start, "stop": stop},
            },
        )

    def _header(self, points: list[tuple[str, int]], meta: dict) -> dict:
        return journal_header(
            self.target, self.workload, self.netlist_hash, self.seed,
            self.golden_cycles, self.max_cycles, points, meta,
        )

    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Atomically write the manifest into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / MANIFEST_NAME
        doc = {
            "version": MANIFEST_VERSION,
            "name": self.name,
            "target": self.target,
            "workload": self.workload,
            "netlist_hash": self.netlist_hash,
            "seed": self.seed,
            "golden_cycles": self.golden_cycles,
            "max_cycles": self.max_cycles,
            "shard_points": self.shard_points,
            "points": [[dff, cycle] for dff, cycle in self.points],
            "meta": self.meta,
            "status": self.status,
            "created": self.created,
        }
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, directory: str | Path) -> CampaignManifest:
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise ShardError(f"no campaign manifest at {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ShardError(f"manifest {path} is unparsable: {exc}") from exc
        if doc.get("version") != MANIFEST_VERSION:
            raise ShardError(
                f"manifest {path} has unsupported version "
                f"{doc.get('version')!r}"
            )
        return cls(
            name=doc["name"],
            target=doc["target"],
            workload=doc["workload"],
            netlist_hash=doc["netlist_hash"],
            seed=doc.get("seed"),
            golden_cycles=doc["golden_cycles"],
            max_cycles=doc["max_cycles"],
            points=[(dff, cycle) for dff, cycle in doc["points"]],
            shard_points=doc["shard_points"],
            meta=doc.get("meta") or {},
            status=doc.get("status", "queued"),
            created=doc.get("created", 0.0),
        )


def load_shard_state(
    directory: str | Path, shard_id: int
) -> JournalState | None:
    """One shard's journal state, or ``None`` when it was never started."""
    path = shard_journal_path(directory, shard_id)
    if not path.exists() or path.stat().st_size == 0:
        return None
    return load_journal(path)


# ----------------------------------------------------------------------
@dataclass
class ShardStatus:
    """Progress of one shard, as recovered from its journal."""

    shard_id: int
    start: int
    stop: int
    records: int
    outcomes: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return self.stop - self.start

    @property
    def complete(self) -> bool:
        return self.records >= self.total


@dataclass
class CampaignDirStatus:
    """Everything ``fi status`` reports about a sharded campaign dir."""

    directory: Path
    manifest: CampaignManifest
    shards: list[ShardStatus]
    merged_path: Path | None

    @property
    def done(self) -> int:
        return sum(s.records for s in self.shards)

    @property
    def total(self) -> int:
        return self.manifest.num_points

    @property
    def outcomes(self) -> Counter:
        merged: Counter = Counter()
        for shard in self.shards:
            merged.update(shard.outcomes)
        return merged

    @property
    def complete(self) -> bool:
        return all(s.complete for s in self.shards)


def _lenient_shard_count(path: Path) -> tuple[int, Counter]:
    """Raw record count of a journal that failed strict loading.

    A *live* campaign dir can hold a shard journal mid-rewrite (e.g. a
    concurrent quarantine replay); ``fi status`` should degrade to a
    best-effort count instead of erroring out of the whole directory.
    """
    records = 0
    outcomes: Counter = Counter()
    try:
        with path.open(encoding="utf-8", errors="replace") as fh:
            for line in fh:
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue
                if isinstance(doc, dict) and doc.get("kind") == "record":
                    records += 1
                    outcome = doc.get("outcome")
                    if outcome is not None:
                        outcomes[str(outcome)] += 1
    except OSError:
        pass
    return records, outcomes


def load_campaign_dir(directory: str | Path) -> CampaignDirStatus:
    """Recover a sharded campaign's progress from its directory.

    Works on a *live* directory: shards whose journals do not strictly
    load (torn by a concurrent writer) fall back to a lenient raw record
    count rather than failing the whole status call, and an absent
    ``merged.jsonl`` simply reports as not merged yet.
    """
    directory = Path(directory)
    manifest = CampaignManifest.load(directory)
    shards = []
    for shard_id, (start, stop) in enumerate(manifest.shards):
        outcomes: Counter = Counter()
        try:
            state = load_shard_state(directory, shard_id)
        except JournalError:
            records, outcomes = _lenient_shard_count(
                shard_journal_path(directory, shard_id)
            )
            shards.append(
                ShardStatus(
                    shard_id=shard_id,
                    start=start,
                    stop=stop,
                    records=records,
                    outcomes=outcomes,
                )
            )
            continue
        if state is not None:
            for record in state.records.values():
                outcomes[record.outcome.value] += 1
        shards.append(
            ShardStatus(
                shard_id=shard_id,
                start=start,
                stop=stop,
                records=len(state.records) if state is not None else 0,
                outcomes=outcomes,
            )
        )
    merged = directory / MERGED_NAME
    return CampaignDirStatus(
        directory=directory,
        manifest=manifest,
        shards=shards,
        merged_path=merged if merged.exists() else None,
    )


def merge_campaign_dir(
    directory: str | Path, force: bool = False
) -> Path:
    """Reassemble the shard journals into one ``merged.jsonl``.

    The merged journal carries the exact single-host header (full point
    list, full-list ``points_hash``) and its records in global index order
    with every per-record detail the shard journals hold (attempts, error,
    seconds, worker, ``left_golden``, pruning provenance, and fields this
    version does not name) preserved, so it loads, resumes-checks, diffs,
    and warehouse-ingests exactly like a journal ``fi run`` wrote directly. Raises
    :class:`ShardError` while any shard is incomplete; an existing merged
    journal is reused unless ``force``. The write is atomic (temp file +
    ``os.replace``) — a crash mid-merge never leaves a half journal.
    """
    directory = Path(directory)
    manifest = CampaignManifest.load(directory)
    merged_path = directory / MERGED_NAME
    if merged_path.exists() and not force:
        return merged_path

    records: dict[int, tuple] = {}
    for shard_id, (start, stop) in enumerate(manifest.shards):
        state = load_shard_state(directory, shard_id)
        if state is None or len(state.records) < stop - start:
            have = 0 if state is None else len(state.records)
            raise ShardError(
                f"shard {shard_id} of {directory} is incomplete "
                f"({have}/{stop - start} records) — cannot merge"
            )
        for local_index, record in state.records.items():
            records[start + local_index] = (
                record,
                state.details.get(local_index, {}),
            )
    missing = [i for i in range(manifest.num_points) if i not in records]
    if missing:
        raise ShardError(
            f"{directory} is missing {len(missing)} record(s) "
            f"(first: {missing[0]}) — cannot merge"
        )

    tmp = merged_path.with_suffix(".jsonl.tmp")
    tmp.unlink(missing_ok=True)
    with CampaignJournal(tmp, manifest.header()) as journal:
        for index in range(manifest.num_points):
            record, detail = records[index]
            journal.append_record(index, record, **{"attempts": 1, **detail})
        journal.mark_complete(manifest.num_points)
    os.replace(tmp, merged_path)
    return merged_path
