"""Distributed campaign service: fault-tolerant coordinator + injectors.

The single-host :class:`~repro.fi.runner.CampaignRunner` scales to one
machine's cores; this package promotes it to a multi-host architecture in
the DAVOS host/injector shape — one coordinator process owning all durable
state, any number of stateless injector workers executing shards:

- :mod:`repro.fi.service.protocol` — the length-prefixed JSON wire
  protocol (version handshake, shard leases, record streaming,
  heartbeats) with asyncio and blocking-socket endpoints;
- :mod:`repro.fi.service.shards` — sharding of a campaign's fault list by
  the journal resume key, per-shard crash-safe journals, and the merge
  that reassembles them into one journal record-for-record identical to a
  single-host run;
- :mod:`repro.fi.service.coordinator` — the asyncio TCP coordinator:
  multi-campaign FIFO queue, lease state machine with deadlines and
  jittered backoff, reassignment on worker death, per-point quarantine,
  crash-safe restart from the shard journals, and graceful degradation to
  local execution when no workers are available;
- :mod:`repro.fi.service.worker` — the blocking injector client: builds
  the target from the shipped :class:`~repro.fi.runner.TargetSpec`,
  decides each shard with the runner's own lane-batch loop
  (:func:`~repro.fi.runner.decide_points`), and streams records plus
  :mod:`repro.obs.remote` telemetry back over the wire.

CLI: ``python -m repro.fi serve|worker|submit``.
"""

from repro.fi.service.coordinator import Coordinator, ServiceConfig
from repro.fi.service.protocol import PROTOCOL_VERSION, ProtocolError
from repro.fi.service.shards import (
    CampaignManifest,
    is_campaign_dir,
    load_campaign_dir,
    merge_campaign_dir,
    plan_shards,
)
from repro.fi.service.worker import run_worker

__all__ = [
    "CampaignManifest",
    "Coordinator",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceConfig",
    "is_campaign_dir",
    "load_campaign_dir",
    "merge_campaign_dir",
    "plan_shards",
    "run_worker",
]
