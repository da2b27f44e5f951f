"""Target-level def-use analysis: map construction, caching, audit context.

`analyze_target` works on any :class:`~repro.fi.campaign.CampaignTarget`;
the ``get_*`` helpers know the named evaluation workloads (``avr-fib``,
``msp430-conv``, …) and cache the resulting :class:`EquivalenceMap` under
the artifact cache keyed by the design's netlist hash, so a collapsed
campaign (``fi run --defuse``) only pays the analysis once per design and
workload. The map is built from a :class:`~repro.fi.campaign.Campaign`'s
own golden run; a caller that already has the campaign (the CLI) passes it
and runs no second golden simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from repro.netlist.netlist import Netlist
from repro.obs import counter, span
from repro.prune.defuse import EquivalenceMap
from repro.sim.simulator import SimulationResult
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fi.campaign import Campaign, CampaignTarget


@dataclass
class DefUseAnalysis:
    """The full analysis context for one (design, workload) pair.

    Carries the campaign whose golden run the map was built from (also the
    ground truth the audit rules inject with) alongside the map. The
    golden trace and per-cycle testbench read sets that the scalar
    certificate checker reads come from a separate trace-recording golden
    run, simulated on first use only.
    """

    target_name: str
    netlist: Netlist
    campaign: Campaign
    map: EquivalenceMap

    @cached_property
    def _recorded(self) -> SimulationResult:
        target = self.campaign.target
        with span("prune/golden-trace", target=target.name):
            return target.simulator.run(
                target.make_testbench(),
                max_cycles=self.campaign.golden_cycles,
                record_trace=True,
                record_reads=True,
            )

    @property
    def trace(self) -> Trace:
        """Every wire of every golden cycle."""
        return self._recorded.trace

    @property
    def reads(self) -> list[frozenset[str]]:
        """The flip-flops the testbench read, per golden cycle."""
        return self._recorded.reads


def analyze_target(
    target: CampaignTarget,
    max_cycles: int = 50_000,
    netlist_hash: str = "",
) -> DefUseAnalysis:
    """Run the golden workload as a campaign and build its map."""
    from repro.fi.campaign import Campaign

    campaign = Campaign(target, max_cycles=max_cycles)
    return DefUseAnalysis(
        target_name=target.name,
        netlist=target.simulator.netlist,
        campaign=campaign,
        map=EquivalenceMap.build(
            campaign, workload=target.name, netlist_hash=netlist_hash
        ),
    )


def _map_cache_path(target_name: str, netlist_hash: str) -> Path:
    from repro.eval import context

    return context.cache_dir() / f"defuse_{target_name}_{netlist_hash}.json"


def _core_of(target_name: str) -> str:
    core, _, program = target_name.partition("-")
    if not program:
        raise ValueError(f"not a named core-program target: {target_name!r}")
    return core


@lru_cache(maxsize=None)
def get_analysis(target_name: str) -> DefUseAnalysis:
    """Full def-use analysis for a named fi target (memoized in-process).

    Also refreshes the on-disk map cache so later map-only consumers skip
    the analysis entirely.
    """
    from repro.eval import context
    from repro.fi.targets import named_target

    netlist_hash = context.netlist_hash(_core_of(target_name))
    analysis = analyze_target(
        named_target(target_name), netlist_hash=netlist_hash
    )
    analysis.map.save(_map_cache_path(target_name, netlist_hash))
    return analysis


def get_equivalence_map(
    target_name: str, campaign: Campaign | None = None
) -> EquivalenceMap:
    """The map for a named fi target, from the disk cache when possible.

    On a cache miss the map is built from ``campaign``'s golden run when
    one is given (it must run ``target_name``), else from a fresh
    :func:`get_analysis`.
    """
    from repro.eval import context

    netlist_hash = context.netlist_hash(_core_of(target_name))
    path = _map_cache_path(target_name, netlist_hash)
    if path.is_file():
        try:
            cached = EquivalenceMap.load(path)
        except (ValueError, KeyError, OSError):
            path.unlink(missing_ok=True)  # corrupt/stale cache: recompute
        else:
            if cached.netlist_hash == netlist_hash:
                counter("prune.map_cache.hits").inc()
                return cached
    counter("prune.map_cache.misses").inc()
    if campaign is None:
        return get_analysis(target_name).map
    equivalence_map = EquivalenceMap.build(
        campaign, workload=target_name, netlist_hash=netlist_hash
    )
    equivalence_map.save(path)
    return equivalence_map


class PruneAudit:
    """Everything the ``prune.*`` lint rules need for one named target."""

    def __init__(self, analysis: DefUseAnalysis) -> None:
        self.analysis = analysis

    @property
    def target_name(self) -> str:
        return self.analysis.target_name

    @property
    def map(self) -> EquivalenceMap:
        return self.analysis.map

    def campaign(self) -> Campaign:
        """Ground-truth injection campaign: the one the map was built on."""
        return self.analysis.campaign


@lru_cache(maxsize=None)
def get_prune_audit(target_name: str) -> PruneAudit:
    """Audit bundle for a named fi target (memoized in-process)."""
    return PruneAudit(get_analysis(target_name))
