"""Cross-layer pruning accounting over one fault space.

Folds the gate-level MATE layer and the architecture-level def-use layer
into one layered :class:`~repro.core.faultspace.FaultSpace` and reduces it
to the headline numbers of the `eval prune` table: points total, pruned
per layer, their overlap, and representatives still to inject.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.faultspace import FaultSpace
from repro.netlist.netlist import Netlist
from repro.prune.defuse import EquivalenceMap

#: Layer names used consistently across journal details, store, and eval.
LAYER_MATE = "mate"
LAYER_DEFUSE = "defuse"


def build_layered_space(
    netlist: Netlist,
    golden_cycles: int,
    equivalence_map: EquivalenceMap | None = None,
    mate_vectors: Mapping[str, np.ndarray] | None = None,
) -> FaultSpace:
    """A FaultSpace with per-layer attribution for one design/workload.

    ``mate_vectors`` maps fault (Q) wires to per-cycle MATE-triggered
    vectors (any length; clipped to ``golden_cycles``); the def-use layer
    marks dead points *and* followers — everything a collapsed campaign
    skips.
    """
    fault_wires = [dff.q for dff in netlist.dffs.values()]
    space = FaultSpace(fault_wires, golden_cycles)
    if mate_vectors is not None:
        for wire in fault_wires:
            vector = mate_vectors.get(wire)
            if vector is not None:
                space.mark_benign_cycles(wire, vector, layer=LAYER_MATE)
    if equivalence_map is not None:
        for dff_name, dff in netlist.dffs.items():
            space.mark_benign_cycles(
                dff.q,
                equivalence_map.pruned_vector(dff_name),
                layer=LAYER_DEFUSE,
            )
    return space


@dataclass(frozen=True)
class PruneAccounting:
    """Headline pruning numbers for one (design, workload) pair."""

    target: str
    num_wires: int
    golden_cycles: int
    space_points: int
    mate_pruned: int
    defuse_pruned: int
    both: int
    dead_points: int
    collapsed_points: int
    representatives: int

    @property
    def union(self) -> int:
        """Points pruned by at least one layer (inclusion-exclusion)."""
        return self.mate_pruned + self.defuse_pruned - self.both

    @property
    def remaining(self) -> int:
        """Points a cross-layer campaign still has to inject."""
        return self.space_points - self.union

    @property
    def defuse_fraction(self) -> float:
        return self.defuse_pruned / self.space_points if self.space_points else 0.0

    @property
    def union_fraction(self) -> float:
        return self.union / self.space_points if self.space_points else 0.0

    def layers(self) -> dict[str, int]:
        """Layer attribution dict (journal/store metadata form)."""
        counts = {LAYER_DEFUSE: self.defuse_pruned}
        if self.mate_pruned:
            counts[LAYER_MATE] = self.mate_pruned
            counts["both"] = self.both
        return counts


def account(
    target_name: str,
    netlist: Netlist,
    equivalence_map: EquivalenceMap,
    mate_vectors: Mapping[str, np.ndarray] | None = None,
) -> PruneAccounting:
    """Reduce the layered space for one target to its accounting row."""
    golden_cycles = equivalence_map.golden_cycles
    space = build_layered_space(
        netlist,
        golden_cycles,
        equivalence_map=equivalence_map,
        mate_vectors=mate_vectors,
    )
    return PruneAccounting(
        target=target_name,
        num_wires=len(netlist.dffs),
        golden_cycles=golden_cycles,
        space_points=space.size,
        mate_pruned=space.layer_benign(LAYER_MATE),
        defuse_pruned=space.layer_benign(LAYER_DEFUSE),
        both=space.layer_overlap(LAYER_MATE, LAYER_DEFUSE),
        dead_points=equivalence_map.num_dead_points,
        collapsed_points=equivalence_map.num_follower_points,
        representatives=equivalence_map.num_representatives,
    )
