"""Cross-layer pruning accounting table (`python -m repro.eval prune`).

For each named (core, program) workload the table folds both pruning
layers over the full (flip-flop × cycle) fault space of the campaign's
golden run: the gate-level MATE layer (replayed trigger vectors) and the
architecture-level def-use layer (dead intervals plus equivalence
followers), with their overlap separated out — the cross-layer picture
the paper's title promises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval import context
from repro.prune import PruneAccounting, account, get_equivalence_map

#: Workloads tabulated by default (one per core keeps the cold-cache cost
#: of the MATE replay bounded; ``--all-programs`` covers the rest).
DEFAULT_TARGETS = ("avr-fib", "msp430-fib")
ALL_TARGETS = ("avr-fib", "avr-conv", "msp430-fib", "msp430-conv")


def _mate_vectors(core: str, program: str, golden_cycles: int) -> dict:
    """Per-fault-wire MATE trigger vectors truncated to the golden run."""
    from repro.core.replay import replay_mates

    mates = context.get_mates(core, exclude_register_file=False)
    fault_wires = context.get_fault_wires(core, exclude_register_file=False)
    trace = context.get_trace(core, program)
    replay = replay_mates(mates, trace, fault_wires)
    return {
        wire: np.unpackbits(replay.masked_vector(wire))[:golden_cycles]
        for wire in fault_wires
    }


def account_target(target_name: str, with_mates: bool = True) -> PruneAccounting:
    """The accounting row for one named workload."""
    core, _, program = target_name.partition("-")
    equivalence_map = get_equivalence_map(target_name)
    mate_vectors = (
        _mate_vectors(core, program, equivalence_map.golden_cycles)
        if with_mates
        else None
    )
    return account(
        target_name, context.get_netlist(core), equivalence_map, mate_vectors
    )


@dataclass
class PruneTableReport:
    """The assembled cross-layer pruning table."""

    rows: list[PruneAccounting]

    def format(self) -> str:
        """Render as aligned text."""
        lines = [
            "Cross-layer fault-space pruning (gate-level MATE × def-use)",
            "",
            f"{'workload':<14s}{'points':>10s}{'mate':>10s}{'defuse':>10s}"
            f"{'m&d':>9s}{'reps':>8s}{'remaining':>11s}",
            "-" * 72,
        ]
        for row in self.rows:
            lines.append(
                f"{row.target:<14s}{row.space_points:>10d}{row.mate_pruned:>10d}"
                f"{row.defuse_pruned:>10d}{row.both:>9d}"
                f"{row.representatives:>8d}{row.remaining:>11d}"
            )
        lines.append("")
        for row in self.rows:
            lines.append(
                f"{row.target}: def-use prunes {100 * row.defuse_fraction:.1f}% "
                f"alone, both layers {100 * row.union_fraction:.1f}% "
                f"({row.space_points - row.remaining} of {row.space_points})"
            )
        return "\n".join(lines)


def build_prune_table(
    targets: tuple[str, ...] = DEFAULT_TARGETS,
    with_mates: bool = True,
) -> PruneTableReport:
    """Accounting rows for the requested named workloads."""
    return PruneTableReport(
        rows=[account_target(name, with_mates=with_mates) for name in targets]
    )
