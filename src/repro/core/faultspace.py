"""Fault-space accounting: the (flip-flop × cycle) SEU grid of Sec. 2."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class FaultSpace:
    """The flip-flop × cycle fault space with benign-point bookkeeping.

    Every cell starts as a *possibly effective* injection point; MATE replay
    (or any other pruning technique) marks cells benign. This is the model
    behind Figure 1b, where filled dots are remaining injection points and
    empty dots are pruned ones.
    """

    def __init__(self, fault_wires: Sequence[str], num_cycles: int) -> None:
        if num_cycles < 0:
            raise ValueError("num_cycles must be non-negative")
        self.fault_wires = list(fault_wires)
        self.num_cycles = num_cycles
        self._row = {wire: i for i, wire in enumerate(self.fault_wires)}
        self.benign = np.zeros((len(self.fault_wires), num_cycles), dtype=bool)
        # Per-layer grids (e.g. "mate", "defuse"); ``benign`` is their union
        # plus any unattributed marks.
        self._layers: dict[str, np.ndarray] = {}

    @property
    def size(self) -> int:
        """Total number of (wire, cycle) injection points."""
        return len(self.fault_wires) * self.num_cycles

    def _layer_grid(self, layer: str) -> np.ndarray:
        grid = self._layers.get(layer)
        if grid is None:
            grid = np.zeros_like(self.benign)
            self._layers[layer] = grid
        return grid

    def _clip(self, cycles: np.ndarray) -> np.ndarray:
        """Normalize a per-cycle mark vector to exactly ``num_cycles`` bits.

        Shorter vectors are zero-padded, longer ones truncated, so pruning
        layers computed over a different horizon (e.g. a free-running trace
        vs. the halting golden run) compose without shape errors.
        """
        cycles = np.asarray(cycles).astype(bool).ravel()
        vec = np.zeros(self.num_cycles, dtype=bool)
        n = min(cycles.shape[0], self.num_cycles)
        vec[:n] = cycles[:n]
        return vec

    def mark_benign(self, fault_wire: str, cycle: int, layer: str | None = None) -> None:
        """Prune one injection point as provably benign."""
        self.benign[self._row[fault_wire], cycle] = True
        if layer is not None:
            self._layer_grid(layer)[self._row[fault_wire], cycle] = True

    def mark_benign_cycles(
        self, fault_wire: str, cycles: np.ndarray, layer: str | None = None
    ) -> None:
        """Mark a boolean per-cycle vector of benign points for one wire."""
        vec = self._clip(cycles)
        self.benign[self._row[fault_wire]] |= vec
        if layer is not None:
            self._layer_grid(layer)[self._row[fault_wire]] |= vec

    @property
    def layers(self) -> tuple[str, ...]:
        """Names of the pruning layers that marked at least one point."""
        return tuple(sorted(self._layers))

    def layer_benign(self, layer: str) -> int:
        """Points pruned by one named layer (independent of other layers)."""
        grid = self._layers.get(layer)
        return int(grid.sum()) if grid is not None else 0

    def layer_overlap(self, a: str, b: str) -> int:
        """Points pruned by *both* named layers."""
        grid_a = self._layers.get(a)
        grid_b = self._layers.get(b)
        if grid_a is None or grid_b is None:
            return 0
        return int((grid_a & grid_b).sum())

    def pruned_by(self, fault_wire: str, cycle: int) -> tuple[str, ...]:
        """Sorted layer names that pruned this point (empty if unpruned)."""
        row = self._row[fault_wire]
        return tuple(
            name for name in self.layers if self._layers[name][row, cycle]
        )

    def attribution(self) -> dict[str, int]:
        """Per-layer pruned-point totals plus the cross-layer overlaps.

        Returns ``{layer: count, ...}`` with an extra ``"both"`` entry when
        exactly two layers are present (the mate/defuse case).
        """
        counts = {name: self.layer_benign(name) for name in self.layers}
        if len(counts) == 2:
            a, b = self.layers
            counts["both"] = self.layer_overlap(a, b)
        return counts

    def is_benign(self, fault_wire: str, cycle: int) -> bool:
        """True if the point has been pruned."""
        return bool(self.benign[self._row[fault_wire], cycle])

    @property
    def num_benign(self) -> int:
        """Number of pruned points."""
        return int(self.benign.sum())

    @property
    def num_remaining(self) -> int:
        """Injection points still to be run in a campaign."""
        return self.size - self.num_benign

    @property
    def benign_fraction(self) -> float:
        """Pruned fraction of the whole fault space."""
        return self.num_benign / self.size if self.size else 0.0

    def remaining_points(self) -> list[tuple[str, int]]:
        """All (fault wire, cycle) points not pruned (campaign fault list)."""
        points: list[tuple[str, int]] = []
        for wire in self.fault_wires:
            row = self.benign[self._row[wire]]
            for cycle in np.nonzero(~row)[0]:
                points.append((wire, int(cycle)))
        return points

    def render_grid(self, filled: str = "●", empty: str = "○") -> str:
        """ASCII art of the fault space (Figure 1b style)."""
        width = max((len(w) for w in self.fault_wires), default=0)
        lines = []
        for wire in self.fault_wires:
            row = self.benign[self._row[wire]]
            dots = " ".join(empty if b else filled for b in row)
            lines.append(f"{wire:>{width}} {dots}")
        header = " " * width + " " + " ".join(
            str(c % 10) for c in range(self.num_cycles)
        )
        return "\n".join([header, *lines])

    def __repr__(self) -> str:
        return (
            f"FaultSpace({len(self.fault_wires)} wires x {self.num_cycles} cycles, "
            f"{self.num_benign}/{self.size} benign)"
        )
