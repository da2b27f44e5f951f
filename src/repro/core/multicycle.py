"""Multi-cycle masking — the paper's Sec. 6.2 extension direction.

Single-cycle MATEs only prune faults that die within the very cycle of the
upset. The paper conjectures that *multi-clock* MATEs ("faults that are
masked only within more than one clock cycle") could prune much more. This
module quantifies that headroom exactly: a fault is *masked within k
cycles* if, replaying the recorded inputs, the faulty machine reconverges
to the golden state within k cycles while never producing a different
primary output along the way.

(k = 1 degenerates to the exact single-cycle check that MATEs approximate;
growing k gives the upper bound any k-cycle pruning technique could reach.)
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.sim.compiler import CompiledNetlist
from repro.trace.trace import Trace


def masked_within_k_cycles(
    compiled: CompiledNetlist,
    trace: Trace,
    dff_name: str,
    cycle: int,
    k: int,
) -> bool:
    """Exact check: does an SEU at (dff, cycle) die out within k cycles?

    The faulty run replays the *recorded* primary inputs of the golden
    trace; outputs must match the golden run every cycle until the state
    reconverges, and reconvergence must happen within the window (or at the
    end of the trace — a fault that never again differs is benign too).
    """
    index = compiled.dff_names.index(dff_name)
    state = [trace.value(cycle, dff.q) for dff in compiled.dffs]
    faulty = list(state)
    faulty[index] ^= 1
    # k cycles of settling time: the injection cycle plus k-1 further ones.
    horizon = min(cycle + k - 1, trace.num_cycles - 1)
    step = compiled.step
    for current in range(cycle, horizon + 1):
        inputs = [trace.value(current, wire) for wire in compiled.input_wires]
        golden_next, golden_out, _ = step(
            [trace.value(current, dff.q) for dff in compiled.dffs], inputs, False
        )
        faulty_next, faulty_out, _ = step(faulty, inputs, False)
        if faulty_out != golden_out:
            return False
        if faulty_next == golden_next:
            return True
        faulty = faulty_next
    return False


@dataclass
class MultiCycleHeadroom:
    """Masked-fraction upper bounds per window size on sampled points."""

    windows: Sequence[int]
    sampled_points: int
    masked_counts: dict[int, int] = field(default_factory=dict)

    def fraction(self, k: int) -> float:
        """Masked fraction of sampled points within a k-cycle window."""
        if self.sampled_points == 0:
            return 0.0
        return self.masked_counts[k] / self.sampled_points

    def format(self) -> str:
        """Human-readable per-window table."""
        lines = [
            f"multi-cycle masking headroom ({self.sampled_points} sampled points):"
        ]
        for k in self.windows:
            lines.append(f"  within {k:3d} cycle(s): {100 * self.fraction(k):6.2f}%")
        return "\n".join(lines)


def multicycle_headroom(
    compiled: CompiledNetlist,
    trace: Trace,
    dff_names: Sequence[str],
    windows: Sequence[int] = (1, 2, 4, 8),
    cycle_stride: int = 97,
) -> MultiCycleHeadroom:
    """Sample the fault space and measure masked fractions per window.

    Uses a deterministic cycle stride so results are reproducible without
    a RNG. Windows must be ascending; the masked property is monotone in
    k, so each point is probed with the largest window first and binary
    facts are reused downwards.
    """
    windows = sorted(windows)
    counts = {k: 0 for k in windows}
    sampled = 0
    usable_cycles = range(0, max(trace.num_cycles - max(windows) - 1, 0), cycle_stride)
    for dff_name in dff_names:
        for cycle in usable_cycles:
            sampled += 1
            for k in windows:
                if masked_within_k_cycles(compiled, trace, dff_name, cycle, k):
                    # Monotone: masked within k => masked within k' > k.
                    for k2 in windows:
                        if k2 >= k:
                            counts[k2] += 1
                    break
    return MultiCycleHeadroom(
        windows=windows, sampled_points=sampled, masked_counts=counts
    )
