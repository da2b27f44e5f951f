"""Per-cycle def-use access events, from one lane-kernel pass per golden cycle.

For one flip-flop ``i`` and every cycle ``c`` of the golden run, we ask: if
the machine state at the start of ``c`` were exactly the golden state with
bit ``i`` flipped, where does the difference go during ``c``? The answer is
one of three *events*:

- ``'e'`` (**escape**) — the difference reaches another flip-flop's D pin, a
  primary output, or the testbench read ``i`` that cycle. The fault becomes
  observable or multi-bit; static reasoning stops here.
- ``'h'`` (**hold**) — no escape, and ``i``'s own D value differs from
  golden. Since golden D at ``c`` is golden Q at ``c+1``, the faulty next
  state is again *golden with bit ``i`` flipped*: injecting at ``c`` is
  bit-for-bit equivalent to injecting at ``c+1``.
- ``'k'`` (**kill**) — no escape, and ``i``'s own D matches golden: the
  flip is overwritten and the run reconverges with the golden run.

Every flip-flop's answer for one cycle comes from a single call of the
netlist's lane kernel (:attr:`~repro.sim.compiler.CompiledNetlist.lane_step`):
lane ``i`` starts from golden's checkpoint with flip-flop ``i`` flipped and
is stepped once on golden's recorded inputs. Comparing the lanes' next state
and outputs with golden's gives the whole one-cycle fault-effect matrix of
that cycle — a gate-level dynamic slice per flip-flop.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, getitem, or_, xor
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fi.campaign import Campaign

#: Event codes (one character per cycle).
EVENT_ESCAPE = "e"
EVENT_HOLD = "h"
EVENT_KILL = "k"


def golden_events(campaign: Campaign) -> dict[str, str]:
    """Per-cycle event string (``'e'``/``'h'``/``'k'``) of every flip-flop.

    Reads only what the campaign's golden run kept: the per-cycle
    checkpoints, the recorded input and output bits, the final state and
    the flip-flops the testbench read in each cycle (a read is a use, so it
    is an escape). Keys follow the netlist's flip-flop order.
    """
    compiled = campaign.target.simulator.compiled
    step = compiled.lane_step
    num_ffs = len(compiled.dff_names)
    mask = (1 << num_ffs) - 1
    every_lane = (0, mask).__getitem__  # a golden bit, copied into every lane
    own = [1 << i for i in range(num_ffs)]  # lane i flips flip-flop i
    others = [mask ^ bit for bit in own]
    # Lane values of FF i at the start of a cycle, by its golden bit.
    flipped = list(zip(own, others))
    checkpoints, reads, io = (
        campaign.checkpoints,
        campaign._golden_reads,
        campaign._golden.io,
    )
    num_cycles = campaign.golden_cycles
    escapes: list[int] = []
    holds: list[int] = []
    for cycle in range(num_cycles):
        state = list(map(getitem, flipped, checkpoints[cycle].state))
        in_bits, out_bits = io[cycle]
        next_state, outputs = step(state, list(map(every_lane, in_bits)), mask)
        golden_next = (
            checkpoints[cycle + 1].state
            if cycle + 1 < num_cycles
            else campaign._golden.final_state
        )
        # Lane i's bit of diffs[j]: flipping FF i changes FF j's D.
        diffs = list(map(xor, next_state, map(every_lane, golden_next)))
        escape = reduce(or_, map(and_, diffs, others), 0)
        escape |= reduce(or_, map(xor, outputs, map(every_lane, out_bits)), 0)
        for index in reads[cycle]:
            escape |= own[index]
        escapes.append(escape)
        holds.append(reduce(or_, map(and_, diffs, own), 0))
    codes = np.where(
        _bit_matrix(escapes, num_ffs),
        np.uint8(ord(EVENT_ESCAPE)),
        np.where(
            _bit_matrix(holds, num_ffs),
            np.uint8(ord(EVENT_HOLD)),
            np.uint8(ord(EVENT_KILL)),
        ),
    )
    return {
        name: row.tobytes().decode("ascii")
        for name, row in zip(compiled.dff_names, np.ascontiguousarray(codes.T))
    }


def _bit_matrix(words: list[int], width: int) -> np.ndarray:
    """Cycle × lane boolean matrix: bit ``i`` of ``words[c]`` at ``[c, i]``."""
    num_bytes = (width + 7) // 8
    raw = np.frombuffer(
        b"".join(word.to_bytes(num_bytes, "little") for word in words),
        dtype=np.uint8,
    ).reshape(len(words), num_bytes)
    return np.unpackbits(raw, axis=1, count=width, bitorder="little").astype(bool)
