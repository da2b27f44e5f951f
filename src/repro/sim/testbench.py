"""Testbench protocol for driving netlist simulations.

A testbench supplies word-level input values each cycle (it may inspect the
current register state, e.g. to model memories addressed by a PC register)
and observes word-level outputs at the end of each cycle (e.g. to commit
memory writes or detect a halt condition).

A testbench can also be checkpointed: :meth:`Testbench.snapshot` captures
everything its later ``drive``/``observe`` calls depend on, and
:meth:`Testbench.restore` puts a fresh testbench from the same factory into
that state, so a run can resume mid-way (see ``Simulator.run(start=...)``).
"""

from __future__ import annotations

import copy
from collections.abc import Mapping, Sequence


class Testbench:
    """Base testbench: drives all inputs to zero, never halts.

    The contract every testbench keeps: ``drive(cycle, state)`` and
    ``observe(cycle, outputs)`` depend only on the cycle, the testbench's
    own state (everything :meth:`snapshot` captures), the flip-flops read
    through ``state.read_reg``/``state.read_ff``, and the outputs. Two runs
    that agree on all of these each cycle therefore drive the same inputs
    and make the same memory writes and halt decisions. Checkpointed
    injection relies on it, and so do golden-shadow lanes
    (``Campaign.inject_batch``), which decide a run without a testbench of
    its own for as long as it matches golden's reads and outputs.
    """

    def drive(self, cycle: int, state: "StateReader") -> dict[str, int]:
        """Word-level input values for this cycle (missing inputs become 0)."""
        return {}

    def observe(self, cycle: int, outputs: Mapping[str, int]) -> bool:
        """Called with word-level outputs after the cycle; True halts the run."""
        return False

    def snapshot(self) -> object:
        """Opaque copy of the run state, taken between two cycles.

        The generic version deep-copies every instance attribute. Override
        it (with :meth:`restore`) when that is too slow or too large, or
        when an attribute must be shared rather than copied.
        """
        return copy.deepcopy(vars(self))

    def restore(self, snapshot: object) -> None:
        """Return to a :meth:`snapshot`; one snapshot may be restored many times."""
        vars(self).update(copy.deepcopy(snapshot))


class StateReader:
    """Read-only view of register state offered to testbenches (protocol)."""

    def read_reg(self, name: str) -> int:
        """Word value of a named register."""
        raise NotImplementedError

    def read_ff(self, name: str) -> int:
        """Bit value of a named flip-flop."""
        raise NotImplementedError


class ConstantTestbench(Testbench):
    """Holds every input at a fixed word value."""

    def __init__(self, values: Mapping[str, int] | None = None) -> None:
        self.values = dict(values or {})

    def drive(self, cycle: int, state: StateReader) -> dict[str, int]:
        """Constant input words every cycle."""
        return dict(self.values)


class TableTestbench(Testbench):
    """Plays back a per-cycle table of input words (repeats the last row)."""

    def __init__(self, rows: Sequence[Mapping[str, int]]) -> None:
        if not rows:
            raise ValueError("TableTestbench needs at least one row")
        self.rows = [dict(row) for row in rows]

    def drive(self, cycle: int, state: StateReader) -> dict[str, int]:
        """Row for this cycle (last row repeats)."""
        index = min(cycle, len(self.rows) - 1)
        return dict(self.rows[index])

    def snapshot(self) -> object:
        """Nothing to capture: the rows are read-only."""
        return None

    def restore(self, snapshot: object) -> None:
        """Nothing to restore."""
