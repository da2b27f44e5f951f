"""Simple word-addressed memory models for CPU testbenches.

The paper's system model puts program and data memory *outside* the netlist
(faults target CPU flip-flops); these classes model that external memory in
the testbench.
"""

from __future__ import annotations

from collections.abc import Iterable


class ROM:
    """Read-only word memory; out-of-range reads return 0 (open bus)."""

    def __init__(self, words: Iterable[int], width: int) -> None:
        self.width = width
        self._mask = (1 << width) - 1
        self.words = [w & self._mask for w in words]

    def read(self, address: int) -> int:
        """Word at ``address`` (0 beyond the end — open bus)."""
        if 0 <= address < len(self.words):
            return self.words[address]
        return 0

    def __len__(self) -> int:
        return len(self.words)


class RAM:
    """Word-addressed RAM with a write log (for result checking)."""

    def __init__(self, size: int, width: int, fill: int = 0) -> None:
        self.width = width
        self._mask = (1 << width) - 1
        self.words = [fill & self._mask] * size
        #: Chronological (cycle, address, value) log of committed writes.
        self.write_log: list[tuple[int, int, int]] = []
        # Contents and log length at the first mark(), shared by all marks.
        self._origin: tuple[tuple[int, ...], int] | None = None

    def read(self, address: int) -> int:
        """Word at ``address`` (0 beyond the end — open bus)."""
        if 0 <= address < len(self.words):
            return self.words[address]
        return 0

    def write(self, address: int, value: int, cycle: int = -1) -> None:
        """Commit a write (ignored out of range) and log it."""
        if 0 <= address < len(self.words):
            self.words[address] = value & self._mask
            self.write_log.append((cycle, address, value & self._mask))

    def mark(self) -> tuple:
        """A cheap checkpoint of the contents, for :meth:`rewind`.

        The first mark copies the words; later marks only note the write
        log's length, so a mark per cycle costs O(1). Marks assume every
        change after the first one goes through :meth:`write`.
        """
        if self._origin is None:
            self._origin = (tuple(self.words), len(self.write_log))
        return self._origin, self.write_log, len(self.write_log)

    def rewind(self, mark: tuple) -> None:
        """Take the contents and write log of a (possibly other) RAM's mark."""
        (words, first), log, end = mark
        self.words = list(words)
        for _, address, value in log[first:end]:
            self.words[address] = value
        self.write_log = log[:end]
        self._origin = None

    def load(self, address: int, values: Iterable[int]) -> None:
        """Bulk-initialize memory starting at ``address`` (not logged)."""
        for offset, value in enumerate(values):
            self.words[address + offset] = value & self._mask

    def __len__(self) -> int:
        return len(self.words)
