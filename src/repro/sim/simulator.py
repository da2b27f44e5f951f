"""The cycle-accurate simulator driving a compiled netlist.

The per-cycle contract (matching the paper's synchronous-circuit model):

1. optional SEU injection flips flip-flop Q bits — the flipped value is
   what the testbench and the combinational logic see this cycle;
2. the testbench computes this cycle's primary-input words from the current
   register state (external memories are addressed by registers);
3. the combinational logic is evaluated once; when tracing, all wire values
   are recorded;
4. the testbench observes the output words (memory writes commit, halt is
   detected);
5. the D values become the next state.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.obs import counter, span
from repro.sim.compiler import CompiledNetlist, exec_function
from repro.sim.testbench import Testbench
from repro.synth.lower import bit_name
from repro.trace.trace import Trace


class StateView:
    """Read-only register/FF view handed to testbenches.

    ``ports`` maps each register to its ``(dff index, bit)`` pairs, resolved
    once per simulator (bits optimized away are absent and read as 0). One
    view serves a whole run: the simulator rebinds :attr:`state` each cycle.
    """

    def __init__(
        self,
        state: list[int],
        dff_index: Mapping[str, int],
        ports: Mapping[str, tuple[tuple[int, int], ...]],
    ) -> None:
        self.state = state
        self._dff_index = dff_index
        self._ports = ports

    def read_ff(self, name: str) -> int:
        """Current value of one flip-flop by DFF name."""
        return self.state[self._dff_index[name]]

    def read_reg(self, name: str) -> int:
        """Assemble a word-level register value from its DFF bits."""
        try:
            port = self._ports[name]
        except KeyError:
            raise KeyError(f"unknown register {name!r}") from None
        state = self.state
        value = 0
        for index, bit in port:
            value |= state[index] << bit
        return value


class RecordingStateView(StateView):
    """StateView that records which DFFs the testbench reads this cycle.

    ``read_reg`` records every *present* bit DFF of the word (bits optimized
    away read as constant 0 and cannot carry a fault, so they are not
    recorded). The recorded name sets feed the def-use analysis: a cycle in
    which the testbench reads a flip-flop is a *use* of that bit even when
    no netlist endpoint observes it. ``names`` holds each register's present
    bit DFF names in ``ports`` order; the simulator swaps in a fresh
    :attr:`sink` every cycle.
    """

    def __init__(
        self,
        state: list[int],
        dff_index: Mapping[str, int],
        ports: Mapping[str, tuple[tuple[int, int], ...]],
        names: Mapping[str, tuple[str, ...]],
        sink: set[str],
    ) -> None:
        super().__init__(state, dff_index, ports)
        self._names = names
        self.sink = sink

    def read_ff(self, name: str) -> int:
        value = self.state[self._dff_index[name]]
        self.sink.add(name)
        return value

    def read_reg(self, name: str) -> int:
        value = super().read_reg(name)
        self.sink.update(self._names[name])
        return value


class Checkpoint(NamedTuple):
    """A run's state at the start of one cycle, to resume a run from.

    ``state`` holds the FF values (in ``step()`` order) before that cycle's
    flips; ``testbench`` is :meth:`Testbench.snapshot` taken before
    ``drive(cycle)``.
    """

    cycle: int
    state: bytes
    testbench: object


class SimulationResult:
    """Outcome of a simulation run."""

    def __init__(
        self,
        trace: Trace | None,
        cycles: int,
        halted: bool,
        final_state: list[int],
        outputs_last: dict[str, int],
        reads: list[frozenset[str]] | None = None,
        io: list[tuple[list[int], tuple[int, ...]]] | None = None,
    ) -> None:
        self.trace = trace
        self.cycles = cycles
        self.halted = halted
        self.final_state = final_state
        self.outputs_last = outputs_last
        #: Per-cycle sets of DFF names the testbench read (``record_reads``).
        self.reads = reads
        #: Per-cycle (input bits, output bits) pairs (``record_io``).
        self.io = io

    def __repr__(self) -> str:
        status = "halted" if self.halted else "ran"
        return f"SimulationResult({status} after {self.cycles} cycles)"


class Simulator:
    """Runs testbench-driven (optionally fault-injected) simulations."""

    def __init__(
        self, netlist: Netlist, compiled: CompiledNetlist | None = None
    ) -> None:
        self.netlist = netlist
        self.compiled = compiled or CompiledNetlist(netlist)
        self.dff_index = {name: i for i, name in enumerate(self.compiled.dff_names)}
        self.input_widths: dict[str, int] = dict(
            netlist.attributes.get("input_widths")  # type: ignore[arg-type]
            or {wire: 1 for wire in netlist.inputs}
        )
        self.output_widths: dict[str, int] = dict(
            netlist.attributes.get("output_widths")  # type: ignore[arg-type]
            or {wire: 1 for wire in netlist.outputs}
        )
        self.reg_widths: dict[str, int] = dict(
            netlist.attributes.get("reg_widths") or {}  # type: ignore[arg-type]
        )
        # Memory ports: each register's present bits, resolved once.
        self.reg_bits: dict[str, tuple[tuple[int, int], ...]] = {}
        self.reg_bit_names: dict[str, tuple[str, ...]] = {}
        for reg, width in self.reg_widths.items():
            present = [
                (self.dff_index[name], bit, name)
                for bit in range(width)
                if (name := bit_name(reg, bit, width)) in self.dff_index
            ]
            self.reg_bits[reg] = tuple((index, bit) for index, bit, _ in present)
            self.reg_bit_names[reg] = tuple(name for _, _, name in present)
        self._pack = _compile_pack(self.compiled.input_wires, self.input_widths)
        self._unpack = _compile_unpack(self.compiled.output_wires, self.output_widths)

    # ------------------------------------------------------------------
    def pack_inputs(self, words: Mapping[str, int]) -> list[int]:
        """Expand word-level input values to the netlist's input-bit list."""
        return self._pack(words)

    def unpack_outputs(self, outputs: tuple[int, ...]) -> dict[str, int]:
        """Assemble word-level output values from the output-bit tuple."""
        return self._unpack(outputs)

    def state_view(
        self, state: list[int], sink: set[str] | None = None
    ) -> StateView:
        """A view of ``state`` for testbenches; with ``sink``, a recording one."""
        if sink is None:
            return StateView(state, self.dff_index, self.reg_bits)
        return RecordingStateView(
            state, self.dff_index, self.reg_bits, self.reg_bit_names, sink
        )

    # ------------------------------------------------------------------
    def run(
        self,
        testbench: Testbench | None = None,
        max_cycles: int = 10000,
        record_trace: bool = True,
        flips: Mapping[int, list[str]] | None = None,
        record_reads: bool = False,
        start: Checkpoint | None = None,
        checkpoints: list[Checkpoint] | None = None,
        record_io: bool = False,
    ) -> SimulationResult:
        """Simulate up to ``max_cycles`` (or until the testbench halts).

        ``flips`` maps cycle → list of DFF names whose Q value is inverted
        at the start of that cycle (SEU injection). With ``record_reads``
        the result carries per-cycle sets of DFF names the testbench read.

        ``start`` resumes from a checkpoint of an earlier run on this
        netlist: the testbench is restored from it and simulation begins at
        ``start.cycle``. Cycle numbers, ``max_cycles`` and the result's
        ``cycles`` stay absolute; the trace and read sets cover only the
        cycles simulated. ``checkpoints`` collects one :class:`Checkpoint`
        per cycle simulated. With ``record_io`` the result carries each
        cycle's packed input bits and output bits.
        """
        testbench = testbench or Testbench()
        if start is None:
            first = 0
            state = self.compiled.initial_state()
        else:
            if start.cycle > max_cycles:
                raise ValueError(
                    f"checkpoint at cycle {start.cycle} is past the "
                    f"{max_cycles}-cycle budget"
                )
            first = start.cycle
            state = list(start.state)
            testbench.restore(start.testbench)
        flip_at = {
            cycle: [self.dff_index[name] for name in names]
            for cycle, names in (flips or {}).items()
        }
        step = self.compiled.step
        pack = self.pack_inputs
        unpack = self.unpack_outputs
        drive = testbench.drive
        observe = testbench.observe
        snapshot = testbench.snapshot if checkpoints is not None else None
        rows: list[tuple[int, ...]] = []
        reads: list[frozenset[str]] | None = [] if record_reads else None
        io: list[tuple[list[int], tuple[int, ...]]] | None = (
            [] if record_io else None
        )
        view = self.state_view(state, set() if record_reads else None)
        halted = False
        out_words: dict[str, int] = {}
        cycle = first
        # Instrumentation stays *outside* the per-cycle loop: one span and a
        # few counter increments per run (see benchmarks/test_bench_obs_overhead).
        with span("sim/run", netlist=self.netlist.name, injected=bool(flips)):
            for cycle in range(first, max_cycles):
                if snapshot is not None:
                    checkpoints.append(Checkpoint(cycle, bytes(state), snapshot()))
                if cycle in flip_at:
                    for index in flip_at[cycle]:
                        state[index] ^= 1
                view.state = state
                if reads is not None:
                    view.sink = sink = set()  # type: ignore[attr-defined]
                    in_words = drive(cycle, view)
                    reads.append(frozenset(sink))
                else:
                    in_words = drive(cycle, view)
                # ``row`` goes positionally: timing wrappers may forward *args only.
                in_bits = pack(in_words)
                state, outputs, row = step(state, in_bits, record_trace)
                if record_trace:
                    rows.append(row)
                if io is not None:
                    io.append((in_bits, outputs))
                out_words = unpack(outputs)
                if observe(cycle, out_words):
                    halted = True
                    cycle += 1
                    break
            else:
                cycle = max_cycles
        counter("sim.runs").inc()
        counter("sim.cycles.simulated").inc(cycle - first)
        if first:
            counter("sim.cycles.restored").inc(first)
        if flips:
            counter("sim.runs.injected").inc()

        trace = None
        if record_trace:
            matrix = np.array(rows, dtype=np.uint8) if rows else np.zeros(
                (0, len(self.compiled.trace_wires)), dtype=np.uint8
            )
            trace = Trace(self.compiled.trace_wires, matrix)
        return SimulationResult(
            trace, cycle, halted, state, out_words, reads=reads, io=io
        )


def _compile_pack(input_wires: list[str], input_widths: Mapping[str, int]):
    """Generate ``pack(words) -> input bits`` for one netlist's input order."""
    position = {wire: i for i, wire in enumerate(input_wires)}
    terms = ["0"] * len(input_wires)
    lines = ["def pack(words):", "    get = words.get"]
    for k, (word, width) in enumerate(input_widths.items()):
        lines.append(f"    w{k} = get({word!r}, 0)")
        for bit in range(width):
            wire = bit_name(word, bit, width)
            if wire not in position:
                raise ValueError(f"input wire {wire} missing from netlist")
            terms[position[wire]] = f"w{k} >> {bit} & 1"
    lines.append(f"    return [{', '.join(terms)}]")
    return exec_function(lines, "pack", "<simulator pack>")


def _compile_unpack(output_wires: list[str], output_widths: Mapping[str, int]):
    """Generate ``unpack(output bits) -> words`` for one netlist's outputs."""
    position = {wire: i for i, wire in enumerate(output_wires)}
    lines = ["def unpack(bits):", "    return {"]
    for word, width in output_widths.items():
        terms = []
        for bit in range(width):
            wire = bit_name(word, bit, width)
            if wire not in position:
                raise ValueError(f"output wire {wire} missing from netlist")
            terms.append(f"bits[{position[wire]}]" + (f" << {bit}" if bit else ""))
        lines.append(f"        {word!r}: {' | '.join(terms)},")
    lines.append("    }")
    return exec_function(lines, "unpack", "<simulator unpack>")
