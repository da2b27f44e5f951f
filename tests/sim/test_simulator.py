"""Tests for the compiled netlist simulator."""

import pytest

from repro import obs
from repro.cells import nangate15_library
from repro.netlist import Netlist
from repro.rtl import RtlCircuit, mux
from repro.sim import (
    RAM,
    ROM,
    CompiledNetlist,
    ConstantTestbench,
    Simulator,
    TableTestbench,
    Testbench,
)
from repro.synth import synthesize
from repro.synth.lower import bit_name


def _counter_netlist(width=8):
    c = RtlCircuit("counter")
    en = c.input("en")
    cnt = c.reg("cnt", width)
    cnt.next = mux(en, cnt, (cnt + 1).trunc(width))
    c.output("value", cnt)
    return synthesize(c)


def _value(trace, cycle, name, width):
    return trace.word(cycle, [bit_name(name, i, width) for i in range(width)])


class TestCompiledNetlist:
    def test_initial_state_from_inits(self):
        lib = nangate15_library()
        n = Netlist("t", lib)
        n.add_input("a")
        n.add_dff("f0", d="a", q="q0", init=1)
        n.add_dff("f1", d="a", q="q1", init=0)
        n.add_gate("g", "BUF", {"A": "q0"}, "y")
        n.add_output("y")
        compiled = CompiledNetlist(n)
        assert compiled.initial_state() == [1, 0]
        assert compiled.num_state_bits == 2

    def test_step_constants_in_trace(self):
        lib = nangate15_library()
        n = Netlist("t", lib)
        n.add_input("a")
        n.add_gate("g", "AND2", {"A": "a", "B": "1'b1"}, "y")
        n.add_output("y")
        compiled = CompiledNetlist(n)
        _, outputs, row = compiled.step([], [1])
        assert outputs == (1,)
        assert row[0] == 0 and row[1] == 1  # constant columns

    def test_all_cells_have_templates(self):
        """Every combinational library cell simulates per its truth table."""
        lib = nangate15_library()
        for cell in lib.combinational():
            n = Netlist("t", lib)
            pins = {}
            for pin in cell.inputs:
                n.add_input(f"in_{pin}")
                pins[pin] = f"in_{pin}"
            n.add_gate("g", cell.name, pins, "y")
            n.add_output("y")
            compiled = CompiledNetlist(n)
            for row in range(1 << len(cell.inputs)):
                inputs = [(row >> i) & 1 for i in range(len(cell.inputs))]
                _, outputs, _ = compiled.step([], inputs)
                assert outputs[0] == cell.function.evaluate_row(row), (
                    f"{cell.name} row {row}"
                )


class TestSimulatorRuns:
    def test_counting(self):
        sim = Simulator(_counter_netlist())
        result = sim.run(ConstantTestbench({"en": 1}), max_cycles=10)
        assert [_value(result.trace, t, "value", 8) for t in range(4)] == [0, 1, 2, 3]
        assert result.cycles == 10
        assert not result.halted

    def test_hold(self):
        sim = Simulator(_counter_netlist())
        result = sim.run(ConstantTestbench({"en": 0}), max_cycles=5)
        assert _value(result.trace, 4, "value", 8) == 0

    def test_table_testbench_repeats_last_row(self):
        sim = Simulator(_counter_netlist())
        result = sim.run(TableTestbench([{"en": 1}, {"en": 0}]), max_cycles=6)
        # Counts once, then holds.
        assert _value(result.trace, 5, "value", 8) == 1

    def test_halt(self):
        class HaltAtThree(Testbench):
            def drive(self, cycle, state):
                return {"en": 1}

            def observe(self, cycle, outputs):
                return outputs["value"] == 3

        sim = Simulator(_counter_netlist())
        result = sim.run(HaltAtThree(), max_cycles=100)
        assert result.halted
        assert result.cycles == 4

    def test_no_trace_mode(self):
        sim = Simulator(_counter_netlist())
        result = sim.run(ConstantTestbench({"en": 1}), max_cycles=5, record_trace=False)
        assert result.trace is None
        assert result.cycles == 5

    def test_state_view_reads_registers(self):
        class SpyTestbench(Testbench):
            def __init__(self):
                self.seen = []

            def drive(self, cycle, state):
                self.seen.append(state.read_reg("cnt"))
                return {"en": 1}

        sim = Simulator(_counter_netlist())
        spy = SpyTestbench()
        sim.run(spy, max_cycles=4)
        assert spy.seen == [0, 1, 2, 3]

    def test_outputs_last(self):
        sim = Simulator(_counter_netlist())
        result = sim.run(ConstantTestbench({"en": 1}), max_cycles=3)
        assert result.outputs_last == {"value": 2}


class TestInjection:
    def test_flip_changes_state_and_propagates(self):
        sim = Simulator(_counter_netlist())
        golden = sim.run(ConstantTestbench({"en": 1}), max_cycles=8)
        faulty = sim.run(
            ConstantTestbench({"en": 1}), max_cycles=8, flips={3: ["cnt_b2"]}
        )
        assert _value(faulty.trace, 3, "value", 8) == _value(
            golden.trace, 3, "value", 8
        ) ^ 4
        # Fault persists: counter continues from the corrupted value (3+4=7,
        # so the next cycle shows 8 instead of 4).
        assert _value(faulty.trace, 4, "value", 8) == (
            _value(golden.trace, 4, "value", 8) + 4
        )

    def test_double_flip_same_cycle(self):
        sim = Simulator(_counter_netlist())
        faulty = sim.run(
            ConstantTestbench({"en": 1}),
            max_cycles=4,
            flips={1: ["cnt_b0", "cnt_b1"]},
        )
        assert _value(faulty.trace, 1, "value", 8) == 1 ^ 0b11

    def test_unknown_dff_raises(self):
        sim = Simulator(_counter_netlist())
        with pytest.raises(KeyError):
            sim.run(ConstantTestbench({"en": 1}), max_cycles=4, flips={0: ["nope"]})


class TestMemories:
    def test_rom_open_bus(self):
        rom = ROM([1, 2, 3], width=8)
        assert rom.read(1) == 2
        assert rom.read(99) == 0
        assert len(rom) == 3

    def test_rom_masks_width(self):
        rom = ROM([0x1FF], width=8)
        assert rom.read(0) == 0xFF

    def test_ram_write_log(self):
        ram = RAM(16, width=8)
        ram.write(3, 0xAB, cycle=7)
        assert ram.read(3) == 0xAB
        assert ram.write_log == [(7, 3, 0xAB)]

    def test_ram_out_of_range_ignored(self):
        ram = RAM(4, width=8)
        ram.write(99, 1, cycle=0)
        assert ram.write_log == []
        assert ram.read(99) == 0

    def test_ram_load_not_logged(self):
        ram = RAM(8, width=16)
        ram.load(2, [10, 20])
        assert ram.read(3) == 20
        assert ram.write_log == []

    def test_ram_rewind_to_mark(self):
        ram = RAM(4, width=8)
        ram.load(0, [5, 6, 7, 8])
        ram.write(1, 0x11, cycle=0)
        mark = ram.mark()
        ram.write(2, 0x22, cycle=1)
        later = ram.mark()
        ram.write(1, 0x33, cycle=2)
        copy = RAM(4, width=8)
        copy.rewind(mark)
        assert copy.words == [5, 0x11, 7, 8]
        assert copy.write_log == [(0, 1, 0x11)]
        copy.rewind(later)
        assert copy.words == [5, 0x11, 0x22, 8]
        assert copy.write_log == [(0, 1, 0x11), (1, 2, 0x22)]
        # Rewinding copies: the marked RAM's log is untouched.
        copy.write(3, 0x44, cycle=3)
        assert len(ram.write_log) == 3


class _HaltAtNine(Testbench):
    def __init__(self):
        self.seen = []

    def drive(self, cycle, state):
        self.seen.append(state.read_reg("cnt"))
        return {"en": 1}

    def observe(self, cycle, outputs):
        return outputs["value"] == 9


class TestCheckpoints:
    def _golden(self, sim):
        checkpoints = []
        golden = sim.run(
            _HaltAtNine(), max_cycles=50, record_trace=False, checkpoints=checkpoints
        )
        return golden, checkpoints

    def test_one_checkpoint_per_cycle(self):
        sim = Simulator(_counter_netlist())
        golden, checkpoints = self._golden(sim)
        assert golden.cycles == 10
        assert [c.cycle for c in checkpoints] == list(range(10))
        # The generic snapshot captured the testbench before drive(cycle).
        assert checkpoints[4].testbench == {"seen": [0, 1, 2, 3]}

    def test_resume_matches_run_from_reset(self):
        sim = Simulator(_counter_netlist())
        _, checkpoints = self._golden(sim)
        oracle_tb = _HaltAtNine()
        oracle = sim.run(oracle_tb, max_cycles=50, flips={4: ["cnt_b0"]})
        resumed_tb = _HaltAtNine()
        resumed = sim.run(
            resumed_tb, max_cycles=50, flips={4: ["cnt_b0"]}, start=checkpoints[4]
        )
        assert resumed.cycles == oracle.cycles and resumed.halted == oracle.halted
        assert resumed.final_state == oracle.final_state
        assert resumed_tb.seen == oracle_tb.seen
        # The trace covers only the cycles simulated.
        assert resumed.trace.num_cycles == oracle.cycles - 4

    def test_restore_does_not_alias_the_snapshot(self):
        sim = Simulator(_counter_netlist())
        golden, checkpoints = self._golden(sim)
        for _ in range(2):
            tb = _HaltAtNine()
            sim.run(tb, max_cycles=50, start=checkpoints[6])
            assert tb.seen == list(range(10))
        assert checkpoints[6].testbench == {"seen": [0, 1, 2, 3, 4, 5]}

    def test_cycle_counters(self):
        sim = Simulator(_counter_netlist())
        _, checkpoints = self._golden(sim)
        obs.reset()
        sim.run(_HaltAtNine(), max_cycles=50, start=checkpoints[6])
        assert obs.counter("sim.cycles.simulated").value == 4
        assert obs.counter("sim.cycles.restored").value == 6
        sim.run(_HaltAtNine(), max_cycles=50)
        assert obs.counter("sim.cycles.simulated").value == 4 + 10
        assert obs.counter("sim.cycles.restored").value == 6

    def test_budget_stays_absolute(self):
        sim = Simulator(_counter_netlist())
        _, checkpoints = self._golden(sim)
        result = sim.run(_HaltAtNine(), max_cycles=8, start=checkpoints[6])
        assert not result.halted and result.cycles == 8
        with pytest.raises(ValueError, match="past the 5-cycle budget"):
            sim.run(_HaltAtNine(), max_cycles=5, start=checkpoints[6])
