"""Tests for compiler details: SOP fallback, lane kernel, word packing,
trace layout."""

import random

from repro.cells import BoolFunc, Cell, Library
from repro.netlist import Netlist
from repro.sim import CompiledNetlist
from repro.sim.compiler import _TEMPLATES


class TestSopFallback:
    """Cells without a hand-written template simulate via tabulated SOP."""

    def _library_with_custom_cell(self):
        lib = Library("custom")
        for name in ("INV", "BUF"):
            expr = "1 ^ A" if name == "INV" else "A"
            lib.add(Cell(name, ("A",), "Y", BoolFunc.from_expression(("A",), expr)))
        # A 3-input "exactly one hot" cell: no template exists for it.
        lib.add(Cell(
            "ONEHOT3", ("A", "B", "C"), "Y",
            BoolFunc.from_callable(
                ("A", "B", "C"), lambda a, b, c: int(a + b + c == 1)
            ),
        ))
        lib.add(Cell("DFF", ("D",), "Q", None, sequential=True))
        return lib

    def test_custom_cell_not_in_templates(self):
        assert "ONEHOT3" not in _TEMPLATES

    def test_fallback_matches_truth_table(self):
        lib = self._library_with_custom_cell()
        n = Netlist("t", lib)
        for w in ("a", "b", "c"):
            n.add_input(w)
        n.add_gate("g", "ONEHOT3", {"A": "a", "B": "b", "C": "c"}, "y")
        n.add_output("y")
        compiled = CompiledNetlist(n)
        for row in range(8):
            inputs = [(row >> i) & 1 for i in range(3)]
            _, outputs, _ = compiled.step([], inputs)
            assert outputs[0] == int(sum(inputs) == 1), f"row {row}"

    def test_fallback_lane_form_matches_truth_table(self):
        lib = self._library_with_custom_cell()
        n = Netlist("t", lib)
        for w in ("a", "b", "c"):
            n.add_input(w)
        n.add_gate("g", "ONEHOT3", {"A": "a", "B": "b", "C": "c"}, "y")
        n.add_output("y")
        # Lane k carries row k of the truth table.
        inputs = [sum((row >> i & 1) << row for row in range(8)) for i in range(3)]
        _, (y,) = CompiledNetlist(n).lane_step([], inputs, 0xFF)
        assert [y >> row & 1 for row in range(8)] == [
            int(bin(row).count("1") == 1) for row in range(8)
        ]


class TestLaneKernel:
    """``lane_step`` steps each bit lane exactly as ``step`` steps one run."""

    def test_lanes_match_scalar_steps(self, avr_sim):
        compiled = avr_sim.compiled
        rng = random.Random(3)
        lanes = 64
        states = [
            [rng.getrandbits(1) for _ in compiled.dffs] for _ in range(lanes)
        ]
        inputs = [
            [rng.getrandbits(1) for _ in compiled.input_wires]
            for _ in range(lanes)
        ]

        def pack(rows):
            return [
                sum(row[i] << lane for lane, row in enumerate(rows))
                for i in range(len(rows[0]))
            ]

        next_state, outputs = compiled.lane_step(
            pack(states), pack(inputs), (1 << lanes) - 1
        )
        for lane in range(lanes):
            scalar_state, scalar_outputs, _ = compiled.step(
                states[lane], inputs[lane], False
            )
            assert [v >> lane & 1 for v in next_state] == scalar_state
            assert tuple(v >> lane & 1 for v in outputs) == scalar_outputs

    def test_compiled_once_on_first_use(self, avr_sim):
        assert avr_sim.compiled.lane_step is avr_sim.compiled.lane_step


class TestWordPacking:
    def test_pack_unpack_roundtrip(self, avr_sim):
        words = {"instr_in": 0xBEEF, "dmem_rdata": 0x5A, "pin_in": 0x81}
        bits = avr_sim.pack_inputs(words)
        by_wire = dict(zip(avr_sim.compiled.input_wires, bits))
        assert by_wire["instr_in_b0"] == 1
        assert by_wire["instr_in_b15"] == 1
        assert by_wire["dmem_rdata_b1"] == 1

    def test_unknown_words_default_zero(self, avr_sim):
        bits = avr_sim.pack_inputs({})
        assert all(b == 0 for b in bits)

    def test_unpack_outputs(self, avr_sim):
        outputs = tuple([1] * len(avr_sim.compiled.output_wires))
        words = avr_sim.unpack_outputs(outputs)
        assert words["dmem_we"] == 1
        assert words["dmem_addr"] == 0xFFFF


class TestTraceLayout:
    def test_constants_first(self, avr_sim):
        wires = avr_sim.compiled.trace_wires
        assert wires[0] == "1'b0"
        assert wires[1] == "1'b1"

    def test_every_gate_output_traced(self, avr_sim):
        traced = set(avr_sim.compiled.trace_wires)
        for gate in avr_sim.netlist.gates.values():
            assert gate.output in traced

    def test_every_ff_q_traced(self, avr_sim):
        traced = set(avr_sim.compiled.trace_wires)
        for dff in avr_sim.netlist.dffs.values():
            assert dff.q in traced
