"""Tests for the netlist data model and graph queries."""

import pytest

from repro.cells import nangate15_library
from repro.core.cone import compute_fault_cone
from repro.netlist import Netlist
from repro.netlist.netlist import CONST0, CONST1


@pytest.fixture()
def lib():
    return nangate15_library()


@pytest.fixture()
def small(lib):
    """in a,b -> NAND -> DFF -> INV -> out y."""
    n = Netlist("small", lib)
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g1", "NAND2", {"A": "a", "B": "b"}, "w1")
    n.add_dff("ff1", d="w1", q="q1", init=1)
    n.add_gate("g2", "INV", {"A": "q1"}, "y")
    n.add_output("y")
    return n


class TestConstruction:
    def test_duplicate_input_rejected(self, lib):
        n = Netlist("t", lib)
        n.add_input("a")
        with pytest.raises(ValueError):
            n.add_input("a")

    def test_duplicate_instance_rejected(self, small):
        with pytest.raises(ValueError):
            small.add_gate("g1", "INV", {"A": "a"}, "w9")
        with pytest.raises(ValueError):
            small.add_dff("ff1", d="a", q="w9")

    def test_missing_pin_rejected(self, lib):
        n = Netlist("t", lib)
        n.add_input("a")
        with pytest.raises(ValueError, match="missing pins"):
            n.add_gate("g", "NAND2", {"A": "a"}, "w")

    def test_unknown_pin_rejected(self, lib):
        n = Netlist("t", lib)
        n.add_input("a")
        with pytest.raises(ValueError, match="unknown pins"):
            n.add_gate("g", "INV", {"A": "a", "Z": "a"}, "w")

    def test_sequential_cell_via_add_gate_rejected(self, lib):
        n = Netlist("t", lib)
        with pytest.raises(ValueError, match="add_dff"):
            n.add_gate("g", "DFF", {"D": "a"}, "q")

    def test_driving_constant_rejected(self, lib):
        n = Netlist("t", lib)
        n.add_input("a")
        with pytest.raises(ValueError):
            n.add_gate("g", "INV", {"A": "a"}, CONST0)
        with pytest.raises(ValueError):
            n.add_dff("f", d="a", q=CONST1)

    def test_bad_dff_init_rejected(self, lib):
        n = Netlist("t", lib)
        with pytest.raises(ValueError):
            n.add_dff("f", d="a", q="q", init=2)


class TestGraphQueries:
    def test_wires(self, small):
        assert {"a", "b", "w1", "q1", "y", CONST0, CONST1} == small.wires()

    def test_wire_set_follows_mutation_after_a_cone_call(self, small):
        # The wire set is cached; a gate added after a cone computation
        # must be visible to the next one.
        assert compute_fault_cone(small, "q1").cone_wires == {"q1", "y"}
        small.add_gate("g3", "AND2", {"A": "q1", "B": "b"}, "w3")
        small.add_output("w3")
        assert "w3" in small.wires()
        assert compute_fault_cone(small, "q1").cone_wires == {"q1", "y", "w3"}
        assert compute_fault_cone(small, "w3").endpoint_wires == {"w3"}

    def test_driver_map(self, small):
        drivers = small.driver_map()
        assert drivers["a"] == "input"
        assert drivers["w1"].name == "g1"
        assert drivers["q1"].name == "ff1"
        assert drivers[CONST0] == "const"

    def test_double_driver_detected(self, small):
        small.add_gate("g3", "INV", {"A": "a"}, "w1")
        with pytest.raises(ValueError, match="driven more than once"):
            small.driver_map()

    def test_reader_map(self, small):
        readers = small.reader_map()
        assert [(g.name, pin) for g, pin in readers["q1"]] == [("g2", "A")]

    def test_endpoints_and_sources(self, small):
        assert small.endpoints() == {"w1", "y"}
        assert small.sources() == {"q1", "a", "b", CONST0, CONST1}

    def test_topological_order(self, small):
        order = [g.name for g in small.topological_gates()]
        assert set(order) == {"g1", "g2"}

    def test_combinational_cycle_detected(self, lib):
        n = Netlist("loop", lib)
        n.add_input("a")
        n.add_gate("g1", "AND2", {"A": "a", "B": "w2"}, "w1")
        n.add_gate("g2", "INV", {"A": "w1"}, "w2")
        with pytest.raises(ValueError, match="cycle"):
            n.topological_gates()

    def test_logic_levels(self, small):
        levels = small.logic_levels()
        assert levels["g1"] == 0
        assert levels["g2"] == 0  # driven by a DFF (a source)

    def test_logic_levels_chain(self, lib):
        n = Netlist("chain", lib)
        n.add_input("a")
        n.add_gate("g1", "INV", {"A": "a"}, "w1")
        n.add_gate("g2", "INV", {"A": "w1"}, "w2")
        n.add_gate("g3", "INV", {"A": "w2"}, "w3")
        n.add_output("w3")
        assert n.logic_levels() == {"g1": 0, "g2": 1, "g3": 2}


class TestRegisterFileTagging:
    def test_attribute_wins(self, small):
        small.attributes["register_file_dffs"] = ["ff1"]
        assert small.register_file_dffs() == {"ff1"}
        assert small.non_register_file_dffs() == set()

    def test_prefix_fallback(self, lib):
        n = Netlist("t", lib)
        n.add_input("a")
        n.add_dff("rf_r0_b0", d="a", q="q0")
        n.add_dff("pc_b0", d="a", q="q1")
        assert n.register_file_dffs() == {"rf_r0_b0"}
        assert n.non_register_file_dffs() == {"pc_b0"}


class TestArea:
    def test_total_area(self, small):
        lib = small.library
        expected = lib["NAND2"].area + lib["INV"].area + lib["DFF"].area
        assert small.total_area() == pytest.approx(expected)
