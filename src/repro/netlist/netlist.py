"""The synchronous gate-level netlist data model.

A :class:`Netlist` is the paper's system model (Sec. 2): a boolean network
``N`` that maps (primary inputs, current flip-flop state) to (primary
outputs, next flip-flop state). Wires are plain strings; combinational cell
instances are :class:`Gate` objects; state elements are :class:`DFF` objects
with an implicit common clock.

Constant wires are modelled with the two reserved wire names ``"1'b0"`` and
``"1'b1"``, which are always defined and never faultable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.cells.library import Library

#: Reserved always-0 / always-1 wire names.
CONST0 = "1'b0"
CONST1 = "1'b1"
CONST_WIRES = frozenset((CONST0, CONST1))


class Gate:
    """A combinational standard-cell instance."""

    __slots__ = ("name", "cell", "inputs", "output")

    def __init__(
        self, name: str, cell: str, inputs: Mapping[str, str], output: str
    ) -> None:
        self.name = name
        self.cell = cell
        self.inputs: dict[str, str] = dict(inputs)
        self.output = output

    def input_wires(self) -> tuple[str, ...]:
        """Wires connected to this gate's input pins."""
        return tuple(self.inputs.values())

    def pins_of_wire(self, wire: str) -> tuple[str, ...]:
        """All input pins of this gate that the given wire is connected to."""
        return tuple(pin for pin, w in self.inputs.items() if w == wire)

    def __repr__(self) -> str:
        pins = ", ".join(f".{p}({w})" for p, w in self.inputs.items())
        return f"Gate({self.cell} {self.name} ({pins}) -> {self.output})"


class DFF:
    """A D flip-flop instance (state element)."""

    __slots__ = ("name", "d", "q", "init")

    def __init__(self, name: str, d: str, q: str, init: int = 0) -> None:
        if init not in (0, 1):
            raise ValueError(f"DFF {name}: init must be 0 or 1, got {init!r}")
        self.name = name
        self.d = d
        self.q = q
        self.init = init

    def __repr__(self) -> str:
        return f"DFF({self.name}: D={self.d} -> Q={self.q}, init={self.init})"


class Netlist:
    """A synchronous circuit: primary i/o, combinational gates, flip-flops."""

    def __init__(self, name: str, library: Library) -> None:
        self.name = name
        self.library = library
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.gates: dict[str, Gate] = {}
        self.dffs: dict[str, DFF] = {}
        #: Free-form metadata (e.g. which DFFs belong to the register file).
        self.attributes: dict[str, object] = {}
        self._wires: frozenset[str] | None = None
        self._drivers: dict[str, object] | None = None
        self._readers: dict[str, list[tuple[Gate, str]]] | None = None
        self._topo: list[Gate] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._wires = None
        self._drivers = None
        self._readers = None
        self._topo = None

    def add_input(self, wire: str) -> str:
        """Declare a primary-input wire."""
        if wire in self.inputs:
            raise ValueError(f"duplicate primary input {wire}")
        self.inputs.append(wire)
        self._invalidate()
        return wire

    def add_output(self, wire: str) -> str:
        """Declare a primary-output wire (must be driven somewhere)."""
        if wire in self.outputs:
            raise ValueError(f"duplicate primary output {wire}")
        self.outputs.append(wire)
        self._invalidate()
        return wire

    def add_gate(
        self, name: str, cell: str, inputs: Mapping[str, str], output: str
    ) -> Gate:
        """Instantiate a combinational cell; pins are checked against the library."""
        if name in self.gates or name in self.dffs:
            raise ValueError(f"duplicate instance name {name}")
        cell_def = self.library[cell]
        if cell_def.sequential:
            raise ValueError(f"use add_dff for sequential cell {cell}")
        missing = set(cell_def.inputs) - set(inputs)
        extra = set(inputs) - set(cell_def.inputs)
        if missing or extra:
            raise ValueError(
                f"gate {name} ({cell}): missing pins {sorted(missing)}, "
                f"unknown pins {sorted(extra)}"
            )
        if output in CONST_WIRES:
            raise ValueError(f"gate {name} drives constant wire {output}")
        gate = Gate(name, cell, inputs, output)
        self.gates[name] = gate
        self._invalidate()
        return gate

    def add_dff(self, name: str, d: str, q: str, init: int = 0) -> DFF:
        """Instantiate a D flip-flop with the given reset value."""
        if name in self.gates or name in self.dffs:
            raise ValueError(f"duplicate instance name {name}")
        if q in CONST_WIRES:
            raise ValueError(f"DFF {name} drives constant wire {q}")
        dff = DFF(name, d, q, init)
        self.dffs[name] = dff
        self._invalidate()
        return dff

    # ------------------------------------------------------------------
    # graph queries
    # ------------------------------------------------------------------
    def wires(self) -> frozenset[str]:
        """Every wire name mentioned anywhere in the netlist."""
        if self._wires is None:
            wires: set[str] = set(self.inputs) | set(self.outputs) | set(CONST_WIRES)
            for gate in self.gates.values():
                wires.update(gate.inputs.values())
                wires.add(gate.output)
            for dff in self.dffs.values():
                wires.add(dff.d)
                wires.add(dff.q)
            self._wires = frozenset(wires)
        return self._wires

    def driver_map(self) -> dict[str, object]:
        """Map wire -> driving Gate, DFF, or the string ``"input"``/``"const"``."""
        if self._drivers is None:
            drivers: dict[str, object] = {CONST0: "const", CONST1: "const"}
            for wire in self.inputs:
                drivers[wire] = "input"
            for gate in self.gates.values():
                if gate.output in drivers:
                    raise ValueError(f"wire {gate.output} driven more than once")
                drivers[gate.output] = gate
            for dff in self.dffs.values():
                if dff.q in drivers:
                    raise ValueError(f"wire {dff.q} driven more than once")
                drivers[dff.q] = dff
            self._drivers = drivers
        return self._drivers

    def reader_map(self) -> dict[str, list[tuple[Gate, str]]]:
        """Map wire -> list of (gate, pin) combinational readers."""
        if self._readers is None:
            readers: dict[str, list[tuple[Gate, str]]] = {}
            for gate in self.gates.values():
                for pin, wire in gate.inputs.items():
                    readers.setdefault(wire, []).append((gate, pin))
            self._readers = readers
        return self._readers

    def dff_d_wires(self) -> set[str]:
        """All flip-flop D (next-state) wires."""
        return {dff.d for dff in self.dffs.values()}

    def dff_q_wires(self) -> set[str]:
        """All flip-flop Q (current-state) wires."""
        return {dff.q for dff in self.dffs.values()}

    def endpoints(self) -> set[str]:
        """Cycle-boundary wires: DFF D-pins and primary outputs."""
        return self.dff_d_wires() | set(self.outputs)

    def sources(self) -> set[str]:
        """Cycle-start wires: DFF Q-pins, primary inputs, constants."""
        return self.dff_q_wires() | set(self.inputs) | set(CONST_WIRES)

    def topological_gates(self) -> list[Gate]:
        """Combinational gates in evaluation order (sources first).

        Raises :class:`ValueError` on a combinational cycle.
        """
        if self._topo is not None:
            return self._topo
        # Kahn's algorithm over gate->gate edges.
        readers = self.reader_map()
        indegree: dict[str, int] = {}
        drivers = self.driver_map()
        for name, gate in self.gates.items():
            count = 0
            for wire in gate.inputs.values():
                driver = drivers.get(wire)
                if isinstance(driver, Gate):
                    count += 1
            indegree[name] = count
        ready = [g for g in self.gates.values() if indegree[g.name] == 0]
        order: list[Gate] = []
        while ready:
            gate = ready.pop()
            order.append(gate)
            for reader, _pin in readers.get(gate.output, ()):
                indegree[reader.name] -= 1
                if indegree[reader.name] == 0:
                    ready.append(reader)
        if len(order) != len(self.gates):
            stuck = sorted(n for n, deg in indegree.items() if deg > 0)
            raise ValueError(
                f"combinational cycle in netlist {self.name}; "
                f"{len(stuck)} gates unplaced (e.g. {stuck[:5]})"
            )
        self._topo = order
        return order

    def logic_levels(self) -> dict[str, int]:
        """Map each gate name to its logic depth (sources = level 0)."""
        drivers = self.driver_map()
        levels: dict[str, int] = {}
        for gate in self.topological_gates():
            level = 0
            for wire in gate.inputs.values():
                driver = drivers.get(wire)
                if isinstance(driver, Gate):
                    level = max(level, levels[driver.name] + 1)
                else:
                    level = max(level, 0)
            levels[gate.name] = level
        return levels

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def register_file_dffs(self) -> set[str]:
        """Names of DFFs tagged as register-file state (attribute or prefix)."""
        tagged = self.attributes.get("register_file_dffs")
        if tagged is not None:
            return set(tagged)  # type: ignore[arg-type]
        return {name for name in self.dffs if name.startswith("rf_")}

    def non_register_file_dffs(self) -> set[str]:
        """DFF names outside the register file (the paper's 'FF w/o RF')."""
        return set(self.dffs) - self.register_file_dffs()

    def total_area(self) -> float:
        """Summed cell area (library units; one inverter = 1.0)."""
        area = sum(self.library[g.cell].area for g in self.gates.values())
        area += sum(self.library["DFF"].area for _ in self.dffs)
        return area

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}: {len(self.inputs)} in, {len(self.outputs)} out, "
            f"{len(self.gates)} gates, {len(self.dffs)} DFFs)"
        )


def merge_wire_sets(netlists: Iterable[Netlist]) -> set[str]:
    """Union of all wire names across several netlists (debug helper)."""
    wires: set[str] = set()
    for netlist in netlists:
        wires |= netlist.wires()
    return wires
