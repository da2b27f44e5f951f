"""Netlist → straight-line Python compilation.

Simulating a few thousand gates for ~10⁴ cycles in interpreted Python is
only tractable if the per-gate dispatch disappears. We therefore compile the
levelized combinational logic into one generated Python function of local
integer operations (the same trick netlist simulators play with code
generation), which evaluates a full cycle in a single call. The complete
wire-value row for trace recording is built only when the caller asks for
it: most cycles (every injected run) discard it, and building a tuple of a
few thousand wires costs about a third of the step.

A second, *lane* form of the same walk is compiled on first use: every
value is an integer whose bit k belongs to an independent run (lane k), so
one call steps up to as many runs as the mask ``M`` has bits. It differs
from the scalar form only where the scalar form relies on a value being 0
or 1: ``1 ^ x`` becomes ``M ^ x``, the ``MUX2`` conditional becomes
``(S & B) | ((M ^ S) & A)``, and the constant 1 becomes ``M``.
"""

from __future__ import annotations

import re

from repro.netlist.netlist import CONST0, CONST1, Gate, Netlist
from repro.netlist.validate import validate_netlist
from repro.obs import counter, span

#: Per-cell Python expression templates (pin name → local variable).
_TEMPLATES = {
    "INV": "1 ^ {A}",
    "BUF": "{A}",
    "AND2": "{A} & {B}",
    "AND3": "{A} & {B} & {C}",
    "AND4": "{A} & {B} & {C} & {D}",
    "NAND2": "1 ^ ({A} & {B})",
    "NAND3": "1 ^ ({A} & {B} & {C})",
    "NAND4": "1 ^ ({A} & {B} & {C} & {D})",
    "OR2": "{A} | {B}",
    "OR3": "{A} | {B} | {C}",
    "OR4": "{A} | {B} | {C} | {D}",
    "NOR2": "1 ^ ({A} | {B})",
    "NOR3": "1 ^ ({A} | {B} | {C})",
    "NOR4": "1 ^ ({A} | {B} | {C} | {D})",
    "XOR2": "{A} ^ {B}",
    "XNOR2": "1 ^ {A} ^ {B}",
    "MUX2": "({B} if {S} else {A})",
    "AOI21": "1 ^ (({A1} & {A2}) | {B})",
    "AOI22": "1 ^ (({A1} & {A2}) | ({B1} & {B2}))",
    "OAI21": "1 ^ (({A1} | {A2}) & {B})",
    "OAI22": "1 ^ (({A1} | {A2}) & ({B1} | {B2}))",
    "XOR3": "{A} ^ {B} ^ {C}",
    "MAJ3": "({A} & {B}) | ({A} & {C}) | ({B} & {C})",
}

#: The one template the lane form cannot derive by rewriting constants.
_LANE_MUX2 = "({S} & {B}) | ((M ^ {S}) & {A})"

#: An integer literal 1 in a rendered expression (never part of a ``v1``).
_ONE = re.compile(r"\b1\b")


class CompiledNetlist:
    """A netlist compiled to an executable single-cycle step function.

    ``step(state, inputs, row=True)`` returns ``(next_state, outputs, row)``:
    the D values in :attr:`dffs` order, the output bits in
    :attr:`output_wires` order, and the wire values in :attr:`trace_wires`
    order -- or ``None`` in place of the row when ``row`` is false.

    ``lane_step(state, inputs, M)`` returns ``(next_state, outputs)`` of
    the lane form (see the module docstring): ``M`` has a 1 in every lane
    in use, and each state and input value is that lane set's bits.
    """

    def __init__(self, netlist: Netlist) -> None:
        with span("sim/compile", netlist=netlist.name):
            validate_netlist(netlist)
            self.netlist = netlist
            self.input_wires: list[str] = list(netlist.inputs)
            self.dffs = list(netlist.dffs.values())
            self.dff_names: list[str] = [dff.name for dff in self.dffs]
            self.output_wires: list[str] = list(netlist.outputs)

            # Trace column order: constants, inputs, FF Q wires, gate outputs.
            topo = netlist.topological_gates()
            self.trace_wires: list[str] = [CONST0, CONST1]
            self.trace_wires.extend(self.input_wires)
            self.trace_wires.extend(dff.q for dff in self.dffs)
            seen = set(self.trace_wires)
            for gate in topo:
                if gate.output not in seen:
                    self.trace_wires.append(gate.output)
                    seen.add(gate.output)

            self._var_of: dict[str, str] = {CONST0: "0", CONST1: "1"}
            self._topo = topo
            self._lane_step = None
            self.step = self._compile(topo)
        counter("sim.compile.netlists").inc()
        counter("sim.compile.gates").inc(len(topo))

    # ------------------------------------------------------------------
    def _var(self, wire: str) -> str:
        var = self._var_of.get(wire)
        if var is None:
            var = f"v{len(self._var_of)}"
            self._var_of[wire] = var
        return var

    def _gate_expression(self, gate: Gate, lanes: bool = False) -> str:
        if lanes and gate.cell == "MUX2":
            template = _LANE_MUX2
        else:
            template = _TEMPLATES.get(gate.cell)
        env = {pin: self._var(wire) for pin, wire in gate.inputs.items()}
        if template is not None:
            expression = template.format(**env)
        else:
            # Fallback for cells without a hand-written template: tabulated SOP.
            cell = self.netlist.library[gate.cell]
            assert cell.function is not None
            expression = cell.function.python_expression()
            for pin in sorted(env, key=len, reverse=True):
                expression = expression.replace(pin, env[pin])
        return _ONE.sub("M", expression) if lanes else expression

    def _body(self, topo: list[Gate], lanes: bool) -> tuple[list[str], str, str]:
        """Shared walk: assignment lines, next-state list, outputs tuple."""
        lines = []
        for index, wire in enumerate(self.input_wires):
            lines.append(f"    {self._var(wire)} = inputs[{index}]")
        for index, dff in enumerate(self.dffs):
            lines.append(f"    {self._var(dff.q)} = state[{index}]")
        for gate in topo:
            expression = self._gate_expression(gate, lanes)
            lines.append(f"    {self._var(gate.output)} = {expression}")

        def ref(wire: str) -> str:
            return "M" if lanes and wire == CONST1 else self._var(wire)

        next_state = ", ".join(ref(dff.d) for dff in self.dffs)
        outputs = ", ".join(ref(wire) for wire in self.output_wires)
        return lines, f"[{next_state}]", f"({outputs},)" if outputs else "()"

    def _compile(self, topo: list[Gate]):
        lines, next_state, outputs = self._body(topo, lanes=False)
        columns = ", ".join(self._var(wire) for wire in self.trace_wires)
        lines.insert(0, "def step(state, inputs, row=True):")
        lines.append(
            f"    return {next_state}, {outputs}, ({columns},) if row else None"
        )
        return exec_function(lines, "step", f"<compiled {self.netlist.name}>")

    @property
    def lane_step(self):
        """The lane-form step function, compiled on first use."""
        if self._lane_step is None:
            with span("sim/compile-lanes", netlist=self.netlist.name):
                lines, next_state, outputs = self._body(self._topo, lanes=True)
                lines.insert(0, "def lane_step(state, inputs, M):")
                lines.append(f"    return {next_state}, {outputs}")
                self._lane_step = exec_function(
                    lines, "lane_step", f"<compiled lanes {self.netlist.name}>"
                )
        return self._lane_step

    # ------------------------------------------------------------------
    def initial_state(self) -> list[int]:
        """Reset values of all flip-flops, in step() order."""
        return [dff.init for dff in self.dffs]

    @property
    def num_state_bits(self) -> int:
        """Number of flip-flops."""
        return len(self.dffs)


def exec_function(lines: list[str], name: str, filename: str):
    """Execute generated source lines and return the function ``name``."""
    namespace: dict[str, object] = {}
    exec(compile("\n".join(lines), filename, "exec"), namespace)
    return namespace[name]


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile a netlist once; reuse the result for many runs."""
    return CompiledNetlist(netlist)
