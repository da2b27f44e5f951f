"""Register def-use access model for the AVR core (inter-cycle pruning).

``registers_read`` over-approximates, per instruction word, which
general-purpose registers the execute stage can observe — everything the
decode gating lets through to an endpoint. Used by
:mod:`repro.core.intercycle` to prune register-file faults that die
overwritten-unread, the ISA-level complement the paper points to in
Sec. 6.3.
"""

from __future__ import annotations

from repro.core.intercycle import RegisterAccessModel
from repro.cpu.avr import isa
from repro.netlist.netlist import Netlist
from repro.synth.lower import bit_name


def registers_read(word: int) -> set[int]:
    """Registers an instruction word may read (over-approximation)."""
    word &= 0xFFFF
    if word in (isa.OPCODE_NOP, isa.OPCODE_SLEEP, isa.OPCODE_RET):
        return set()

    d5 = ((word >> 4) & 0xF) | (((word >> 8) & 1) << 4)
    r5 = (word & 0xF) | (((word >> 9) & 1) << 4)
    top6 = word >> 10
    top4 = word >> 12

    two_op = {v: k for k, v in isa.TWO_OP.items()}.get(top6)
    if two_op is not None:
        if two_op == "mov":
            return {r5}
        return {d5, r5}

    imm_op = {v: k for k, v in isa.IMM_OP.items()}.get(top4)
    if imm_op is not None:
        if imm_op == "ldi":
            return set()
        return {16 + ((word >> 4) & 0xF)}

    if (word & 0xFE00) == 0x9400 and (word & 0xF) in isa.ONE_OP.values():
        return {d5}

    if (word & 0xFC00) == 0x9000 and (word & 0xE) == 0xC:  # LD/ST via X
        store = (word >> 9) & 1
        regs = {26, 27}  # the X pointer is always read (address / increment)
        if store:
            regs.add(d5)
        return regs

    if (word & 0xF800) == 0xB800:  # OUT
        return {d5}

    # IN, branches, RJMP, RCALL and anything unimplemented read no GPRs.
    return set()


def avr_access_model(netlist: Netlist) -> RegisterAccessModel:
    """Def-use model over the synthesized AVR netlist's trace wires."""
    registers = {
        index: [bit_name(f"rf_r{index}", bit, 8) for bit in range(8)]
        for index in range(32)
    }
    instruction_wires = [bit_name("ir", bit, 16) for bit in range(16)]
    missing = [w for w in instruction_wires if w not in netlist.wires()]
    if missing:
        raise ValueError(f"netlist lacks expected IR wires: {missing[:3]}")
    return RegisterAccessModel(
        registers=registers,
        instruction_wires=instruction_wires,
        reads_of=registers_read,
        valid_wire="flush",
        valid_active_low=True,
    )
