"""Register def-use access model for the MSP430 core (inter-cycle pruning).

Over-approximates which general-purpose registers (r1, r4..r15 — the
RF-tagged set) an instruction word may read. Both the IR (valid through a
multi-cycle instruction) and the live memory-read bus (which carries the
*next* instruction during FETCH, when the shared register port already
reads its source field) are decoded; garbage words from data reads only
add spurious reads, which is conservative.
"""

from __future__ import annotations

from repro.core.intercycle import RegisterAccessModel
from repro.cpu.msp430 import isa
from repro.netlist.netlist import Netlist
from repro.synth.lower import bit_name

#: RF-tagged registers of the core (PC, SR have dedicated analyses; r3 has
#: no storage).
RF_REGISTERS = (1, *range(4, 16))


def registers_read(word: int) -> set[int]:
    """RF registers an instruction word may read (over-approximation)."""
    word &= 0xFFFF
    opcode = word >> 12
    regs: set[int] = set()

    if opcode == 0x1:  # Format II (register mode in this subset)
        reg = word & 0xF
        if reg in RF_REGISTERS:
            regs.add(reg)
        return regs

    if opcode in (0x2, 0x3):  # jumps read only flags
        return regs

    if opcode >= 0x4:  # Format I
        src = (word >> 8) & 0xF
        as_mode = (word >> 4) & 0x3
        dst = word & 0xF
        ad_mode = (word >> 7) & 0x1
        mnemonic = {v: k for k, v in isa.FORMAT1.items()}.get(opcode)

        src_is_cg = (src, as_mode) in isa.CONST_GENERATOR
        if not src_is_cg and src in RF_REGISTERS:
            # Register value used directly, as an address, or as an
            # indexed base; auto-increment also reads it.
            regs.add(src)
        if dst in RF_REGISTERS:
            if ad_mode == 1:
                regs.add(dst)  # indexed base address
            elif mnemonic != "mov":
                regs.add(dst)  # read-modify-write operand
        return regs

    return regs


def msp430_access_model(netlist: Netlist) -> RegisterAccessModel:
    """Def-use model over the synthesized MSP430 netlist's trace wires."""
    registers = {
        index: [bit_name(f"rf_r{index}", bit, 16) for bit in range(16)]
        for index in RF_REGISTERS
    }
    instruction_wires = [bit_name("ir", bit, 16) for bit in range(16)]
    fetch_bus = [bit_name("mem_rdata", bit, 16) for bit in range(16)]
    wires = netlist.wires()
    for wire in (*instruction_wires, *fetch_bus):
        if wire not in wires:
            raise ValueError(f"netlist lacks expected wire {wire}")
    return RegisterAccessModel(
        registers=registers,
        instruction_wires=instruction_wires,
        reads_of=registers_read,
        extra_instruction_wires=fetch_bus,
    )
