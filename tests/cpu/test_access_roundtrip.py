"""Exhaustive encode→decode→access-set round-trip for both ISAs.

Every instruction the assemblers can emit is re-encoded via the `isa`
encoders across its full operand space, then decoded by the access-model
function `registers_read`. Expected sets are
derived here from the ISA semantics per mnemonic — independently of the
decoders' field extraction — so a mis-plumbed bit field (d5/r5 splits,
src/dst nibbles, mode bits) in either direction fails loudly.
"""

from __future__ import annotations

from repro.cpu.avr import isa as avr_isa
from repro.cpu.avr.access import registers_read as avr_reads
from repro.cpu.msp430 import isa as msp_isa
from repro.cpu.msp430.access import RF_REGISTERS
from repro.cpu.msp430.access import registers_read as msp_reads


def _check(word: int, reads, expect_reads: set):
    __tracebackhide__ = True
    assert reads(word) == expect_reads, f"reads of {word:#06x}"


class TestAvrRoundTrip:
    def test_no_operand_ops(self):
        for word in (avr_isa.OPCODE_NOP, avr_isa.OPCODE_SLEEP, avr_isa.OPCODE_RET):
            _check(word, avr_reads, set())

    def test_two_op_all_registers(self):
        for mnemonic in avr_isa.TWO_OP:
            for rd in range(32):
                for rr in range(32):
                    word = avr_isa.encode_two_op(mnemonic, rd, rr)
                    expect_reads = {rr} if mnemonic == "mov" else {rd, rr}
                    _check(word, avr_reads, expect_reads)

    def test_imm_op_all_registers_and_values(self):
        for mnemonic in avr_isa.IMM_OP:
            for rd in range(16, 32):
                for value in range(256):
                    word = avr_isa.encode_imm_op(mnemonic, rd, value)
                    expect_reads = set() if mnemonic == "ldi" else {rd}
                    _check(word, avr_reads, expect_reads)

    def test_one_op_all_registers(self):
        for mnemonic in avr_isa.ONE_OP:
            for rd in range(32):
                word = avr_isa.encode_one_op(mnemonic, rd)
                _check(word, avr_reads, {rd})

    def test_branches_all_offsets(self):
        for mnemonic in avr_isa.BRANCHES:
            for offset in range(-64, 64):
                word = avr_isa.encode_branch(mnemonic, offset)
                _check(word, avr_reads, set())

    def test_jumps_all_offsets(self):
        for offset in range(-2048, 2048):
            _check(avr_isa.encode_rjmp(offset), avr_reads, set())
            _check(avr_isa.encode_rcall(offset), avr_reads, set())

    def test_in_all_registers_and_ports(self):
        for rd in range(32):
            for port in range(64):
                word = avr_isa.encode_in(rd, port)
                _check(word, avr_reads, set())

    def test_out_all_registers_and_ports(self):
        for rr in range(32):
            for port in range(64):
                word = avr_isa.encode_out(port, rr)
                _check(word, avr_reads, {rr})

    def test_ld_st_all_registers(self):
        for reg in range(32):
            for post_inc in (False, True):
                ld = avr_isa.encode_ld_st("ld", reg, post_increment=post_inc)
                _check(ld, avr_reads, {26, 27})
                st = avr_isa.encode_ld_st("st", reg, post_increment=post_inc)
                _check(st, avr_reads, {26, 27, reg})


def _msp_expected(mnemonic: str, src: int, as_mode: int, dst: int, ad: int):
    """Format I read set from the ISA semantics."""
    reads: set[int] = set()
    src_is_cg = (src, as_mode) in msp_isa.CONST_GENERATOR
    if not src_is_cg and src in RF_REGISTERS:
        reads.add(src)
    if dst in RF_REGISTERS and (ad == 1 or mnemonic != "mov"):
        reads.add(dst)
    return reads


class TestMsp430RoundTrip:
    def test_format1_full_operand_space(self):
        for mnemonic in msp_isa.FORMAT1:
            for src in range(16):
                for as_mode in range(4):
                    for dst in range(16):
                        for ad in (0, 1):
                            word = msp_isa.encode_format1(
                                mnemonic, src, as_mode, dst, ad
                            )
                            expect_reads = _msp_expected(
                                mnemonic, src, as_mode, dst, ad
                            )
                            _check(word, msp_reads, expect_reads)

    def test_format2_all_registers(self):
        for mnemonic in msp_isa.FORMAT2:
            for reg in range(16):
                word = msp_isa.encode_format2(mnemonic, reg)
                expected = {reg} if reg in RF_REGISTERS else set()
                _check(word, msp_reads, expected)

    def test_jumps_all_offsets(self):
        for mnemonic in msp_isa.JUMPS:
            for offset in range(-512, 512):
                word = msp_isa.encode_jump(mnemonic, offset)
                _check(word, msp_reads, set())
