"""Precomputed memory ports against the per-cycle name derivation.

``StateView`` and ``RecordingStateView`` read registers through
``(dff index, bit)`` pairs and bit-name tuples resolved once per simulator.
The def-use analysis consumes the recorded read sets, so they must equal
what deriving every bit name with ``bit_name`` on every read gives.
"""

import pytest

from repro.cpu.avr import AvrSystem
from repro.cpu.msp430 import Msp430System
from repro.programs import avr_fib, msp430_fib
from repro.sim import Testbench
from repro.synth.lower import bit_name


class _NameBasedView:
    """Register reads that derive each bit's DFF name on every call."""

    def __init__(self, state, simulator, sink):
        self._state = state
        self._simulator = simulator
        self._sink = sink

    def read_ff(self, name):
        self._sink.add(name)
        return self._state[self._simulator.dff_index[name]]

    def read_reg(self, name):
        width = self._simulator.reg_widths[name]
        value = 0
        for bit in range(width):
            dff_name = bit_name(name, bit, width)
            index = self._simulator.dff_index.get(dff_name)
            if index is not None:
                self._sink.add(dff_name)
                value |= self._state[index] << bit
        return value


class _Shadow(Testbench):
    """Drives through both views; keeps the name-based read sets."""

    def __init__(self, inner, simulator):
        self.inner = inner
        self.simulator = simulator
        self.reads = []

    def drive(self, cycle, state):
        words = self.inner.drive(cycle, state)
        sink = set()
        shadow = _NameBasedView(state.state, self.simulator, sink)
        assert self.inner.drive(cycle, shadow) == words
        self.reads.append(frozenset(sink))
        return words

    def observe(self, cycle, outputs):
        return self.inner.observe(cycle, outputs)


@pytest.mark.parametrize("core", ["avr", "msp430"])
def test_golden_read_sets_match_name_derivation(core, avr_sim, msp430_sim):
    if core == "avr":
        simulator, inner = avr_sim, AvrSystem(avr_fib(halt=True))
    else:
        simulator, inner = msp430_sim, Msp430System(msp430_fib(halt=True))
    shadow = _Shadow(inner, simulator)
    result = simulator.run(
        shadow, max_cycles=5000, record_trace=False, record_reads=True
    )
    assert result.halted
    assert result.reads == shadow.reads
    assert any(result.reads)


def test_unknown_register_raises(avr_sim):
    view = avr_sim.state_view(avr_sim.compiled.initial_state())
    with pytest.raises(KeyError, match="unknown register 'nope'"):
        view.read_reg("nope")
