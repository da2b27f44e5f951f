"""Independent re-checking of def-use interval certificates.

The analysis in :mod:`repro.prune.access` steps every flip-flop's flip at
once through the compiled lane kernel, on the campaign's checkpoints; this
module shares neither. :func:`classify_cycle` evaluates the *entire*
netlist scalar-style (``BoolFunc.evaluate`` per gate, no compiled code, no
lanes) for a single (flip-flop, cycle) on a separately recorded golden
trace and derives the same escape/hold/kill verdict from first principles.
:func:`verify_claim` checks an :class:`~repro.prune.defuse.IntervalClaim`
structurally and re-derives its per-cycle evidence — zero injection
simulations. Refutations come back as human-readable counterexample strings
(the static-MATE audit playbook).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.netlist.netlist import CONST0, CONST1, Netlist
from repro.prune.access import EVENT_ESCAPE, EVENT_HOLD, EVENT_KILL
from repro.prune.defuse import KIND_DEAD, KIND_LIVE, KIND_TAIL, IntervalClaim
from repro.trace.trace import Trace


def classify_cycle(
    netlist: Netlist,
    trace: Trace,
    reads: Sequence[frozenset[str]] | None,
    dff_name: str,
    cycle: int,
) -> str:
    """Scalar full-netlist event code for one (flip-flop, cycle).

    Starts from the golden trace row with the flip-flop's Q bit flipped,
    evaluates every gate in topological order, and classifies where the
    difference went.
    """
    dff = netlist.dffs[dff_name]
    values: dict[str, int] = {CONST0: 0, CONST1: 1}
    for wire in netlist.inputs:
        values[wire] = int(trace.value(cycle, wire))
    for other in netlist.dffs.values():
        values[other.q] = int(trace.value(cycle, other.q))
    values[dff.q] ^= 1

    for gate in netlist.topological_gates():
        function = netlist.library[gate.cell].function
        assignment = {pin: values[wire] for pin, wire in gate.inputs.items()}
        values[gate.output] = function.evaluate(assignment)

    def differs(wire: str) -> bool:
        return values[wire] != int(trace.value(cycle, wire))

    escaped = False
    for other_name, other in netlist.dffs.items():
        if other_name != dff_name and differs(other.d):
            escaped = True
            break
    if not escaped:
        escaped = any(differs(wire) for wire in netlist.outputs)
    if not escaped and reads is not None:
        escaped = dff_name in reads[cycle]
    if escaped:
        return EVENT_ESCAPE
    return EVENT_HOLD if differs(dff.d) else EVENT_KILL


def _structural_problems(claim: IntervalClaim, num_cycles: int) -> list[str]:
    """Shape checks a valid certificate must pass before any re-derivation."""
    problems: list[str] = []
    if not 0 <= claim.start <= claim.end < num_cycles:
        problems.append(
            f"{claim.describe()}: range outside trace of {num_cycles} cycle(s)"
        )
        return problems
    if len(claim.events) != claim.num_points:
        problems.append(
            f"{claim.describe()}: evidence length {len(claim.events)} != "
            f"{claim.num_points} point(s)"
        )
        return problems
    body, last = claim.events[:-1], claim.events[-1]
    if any(event != EVENT_HOLD for event in body):
        problems.append(
            f"{claim.describe()}: interior event(s) {body!r} are not all holds"
        )
    expected_last = {
        KIND_DEAD: EVENT_KILL,
        KIND_LIVE: EVENT_ESCAPE,
        KIND_TAIL: EVENT_HOLD,
    }.get(claim.kind)
    if expected_last is None:
        problems.append(f"{claim.describe()}: unknown kind {claim.kind!r}")
    elif last != expected_last:
        problems.append(
            f"{claim.describe()}: terminal event {last!r}, "
            f"expected {expected_last!r} for kind {claim.kind}"
        )
    if claim.kind == KIND_TAIL and claim.end != num_cycles - 1:
        problems.append(
            f"{claim.describe()}: tail interval must reach the last cycle "
            f"{num_cycles - 1}"
        )
    return problems


def verify_claim(
    netlist: Netlist,
    trace: Trace,
    reads: Sequence[frozenset[str]] | None,
    claim: IntervalClaim,
    cycles: Iterable[int] | None = None,
) -> list[str]:
    """Re-check one certificate; returns counterexample strings (empty = ok).

    ``cycles`` restricts the expensive scalar re-derivation to a subset of
    the interval (structural checks always run on the whole claim); by
    default every cycle is re-derived.
    """
    problems = _structural_problems(claim, trace.num_cycles)
    if problems:
        return problems
    dff = netlist.dffs.get(claim.dff)
    if dff is None:
        return [f"{claim.describe()}: unknown flip-flop {claim.dff!r}"]
    if dff.q != claim.wire:
        return [
            f"{claim.describe()}: wire {claim.wire!r} is not {claim.dff}'s Q "
            f"output {dff.q!r}"
        ]
    check_cycles = range(claim.start, claim.end + 1) if cycles is None else cycles
    for cycle in check_cycles:
        if not claim.covers(cycle):
            problems.append(f"{claim.describe()}: cycle {cycle} outside interval")
            continue
        claimed = claim.events[cycle - claim.start]
        derived = classify_cycle(netlist, trace, reads, claim.dff, cycle)
        if derived != claimed:
            problems.append(
                f"{claim.describe()}: cycle {cycle} claims {claimed!r} but "
                f"scalar re-derivation yields {derived!r}"
            )
    return problems
