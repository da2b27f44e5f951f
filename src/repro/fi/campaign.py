"""The fault-injection campaign engine.

A :class:`CampaignTarget` bundles a compiled netlist with a workload: a
factory for fresh testbenches and an extractor for the externally-visible
result (memory image, i/o log). :class:`Campaign` runs the golden
execution once, then injects SEUs — exhaustively, sampled, or from a
MATE-pruned fault list — and classifies each run.

The golden run keeps one checkpoint per cycle (FF state plus a testbench
snapshot), so an injection at cycle c simulates only the cycles from c on:
the cycles before the fault are the golden ones, which the campaign has
already simulated.

:meth:`Campaign.inject_batch` runs up to :data:`LANES` injections at once
in *golden-shadow lanes*: bit k of every FF value is injection k, stepped
by the netlist's lane kernel on golden's recorded inputs. A lane that
never differs from golden in an FF the testbench read or in an output
makes the testbench behave exactly as in the golden run, so it is decided
without a testbench of its own when golden halts. A lane that differs is
*evicted*: it goes on alone on the scalar path from the cycle it left
golden's shadow. :meth:`Campaign.inject` stays the plain scalar injection,
the oracle the batch path is checked against.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.faultspace import FaultSpace
from repro.fi.classify import Outcome
from repro.obs import counter, gauge, span
from repro.sim.simulator import Checkpoint, SimulationResult, Simulator
from repro.sim.testbench import Testbench

#: Injections per lane batch: lane k is bit k of every FF value.
LANES = 64


def sample_points(
    netlist, golden_cycles: int, num_samples: int, seed: int = 0
) -> list[tuple[str, int]]:
    """Uniformly sampled ``(dff, cycle)`` injection points.

    The single source of the sampling order: :meth:`Campaign.run_sampled`,
    ``CampaignRunner.sample_points`` and the distributed coordinator all
    draw here, so every engine over the same target and seed injects the
    same point list — the precondition for their journals being
    record-for-record comparable.
    """
    rng = random.Random(seed)
    names = list(netlist.dffs)
    return [
        (rng.choice(names), rng.randrange(golden_cycles))
        for _ in range(num_samples)
    ]


@dataclass
class CampaignTarget:
    """A netlist + workload combination to inject into."""

    name: str
    simulator: Simulator
    make_testbench: Callable[[], Testbench]
    #: Extracts the externally visible result from (testbench, result).
    observables: Callable[[Testbench, SimulationResult], object]
    #: Safety margin on top of the golden run length.
    timeout_factor: float = 2.0

    def fault_wires(self, exclude_register_file: bool = False) -> list[str]:
        """Flip-flop Q wires of the target (the injectable fault sites)."""
        netlist = self.simulator.netlist
        excluded = (
            netlist.register_file_dffs() if exclude_register_file else set()
        )
        return [d.q for name, d in netlist.dffs.items() if name not in excluded]


@dataclass
class InjectionRecord:
    """One injection and its outcome."""

    dff_name: str
    cycle: int
    outcome: Outcome


class BatchOutcome(NamedTuple):
    """One point's result from :meth:`Campaign.run_batch`."""

    outcome: Outcome
    #: Cycle at which the lane left golden's shadow and went on alone on
    #: the scalar path; None when it was decided in the shadow.
    left_golden: int | None
    #: Wall seconds: the point's share of its batch's lane phase plus its
    #: own work after it.
    seconds: float


@dataclass
class CampaignResult:
    """Aggregated campaign outcome."""

    target: str
    golden_cycles: int
    records: list[InjectionRecord] = field(default_factory=list)

    def count(self, outcome: Outcome) -> int:
        """Number of injections with the given outcome."""
        return sum(1 for r in self.records if r.outcome is outcome)

    @property
    def num_injections(self) -> int:
        """Total number of injections performed."""
        return len(self.records)

    @property
    def benign_fraction(self) -> float:
        """Fraction of injections that were benign.

        An empty campaign has no meaningful fraction: this returns
        ``float("nan")`` rather than a silent ``0.0`` (which would read as
        "every injection was effective"). Callers that aggregate fractions
        must check :attr:`num_injections` (or ``math.isnan``) first.
        """
        if not self.records:
            return math.nan
        return self.count(Outcome.BENIGN) / len(self.records)

    def summary(self) -> str:
        """One-line human-readable outcome tally."""
        parts = [f"campaign {self.target}: {self.num_injections} injections"]
        for outcome in Outcome:
            parts.append(f"{outcome.value}={self.count(outcome)}")
        return ", ".join(parts)


class Campaign:
    """Runs SEU injections against one target."""

    def __init__(self, target: CampaignTarget, max_cycles: int = 50_000) -> None:
        self.target = target
        tb = target.make_testbench()
        simulator = target.simulator
        #: Golden state at the start of every golden cycle, indexed by cycle.
        self.checkpoints: list[Checkpoint] = []
        with span("campaign/golden-run", target=target.name):
            self._golden = simulator.run(
                tb,
                max_cycles=max_cycles,
                record_trace=False,
                checkpoints=self.checkpoints,
                record_reads=True,
                record_io=True,
            )
        if not self._golden.halted:
            raise ValueError(
                f"golden run of {target.name} did not halt within {max_cycles} cycles"
            )
        self._golden_tb = tb
        self._golden_observables = target.observables(tb, self._golden)
        # What the lanes are held against, per golden cycle: the FFs the
        # testbench read, the packed inputs it drove and the output bits.
        self._golden_reads = [
            tuple(simulator.dff_index[name] for name in names)
            for names in self._golden.reads
        ]
        self._golden.reads = None  # the index tuples replace the name sets
        self.golden_cycles = self._golden.cycles
        #: Cycle budget of an injected run, counted from cycle 0.
        self.cycle_budget = int(self.golden_cycles * target.timeout_factor) + 8

    # ------------------------------------------------------------------
    def _check_point(self, dff_name: str, cycle: int) -> None:
        if dff_name not in self.target.simulator.netlist.dffs:
            raise KeyError(f"unknown flip-flop {dff_name!r}")
        if not 0 <= cycle < self.golden_cycles:
            raise ValueError(
                f"cycle {cycle} beyond the golden run ({self.golden_cycles})"
            )

    def run_injection(
        self, dff_name: str, cycle: int
    ) -> tuple[Testbench, SimulationResult]:
        """Simulate one SEU from the golden checkpoint at ``cycle``."""
        self._check_point(dff_name, cycle)
        tb = self.target.make_testbench()
        with span("campaign/inject"):
            result = self.target.simulator.run(
                tb,
                max_cycles=self.cycle_budget,
                record_trace=False,
                flips={cycle: [dff_name]},
                start=self.checkpoints[cycle],
            )
        return tb, result

    def classify(self, tb: Testbench, result: SimulationResult) -> Outcome:
        """Outcome of a finished run: timeout, or its observables vs golden."""
        if not result.halted:
            return Outcome.TIMEOUT
        if self.target.observables(tb, result) == self._golden_observables:
            return Outcome.BENIGN
        return Outcome.SDC

    def inject(self, dff_name: str, cycle: int) -> Outcome:
        """Inject one SEU and classify the outcome."""
        outcome = self.classify(*self.run_injection(dff_name, cycle))
        counter("campaign.injections").inc()
        counter(f"campaign.outcome.{outcome.value}").inc()
        return outcome

    def inject_batch(self, points: Iterable[tuple[str, int]]) -> list[Outcome]:
        """Outcomes of many SEUs, in input order, decided in lane batches.

        Equal, point for point, to ``[inject(*p) for p in points]``.
        """
        return [batch.outcome for batch in self.run_batch(points)]

    def run_batch(self, points: Iterable[tuple[str, int]]) -> list[BatchOutcome]:
        """:meth:`inject_batch` with each point's provenance and wall time.

        Points are sorted by cycle (stably) and cut into batches of up to
        :data:`LANES`; per-point work runs in that order. Raises the
        ``KeyError``/``ValueError`` of :meth:`run_injection` for an unknown
        flip-flop or a cycle outside the golden run before simulating.
        """
        points = list(points)
        for dff_name, cycle in points:
            self._check_point(dff_name, cycle)
        order = sorted(range(len(points)), key=lambda i: points[i][1])
        results: list[BatchOutcome] = [None] * len(points)  # type: ignore[list-item]
        for start in range(0, len(order), LANES):
            batch = order[start : start + LANES]
            for index, result in zip(
                batch, self._run_lanes([points[i] for i in batch])
            ):
                results[index] = result
        return results

    def _run_lanes(self, points: list[tuple[str, int]]) -> list[BatchOutcome]:
        """One lane batch: shadow golden, evict divergent lanes, decide all."""
        simulator = self.target.simulator
        if len(points) == 1:
            # With one lane every value is 0 or 1, where the scalar kernel
            # computes what the lane kernel does, faster and compiled already.
            scalar = simulator.compiled.step

            def step(state, inputs, mask):
                return scalar(state, inputs, False)[:2]

        else:
            step = simulator.compiled.lane_step
        mask = (1 << len(points)) - 1
        rep = (0, mask)  # a golden bit, copied into every lane
        flips: dict[int, list[tuple[int, int]]] = {}
        for lane, (dff_name, cycle) in enumerate(points):
            flips.setdefault(cycle, []).append(
                (simulator.dff_index[dff_name], 1 << lane)
            )
        first = min(flips)
        checkpoints, reads, io = self.checkpoints, self._golden_reads, self._golden.io
        state = [rep[bit] for bit in checkpoints[first].state]
        live = mask
        #: Evicted lane -> (cycle, the FFs in which it then differs from golden).
        left: dict[int, tuple[int, list[str]]] = {}
        names = simulator.compiled.dff_names
        started = time.perf_counter()
        with span("campaign/lanes", lanes=len(points)):
            for cycle in range(first, self.golden_cycles):
                for index, bit in flips.get(cycle, ()):
                    state[index] ^= bit
                golden = checkpoints[cycle].state
                diverged = 0
                for index in reads[cycle]:
                    diverged |= state[index] ^ rep[golden[index]]
                in_bits, out_bits = io[cycle]
                next_state, outputs = step(state, [rep[b] for b in in_bits], mask)
                for value, bit in zip(outputs, out_bits):
                    diverged |= value ^ rep[bit]
                diverged &= live
                if diverged:
                    live ^= diverged
                    for lane in range(len(points)):
                        if diverged >> lane & 1:
                            left[lane] = cycle, [
                                names[index]
                                for index, value in enumerate(state)
                                if (value >> lane ^ golden[index]) & 1
                            ]
                    if not live:
                        break
                state = next_state
        counter("campaign.lanes.batches").inc()
        counter("campaign.lanes.evicted").inc(len(left))
        counter("sim.cycles.lanes").inc(cycle - first + 1)
        share = (time.perf_counter() - started) / len(points)

        results = []
        for lane in range(len(points)):
            started = time.perf_counter()
            evicted = left.get(lane)
            with span("campaign/inject"):
                if evicted is None:
                    outcome = self._classify_shadow(state, lane)
                    counter(f"campaign.lanes.shadow_{outcome.value}").inc()
                else:
                    # Golden's checkpoint at the eviction cycle, with every
                    # FF the lane differs in flipped, is the lane's state.
                    at, flipped = evicted
                    tb = self.target.make_testbench()
                    outcome = self.classify(
                        tb,
                        simulator.run(
                            tb,
                            max_cycles=self.cycle_budget,
                            record_trace=False,
                            flips={at: flipped},
                            start=checkpoints[at],
                        ),
                    )
            counter("campaign.injections").inc()
            counter(f"campaign.outcome.{outcome.value}").inc()
            results.append(
                BatchOutcome(
                    outcome,
                    None if evicted is None else evicted[0],
                    share + time.perf_counter() - started,
                )
            )
        return results

    def _classify_shadow(self, state: list[int], lane: int) -> Outcome:
        """Outcome of a lane that shadowed golden until golden halted.

        Its testbench went through golden's exact history, so golden's
        final testbench stands in for it; only its final FF state may
        differ, which matters to observables that read it.
        """
        golden = self._golden
        final = [value >> lane & 1 for value in state]
        if final == golden.final_state:
            return Outcome.BENIGN
        result = SimulationResult(
            None, golden.cycles, True, final, golden.outputs_last
        )
        return self.classify(self._golden_tb, result)

    # ------------------------------------------------------------------
    def run_points(self, points: Iterable[tuple[str, int]]) -> CampaignResult:
        """Inject a list of (dff name, cycle) points."""
        result = CampaignResult(self.target.name, self.golden_cycles)
        points = list(points)
        with span(
            "campaign/run-points", target=self.target.name, points=len(points)
        ) as run_span:
            outcomes = self.inject_batch(points)
        result.records = [
            InjectionRecord(dff_name, cycle, outcome)
            for (dff_name, cycle), outcome in zip(points, outcomes)
        ]
        if run_span.elapsed > 0:
            rate = len(points) / run_span.elapsed
            gauge("campaign.injections_per_second").set(rate)
            gauge("campaign.points_decided_per_second").set(rate)
        return result

    def run_sampled(self, num_samples: int, seed: int = 0) -> CampaignResult:
        """Inject uniformly sampled points from the fault space."""
        return self.run_points(
            sample_points(
                self.target.simulator.netlist, self.golden_cycles,
                num_samples, seed,
            )
        )

    def run_pruned(
        self,
        space: FaultSpace,
        num_samples: int,
        seed: int = 0,
    ) -> tuple[CampaignResult, int]:
        """Sample the *remaining* (unpruned) fault space of ``space``.

        ``space`` rows must be DFF names. Returns ``(result, pruned_points)``.

        ``pruned_points`` is exactly ``space.num_benign``: the number of
        (flip-flop, cycle) points the MATE set (or any other pruning
        technique) proved benign — the experiments pruning saved. It does
        **not** count points that were merely *sampled away* because the
        remaining space exceeded ``num_samples``, nor remaining points past
        the golden run length. Sampling never mutates ``space``, so the
        count is identical whether it is read before or after sampling.
        """
        remaining = [
            (name, cycle)
            for name, cycle in space.remaining_points()
            if cycle < self.golden_cycles
        ]
        rng = random.Random(seed)
        if len(remaining) > num_samples:
            remaining = rng.sample(remaining, num_samples)
        pruned_points = space.num_benign
        counter("campaign.points.pruned").inc(pruned_points)
        return self.run_points(remaining), pruned_points

    def run_collapsed(
        self, points: Iterable[tuple[str, int]], equivalence_map
    ) -> tuple[CampaignResult, int]:
        """Inject only def-use representatives; back-annotate the rest.

        ``equivalence_map`` is a :class:`repro.prune.EquivalenceMap` for
        this target's design and workload (its ``golden_cycles`` must match
        this campaign's). Returns ``(result, num_injected)``: the result
        carries one record per *requested* point in input order — dead
        points as BENIGN, followers with their representative's outcome —
        while only ``num_injected`` simulations actually ran.
        """
        points = list(points)
        if equivalence_map.golden_cycles != self.golden_cycles:
            raise ValueError(
                f"equivalence map covers {equivalence_map.golden_cycles} "
                f"cycle(s) but the golden run has {self.golden_cycles}"
            )
        plan = equivalence_map.collapse(points)
        with span(
            "campaign/run-collapsed",
            target=self.target.name,
            points=len(points),
            injected=plan.num_injected,
        ) as run_span:
            executed = list(plan.executed)
            outcomes = dict(
                zip(
                    executed,
                    self.inject_batch(plan.points[index] for index in executed),
                )
            )
        if run_span.elapsed > 0:
            gauge("campaign.points_decided_per_second").set(
                len(points) / run_span.elapsed
            )
        for index in plan.dead:
            outcomes[index] = Outcome.BENIGN
        for index, rep_index in plan.follows.items():
            outcomes[index] = outcomes[rep_index]
        counter("campaign.points.annotated").inc(plan.num_annotated)
        result = CampaignResult(self.target.name, self.golden_cycles)
        result.records = [
            InjectionRecord(dff, cycle, outcomes[index])
            for index, (dff, cycle) in enumerate(plan.points)
        ]
        return result, plan.num_injected
