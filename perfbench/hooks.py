"""Timing hooks the traced run installs around the program's public calls.

Nothing here edits the program: :func:`traced_target` is a campaign-target
factory (``TargetSpec(factory="hooks:traced_target")``) that builds the
named target and wraps its per-cycle callables in ``perf_counter_ns``
accumulators, and :class:`Tracer` keeps in-memory spans around whole calls.

The runner builds targets through the factory in its own process *and* in
each spawned worker, so the accumulators are per process
(:data:`TIMERS`). A worker is SIGKILLed at pool shutdown and runs no exit
hook, so it publishes its totals as ``bench.*`` gauges after every run;
they travel home on the worker-telemetry relay and land in the parent's
registry as ``bench.*{worker=0}``.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro import obs

#: Per-cycle and per-run totals this process accumulated.
TIMER_KEYS = (
    "synth", "compile", "golden", "step", "io", "drive", "observe", "classify",
)
COUNT_KEYS = ("steps", "inject_cycles", "timeout_cycles")

_clock = time.perf_counter_ns


class CycleTimers:
    """Nanosecond totals and counts of one process."""

    def __init__(self) -> None:
        self.ns = dict.fromkeys(TIMER_KEYS, 0)
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.golden_start: int | None = None
        self.golden_done = False

    def timed(self, key: str, fn: Callable, count: str | None = None) -> Callable:
        """``fn`` with its wall time added to ``self.ns[key]`` per call."""
        ns = self.ns
        counts = self.counts

        def wrapper(*args):
            start = _clock()
            result = fn(*args)
            ns[key] += _clock() - start
            if count is not None:
                counts[count] += 1
            return result

        return wrapper

    def publish(self) -> None:
        """Mirror the totals into ``bench.*`` gauges (the worker relay)."""
        for key, value in self.ns.items():
            obs.gauge(f"bench.{key}_ns").set(value)
        for key, value in self.counts.items():
            obs.gauge(f"bench.{key}").set(value)

    def as_dict(self) -> dict[str, int]:
        return {**{f"{k}_ns": v for k, v in self.ns.items()}, **self.counts}

    @staticmethod
    def from_gauges(gauges: dict[str, float], label: str) -> dict[str, int]:
        """Totals a process published, read back from merged gauges."""
        keys = [f"{k}_ns" for k in TIMER_KEYS] + list(COUNT_KEYS)
        return {
            key: int(gauges.get(f"bench.{key}{{{label}}}", 0)) for key in keys
        }


#: This process's accumulators; created by the first :func:`traced_target`.
TIMERS: CycleTimers | None = None


class _Observed:
    """Observables wrapper that times the golden comparison (classification)."""

    __slots__ = ("value", "timers")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, value: object, timers: CycleTimers) -> None:
        self.value = value
        self.timers = timers

    def __eq__(self, other: object) -> bool:
        start = _clock()
        equal = self.value == getattr(other, "value", other)
        self.timers.ns["classify"] += _clock() - start
        self.timers.publish()
        return equal


def traced_target(name: str):
    """Campaign-target factory: ``named_target(name)`` with timed callables.

    Times, in this process: synthesis (``get_netlist``), simulator
    compilation (``get_simulator``), the golden run (from the first
    testbench to its observables), ``CompiledNetlist.step``,
    ``pack_inputs``/``unpack_outputs``, the testbench's ``drive``
    (including its ``StateView.read_reg`` calls) and ``observe``, and
    classification (``observables`` plus the comparison with golden).
    """
    global TIMERS
    from repro.eval import context
    from repro.fi.targets import named_target

    if TIMERS is None:
        TIMERS = CycleTimers()
    timers = TIMERS
    core = name.partition("-")[0]
    start = _clock()
    context.get_netlist(core)
    timers.ns["synth"] += _clock() - start
    start = _clock()
    simulator = context.get_simulator(core)
    timers.ns["compile"] += _clock() - start
    if not getattr(simulator, "_bench_timed", False):
        # get_simulator is memoized: wrap the shared instance only once.
        simulator.compiled.step = timers.timed(
            "step", simulator.compiled.step, count="steps"
        )
        simulator.pack_inputs = timers.timed("io", simulator.pack_inputs)
        simulator.unpack_outputs = timers.timed("io", simulator.unpack_outputs)
        simulator.run = _counted_run(simulator.run, timers)
        simulator._bench_timed = True

    target = named_target(name)
    make_testbench = target.make_testbench
    observables = target.observables

    def timed_testbench():
        if timers.golden_start is None:
            timers.golden_start = _clock()
        testbench = make_testbench()
        testbench.drive = timers.timed("drive", testbench.drive)
        testbench.observe = timers.timed("observe", testbench.observe)
        return testbench

    def timed_observables(testbench, result):
        start = _clock()
        value = _Observed(observables(testbench, result), timers)
        end = _clock()
        timers.ns["classify"] += end - start
        if not timers.golden_done and timers.golden_start is not None:
            timers.ns["golden"] += end - timers.golden_start
            timers.golden_done = True
        timers.publish()
        return value

    target.make_testbench = timed_testbench
    target.observables = timed_observables
    return target


def _counted_run(run: Callable, timers: CycleTimers) -> Callable:
    """``Simulator.run`` that counts the cycles of injected runs.

    A run that hits its cycle budget (a timeout) never reaches
    ``observables``, so the wasted cycles are counted here.
    """

    def wrapper(*args, **kwargs):
        result = run(*args, **kwargs)
        if kwargs.get("flips"):
            timers.counts["inject_cycles"] += result.cycles
            if not result.halted:
                timers.counts["timeout_cycles"] += result.cycles
            timers.publish()
        return result

    return wrapper


class Tracer:
    """In-memory spans: name, start, end, parent and attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        record = {
            "name": name,
            "attrs": attrs,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = _clock()
        try:
            yield record
        finally:
            record["end"] = _clock()
            self._stack.pop()

    def wrap_method(self, cls: type, method: str, name: str) -> None:
        """Record a span around every call of ``cls.method`` (this process)."""
        original = getattr(cls, method)
        tracer = self

        def wrapper(self_, *args, **kwargs):
            with tracer.span(name, **_span_attrs(kwargs)):
                return original(self_, *args, **kwargs)

        setattr(cls, method, wrapper)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child_total: dict[int, int] = {}
        for span in self.spans:
            parent = span["parent"]
            if parent is not None:
                child_total[parent] = (
                    child_total.get(parent, 0) + span["end"] - span["start"]
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_total.get(span["id"], 0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own / 1e9
        return totals


def _span_attrs(kwargs: dict) -> dict:
    """The journal-append arguments the runner metrics need, JSON-safe."""
    return {
        key: kwargs[key]
        for key in ("seconds", "pruned_by")
        if kwargs.get(key) is not None
    }

