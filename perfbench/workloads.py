"""The benchmark's workloads: one ``python -m repro.fi run`` configuration each.

Shared by the entry point (``run.py``) and the in-copy probe (``probe.py``), so
the timed runs, the traced run and the reference all use one point count
per workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One ``fi run`` configuration on a real core and program."""

    name: str
    #: Named core+program target (``repro.fi.targets.NAMED_TARGETS``).
    target: str
    #: ``--sampled N``: uniformly sampled points per campaign.
    points: int
    #: ``--pruned --defuse``: sample the MATE-pruned space and collapse it
    #: onto def-use representatives, with the def-use map not cached.
    pruned: bool = False

    def fi_args(self, seed: int) -> list[str]:
        """Arguments of ``python -m repro.fi run`` after ``run``."""
        args = [
            "--target", self.target,
            "--sampled", str(self.points),
            "--seed", str(seed),
            "--workers", "1",
        ]
        if self.pruned:
            args += ["--pruned", "--defuse"]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        # Short injections: per-point scheduling has its largest share.
        Workload("inject-avr-fib", "avr-fib", points=400),
        # MATE replay and a cold def-use build dominate set-up; about 40 %
        # of the points are decided without simulation.
        Workload("prune-msp430-fib", "msp430-fib", points=400, pruned=True),
    )
}

#: The seed the committed reference (``reference.json``) pins.
REFERENCE_SEED = 0
