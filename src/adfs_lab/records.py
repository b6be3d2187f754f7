"""Run records shared by the solvers and the experiment harness."""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LogRow", "RunRecord"]


@dataclass(frozen=True)
class LogRow:
    iteration: int
    time: float  # idealized clock: 1 per computation round, tau per gossip round
    objective: float  # primal value (smooth runs) or dual value (non-smooth runs)
    subopt: float = None  # objective minus the cached optimum, when one was given
    block_kind: str = ""


@dataclass
class RunRecord:
    algorithm: str
    seed: int
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def time_to(self, target):
        """First logged time at which subopt <= target (inf if never)."""
        for r in self.rows:
            if r.subopt is not None and r.subopt <= target:
                return r.time
        return np.inf
