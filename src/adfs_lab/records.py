"""The run loop and run records shared by the solvers and the experiment harness."""

from dataclasses import dataclass

import numpy as np

__all__ = ["LogRow", "RunRecord", "run_loop"]


@dataclass(frozen=True)
class LogRow:
    iteration: int
    time: float  # idealized clock: 1 per computation round, tau per gossip round
    objective: float  # primal value (smooth runs) or dual value (non-smooth runs)
    subopt: float = None  # objective minus the cached optimum, when one was given
    block_kind: str = ""


@dataclass
class RunRecord:
    rows: list  # LogRow per log point, t = 0 first

    def time_to(self, target):
        """First logged time at which subopt <= target (inf if never)."""
        for r in self.rows:
            if r.subopt is not None and r.subopt <= target:
                return r.time
        return np.inf


def run_loop(iters, step, value, capture, log_every, f_star, capture_iters, stop_at_subopt):
    """Run a solver for at most `iters` iterations on the idealized clock.

    `step(t)` performs iteration t (0-based) and returns the block kind and
    its idealized duration; `value()` is the objective logged at the current
    state and `capture()` a dict of state copies.  A row is logged at t = 0
    and after every `log_every` iterations; the run stops at the first row
    after t = 0 whose subopt is <= `stop_at_subopt`.  Returns the record and
    the captures {t: capture()} of the iterations in `capture_iters`.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    capture_iters = set(capture_iters)
    captures = {}
    rows = []

    def log(t, now, kind):
        obj = value()
        sub = None if f_star is None else obj - f_star
        rows.append(LogRow(t, now, obj, sub, kind))
        return sub

    log(0, 0.0, "")
    now = 0.0
    for t in range(iters):
        kind, duration = step(t)
        now += duration
        t1 = t + 1
        if t1 in capture_iters:
            captures[t1] = capture()
        if t1 % log_every == 0:
            sub = log(t1, now, kind)
            if stop_at_subopt is not None and sub is not None and sub <= stop_at_subopt:
                break
    return RunRecord(rows), captures
