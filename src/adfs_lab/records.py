"""The run loop and run records shared by the solvers and the experiment harness."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["LogRow", "RunRecord", "RunResult", "run_loop", "fit_rate"]

FIT_MIN_POINTS = 50  # fewer rows in a fit window measure no rate


@dataclass(frozen=True)
class LogRow:
    iteration: int
    time: float  # idealized clock (run_loop): 1 per computation block, tau per gossip block
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


class RunResult(NamedTuple):  # what every solver returns
    record: RunRecord
    theta: np.ndarray  # final primal estimate (d,)


def run_loop(iters, step, view, value, log_every, f_star, stop_at_subopt, observe=None,
             tau=None):
    """Run a solver for at most `iters` iterations on the idealized clock.

    `step(t)` performs iteration t (0-based) and returns the kind of block it
    ran.  The clock charges 1 for a "computation" block and `tau`, the gossip
    cost, for a "communication" block; a kind without a cost (gossip when
    `tau` is None) raises KeyError.  A row is logged at t = 0, after every
    `log_every` iterations and after the last one; the run stops at the first
    row after t = 0 whose subopt is <= `stop_at_subopt`.  At each log point,
    and only there, `view()` gives the solver's state once: `value(view)` is
    the logged objective, and `observe(t, view)`, if given, sees the same
    view.  A view is valid only during that call, so an observer copies what
    it keeps.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    cost = {"computation": 1.0}  # the idealized duration of each block kind
    if tau is not None:
        cost["communication"] = tau
    rows = []

    def log(t, now, kind):
        state = view()
        obj = value(state)
        if observe is not None:
            observe(t, state)
        sub = None if f_star is None else obj - f_star
        rows.append(LogRow(t, now, obj, sub, kind))
        return sub

    log(0, 0.0, "")
    now = 0.0
    for t in range(iters):
        kind = step(t)
        now += cost[kind]
        t1 = t + 1
        if t1 % log_every == 0 or t1 == iters:
            sub = log(t1, now, kind)
            if stop_at_subopt is not None and sub is not None and sub <= stop_at_subopt:
                break
    return RunRecord(rows)


def fit_rate(record, lo, hi):
    """The measured idealized time per unit of log-accuracy of a run,
    -1 / slope of the least-squares line of ln subopt against time over the
    logged rows with lo < subopt < hi.  Returns (rate, points), with points
    the number of rows fitted; rate is None below FIT_MIN_POINTS points or
    when the line does not fall."""
    rows = [(r.time, math.log(r.subopt)) for r in record.rows
            if r.subopt is not None and lo < r.subopt < hi]
    if len(rows) < FIT_MIN_POINTS:
        return None, len(rows)
    slope = float(np.polyfit(*zip(*rows), 1)[0])
    return (-1.0 / slope if slope < 0.0 else None), len(rows)
