"""records.run_loop on scripted steps: the clock it charges, its log grid and
its stop rule; records.fit_rate on planted curves."""

import math

import pytest

from adfs_lab.records import FIT_MIN_POINTS, LogRow, RunRecord, fit_rate, run_loop


def scripted(kinds):
    """(step, view): a step that runs the block kinds in turn, and a view that
    reads the number of steps taken."""
    done = []

    def step(t):
        assert t == len(done)
        done.append(t)
        return kinds[t % len(kinds)]

    return step, lambda: len(done)


def test_clock_charges_one_per_computation_and_tau_per_gossip():
    step, view = scripted(["computation", "communication", "communication"])
    rows = run_loop(6, step, view, float, 1, None, None, tau=2.5).rows
    assert [r.time for r in rows] == [0.0, 1.0, 3.5, 6.0, 7.0, 9.5, 12.0]
    assert [r.block_kind for r in rows] == [""] + ["computation", "communication",
                                                   "communication"] * 2


def test_gossip_without_a_cost_fails():
    step, view = scripted(["computation", "communication"])
    with pytest.raises(KeyError, match="communication"):
        run_loop(4, step, view, float, 1, None, None)


def test_budget_below_log_every_logs_its_start_and_end():
    seen = []
    step, view = scripted(["computation"])
    rows = run_loop(7, step, view, float, 20, None, None,
                    observe=lambda t, state: seen.append((t, state))).rows
    assert [(r.iteration, r.time, r.objective) for r in rows] == [(0, 0.0, 0.0), (7, 7.0, 7.0)]
    assert seen == [(0, 0), (7, 7)]


def test_stop_first_met_at_the_off_grid_last_row():
    # subopt falls by 1 per step from 100: 80, 60 on the grid, 45 at t = 55
    step, view = scripted(["computation"])
    record = run_loop(55, step, view, lambda k: 100.0 - k, 20, 0.0, 45.0)
    assert [(r.iteration, r.subopt) for r in record.rows] == [
        (0, 100.0), (20, 80.0), (40, 60.0), (55, 45.0)]
    assert record.time_to(45.0) == 55.0
    assert record.time_to(44.0) == float("inf")


def planted(subopt, count):
    """A record logged at times 0, 2, 4, ... with the given subopt(time)."""
    return RunRecord([LogRow(k, 2.0 * k, 0.0, subopt(2.0 * k)) for k in range(count)])


def test_fit_rate_recovers_a_planted_rate_inside_its_window():
    # subopt = exp(-time / 250) from 1: rows in (1e-4, 0.1) are the times
    # in (250 ln 10, 250 ln 1e4), 576 < time < 2303, every other time even
    record = planted(lambda time: math.exp(-time / 250.0), 2000)
    rate, points = fit_rate(record, 1e-4, 0.1)
    assert points == len(range(576, 2303, 2)) == 864
    assert rate == pytest.approx(250.0, rel=1e-9)


def test_fit_rate_below_the_point_minimum_measures_no_rate():
    record = planted(lambda time: math.exp(-time), FIT_MIN_POINTS + 100)
    window = (math.exp(-2.0 * (FIT_MIN_POINTS - 1)) / 2.0, 2.0)  # rows 0 .. FIT_MIN_POINTS - 1
    assert fit_rate(record, *window)[1] == FIT_MIN_POINTS
    window = (math.exp(-2.0 * (FIT_MIN_POINTS - 2)) / 2.0, 2.0)
    assert fit_rate(record, *window) == (None, FIT_MIN_POINTS - 1)


def test_fit_rate_of_a_rising_line_is_none():
    assert fit_rate(planted(lambda time: 1e-3 * math.exp(time / 1e3), 100), 1e-4, 0.1)[0] is None
