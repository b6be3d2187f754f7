"""records.run_loop on scripted steps: the clock it charges, its log grid and
its stop rule."""

import pytest

from adfs_lab.records import run_loop


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
