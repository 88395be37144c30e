"""Unit tests for the activity board and the statfx sampler."""

import pytest

from repro.hardware import paper_configuration
from repro.hpm import ActivityBoard, Statfx
from repro.sim import Simulator


def make_board(n_proc=32):
    sim = Simulator()
    return sim, ActivityBoard(sim, paper_configuration(n_proc))


def test_board_starts_idle():
    _, board = make_board()
    assert board.active_total() == 0
    assert not board.is_active(0)


def test_set_active_and_idle():
    sim, board = make_board()
    board.set_active(3)
    assert board.is_active(3)
    assert board.active_total() == 1
    board.set_idle(3)
    assert not board.is_active(3)


def test_double_set_active_is_idempotent():
    sim, board = make_board()
    board.set_active(0)
    board.set_active(0)
    assert board.active_total() == 1


def test_active_in_cluster_counts_only_that_cluster():
    _, board = make_board(32)
    board.set_active(0)   # cluster 0
    board.set_active(9)   # cluster 1
    board.set_active(10)  # cluster 1
    assert board.active_in_cluster(0) == 1
    assert board.active_in_cluster(1) == 2
    assert board.active_in_cluster(2) == 0


def test_busy_time_accumulates():
    sim, board = make_board()

    def proc(sim):
        board.set_active(0)
        yield sim.timeout(100)
        board.set_idle(0)
        yield sim.timeout(50)
        board.set_active(0)
        yield sim.timeout(25)
        board.set_idle(0)

    sim.process(proc(sim))
    sim.run()
    assert board.busy_ns(0) == 125


def test_busy_time_includes_open_interval():
    sim, board = make_board()

    def proc(sim):
        board.set_active(0)
        yield sim.timeout(60)

    sim.process(proc(sim))
    sim.run()
    assert board.busy_ns(0) == 60


def test_mean_concurrency_exact():
    sim, board = make_board(8)

    def proc(sim):
        board.set_active(0)
        board.set_active(1)
        yield sim.timeout(100)  # 2 active for half the run
        board.set_idle(1)
        yield sim.timeout(100)  # 1 active for the other half

    sim.process(proc(sim))
    sim.run()
    assert board.mean_concurrency() == pytest.approx(1.5)


def test_mean_concurrency_zero_at_start():
    _, board = make_board()
    assert board.mean_concurrency() == 0.0


def test_statfx_sampling_converges_to_mean():
    sim, board = make_board(8)
    statfx = Statfx(sim, board, interval_ns=10)
    statfx.start()

    def proc(sim):
        board.set_active(0)
        board.set_active(1)
        yield sim.timeout(1000)
        board.set_idle(1)
        yield sim.timeout(1000)
        board.set_idle(0)

    sim.process(proc(sim))
    sim.run(until=2001)
    assert statfx.cluster_concurrency(0) == pytest.approx(1.5, rel=0.05)
    assert statfx.total_concurrency() == pytest.approx(1.5, rel=0.05)


def test_statfx_total_sums_clusters():
    sim, board = make_board(32)
    statfx = Statfx(sim, board, interval_ns=10)
    statfx.start()

    def proc(sim):
        board.set_active(0)    # cluster 0
        board.set_active(8)    # cluster 1
        board.set_active(16)   # cluster 2
        yield sim.timeout(500)

    sim.process(proc(sim))
    sim.run(until=501)
    assert statfx.total_concurrency() == pytest.approx(3.0, rel=0.05)


def test_statfx_before_samples_is_zero():
    sim, board = make_board(8)
    statfx = Statfx(sim, board)
    assert statfx.cluster_concurrency(0) == 0.0


def test_statfx_interval_validation():
    sim, board = make_board(8)
    with pytest.raises(ValueError):
        Statfx(sim, board, interval_ns=0)


def test_statfx_start_idempotent():
    sim, board = make_board(8)
    statfx = Statfx(sim, board, interval_ns=10)
    statfx.start()
    statfx.start()

    def proc(sim):
        board.set_active(0)
        yield sim.timeout(100)
        board.set_idle(0)

    sim.process(proc(sim))
    sim.run()
    assert statfx.samples == 10
    assert statfx.cluster_concurrency(0) == 1.0
