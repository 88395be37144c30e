"""``statfx`` push accrual against a tick-by-tick sampler.

``Statfx`` takes no sample itself: before every effective activity flip
the board's watch hook credits each elapsed sample tick with the
standing counts.  The oracle here does what a sampler process would do
instead.  It replays the logged flips and, for every tick
``k * interval`` with ``1 <= k <= end // interval``, reads the counts as
they stood before that tick's first flip.  The two must agree exactly,
at the end of the run and at any read in between.

Application runs reach the sampler only through ``set_active`` /
``set_idle``, so this property covers them as long as nothing else
writes the board's counts; the ``ast`` guard at the bottom holds that.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.hardware import paper_configuration
from repro.hpm import ActivityBoard, Statfx
from repro.sim import Simulator

CONFIG = paper_configuration(32)
N_CLUSTERS = CONFIG.n_clusters
PER_CLUSTER = CONFIG.ces_per_cluster

#: A few CEs in every cluster, so flips often hit a CE twice.
_ces = st.sampled_from([0, 1, 2, 8, 9, 17, 24, 31])


@st.composite
def _runs(draw):
    """``(interval, ops, end)``: ops are ``(time, kind, ce)``, in time order.

    Times are drawn on a sample tick or strictly inside an interval, so
    flips land on sample ticks; several ops may share one time; an
    ``"on"`` or ``"off"`` may repeat at once (an idempotent double
    set); and the run ends on a sample tick or between two.
    """
    interval = draw(st.integers(min_value=1, max_value=40))

    def tick_time(k_and_offset):
        k, on_tick, offset = k_and_offset
        if on_tick or interval == 1:
            return k * interval
        return k * interval + 1 + offset % (interval - 1)

    instants = st.tuples(
        st.integers(min_value=0, max_value=12),
        st.booleans(),
        st.integers(min_value=1, max_value=10_000),
    ).map(tick_time)
    op = st.tuples(
        instants,
        st.sampled_from(["on", "off", "on-twice", "off-twice", "read"]),
        _ces,
    )
    ops = sorted(draw(st.lists(op, max_size=40)), key=lambda o: o[0])
    last = ops[-1][0] if ops else 0
    tail = draw(st.integers(min_value=0, max_value=3 * interval))
    end = last + tail
    if draw(st.booleans()):
        end = -(-end // interval) * interval  # round up onto a sample tick
    return interval, ops, end


def _run(interval, ops, end):
    """Drive *ops* on a bare board; return the flip log, the reads and
    the final ``(samples, per-cluster concurrency)``."""
    sim = Simulator()
    board = ActivityBoard(sim, CONFIG)
    statfx = Statfx(sim, board, interval_ns=interval)
    statfx.start()
    flips: list[tuple[int, int, bool]] = []
    reads: list[tuple[int, int, list[float]]] = []

    def observe(sfx):
        return sfx.samples, [sfx.cluster_concurrency(c) for c in range(N_CLUSTERS)]

    def driver():
        for time, kind, ce in ops:
            if time > sim.now:
                yield sim.timeout(time - sim.now)
            if kind == "read":
                reads.append((sim.now, *observe(statfx)))
                continue
            active = kind.startswith("on")
            for _ in range(2 if kind.endswith("twice") else 1):
                (board.set_active if active else board.set_idle)(ce)
                flips.append((sim.now, ce, active))
        if end > sim.now:
            yield sim.timeout(end - sim.now)

    sim.process(driver())
    sim.run()
    assert sim.now == end
    return flips, reads, observe(statfx)


def _oracle(flips, interval, now):
    """Sample every tick up to *now* the slow way."""
    samples = now // interval
    sums = [0] * N_CLUSTERS
    for k in range(1, samples + 1):
        active = {}
        for time, ce, state in flips:
            if time < k * interval:  # before this tick's first flip
                active[ce] = state
        for ce, state in active.items():
            sums[ce // PER_CLUSTER] += state
    if samples == 0:
        return 0, [0.0] * N_CLUSTERS
    return samples, [s / samples for s in sums]


@settings(max_examples=300, deadline=None)
@given(run=_runs())
def test_push_accrual_matches_a_tick_by_tick_sampler(run):
    interval, ops, end = run
    flips, reads, final = _run(interval, ops, end)
    assert final == _oracle(flips, interval, end)
    for time, samples, per_cluster in reads:
        assert (samples, per_cluster) == _oracle(flips, interval, time)


def test_only_the_board_and_statfx_touch_the_counts():
    """Every count change goes through ``set_active`` / ``set_idle``,
    and so through the watch hook ``Statfx`` accrues in."""
    root = Path(repro.__file__).resolve().parent
    touching = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_cluster_active":
                touching.add(path.relative_to(root).as_posix())
    assert touching == {"hpm/activity.py", "hpm/statfx.py"}
