"""The ``statfx`` software concurrency monitor.

``statfx`` measures the concurrency (average number of active
processors) on each cluster by periodic sampling; for multi-cluster
configurations the paper reports the sum of the per-cluster averages
(Section 3.1).

Sampling semantics
------------------

A sample at tick ``k * interval_ns`` reads the activity counts **as of
the start of that tick** -- before any same-tick activity flip is
applied.  This convention is order-free: it does not depend on how the
kernel happens to interleave same-tick events.

There is no sampler process.  The board's pre-mutation watch hook
(:meth:`repro.hpm.activity.ActivityBoard.watch`) calls back into the
monitor before every effective activity flip; since the counts are
constant between flips, the monitor credits every sample tick that
elapsed since the last flip with the standing counts at once.  The
sums and the sample count are exactly those of a process that woke
every interval, without its wake per tick (one per 200 us of simulated
time).  ``tests/hpm/test_statfx_oracle.py`` checks them against such a
tick-by-tick sampler.
"""

from __future__ import annotations

from repro.hpm.activity import ActivityBoard
from repro.sim import Simulator

__all__ = ["Statfx"]


class Statfx:
    """Periodic sampler of per-cluster processor activity.

    Parameters
    ----------
    sim:
        Owning simulator.
    board:
        The activity board the runtime keeps up to date.
    interval_ns:
        Sampling period.  The default (1 ms of simulated time) is dense
        enough for the phase lengths the application models produce.
    """

    def __init__(self, sim: Simulator, board: ActivityBoard, interval_ns: int = 1_000_000) -> None:
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be positive, got {interval_ns}")
        self.sim = sim
        self.board = board
        self.interval_ns = interval_ns
        self._samples = 0
        n_clusters = board.config.n_clusters
        self._sums = [0] * n_clusters

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        self.board.watch(self._accrue)

    def _accrue(self) -> None:
        """Credit all sample ticks up to ``sim.now`` with the standing
        counts.

        Runs as the board's pre-mutation watch: the counts have been
        constant since the previous flip, so every sample tick in
        ``(samples * interval, now]`` saw exactly these values -- and a
        sample tick coinciding with ``now`` is credited the
        start-of-tick counts.
        """
        k = self.sim.now // self.interval_ns
        n = k - self._samples
        if n > 0:
            counts = self.board._cluster_active
            sums = self._sums
            for cluster_id in range(len(sums)):
                sums[cluster_id] += counts[cluster_id] * n
            self._samples = k

    # -- accessors ---------------------------------------------------------

    @property
    def samples(self) -> int:
        """Samples taken so far (accrued lazily, up to ``sim.now``)."""
        self._accrue()
        return self._samples

    @property
    def sums(self) -> tuple[int, ...]:
        """Each cluster's sum of sampled counts (accrued up to ``sim.now``)."""
        self._accrue()
        return tuple(self._sums)

    def cluster_concurrency(self, cluster_id: int) -> float:
        """Sampled average concurrency on one cluster."""
        self._accrue()
        if self._samples == 0:
            return 0.0
        return self._sums[cluster_id] / self._samples

    def total_concurrency(self) -> float:
        """Sum of per-cluster average concurrencies (the paper's value)."""
        return sum(
            self.cluster_concurrency(c) for c in range(self.board.config.n_clusters)
        )
