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
kernel happens to interleave same-tick events, which is what lets the
monitor run in either of two modes with identical sums:

``exact``
    A sampler process wakes every interval (one recycled Timeout per
    tick) and reads the board's start-of-tick counts, which the board
    maintains via a pre-mutation snapshot hook
    (:meth:`repro.hpm.activity.ActivityBoard.watch_snapshots`).

``push``
    No sampler process at all.  The board's pre-mutation watch hook
    calls back into the monitor before every effective activity flip;
    since counts are constant between flips, the monitor multiplies the
    standing counts by the number of sample ticks that elapsed.  This
    removes the single hottest event source in dense-sampling runs
    (one wake per 200 us of simulated time) while producing the exact
    sampler's sums and sample counts to the bit.

Push mode is the one fast path ``CEDAR_REPRO_FASTPATH`` governs.  It
arms whenever the policy allows it
(:func:`repro.sim.policy.fastpath_policy`), trace sinks, tie-break
perturbation and fault campaigns included; the exact sampler serves
``CEDAR_REPRO_FASTPATH=off`` runs and is the reference the push mode
is checked against.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.hpm.activity import ActivityBoard
from repro.sim import Simulator
from repro.sim.policy import fastpath_policy

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
        self._process = None
        #: ``"push"`` or ``"exact"`` once started, ``None`` before.
        self.mode: str | None = None

    def start(self) -> None:
        """Begin sampling (idempotent).

        Chooses the mode once, here: push accrual when the fast-path
        policy allows it, the exact sampler process otherwise.
        """
        if self.mode is not None:
            return
        sim = self.sim
        if fastpath_policy():
            self.mode = "push"
            self.board.watch(self._accrue)
        else:
            self.mode = "exact"
            self.board.watch_snapshots()
            self._process = sim.process(self._sample_loop(), name="statfx")

    # -- push mode ---------------------------------------------------------

    def _accrue(self) -> None:
        """Credit all sample ticks up to ``sim.now`` with the standing
        counts.

        Runs as the board's pre-mutation watch: the counts have been
        constant since the previous flip, so every sample tick in
        ``(samples * interval, now]`` saw exactly these values -- and a
        sample tick coinciding with ``now`` is credited the
        start-of-tick counts, matching the exact convention.
        """
        k = self.sim.now // self.interval_ns
        n = k - self._samples
        if n > 0:
            counts = self.board._cluster_active
            sums = self._sums
            for cluster_id in range(len(sums)):
                sums[cluster_id] += counts[cluster_id] * n
            self._samples = k

    def _settle(self) -> None:
        """Accrue pending push-mode samples before an accessor reads."""
        if self.mode == "push":
            self._accrue()

    # -- exact mode --------------------------------------------------------

    def _sample_loop(self) -> Generator:
        # Direct-delay yield: the kernel re-arms one recycled Timeout
        # per tick, so dense sampling costs no allocation.
        board = self.board
        while True:
            yield self.interval_ns
            for cluster_id in range(board.config.n_clusters):
                self._sums[cluster_id] += board.start_of_tick_active(cluster_id)
            self._samples += 1

    # -- accessors ---------------------------------------------------------

    @property
    def samples(self) -> int:
        """Samples taken so far (push mode settles lazily)."""
        self._settle()
        return self._samples

    def cluster_concurrency(self, cluster_id: int) -> float:
        """Sampled average concurrency on one cluster."""
        self._settle()
        if self._samples == 0:
            return 0.0
        return self._sums[cluster_id] / self._samples

    def total_concurrency(self) -> float:
        """Sum of per-cluster average concurrencies (the paper's value)."""
        return sum(
            self.cluster_concurrency(c) for c in range(self.board.config.n_clusters)
        )
