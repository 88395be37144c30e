"""Multiprogrammed scheduling: the setting the paper deliberately avoids.

The paper's measurements are made "in a dedicated, single user setting
with only the target application and the OS executing on the system"
(Section 3).  Xylem itself is a multitasking OS, so a natural question
is what the overheads look like when the machine is shared.  This
module models a competing Xylem process: on each cluster the competitor
periodically preempts the application for a time slice (with real
context-switch and CPI costs through the kernel), and -- because
Xylem's clusters schedule independently -- the slices on different
clusters drift apart, which *amplifies* barrier waits beyond the raw
CPU share taken (see ``examples/multiprogramming_study.py``).
"""

from __future__ import annotations

from collections.abc import Generator

from repro.xylem.kernel import XylemKernel

__all__ = ["BackgroundWorkload"]


class BackgroundWorkload:
    """A competing process time-sharing the clusters with the target.

    Parameters
    ----------
    kernel:
        The Xylem kernel of the machine under test.
    share:
        Fraction of each cluster's time the competitor receives.
    quantum_ns:
        Length of one competitor time slice.
    coscheduled:
        If true, every cluster is preempted at the same instants (gang
        scheduling across the whole machine); if false (Xylem's actual
        behaviour) clusters schedule independently and drift.
    seed:
        Seed for the per-cluster phase offsets in independent mode.
    """

    def __init__(
        self,
        kernel: XylemKernel,
        share: float = 0.25,
        quantum_ns: int = 20_000_000,
        coscheduled: bool = False,
        seed: int = 7,
    ) -> None:
        if not 0.0 < share < 1.0:
            raise ValueError(f"share must be in (0, 1), got {share}")
        if quantum_ns <= 0:
            raise ValueError(f"quantum_ns must be positive, got {quantum_ns}")
        self.kernel = kernel
        self.share = share
        self.quantum_ns = quantum_ns
        self.coscheduled = coscheduled
        import numpy as np  # lazily: the CLI's import graph stays numpy-free

        self._rng = np.random.default_rng(seed)
        self._started = False
        #: Total competitor time granted, per cluster (ns).
        self.granted_ns = [0] * kernel.config.n_clusters

    @property
    def period_ns(self) -> int:
        """Full scheduling period: one competitor slice plus the
        application's share."""
        return int(round(self.quantum_ns / self.share))

    def start(self) -> None:
        """Begin preempting (idempotent)."""
        if self._started:
            return
        self._started = True
        n_clusters = self.kernel.config.n_clusters
        # Independent mode draws each cluster's phase within its own
        # period/n_clusters stratum: still seed-driven, but clusters are
        # guaranteed pairwise-distinct phases (the drift this mode models).
        stratum_ns = max(1, self.period_ns // n_clusters)
        for cluster_id in range(n_clusters):
            if self.coscheduled:
                offset = 0
            else:
                offset = cluster_id * stratum_ns + int(
                    self._rng.integers(stratum_ns)
                )
            self.kernel.sim.process(
                self._slice_loop(cluster_id, offset),
                name=f"bg-load-{cluster_id}",
            )

    def _slice_loop(self, cluster_id: int, offset_ns: int) -> Generator:
        sim = self.kernel.sim
        state = self.kernel.clusters[cluster_id]
        gap_ns = self.period_ns - self.quantum_ns
        if offset_ns > 0:
            yield offset_ns
        while True:
            yield gap_ns
            # Switch the application out (ctx + CPI through the kernel,
            # charged to the OS ledger like any other switch) ...
            yield sim.process(self.kernel.context_switch(cluster_id), name="bg-ctx")
            # ... run the competitor for its slice (the application's
            # gang is frozen on this cluster) ...
            state.freeze()
            try:
                yield self.quantum_ns
                self.granted_ns[cluster_id] += self.quantum_ns
            finally:
                state.unfreeze()
            # ... and switch the application back in.
            yield sim.process(self.kernel.context_switch(cluster_id), name="bg-ctx")
