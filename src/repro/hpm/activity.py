"""Shared processor-activity board sampled by the ``statfx`` monitor.

The runtime marks each CE active while it executes user computation
(serial code or loop iterations) and inactive while it spins waiting
for work or at barriers; ``statfx`` derives per-cluster concurrency
from this board.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.hardware.config import CedarConfig
from repro.sim.core import Simulator

__all__ = ["ActivityBoard"]


class ActivityBoard:
    """Tracks which CEs are actively computing at any instant.

    Also accumulates exact time-weighted activity per CE, which gives
    the same average concurrency a dense sampler would converge to.
    """

    def __init__(self, sim: Simulator, config: CedarConfig) -> None:
        self.sim = sim
        self.config = config
        n = config.n_processors
        self._active = [False] * n
        self._since = [0] * n
        self._busy_ns = [0] * n
        # Incrementally maintained counts: the statfx sampler reads the
        # per-cluster counts before every flip, so recounting the list
        # there would be O(CEs) per flip on the hottest observer path.
        self._cluster_active = [0] * config.n_clusters
        self._total_active = 0
        # Pre-mutation watch hook (see watch()): called before every
        # effective flip is applied, so an observer can account for the
        # counts as they stood at the start of the current tick.
        self._watch: Callable[[], None] | None = None

    def watch(self, fn: Callable[[], None] | None) -> None:
        """Install *fn* to run before every effective activity flip.

        This is the seam that makes sampling order-free: a sampler that
        wants "counts as of the start of tick t" is told about the
        pre-mutation state before the first flip of the tick lands,
        regardless of how same-tick events happen to be ordered.  The
        ``statfx`` sampler accrues its whole sample sum here.
        """
        self._watch = fn

    def set_active(self, ce_id: int) -> None:
        """Mark a CE as actively computing."""
        if not self._active[ce_id]:
            if self._watch is not None:
                self._watch()
            self._active[ce_id] = True
            self._since[ce_id] = self.sim.now
            self._cluster_active[ce_id // self.config.ces_per_cluster] += 1
            self._total_active += 1

    def set_idle(self, ce_id: int) -> None:
        """Mark a CE as idle (spinning or waiting)."""
        if self._active[ce_id]:
            if self._watch is not None:
                self._watch()
            self._busy_ns[ce_id] += self.sim.now - self._since[ce_id]
            self._active[ce_id] = False
            self._cluster_active[ce_id // self.config.ces_per_cluster] -= 1
            self._total_active -= 1

    def is_active(self, ce_id: int) -> bool:
        """Whether the CE is currently computing."""
        return self._active[ce_id]

    def active_in_cluster(self, cluster_id: int) -> int:
        """Number of currently active CEs in *cluster_id*."""
        return self._cluster_active[cluster_id]

    def active_total(self) -> int:
        """Number of currently active CEs in the machine."""
        return self._total_active

    def busy_ns(self, ce_id: int) -> int:
        """Total active time of a CE so far."""
        total = self._busy_ns[ce_id]
        if self._active[ce_id]:
            total += self.sim.now - self._since[ce_id]
        return total

    def mean_concurrency(self, cluster_id: int | None = None) -> float:
        """Exact time-weighted average active-CE count.

        Restricted to one cluster when *cluster_id* is given, otherwise
        over the whole machine (the paper sums per-cluster values).
        """
        now = self.sim.now
        if now == 0:
            return 0.0
        if cluster_id is None:
            ces = range(self.config.n_processors)
        else:
            per = self.config.ces_per_cluster
            ces = range(cluster_id * per, (cluster_id + 1) * per)
        return sum(self.busy_ns(ce) for ce in ces) / now
