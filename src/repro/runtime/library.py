"""The Cedar Fortran runtime-library model.

Implements the execution protocol of Section 2:

* The runtime creates one **helper task** per non-master cluster.  A
  helper spin-waits on the ``sdoall_activity_lock`` in global memory;
  when the main task posts a spread loop, the helper sees the post
  (after its polling latency), joins, works, detaches and goes back to
  spinning.
* **SDOALL/CDOALL**: outer iterations are self-scheduled *one at a
  time* to each cluster task through a global-memory lock (one
  requester per cluster), and each outer iteration's inner CDOALL is
  spread over the cluster's 8 CEs via the concurrency control bus,
  creating no network traffic.
* **XDOALL**: one lead CE per cluster enters, activating all CEs; every
  CE independently issues test&set requests to the global-memory lock
  protecting the loop iteration index -- the source of the xdoall
  distribution overhead and of global-memory/network contention.
* After every spread loop the main task **spin-waits at a barrier**
  until all helpers that entered the loop have detached.

All protocol steps post the instrumentation events of Section 4 to the
``cedarhpm`` monitor, so the analysis in :mod:`repro.core` can run the
paper's methodology on the traces; pickups and iterations are summed
into the monitor's summary, and posted only if it keeps them.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence

from repro.hardware.machine import CedarMachine
from repro.hpm.activity import ActivityBoard
from repro.hpm.events import EventType
from repro.hpm.monitor import CedarHpm
from repro.runtime.loops import LoopConstruct, ParallelLoop, Phase, SerialPhase
from repro.runtime.params import RuntimeParams
from repro.runtime.stats import RuntimeStats
from repro.sim.core import Event, Simulator
from repro.sim.errors import DeadlockSuspected
from repro.sim.resources import ArbitratedResource, Resource
from repro.xylem.kernel import XylemKernel
from repro.xylem.task import ClusterTask, XylemProcess, create_process

__all__ = ["CedarFortranRuntime", "RuntimeStats"]


class _CombiningNode:
    """One node of a software combining tree (Yew, Tzeng & Lawrie)."""

    __slots__ = ("lock", "arrivals", "size")

    def __init__(self, sim: Simulator, size: int) -> None:
        self.lock = ArbitratedResource(sim, capacity=1)
        self.arrivals = 0
        self.size = size


class _LoopState:
    """Shared state of one posted loop (lives in global memory)."""

    __slots__ = (
        "loop",
        "seq",
        "next_outer",
        "next_iter",
        "expected_detaches",
        "detaches",
        "all_detached",
        "barrier_lock",
        "_tree_nodes",
        "_sim",
    )

    def __init__(self, sim: Simulator, loop: ParallelLoop, seq: int, n_helpers: int) -> None:
        self.loop = loop
        self.seq = seq
        self.next_outer = 0
        self.next_iter = 0
        self.expected_detaches = n_helpers
        self.detaches = 0
        self.all_detached: Event = sim.event()
        #: Central barrier counter lock: detaching tasks RMW a single
        #: global-memory location, so detaches serialise here -- the
        #: hot-spot seed the paper's clustering discussion worries
        #: about for a flat 32-task machine.  Arbitrated so same-instant
        #: detaches resolve by task id, not event-queue insertion order.
        self.barrier_lock = ArbitratedResource(sim, capacity=1)
        self._tree_nodes: dict[tuple[int, int], _CombiningNode] = {}
        self._sim = sim
        if n_helpers == 0:
            # Single trigger: with no helpers, detach() can never reach
            # the expected count, so this is the only trigger site.
            self.all_detached.succeed()  # cdr: noqa[CDR004]

    def tree_node(self, level: int, group: int, fanout: int) -> "_CombiningNode":
        """Lazily materialise a software-combining-tree node.

        Level 0 combines the detaching tasks themselves; each higher
        level combines the representatives of the level below.
        """
        key = (level, group)
        node = self._tree_nodes.get(key)
        if node is None:
            items = self.expected_detaches
            for _ in range(level):
                items = (items + fanout - 1) // fanout
            size = min(fanout, items - group * fanout)
            node = _CombiningNode(self._sim, max(1, size))
            self._tree_nodes[key] = node
        return node

    def take_outer(self) -> int | None:
        """Claim the next SDOALL outer iteration (caller holds the lock)."""
        if self.next_outer >= self.loop.n_outer:
            return None
        index = self.next_outer
        self.next_outer += 1
        return index

    def take_iteration(self) -> int | None:
        """Claim the next XDOALL iteration (caller holds the lock)."""
        if self.next_iter >= self.loop.n_inner:
            return None
        index = self.next_iter
        self.next_iter += 1
        return index

    def detach(self) -> None:
        """One helper task detached at the finish barrier."""
        self.detaches += 1
        if self.detaches == self.expected_detaches:
            # Single trigger: the == guard fires exactly once and only
            # when expected_detaches > 0 (else the constructor triggered).
            self.all_detached.succeed()  # cdr: noqa[CDR004]


class CedarFortranRuntime:
    """Executes a phase sequence on a simulated Cedar machine."""

    def __init__(
        self,
        sim: Simulator,
        machine: CedarMachine,
        kernel: XylemKernel,
        hpm: CedarHpm | None = None,
        board: ActivityBoard | None = None,
        params: RuntimeParams | None = None,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.kernel = kernel
        self.hpm = hpm
        self.board = board
        self.params = params or RuntimeParams()
        config = machine.config
        self.config = config
        #: Lock protecting the XDOALL loop iteration index (global
        #: memory).  Arbitrated: when several CEs' test&set requests
        #: land in the same nanosecond, the grant resolves by CE id
        #: rather than event-queue insertion order, so iteration
        #: assignment is independent of the kernel's tie-breaker (the
        #: hazard class ``repro.analyze.race`` checks for).
        self._iter_lock = ArbitratedResource(sim, capacity=1)
        #: Lock protecting the SDOALL outer iteration index (same
        #: tie-stable arbitration, keyed by cluster task id).
        self._outer_lock = ArbitratedResource(sim, capacity=1)
        self._post_event: Event = sim.event()
        self._loop_seq = 0
        self.process: XylemProcess | None = None
        self.stats = RuntimeStats()
        #: Per-iteration events are summed at the monitor's resolution.
        self._iteration_events = hpm is not None and hpm.iteration_events
        self._resolution = hpm.resolution_ns if hpm is not None else 1

    # -- small helpers ------------------------------------------------------

    def _lead_ce(self, task: ClusterTask) -> int:
        return task.cluster_id * self.config.ces_per_cluster

    def _record(
        self, event_type: EventType, ce_id: int, task: ClusterTask, payload: object = None
    ) -> None:
        if self.hpm is not None:
            self.hpm.record(event_type, ce_id, task_id=task.cluster_id, payload=payload)

    def _summarise(self, task: ClusterTask, kind: str, construct: str, n: int, ticks: int) -> None:
        """Flush a frame's *n* intervals of *ticks* resolution units."""
        if self.hpm is not None and n:
            entry = self.hpm.summary.setdefault((task.cluster_id, kind, construct), [0, 0])
            entry[0] += n
            entry[1] += ticks * self._resolution

    def _set_active(self, ce_id: int) -> None:
        if self.board is not None:
            self.board.set_active(ce_id)

    def _set_idle(self, ce_id: int, task: ClusterTask) -> None:
        # The lead CE of a gang-scheduled task never halts: it is the
        # one spinning for work or at barriers, which statfx counts as
        # the per-cluster baseline concurrency of 1 (Section 7).
        if self.board is not None and ce_id != self._lead_ce(task):
            self.board.set_idle(ce_id)

    def _round_trips_ns(self, n: float) -> int:
        """Cost of *n* scalar global-memory round trips at current load."""
        return int(round(n * self.machine.global_round_trip_ns()))

    def _await_pickup(self, request, lock: Resource, state: _LoopState, kind: str) -> Generator:
        """Wait for a self-scheduling lock, honouring the pickup deadline.

        On expiry the still-queued request is withdrawn (``release`` on
        an unacquired request removes it from the wait queue) before
        :class:`DeadlockSuspected` is raised, so the lock's queue is not
        corrupted for the remaining contenders.
        """
        deadline = self.params.pickup_deadline_ns
        if deadline is None:
            yield request
            return
        yield request | self.sim.timeout(deadline)
        if not request.triggered:
            lock.release(request)
            raise DeadlockSuspected(
                where=f"{kind} pickup seq={state.seq} ({state.loop.label})",
                waited_ns=deadline,
                sim_time_ns=self.sim.now,
                detail=f"{lock.queue_length} requests still queued",
            )

    def _cycles_ns(self, cycles: int) -> int:
        return self.config.cycles_to_ns(cycles)

    def _pickup_hold_ns(self) -> int:
        """Self-scheduling pickup hold, priced at the grant tick."""
        return self._round_trips_ns(self.params.pickup_round_trips) + self._cycles_ns(
            self.params.pickup_overhead_cycles
        )

    def _xdoall_hold_ns(self, waiting: int) -> int:
        """XDOALL pickup hold, inflated by the spinning CEs' test&set
        retries hammering the lock's memory module (hot spot)."""
        hold_ns = self._pickup_hold_ns()
        return int(hold_ns * (1.0 + self.params.pickup_retry_factor * waiting))

    # -- program execution -----------------------------------------------------

    def run_program(self, phases: Sequence[Phase]):
        """Start the program; returns a process whose value is CT (ns)."""
        return self.sim.process(self._main(list(phases)), name="main-task")

    def _main(self, phases: list[Phase]) -> Generator:
        sim = self.sim
        self.kernel.start_daemons()
        process = yield from create_process(self.config, self.kernel)
        self.process = process
        main = process.main_task
        self._record(EventType.PROGRAM_START, self._lead_ce(main), main)
        for task in process.tasks:
            self._set_active(self._lead_ce(task))
        helper_posts = self._post_event
        for task in process.helper_tasks:
            sim.process(self._helper_loop(task, helper_posts), name=f"helper-{task.task_id}")
        for phase in phases:
            if isinstance(phase, SerialPhase):
                yield from self._serial(main, phase)
            elif phase.is_main_cluster_only:
                yield from self._main_cluster_loop(main, phase)
            else:
                yield from self._spread_loop(main, phase)
        # Program end: release the helpers from their spin loops.
        self._broadcast(None)
        self._record(EventType.PROGRAM_END, self._lead_ce(main), main)
        if self.board is not None:
            for task in process.tasks:
                self.board.set_idle(self._lead_ce(task))
        return sim.now

    def _broadcast(self, state: _LoopState | None) -> Event:
        """Post *state* to the helpers; returns the next post event."""
        event, self._post_event = self._post_event, self.sim.event()
        # Single trigger: the pending post event is swapped out before
        # being triggered, so each broadcast event fires exactly once.
        event.succeed((state, self._post_event))  # cdr: noqa[CDR004]
        return self._post_event

    # -- serial sections ---------------------------------------------------------

    def _serial(self, main: ClusterTask, phase: SerialPhase) -> Generator:
        lead = self._lead_ce(main)
        self._record(EventType.SERIAL_START, lead, main, payload=phase.label)
        self.stats.serial_sections += 1
        for _ in range(phase.syscalls):
            yield from self.kernel.cluster_syscall(main.cluster_id)
        if phase.n_pages > 0 and phase.page_base >= 0:
            pages = range(phase.page_base, phase.page_base + phase.n_pages)
            yield from self.kernel.vm.touch_many(main.cluster_id, pages)
        if phase.mem_words > 0:
            yield from self.machine.memory_burst(
                phase.mem_words, phase.mem_rate, main.cluster_id
            )
        if phase.work_ns > 0:
            yield from self.kernel.execute(main.cluster_id, phase.work_ns)
        self._record(EventType.SERIAL_END, lead, main, payload=phase.label)

    # -- main cluster-only loops ----------------------------------------------------

    def _main_cluster_loop(self, main: ClusterTask, loop: ParallelLoop) -> Generator:
        lead = self._lead_ce(main)
        payload = (None, loop.construct.value, loop.label)
        self._record(EventType.MC_LOOP_START, lead, main, payload=payload)
        self.stats.mc_loops += 1
        yield from self._run_cdoall(main, loop, outer=0, seq=None)
        self._record(EventType.MC_LOOP_END, lead, main, payload=payload)

    # -- spread loops (SDOALL / XDOALL) -------------------------------------------------

    def _spread_loop(self, main: ClusterTask, loop: ParallelLoop) -> Generator:
        sim = self.sim
        lead = self._lead_ce(main)
        seq = self._loop_seq
        self._loop_seq += 1
        payload = (seq, loop.construct.value, loop.label)

        # Set up loop parameters in global memory.
        self._record(EventType.SETUP_ENTER, lead, main, payload=payload)
        setup_ns = self._round_trips_ns(self.params.setup_round_trips) + self._cycles_ns(
            self.params.setup_overhead_cycles
        )
        yield setup_ns
        self._record(EventType.SETUP_EXIT, lead, main, payload=payload)

        # Post the loop: helpers will see it after their poll latency.
        assert self.process is not None
        state = _LoopState(sim, loop, seq, n_helpers=len(self.process.helper_tasks))
        yield self._round_trips_ns(1.0)
        self._record(EventType.LOOP_POST, lead, main, payload=payload)
        self.stats.loops_posted += 1
        self._broadcast(state)

        # The main task participates like any cluster task.
        if loop.construct is LoopConstruct.XDOALL:
            yield from self._participate_xdoall(main, state)
        else:
            yield from self._participate_sdoall(main, state)

        # Finish barrier: spin until every helper that entered detached.
        self._record(EventType.BARRIER_ENTER, lead, main, payload=payload)
        deadline = self.params.barrier_deadline_ns
        if deadline is None:
            yield state.all_detached
        else:
            yield state.all_detached | sim.timeout(deadline)
            if not state.all_detached.triggered:
                raise DeadlockSuspected(
                    where=f"spread-loop barrier seq={seq} ({loop.label})",
                    waited_ns=deadline,
                    sim_time_ns=sim.now,
                    detail=(
                        f"{state.detaches}/{state.expected_detaches} helpers detached"
                    ),
                )
        detect_ns = self._cycles_ns(self.params.barrier_check_cycles // 2)
        detect_ns += self._round_trips_ns(1.0)
        yield detect_ns
        self._record(EventType.BARRIER_EXIT, lead, main, payload=payload)
        self.stats.barriers += 1

    def _helper_loop(self, task: ClusterTask, first_post: Event) -> Generator:
        lead = self._lead_ce(task)
        post = first_post
        while True:
            self._record(EventType.WAIT_WORK_ENTER, lead, task)
            state, next_post = yield post
            post = next_post
            self._record(EventType.WAIT_WORK_EXIT, lead, task)
            if state is None:
                return
            # Polling latency before the post is noticed, plus the cost
            # of joining the loop.
            poll_ns = self._cycles_ns(self.params.spin_check_cycles // 2)
            join_ns = self._round_trips_ns(self.params.join_round_trips)
            yield poll_ns + join_ns
            payload = (state.seq, state.loop.construct.value, state.loop.label)
            self._record(EventType.HELPER_JOIN, lead, task, payload=payload)
            self.stats.helper_joins += 1
            if state.loop.construct is LoopConstruct.XDOALL:
                yield from self._participate_xdoall(task, state)
            else:
                yield from self._participate_sdoall(task, state)
            # Detach at the finish barrier.
            yield from self._detach_barrier(state, task)
            self._record(EventType.LOOP_DETACH, lead, task, payload=payload)
            self.stats.detaches += 1
            state.detach()

    def _detach_barrier(self, state: _LoopState, task: ClusterTask) -> Generator:
        """Process: perform one task's barrier-detach bookkeeping.

        With the flat organisation (``barrier_fanout is None``) every
        detaching task RMWs the central counter in global memory, so
        detaches serialise at its lock; with a software combining tree
        (Yew, Tzeng & Lawrie) tasks combine within fanout-sized groups
        and only the last arriver of a group ascends, trading a few
        extra round trips of depth for the removal of the hot spot.
        """
        fanout = self.params.barrier_fanout
        rmw_ns = self._round_trips_ns(self.params.detach_round_trips)
        if fanout is None:
            request = state.barrier_lock.request(key=task.task_id)
            yield request
            yield rmw_ns
            state.barrier_lock.release(request)
            return
        n_tasks = state.expected_detaches
        level = 0
        index = task.task_id - 1 if task.task_id > 0 else 0
        items = n_tasks
        while True:
            group = index // fanout
            node = state.tree_node(level, group, fanout)
            request = node.lock.request(key=task.task_id)
            yield request
            yield rmw_ns
            node.arrivals += 1
            last_of_group = node.arrivals == node.size
            node.lock.release(request)
            items = (items + fanout - 1) // fanout
            if not last_of_group or items <= 1:
                return
            index = group
            level += 1

    # -- SDOALL/CDOALL execution -----------------------------------------------------

    def _participate_sdoall(self, task: ClusterTask, state: _LoopState) -> Generator:
        """Cluster task self-schedules outer iterations, one at a time."""
        sim = self.sim
        lead = self._lead_ce(task)
        construct = state.loop.construct.value
        keep = self._iteration_events
        payload = (state.seq, construct, state.loop.label) if keep else None
        picks = ticks = 0
        while True:
            if keep:
                self._record(EventType.PICKUP_ENTER, lead, task, payload=payload)
            start = sim.now // self._resolution
            request = self._outer_lock.request(key=task.task_id)
            yield from self._await_pickup(request, self._outer_lock, state, "sdoall")
            yield self._pickup_hold_ns()
            outer = state.take_outer()
            self._outer_lock.release(request)
            self.stats.sdoall_pickups += 1
            picks += 1
            ticks += sim.now // self._resolution - start
            if keep:
                self._record(EventType.PICKUP_EXIT, lead, task, payload=payload)
            if outer is None:
                break
            yield from self._run_cdoall(task, state.loop, outer=outer, seq=state.seq)
        self._summarise(task, "pickup", construct, picks, ticks)

    def _run_cdoall(
        self, task: ClusterTask, loop: ParallelLoop, outer: int, seq: int | None
    ) -> Generator:
        """Spread ``loop.n_inner`` iterations over the cluster's CEs."""
        sim = self.sim
        cluster = self.machine.clusters[task.cluster_id]
        yield cluster.ccbus.dispatch_ns()
        # Only configured CEs receive iterations: Xylem may have
        # deconfigured some (fault injection), and the concurrency
        # control bus simply dispatches over the survivors.
        ces = [ce for ce in cluster.ces if self.kernel.ce_available(ce.ce_id)]
        n_ces = len(ces)
        if (
            loop.construct is LoopConstruct.CDOACROSS
            and loop.dependence_distance > 0
        ):
            # Iteration i waits for i - distance: at most `distance`
            # iterations are in flight, so only that many CEs can work.
            n_ces = min(n_ces, loop.dependence_distance)
        chunk = (loop.n_inner + n_ces - 1) // n_ces
        workers = []
        for local in range(n_ces):
            lo = local * chunk
            hi = min(lo + chunk, loop.n_inner)
            if lo >= hi:
                break
            ce_id = ces[local].ce_id
            workers.append(
                sim.process(
                    self._cdoall_chunk(task, loop, outer, seq, ce_id, lo, hi),
                    name=f"cdoall-ce{ce_id}",
                )
            )
        yield sim.all_of(workers)
        # CDOACROSS: the serialised residue runs on the lead CE.
        if loop.serial_fraction > 0.0:
            residue = int(loop.n_inner * loop.work_ns_per_iter * loop.serial_fraction)
            yield from self.kernel.execute(task.cluster_id, residue)
        yield cluster.ccbus.synchronise_ns()

    def _cdoall_chunk(
        self,
        task: ClusterTask,
        loop: ParallelLoop,
        outer: int,
        seq: int | None,
        ce_id: int,
        lo: int,
        hi: int,
    ) -> Generator:
        """One CE's contiguous chunk of an inner CDOALL."""
        sim = self.sim
        n_iters = hi - lo
        keep = self._iteration_events
        payload = (seq, loop.construct.value, loop.label, n_iters) if keep else None
        self._set_active(ce_id)
        if keep:
            self._record(EventType.ITER_START, ce_id, task, payload=payload)
        start = sim.now // self._resolution
        pages = self._pages_for_chunk(loop, outer, lo, hi)
        if pages:
            yield from self.kernel.vm.touch_many(task.cluster_id, pages)
        words = n_iters * loop.mem_words_per_iter
        parallel_fraction = 1.0 - loop.serial_fraction
        multiplier = loop.work_multiplier(outer, salt=seq or 0)
        work_ns = int(n_iters * loop.work_ns_per_iter * parallel_fraction * multiplier)
        # Vector loop bodies alternate gather / compute / scatter, so
        # the chunk's global traffic interleaves with its computation.
        slices = max(1, self.params.chunk_slices)
        stall_ns = self.machine.cache_stall_ns(
            task.cluster_id,
            bytes_accessed=loop.cluster_ws_bytes * n_iters // loop.n_inner,
            ws_bytes=loop.cluster_ws_bytes,
        )
        if stall_ns > 0:
            yield stall_ns
        for index in range(slices):
            slice_words = words // slices + (1 if index < words % slices else 0)
            if slice_words > 0:
                yield from self.machine.memory_burst(slice_words, loop.mem_rate, task.cluster_id)
            slice_work = work_ns // slices + (1 if index < work_ns % slices else 0)
            if slice_work > 0:
                yield from self.kernel.execute(task.cluster_id, slice_work)
        ticks = sim.now // self._resolution - start
        self._summarise(task, "iteration", loop.construct.value, 1, ticks)
        if keep:
            self._record(EventType.ITER_END, ce_id, task, payload=payload)
        self._set_idle(ce_id, task)

    @staticmethod
    def _pages_for_chunk(loop: ParallelLoop, outer: int, lo: int, hi: int) -> list[int]:
        if loop.page_base < 0:
            return []
        pages = []
        for inner in range(lo, hi):
            page = loop.page_for_iteration(outer, inner)
            if page is not None and (not pages or pages[-1] != page):
                pages.append(page)
        return pages

    # -- XDOALL execution -------------------------------------------------------------

    def _participate_xdoall(self, task: ClusterTask, state: _LoopState) -> Generator:
        """All CEs of the cluster compete for iterations individually."""
        sim = self.sim
        cluster = self.machine.clusters[task.cluster_id]
        yield cluster.ccbus.dispatch_ns()
        workers = [
            sim.process(
                self._xdoall_ce(task, state, ce.ce_id),
                name=f"xdoall-ce{ce.ce_id}",
            )
            for ce in cluster.ces
            if self.kernel.ce_available(ce.ce_id)
        ]
        yield sim.all_of(workers)
        # The cluster's CEs synchronise over the concurrency control
        # bus; one of them continues into the runtime library.
        yield cluster.ccbus.synchronise_ns()

    def _xdoall_ce(self, task: ClusterTask, state: _LoopState, ce_id: int) -> Generator:
        sim = self.sim
        loop = state.loop
        construct = loop.construct.value
        keep = self._iteration_events
        payload = (state.seq, construct, loop.label, 1) if keep else None
        res = self._resolution
        picks = pick_ticks = iters = iter_ticks = 0
        while True:
            if not self.kernel.ce_available(ce_id):
                # The CE was deconfigured mid-loop: it stops picking up
                # iterations; the survivors self-schedule the rest.
                break
            # Pick the next iteration: test&set on the global-memory
            # lock protecting the loop index.  Every CE does this
            # individually, so the requests contend in the network and
            # serialise at the lock (Section 6).  Time spent here is
            # distribution overhead, not useful work: the CE does not
            # count as "active" for statfx, which is why the measured
            # parallel-loop concurrency of XDOALL codes drops below 8
            # per cluster (Table 3).
            if keep:
                self._record(EventType.PICKUP_ENTER, ce_id, task, payload=payload)
            start = sim.now // res
            request = self._iter_lock.request(key=ce_id)
            yield from self._await_pickup(request, self._iter_lock, state, "xdoall")
            yield self._xdoall_hold_ns(self._iter_lock.queue_length)
            index = state.take_iteration()
            self._iter_lock.release(request)
            self.stats.xdoall_pickups += 1
            picks += 1
            pick_ticks += sim.now // res - start
            if keep:
                self._record(EventType.PICKUP_EXIT, ce_id, task, payload=payload)
            if index is None:
                break
            page = loop.page_for_iteration(0, index)
            if page is not None:
                yield from self.kernel.vm.touch(task.cluster_id, page)
            stall_ns = self.machine.cache_stall_ns(
                task.cluster_id,
                bytes_accessed=loop.cluster_ws_bytes // loop.n_inner,
                ws_bytes=loop.cluster_ws_bytes,
            )
            if stall_ns > 0:
                yield stall_ns
            self._set_active(ce_id)
            if keep:
                self._record(EventType.ITER_START, ce_id, task, payload=payload)
            start = sim.now // res
            if loop.mem_words_per_iter > 0:
                yield from self.machine.memory_burst(
                    loop.mem_words_per_iter, loop.mem_rate, task.cluster_id
                )
            if loop.work_ns_per_iter > 0:
                work_ns = int(
                    loop.work_ns_per_iter * loop.work_multiplier(index, salt=state.seq)
                )
                yield from self.kernel.execute(task.cluster_id, work_ns)
            iters += 1
            iter_ticks += sim.now // res - start
            if keep:
                self._record(EventType.ITER_END, ce_id, task, payload=payload)
            self._set_idle(ce_id, task)
        self._summarise(task, "pickup", construct, picks, pick_ticks)
        self._summarise(task, "iteration", construct, iters, iter_ticks)
