"""Kernel-level equivalence of the two event loops.

:meth:`Simulator.run` serves a run on ``_run_fast`` when no trace sink
and no watchdog is set, and on ``_run_checked`` otherwise.  The fast
loop inlines the single-process resume and, when the heap is empty
after a direct-delay re-arm, resumes the same process again without a
push and a pop; the checked loop dispatches every callback generically.
Each workload here runs three ways -- sink-free, checked with only a
``max_events`` watchdog, checked with a minimal sink -- and every route
must log the same ``(now, process, value)`` at each resume and end at
the same clock with the same return value.

Runs are unperturbed: the loops draw eids differently while the fast
loop resumes in place, which only matters once tie-breaks are
scrambled.
"""

from __future__ import annotations

import pytest

from repro.obs.tracing import TraceSink
from repro.sim import Interrupt, Simulator


class _ProcessedSink(TraceSink):
    """Overrides one hook, so the kernel takes the checked loop."""

    def __init__(self) -> None:
        self.processed = 0

    def on_event_processed(self, event, when) -> None:
        self.processed += 1


def _chain(sim, log, name, delays, result="done"):
    for delay in delays:
        got = yield delay
        log.append((sim.now, name, got))
    return result


def _lone_chain(sim, log):
    sim.process(_chain(sim, log, "chain", [3] * 40), name="chain")
    return None


def _chain_spawns_process(sim, log):
    def main(sim):
        for i in range(30):
            got = yield 2
            log.append((sim.now, "main", got))
            if i == 9:
                sim.process(_chain(sim, log, "child", [5, 1, 0, 7]), name="child")
        return "main-done"

    return sim.process(main(sim), name="main")


def _chain_spawns_timeout(sim, log):
    def main(sim):
        for i in range(30):
            got = yield 4
            log.append((sim.now, "main", got))
            if i == 12:
                # A no-waiter timeout lands in the heap mid-chain.
                sim.timeout(9)
            if i == 20:
                got = yield sim.timeout(1, value="late")
                log.append((sim.now, "main", got))
        return 30

    return sim.process(main(sim), name="main")


def _chain_ends(sim, log):
    def returns(sim):
        for _ in range(15):
            got = yield 1
            log.append((sim.now, "returns", got))
        return "ret"

    def crashes(sim):
        for _ in range(15):
            got = yield 2
            log.append((sim.now, "crashes", got))
        raise ValueError("mid-chain")

    def main(sim):
        got = yield sim.process(returns(sim), name="returns")
        log.append((sim.now, "main", got))
        try:
            yield sim.process(crashes(sim), name="crashes")
        except ValueError as exc:
            log.append((sim.now, "main", str(exc)))
        return "survived"

    return sim.process(main(sim), name="main")


def _valued_event(sim, log):
    gate = sim.event()

    def waiter(sim):
        got = yield gate
        log.append((sim.now, "waiter", got))
        got = yield 6
        log.append((sim.now, "waiter", got))
        got = yield sim.timeout(2, value="payload")
        log.append((sim.now, "waiter", got))
        return got

    def opener(sim):
        got = yield 11
        log.append((sim.now, "opener", got))
        gate.succeed({"open": True})

    proc = sim.process(waiter(sim), name="waiter")
    sim.process(opener(sim), name="opener")
    return proc


def _any_of_loser(sim, log):
    def racer(sim):
        for _ in range(10):
            fired = yield sim.timeout(1, value="fast") | sim.timeout(5, value="slow")
            log.append((sim.now, "racer", sorted(fired.values())))
            got = yield 2
            log.append((sim.now, "racer", got))
        return "raced"

    return sim.process(racer(sim), name="racer")


def _ties(sim, log):
    for name in ("a", "b", "c", "d"):
        sim.process(_chain(sim, log, name, [2, 2, 0, 3, 3]), name=name)
    return None


def _interrupt(sim, log):
    def sleeper(sim):
        try:
            yield 1000
        except Interrupt as interrupt:
            log.append((sim.now, "sleeper", f"interrupt:{interrupt.cause}"))
        for _ in range(5):
            got = yield 5
            log.append((sim.now, "sleeper", got))
        return "woke"

    def interrupter(sim, victim):
        got = yield 10
        log.append((sim.now, "interrupter", got))
        victim.interrupt(cause="wakeup")

    victim = sim.process(sleeper(sim), name="sleeper")
    sim.process(interrupter(sim, victim), name="interrupter")
    return victim


def _until_time(sim, log):
    sim.process(_chain(sim, log, "chain", [7] * 50), name="chain")
    return 100


def _until_event(sim, log):
    done = sim.event()

    def main(sim):
        for _ in range(20):
            got = yield 3
            log.append((sim.now, "main", got))
        done.succeed("finished")
        # Still running when the until-event fires.
        yield 1_000

    sim.process(main(sim), name="main")
    return done


WORKLOADS = {
    "lone-chain": _lone_chain,
    "chain-spawns-process": _chain_spawns_process,
    "chain-spawns-timeout": _chain_spawns_timeout,
    "chain-ends": _chain_ends,
    "valued-event": _valued_event,
    "any-of-loser": _any_of_loser,
    "ties": _ties,
    "interrupt": _interrupt,
    "until-time": _until_time,
    "until-event": _until_event,
}


def _run(workload, route):
    sink = _ProcessedSink() if route == "sink" else None
    sim = Simulator(trace_sink=sink)
    log: list = []
    until = WORKLOADS[workload](sim, log)
    max_events = 1_000_000 if route == "watchdog" else None
    result = sim.run(until=until, max_events=max_events)
    if sink is not None:
        assert sink.processed > 0
    return sim, (log, sim.now, result)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_loops_agree(workload):
    _, fast = _run(workload, "fast")
    assert fast[0], "the workload logged no resume"
    for route in ("watchdog", "sink"):
        _, checked = _run(workload, route)
        assert checked == fast, route


def test_fast_loop_resumes_in_place_on_an_empty_heap():
    """The lone chain re-arms one carrier and skips the heap.

    The only allocation is the carrier that replaces the Initialize
    event, and the only eids drawn are the Initialize's and the process
    end's: no re-armed carrier went through the heap.
    """
    sim, (log, now, _) = _run("lone-chain", "fast")
    assert now == 120 and len(log) == 40
    assert sim.ticks_rearmed == 39
    assert sim.timeouts_created == 1
    assert sim._eid_next() == 2
