"""The loop frames' pickup/iteration summary is the paired trace, as ints.

By default the runtime sums each pickup's and iteration's quantised
duration in its loop frame, flushes the totals into
``CedarHpm.summary`` and records none of the four per-iteration event
types.  Built with ``iteration_events=True`` it records them too; then
pairing them with :func:`~repro.core.trace_analysis.pair_events`, the
one pairing routine, must give the summary back exactly, and the
default run must be the same run with those four types left out.
"""

from __future__ import annotations

import pytest

from repro.apps import PAPER_APPS
from repro.core.reference import APPS
from repro.core.runner import run_application
from repro.core.trace_analysis import pair_events
from repro.faults import CampaignSpec, FaultEvent, FaultInjector
from repro.hpm.events import EventType
from repro.xylem.params import XylemParams

SCALE = 0.002
SEED = 1994
PROCESSORS = (1, 8, 32)

#: The deconfigured CE of the faulted cell (cluster 0, not its lead CE).
DEAD_CE = 5

ITERATION_TYPES = {
    EventType.PICKUP_ENTER,
    EventType.PICKUP_EXIT,
    EventType.ITER_START,
    EventType.ITER_END,
}
_KIND = {EventType.PICKUP_ENTER: "pickup", EventType.ITER_START: "iteration"}


def _run(app: str, n_proc: int, keep: bool, faults=()):
    hook = None
    if faults:
        spec = CampaignSpec(name="mid-xdoall", seed=SEED, faults=tuple(faults))

        def hook(*stack):
            FaultInjector(*stack, spec).arm()

    return run_application(
        PAPER_APPS[app](),
        n_proc,
        scale=SCALE,
        os_params=XylemParams(seed=SEED),
        pre_run_hook=hook,
        iteration_events=keep,
    )


def paired_summary(result) -> dict:
    """The summary the retained per-iteration events pair to."""
    summary: dict = {}
    for (etype, start, _, task, payload), close_ns in pair_events(
        result.events.rows(), result.ct_ns
    ):
        kind = _KIND.get(etype)
        if kind is not None:
            entry = summary.setdefault((task, kind, payload[1]), [0, 0])
            entry[0] += 1
            entry[1] += close_ns - start
    return summary


def _mid_iteration_ns(result, ce_id: int) -> int:
    """A time inside one of *ce_id*'s XDOALL iterations, halfway through the run."""
    spans = [
        (opener[1], close_ns)
        for opener, close_ns in pair_events(result.events.rows(), result.ct_ns)
        if opener[0] == EventType.ITER_START
        and opener[2] == ce_id
        and opener[4][1] == "xdoall"
        and close_ns - opener[1] > 100
    ]
    start, end = spans[len(spans) // 2]
    return (start + end) // 2


@pytest.fixture(scope="module")
def cells(paper_cells):
    """``(retained, default)`` runs: 5 apps x P 1/8/32, plus ADM P 8 faulted.

    The retained runs are the session's shared ``paper_cells``.
    """
    out = {
        (app, n): (paper_cells[app][n], _run(app, n, False))
        for app in APPS
        for n in PROCESSORS
    }
    strike = _mid_iteration_ns(out["ADM", 8][0], DEAD_CE)
    fault = FaultEvent(kind="ce_deconfig", at_ns=strike, target=DEAD_CE)
    out["ADM-faulted", 8] = (
        _run("ADM", 8, True, [fault]),
        _run("ADM", 8, False, [fault]),
    )
    return out


def test_pairing_the_retained_events_gives_the_summary(cells):
    for cell, (retained, default) in cells.items():
        assert retained.hpm_summary, cell
        assert paired_summary(retained) == retained.hpm_summary, cell
        assert default.hpm_summary == retained.hpm_summary, cell
        for count, total_ns in retained.hpm_summary.values():
            assert type(count) is int and type(total_ns) is int, cell
            assert count > 0 and total_ns >= 0, cell


def test_a_default_run_records_none_of_the_four_types(cells):
    for cell, (retained, default) in cells.items():
        types = {EventType(t) for t in default.events.types}
        assert not types & ITERATION_TYPES, cell
        kept = [row for row in retained.events.rows() if row[0] not in ITERATION_TYPES]
        assert list(default.events.rows()) == kept, cell
        assert default.ct_ns == retained.ct_ns, cell


def test_the_faulted_cell_stops_picking_up_mid_xdoall(cells):
    retained, _ = cells["ADM-faulted", 8]
    healthy, _ = cells["ADM", 8]
    strike = _mid_iteration_ns(healthy, DEAD_CE)
    mine = [row for row in retained.events.rows() if row[2] == DEAD_CE]
    after = [row[0] for row in mine if row[1] > strike]
    # The CE finishes the iteration it was in, then leaves at the check
    # before its next pickup and never picks up again.
    assert EventType.ITER_END in after
    assert EventType.PICKUP_ENTER not in after
    assert retained.ct_ns > healthy.ct_ns
