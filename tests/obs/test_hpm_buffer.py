"""The cedarhpm monitor's trace buffer as the metrics registry sees it.

The monitor keeps every event (there is no capacity and nothing is
dropped), so ``hpm.*`` carries the event count and the per-type tally
only.
"""

from repro.hpm.events import EventType
from repro.hpm.monitor import CedarHpm
from repro.obs import MetricsRegistry, collect_hpm_metrics
from repro.sim import Simulator


def test_unbounded_buffer_reports_no_capacity_gauge():
    hpm = CedarHpm(Simulator())
    for i in range(3):
        hpm.record(EventType.BARRIER_ENTER, processor_id=i % 4)
    reg = collect_hpm_metrics(hpm, MetricsRegistry())
    assert reg.value("hpm.events_recorded") == 3
    assert reg.value("hpm.events.barrier_enter") == 3
    assert "hpm.buffer_capacity" not in reg
    assert "hpm.dropped_events" not in reg
