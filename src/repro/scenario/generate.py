"""Seeded scenario generation: the structured workload fuzzer.

:func:`generate_scenarios` draws structurally-valid random scenario
documents from a seeded :func:`numpy.random.default_rng` stream --
thousands of distinct phase programs spanning every loop construct,
paging mode, skew, topology override and background-traffic setting the
schema can express, while staying small enough that a full
compile -> run -> re-run determinism check costs tens of milliseconds
per scenario.

Each draw is built as a raw document dict and then passed through
:func:`~repro.scenario.schema.parse_scenario`, so the generator cannot
emit anything the validator would reject: a generator bug fails loudly
here, not somewhere downstream.  The CI ``scenario-fuzz`` job and the
Hypothesis property suite both feed on this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.scenario.schema import ScenarioDoc, parse_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["generate_scenario", "generate_scenarios"]

#: Construct mix: SDOALL dominates (as in the paper's codes), but every
#: construct appears often enough that a few hundred draws cover all.
_CONSTRUCTS = ("sdoall", "sdoall", "xdoall", "cluster_only", "cdoacross")

#: Processor counts drawn for scenario defaults.  Paper configurations
#: only -- fuzz runs exercise the same machines the tables do.
_PROCESSORS = (1, 4, 8, 16)

#: Safe topology-override menu: each entry keeps with_processors(P)
#: valid for every P in _PROCESSORS and the run time bounded.
_MACHINE_MENU: tuple[dict[str, int | float | bool], ...] = (
    {"n_memory_modules": 16},
    {"switch_queue_depth": 8},
    {"n_clusters": 2},
    {"vector_window": 8},
    {"cluster_channel_words_per_cycle": 1.1},
    {"n_clusters": 2, "n_memory_modules": 16, "switch_queue_depth": 2},
    {"model_cluster_cache": True},
)


def _draw_loop(rng: np.random.Generator, index: int) -> dict[str, Any]:
    construct = str(rng.choice(_CONSTRUCTS))
    loop: dict[str, Any] = {
        "construct": construct,
        "n_inner": int(rng.integers(1, 49)),
        "iter_time_ns": int(rng.integers(50_000, 1_000_001)),
        "mem_fraction": round(float(rng.uniform(0.0, 0.7)), 3),
        "mem_rate": round(float(rng.uniform(0.2, 1.0)), 3),
        "label": f"loop{index}-{construct}",
    }
    n_outer = 1
    if construct == "sdoall":
        n_outer = int(rng.integers(1, 9))
        loop["n_outer"] = n_outer
    if rng.random() < 0.5:
        # Page boundaries are kept aligned to outer-iteration waves
        # (iters_per_page a multiple of n_inner): each data page is then
        # cold-faulted by one *simultaneous* wave of CEs, which the VM
        # fault-join path resolves tie-break-robustly.  Misaligned pages
        # put stragglers' faults on the knife edge of an earlier fault's
        # completion instant, where join-vs-new classification is decided
        # by same-tick event order -- a genuine model limitation this
        # fuzzer surfaced (see docs/scenarios.md, "Paging alignment").
        loop["iters_per_page"] = loop["n_inner"] * int(rng.integers(1, n_outer + 1))
        loop["fresh_pages_each_step"] = bool(rng.random() < 0.4)
    if rng.random() < 0.4:
        loop["work_skew"] = round(float(rng.uniform(0.0, 0.9)), 3)
    if rng.random() < 0.2:
        loop["cluster_ws_bytes"] = int(rng.integers(1, 65)) * 4096
    return loop


def generate_scenario(rng: np.random.Generator, name: str) -> ScenarioDoc:
    """Draw one random-but-valid scenario document from *rng*."""
    data: dict[str, Any] = {
        "schema": "cedar-repro/scenario/v1",
        "name": name,
        "description": "seeded fuzz scenario",
        "defaults": {
            "n_processors": int(rng.choice(_PROCESSORS)),
            "scale": 1.0,
            "seed": int(rng.integers(0, 2**31)),
        },
        "n_steps": int(rng.integers(1, 4)),
        "loops": [
            _draw_loop(rng, index) for index in range(int(rng.integers(1, 4)))
        ],
    }
    if rng.random() < 0.6:
        serial: dict[str, Any] = {"per_step_ns": int(rng.integers(0, 2_000_001))}
        if rng.random() < 0.4:
            serial["pages"] = int(rng.integers(0, 5))
        if rng.random() < 0.4:
            serial["syscalls"] = int(rng.integers(0, 4))
        if rng.random() < 0.4:
            serial["mem_fraction"] = round(float(rng.uniform(0.0, 0.5)), 3)
        data["serial"] = serial
    if rng.random() < 0.5:
        data["init"] = {
            "serial_ns": int(rng.integers(0, 5_000_001)),
            "pages": int(rng.integers(0, 9)),
        }
    if rng.random() < 0.3:
        data["machine"] = dict(_MACHINE_MENU[int(rng.integers(len(_MACHINE_MENU)))])
    if rng.random() < 0.2:
        # Quanta well above the 1.5 ms context-switch cost, so the
        # competitor's switching overhead stays a modest fraction of
        # each period (_balance_os_budget stretches the run to cover
        # several periods).
        data["background"] = {
            "share": round(float(rng.uniform(0.1, 0.4)), 3),
            "quantum_ns": int(rng.integers(10_000_000, 25_000_001)),
            "coscheduled": bool(rng.random() < 0.5),
            "seed": int(rng.integers(0, 1000)),
        }
    _balance_os_budget(data)
    return parse_scenario(data)


#: Conservative worst-case OS charge estimates (ns), upper bounds on
#: the :class:`~repro.xylem.params.XylemParams` defaults: a cold page
#: faulted by a simultaneous wave (concurrent fault + joins + critical
#: sections), a sequentially-faulted serial/init page, and one parallel
#: loop dispatch (CPI gather across 8 CEs + sync + critical section).
_PAGE_WAVE_COST_NS = 4_000_000
_PAGE_SERIAL_COST_NS = 1_500_000
_LOOP_DISPATCH_COST_NS = 2_000_000
_SYSCALL_COST_NS = 500_000


def _balance_os_budget(data: dict[str, Any]) -> None:
    """Stretch loop iteration times until OS charges cannot dominate.

    The accounting model books every cluster's OS activity on a single
    per-cluster timeline (the paper's Q facility), so a workload whose
    *worst-case* OS charges approach its wall time is outside the
    model's measurable envelope -- ``breakdown()`` rejects it.  The
    fuzzer must stay inside the envelope: estimate the OS bill from the
    draw (faults, loop dispatches, syscalls, background context
    switches), lower-bound the wall time by perfectly-sped-up work, and
    scale every loop's ``iter_time_ns`` so the bill stays under ~35 %
    of the wall.  Scaling only iteration *times* preserves the draw's
    structure (constructs, trip counts, paging pattern, event counts).
    """
    steps = int(data["n_steps"])
    serial = data.get("serial", {})
    init = data.get("init", {})
    P = int(data["defaults"]["n_processors"])

    os_ns = float(init.get("pages", 0) * _PAGE_SERIAL_COST_NS)
    os_ns += steps * serial.get("pages", 0) * _PAGE_SERIAL_COST_NS
    os_ns += steps * serial.get("syscalls", 0) * _SYSCALL_COST_NS
    work_per_step = 0.0
    for loop in data["loops"]:
        iters = loop.get("n_outer", 1) * loop["n_inner"]
        os_ns += steps * _LOOP_DISPATCH_COST_NS
        if loop.get("iters_per_page", 0) > 0:
            pages = -(-iters // loop["iters_per_page"])
            waves = steps if loop.get("fresh_pages_each_step", False) else 1
            os_ns += waves * pages * _PAGE_WAVE_COST_NS
        work_per_step += iters * loop["iter_time_ns"] / P
    wall_lb = (
        init.get("serial_ns", 0)
        + steps * (serial.get("per_step_ns", 0) + work_per_step)
    )

    required = os_ns / 0.35
    background = data.get("background")
    if background is not None:
        # Long enough for several scheduling periods, and OS share of
        # each period (two switches) bounded by the quantum floor.
        period = background["quantum_ns"] / background["share"]
        required = max(required, 3.0 * period)
    if wall_lb >= required or work_per_step <= 0:
        return
    boost = -(-int(required - wall_lb + steps * work_per_step) // int(
        steps * work_per_step
    ))
    for loop in data["loops"]:
        loop["iter_time_ns"] = int(loop["iter_time_ns"]) * boost


def generate_scenarios(seed: int, n: int) -> list[ScenarioDoc]:
    """Generate *n* seeded scenarios (deterministic in ``(seed, n)``).

    The stream is drawn sequentially from one
    ``np.random.default_rng(seed)``, so ``generate_scenarios(s, n)`` is
    a prefix of ``generate_scenarios(s, m)`` for ``n <= m`` -- CI can
    raise its fuzz budget without re-testing different scenarios.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    import numpy as np  # lazily: the CLI's import graph stays numpy-free

    rng = np.random.default_rng(seed)
    return [
        generate_scenario(rng, f"fuzz-{seed:x}-{index:04d}") for index in range(n)
    ]
