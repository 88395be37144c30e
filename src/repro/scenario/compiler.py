"""Lowering validated scenario documents onto the ``AppModel`` API.

The compiler is deliberately a *transliteration*: every scenario field
maps one-to-one onto an :class:`~repro.apps.base.AppModel` /
:class:`~repro.apps.base.LoopShape` parameter, so a compiled scenario
flows through every downstream layer -- ``run_application``, sweeps,
golden tables, cache keys, telemetry, durable campaigns -- exactly as a
hand-coded model does.  The differential suite
(``tests/golden/test_scenario_differential.py``) holds that equivalence
byte-for-byte against the exported built-in apps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.apps.base import AppModel, LoopShape
from repro.hardware.config import CedarConfig
from repro.runtime.loops import LoopConstruct
from repro.scenario.schema import (
    ScenarioDoc,
    ScenarioError,
    canonical_scenario_json,
    parse_scenario,
    scenario_digest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import PreRunHook, RunResult

__all__ = ["CompiledScenario", "compile_scenario"]


class CompiledScenario:
    """A scenario lowered onto the existing application-model stack.

    Bundles the validated document with the :class:`AppModel` it
    compiles to, plus the pieces the document adds *around* the model:
    the (possibly overridden) machine configuration and the optional
    background-traffic hook.  :func:`~repro.parallel.executor.run_cell`
    wires all three into :func:`~repro.core.runner.run_application`.
    """

    def __init__(self, doc: ScenarioDoc, model: AppModel) -> None:
        self.doc = doc
        self.model = model

    @property
    def digest(self) -> str:
        """The canonical-document digest (cache-key ingredient)."""
        return scenario_digest(self.doc)

    def config(self, n_processors: int | None = None) -> CedarConfig:
        """The machine configuration for a run at *n_processors*.

        Applies the document's topology overrides, then sizes the
        machine with
        :meth:`~repro.hardware.config.CedarConfig.with_processors` --
        identical to what ``--app`` runs do on the stock topology.
        """
        P = self.doc.defaults.n_processors if n_processors is None else n_processors
        try:
            return CedarConfig(**self.doc.machine_overrides).with_processors(P)
        except ValueError as exc:
            raise ScenarioError("defaults.n_processors", str(exc)) from exc

    def pre_run_hook(self) -> "PreRunHook | None":
        """The background-traffic hook, or ``None`` without traffic."""
        background = self.doc.background
        if background is None:
            return None
        from repro.xylem.scheduler import BackgroundWorkload

        def hook(sim: Any, machine: Any, kernel: Any, runtime: Any) -> None:
            BackgroundWorkload(
                kernel,
                share=background.share,
                quantum_ns=background.quantum_ns,
                coscheduled=background.coscheduled,
                seed=background.seed,
            ).start()

        return hook

    def run(
        self,
        n_processors: int | None = None,
        scale: float | None = None,
        seed: int | None = None,
    ) -> "RunResult":
        """Run the compiled scenario (defaults from the document).

        Goes through :func:`~repro.parallel.executor.run_cell`, like
        every other run, and returns its result record.
        """
        from repro.parallel.executor import CellSpec, run_cell

        defaults = self.doc.defaults
        return run_cell(
            CellSpec(
                app=self.doc.name,
                n_processors=(
                    defaults.n_processors if n_processors is None else n_processors
                ),
                scale=defaults.scale if scale is None else scale,
                seed=defaults.seed if seed is None else seed,
                scenario=canonical_scenario_json(self.doc),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledScenario {self.doc.name!r}: {self.model!r}>"


def compile_scenario(doc: ScenarioDoc | Mapping[str, Any]) -> CompiledScenario:
    """Lower a scenario document to a runnable :class:`CompiledScenario`.

    Accepts either a parsed :class:`ScenarioDoc` or a raw mapping
    (which is validated first).  By the parse-guarantees contract a
    validated document always compiles; a failure to do so escaping as
    anything but :class:`ScenarioError` is a schema/compiler bug, so
    stray ``ValueError`` from the model constructors is re-raised as
    :class:`ScenarioError` to keep the contract airtight.
    """
    if not isinstance(doc, ScenarioDoc):
        doc = parse_scenario(doc)
    shapes = [
        LoopShape(
            construct=LoopConstruct(loop.construct),
            n_outer=loop.n_outer,
            n_inner=loop.n_inner,
            iter_time_ns=loop.iter_time_ns,
            mem_fraction=loop.mem_fraction,
            mem_rate=loop.mem_rate,
            iters_per_page=loop.iters_per_page,
            fresh_pages_each_step=loop.fresh_pages_each_step,
            work_skew=loop.work_skew,
            cluster_ws_bytes=loop.cluster_ws_bytes,
            label=loop.label,
        )
        for loop in doc.loops
    ]
    try:
        model = AppModel(
            name=doc.name,
            n_steps=doc.n_steps,
            serial_per_step_ns=doc.serial.per_step_ns,
            loops_per_step=shapes,
            serial_pages_per_step=doc.serial.pages,
            serial_syscalls_per_step=doc.serial.syscalls,
            init_serial_ns=doc.init.serial_ns,
            init_pages=doc.init.pages,
            serial_mem_fraction=doc.serial.mem_fraction,
            serial_mem_rate=doc.serial.mem_rate,
        )
    except ValueError as exc:
        raise ScenarioError("$", f"scenario failed to compile: {exc}") from exc
    return CompiledScenario(doc, model)
