"""Concurrency-hazard analysis: CDR100-series race rules + sanitizer.

Discrete-event "races" are not data races -- every callback runs to
completion atomically -- but they are just as real: whenever two events
land at the same ``(time, priority)``, their relative order is decided
only by event-queue insertion order (the eid tie-break).  Model code
whose *results* depend on that order is order-dependent: refactoring,
batching, or an unrelated extra event can silently change the published
tables.  This module attacks the problem from both ends:

* **Statically** -- the CDR100-series lint rules below extend the
  :mod:`repro.analyze.rules` catalogue with shared-state hazard
  patterns: stale read-modify-write across a ``yield`` (CDR101),
  event-list manipulation outside the kernel (CDR102), iteration over
  unordered containers (CDR103), and mutation of a foreign component's
  private state from a process generator without an owning acquisition
  (CDR104).

* **Dynamically** -- :func:`race_app` runs an application once with the
  kernel's natural insertion-order tie-break and then K more times
  under :meth:`~repro.sim.Simulator.perturb_tie_breaks` seeds that
  permute same-``(time, priority)`` order.  A hazard-free model must
  produce *byte-identical* breakdowns and tables for every seed; any
  fingerprint divergence is a confirmed order-dependence hazard,
  reported together with the first event at which the perturbed
  schedule parted from the baseline
  (:class:`~repro.analyze.sanitize.DeterminismSink`).

:func:`plant_order_hazard` builds a deliberately order-dependent
fault-injection hook -- the self-test proving the detector detects.
"""

from __future__ import annotations

import ast
import hashlib
import json
from collections.abc import Generator, Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.analyze.findings import Finding
from repro.analyze.rules import (
    ModuleContext,
    Rule,
    import_map,
    register,
    resolve_name,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import PreRunHook, RunResult
    from repro.hardware.machine import CedarMachine
    from repro.parallel.executor import CellSpec
    from repro.runtime.library import CedarFortranRuntime
    from repro.sim import Simulator
    from repro.xylem.kernel import XylemKernel

__all__ = [
    "CrossYieldStaleWriteRule",
    "KernelInternalsRule",
    "UnorderedIterationRule",
    "ForeignStateMutationRule",
    "ResultFingerprint",
    "SeedDivergence",
    "RaceReport",
    "fingerprint_result",
    "race_app",
    "race_model",
    "plant_order_hazard",
]


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

#: ``yield <x>.METHOD(...)`` / ``with <x>.METHOD(...)`` shapes that count
#: as taking ownership of shared state for the rest of the function:
#: :class:`~repro.sim.Resource` / :class:`~repro.sim.ArbitratedResource`
#: requests, :class:`~repro.sim.Gate` waits, :class:`~repro.sim.Store`
#: hand-offs.
_ACQUIRE_METHODS = frozenset({"request", "acquire", "wait", "get", "put"})

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Simulator internals that only :mod:`repro.sim` may touch.
_KERNEL_INTERNALS = frozenset({"_queue", "_eid_next", "_tail_seq"})

#: ``heapq`` functions that mutate a heap in place.
_HEAP_MUTATORS = frozenset(
    {
        "heapq.heappush",
        "heapq.heappop",
        "heapq.heapreplace",
        "heapq.heappushpop",
        "heapq.heapify",
    }
)


def _attr_path(node: ast.expr) -> str | None:
    """Dotted path of an attribute chain rooted at a plain name.

    ``self.load._active`` -> ``"self.load._active"``; chains broken by
    calls or subscripts return ``None`` (their identity is dynamic).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _attr_paths_read(expr: ast.expr) -> set[str]:
    """All dotted attribute paths loaded anywhere inside *expr*."""
    paths: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            path = _attr_path(node)
            if path is not None:
                paths.add(path)
    return paths


def _names_read(expr: ast.expr) -> set[str]:
    """All plain names loaded anywhere inside *expr*."""
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _is_acquisition(expr: ast.expr) -> bool:
    """Whether *expr* is an ownership-taking call (``lock.request()``...)."""
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    return isinstance(func, ast.Attribute) and func.attr in _ACQUIRE_METHODS


def _generators(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Every synchronous generator function in *tree* (any nesting)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and _function_has_yield(node):
            yield node


def _function_has_yield(fn: ast.FunctionDef) -> bool:
    """Whether *fn* itself yields (ignoring nested function scopes)."""
    for node in _ordered_body(fn):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _ordered_body(fn: ast.AST) -> list[ast.AST]:
    """Source-ordered nodes of one function scope, nested defs excluded."""
    order: list[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            order.append(child)
            visit(child)

    visit(fn)
    return order


# ---------------------------------------------------------------------------
# CDR101 -- stale read-modify-write across a yield
# ---------------------------------------------------------------------------


@register
class CrossYieldStaleWriteRule(Rule):
    """CDR101: a value read before a ``yield`` written back after it.

    The classic simulated race::

        count = self.tracker.active      # read
        yield self.machine.burst_ns      # other processes run here
        self.tracker.active = count + 1  # stale write-back

    Between the read and the write, any number of other processes may
    have mutated the state; the final value then depends on same-tick
    event order.  The rule flags a write to an attribute path whose
    right-hand side derives from a local snapshot of the *same* path
    taken before an intervening ``yield``, unless the function acquired
    an owning ``Resource`` / ``Gate`` / ``Store`` first (``request`` /
    ``acquire`` / ``wait`` / ``get`` / ``put`` on the path).

    Single-statement augmented assignments (``self.n += 1``) are *not*
    flagged: a callback runs to completion atomically, so an in-place
    read-modify-write with no yield inside cannot interleave.
    """

    code = "CDR101"
    summary = "stale cross-yield write to shared state"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in _generators(ctx.tree):
            yield from self._check_function(ctx, fn)

    def _check_function(
        self, ctx: ModuleContext, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        yields_seen = 0
        guarded = False
        # local name -> (attr paths its value was read from, yields seen
        # at snapshot time)
        snapshots: dict[str, tuple[set[str], int]] = {}
        for node in _ordered_body(fn):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                yields_seen += 1
                if isinstance(node, ast.Yield) and node.value is not None:
                    if _is_acquisition(node.value):
                        guarded = True
                continue
            if isinstance(node, ast.With):
                if any(_is_acquisition(item.context_expr) for item in node.items):
                    guarded = True
                continue
            if not isinstance(node, ast.Assign):
                continue
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                # Local snapshot: remember which shared paths it holds.
                snapshots[node.targets[0].id] = (
                    _attr_paths_read(node.value),
                    yields_seen,
                )
                continue
            for target in node.targets:
                if not isinstance(target, ast.Attribute):
                    continue
                path = _attr_path(target)
                if path is None or guarded:
                    continue
                for name in _names_read(node.value):
                    snap = snapshots.get(name)
                    if snap is None:
                        continue
                    paths, at_yields = snap
                    if path in paths and at_yields < yields_seen:
                        yield ctx.finding(
                            target,
                            self.code,
                            f"write to {path!r} derives from {name!r}, a "
                            f"snapshot of the same state taken before a "
                            f"yield: other processes may have mutated it "
                            f"in between, making the result depend on "
                            f"same-tick event order. Re-read the state "
                            f"after resuming, or hold an owning "
                            f"Resource/Gate across the section.",
                        )
                        break


# ---------------------------------------------------------------------------
# CDR102 -- event-list manipulation outside the kernel
# ---------------------------------------------------------------------------


@register
class KernelInternalsRule(Rule):
    """CDR102: event-heap / kernel-internal access outside ``repro/sim``.

    The simulator's event list is a heap of ``(key, eid, event)``
    entries whose invariants (tie-break bands, perturbed-eid mode,
    in-place carrier re-arms) only :mod:`repro.sim.core` maintains.  Pushing
    or popping it directly -- or touching ``_queue`` / ``_eid_next`` /
    ``_tail_seq`` -- from model code bypasses those invariants and the
    tie-break audit hooks.  Flags ``heapq`` mutator calls and kernel
    internal attributes in any module outside
    ``LintConfig.kernel_modules``.
    """

    code = "CDR102"
    summary = "event-list manipulation outside the kernel"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_any(ctx.config.kernel_modules):
            return
        imports = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                origin = resolve_name(node.func, imports)
                if origin in _HEAP_MUTATORS:
                    yield ctx.finding(
                        node,
                        self.code,
                        f"direct heap manipulation via {origin!r}: the "
                        f"event list's tie-break and banding invariants "
                        f"live in repro/sim/core.py. Schedule through "
                        f"Simulator.schedule/timeout/schedule_at_tail "
                        f"instead.",
                    )
            elif isinstance(node, ast.Attribute) and node.attr in _KERNEL_INTERNALS:
                yield ctx.finding(
                    node,
                    self.code,
                    f"access to kernel internal {node.attr!r} outside "
                    f"repro/sim/: use the Simulator's public scheduling "
                    f"API so eid banding and perturbation stay intact.",
                )


# ---------------------------------------------------------------------------
# CDR103 -- iteration over unordered containers
# ---------------------------------------------------------------------------

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_OPERATIONS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)


@register
class UnorderedIterationRule(Rule):
    """CDR103: iterating a ``set`` where order can escape.

    Python ``set`` iteration order depends on insertion history and
    hash seeding, not on element values.  When the loop body schedules
    events, grants resources, or appends to an ordered structure, that
    arbitrary order leaks into scheduling decisions and the schedule is
    no longer a function of the model.  Flags ``for`` loops and
    comprehensions whose iterable is a set literal, a
    ``set()`` / ``frozenset()`` call, a set-operation result
    (``.union(...)`` etc.), or a local assigned from one -- and
    order-sensitive no-arg ``.pop()`` on such locals.  Iterate
    ``sorted(...)`` instead.
    """

    code = "CDR103"
    summary = "iteration over an unordered set"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for scope in self._scopes(ctx.tree):
            yield from self._check_scope(ctx, scope)

    def _scopes(self, tree: ast.Module) -> Iterator[ast.AST]:
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _check_scope(self, ctx: ModuleContext, scope: ast.AST) -> Iterator[Finding]:
        set_locals: set[str] = set()
        # _ordered_body excludes nested function scopes, which _scopes
        # yields separately -- so module and function level get the same
        # recursive, source-ordered treatment.
        for node in _ordered_body(scope):
            if isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                    name = node.targets[0].id
                    if self._is_set_expr(node.value, set_locals):
                        set_locals.add(name)
                    else:
                        set_locals.discard(name)
            elif isinstance(node, ast.For):
                if self._is_set_expr(node.iter, set_locals):
                    yield self._finding(ctx, node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for comp in node.generators:
                    if self._is_set_expr(comp.iter, set_locals):
                        yield self._finding(ctx, comp.iter)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "pop"
                    and not node.args
                    and not node.keywords
                    and isinstance(func.value, ast.Name)
                    and func.value.id in set_locals
                ):
                    yield ctx.finding(
                        node,
                        self.code,
                        f"set.pop() on {func.value.id!r} removes an "
                        f"arbitrary element; pick deterministically, e.g. "
                        f"min(...) then discard.",
                    )

    def _is_set_expr(self, expr: ast.expr, set_locals: set[str]) -> bool:
        if isinstance(expr, ast.Set):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in set_locals
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_OPERATIONS:
                return True
        return False

    def _finding(self, ctx: ModuleContext, node: ast.AST) -> Finding:
        return ctx.finding(
            node,
            self.code,
            "iteration over a set: the order is arbitrary and can leak "
            "into scheduling decisions or published tables. Iterate "
            "sorted(...) (or an explicit ordered container) instead.",
        )


# ---------------------------------------------------------------------------
# CDR104 -- foreign private-state mutation from a process generator
# ---------------------------------------------------------------------------


@register
class ForeignStateMutationRule(Rule):
    """CDR104: a process mutating another component's private state.

    Bank queues, load ledgers, gate wait-lists and scheduler run queues
    are shared model state owned by their component; a process
    generator reaching into ``other._attr`` and mutating it competes
    with every same-tick process doing the same, with insertion order
    deciding who wins.  Flags writes (assignment, augmented assignment,
    ``del``, subscript stores) and in-place mutator calls
    (``.append`` / ``.update`` / ...) on attribute paths that (a) are
    rooted at a name other than ``self``/``cls`` and (b) traverse an
    underscore-private segment -- unless the function first acquired an
    owning ``Resource`` / ``Gate`` / ``Store``.  Mutate shared state
    through its owner's methods (which can serialize or tail-commit),
    or hold the owning lock.
    """

    code = "CDR104"
    summary = "unguarded mutation of foreign private state"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in _generators(ctx.tree):
            yield from self._check_function(ctx, fn)

    def _check_function(
        self, ctx: ModuleContext, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        guarded = False
        for node in _ordered_body(fn):
            if isinstance(node, ast.Yield) and node.value is not None:
                if _is_acquisition(node.value):
                    guarded = True
            elif isinstance(node, ast.With):
                if any(_is_acquisition(item.context_expr) for item in node.items):
                    guarded = True
            if guarded:
                continue
            target = self._mutated_path(node)
            if target is not None:
                path, site = target
                yield ctx.finding(
                    site,
                    self.code,
                    f"process generator mutates foreign private state "
                    f"{path!r} without an owning acquisition: same-tick "
                    f"processes race on it, with event-queue insertion "
                    f"order deciding the outcome. Go through the owning "
                    f"component's API or hold its Resource/Gate.",
                )

    def _mutated_path(self, node: ast.AST) -> tuple[str, ast.AST] | None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                found = self._foreign_private_target(target)
                if found is not None:
                    return found
        elif isinstance(node, (ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, ast.Delete) else [node.target]
            for target in targets:
                found = self._foreign_private_target(target)
                if found is not None:
                    return found
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS:
                path = _attr_path(func.value)
                if path is not None and self._is_foreign_private(path):
                    return path, node
        return None

    def _foreign_private_target(self, target: ast.expr) -> tuple[str, ast.AST] | None:
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return None
        path = _attr_path(node)
        if path is not None and self._is_foreign_private(path):
            return path, target
        return None

    def _is_foreign_private(self, path: str) -> bool:
        root, _, rest = path.partition(".")
        if root in ("self", "cls") or not rest:
            return False
        return any(
            part.startswith("_") and not part.startswith("__")
            for part in rest.split(".")
        )


# ---------------------------------------------------------------------------
# Result fingerprints
# ---------------------------------------------------------------------------


def _flatten(value: object, prefix: str, out: dict[str, object]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(item, f"{prefix}[{index}]", out)
    else:
        out[prefix] = value


@dataclass(frozen=True)
class ResultFingerprint:
    """Canonical byte-level identity of a run's published numbers.

    Covers every table the reproduction reports: completion time, the
    Figure-3 per-cluster breakdown, the Table-2 per-activity times and
    occurrence counts, the statfx samples and per-cluster concurrency
    that feed Tables 1 and 3, the loop regions and main cluster-only
    loop spans that feed Tables 3 and 4, the monitor's pickup/iteration
    summary and every task's user-time breakdown that feed Figures 5-9,
    the fault statistics and the analytic memory ledger.  Two runs with
    equal :attr:`digest` publish byte-identical tables and figures.
    """

    payload: str
    digest: str

    def diff(self, other: "ResultFingerprint", limit: int = 8) -> list[str]:
        """Human-readable per-key differences against *other*."""
        mine: dict[str, object] = {}
        theirs: dict[str, object] = {}
        _flatten(json.loads(self.payload), "", mine)
        _flatten(json.loads(other.payload), "", theirs)
        lines = []
        for key in sorted(mine.keys() | theirs.keys()):
            a = mine.get(key)
            b = theirs.get(key)
            if a != b:
                lines.append(f"{key}: {a} != {b}")
                if len(lines) >= limit:
                    lines.append("...")
                    break
        return lines


def fingerprint_result(result: "RunResult") -> ResultFingerprint:
    """Fingerprint every table the run publishes (see the class doc).

    Raises ``ValueError`` on a trace :func:`~repro.core.concurrency.loop_index`
    rejects, as Table 3 does.
    """
    from repro.core.breakdown import user_breakdowns
    from repro.core.concurrency import loop_index
    from repro.xylem.categories import OsActivity

    accounting = result.accounting
    n_clusters = result.config.n_clusters
    faults = result.fault_stats
    ledger = result.mem_ledger
    loops = loop_index(result)
    payload: dict[str, object] = {
        "ct_ns": result.ct_ns,
        "breakdown": {
            str(cluster): {
                category.name: ns
                for category, ns in accounting.breakdown(
                    cluster, result.ct_ns
                ).items()
            }
            for cluster in range(n_clusters)
        },
        "table2_ns": {
            activity.name: ns for activity, ns in accounting.table2_ns().items()
        },
        "activity_counts": {
            activity.name: sum(
                accounting.activity_count(cluster, activity)
                for cluster in range(n_clusters)
            )
            for activity in OsActivity
        },
        "faults": {
            "sequential": faults.sequential,
            "concurrent": faults.concurrent,
            "joined": faults.joined,
            "evictions": faults.evictions,
        },
        "memory": {
            "busy_ns": list(ledger.busy_ns),
            "ideal_ns": list(ledger.ideal_ns),
            "bursts": list(ledger.bursts),
            "scalar_round_trips": ledger.scalar_round_trips,
            "scalar_round_trip_ns": ledger.scalar_round_trip_ns,
        },
        "statfx": {
            "samples": result.statfx_samples,
            "concurrency": [
                result.cluster_concurrency(cluster) for cluster in range(n_clusters)
            ],
        },
        "loops": {
            "regions": {str(task): spans for task, spans in loops.regions.items()},
            "mc_spans": loops.mc_spans,
        },
        "summary": {"/".join(map(str, key)): v for key, v in result.hpm_summary.items()},
        "user_time": [b.as_dict() for b in user_breakdowns(result)],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()
    return ResultFingerprint(payload=canonical, digest=digest)


# ---------------------------------------------------------------------------
# The tie-break perturbation sanitizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedDivergence:
    """One perturbation seed whose results diverged from the baseline."""

    seed: int
    #: ``key: baseline != perturbed`` lines from the fingerprint diff.
    mismatches: tuple[str, ...]
    #: Index of the first processed event at which the perturbed
    #: schedule departed from the baseline order (``None`` when the
    #: prefix window did not capture it).
    divergence_index: int | None
    baseline_token: str | None
    perturbed_token: str | None

    def format(self) -> str:
        lines = [f"seed {self.seed}: results diverged from baseline"]
        lines += [f"    {line}" for line in self.mismatches]
        if self.divergence_index is not None:
            lines.append(
                f"    schedules part at event #{self.divergence_index}: "
                f"baseline ran {self.baseline_token!r}, "
                f"perturbed ran {self.perturbed_token!r}"
            )
        return "\n".join(lines)


@dataclass
class RaceReport:
    """Outcome of one perturbation-sanitizer campaign on one app."""

    app: str
    n_processors: int
    scale: float
    seeds: tuple[int, ...]
    baseline: ResultFingerprint | None = None
    #: Tie-breaks observed during the baseline run -- how much
    #: same-instant ambiguity the perturbation actually exercises.
    tie_breaks: int = 0
    #: The hottest tie sites of the baseline run, ``(first, second,
    #: count)`` label pairs from the
    #: :class:`~repro.obs.hazard.TieBreakAuditSink`: where to look
    #: first when a divergence needs a culprit.
    hot_sites: list[tuple[str, str, int]] = field(default_factory=list)
    divergences: list[SeedDivergence] = field(default_factory=list)

    @property
    def hazard_free(self) -> bool:
        """All perturbed runs published byte-identical results."""
        return not self.divergences

    def format(self) -> str:
        verdict = "PASS" if self.hazard_free else "FAIL"
        lines = [
            f"race sanitizer: {self.app} P={self.n_processors} "
            f"scale={self.scale} seeds={list(self.seeds)} -> {verdict}",
            f"  baseline tie-breaks: {self.tie_breaks} "
            f"(same-(time, priority) insertion-order decisions exercised)",
        ]
        if self.hazard_free:
            lines.append(
                f"  {len(self.seeds)} perturbed schedule(s) produced "
                f"byte-identical breakdowns and tables"
            )
        else:
            for divergence in self.divergences:
                lines.append("  " + divergence.format().replace("\n", "\n  "))
        if self.hot_sites:
            lines.append("  hottest tie sites:")
            for first, second, count in self.hot_sites:
                lines.append(f"    {count:>8}  {first} <-> {second}")
        return "\n".join(lines)


def race_model(
    spec: "CellSpec",
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    order_capacity: int = 100_000,
) -> RaceReport:
    """Hunt order-dependence hazards in a cell by perturbing tie-breaks.

    The general engine behind :func:`race_app`: *spec* is any
    :class:`~repro.parallel.executor.CellSpec` without a fault campaign
    -- a named app or a compiled scenario -- and every run goes through
    :func:`~repro.parallel.executor.run_cell`.

    Runs a baseline (natural insertion-order tie-break), then one run
    per entry of *seeds* with the spec's ``tie_break_seed`` set, which
    arms :meth:`~repro.sim.Simulator.perturb_tie_breaks`, and compares
    :func:`fingerprint_result` byte-for-byte.  The perturbed *schedule*
    legitimately differs -- the permutation is the whole point -- so
    schedule hashes are never asserted equal; they serve only to locate
    the first divergent event when the *results* differ.

    Set ``order_hazard`` on *spec* to self-test the detector with
    :func:`plant_order_hazard`.
    """
    from repro.analyze.sanitize import DeterminismSink
    from repro.obs.hazard import TieBreakAuditSink
    from repro.obs.instrument import Observability
    from repro.parallel.executor import run_cell

    report = RaceReport(
        app=spec.app,
        n_processors=spec.n_processors,
        scale=spec.scale,
        seeds=tuple(seeds),
    )
    audit = TieBreakAuditSink()

    def one_run(
        tie_break_seed: int | None,
    ) -> tuple[ResultFingerprint, DeterminismSink]:
        sink = DeterminismSink(order_capacity=order_capacity)
        extra: list = [sink]
        if tie_break_seed is None:
            # Audit only the baseline: that is the schedule whose
            # insertion-order decisions the perturbations second-guess.
            extra.append(audit)
        result = run_cell(
            replace(spec, tie_break_seed=tie_break_seed),
            obs=Observability(extra_sinks=extra),
        )
        return fingerprint_result(result), sink

    baseline, baseline_sink = one_run(None)
    report.baseline = baseline
    report.tie_breaks = baseline_sink.ambiguity_count
    report.hot_sites = audit.top_sites(5)
    for seed in report.seeds:
        perturbed, sink = one_run(seed)
        if perturbed.digest == baseline.digest:
            continue
        index = baseline_sink.first_divergence(sink)
        baseline_token = perturbed_token = None
        if index is not None:
            order_a = baseline_sink.order
            order_b = sink.order
            baseline_token = order_a[index] if index < len(order_a) else "<end>"
            perturbed_token = order_b[index] if index < len(order_b) else "<end>"
        report.divergences.append(
            SeedDivergence(
                seed=seed,
                mismatches=tuple(baseline.diff(perturbed)),
                divergence_index=index,
                baseline_token=baseline_token,
                perturbed_token=perturbed_token,
            )
        )
    return report


def race_app(
    app: str,
    n_processors: int = 8,
    scale: float = 0.02,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    os_seed: int = 1994,
    order_capacity: int = 100_000,
    order_hazard: bool = False,
) -> RaceReport:
    """Hunt order-dependence hazards in a *named* app (see
    :func:`race_model`).

    Resolves *app* through the builder registry (the five Perfect apps
    plus the synthetic workload) and runs the perturbation campaign on
    the stock paper configuration; *order_hazard* plants
    :func:`plant_order_hazard` in every run.
    """
    from repro.parallel.executor import CellSpec

    spec = CellSpec(
        app=app.upper(),
        n_processors=n_processors,
        scale=scale,
        seed=os_seed,
        order_hazard=order_hazard,
    )
    return race_model(spec, seeds=seeds, order_capacity=order_capacity)


# ---------------------------------------------------------------------------
# Planted hazard (detector self-test)
# ---------------------------------------------------------------------------


def plant_order_hazard(
    period_ns: int = 100_000, cost_ns: int = 5_000
) -> "PreRunHook":
    """A pre-run hook arming a deliberate order-dependence hazard.

    Every *period_ns* a daemon spawns two processes at the same instant
    that race to claim a shared cell; the OS charge then depends on
    which of the two the event queue happened to dequeue first.  Under
    the natural insertion-order tie-break the winner is always the
    first-spawned process; under tie-break perturbation the winner
    flips seed by seed, so the published tables diverge -- exactly the
    class of bug the sanitizer exists to catch.  Used by
    ``cedar-repro race --self-test`` and the CI self-test to prove the
    detector detects.
    """
    from repro.xylem.categories import OsActivity

    def hook(
        sim: "Simulator",
        machine: "CedarMachine",
        kernel: "XylemKernel",
        runtime: "CedarFortranRuntime",
    ) -> None:
        def racer(tag: str, claimed: list[str]) -> Generator:
            yield 1
            # First resumer this tick claims the cell; the charge then
            # depends on dequeue order -- the planted hazard.
            if not claimed:
                claimed.append(tag)
                charge = cost_ns if tag == "a" else 2 * cost_ns
                kernel.accounting.charge(0, OsActivity.AST, charge)

        def daemon() -> Generator:
            while True:
                yield period_ns
                claimed: list = []
                sim.process(racer("a", claimed), name="hazard-a")
                sim.process(racer("b", claimed), name="hazard-b")

        sim.process(daemon(), name="hazard-daemon")

    return hook
