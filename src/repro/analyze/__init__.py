"""Static and dynamic enforcement of the simulation's determinism invariants.

The reproduction's claim to validity is that contention *emerges* from
concurrent requests under a fixed seed, which requires every run to be
bit-for-bit deterministic.  This package enforces that property twice
over:

* **statically** -- an AST lint framework (:mod:`repro.analyze.rules`,
  :mod:`repro.analyze.engine`) with stable ``CDR``-coded rules banning
  the classic discrete-event-simulation hazards: wall-clock reads,
  global/unseeded RNG, float time, out-of-kernel event triggering and
  non-generator processes.  ``cedar-repro lint [paths]`` runs it.
* **dynamically** -- a schedule-order sanitizer
  (:mod:`repro.analyze.sanitize`) that hashes the processed-event order
  of a run and flags same-``(time, priority)`` tie-breaks.
  ``cedar-repro sanitize`` runs a workload twice under one seed and
  diffs the hashes.

The concurrency-hazard layer (:mod:`repro.analyze.race`) extends both
ends: the CDR100-series rules flag shared-state races in process
generators, and the tie-break perturbation sanitizer
(``cedar-repro race``) permutes same-instant event order under K seeds
and asserts byte-identical breakdowns and tables.

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SCHEDULE_HASH_DOMAIN",
    "DeterminismSink",
    "ScheduleHashDomainError",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "RULE_REGISTRY",
    "RaceReport",
    "ResultFingerprint",
    "Rule",
    "RunDigest",
    "SanitizeReport",
    "SeedDivergence",
    "SuppressionRecord",
    "Suppressions",
    "TieBreakRecord",
    "all_rules",
    "fingerprint_result",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "plant_order_hazard",
    "race_app",
    "race_model",
    "render_json",
    "render_suppression_stats",
    "render_text",
    "same_schedule",
    "sanitize_app",
    "split_schedule_hash",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": (
            "LintConfig",
            "LintResult",
            "lint_file",
            "lint_paths",
            "lint_source",
        ),
        "findings": (
            "Finding",
            "SuppressionRecord",
            "Suppressions",
            "parse_suppressions",
        ),
        "race": (
            "RaceReport",
            "ResultFingerprint",
            "SeedDivergence",
            "fingerprint_result",
            "plant_order_hazard",
            "race_app",
            "race_model",
        ),
        "reporters": ("render_json", "render_suppression_stats", "render_text"),
        "rules": ("RULE_REGISTRY", "ModuleContext", "Rule", "all_rules"),
        "sanitize": (
            "SCHEDULE_HASH_DOMAIN",
            "DeterminismSink",
            "RunDigest",
            "SanitizeReport",
            "ScheduleHashDomainError",
            "TieBreakRecord",
            "same_schedule",
            "sanitize_app",
            "split_schedule_hash",
        ),
    },
)
