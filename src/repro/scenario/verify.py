"""End-to-end scenario verification: the property the fuzzer enforces.

One :func:`verify_scenario` call takes a validated document through the
full gauntlet:

1. **Compile** -- the document lowers onto an ``AppModel`` (guaranteed
   by the schema contract; a failure here is a compiler bug).
2. **Determinism** -- two independent runs at the same ``(P, scale,
   seed)`` must publish byte-identical
   :func:`~repro.analyze.race.fingerprint_result` payloads *and*
   byte-identical schedule hashes.
3. **Race sanitizer** -- the tie-break perturbation campaign
   (:func:`~repro.analyze.race.race_model`) must find the compiled
   model hazard-free under every perturbation seed.
4. **Cache/parallel byte-identity** (optional) -- the scenario runs
   again through the pooled executor + result cache and the result
   must equal the serial result byte-for-byte.

The CI ``scenario-fuzz`` job maps this over hundreds of generated
scenarios; the Hypothesis suite applies it to adversarially-shrunk
ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.parallel.executor import CellSpec, run_cell
from repro.scenario.compiler import compile_scenario
from repro.scenario.schema import ScenarioDoc, canonical_scenario_json

__all__ = ["ScenarioVerification", "verify_scenario"]


@dataclass
class ScenarioVerification:
    """Outcome of one scenario's verification gauntlet."""

    name: str
    digest: str
    n_processors: int
    scale: float
    seed: int
    ct_ns: int = 0
    #: Fingerprint digest both runs agreed on.
    fingerprint: str = ""
    #: Schedule hash both runs agreed on.
    schedule_hash: str = ""
    #: Baseline same-(time, priority) tie-breaks the race campaign
    #: perturbed (how much ambiguity the check actually exercised).
    tie_breaks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def format(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"scenario {self.name} [{self.digest[:12]}] "
            f"P={self.n_processors} scale={self.scale} seed={self.seed} "
            f"-> {verdict}",
        ]
        if self.passed:
            schedule = self.schedule_hash.rpartition(":")[2]
            lines.append(
                f"  deterministic (fingerprint {self.fingerprint[:12]}, "
                f"schedule {schedule[:12]}), hazard-free "
                f"({self.tie_breaks} tie-breaks perturbed)"
            )
        lines += [f"  {failure}" for failure in self.failures]
        return "\n".join(lines)


def _serial_fingerprints(spec: CellSpec) -> tuple[str, str, str, int]:
    """One in-process run: (payload, digest, schedule hash, ct_ns)."""
    from repro.analyze.race import fingerprint_result

    result = run_cell(spec)
    fingerprint = fingerprint_result(result)
    assert result.schedule_hash is not None
    return fingerprint.payload, fingerprint.digest, result.schedule_hash, result.ct_ns


def verify_scenario(
    doc: ScenarioDoc,
    n_processors: int | None = None,
    scale: float | None = None,
    seed: int | None = None,
    race_seeds: tuple[int, ...] = (1,),
    parallel_jobs: int = 0,
    cache_dir: str | None = None,
) -> ScenarioVerification:
    """Run the full verification gauntlet on one scenario document.

    *race_seeds* sizes the perturbation campaign (empty disables it).
    *parallel_jobs* > 0 additionally runs the scenario through the
    pooled executor + result cache (rooted at *cache_dir*, which the
    caller should point at a throwaway directory) and asserts the
    result equals the serial path byte-for-byte.
    """
    compiled = compile_scenario(doc)
    P = doc.defaults.n_processors if n_processors is None else n_processors
    sc = doc.defaults.scale if scale is None else scale
    sd = doc.defaults.seed if seed is None else seed
    verification = ScenarioVerification(
        name=doc.name, digest=compiled.digest, n_processors=P, scale=sc, seed=sd
    )

    spec = CellSpec(
        app=doc.name,
        n_processors=P,
        scale=sc,
        seed=sd,
        scenario=canonical_scenario_json(doc),
        fingerprint_schedule=True,
    )
    payload_a, digest_a, hash_a, ct_a = _serial_fingerprints(spec)
    payload_b, digest_b, hash_b, _ = _serial_fingerprints(spec)
    verification.ct_ns = ct_a
    verification.fingerprint = digest_a
    verification.schedule_hash = hash_a
    if digest_a != digest_b:
        from repro.analyze.race import ResultFingerprint

        diff = ResultFingerprint(payload_a, digest_a).diff(
            ResultFingerprint(payload_b, digest_b)
        )
        verification.failures.append(
            "two same-seed runs published different results: " + "; ".join(diff)
        )
    if hash_a != hash_b:
        verification.failures.append(
            f"two same-seed runs produced different schedules: "
            f"{hash_a[:16]} != {hash_b[:16]}"
        )

    if race_seeds:
        from repro.analyze.race import race_model

        report = race_model(
            replace(spec, fingerprint_schedule=False), seeds=race_seeds
        )
        verification.tie_breaks = report.tie_breaks
        if not report.hazard_free:
            for divergence in report.divergences:
                verification.failures.append(
                    "race sanitizer: " + divergence.format().replace("\n", "; ")
                )

    if parallel_jobs > 0:
        _check_parallel(
            verification, spec, (digest_a, hash_a), parallel_jobs, cache_dir
        )
    return verification


def _check_parallel(
    verification: ScenarioVerification,
    spec: CellSpec,
    serial: tuple[str, str],
    jobs: int,
    cache_dir: str | None,
) -> None:
    """Pooled executor + cache must reproduce the in-process run.

    Byte-identity is asserted on what a run *publishes* -- the
    :func:`~repro.analyze.race.fingerprint_result` digest (every table
    and breakdown) and the domain-tagged schedule hash -- against
    *serial*, the pair the first in-process run published.  The
    result's ``wall_s`` is host wall-clock and legitimately differs
    run to run.
    """
    from repro.analyze.race import fingerprint_result
    from repro.core.runner import RunResult
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import execute_cells

    def published(result: RunResult) -> tuple[str, str | None]:
        return fingerprint_result(result).digest, result.schedule_hash

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results, failures = execute_cells([spec], jobs=jobs, cache=cache)
    if failures or spec not in results:
        verification.failures.append(
            "pooled executor failed the cell: "
            + "; ".join(f"{f.error_type}: {f.message}" for f in failures)
        )
        return
    if published(results[spec]) != serial:
        verification.failures.append(
            "pooled executor published different results than the serial run"
        )
    elif cache is not None:
        cached, _ = execute_cells([spec], jobs=jobs, cache=cache)
        if published(cached[spec]) != serial:
            verification.failures.append(
                "cache round-trip published different results than the serial run"
            )
