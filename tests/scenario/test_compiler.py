"""Compiler correctness: scenarios lower exactly onto the AppModel API."""

from __future__ import annotations

import pytest

from repro.apps import PAPER_APPS
from repro.core import run_application
from repro.scenario import (
    ScenarioError,
    compile_scenario,
    export_app,
    parse_scenario,
    scenario_from_model,
)
from repro.xylem.params import XylemParams


def models_equal(a, b) -> bool:
    """Structural AppModel equality (AppModel itself compares by id)."""
    return scenario_from_model(a) == scenario_from_model(b)


@pytest.mark.parametrize("name", sorted(PAPER_APPS))
def test_exported_apps_recompile_to_equal_models(name):
    assert models_equal(compile_scenario(export_app(name)).model, PAPER_APPS[name]())


def test_compile_accepts_raw_mappings(minimal):
    compiled = compile_scenario(minimal)
    assert compiled.model.name == "minimal"
    assert compiled.model.n_steps == 2
    assert compiled.doc == parse_scenario(minimal)


def test_compile_rejects_malformed_mapping(minimal):
    minimal["loops"] = []
    with pytest.raises(ScenarioError):
        compile_scenario(minimal)


def test_loop_fields_transliterate_exactly(rich):
    compiled = compile_scenario(rich)
    doc = compiled.doc
    for spec, shape in zip(doc.loops, compiled.model.loops_per_step):
        assert shape.construct.value == spec.construct
        assert shape.n_outer == spec.n_outer
        assert shape.n_inner == spec.n_inner
        assert shape.iter_time_ns == spec.iter_time_ns
        assert shape.mem_fraction == spec.mem_fraction
        assert shape.mem_rate == spec.mem_rate
        assert shape.iters_per_page == spec.iters_per_page
        assert shape.fresh_pages_each_step == spec.fresh_pages_each_step
        assert shape.work_skew == spec.work_skew
        assert shape.cluster_ws_bytes == spec.cluster_ws_bytes
        assert shape.label == spec.label


def test_config_applies_machine_overrides(rich):
    compiled = compile_scenario(rich)
    config = compiled.config()
    # with_processors(8) collapses to one cluster of 8 CEs; the queue
    # override must survive the derivation.
    assert config.switch_queue_depth == 8
    assert config.n_clusters * config.ces_per_cluster == 8
    assert compiled.config(16).n_clusters * compiled.config(16).ces_per_cluster == 16


def test_pre_run_hook_only_with_background(minimal, rich):
    assert compile_scenario(minimal).pre_run_hook() is None
    assert callable(compile_scenario(rich).pre_run_hook())


def test_compiled_run_matches_run_application():
    from repro.analyze.race import fingerprint_result

    compiled = compile_scenario(export_app("flo52"))
    via_scenario = compiled.run(8, 0.005, 1994)
    direct = run_application(
        PAPER_APPS["FLO52"](), 8, scale=0.005, os_params=XylemParams(seed=1994)
    )
    assert (
        fingerprint_result(via_scenario).digest == fingerprint_result(direct).digest
    )


def test_run_uses_document_defaults(minimal):
    minimal["defaults"] = {"n_processors": 4, "scale": 1.0, "seed": 11}
    compiled = compile_scenario(minimal)
    explicit = compiled.run(4, 1.0, 11)
    defaulted = compiled.run()
    from repro.analyze.race import fingerprint_result

    assert fingerprint_result(explicit).digest == fingerprint_result(defaulted).digest


def test_digest_matches_schema_digest(rich):
    from repro.scenario import scenario_digest

    compiled = compile_scenario(rich)
    assert compiled.digest == scenario_digest(compiled.doc)
