"""Tests for the flow pipeline, its final sign-off reuse and the random-disturbance baseline."""

import numpy as np
import pytest

from repro.core.refine import RefinementConfig
from repro.core.tsteiner import TSteiner
from repro.droute.detailed import DetailedRouter
from repro.flow.baseline import random_disturbance, random_move_trials
from repro.flow.pipeline import (
    _reusable_signoff,
    make_training_samples,
    prepare_design,
    run_routing_flow,
)
from repro.groute.layer_assign import assign_layers
from repro.groute.router import GlobalRouter, RouterConfig
from repro.routegrid.grid import GCellGrid
from repro.sta.engine import STAEngine
from repro.timing_model.model import EvaluatorConfig, TimingEvaluator


@pytest.fixture(scope="module")
def spm():
    return prepare_design("spm")


@pytest.fixture(scope="module")
def spm_baseline(spm):
    netlist, forest = spm
    return run_routing_flow(netlist, forest)


class TestPrepareDesign:
    def test_deterministic(self):
        nl1, f1 = prepare_design("spm")
        nl2, f2 = prepare_design("spm")
        assert np.allclose(f1.get_steiner_coords(), f2.get_steiner_coords())
        assert np.allclose(
            [(c.x, c.y) for c in nl1.cells], [(c.x, c.y) for c in nl2.cells]
        )

    def test_without_edge_shifting(self):
        nl, forest = prepare_design("spm", edge_shift_passes=0)
        forest.validate()


class TestRunRoutingFlow:
    def test_metrics_present(self, spm_baseline):
        r = spm_baseline
        assert np.isfinite(r.wns)
        assert np.isfinite(r.tns)
        assert r.wirelength > 0
        assert r.num_vias > 0
        assert set(r.runtimes) == {"groute", "droute", "sta"}
        assert r.total_runtime > 0

    def test_design_violates_as_configured(self, spm_baseline):
        # Benchmarks are clocked to violate, like the paper's designs.
        assert spm_baseline.wns < 0
        assert spm_baseline.tns < 0
        assert spm_baseline.num_violations > 0

    def test_does_not_mutate_input_forest(self, spm):
        netlist, forest = spm
        before = forest.get_steiner_coords()
        run_routing_flow(netlist, forest)
        assert np.allclose(forest.get_steiner_coords(), before)

    def test_repeatable(self, spm, spm_baseline):
        netlist, forest = spm
        again = run_routing_flow(netlist, forest)
        assert again.wns == spm_baseline.wns
        assert again.tns == spm_baseline.tns
        assert again.wirelength == spm_baseline.wirelength


class TestRandomDisturbance:
    def test_moves_bounded(self, spm):
        _, forest = spm
        rng = np.random.default_rng(0)
        disturbed = random_disturbance(forest, rng, max_distance=2.0)
        delta = np.abs(
            disturbed.get_steiner_coords() - forest.get_steiner_coords()
        )
        assert delta.max() <= 2.0 + 1e-9

    def test_original_untouched(self, spm):
        _, forest = spm
        before = forest.get_steiner_coords()
        random_disturbance(forest, np.random.default_rng(1))
        assert np.allclose(forest.get_steiner_coords(), before)

    def test_clamped_to_die(self, spm):
        netlist, forest = spm
        rng = np.random.default_rng(2)
        disturbed = random_disturbance(forest, rng, max_distance=1e6)
        coords = disturbed.get_steiner_coords()
        assert coords[:, 0].min() >= 0.0
        assert coords[:, 0].max() <= netlist.die_width

    def test_trials_produce_ratios(self, spm, spm_baseline):
        netlist, forest = spm
        stats = random_move_trials(netlist, forest, spm_baseline, trials=3, seed=1)
        assert len(stats.tns_ratios) == 3
        assert stats.mean_tns_ratio > 0
        assert stats.tns_spread >= 0


class TestTrainingSamples:
    def test_split_flags(self):
        samples = make_training_samples(
            ["spm", "usb_cdc_core"], train_names=["spm"], augment=0
        )
        flags = {s.name: s.is_train for s in samples}
        assert flags["spm"] is True
        assert flags["usb_cdc_core"] is False

    def test_augmented_only_for_train(self):
        samples = make_training_samples(
            ["spm", "usb_cdc_core"], train_names=["spm"], augment=1
        )
        names = [s.name for s in samples]
        assert "spm@aug0" in names
        assert not any(n.startswith("usb_cdc_core@aug") for n in names)

    def test_labels_are_signoff(self):
        samples = make_training_samples(["spm"], train_names=["spm"], augment=0)
        sample = samples[0]
        assert sample.report is not None
        assert sample.label_mask.sum() > 0
        assert np.isfinite(sample.arrival_label[sample.label_mask]).all()

    def test_congestion_attached(self):
        samples = make_training_samples(["spm"], train_names=["spm"], augment=0)
        assert samples[0].graph.congestion is not None


# ----------------------------------------------------------------------
# Final sign-off from the validator's anchor record
# ----------------------------------------------------------------------
# On spm with this model, polish moves the anchor and rejects probes
# after the last accepted one.
_HYBRID = RefinementConfig(max_iterations=2, validate_every=1, polish_probes=12)


@pytest.fixture
def route_calls(monkeypatch):
    """Counts ``GlobalRouter.route`` calls: validator probes and flow."""
    calls = []
    real = GlobalRouter.route

    def counting(self, forest, budget=None):
        calls.append(budget)
        return real(self, forest, budget=budget)

    monkeypatch.setattr(GlobalRouter, "route", counting)
    return calls


@pytest.fixture(scope="module")
def spm_model():
    return TimingEvaluator(EvaluatorConfig(hidden=8, seed=2))


def _fresh_signoff(netlist, forest, coords):
    """The final stage recomputed by hand at ``coords``."""
    work = forest.copy()
    if not np.array_equal(coords, forest.get_steiner_coords()):
        work.set_steiner_coords(coords)
    grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
    rr = GlobalRouter(grid, RouterConfig()).route(work)
    assign_layers(rr, netlist.technology, grid.nx * grid.ny)
    detail = DetailedRouter(grid).route(work, rr)
    report = STAEngine(netlist).run(work, rr, utilization=grid.utilization_map())
    return rr, detail, report


def assert_flow_equals_fresh_signoff(netlist, forest, flow):
    rr, detail, report = _fresh_signoff(netlist, forest, flow.refinement.coords)
    assert flow.wns == report.wns
    assert flow.tns == report.tns
    assert flow.num_violations == report.num_violations
    assert flow.wirelength == detail.wirelength
    assert flow.num_vias == detail.num_vias
    assert flow.num_drvs == detail.num_drvs
    assert flow.overflow == rr.overflow
    got = flow.report
    assert got.arrival.tobytes() == report.arrival.tobytes()
    assert got.slew.tobytes() == report.slew.tobytes()
    assert got.slack == report.slack
    assert got.required == report.required
    assert got.net_load == report.net_load


class TestSignoffReuse:
    def test_hybrid_flow_signs_off_from_the_anchor(self, spm, spm_model, route_calls):
        netlist, forest = spm
        flow = run_routing_flow(netlist, forest, model=spm_model, refinement_config=_HYBRID)
        ref = flow.refinement
        assert ref.signoff_record is not None
        assert not np.array_equal(ref.coords, forest.get_steiner_coords())
        # Every route was a validator probe: the flow routed nothing.
        assert len(route_calls) == ref.validations
        assert flow.route_result is ref.signoff_record.route_result
        assert flow.report is ref.signoff_record.report
        assert (flow.wns, flow.tns) == (ref.signoff_wns, ref.signoff_tns)
        assert_flow_equals_fresh_signoff(netlist, forest, flow)

    def test_non_default_router_config_routes_fresh(self, spm, spm_model, route_calls):
        netlist, forest = spm
        flow = run_routing_flow(
            netlist, forest, model=spm_model, refinement_config=_HYBRID,
            router_config=RouterConfig(ripup_rounds=3),
        )
        assert len(route_calls) == flow.refinement.validations + 1

    def test_default_router_config_object_reuses(self, spm, spm_model, route_calls):
        netlist, forest = spm
        flow = run_routing_flow(
            netlist, forest, model=spm_model, refinement_config=_HYBRID,
            router_config=RouterConfig(),
        )
        assert len(route_calls) == flow.refinement.validations

    def test_expired_budget_routes_fresh(self, spm, spm_model, route_calls):
        from repro.runtime import Budget

        netlist, forest = spm
        # The initial anchor probe spends the only probe.
        budget = Budget(max_probes=1)
        flow = run_routing_flow(
            netlist, forest, model=spm_model, refinement_config=_HYBRID, budget=budget
        )
        assert flow.refinement.signoff_record is not None
        assert len(route_calls) == flow.refinement.validations + 1
        assert route_calls[-1] is budget

    def test_evaluator_acceptance_routes_fresh(self, spm, spm_model, route_calls):
        netlist, forest = spm
        cfg = RefinementConfig(max_iterations=2, acceptance="evaluator", polish_probes=0)
        flow = run_routing_flow(netlist, forest, model=spm_model, refinement_config=cfg)
        assert flow.refinement.signoff_record is None
        assert len(route_calls) == 1

    def test_degraded_validator_routes_fresh(self, spm, spm_model, route_calls, monkeypatch):
        netlist, forest = spm
        real = TSteiner._make_validator

        def flaky(netlist, forest, scenarios=None):
            inner = real(netlist, forest, scenarios)

            def validator(coords):
                if route_calls:  # only the initial anchor probe succeeds
                    raise RuntimeError("oracle down")
                out = inner(coords)
                validator.record = inner.record
                return out

            validator.record = None
            validator.reset = inner.reset
            return validator

        monkeypatch.setattr(TSteiner, "_make_validator", staticmethod(flaky))
        cfg = RefinementConfig(
            max_iterations=3, validate_every=1, polish_probes=2, validator_retries=0
        )
        flow = run_routing_flow(netlist, forest, model=spm_model, refinement_config=cfg)
        assert flow.refinement.degraded
        assert flow.refinement.signoff_record is None
        assert len(route_calls) == 2  # the anchor probe, then the flow

    def test_resumed_refine_without_record_routes_fresh(
        self, spm, spm_model, route_calls, tmp_path
    ):
        netlist, forest = spm
        cfg = RefinementConfig(max_iterations=2, validate_every=1, polish_probes=0)
        first = run_routing_flow(
            netlist, forest, model=spm_model, refinement_config=cfg, checkpoint_dir=tmp_path
        )
        assert first.refinement.signoff_record is not None
        del route_calls[:]
        resumed = run_routing_flow(
            netlist, forest, model=spm_model, refinement_config=cfg,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert resumed.refinement.resumed
        assert resumed.refinement.signoff_record is None
        assert len(route_calls) == 1
        assert (resumed.wns, resumed.tns, resumed.wirelength) == (
            first.wns, first.tns, first.wirelength
        )

    def test_mcmm_reuses_the_route_and_reruns_sta(self, spm, spm_model, route_calls, monkeypatch):
        from repro.mcmm import ScenarioSet

        netlist, forest = spm
        sta_calls = []
        real_run = STAEngine.run

        def counting_run(self, *args, **kwargs):
            sta_calls.append(args)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(STAEngine, "run", counting_run)
        flow = run_routing_flow(
            netlist, forest, model=spm_model, refinement_config=_HYBRID,
            scenarios=ScenarioSet.from_names(("typ", "slow_setup")),
        )
        ref = flow.refinement
        assert len(route_calls) == ref.validations
        assert flow.route_result is ref.signoff_record.route_result
        assert len(sta_calls) == 1  # the flow's own STA on the reused route
        assert flow.scenario_report is not ref.signoff_record.report
        assert flow.scenario_report.merged_wns == ref.signoff_record.report.merged_wns
        assert flow.scenario_report.merged_tns == ref.signoff_record.report.merged_tns

    def test_caller_engine_reruns_sta(self, spm, spm_model, route_calls):
        netlist, forest = spm
        flow = run_routing_flow(
            netlist, forest, model=spm_model, refinement_config=_HYBRID,
            engine=STAEngine(netlist),
        )
        ref = flow.refinement
        assert len(route_calls) == ref.validations
        assert flow.report is not ref.signoff_record.report
        assert_flow_equals_fresh_signoff(netlist, forest, flow)

    def test_record_is_not_reused_for_other_coordinates(self, spm, spm_model):
        from dataclasses import replace

        netlist, forest = spm
        flow = run_routing_flow(netlist, forest, model=spm_model, refinement_config=_HYBRID)
        ref = flow.refinement
        work = forest.copy()
        work.set_steiner_coords(ref.coords)
        assert _reusable_signoff(ref, work, None, None) is ref.signoff_record
        moved = ref.signoff_record.coords.copy()
        moved[0, 0] = np.nextafter(moved[0, 0], np.inf)
        ref.signoff_record = replace(ref.signoff_record, coords=moved)
        assert _reusable_signoff(ref, work, None, None) is None


@pytest.mark.bench_smoke
def test_des3_refine_signs_off_in_four_routes(route_calls):
    """The benchmark's refine op: des3@0.5, one iteration, two polish
    probes.  Four validator probes route; the flow signs off from the
    anchor's record without a fifth route."""
    netlist, forest = prepare_design("des3", scale=0.5)
    flow = run_routing_flow(
        netlist, forest,
        model=TimingEvaluator(EvaluatorConfig(hidden=8, seed=1)),
        refinement_config=RefinementConfig(max_iterations=1, polish_probes=2),
    )
    assert flow.refinement.validations == 4
    assert len(route_calls) == 4
    assert not np.array_equal(flow.refinement.coords, forest.get_steiner_coords())
    assert_flow_equals_fresh_signoff(netlist, forest, flow)
