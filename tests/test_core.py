"""Tests for TSteiner core: penalty smoothing, adaptive theta, Algorithm 1."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.core.adaptive import adaptive_theta
from repro.core.penalty import PenaltyConfig, hard_metrics, smoothed_penalty
from repro.core.refine import RefinementConfig, refine
from repro.core.tsteiner import TSteiner
from repro.flow.pipeline import prepare_design
from repro.timing_model.graph import build_timing_graph
from repro.timing_model.model import EvaluatorConfig, TimingEvaluator


class TestPenalty:
    def setup_method(self):
        self.endpoints = np.array([0, 1, 2])
        self.required = np.array([1.0, 1.0, 1.0])

    def arrivals(self, values):
        return Tensor(np.array(values, dtype=np.float64))

    def test_hard_metrics(self):
        wns, tns, vios = hard_metrics(
            np.array([1.5, 0.5, 2.0]), self.endpoints, self.required
        )
        assert wns == -1.0
        assert abs(tns - (-1.5)) < 1e-12
        assert vios == 2

    def test_smoothed_wns_lower_bounds_hard(self):
        cfg = PenaltyConfig(gamma=5.0)
        arr = self.arrivals([1.5, 0.5, 2.0])
        _, wns_s, _ = smoothed_penalty(arr, self.endpoints, self.required, cfg)
        hard_wns, _, _ = hard_metrics(arr.data, self.endpoints, self.required)
        assert wns_s.item() <= hard_wns + 1e-9

    def test_smoothed_converges_as_gamma_shrinks(self):
        arr = self.arrivals([1.5, 0.5, 2.0])
        hard_wns, hard_tns, _ = hard_metrics(arr.data, self.endpoints, self.required)
        cfg = PenaltyConfig(gamma=0.01)
        _, wns_s, tns_s = smoothed_penalty(arr, self.endpoints, self.required, cfg)
        assert abs(wns_s.item() - hard_wns) < 0.05
        assert abs(tns_s.item() - hard_tns) < 0.1

    def test_penalty_gradient_covers_all_paths(self):
        # With large gamma every endpoint receives gradient (the point
        # of the smoothing; a hard min would hit only the worst one).
        arr = Tensor(np.array([1.5, 0.5, 2.0]), requires_grad=True)
        cfg = PenaltyConfig(gamma=10.0)
        p, _, _ = smoothed_penalty(arr, self.endpoints, self.required, cfg)
        p.backward()
        assert np.all(np.abs(arr.grad) > 0)

    def test_penalty_descent_improves_slack(self):
        # Gradient of P w.r.t. arrival must be positive (arrival down ->
        # P down) given negative lambdas.
        arr = Tensor(np.array([1.5, 0.5, 2.0]), requires_grad=True)
        cfg = PenaltyConfig()
        p, _, _ = smoothed_penalty(arr, self.endpoints, self.required, cfg)
        p.backward()
        assert np.all(arr.grad > 0)

    def test_escalated(self):
        cfg = PenaltyConfig(lambda_wns=-200.0, lambda_tns=-2.0)
        esc = cfg.escalated(1.01)
        assert abs(esc.lambda_wns - (-202.0)) < 1e-12
        assert esc.gamma == cfg.gamma


class TestAdaptiveTheta:
    def test_quadratic_recovers_inverse_curvature(self):
        # P(x) = 0.5 * c * ||x||^2 -> grad = c*x; theta should be 1/c.
        c = 4.0
        theta = adaptive_theta(
            np.array([[1.0, 2.0]]), lambda x: c * x, alpha=0.5
        )
        assert abs(theta - 1.0 / c) < 1e-9

    def test_zero_gradient_falls_back(self):
        theta = adaptive_theta(
            np.ones((3, 2)), lambda x: np.zeros_like(x), fallback=2.5
        )
        assert theta == 2.5

    def test_constant_gradient_falls_back(self):
        theta = adaptive_theta(
            np.ones((3, 2)), lambda x: np.ones_like(x), fallback=1.5
        )
        assert theta == 1.5

    def test_empty_coords(self):
        assert adaptive_theta(np.zeros((0, 2)), lambda x: x, fallback=3.0) == 3.0

    def test_capped(self):
        theta = adaptive_theta(
            np.array([[1.0, 1.0]]), lambda x: 1e-9 * x, alpha=1.0, max_theta=10.0
        )
        assert theta <= 10.0


@pytest.fixture(scope="module")
def spm_setup():
    netlist, forest = prepare_design("spm")
    graph = build_timing_graph(netlist, forest)
    model = TimingEvaluator(EvaluatorConfig(hidden=8))
    return netlist, forest, graph, model


class TestRefine:
    def test_runs_and_reports(self, spm_setup):
        _, forest, graph, model = spm_setup
        cfg = RefinementConfig(max_iterations=5, acceptance="evaluator", polish_probes=0)
        result = refine(model, graph, forest.get_steiner_coords(), cfg)
        assert result.iterations <= 5
        assert result.coords.shape == forest.get_steiner_coords().shape
        assert len(result.history) == result.iterations

    def test_respects_boundary_clamp(self, spm_setup):
        netlist, forest, graph, model = spm_setup
        cfg = RefinementConfig(max_iterations=10, acceptance="evaluator", polish_probes=0)
        result = refine(
            model, graph, forest.get_steiner_coords(), cfg, clamp_fn=forest.clamp_coords
        )
        assert result.coords[:, 0].min() >= 0.0
        assert result.coords[:, 0].max() <= netlist.die_width
        assert result.coords[:, 1].max() <= netlist.die_height

    def test_coordinate_mismatch_rejected(self, spm_setup):
        _, _, graph, model = spm_setup
        with pytest.raises(ValueError):
            refine(model, graph, np.zeros((0, 2)), RefinementConfig(max_iterations=3))

    def test_iteration_cap_respected(self, spm_setup):
        _, forest, graph, model = spm_setup
        cfg = RefinementConfig(max_iterations=3, acceptance="evaluator", polish_probes=0)
        result = refine(model, graph, forest.get_steiner_coords(), cfg)
        assert result.iterations <= 3

    def test_evaluator_mode_never_accepts_worse_predicted(self, spm_setup):
        _, forest, graph, model = spm_setup
        cfg = RefinementConfig(max_iterations=15, acceptance="evaluator", polish_probes=0)
        result = refine(model, graph, forest.get_steiner_coords(), cfg)
        assert result.best_wns >= result.init_wns or result.best_tns >= result.init_tns or result.accepted == 0

    def test_unknown_optimizer_rejected(self, spm_setup):
        _, forest, graph, model = spm_setup
        cfg = RefinementConfig(optimizer="bogus")
        with pytest.raises(ValueError):
            refine(model, graph, forest.get_steiner_coords(), cfg)

    def test_adam_variant_runs(self, spm_setup):
        _, forest, graph, model = spm_setup
        cfg = RefinementConfig(
            max_iterations=4, optimizer="adam", acceptance="evaluator", polish_probes=0
        )
        result = refine(model, graph, forest.get_steiner_coords(), cfg)
        assert result.iterations <= 4

    def test_hybrid_with_validator_never_worse(self, spm_setup):
        _, forest, graph, model = spm_setup

        # A synthetic validator: true objective = negative total move
        # distance (any move is bad) -> refine must return the initial.
        initial = forest.get_steiner_coords()

        def validator(coords):
            dist = float(np.abs(coords - initial).sum())
            return -1.0 - dist, -10.0 - dist

        cfg = RefinementConfig(max_iterations=6, validate_every=1, polish_probes=4)
        result = refine(
            model, graph, initial, cfg, clamp_fn=forest.clamp_coords, validator=validator
        )
        assert np.allclose(result.coords, initial)

    def test_hybrid_harvests_improving_validator(self, spm_setup):
        _, forest, graph, model = spm_setup
        initial = forest.get_steiner_coords()
        target = initial + 3.0

        # True objective improves as points approach `target`.
        def validator(coords):
            dist = float(np.abs(coords - target).sum())
            return -dist, -10.0 * dist

        cfg = RefinementConfig(max_iterations=10, validate_every=1, polish_probes=20)
        result = refine(
            model, graph, initial, cfg, clamp_fn=forest.clamp_coords, validator=validator
        )
        d0 = np.abs(initial - target).sum()
        d1 = np.abs(result.coords - target).sum()
        assert d1 < d0  # moved toward the true optimum


class TestTSteinerFacade:
    def test_optimize_returns_result_and_forest_valid(self, spm_setup):
        netlist, forest, _, model = spm_setup
        work = forest.copy()
        optimizer = TSteiner(
            model,
            RefinementConfig(max_iterations=4, validate_every=2, polish_probes=6),
        )
        result = optimizer.optimize(netlist, work)
        work.validate()
        assert result.iterations >= 1

    def test_hybrid_reports_predicted_and_signoff_apart(self, spm_setup):
        """The result, the refine_end event, the tsteiner span and the
        report carry evaluator-predicted and sign-off values, labelled."""
        from repro.obs import Telemetry
        from repro.obs.report import render_report

        netlist, forest, _, model = spm_setup
        work = forest.copy()
        tel = Telemetry(run_id="hybrid")
        optimizer = TSteiner(
            model,
            RefinementConfig(max_iterations=4, validate_every=2, polish_probes=6),
        )
        result = optimizer.optimize(netlist, work, telemetry=tel)
        tel.close()

        def signoff(coords):
            return TSteiner._make_validator(netlist, forest.copy())(coords)

        initial = forest.get_steiner_coords()
        assert (result.signoff_init_wns, result.signoff_init_tns) == signoff(initial)
        assert (result.signoff_wns, result.signoff_tns) == signoff(result.coords)
        # The untrained evaluator's prediction is not the sign-off value.
        assert result.best_wns != result.signoff_wns

        end = next(e for e in tel.events if e["kind"] == "refine_end")
        for name in ("signoff_init_wns", "signoff_init_tns", "signoff_wns", "signoff_tns"):
            assert end[name] == getattr(result, name), name
        assert (end["best_wns"], end["best_tns"]) == (result.best_wns, result.best_tns)
        span = next(
            e for e in tel.events
            if e["kind"] == "span_end" and e["name"] == "tsteiner.refine"
        )
        assert span["attrs"]["predicted_wns"] == result.best_wns
        assert span["attrs"]["signoff_wns"] == result.signoff_wns
        text = render_report(tel.events)
        assert "predicted (evaluator)" in text
        assert "sign-off (route+STA)" in text

    def test_evaluator_mode_leaves_signoff_unset(self, spm_setup):
        _, forest, graph, model = spm_setup
        cfg = RefinementConfig(max_iterations=2, acceptance="evaluator", polish_probes=0)
        result = refine(model, graph, forest.get_steiner_coords(), cfg)
        assert result.signoff_wns is None and result.signoff_init_wns is None

    def test_evaluator_mode_rounds_coords(self, spm_setup):
        netlist, forest, _, model = spm_setup
        work = forest.copy()
        optimizer = TSteiner(
            model,
            RefinementConfig(max_iterations=3, acceptance="evaluator", polish_probes=0),
        )
        optimizer.optimize(netlist, work)
        coords = work.get_steiner_coords()
        assert np.allclose(coords, np.round(coords * 100) / 100)
