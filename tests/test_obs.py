"""Telemetry subsystem tests (docs/OBSERVABILITY.md).

Contracts under test:

* the JSONL trace round-trips: write -> parse -> report;
* traces are *deterministic* under an injected clock and run id —
  byte-identical files for identical runs;
* telemetry is observation-only: ``refine`` returns bitwise-identical
  results with tracing on and off, and the ``NullTelemetry`` default
  costs (almost) nothing;
* span nesting survives injected faults — the stack unwinds, spans
  close with ``status="error"`` and the fault itself is recorded;
* ``refine_iter`` events exactly reconstruct ``RefinementResult.history``;
* checkpoints embed the writing run's id so ``--resume`` stitches
  traces; and ``python -m repro report`` renders all of it.
"""

import json
import logging
import time

import numpy as np
import pytest

from repro.core.refine import RefinementConfig, refine
from repro.flow.pipeline import prepare_design
from repro.obs import (
    NULL_TELEMETRY,
    SCHEMA_VERSION,
    NullTelemetry,
    Telemetry,
    bridge_logging,
    get_telemetry,
    set_telemetry,
    telemetry_session,
    unbridge_logging,
)
from repro.obs.report import TraceError, read_trace, render_report
from repro.obs.report import main as report_main
from repro.runtime import Budget, check_finite, faults, load_npz
from repro.runtime.budget import ManualClock
from repro.timing_model.graph import build_timing_graph

from tests.test_failure_injection import _QuadraticModel, _toy_validator


@pytest.fixture(scope="module")
def spm_design():
    netlist, forest = prepare_design("spm")
    graph = build_timing_graph(netlist, forest)
    return netlist, forest, graph


def _refine_cfg(**overrides):
    base = dict(
        max_iterations=6,
        converge_ratio=1e9,
        acceptance="evaluator",
        polish_probes=0,
    )
    base.update(overrides)
    return RefinementConfig(**base)


# ----------------------------------------------------------------------
# Core telemetry
# ----------------------------------------------------------------------
class TestTelemetryCore:
    def test_events_in_memory_without_path(self):
        with Telemetry(run_id="r1") as tel:
            tel.event("custom", value=3)
        kinds = [e["kind"] for e in tel.events]
        assert kinds == ["run_start", "custom", "metrics", "run_end"]
        assert all(e["run"] == "r1" for e in tel.events)
        assert [e["seq"] for e in tel.events] == list(range(len(tel.events)))
        assert tel.events[0]["schema"] == SCHEMA_VERSION

    def test_reserved_envelope_fields_rejected(self):
        tel = Telemetry(run_id="r1")
        with pytest.raises(ValueError, match="reserved"):
            tel.event("custom", run="sneaky")
        with pytest.raises(ValueError, match="reserved"):
            tel.event("custom", seq=0)

    def test_metrics_flush_on_close(self):
        tel = Telemetry(run_id="r1")
        tel.count("hits")
        tel.count("hits", 2)
        tel.gauge("level", 0.5)
        tel.hist("size", 1.0)
        tel.hist("size", 3.0)
        tel.close()
        tel.close()  # idempotent
        metrics = [e for e in tel.events if e["kind"] == "metrics"]
        assert len(metrics) == 1
        assert metrics[0]["counters"] == {"hits": 3}
        assert metrics[0]["gauges"] == {"level": 0.5}
        assert metrics[0]["hists"]["size"]["count"] == 2
        assert metrics[0]["hists"]["size"]["mean"] == 2.0
        assert metrics[0]["hists"]["size"]["min"] == 1.0
        assert metrics[0]["hists"]["size"]["max"] == 3.0

    def test_numpy_values_serialize(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Telemetry(path=path, run_id="r1") as tel:
            tel.event("custom", scalar=np.float64(1.5), vec=np.arange(3))
        ev = next(e for e in read_trace(path) if e["kind"] == "custom")
        assert ev["scalar"] == 1.5
        assert ev["vec"] == [0, 1, 2]

    def test_null_telemetry_is_inert(self):
        tel = NullTelemetry()
        assert tel.enabled is False and tel.run_id is None
        with tel.span("anything", k=1) as sp:
            sp.annotate(x=1)
        tel.event("custom", a=1)
        tel.count("c")
        tel.close()

    def test_global_session_installs_and_restores(self):
        assert get_telemetry() is NULL_TELEMETRY
        tel = Telemetry(run_id="r1")
        with telemetry_session(tel):
            assert get_telemetry() is tel
        assert get_telemetry() is NULL_TELEMETRY

    def test_deterministic_bytes_under_manual_clock(self, tmp_path):
        def run(path):
            clock = ManualClock()
            with Telemetry(path=path, clock=clock.now, run_id="fixed") as tel:
                with tel.span("stage", design="spm"):
                    clock.advance(0.25)
                    tel.count("sta.runs_flat")
                tel.event("custom", note="x")
                clock.advance(0.5)

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(a)
        run(b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()  # non-empty


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_parent_ids(self):
        tel = Telemetry(run_id="r1")
        with tel.span("outer"):
            with tel.span("inner"):
                pass
            with tel.span("inner2"):
                pass
        starts = {e["name"]: e for e in tel.events if e["kind"] == "span_start"}
        assert starts["outer"]["parent"] is None
        assert starts["inner"]["parent"] == starts["outer"]["span"]
        assert starts["inner2"]["parent"] == starts["outer"]["span"]
        assert starts["inner"]["span"] != starts["inner2"]["span"]

    def test_annotate_lands_on_span_end(self):
        tel = Telemetry(run_id="r1")
        with tel.span("stage") as sp:
            sp.annotate(iterations=4)
        end = next(e for e in tel.events if e["kind"] == "span_end")
        assert end["status"] == "ok"
        assert end["attrs"] == {"iterations": 4}

    def test_nesting_unwinds_under_injected_fault(self):
        """A fault raised mid-span closes every open span with
        status="error" and records the injection itself."""
        tel = Telemetry(run_id="r1")
        boom = faults.wrap(lambda: 1, faults.FaultSpec(at_call=2))
        with telemetry_session(tel):
            with tel.span("outer"):
                with tel.span("inner"):
                    boom()  # call 1: clean
            with pytest.raises(faults.FaultInjected):
                with tel.span("outer"):
                    with tel.span("inner"):
                        boom()  # call 2: injected fault
            # The stack unwound completely: a fresh span is a root again.
            with tel.span("after"):
                pass
        ends = [e for e in tel.events if e["kind"] == "span_end"]
        by_status = {}
        for e in ends:
            by_status.setdefault(e["status"], []).append(e["name"])
        assert sorted(by_status["ok"]) == ["after", "inner", "outer"]
        assert sorted(by_status["error"]) == ["inner", "outer"]
        assert all("FaultInjected" in e["error"] for e in ends if e["status"] == "error")
        injected = [e for e in tel.events if e["kind"] == "fault_injected"]
        assert len(injected) == 1 and injected[0]["call"] == 2
        after = next(
            e for e in tel.events if e["kind"] == "span_start" and e["name"] == "after"
        )
        assert after["parent"] is None


# ----------------------------------------------------------------------
# Instrumented runtime primitives
# ----------------------------------------------------------------------
class TestRuntimeInstrumentation:
    def test_budget_exhaustion_event_emitted_once(self):
        clock = ManualClock()
        budget = Budget(wall_seconds=1.0, clock=clock.now)
        tel = Telemetry(run_id="r1")
        with telemetry_session(tel):
            assert budget.expired() is False
            clock.advance(2.0)
            assert budget.expired() is True
            assert budget.expired() is True  # still expired, no second event
        events = [e for e in tel.events if e["kind"] == "budget_exhausted"]
        assert len(events) == 1
        assert events[0]["limit"] == "wall_seconds"
        assert events[0]["elapsed"] == 2.0

    def test_budget_restart_rearms_reporting(self):
        clock = ManualClock()
        budget = Budget(max_probes=1, clock=clock.now)
        tel = Telemetry(run_id="r1")
        with telemetry_session(tel):
            budget.spend_probe()
            assert budget.expired()
            budget.restart()
            budget.spend_probe()
            assert budget.expired()
        events = [e for e in tel.events if e["kind"] == "budget_exhausted"]
        assert len(events) == 2
        assert all(e["limit"] == "max_probes" for e in events)

    def test_nonfinite_guard_records_event_and_counter(self):
        tel = Telemetry(run_id="r1")
        with telemetry_session(tel):
            assert check_finite(float("nan"), "unit guard", "sanitize") is False
            assert check_finite(1.0, "unit guard", "sanitize") is True
        events = [e for e in tel.events if e["kind"] == "nonfinite"]
        assert len(events) == 1
        assert events[0]["what"] == "unit guard"
        assert events[0]["policy"] == "sanitize"
        assert tel.counters["guards.nonfinite"] == 1


# ----------------------------------------------------------------------
# Refinement tracing
# ----------------------------------------------------------------------
class TestRefineTelemetry:
    def test_refine_iter_events_reconstruct_history(self, spm_design):
        _, forest, graph = spm_design
        tel = Telemetry(run_id="r1")
        result = refine(
            _QuadraticModel(), graph, forest.get_steiner_coords(),
            _refine_cfg(), telemetry=tel,
        )
        tel.close()
        iters = [e for e in tel.events if e["kind"] == "refine_iter"]
        assert len(iters) == result.iterations == 6
        assert [e["i"] for e in iters] == list(range(result.iterations))
        assert [(e["wns"], e["tns"]) for e in iters] == result.history
        assert sum(1 for e in iters if e["accepted"]) == result.accepted
        assert all(np.isfinite(e["penalty"]) for e in iters)
        assert all(e["theta"] > 0 for e in iters)
        start = next(e for e in tel.events if e["kind"] == "refine_start")
        end = next(e for e in tel.events if e["kind"] == "refine_end")
        assert start["init_wns"] == result.init_wns
        assert start["init_tns"] == result.init_tns
        assert end["best_wns"] == result.best_wns
        assert end["best_tns"] == result.best_tns
        assert end["iterations"] == result.iterations
        assert end["accepted"] == result.accepted
        assert tel.counters["evaluator.backward"] >= result.iterations

    def test_hybrid_mode_counts_probes_and_reverts(self, spm_design):
        _, forest, graph = spm_design
        tel = Telemetry(run_id="r1")
        result = refine(
            _QuadraticModel(), graph, forest.get_steiner_coords(),
            _refine_cfg(acceptance="hybrid", validate_every=1, polish_probes=2),
            validator=_toy_validator, telemetry=tel,
        )
        tel.close()
        end = next(e for e in tel.events if e["kind"] == "refine_end")
        assert end["validations"] == result.validations
        assert end["validated_reverts"] == result.validated_reverts
        assert tel.counters["refine.validator_probes"] == result.validations

    def test_tracing_is_observation_only(self, spm_design):
        """refine() returns bitwise-identical results with tracing on/off."""
        _, forest, graph = spm_design
        coords0 = forest.get_steiner_coords()
        cfg = _refine_cfg(acceptance="hybrid", validate_every=2, polish_probes=2)
        assert get_telemetry() is NULL_TELEMETRY
        off = refine(_QuadraticModel(), graph, coords0, cfg, validator=_toy_validator)
        with telemetry_session(Telemetry(run_id="r1")) as tel:
            on = refine(
                _QuadraticModel(), graph, coords0, cfg, validator=_toy_validator
            )
            assert len([e for e in tel.events if e["kind"] == "refine_iter"]) > 0
        assert on.coords.tobytes() == off.coords.tobytes()
        assert on.history == off.history
        assert on.best_wns == off.best_wns
        assert on.best_tns == off.best_tns
        assert on.accepted == off.accepted
        assert on.validations == off.validations

    def test_checkpoint_embeds_run_id_and_resume_stitches(self, spm_design, tmp_path):
        _, forest, graph = spm_design
        coords0 = forest.get_steiner_coords()
        ckpt = tmp_path / "refine.npz"
        cfg = _refine_cfg(max_iterations=4)
        with Telemetry(run_id="original") as tel1:
            refine(
                _QuadraticModel(), graph, coords0, cfg,
                checkpoint_path=ckpt, telemetry=tel1,
            )
        meta = load_npz(ckpt)["meta"]
        assert meta["telemetry_run"] == "original"
        assert meta["telemetry_schema"] == SCHEMA_VERSION

        with Telemetry(run_id="continuation", parent_run="original") as tel2:
            refine(
                _QuadraticModel(), graph, coords0, cfg,
                checkpoint_path=ckpt, resume=True, telemetry=tel2,
            )
        resume_ev = next(
            e for e in tel2.events if e["kind"] == "checkpoint_resume"
        )
        assert resume_ev["what"] == "refine"
        assert resume_ev["parent_run"] == "original"
        assert tel2.events[0]["parent_run"] == "original"


# ----------------------------------------------------------------------
# Report CLI
# ----------------------------------------------------------------------
class TestReport:
    def _trace_file(self, spm_design, tmp_path):
        _, forest, graph = spm_design
        path = tmp_path / "run.jsonl"
        with Telemetry(path=path, run_id="report-run") as tel:
            with telemetry_session(tel):
                with tel.span("flow.tsteiner", design="spm"):
                    refine(
                        _QuadraticModel(), graph, forest.get_steiner_coords(),
                        _refine_cfg(), telemetry=tel,
                    )
        return path

    def test_roundtrip_write_parse_report(self, spm_design, tmp_path):
        path = self._trace_file(spm_design, tmp_path)
        events = read_trace(path)
        assert events[0]["kind"] == "run_start"
        assert events[-1]["kind"] == "run_end"
        text = render_report(events)
        assert "Telemetry run report-run" in text
        assert "flow.tsteiner" in text
        assert "Refinement" in text
        assert "6 iterations" in text
        assert "Counters" in text
        assert "evaluator.backward" in text

    def test_cli_exit_codes(self, spm_design, tmp_path, capsys):
        path = self._trace_file(spm_design, tmp_path)
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry run report-run" in out
        assert report_main([str(tmp_path / "absent.jsonl")]) == 1

    def test_repro_main_dispatches_report(self, spm_design, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        path = self._trace_file(spm_design, tmp_path)
        assert repro_main(["report", str(path)]) == 0
        assert "Telemetry run report-run" in capsys.readouterr().out

    def test_final_signoff_source_is_reported(self, spm_design):
        """The flow spans say where the final route and STA came from,
        and the report prints it per flow."""
        from repro.flow.pipeline import run_routing_flow
        from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

        netlist, forest, _ = spm_design
        tel = Telemetry(run_id="signoff-source")
        model = TimingEvaluator(EvaluatorConfig(hidden=8, seed=2))
        cfg = RefinementConfig(max_iterations=2, validate_every=1, polish_probes=4)
        run_routing_flow(netlist, forest, telemetry=tel)
        run_routing_flow(netlist, forest, model=model, refinement_config=cfg, telemetry=tel)
        tel.close()
        reused = [
            e["attrs"]["signoff_reused"]
            for e in tel.events
            if e["kind"] == "span_start" and e["name"] in ("flow.groute", "flow.sta")
        ]
        assert reused == [False, False, True, True]
        text = render_report(tel.events)
        assert "Final sign-off source (per flow)" in text
        assert "spm: route from flow route, STA from flow STA" in text
        assert (
            "spm: route from validator anchor probe, STA from validator anchor probe"
            in text
        )

    def test_malformed_trace_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        with pytest.raises(TraceError):
            read_trace(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceError):
            read_trace(empty)

    def test_newer_schema_warns(self, tmp_path, capsys):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "run_start", "run": "x", "seq": 0, "t": 0.0,
                 "schema": SCHEMA_VERSION + 1}
            )
            + "\n"
        )
        assert report_main([str(path)]) == 0
        assert "newer than this reader" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Logging bridge
# ----------------------------------------------------------------------
class TestLogBridge:
    def test_records_become_log_events(self):
        tel = Telemetry(run_id="r1")
        handler = bridge_logging(tel)
        try:
            logging.getLogger("repro.train").warning("loss diverged %d", 7)
        finally:
            unbridge_logging(handler)
        ev = next(e for e in tel.events if e["kind"] == "log")
        assert ev["level"] == "WARNING"
        assert ev["logger"] == "repro.train"
        assert ev["message"] == "loss diverged 7"

    def test_train_epoch_logging_routes_through_logger(self, spm_design):
        """timing_model.train logs epochs via the repro logger (no print)."""
        from repro.timing_model.train import _log

        assert _log.name == "repro.train"


# ----------------------------------------------------------------------
# Overhead budget
# ----------------------------------------------------------------------
@pytest.mark.obs_overhead
def test_tracing_overhead_within_budget(spm_design):
    """In-memory tracing must stay well under a 1.5x refine() slowdown."""
    _, forest, graph = spm_design
    coords0 = forest.get_steiner_coords()
    cfg = _refine_cfg(max_iterations=12)

    def timed(telemetry):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            refine(_QuadraticModel(), graph, coords0, cfg, telemetry=telemetry)
            best = min(best, time.perf_counter() - t0)
        return best

    refine(_QuadraticModel(), graph, coords0, cfg)  # warm caches
    off = timed(None)
    on = timed(Telemetry(run_id="overhead"))
    assert on <= off * 1.5 + 0.05, f"tracing overhead too high: {on:.4f}s vs {off:.4f}s"
