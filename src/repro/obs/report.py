"""Run-report CLI: render a trace JSONL into a text summary.

Usage::

    python -m repro report <trace.jsonl>

Sections rendered (each only when the trace contains the data):

* run header — run id, schema version, event count, wall span, and the
  parent run when the trace was stitched onto a checkpointed original;
* per-stage time breakdown — span durations aggregated by name;
* refinement trajectory — one line per ``refine`` invocation
  reconstructed from ``refine_start``/``refine_iter``/``refine_end``;
* final sign-off source — per flow, whether the route and the STA
  report came from the validator's anchor probe or were run by the
  flow (``signoff_reused`` on the ``flow.groute``/``flow.sta`` spans);
* MCMM sign-off — per-scenario and merged WNS/TNS from the flow's
  ``mcmm_report`` events (docs/MCMM.md);
* hold sign-off — WHS and hold violations from ``hold_report`` events;
* ECO — accepted-op counts, digests and WNS/TNS deltas from
  ``eco_report`` events (docs/ECO.md);
* training — per ``train_evaluator`` invocation;
* metric registry — counters, gauges and histogram summaries from the
  final ``metrics`` event;
* notable events — budget exhaustion, injected faults, non-finite
  guards, stage errors, log records by level.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs.telemetry import SCHEMA_VERSION


class TraceError(ValueError):
    """The file is not a readable telemetry trace."""


def read_trace(
    path: Union[str, Path], strict: bool = True
) -> List[Dict[str, Any]]:
    """Parse one JSONL trace; raises :class:`TraceError` on bad input.

    ``strict=False`` reads a trace that is still being written (or died
    mid-write): undecodable lines — typically a truncated final line —
    and non-event records are skipped instead of raising, and an empty
    trace returns ``[]``.  The watch CLI and the degenerate-trace tests
    use this mode.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace not found: {path}")
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise TraceError(
                        f"{path}:{lineno}: invalid JSON ({exc})"
                    ) from exc
                continue
            if not isinstance(record, dict) or "kind" not in record:
                if strict:
                    raise TraceError(f"{path}:{lineno}: not a telemetry event")
                continue
            events.append(record)
    if not events and strict:
        raise TraceError(f"{path}: empty trace")
    return events


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    """Minimal fixed-width text table (keeps this module zero-dep)."""
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return lines


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def summarize_spans(events: Sequence[Dict[str, Any]]) -> "OrderedDict[str, Dict[str, float]]":
    """Aggregate ``span_end`` durations by span name (insertion order)."""
    spans: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
    for ev in events:
        if ev.get("kind") != "span_end":
            continue
        name = str(ev.get("name", "?"))
        agg = spans.setdefault(name, {"count": 0, "total": 0.0, "errors": 0})
        agg["count"] += 1
        agg["total"] += float(ev.get("dur", 0.0))
        if ev.get("status") == "error":
            agg["errors"] += 1
    return spans


def summarize_refinements(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One summary dict per ``refine`` invocation found in the trace."""
    runs: List[Dict[str, Any]] = []
    current: Optional[Dict[str, Any]] = None
    for ev in events:
        kind = ev.get("kind")
        if kind == "refine_start":
            current = {"start": ev, "iters": [], "end": None}
            runs.append(current)
        elif kind == "refine_iter":
            if current is None:
                current = {"start": None, "iters": [], "end": None}
                runs.append(current)
            current["iters"].append(ev)
        elif kind == "refine_end":
            if current is None:
                current = {"start": None, "iters": [], "end": None}
                runs.append(current)
            current["end"] = ev
            current = None
    return runs


def summarize_signoff_sources(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One ``{design, route, sta}`` dict per flow: whether its final
    route and STA report were reused from the validator's anchor probe
    (``signoff_reused`` on ``flow.groute``/``flow.sta``; ``sta`` stays
    None when the flow ran no STA)."""
    flows: List[Dict[str, Any]] = []
    for ev in events:
        if ev.get("kind") != "span_start":
            continue
        attrs = ev.get("attrs") or {}
        if "signoff_reused" not in attrs:
            continue
        design = attrs.get("design", "?")
        if ev.get("name") == "flow.groute":
            flows.append({"design": design, "route": bool(attrs["signoff_reused"]), "sta": None})
        elif ev.get("name") == "flow.sta":
            for flow in reversed(flows):
                if flow["design"] == design and flow["sta"] is None:
                    flow["sta"] = bool(attrs["signoff_reused"])
                    break
    return flows


def summarize_serving(events: Sequence[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Aggregate the ``job_*``/``worker_*`` event stream of the service.

    Returns None when the trace has no serving events (docs/SERVING.md).
    """
    served = [e for e in events if e.get("kind") == "job_done"]
    quarantined = [e for e in events if e.get("kind") == "job_quarantined"]
    shed = [e for e in events if e.get("kind") == "job_shed"]
    degraded = [e for e in events if e.get("kind") == "job_degraded"]
    if not (served or quarantined or shed or degraded):
        return None
    kinds: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
    for ev in served:
        kind = str(ev.get("job_kind", "?"))
        s = kinds.setdefault(
            kind,
            {
                "done": 0,
                "retried": 0,
                "stale": 0,
                "timed_out": 0,
                "latencies": [],
            },
        )
        s["done"] += 1
        if int(ev.get("attempts", 1)) > 1:
            s["retried"] += 1
        if ev.get("stale"):
            s["stale"] += 1
        if ev.get("timed_out"):
            s["timed_out"] += 1
        s["latencies"].append(float(ev.get("latency", 0.0)))
    for s in kinds.values():
        lat = sorted(s.pop("latencies"))
        s["mean_latency"] = sum(lat) / len(lat) if lat else 0.0
        s["max_latency"] = lat[-1] if lat else 0.0
        for name, q in (("p50_latency", 0.5), ("p90_latency", 0.9), ("p99_latency", 0.99)):
            if lat:
                rank = max(1, int(-(-q * len(lat) // 1)))  # ceil(q*n)
                s[name] = lat[min(rank, len(lat)) - 1]
            else:
                s[name] = 0.0
    chaos: Dict[str, int] = {}
    for ev in events:
        kind = ev.get("kind")
        if kind in ("chaos_kill", "chaos_delay", "chaos_corrupt"):
            chaos[kind] = chaos.get(kind, 0) + 1
    # Query fusion (serve/batcher.py): fused dispatches and the member
    # jobs they coalesced.
    batch_events = [e for e in events if e.get("kind") == "batch_dispatch"]
    fused_jobs = sum(int(e.get("width", 0)) for e in batch_events)
    done_total = len(served)
    return {
        "kinds": kinds,
        "quarantined": len(quarantined),
        "shed": len(shed),
        "degraded": len(degraded),
        "worker_deaths": sum(1 for e in events if e.get("kind") == "worker_killed"),
        "worker_restarts": sum(
            1 for e in events if e.get("kind") == "worker_restarted"
        ),
        "checkpoint_resets": sum(
            1 for e in events if e.get("kind") == "serve_checkpoint_reset"
        ),
        "chaos": chaos,
        "batches": len(batch_events),
        "fused_jobs": fused_jobs,
        "mean_batch_width": fused_jobs / len(batch_events) if batch_events else 0.0,
        "fusion_ratio": fused_jobs / done_total if done_total else 0.0,
        "shard_kills": sum(1 for e in events if e.get("kind") == "shard_killed"),
        "shard_restarts": sum(
            1 for e in events if e.get("kind") == "shard_restarted"
        ),
        "redispatched": sum(
            1 for e in events if e.get("kind") == "job_redispatched"
        ),
    }


def _final_metrics(events: Sequence[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    for ev in reversed(events):
        if ev.get("kind") == "metrics":
            return ev
    return None


def summarize_slo(events: Sequence[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """SLO alert history and final objective state from a trace.

    Returns None when the trace carries no SLO events (the engine was
    not configured).  ``transitions`` preserves event order so fire →
    clear sequences render faithfully.
    """
    transitions = [
        e for e in events if e.get("kind") in ("slo_alert", "slo_clear")
    ]
    status = next(
        (e for e in reversed(events) if e.get("kind") == "slo_status"), None
    )
    if not transitions and status is None:
        return None
    return {
        "transitions": transitions,
        "objectives": (status or {}).get("objectives") or [],
        "firing": (status or {}).get("firing") or [],
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_report(
    events: Sequence[Dict[str, Any]],
    profile: bool = False,
    top: int = 15,
) -> str:
    lines: List[str] = []
    start = next((e for e in events if e.get("kind") == "run_start"), None)
    run_id = (start or events[0]).get("run", "?")
    schema = (start or {}).get("schema", "?")
    times = [float(e["t"]) for e in events if "t" in e]
    wall = (max(times) - min(times)) if times else 0.0
    lines.append(
        f"Telemetry run {run_id} (schema {schema}) — "
        f"{len(events)} events, {wall:.3f} s span"
    )
    if start is not None and start.get("parent_run"):
        lines.append(f"  stitched onto parent run {start['parent_run']} (checkpoint resume)")
    resumes = [e for e in events if e.get("kind") == "checkpoint_resume"]
    for ev in resumes:
        lines.append(
            f"  resumed {ev.get('what', 'state')} from checkpoint of run "
            f"{ev.get('parent_run') or '<untraced>'}"
        )

    spans = summarize_spans(events)
    if spans:
        grand = sum(a["total"] for a in spans.values()) or 1.0
        rows = []
        for name, agg in sorted(spans.items(), key=lambda kv: -kv[1]["total"]):
            mean_ms = 1e3 * agg["total"] / agg["count"] if agg["count"] else 0.0
            rows.append(
                [
                    name,
                    agg["count"],
                    f"{agg['total']:.4f}",
                    f"{mean_ms:.2f}",
                    f"{100.0 * agg['total'] / grand:.1f}%",
                    agg["errors"],
                ]
            )
        lines.append("")
        lines.append("Stage timing (spans)")
        lines.extend(_table(["stage", "count", "total_s", "mean_ms", "share", "errors"], rows))

    if profile:
        from repro.obs.profile import render_profile, summarize_profile

        prof = summarize_profile(events, top=top)
        lines.append("")
        if prof is None:
            lines.append("Profile: no spans in trace")
        else:
            lines.extend(render_profile(prof))

    refinements = summarize_refinements(events)
    if refinements:
        lines.append("")
        lines.append("Refinement")
        for i, run in enumerate(refinements):
            end = run["end"] or {}
            start_ev = run["start"] or {}
            iters = run["iters"]
            accepted = sum(1 for ev in iters if ev.get("accepted"))
            init_wns = start_ev.get("init_wns", end.get("init_wns"))
            init_tns = start_ev.get("init_tns", end.get("init_tns"))
            lines.append(
                f"  run {i}: {len(iters)} iterations, {accepted} accepted, "
                f"{end.get('validated_reverts', 0)} validated reverts, "
                f"{end.get('skipped_steps', 0)} skipped, "
                f"{end.get('validations', 0)} oracle probes, "
                f"{end.get('checkpoint_saves', 0)} checkpoint saves"
            )
            if init_wns is not None and end.get("best_wns") is not None:
                lines.append(
                    f"    predicted (evaluator)  WNS {_fmt(float(init_wns))} -> "
                    f"{_fmt(float(end['best_wns']))}   TNS {_fmt(float(init_tns))} -> "
                    f"{_fmt(float(end['best_tns']))}"
                )
            if end.get("signoff_wns") is not None:
                lines.append(
                    f"    sign-off (route+STA)   WNS {_fmt(end.get('signoff_init_wns'))} -> "
                    f"{_fmt(end['signoff_wns'])}   TNS {_fmt(end.get('signoff_init_tns'))} -> "
                    f"{_fmt(end['signoff_tns'])}"
                )
            flags = [
                f for f in ("timed_out", "degraded", "resumed") if end.get(f)
            ]
            if flags:
                lines.append(f"    flags: {', '.join(flags)}")

    sources = summarize_signoff_sources(events)
    if sources:
        lines.append("")
        lines.append("Final sign-off source (per flow)")
        for flow in sources:
            route = "validator anchor probe" if flow["route"] else "flow route"
            sta = {True: "validator anchor probe", False: "flow STA", None: "not run"}[flow["sta"]]
            lines.append(f"  {flow['design']}: route from {route}, STA from {sta}")

    mcmm_events = [e for e in events if e.get("kind") == "mcmm_report"]
    if mcmm_events:
        lines.append("")
        lines.append("MCMM sign-off (per design, last report)")
        latest: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        for ev in mcmm_events:
            latest[str(ev.get("design", "?"))] = ev
        for design, ev in latest.items():
            lines.append(
                f"  {design}: merged WNS {_fmt(float(ev.get('merged_wns', 0.0)))}, "
                f"TNS {_fmt(float(ev.get('merged_tns', 0.0)))}, "
                f"{ev.get('merged_violations', 0)} violations"
            )
            rows = [
                [s.get("name", "?"), s.get("check", "?"),
                 float(s.get("wns", 0.0)), float(s.get("tns", 0.0)),
                 s.get("violations", 0)]
                for s in (ev.get("scenarios") or [])
            ]
            if rows:
                lines.extend(
                    "    " + ln
                    for ln in _table(["scenario", "check", "wns", "tns", "viol"], rows)
                )

    hold_events = [e for e in events if e.get("kind") == "hold_report"]
    if hold_events:
        lines.append("")
        lines.append("Hold sign-off (per design, last report)")
        latest_hold: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        for ev in hold_events:
            latest_hold[str(ev.get("design", "?"))] = ev
        for design, ev in latest_hold.items():
            lines.append(
                f"  {design}: WHS {_fmt(float(ev.get('whs', 0.0)))}, "
                f"{ev.get('violations', 0)} violations over "
                f"{ev.get('endpoints', 0)} endpoints"
            )

    eco_events = [e for e in events if e.get("kind") == "eco_report"]
    if eco_events:
        lines.append("")
        lines.append("ECO (closed-loop sign-off repair, last run per design/arm)")
        latest_eco: "OrderedDict[tuple, Dict[str, Any]]" = OrderedDict()
        for ev in eco_events:
            key = (str(ev.get("design", "?")), str(ev.get("arm", "?")))
            latest_eco[key] = ev
        rows = [
            [design, ev.get("arm", "?"), ev.get("accepted", 0),
             float(ev.get("initial_wns") or 0.0),
             float(ev.get("final_wns") or 0.0),
             float(ev.get("initial_tns") or 0.0),
             float(ev.get("final_tns") or 0.0),
             float(ev.get("area_delta") or 0.0),
             ev.get("digest", "?")]
            for (design, _arm), ev in latest_eco.items()
        ]
        lines.extend(
            "  " + ln
            for ln in _table(
                ["design", "arm", "ops", "wns0", "wns1", "tns0", "tns1",
                 "area+", "digest"],
                rows,
            )
        )

    serving = summarize_serving(events)
    if serving is not None:
        lines.append("")
        lines.append("Serving (sign-off job service)")
        rows = [
            [kind, s["done"], s["retried"], s["stale"], s["timed_out"],
             _fmt(s["p50_latency"]), _fmt(s["p90_latency"]),
             _fmt(s["p99_latency"]), _fmt(s["max_latency"])]
            for kind, s in serving["kinds"].items()
        ]
        if rows:
            lines.extend(
                "  " + ln
                for ln in _table(
                    ["job kind", "done", "retried", "stale", "timeo",
                     "p50_s", "p90_s", "p99_s", "max_s"],
                    rows,
                )
            )
        lines.append(
            f"  quarantined {serving['quarantined']}, shed {serving['shed']}, "
            f"degraded (stale answers) {serving['degraded']}"
        )
        if serving["batches"]:
            lines.append(
                f"  batching: {serving['batches']} fused dispatches, "
                f"{serving['fused_jobs']} member jobs, "
                f"mean width {serving['mean_batch_width']:.2f}, "
                f"fusion ratio {serving['fusion_ratio']:.2f}"
            )
        if serving["shard_kills"] or serving["redispatched"]:
            lines.append(
                f"  sharding: {serving['shard_kills']} shard kills, "
                f"{serving['shard_restarts']} restarts, "
                f"{serving['redispatched']} jobs redispatched"
            )
        if serving["worker_deaths"] or serving["chaos"]:
            chaos = serving["chaos"]
            lines.append(
                f"  worker deaths {serving['worker_deaths']} "
                f"(restarts {serving['worker_restarts']}); chaos: "
                f"kills {chaos.get('chaos_kill', 0)}, "
                f"delays {chaos.get('chaos_delay', 0)}, "
                f"corruptions {chaos.get('chaos_corrupt', 0)}, "
                f"checkpoint resets {serving['checkpoint_resets']}"
            )

    slo = summarize_slo(events)
    if slo is not None:
        lines.append("")
        lines.append("SLO (burn-rate alerts)")
        for ev in slo["transitions"]:
            verb = "FIRED" if ev["kind"] == "slo_alert" else "cleared"
            lines.append(
                f"  t={float(ev.get('t', 0.0)):.3f}  {ev.get('slo', '?')} "
                f"({ev.get('job_kind', '*')}, target "
                f"{_fmt(float(ev.get('target', 0.0)))}) {verb}"
            )
        rows = []
        for obj in slo["objectives"]:
            rows.append(
                [
                    obj.get("name", "?"),
                    obj.get("kind", "*"),
                    _fmt(float(obj.get("target", 0.0))),
                    obj.get("events", 0),
                    obj.get("bad", 0),
                    obj.get("fired_total", 0),
                    obj.get("cleared_total", 0),
                    "FIRING" if obj.get("firing") else "ok",
                ]
            )
        if rows:
            lines.extend(
                "  " + ln
                for ln in _table(
                    ["objective", "kind", "target", "events", "bad",
                     "fired", "cleared", "state"],
                    rows,
                )
            )
        if slo["firing"]:
            lines.append(
                "  still firing at shutdown: " + ", ".join(slo["firing"])
            )

    epochs = [e for e in events if e.get("kind") == "train_epoch"]
    if epochs:
        last = epochs[-1]
        finite = [float(e["loss"]) for e in epochs if e.get("loss") == e.get("loss")]
        lines.append("")
        lines.append(
            f"Training: {len(epochs)} epochs, final loss "
            f"{_fmt(float(last.get('loss', float('nan'))))}"
            + (f", best {_fmt(min(finite))}" if finite else "")
        )

    metrics = _final_metrics(events)
    if metrics is not None:
        counters = metrics.get("counters") or {}
        if counters:
            lines.append("")
            lines.append("Counters")
            lines.extend(_table(["counter", "value"], sorted(counters.items())))
        gauges = metrics.get("gauges") or {}
        if gauges:
            lines.append("")
            lines.append("Gauges")
            lines.extend(_table(["gauge", "value"], sorted(gauges.items())))
        hists = metrics.get("hists") or {}
        if hists:
            lines.append("")
            lines.append("Histograms")
            rows = [
                [name, h.get("count", 0), h.get("mean", 0.0),
                 h.get("p50", 0.0), h.get("p90", 0.0), h.get("p99", 0.0),
                 h.get("min", 0.0), h.get("max", 0.0)]
                for name, h in sorted(hists.items())
            ]
            lines.extend(
                _table(
                    ["histogram", "count", "mean", "p50", "p90", "p99",
                     "min", "max"],
                    rows,
                )
            )

    notable = {}
    for ev in events:
        kind = ev.get("kind")
        if kind in ("budget_exhausted", "fault_injected", "nonfinite", "stage_error", "validator_degraded"):
            notable[kind] = notable.get(kind, 0) + 1
    logs: Dict[str, int] = {}
    for ev in events:
        if ev.get("kind") == "log":
            level = str(ev.get("level", "?"))
            logs[level] = logs.get(level, 0) + 1
    if notable or logs:
        lines.append("")
        lines.append("Notable events")
        for kind, n in sorted(notable.items()):
            lines.append(f"  {kind}: {n}")
        if logs:
            parts = ", ".join(f"{k.lower()} {v}" for k, v in sorted(logs.items()))
            lines.append(f"  log records: {parts}")

    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Summarize a telemetry trace (JSONL) written with --trace.",
    )
    parser.add_argument(
        "trace", nargs="*", help="trace file(s) to summarize"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="add the span self-time hotspot/flame section",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=15,
        help="hotspot rows in the --profile table (default 15)",
    )
    parser.add_argument(
        "--bench-trend",
        metavar="HISTORY",
        default=None,
        help="render per-kernel speedup trends from a bench history "
        "JSONL (written by `python -m repro.bench --history`)",
    )
    args = parser.parse_args(argv)
    if not args.trace and not args.bench_trend:
        parser.error("need a trace file and/or --bench-trend HISTORY")
    status = 0
    if args.bench_trend:
        from repro.bench.history import load_history, render_trends

        try:
            rows = load_history(args.bench_trend)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            status = 1
        else:
            sys.stdout.write(render_trends(rows))
            if args.trace:
                sys.stdout.write("\n")
    for i, path in enumerate(args.trace):
        if i:
            sys.stdout.write("\n")
        try:
            events = read_trace(path)
        except TraceError as exc:
            sys.stderr.write(f"error: {exc}\n")
            status = 1
            continue
        schema = next(
            (e.get("schema") for e in events if e.get("kind") == "run_start"), None
        )
        if schema is not None and int(schema) > SCHEMA_VERSION:
            sys.stderr.write(
                f"warning: {path} uses schema {schema}, newer than this "
                f"reader ({SCHEMA_VERSION}) — fields may be missing\n"
            )
        sys.stdout.write(
            render_report(events, profile=args.profile, top=args.top)
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
