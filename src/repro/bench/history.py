"""Bench trajectory: append-only history of per-kernel speedups.

``BENCH_timing.json`` is a single point in time — every run overwrites
the last, so a slow drift (or a one-PR regression masked by a noisy
baseline refresh) is invisible.  ``python -m repro.bench --history
BENCH_history.jsonl`` appends one schema-versioned summary row per run
instead; ``python -m repro report --bench-trend BENCH_history.jsonl``
renders the per-kernel speedup trajectories and names the kernels
whose **latest** speedup fell more than ``tolerance`` below their
**trajectory median** — an attributed trend check, much harder for a
single noisy sample to flap than the point-in-time gate.

Row format (one JSON object per line)::

    {"schema": 1, "t": <unix seconds>, "quick": bool, "label": str|null,
     "speedups": {"<kernel>/<design>/<field>": float, ...},
     "timings": {"<kernel>/<design>/<field>": float, ...}}

``timings`` holds the absolute production-path times (milliseconds,
lower is better; today ``groute_full/<design>/route_ms``).  Rows
written before it existed simply lack the key.

The flat ``kernel/design/field`` keys mirror the problem strings of
:func:`repro.bench.compare_reports`, so a trend line and a gate failure
name the same metric.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

#: Version of the history row schema (bump on incompatible change).
HISTORY_SCHEMA = 1

#: Latest speedup below (1 - tolerance) * trajectory median = regressed.
DEFAULT_TOLERANCE = 0.25


def summary_row(
    report: Dict[str, Any],
    timestamp: Optional[float] = None,
    label: Optional[str] = None,
) -> Dict[str, Any]:
    """Compress one bench report into a history row."""
    from repro.bench import _SPEEDUP_FIELDS, _TIMING_FIELDS

    def flatten(kernel_fields) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for kernel, fields in kernel_fields.items():
            for design, row in (report.get("kernels", {}).get(kernel) or {}).items():
                for field in fields:
                    if field in row:
                        out[f"{kernel}/{design}/{field}"] = float(row[field])
        return out

    return {
        "schema": HISTORY_SCHEMA,
        "t": float(timestamp if timestamp is not None else time.time()),
        "quick": bool(report.get("quick", False)),
        "report_version": report.get("version"),
        "label": label,
        "speedups": flatten(_SPEEDUP_FIELDS),
        "timings": flatten(_TIMING_FIELDS),
    }


def append_history(
    report: Dict[str, Any],
    path: Union[str, Path],
    timestamp: Optional[float] = None,
    label: Optional[str] = None,
) -> Dict[str, Any]:
    """Append one summary row for ``report`` to the history JSONL."""
    row = summary_row(report, timestamp=timestamp, label=label)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def load_history(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read every history row, oldest first.

    Raises ``ValueError`` with the offending line number on corrupt
    rows; rows written by a *newer* schema are kept (their known keys
    still render) so mixed-version files stay readable.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"bench history not found: {path}")
    rows: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: corrupt bench history row ({exc})"
                ) from exc
            if not isinstance(row, dict) or "speedups" not in row:
                raise ValueError(
                    f"{path}:{lineno}: not a bench history row"
                )
            rows.append(row)
    return rows


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def summarize_trends(
    rows: Sequence[Dict[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
    section: str = "speedups",
) -> Dict[str, Dict[str, Any]]:
    """Per-metric trajectory stats keyed by ``kernel/design/field``.

    ``regressed`` is set when the latest value fell below
    ``(1 - tolerance) * median`` of the whole trajectory — the same
    shape of check as :func:`repro.bench.compare_reports`, but against
    the history median instead of one committed baseline.  For the
    ``"timings"`` section (lower is better) it is set when the latest
    value rose above ``(1 + tolerance) * median``.
    """
    series: Dict[str, List[float]] = {}
    for row in rows:
        for key, value in (row.get(section) or {}).items():
            series.setdefault(key, []).append(float(value))
    trends: Dict[str, Dict[str, Any]] = {}
    for key in sorted(series):
        values = series[key]
        median = _median(values)
        latest = values[-1]
        if section == "timings":
            best, worst = min(values), max(values)
            worse = latest > (1.0 + tolerance) * median
        else:
            best, worst = max(values), min(values)
            worse = latest < (1.0 - tolerance) * median
        trends[key] = {
            "values": values,
            "runs": len(values),
            "median": median,
            "latest": latest,
            "best": best,
            "worst": worst,
            "regressed": len(values) >= 2 and worse,
        }
    return trends


_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[float]) -> str:
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / span * len(_SPARK)))]
        for v in values
    )


def render_trends(
    rows: Sequence[Dict[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> str:
    """Text report of per-kernel speedup trajectories."""
    lines = [f"Bench trend ({len(rows)} runs on record)"]
    if not rows:
        return lines[0] + "\n"
    trends = summarize_trends(rows, tolerance=tolerance)
    timings = summarize_trends(rows, tolerance=tolerance, section="timings")
    width = max((len(k) for k in (*trends, *timings)), default=0)
    regressed: List[str] = []
    for key, t in trends.items():
        flag = "  REGRESSED" if t["regressed"] else ""
        lines.append(
            f"  {key.ljust(width)}  {_sparkline(t['values'])}  "
            f"latest {t['latest']:.2f}x  median {t['median']:.2f}x  "
            f"range [{t['worst']:.2f}, {t['best']:.2f}]x{flag}"
        )
        if t["regressed"]:
            regressed.append(key)
    if regressed:
        lines.append(
            f"  {len(regressed)} metric(s) below "
            f"{1.0 - tolerance:.0%} of trajectory median: "
            + ", ".join(regressed)
        )
    else:
        lines.append("  no metric below trajectory median tolerance")
    if timings:
        lines.append("Absolute times (ms, lower is better)")
        slower: List[str] = []
        for key, t in timings.items():
            flag = "  SLOWER" if t["regressed"] else ""
            lines.append(
                f"  {key.ljust(width)}  {_sparkline(t['values'])}  "
                f"latest {t['latest']:.1f}  median {t['median']:.1f}  "
                f"range [{t['best']:.1f}, {t['worst']:.1f}]{flag}"
            )
            if t["regressed"]:
                slower.append(key)
        if slower:
            lines.append(
                f"  {len(slower)} time(s) above {1.0 + tolerance:.0%} of "
                "trajectory median: " + ", ".join(slower)
            )
    return "\n".join(lines) + "\n"


__all__ = [
    "DEFAULT_TOLERANCE",
    "HISTORY_SCHEMA",
    "append_history",
    "load_history",
    "render_trends",
    "summarize_trends",
    "summary_row",
]
