"""Table IV — runtime breakdown.

Per design and arm: total runtime plus the TSteiner / global-routing /
detailed-routing split, and the paper's ratio-average row.  Shape
targets: detailed routing is *faster* when DRVs drop (the paper
reports 0.934x), and the total overhead stays a modest multiple.  The
paper's TSteiner-arm global routing is slightly above baseline; here a
hybrid flow signs off from its final anchor's probe route, which runs
inside the TSteiner stage, so its GR stage is near zero
(EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.common import ExperimentConfig, format_table, get_context
from repro.experiments.parallel import design_flow_pair, export_evaluator, parallel_map


@dataclass
class Table4Row:
    name: str
    base_total: float
    base_groute: float
    base_droute: float
    opt_total: float
    opt_tsteiner: float
    opt_groute: float
    opt_droute: float


@dataclass
class Table4Result:
    rows: List[Table4Row]

    def ratio_averages(self) -> Dict[str, float]:
        def safe_ratio(num: float, den: float) -> float:
            return num / den if den > 1e-12 else 1.0

        totals = [safe_ratio(r.opt_total, r.base_total) for r in self.rows]
        groutes = [safe_ratio(r.opt_groute, r.base_groute) for r in self.rows]
        droutes = [safe_ratio(r.opt_droute, r.base_droute) for r in self.rows]
        return {
            "total": float(np.mean(totals)),
            "groute": float(np.mean(groutes)),
            "droute": float(np.mean(droutes)),
        }


def run(config: Optional[ExperimentConfig] = None, jobs: Optional[int] = None) -> Table4Result:
    ctx = get_context(config)
    names = list(ctx.config.designs)
    evaluator = export_evaluator(ctx, jobs)
    pairs = parallel_map(
        design_flow_pair,
        [(ctx.config, name, evaluator) for name in names],
        jobs=jobs,
        label="table4_designs",
    )
    rows: List[Table4Row] = []
    for name, (base, opt) in zip(names, pairs):
        rows.append(
            Table4Row(
                name=name,
                base_total=base.total_runtime,
                base_groute=base.runtimes.get("groute", 0.0),
                base_droute=base.runtimes.get("droute", 0.0),
                opt_total=opt.total_runtime,
                opt_tsteiner=opt.runtimes.get("tsteiner", 0.0),
                opt_groute=opt.runtimes.get("groute", 0.0),
                opt_droute=opt.runtimes.get("droute", 0.0),
            )
        )
    return Table4Result(rows=rows)


def format_result(result: Table4Result) -> str:
    headers = [
        "Benchmark",
        "Total(b)", "GR(b)", "DR(b)",
        "Total(t)", "TSteiner", "GR(t)", "DR(t)",
    ]
    rows = [
        [
            r.name,
            r.base_total, r.base_groute, r.base_droute,
            r.opt_total, r.opt_tsteiner, r.opt_groute, r.opt_droute,
        ]
        for r in result.rows
    ]
    avg = result.ratio_averages()
    rows.append(["RatioAvg", 1.0, 1.0, 1.0, avg["total"], "-", avg["groute"], avg["droute"]])
    return format_table(headers, rows, title="TABLE IV: Runtime breakdown (s)")


if __name__ == "__main__":
    from repro.experiments.common import cli_entry

    raise SystemExit(cli_entry(run, format_result))
