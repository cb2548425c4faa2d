"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 e2ebench/spread.py --workload serve_mixed --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (sequentially, tracing off) and prints, for
each end-to-end metric, the median, the quartile distance over the median
(``statistics.quantiles(values, n=4)``) and the metric's bound from
``BENCHMARK.json``.  A spread above a third of its bound is flagged
(``setup_s`` is exempt: only its median is compared between runs).
Exits 1 when a run fails or a spread is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs, bad = [], 0
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last)
        if proc.returncode != 0 or not result.get("correct"):
            bad += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            continue
        runs.append(result["metrics"])
        line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({elapsed:.0f} s): {line}", flush=True)

    for metric in spec["end_to_end"]:
        values = [r[metric["name"]]["value"] for r in runs]
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        rel = (q3 - q1) / abs(med) if med else float("inf")
        flag = metric["name"] != "setup_s" and rel > metric["bound"] / 3
        bad += flag
        print(f"{metric['name']:22s} median {med:12.6g}  spread {rel:8.4f}  "
              f"bound {metric['bound']:.3f}{'  <-- above bound/3' if flag else ''}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
