"""Self-test of the benchmark itself.

    python3 e2ebench/selftest.py [--workloads train_quick serve_mixed ...]

For each workload, at minimal length (``--seconds 1``):

* with tracing off and on, the command exits 0, its last stdout line is
  one JSON object with exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and every end-to-end (tracing off) or
  per-layer (tracing on) metric of ``BENCHMARK.json`` is emitted, finite,
  with its unit;
* a second run with the same seed repeats the output digest and the
  deterministic metrics (QoR ratios, held-out R²) exactly;
* a run whose set-up digest is corrupted (``--corrupt-digest``) reports
  ``correct: false`` and exits nonzero;
* the traced run shows the workload stresses the layer it was chosen
  for: global routing is most of a ``refine_des3`` op and absent from
  ``serve_mixed``, training is most of a ``train_quick`` op, and STA plus
  MCMM are most of the ``serve_mixed`` read-handler time.

Finally the command must fail, without printing a result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's files (made, and
removed again, inside the checkout).
"""

import argparse
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETERMINISTIC = ("wns_ratio", "tns_ratio", "wl_ratio", "r2_heldout")


def share(m, name: str) -> float:
    return m[name]["value"] / m["trace.op_wall_s"]["value"]


# What the traced run must show on each workload (per-layer metrics).
STRESS = {
    "refine_des3": lambda m: share(m, "groute.self_s") > 0.5,
    "train_quick": lambda m: share(m, "timing_model.train_s") > 0.5,
    "serve_mixed": lambda m: m["groute.calls"]["value"] == 0
    and m["serve.read_sta_share"]["value"] > 0.5,
}


def run(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "e2ebench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = re.search(r"digest (\S+)", proc.stderr)
    return proc, result, digest.group(1) if digest else None


def check_result(proc, result, expected, label: str) -> None:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    assert isinstance(result, dict), f"{label}: last stdout line is not a JSON object"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, f"{label}: metric names differ"
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (
            f"{label}: {m['name']} = {got['value']}"
        )


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    for name in args.workloads:
        proc, plain, digest = run(name, 3, 0)
        check_result(proc, plain, spec["end_to_end"], f"{name} trace 0")
        proc, again, digest2 = run(name, 3, 0)
        check_result(proc, again, spec["end_to_end"], f"{name} trace 0 repeat")
        assert digest and digest == digest2, f"{name}: digest {digest} vs {digest2}"
        for key in DETERMINISTIC:
            a, b = plain["metrics"][key]["value"], again["metrics"][key]["value"]
            assert a == b, f"{name}: {key} {a} vs {b} at the same seed"
        proc, traced, _ = run(name, 3, 1)
        check_result(proc, traced, spec["per_layer"], f"{name} trace 1")
        assert STRESS[name](traced["metrics"]), f"{name}: traced run misses its layer"
        proc, bad, _ = run(name, 3, 0, "--corrupt-digest")
        assert proc.returncode != 0 and bad is not None and bad["correct"] is False, (
            f"{name}: corrupted digest was not caught"
        )
        assert bad["metrics"]["ok_frac"]["value"] < 1.0, f"{name}: ok_frac not lowered"
        print(f"{name}: ok", flush=True)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".e2ebench-selftest-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
        proc, result, _ = run(args.workloads[0], 1, 0, cwd=bare)
        assert proc.returncode != 0 and result is None, "bare directory run did not fail cleanly"
    print("bare directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
