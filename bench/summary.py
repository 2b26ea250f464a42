"""Run every workload on several seeds and summarise the results as JSON.

Run from the repository root:

    python3 bench/summary.py --seeds 10 --out bench/results/<name>.json

For each workload this makes one untraced run per seed and reports each
end-to-end metric's median, quartiles and spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles). It then
makes traced runs on the first two seeds and reports the first one's
per-layer metrics, whether every ``*.calls`` count agreed between them, and
both runs' tracing overhead.
Runs are sequential, so a summary of 10 seeds takes about 30 minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def launch(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="limit to this workload (repeatable)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary: dict = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        runs = [launch(workload, seed, 0) for seed in seeds]
        summary["environment"] = {k: v for k, v in runs[0][0].items()
                                  if k in ("python", "numpy", "scipy", "cores",
                                           "cores_usable", "threads", "machine")}
        traced = [launch(workload, seed, 1) for seed in seeds[:2]]
        calls = [{k: v["value"] for k, v in out["metrics"].items() if k.endswith(".calls")}
                 for _, out in traced]
        summary["workloads"][workload] = {
            "correct": all(out["correct"] for _, out in runs + traced),
            "failed": sum(out["failed"] for _, out in runs + traced),
            "end_to_end": {m["name"]: spread([out["metrics"][m["name"]]["value"]
                                              for _, out in runs])
                           for m in SPEC["end_to_end"]},
            "op_tail_percentile": runs[0][0]["op_tail_percentile"],
            "op_tail_items_beyond": runs[0][0]["op_tail_items_beyond"],
            "calls_identical_across_seeds": all(c == calls[0] for c in calls),
            "trace_overhead_frac": [out["metrics"]["trace.overhead_frac"]["value"]
                                    for _, out in traced],
            "per_layer": {k: v["value"] for k, v in traced[0][1]["metrics"].items()},
        }
        print(json.dumps({workload: {k: round(v["spread"], 4) for k, v in
                                     summary["workloads"][workload]["end_to_end"].items()}}),
              file=sys.stderr)
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
