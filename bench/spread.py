"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads design sweep --seeds 1 2 3 4 5 --seconds 20
    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/baseline.json

For every end-to-end metric of every workload it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
``(q3 - q1) / median``, next to the metric's bound in BENCHMARK.json.  The
runs are sequential.  With ``--out`` the per-run values, the summary and
the machine record are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    machine = json.loads(next(line for line in lines if line.startswith("machine "))[len("machine "):])
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write runs and summary as JSON to this path")
    args = parser.parse_args()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, machine = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                         **{name: m["value"] for name, m in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()), flush=True)
        summary = {name: summarize([r[name] for r in runs]) for name in bounds if name in runs[0]}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        report["machine"] = machine
        for name, s in summary.items():
            bound = bounds[name]
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above a third of the bound"
            print(f"  {workload:12s} {name:30s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.3f}  bound {bound}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
