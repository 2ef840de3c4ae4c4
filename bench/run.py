"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src`` (nothing needs installing); without it the command
exits with status 2 and prints no result.

With ``--trace 0`` the workload runs untraced in a fresh child process and
the result holds the end-to-end metrics, in reference seconds: wall time
divided by the host's speed factor, which ``reference.py`` measures
alongside the operations.  Set-up time is taken in that child and in
``SETUP_SAMPLES - 1`` more children that only set up; the median is
reported.  With ``--trace 1`` one traced child gives the per-layer
metrics.  Children run one at a time, single-threaded and pinned to one
processor, with ``HYBRID_ORBIT_THREADS`` unset.

Human-readable lines come first, then the machine record, and the last
line of stdout is the JSON result.  Any failed output check makes the
command exit 1.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HYBRID_ORBIT_THREADS", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, extra, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    # Own session, so a timeout also stops the child's CLI subprocesses.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload child exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("design", "closed-loop", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--max-ops", type=int,
                        help="smoke-test size: one set-up sample, at most this many operations")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hybrid_orbit" / "__init__.py").is_file():
        print(f"no hybrid_orbit package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            child = run_child(args, [], deadline)
            metrics = child["per_layer"]
        else:
            samples = 1 if args.max_ops is not None else SETUP_SAMPLES
            setups = [run_child(args, ["--setup-only"], deadline) for _ in range(samples - 1)]
            child = run_child(args, [], deadline)
            setups.append(child)
            values = {
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "ops_per_s": child["ops_per_s"],
                "op_p50_s": child["op_p50_s"],
                "op_p90_s": child["op_p90_s"],
                "peak_rss_mb": child["peak_rss_mb"],
            }
            metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    for failure in child["failures"]:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{child['attempted']} ops, {child['refused']} refused by the library, "
          f"{len(child['failures'])} failed checks")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        wall = {
            "setup_s": statistics.median(s["setup_wall_s"] for s in setups),
            "op_p50_s": child["op_p50_s"] * child["speed_factor"],
            "speed_factor": child["speed_factor"],
        }
        print("  wall clock (not gated): " + ", ".join(f"{k} {v:.4g}" for k, v in wall.items()))
    if child.get("jac_err_max") is not None:
        print(f"  {'jac_err_max (not gated)':34s} {child['jac_err_max']:.6g}")
    print("machine " + json.dumps(child["machine"], sort_keys=True))
    correct = not child["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
