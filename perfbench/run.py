"""Benchmark of the nhswe solver: one workload, all three modes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in its own
single-threaded process (closed loop: one simulate() call at a time, nothing
concurrent).  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json: set-up time is the median of several fresh processes, run
times are medians over interleaved rounds of the three modes, whose order
within a round is drawn from the seed.  With --trace 1 it reports the
per-layer metrics from a separate traced pass.  Every metric is printed as
`name value unit`, followed by one JSON line with the result; the exit code
is nonzero when a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its last JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker {args[:3]} did not finish in time")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[:3]} exited with {proc.returncode}:\n{err}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker {args[:3]} printed nothing:\n{err}")
    return json.loads(lines[-1])


def setup_samples(workload: str, deadline: float) -> list[dict]:
    return [worker(["setup", "--workload", workload], deadline)
            for _ in range(SETUP_PROBES)]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result line, details) for one invocation."""
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "nhswe" / "__init__.py").is_file():
        raise BenchmarkError(f"no solver source under {ROOT / 'src' / 'nhswe'}")
    declared = declared_metrics()
    if workload not in declared["workloads"]:
        raise BenchmarkError(f"unknown workload {workload!r}; "
                             f"choose from {declared['workloads']}")

    setups = setup_samples(workload, deadline) if not trace else []
    out = worker(["measure", "--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)], deadline)
    metrics = dict(out["metrics"])
    if setups:
        setup_s = statistics.median(s["setup_s"] * s["scale"] for s in setups)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    failures = list(out["failures"])
    missing = [name for name in declared[trace]
               if metrics.get(name, {}).get("value") is None]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    metrics = {name: metrics[name] for name in declared[trace] if name not in missing}
    result = {
        "correct": not failures,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    details = {"env": out["env"], "runs": out["runs"], "setup": setups,
               "unscaled": out["unscaled"], "failures": failures}
    return result, details


def report(result: dict, details: dict) -> None:
    print("# env " + json.dumps(details["env"], sort_keys=True))
    for rec in details["runs"]:
        print("# run " + json.dumps(rec))
    for probe in details["setup"]:
        print("# setup " + json.dumps(probe))
    for name, value in details["unscaled"].items():
        if value is not None:
            print(f"# unscaled median {name} {value:.6g} s")
    for failure in details["failures"]:
        print(f"# FAILED {failure}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_runs {failed / attempted:.6g} share ({failed} of {attempted} runs)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, details = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(result, details)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
