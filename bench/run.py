"""beliefscape benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload lib-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It measures set-up time (fresh
interpreters importing the package), then starts a worker process that runs
the workload's closed loop against ``src/beliefscape`` and checks every
operation. With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics; BENCHMARK.json names both sets and
their units. Human-readable lines come first; the last line of standard
output is the JSON result. Any breakage exits non-zero without a result.

Every process this script starts (set-up probes and the worker) runs with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1. numpy and
scipy each load their own OpenBLAS, so the default is two thread pools on
the same cores; the pinned setting is the one this benchmark measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# setup_s is the median of SETUP_RUNS imports, split before and after the
# worker so that they fall in different stretches of the shared host's load.
# One untimed import first writes the bytecode cache.
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
TRACKED_PACKAGES = ("numpy", "scipy", "beliefscape")
# What each workload's timed loop calls into; setup_s times importing it.
SETUP_MODULE = {
    "lib-small": "beliefscape",
    "lib-large": "beliefscape.cli",  # renders through the CLI's report builders
    "lib-scarce": "beliefscape",
}
WORKER_TIMEOUT_S = 150

NOTES = (
    "waiting time: zero by construction (one thread, one client, no queue); not reported",
    "linalg.* spans are standalone calls on each traced operation's own matrices,"
    " outside the operation's latency",
    "cli.main spans (lib-small) run beliefscape.cli.main(argv) on 3x4 files in the worker"
    " with stdout captured, one command per traced operation in turn",
    "BLAS threads pinned to 1: the ROADMAP's 140 ms consistency_check baseline at 200x240"
    " was taken with 2 OpenBLAS pools x 2 threads on 2 cores and is mostly that"
    " oversubscription; pinned, the same call took about 42 ms on a 2-vCPU Xeon",
    "latencies are each input's fastest execution in the run: other tenants of a shared"
    " host only add time, and slowed half-second stretches by up to 1.8x",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_times(module: str, runs: int) -> list[float]:
    """Wall times of ``runs`` fresh interpreters importing ``module``, each started
    on the next CPU in turn (other tenants slow one CPU at a time)."""
    env = child_env()
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for run in range(runs):
            os.sched_setaffinity(0, {cpus[run % len(cpus)]})  # the child inherits it
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT,
                           check=True, timeout=60)
            times.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def import_breakdown(module: str) -> dict[str, float]:
    """Import time by package, from ``python -X importtime``, median of a few runs.

    Each module's self time goes to the nearest enclosing import (itself
    included) from numpy, scipy or beliefscape; the rest, interpreter start-up
    included, counts only in the total.
    """
    env = child_env()
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=60)
        totals = {package: 0.0 for package in TRACKED_PACKAGES}
        totals["total"] = 0.0
        stack: list[tuple[int, str, float, list]] = []  # post-order: children precede parents
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            raw = name[1:]
            level = (len(raw) - len(raw.lstrip(" "))) // 2
            children = []
            while stack and stack[-1][0] > level:
                children.append(stack.pop())
            stack.append((level, raw.strip(), float(self_us) * 1e-6, children))

        def attribute(node, owner):
            _, name, self_s, children = node
            top = name.split(".")[0]
            owner = top if top in TRACKED_PACKAGES else owner
            totals["total"] += self_s
            if owner:
                totals[owner] += self_s
            for child in children:
                attribute(child, owner)

        for node in stack:
            attribute(node, None)
        for key, value in totals.items():
            samples.setdefault(key, []).append(value)
    return {f"import.{key}_s": statistics.median(values) for key, values in samples.items()}


def source_identity() -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            model = next(l.split(":", 1)[1].strip() for l in cpuinfo if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "machine": platform.machine(),
        "cpu": model,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_worker(args, scratch: Path, spans_out: Path | None) -> dict:
    command = [sys.executable, str(ROOT / "bench" / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", str(scratch)]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    # Own process group, so a timeout also stops the worker's CLI children.
    proc = subprocess.Popen(command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "beliefscape" / "__init__.py").is_file():
        print(f"run.py: no beliefscape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    module = SETUP_MODULE[args.workload]

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    spans_out = None
    try:
        if args.trace:
            (ROOT / ".bench_out").mkdir(exist_ok=True)
            spans_out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = import_breakdown(module)
            result = run_worker(args, scratch, spans_out)
        else:
            setup_times(module, 1)
            times = setup_times(module, SETUP_RUNS // 2)
            result = run_worker(args, scratch, spans_out)
            times += setup_times(module, SETUP_RUNS - SETUP_RUNS // 2)
            metrics = {"setup_s": statistics.median(times)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics.update(result["metrics"])
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        print(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 3

    attempted, failed = result["attempted"], result["failed"]
    environment = {**machine(), **result["environment"], **source_identity(),
                   "blas_threads": PINNED_THREADS, "seed": args.seed}
    print(f"workload {args.workload}: {why[args.workload]}")
    print(f"closed loop, one client, one process; {args.seconds} s; trace {args.trace}")
    print("environment", json.dumps(environment, sort_keys=True))
    for name in units:
        print(f"  {name:<40} {metrics[name]:.6g} {units[name]}")
    passes = f"{result['passes']:.1f} passes over {result['untraced_inputs']} inputs"
    if args.trace:
        print(f"  {result['traced_ops']} traced operations; {passes}")
    else:
        print(f"  per-input fastest times; {passes}; latency_tail_s is p90,"
              f" {result['tail_beyond']} inputs beyond it")
    print(f"  error_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for reason, count in result["failures"].items():
        print(f"    failed {count}: {reason}")
    probe = result["probe"]
    if probe:
        print(f"  weak-share probe (ROADMAP O4, untimed): {probe['failed']} of"
              f" {probe['attempted']} weakly-informative landscapes judged inconsistent after"
              f" the 12-digit round trip; the run is incorrect above {probe['limit']:.0%}")
    for note in NOTES:
        print("note:", note)
    if spans_out is not None:
        print("spans written to", spans_out.relative_to(ROOT))

    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
