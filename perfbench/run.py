"""semicav benchmark: time to a verified result of the CLI verbs, per workload.

    python3 perfbench/run.py --workload rabi-coeff --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository; it needs only
``src/semicav`` and this directory. With ``--trace 0`` it spawns a few
set-up probes and then one worker process, which repeats the workload's
``semicav.cli.main`` calls in a closed loop with a single client and checks
every repetition's outputs (see worker.py and workloads.py). The last stdout
line is the result for BENCHMARK.json's end-to-end metrics; the line before
it is a record with the spread, sample counts, check results, output hashes
and the machine. With ``--trace 1`` the worker alternates untraced and traced
repetitions and the result holds the per-layer metrics instead.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # plus the worker itself: set-up is the median of seven spawns
DEADLINE_S = 170.0  # the whole invocation ends within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def spawn_worker(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return its spawn time and its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {timeout:.0f} s and was killed") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return spawned, json.loads(lines[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def score(reps: list[dict]) -> tuple[int, int, dict]:
    """Checks attempted and failed over all repetitions, plus failures by name.

    Each repetition after the first adds one determinism check per hashed
    output. A crashed repetition or a hash mismatch fails every check of the run.
    """
    per_rep = max((len(r["checks"]) for r in reps), default=0) or 1
    attempted, failed, by_name = 0, 0, {}
    run_failed = False
    first_hashes = reps[0]["hashes"]
    for i, rep in enumerate(reps):
        if rep["error"] is not None:
            attempted += per_rep
            run_failed = True
            by_name["crash"] = by_name.get("crash", 0) + 1
            continue
        attempted += len(rep["checks"])
        for name, ok in rep["checks"].items():
            if not ok:
                failed += 1
                by_name[name] = by_name.get(name, 0) + 1
        if i > 0:
            attempted += len(first_hashes)
            if rep["hashes"] != first_hashes:
                run_failed = True
                by_name["determinism"] = by_name.get("determinism", 0) + 1
    return attempted, attempted if run_failed else failed, by_name


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "semicav" / "cli.py").is_file():
        raise BenchmarkError(f"no semicav sources under {ROOT / 'src'}; run inside a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                     env.get("PYTHONPATH")]))
    work = HERE / ".work"
    # relative to the worker's working directory, so that the output_dir written
    # into report.json has the same bytes in every checkout
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", str((work / "out").relative_to(ROOT))]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                spawned, probe = spawn_worker(common + ["--seconds", "0", "--setup-only"], env,
                                              deadline)
                setup.append(probe["ready"] - spawned)
        spawned, record = spawn_worker(common + ["--seconds", str(args.seconds), "--trace",
                                                 str(args.trace)], env, deadline)
        setup.append(record["ready"] - spawned)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = record["reps"]
    attempted, failed, failures = score(reps)
    walls = [r["wall_s"] for r in reps if not r["traced"]]
    values = {}
    for rep in reps:
        for name, value in rep["values"].items():
            values.setdefault(name, []).append(value)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(reps), "rep_wall_s": [r["wall_s"] for r in reps],
        "fail_ratio": failed / attempted, "failures": failures,
        "errors": [r["error"] for r in reps if r["error"]],
        "hashes": reps[0]["hashes"],
        "values": {name: spread(v) for name, v in values.items()},
        "machine": {
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": git_commit(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}, **record["machine"],
        },
    }
    if args.trace:
        traced = [r for r in reps if r["traced"]]  # the worker runs at least one of each
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["swe_err"] = statistics.median(values["swe_err"]) if "swe_err" in values else 0.0
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(walls))
        detail["absent_hooks"] = traced[0]["absent_hooks"]
        detail["counts_repeat"] = all(
            r["layers"][m["name"]] == traced[0]["layers"][m["name"]]
            for r in traced for m in wanted if m["unit"] in ("count", "bytes")
            and m["name"] in r["layers"])
    else:
        stats = {"setup_s": spread(setup), "wall_s": spread(walls),
                 "cpu_s": spread([r["cpu_s"] for r in reps]),
                 # after the first repetition, as one CLI invocation would peak
                 "peak_rss_mb": spread([reps[0]["peak_rss_mb"]])}
        detail["end_to_end"] = stats
        metrics = {name: s["median"] for name, s in stats.items()}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"no value for {missing}")
    print(json.dumps({"record": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
