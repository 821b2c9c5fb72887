"""One benchmark process: import semicav, then repeat a workload's CLI calls in a closed loop.

run.py starts this file with ``src`` on PYTHONPATH. The loop has one client:
each repetition starts after the previous one and its checks have ended, and
repetitions start until ``--seconds`` have passed and at least two have run.
With ``--trace 1`` repetitions alternate untraced and traced, so the tracing
overhead is measured in the same process. The last stdout line is a
JSON record of every repetition; the verbs' own prints are captured.
With ``--setup-only`` the process stops when it is ready for the first call.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from semicav import cli

from layers import HOOKS, SEMICAV_MODULES, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS

# A median of two is still a median; one traced and one untraced repetition
# is the least that measures the tracing overhead.
MIN_REPETITIONS = 2


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_repetition(workload, out: Path, seed: int, traced: bool) -> dict:
    shutil.rmtree(out, ignore_errors=True)  # a stale output must not pass a check
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(HOOKS, [sys.modules[name] for name in SEMICAV_MODULES])
    statuses, error = [], None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for verb in workload.verbs(seed):
                statuses.append(cli.main(["--config", str(workload.config), "--out", str(out),
                                          *verb]))
    except (Exception, SystemExit) as exc:  # a crashed verb fails the run, not the benchmark
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    # the high-water mark so far, read before the checks load the outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rep = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
           "error": error, "checks": {}, "values": {}, "hashes": {}}
    if tracer is not None:
        tracer.uninstall()
        rep["layers"] = layer_metrics(tracer)
        rep["absent_hooks"] = tracer.absent
    if error is None:
        try:
            rep["checks"], rep["values"] = workload.check(out, statuses)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
            rep["error"] = f"check: {type(exc).__name__}: {exc}"
    for name in workload.hashed:
        if (out / name).is_file():
            rep["hashes"][name] = _sha256(out / name)
    return rep


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    cli.ScenarioConfig.from_file(workload.config)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out = Path(args.out)
    reps = []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    # after a crash only the minimum is run, so a traced run still reports its layers
    while len(reps) < MIN_REPETITIONS or (time.perf_counter() - start < args.seconds
                                          and reps[-1]["error"] is None):
        traced = bool(args.trace) and len(reps) % 2 == 1
        # Move to the next CPU, then allow all again: the program keeps every CPU,
        # but a run no longer spends all its repetitions on one CPU that the
        # host happens to slow down.
        os.sched_setaffinity(0, {cpus[len(reps) % len(cpus)]})
        os.sched_setaffinity(0, cpus)
        reps.append(run_repetition(workload, out, args.seed, traced))
    record = {"ready": ready, "reps": reps, "machine": machine_info()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
