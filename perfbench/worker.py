"""One benchmark process: import winterdyn, run a workload's task lists, check them.

run.py starts it from the root of a checkout:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR [--probe]

It prints `ready` once winterdyn is imported and the first task list is
built.  With --probe it exits there (a set-up sample).  Otherwise it runs
whole task lists back to back, one task at a time (a closed loop with one
client), starting another list only while it is expected to end within
SECONDS; then it checks every task's outcome and prints one JSON line.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import sys
import time


def environment() -> dict:
    import numpy as np
    import scipy

    from winterdyn import poles

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    workers = poles.worker_count() if hasattr(poles, "worker_count") else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "pole_table_workers": workers,
        "WINTER_THREADS": os.environ.get("WINTER_THREADS"),
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, out = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)

    import winterdyn

    if not os.path.abspath(winterdyn.__file__).startswith(src + os.sep):
        print(f"winterdyn imported from {winterdyn.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    plan = workloads.PLANS[workload](random.Random(seed))
    build = workloads.BUILDERS[workload]
    tasks = build(plan, os.path.join(out, "it0"))
    print("ready", flush=True)
    if "--probe" in argv:
        return 0

    env = dict(environment(), seed=seed)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer().install()

    lists, windows, task_s = [], [], {}
    cpu0, begin = time.process_time(), time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for task in tasks:
            span = tracer.open(tracer.key_id((spans.BENCH, task.name, spans.BENCH))) if tracer else None
            start = time.perf_counter()
            try:
                task.outcome = task.run()
            except winterdyn.WinterError as exc:
                task.outcome = exc
            task_s.setdefault(task.name, []).append(time.perf_counter() - start)
            if tracer:
                tracer.close(*span, task.refused)
        t1 = time.perf_counter()
        if not lists:
            # later lists repeat the same work; memory they add is allocator
            # reuse noise, which would make the peak depend on the list count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lists.append(tasks)
        windows.append((t0, t1))
        longest = max(b - a for a, b in windows)
        if t1 - begin + longest > seconds:
            break
        tasks = build(plan, os.path.join(out, f"it{len(lists)}"))
    cpu_s = time.process_time() - cpu0
    if tracer:
        tracer.uninstall()

    samples = [b - a for a, b in windows]
    wall_s = statistics.median(samples)
    attempted = failed = wrong = 0
    errors, failing = [], []
    for tasks in lists:
        for task in tasks:
            try:
                check = task.check(task)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                check = workloads.Check(False, note=f"output unreadable: {exc!r}")
            except winterdyn.WinterError as exc:
                check = workloads.Check(False, note=f"check refused: {exc!r}")
            attempted += 1
            if task.refused or not check.ok:
                failed += 1
                failing.append(f"{task.name}: {check.note or task.outcome}")
            wrong += not task.refused and not check.ok
            if check.error is not None:
                errors.append(check.error)
    # a difference below double precision cannot be resolved
    worst = max(max(errors), sys.float_info.epsilon) if errors else None
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failing": failing,
        "wall_s": wall_s,
        "wall_samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "task_s": {name: statistics.median(v) for name, v in task_s.items()},
        "accuracy_digits": -math.log10(worst) if worst else None,
        "env": env,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer, windows, wall_s, cpu_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
