"""winterdyn benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {figures,snapshots,index} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
Workloads are defined and explained in workloads.py and README.md.  Each
run starts SETUP_SAMPLES fresh worker processes (worker.py): all but the
last only time their set-up, the last also runs the workload.  With
--trace 0 the last line of standard output carries the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run.  Every other line is
a readable report.  Scratch output goes to .perfbench/ and is removed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("figures", "snapshots", "index")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, set-up samples included

HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    pass


def _worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # the program's own defaults decide its thread pools; OpenBLAS is held
    # to the CPUs this process may run on
    env.pop("WINTER_THREADS", None)
    env.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    return env


def _worker(args, work: str, deadline: float, probe: bool) -> tuple[float, str]:
    """Start a worker; return its set-up time and, unless a probe, its output."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
            str(args.seconds), str(args.trace), os.path.join(work, "out")]
    if probe:
        argv.append("--probe")
    with open(os.path.join(work, "worker.log"), "a") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log, text=True,
                                env=_worker_env(os.getcwd()))
        try:
            ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise BenchError("worker did not get ready")
            output, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
            if proc.returncode != 0:
                raise BenchError(f"worker exited with {proc.returncode}")
            return setup_s, output
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "winterdyn", "__init__.py")):
        raise BenchError(f"no winterdyn sources under {root}/src")
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setups = []
        for i in range(SETUP_SAMPLES):
            setup_s, output = _worker(args, work, deadline, probe=i < SETUP_SAMPLES - 1)
            setups.append(setup_s)
        result = json.loads(output.strip().splitlines()[-1])
    except BenchError:
        with open(os.path.join(work, "worker.log")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    result["setup_samples"] = setups
    return result


def report(args, r: dict) -> dict:
    """Print the readable report and return the metrics of the result line."""
    env = " ".join(f"{k}={v}" for k, v in r["env"].items())
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"env: {env}")
    n = len(r["wall_samples"])
    error_rate = r["failed"] / r["attempted"]
    rows = [
        ("setup_s", statistics.median(r["setup_samples"]), "s",
         f"median of {len(r['setup_samples'])} processes"),
        ("wall_s", r["wall_s"], "s", f"median of {n} task lists"),
        ("peak_rss_mb", r["peak_rss_mb"], "MB", "workload process, first task list"),
        ("error_rate", error_rate, "ratio", f"{r['failed']} of {r['attempted']} tasks"),
        ("success_rate", 1.0 - error_rate, "ratio", "1 - error_rate"),
        ("accuracy_digits", r["accuracy_digits"], "digits", "-log10 worst check error"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<16} {value:>14.6g} {unit:<6} {note}")
    for line in r["failing"]:
        print(f"  failed: {line}")
    slowest = sorted(r["task_s"].items(), key=lambda kv: -kv[1])[:5]
    print("  slowest tasks: " + ", ".join(f"{name} {s:.3g} s" for name, s in slowest))
    if args.trace:
        for name, (value, unit) in r["layers"].items():
            print(f"  {name:<38} {value:>14.6g} {unit}")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in r["layers"].items()}
    return {
        name: {"value": value, "unit": unit}
        for name, value, unit, _ in rows
        if name != "error_rate"
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        r = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, r)
    print(json.dumps({
        "correct": r["wrong"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
