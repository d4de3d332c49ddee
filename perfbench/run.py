"""fockalg benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload run-all --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 1

One process runs one workload: it sets up (imports fockalg, builds the seeded
inputs, makes one warm-up call), then runs the workload's checked task list
again and again for --seconds and reports medians.

--trace 0 reports the end-to-end metrics: wall_s (median time of the whole
task list), setup_s (median of SETUP_SAMPLES set-ups: this process's own and
fresh processes' that only set up) and peak_rss_mb (this process's
ru_maxrss).  --trace 1 spends half the time untraced and half traced and
reports the per-layer metrics of tracing.py, the layer shares of the traced
wall time, and trace_overhead.  --workload all runs the three workloads one
after another, each in its own process.

Every task checks its output.  The last line of standard output is one JSON
object {correct, attempted, failed, metrics}; the line before it, {"info": ...},
records the environment, the raw timings, failures and the run-all report
digest.  The exit code is 0 when every check passed, 1 when one failed, and 2
when the checkout has no fockalg sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("run-all", "symbolic", "materialize")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# One BLAS thread, so a run uses one core and starts no thread pool; timings
# on machines with few shared cores stay steadier.  Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Iteration:
    """One pass over the task list."""

    wall: float
    attempted: int
    failures: list[str]
    facts: list[dict]
    trace: dict = field(default_factory=dict)


def set_up(workload: str, seed: int, scratch: Path):
    """Import fockalg from the checkout, build the inputs, warm up; time it all."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import fockalg
    import workloads

    if not Path(fockalg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"fockalg imported from {fockalg.__file__}, not this checkout")
    tasks = workloads.WORKLOADS[workload](seed, scratch)
    workloads.warm_up()
    return tasks, time.perf_counter() - t0


def setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_tasks(tasks) -> Iteration:
    failures, facts = [], []
    t0 = time.perf_counter()
    for task in tasks:
        try:
            found = task.run()
        except Exception as exc:  # a raising task is a failed task; the run goes on
            failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        else:
            if found:
                facts.append(found)
    return Iteration(time.perf_counter() - t0, len(tasks), failures, facts)


def measure(tasks, budget: float, traced: bool = False) -> list[Iteration]:
    """Run the task list at least once, and again while another run fits in budget."""
    done: list[Iteration] = []
    start = time.perf_counter()
    while True:
        if traced:
            with tracing.Tracer() as tracer:
                it = run_tasks(tasks)
            it.trace = tracer.metrics()
        else:
            it = run_tasks(tasks)
        done.append(it)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(i.wall for i in done) > budget:
            return done


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "blas_threads": os.environ[BLAS_THREAD_VARS[0]],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(ROOT),
        "seed": seed,
    }


def _digest_check(iterations: list[Iteration]) -> tuple[dict, list[str]]:
    """The run-all report digest must be the same in every run, traced or not."""
    digests = [f["run_all_digest"] for it in iterations for f in it.facts if "run_all_digest" in f]
    if not digests:
        return {}, []
    import workloads

    record = {str(workloads.RUN_ALL_SEED): sorted(set(digests))}
    if len(set(digests)) > 1:
        return record, [f"run-all report digest differs between runs: {sorted(set(digests))}"]
    return record, []


def _metric_line(name: str, value, unit: str) -> str:
    shown = "absent" if value is None else f"{value:.6g}"
    return f"  {name:<38} {shown:>14} {unit}"


def run_workload(args) -> int:
    scratch = HERE / ".run" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        tasks, own_setup = set_up(args.workload, args.seed, scratch)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup]
        if not args.trace:
            setups += [setup_in_fresh_process(args.workload, args.seed)
                       for _ in range(SETUP_SAMPLES - 1)]
        start = time.perf_counter()
        untraced = measure(tasks, args.seconds / 2 if args.trace else args.seconds)
        traced = measure(tasks, args.seconds - (time.perf_counter() - start), traced=True) \
            if args.trace else []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            (HERE / ".run").rmdir()

    iterations = untraced + traced
    digests, digest_failures = _digest_check(iterations)
    failures = [f for it in iterations for f in it.failures] + digest_failures
    attempted = sum(it.attempted for it in iterations) + (1 if digests else 0)
    wall = statistics.median(it.wall for it in untraced)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tasks": [t.name for t in tasks],
        "untraced_walls_s": [it.wall for it in untraced],
        "env": environment(args.seed),
        "run_all_digest": digests,
        "failures": failures,
    }

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced"
          + (f" and {len(traced)} traced" if traced else "") + " runs of "
          + f"{len(tasks)} tasks; fail_frac {len(failures) / attempted:.6g}"
          + f" ({len(failures)} of {attempted})")
    if args.trace:
        traced_wall = statistics.median(it.wall for it in traced)
        metrics = {}
        for name in traced[0].trace:
            vals = [it.trace[name] for it in traced]
            metrics[name] = None if None in vals else statistics.median(vals)
        metrics["trace_overhead"] = traced_wall / wall - 1.0
        units = dict(tracing.PER_LAYER)
        for name, value in metrics.items():
            print(_metric_line(name, value, units[name]))
        print(f"  layer shares of the traced wall time ({traced_wall:.4g} s), self time:")
        layers = tracing.layer_self_times(metrics)
        for layer, secs in layers.items():
            print(f"    {layer:<12} {100 * secs / traced_wall:6.2f}%")
        print(f"    {'(untimed)':<12} {100 * (1 - sum(layers.values()) / traced_wall):6.2f}%")
        info["traced_walls_s"] = [it.wall for it in traced]
        info["absent"] = sorted(name for name, v in metrics.items() if v is None)
    else:
        units = dict(END_TO_END)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, value in metrics.items():
            print(_metric_line(name, value, units[name]))
        info["setup_samples_s"] = setups
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


def run_all_workloads(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 2 * args.seconds,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {workload} exited {proc.returncode}")
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
        code = max(code, proc.returncode)
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (the extra set-up samples)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fockalg" / "__init__.py").is_file():
        print(f"no fockalg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all_workloads(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
