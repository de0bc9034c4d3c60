"""Seeded benchmark of the multinav stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]      # every workload

With a workload, the process measures that workload alone for S seconds of
whole rounds and prints, as its last stdout line, one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`. Without
a workload, it runs every workload in its own process, untraced and then
traced, and prints one table. Run it from the root of a checkout: it imports
the program from `src/` there. BLAS is pinned to one thread before numpy
loads. Result files go to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOAD_NAMES = ("policy-circle20-noise", "policy-doorway10",
                  "orca-circle40-noise", "ppo-desk")

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("step_ms", "ms", "lower", 0.25),
    ("agent_steps_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def pin_blas() -> None:
    """One BLAS thread per process; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import the program from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "multinav" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src}/multinav; run "
                         f"from the root of a multinav checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def blas_threads() -> tuple[str | None, int | None]:
    """(library path, thread count) of the OpenBLAS this process loaded."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return path, int(fn())
    return (libs[0] if libs else None), None


def host_block() -> dict:
    import numpy as np

    blas = (np.__config__.CONFIG.get("Build Dependencies", {})
            .get("blas", {}))
    library, threads = blas_threads()
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": os.path.basename(library) if library else None,
        "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, name: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """Run whole rounds of a workload for `seconds`, at least one, and return
    the result object and notes (raw wall times, host speed factor). A traced
    run alternates untraced and traced rounds, so that the two step times it
    compares come from the same work."""
    import layers
    from hostspeed import REFERENCE_S
    from spans import Tracer
    from workloads import Run

    run = Run(seed=seed)
    tracer = Tracer() if trace else None
    unit = 2 if trace else 1
    workload.start(run)
    try:
        t_start = perf_counter()
        k = 0
        while True:
            # a traced round repeats the trial of the untraced round before it
            traced = trace and k % 2 == 1
            workload.round(run, k // unit, run.traced if traced else run.plain,
                           tracer if traced else None)
            k += 1
            if k % unit == 0:
                elapsed = perf_counter() - t_start
                if elapsed + elapsed / (k // unit) > seconds:
                    break
        run.speed.tick(force=True)
        rss = peak_rss_mb()
    finally:
        workload.finish(run)
    problems = workload.final_checks(run)
    run.report(problems)
    run.setup_problems += problems

    plain, traced, speed = run.plain, run.traced, run.speed
    run_scale = REFERENCE_S / median(speed.kernel_s)
    if trace:
        metrics = layers.per_layer(
            tracer, workload.trial_phase, workload.step_phase,
            workload.agents_per_trial, traced.rounds, tuple(run.truth),
            run_scale)
        untraced_ms = 1000.0 * median(plain.step_s(speed))
        traced_ms = 1000.0 * median(traced.step_s(speed))
        metrics["trace.step_ms_untraced"] = untraced_ms
        metrics["trace.step_ms_traced"] = traced_ms
        metrics["trace.overhead_share"] = traced_ms / untraced_ms - 1.0
        units = {n: u for n, u, _ in layers.PER_LAYER}
        (HERE / "results").mkdir(exist_ok=True)
        tracer.dump(str(HERE / "results" / f"{name}-seed{seed}.spans.json"))
    else:
        metrics = {
            "setup_s": median(plain.setup_s(speed)),
            "step_ms": 1000.0 * median(plain.step_s(speed)),
            "agent_steps_per_s": plain.agent_steps / plain.busy_s(speed),
            "peak_rss_mb": rss,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    notes = {
        "raw_wall": {"setup_s": median(plain.setup_s()),
                     "step_ms": 1000.0 * median(plain.step_s()),
                     "agent_steps_per_s": plain.agent_steps / plain.busy_s()},
        "host_speed_factor": run_scale,
        "host_speed_measurements": len(speed.kernel_s),
    }
    result = {
        "correct": not run.setup_problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, notes


def run_one(args) -> int:
    from workloads import WORKLOADS

    host = host_block()
    t0 = perf_counter()
    result, notes = measure(WORKLOADS[args.workload](), args.workload,
                            args.seed, args.seconds, bool(args.trace))
    wall = perf_counter() - t0
    raw = ", ".join(f"{k} {v:.4f}" for k, v in notes["raw_wall"].items())
    print(f"raw wall times: {raw}; host speed factor median "
          f"{notes['host_speed_factor']:.4f} over "
          f"{notes['host_speed_measurements']} measurements")
    print(f"host: {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} operations attempted, {result['failed']} "
          f"failed, correct={result['correct']}, {wall:.1f} s wall")
    for k, m in result["metrics"].items():
        print(f"  {k:50s} {m['value']:14.4f} {m['unit']}")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "wall_s": wall, "host": host, "result": result, **notes},
                  f, indent=1)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    rows = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} (trace {trace}) exited with {proc.returncode}")
                return 1
            lines = proc.stdout.strip().splitlines()
            if trace == 0:
                print(f"{name}: " + next(l for l in lines if l.startswith("raw")))
                host = next(l for l in lines if l.startswith("host:"))
            rows[(name, trace)] = json.loads(lines[-1])
    print(host)
    print(f"seed {args.seed}, {args.seconds} s per run")
    for name in WORKLOAD_NAMES:
        plain, traced = rows[(name, 0)], rows[(name, 1)]
        print(f"\n{name}: {plain['attempted']} operations attempted, "
              f"{plain['failed']} failed, correct={plain['correct']}")
        for k, m in plain["metrics"].items():
            print(f"  {k:22s} {m['value']:12.4f} {m['unit']}")
        share = traced["metrics"]["trace.overhead_share"]["value"]
        print(f"  traced run: {traced['attempted']} attempted, "
              f"{traced['failed']} failed, tracing overhead {share:+.1%} on "
              f"step_ms")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload; every workload when left out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    use_checkout_source()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    pin_blas()
    sys.exit(main())
