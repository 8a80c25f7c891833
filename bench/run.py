#!/usr/bin/env python3
"""Run one workload of the mgdpr benchmark and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload desk-train --seed 0 --seconds 30 --trace 0

The library is imported from the checkout's ``src/`` and nowhere else; in a
directory without it the run exits with an error before measuring. BLAS
is pinned to one thread and glibc's malloc thresholds are fixed before
numpy is imported.

Standard output ends with one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs the same workload
under the span tracer and reports its per-layer metrics. The full record
(environment, every sample, every check and, when traced, the span table)
is written to ``.bench_runs/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("desk-train", "wide-step", "cli-pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mgdpr benchmark: one workload, one run.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated market")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    parser.add_argument("--size", choices=("full", "toy"), default="full", help="toy: smoke-test shapes")
    return parser.parse_args(argv)


# glibc raises its mmap threshold each time a large block is freed, so how
# often a process returns memory to the kernel, and pays page faults to get
# it back, depends on its allocation history. Fixing both thresholds at the
# largest value the dynamic rule can reach makes every run start from the
# state a long training process settles in.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def pin_allocator() -> dict | None:
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        ok = libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) and libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    except (OSError, AttributeError):
        return None
    return {"mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD} if ok else None


# One BLAS thread. On a shared 2-core machine, a second thread makes every
# BLAS call wait for the slower of two cores: with one busy neighbour
# process, calibrated times moved by 12-38% with two threads and by 2-6%
# with one.
BLAS_THREADS = 1


def pin_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return nproc


def import_library() -> None:
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import mgdpr
    except ImportError as e:
        sys.exit(f"bench: cannot import mgdpr from {src}: {e}")
    if not Path(mgdpr.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: imported mgdpr from {mgdpr.__file__}, not from {src}")


def git_rev() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, nproc: int, shape: dict, allocator) -> dict:
    import numpy as np

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc": allocator,
        "machine": platform.machine(),
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "shape": shape,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    allocator = pin_allocator()
    import_library()
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shape = workloads.SHAPES[args.workload][args.size]
    env = environment(args, nproc, shape, allocator)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    tracer = tracing.Tracer() if args.trace else None
    run = workloads.Run(args.seconds, workloads.KERNELS[args.workload], tracer)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        workloads.WORKLOADS[args.workload](run, args.seed, shape, Path(work))
    with contextlib.suppress(OSError):
        work_root.rmdir()
    run.value("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)

    record: dict = {"env": env, "info": run.info, "checks": run.checks, "values": run.values, "calls": run.calls}
    record["samples"] = {
        name: {"n": len(v), "median": statistics.median(v), "min": min(v), "max": max(v), "values": v}
        for name, v in run.samples.items()
    }
    if tracer is not None:
        summary = tracer.summary()
        overhead = statistics.median(run.op_walls[True]) / statistics.median(run.op_walls[False])
        computed = tracing.per_layer(summary, run.traced_wall, run.passes, overhead)
        declared = spec["per_layer"]
        record["trace"] = {
            "traced_wall_s": run.traced_wall,
            "in_spans_s": summary.root_s,
            "unattributed_s": run.traced_wall - summary.root_s,
            "layer_self_s": {layer: summary.layer_self(layer) for layer in tracing.LAYERS},
            "passes": run.passes,
            "op_walls": {"traced": run.op_walls[True], "untraced": run.op_walls[False]},
            "num_spans": summary.num_spans,
            "counters": summary.counters,
            "spans": summary.table(),
        }
    else:
        computed = run.results()
        declared = spec["end_to_end"]
    record["computed"] = computed
    record["slowdown"] = run.slowdown()

    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record["result"] = result
    out_dir = ROOT / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for check in run.checks:
        if not check["ok"]:
            print(f"FAILED check: {check['check']} {check['detail']}", flush=True)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for name in sorted(set(computed) - set(metrics)):
        print(f"{name:34s} {computed[name]:>16.6g} (not a BENCHMARK.json metric)")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
