"""Run one workload of the dinfh benchmark in this process.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds T --trace 0|1
    python3 benchmarks/worker.py --workload NAME --seed N --setup-only

Before numpy loads, the process caps BLAS at one thread and its own address
space at ADDRESS_SPACE_LIMIT, so an operation that blows up fails with
MemoryError and is counted instead of exhausting the machine.  Set-up is
importing dinfh (from ``src`` of this checkout) and generating the inputs.
The closed loop then runs operations while the next one, if it takes as
long as the last, ends within ``--seconds`` (at least one runs), checks each
output, and prints one JSON object: per-operation times and failures,
set-up time, peak RSS, the environment, and with ``--trace 1`` the
per-layer metrics.  ``run.py`` turns that into the
benchmark's result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
ADDRESS_SPACE_LIMIT = 3 * 2**30
# peak RSS is read after this many operations (or at the end of a shorter
# run), so that it measures a fixed amount of work, not a fixed time: the
# tree workload grows the level cache with every operation
RSS_OPS = 8


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def live_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def environment(seed: int) -> dict:
    """Machine, library versions and thread cap of this process."""
    import numpy
    import scipy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(
            f"L{_read(idx / 'level').strip()} {_read(idx / 'type').strip()} "
            f"{_read(idx / 'size').strip()}"
        )
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": {v: os.environ.get(v) for v in BLAS_VARS},
        "address_space_limit_bytes": ADDRESS_SPACE_LIMIT,
        "seed": seed,
    }


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import dinfh

    if Path(dinfh.__file__).resolve().parent != ROOT / "src" / "dinfh":
        print(f"dinfh imported from {dinfh.__file__}, not this checkout", file=sys.stderr)
        return 1
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    threads_after_import = live_threads()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.install_tracer()

    ops = []
    rss_mb = None
    start = time.perf_counter()
    deadline = start + args.seconds
    # a run never overshoots by a whole operation: a gate of 40 s fits once
    # into 60 s, not twice
    while not ops or time.perf_counter() + ops[-1]["seconds"] <= deadline:
        i = len(ops)
        item = inputs[i % len(inputs)]
        if tracer:
            tracer.op = i
            span = tracer.begin(layers.OP_SPAN)
        out, error = None, None
        t, cpu = time.perf_counter(), time.process_time()
        try:
            out = wl.run(item)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        seconds, cpu = time.perf_counter() - t, time.process_time() - cpu
        if tracer:
            tracer.end(span)
        problems = wl.check(item, out) if error is None else []
        ops.append(
            {
                "seconds": seconds,
                "cpu_seconds": cpu,
                "error": error,
                "problems": problems[:5],
                "n_problems": len(problems),
                "stages": wl.stages(out) if error is None else {},
            }
        )
        if len(ops) == RSS_OPS:
            rss_mb = _peak_rss_mb()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": rss_mb if rss_mb is not None else _peak_rss_mb(),
        "rss_ops": min(RSS_OPS, len(ops)),
        "ops": ops,
        "environment": environment(args.seed),
        "live_threads": {"after_import": threads_after_import, "after_run": live_threads()},
    }
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.dump(span_file)
        result["span_file"] = str(span_file.relative_to(ROOT))
        result["per_layer"] = layers.per_layer_metrics(tracer, len(ops))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
