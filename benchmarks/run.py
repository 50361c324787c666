"""The dinfh benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds T

For one workload, set-up is timed in SETUP_PROBES fresh processes and the
workload runs in one more (``worker.py``): one client in a closed loop for
at most T seconds.  Every metric is printed with its unit and sample count, the full
result with its environment is written to ``.bench_out/``, and the last line
is one JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones.  ``--workload all`` runs every workload untraced and
then traced, and also prints the tracing overhead of each.

When a process cannot run (say, ``src`` is missing) the benchmark exits with
code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 4
# every run must end within 180 s, whatever the processes do
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A benchmark process failed to run; there is no result to report."""


def _worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"exit code {proc.returncode} from {' '.join(cmd)}\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile, q in (0, 1); one sample is its own."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(result: dict, setups: list) -> dict:
    """{name: (value, sample count)} of the end-to-end metrics."""
    ops = result["ops"]
    times = [op["seconds"] for op in ops]
    ok = sum(1 for op in ops if op["error"] is None and op["n_problems"] == 0)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "op_p50_s": (statistics.median(times), len(times)),
        "op_p90_s": (percentile(times, 0.9), len(times)),
        "ops_per_s": (ok / sum(times), len(times)),
        "peak_rss_mb": (result["peak_rss_mb"], result["rss_ops"]),
        "ok_frac": (ok / len(ops), len(ops)),
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    setups = [
        _worker(["--workload", workload, "--seed", seed, "--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    result = _worker(
        ["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace],
        deadline,
    )
    setups.append(result["setup_s"])
    ops = result["ops"]
    if trace:
        computed = {k: (v, len(ops)) for k, v in result["per_layer"].items()}
        declared = spec["per_layer"]
    else:
        computed = end_to_end(result, setups)
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] in computed:
            value, samples = computed[m["name"]]
        elif ".failed." in m["name"]:
            value, samples = 0, len(ops)  # no error of this kind was raised
        else:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"], "samples": samples}
    failures = [
        {"op": i, "error": op["error"], "problems": op["problems"]}
        for i, op in enumerate(ops)
        if op["error"] is not None or op["n_problems"]
    ]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": all(op["n_problems"] == 0 for op in ops),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
        "stages": _stage_medians(ops),
        "failures": failures,
        "environment": {**result["environment"], "git_commit": _git_commit()},
        "live_threads": result["live_threads"],
        "span_file": result.get("span_file"),
        "worker": result,
    }


def _stage_medians(ops: list) -> dict:
    names = {k for op in ops for k in op["stages"]}
    return {
        k: (statistics.median(op["stages"][k] for op in ops if k in op["stages"]),
            sum(1 for op in ops if k in op["stages"]))
        for k in sorted(names)
    }


def report(res: dict) -> None:
    env = res["environment"]
    print(f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"attempted {res['attempted']}  failed {res['failed']}  correct {res['correct']}")
    print(f"   {'metric':44s} {'value':>16s} {'unit':8s} samples")
    for name, m in res["metrics"].items():
        print(f"   {name:44s} {m['value']:16.6g} {m['unit']:8s} {m['samples']}")
    for name, (value, samples) in res["stages"].items():
        print(f"   {'stage ' + name + ' (median)':44s} {value:16.6g} {'s':8s} {samples}")
    for f in res["failures"]:
        print(f"   FAILED op {f['op']}: {f['error'] or '; '.join(f['problems'])}")
    print(f"   env: {env['cpu_model']}, nproc {env['nproc']}, caches {env['caches']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, cap {env['blas_thread_cap']}, live threads "
          f"{res['live_threads']}, commit {env['git_commit']}, seed {env['seed']}")


def _save(res: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")


def _result_line(res: dict) -> str:
    return json.dumps(
        {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {
                k: {"value": m["value"], "unit": m["unit"]} for k, m in res["metrics"].items()
            },
        }
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dinfh benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        spec = json.loads(SPEC_FILE.read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            p.error(f"--workload must be one of {names} or all")
        if args.workload != "all":
            deadline = time.monotonic() + RUN_BUDGET_S
            res = run_workload(spec, args.workload, args.seed, args.seconds, args.trace,
                               deadline)
            report(res)
            _save(res)
            print(_result_line(res))
            return 0

        summary = {}
        for name in names:
            runs = {}
            for trace in (0, 1):
                deadline = time.monotonic() + RUN_BUDGET_S
                runs[trace] = run_workload(spec, name, args.seed, args.seconds, trace,
                                           deadline)
                report(runs[trace])
                _save(runs[trace])
            overhead = (runs[1]["metrics"]["trace.op_p50_s"]["value"]
                        - runs[0]["metrics"]["op_p50_s"]["value"])
            print(f"   tracing overhead on {name}: {overhead:+.4f} s per operation "
                  f"(traced median minus untraced median)")
            summary[name] = {
                "correct": runs[0]["correct"] and runs[1]["correct"],
                "failed": runs[0]["failed"] + runs[1]["failed"],
                "end_to_end": {k: m["value"] for k, m in runs[0]["metrics"].items()},
                "tracing_overhead_s": overhead,
                "trace_coverage": runs[1]["metrics"]["trace.coverage"]["value"],
            }
        print(json.dumps(summary))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
