"""The traced layers of dinfh and the per-layer metrics of a traced run.

Every traced function reports ``calls`` and ``s`` (wall seconds inside it);
some add a work count or a ratio of useful to evaluated work.  All counts
and times are per operation of the workload, so runs of different lengths
compare.  Layers are measured from outside, by timing calls into their
public functions; nothing inside ``src`` is changed.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from typing import Dict

import numpy as np

from dinfh import acceptance, erratum, oracle, selfsim, spectrum, traces
from dinfh.errors import DinfhError
from tracing import END, OP_SPAN, START, WORK, Tracer, children, install, self_times

__all__ = ["OP_SPAN", "install_tracer", "per_layer_metrics"]


def _length(args, kwargs, out):
    # points of a grid, or samples of a loop
    return len(args[0])


def _margin_grid(args, kwargs, out):
    return (len(args[0]), kwargs.get("N", args[1] if len(args) > 1 else None))


def _symbol_blocks(args, kwargs, out):
    # (..., n_theta, 4, 4) symbol stack: one 4x4 block per point and angle
    return int(np.prod(out.shape[:-2]))


def _dense_size(args, kwargs, out):
    return 4 * args[0].N


def _slogdet_size(args, kwargs, out):
    return int(np.shape(args[0])[-1])


def _level_key(args, kwargs, out):
    return tuple(float(v) for v in args[:3]) + (int(args[3]),)


# (span name, owner, attribute, work count from (args, kwargs, result))
TARGETS = [
    ("spectrum.membership_grid", spectrum, "membership_grid", _length),
    ("spectrum.membership", spectrum, "membership", None),
    ("oracle.margin_grid", oracle, "margin_grid", _margin_grid),
    ("oracle.pencil_symbol", oracle, "pencil_symbol", _symbol_blocks),
    ("oracle.symbol_integrand", oracle, "symbol_integrand", None),
    ("oracle.pencil_matrix", oracle, "pencil_matrix", None),
    ("oracle.CirculantPencil.lu", oracle.CirculantPencil, "lu", _dense_size),
    # the dense route's log-determinant; only oracle_period calls it
    ("oracle.slogdet", np.linalg, "slogdet", _slogdet_size),
    ("oracle.oracle_period", oracle, "oracle_period", None),
    ("oracle.oracle_trace", oracle, "oracle_trace", None),
    ("oracle.oracle_phitr", oracle, "oracle_phitr", None),
    ("traces.loop_coefficients", traces, "loop_coefficients", _length),
    ("traces.loop_period", traces, "loop_period", None),
    ("traces.trace_quadrature", traces, "trace_quadrature", None),
    ("traces.potential_tr", traces, "potential_tr", None),
    ("selfsim.pencil_level_eigs", selfsim, "pencil_level_eigs", _level_key),
    ("selfsim.level_matrix", selfsim, "level_matrix", None),
    ("selfsim.coverage_gap", selfsim, "coverage_gap", None),
    ("selfsim.validate_eigs_in_spectrum", selfsim, "validate_eigs_in_spectrum", None),
    ("erratum.erratum_report", erratum, "erratum_report", None),
] + [
    (f"acceptance.criterion_{n}", acceptance, f"criterion_{n}", None) for n in range(1, 10)
]


def install_tracer() -> Tracer:
    tracer = Tracer((DinfhError, MemoryError))
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dinfh"]
    install(tracer, TARGETS, modules)
    return tracer


def lu_flops(n: int) -> float:
    """Real floating-point operations of a complex n x n LU (computed)."""
    return 8.0 / 3.0 * n**3


def per_layer_metrics(tracer: Tracer, n_ops: int) -> Dict[str, float]:
    """Per-operation layer metrics from the spans of a traced run."""
    spans = tracer.spans
    selfs = self_times(spans)
    kids = children(spans)
    per_op = 1.0 / max(n_ops, 1)
    calls: Dict[str, int] = defaultdict(int)
    secs: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] += 1
        secs[name] += span[END] - span[START]
        self_s[name] += selfs[i]
        by_name[name].append(i)

    m: Dict[str, float] = {}
    for name, *_ in TARGETS:
        m[f"{name}.calls"] = calls[name] * per_op
        m[f"{name}.s"] = secs[name] * per_op
    for name in ("traces.loop_coefficients", "traces.loop_period"):
        m[f"{name}.self_s"] = self_s[name] * per_op

    m["spectrum.membership_grid.points"] = (
        sum(spans[i][WORK] for i in by_name["spectrum.membership_grid"]) * per_op
    )
    grids = [spans[i][WORK] for i in by_name["oracle.margin_grid"]]
    m["oracle.margin_grid.points"] = sum(p for p, _ in grids) * per_op
    m["oracle.margin_grid.blocks"] = sum(p * n for p, n in grids) * per_op
    m["oracle.pencil_symbol.blocks"] = (
        sum(spans[i][WORK] for i in by_name["oracle.pencil_symbol"]) * per_op
    )

    # node doubling: only the last symbol stack of each call is the answer
    used = evaluated = 0
    for i in by_name["traces.loop_coefficients"]:
        blocks = [spans[j][WORK] for j in kids.get(i, ())
                  if spans[j][0] == "oracle.pencil_symbol"]
        if blocks:
            used += blocks[-1]
            evaluated += sum(blocks)
    m["traces.loop_coefficients.useful_ratio"] = used / evaluated if evaluated else 0.0

    # step doubling: only the last step grid of each period is the answer
    used = evaluated = 0
    for i in by_name["traces.loop_period"]:
        steps = [spans[j][WORK] for j in kids.get(i, ())
                 if spans[j][0] == "traces.loop_coefficients"]
        if steps:
            used += steps[-1]
            evaluated += sum(steps)
    m["traces.loop_period.steps_useful_ratio"] = used / evaluated if evaluated else 0.0

    keys = [spans[i][WORK] for i in by_name["selfsim.pencil_level_eigs"]]
    m["selfsim.pencil_level_eigs.distinct_ratio"] = (
        len(set(keys)) / len(keys) if keys else 0.0
    )

    m["oracle.dense_lu.flops_computed"] = per_op * sum(
        lu_flops(spans[i][WORK])
        for name in ("oracle.CirculantPencil.lu", "oracle.slogdet")
        for i in by_name[name]
    )

    m.update({k: v * per_op for k, v in tracer.failures.items()})

    # how much of each operation the top-level layer spans account for
    op_spans = by_name[OP_SPAN]
    op_times = [spans[i][END] - spans[i][START] for i in op_spans]
    top = sum(
        spans[j][END] - spans[j][START] for i in op_spans for j in kids.get(i, ())
    )
    op_total = sum(op_times)
    m["trace.coverage"] = top / op_total if op_total else 0.0
    m["trace.op_p50_s"] = statistics.median(op_times) if op_times else 0.0
    m["trace.spans_per_op"] = (len(spans) - len(op_spans)) * per_op
    return m
