"""Batch command-line front end.

Subcommands: membership, slice, trace, mc-check, period, independence,
tree, tree-spectrum, coverage, verify, erratum-report.  Artifacts are JSON
or CSV with a ``schema_version`` field and the RNG seed recorded; identical
configuration and seed produce byte-identical output.  Exit codes: 0 on
success, 1 on usage errors, 2 on verification failure or a propagated
computation error (rendered as structured JSON on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import acceptance, erratum, loops, oracle, selfsim, traces
from .config import DEFAULT_SEED, SCHEMA_VERSION, RunConfig
from .errors import DinfhError
from .group import FunctionalKind, parse_word
from .spectrum import (
    AXIS_NAMES,
    PencilPoint,
    RasterPlane,
    membership,
    raster_csv_lines,
    slice_raster,
)


# a negative RE or RE,IM literal is a value, not an option: argparse's own
# pattern takes -1 and -0.5 but reads -1e-5, -.5 and -1,0 as flags
_REAL = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
_NEGATIVE_NUMBER = re.compile(rf"^-{_REAL}(,[-+]?{_REAL})?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # usage problems exit 1; verification failures exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    """A finite float: nan and inf name no point and no tolerance."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(_finite(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(_finite(parts[0]), _finite(parts[1]))
    raise argparse.ArgumentTypeError(f"bad complex literal {text!r} (use RE or RE,IM)")


def _axis(text: str) -> int:
    if text in AXIS_NAMES:
        return AXIS_NAMES.index(text)
    raise argparse.ArgumentTypeError(f"axis must be one of {AXIS_NAMES}")


def _artifact(payload: dict, seed: int) -> dict:
    return {"schema_version": SCHEMA_VERSION, "seed": seed, **payload}


def _emit(artifact, out: str | None) -> None:
    """Write a JSON payload (a dict) or text lines to ``out``, else to stdout."""
    if isinstance(artifact, dict):
        text = json.dumps(artifact, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(artifact) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _numbers(value) -> bool:
    """True for a JSON list of finite numbers: NaN, Infinity, a bool or an
    integer past the float range is none."""
    return isinstance(value, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
        for v in value
    )


def _parse_loop(text: str, steps: int | None):
    if text in loops.NAMED_LOOPS:
        loop = loops.NAMED_LOOPS[text]()
    else:
        try:
            desc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise argparse.ArgumentTypeError(
                f"loop must be one of {sorted(loops.NAMED_LOOPS)} or inline JSON"
            ) from exc
        if not isinstance(desc, dict):
            raise argparse.ArgumentTypeError("an inline loop must be a JSON object")
        if desc.get("kind", "circle") != "circle":
            raise argparse.ArgumentTypeError("inline loops must have kind 'circle'")
        missing = [key for key in ("center", "radius", "coords") if key not in desc]
        if missing:
            raise argparse.ArgumentTypeError(f"inline loop lacks {', '.join(missing)}")
        center, coords, signs = desc["center"], desc["coords"], desc.get("signs")
        if not (isinstance(center, list) and all(_numbers(p) and len(p) == 2 for p in center)):
            raise argparse.ArgumentTypeError(
                "inline loop center must be a list of finite [re, im] pairs"
            )
        if not isinstance(coords, list):
            raise argparse.ArgumentTypeError("inline loop coords must be a list")
        if not (signs is None or _numbers(signs)):
            raise argparse.ArgumentTypeError("inline loop signs must be a list of finite numbers")
        if not _numbers([desc["radius"], desc.get("steps", 512)]):
            raise argparse.ArgumentTypeError("inline loop radius and steps must be finite numbers")
        # a coordinate is a name or its index; a list compares without hashing
        unknown = [c for c in coords if c not in [*loops.AXIS_INDEX, *range(4)]]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown loop coordinates {unknown}; use {sorted(loops.AXIS_INDEX)}"
            )
        loop = loops.circle_loop(
            [complex(re, im) for re, im in center],
            float(desc["radius"]),
            coords,
            signs,
            steps=int(desc.get("steps", 512)),
            name=desc.get("name", "inline"),
        )
    if steps is not None:
        loop.steps = steps
    return loop


def _add_z_argument(sub):
    sub.add_argument(
        "--z",
        nargs=4,
        type=_complex,
        required=True,
        metavar=("Z0", "Z1", "Z2", "Z3"),
        help="pencil coefficients as RE or RE,IM",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dinfh", description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("membership", help="closed-form spectrum membership")
    _add_z_argument(sub)
    sub.add_argument("--tol", type=_finite, default=1e-9)
    sub.add_argument("--out")

    sub = subs.add_parser("slice", help="membership raster on a 2-plane")
    sub.add_argument("--axes", nargs=2, type=_axis, required=True)
    sub.add_argument(
        "--fixed",
        nargs=2,
        type=_complex,
        required=True,
        help="values of the two fixed coordinates, in axis order",
    )
    sub.add_argument("--grid", nargs=2, type=int, default=(64, 64))
    sub.add_argument("--u-range", nargs=2, type=_finite, default=(-2.0, 2.0))
    sub.add_argument("--v-range", nargs=2, type=_finite, default=(-2.0, 2.0))
    sub.add_argument("--tol", type=_finite, default=1e-9)
    sub.add_argument("--out")

    sub = subs.add_parser("trace", help="trace of resolvent times word")
    _add_z_argument(sub)
    sub.add_argument("--functional", choices=("tr", "phitr"), default="tr")
    sub.add_argument("--word", choices=oracle.WORDS, default="e")
    sub.add_argument("--method", choices=("quad", "oracle"), default="quad")
    sub.add_argument("--N", type=int, default=256)
    sub.add_argument("--n-nodes", type=int, default=256)
    sub.add_argument("--formula", choices=("symbol", "tabulated"), default="symbol")
    sub.add_argument("--out")

    sub = subs.add_parser("mc-check", help="closedness residual of a 1-form")
    _add_z_argument(sub)
    sub.add_argument("--functional", choices=("tr", "phitr"), default="tr")
    sub.add_argument("--step", type=float, default=1e-5)
    sub.add_argument("--n-nodes", type=int, default=256)
    sub.add_argument("--formula", choices=("symbol", "tabulated"), default="symbol")
    sub.add_argument("--out")

    sub = subs.add_parser("period", help="loop period of a 1-form")
    sub.add_argument("--loop", required=True, help="L1, L2, or inline JSON circle")
    sub.add_argument("--functional", choices=("tr", "phitr"), default="tr")
    sub.add_argument("--steps", type=int)
    sub.add_argument("--method", choices=("analytic", "oracle"), default="analytic")
    sub.add_argument("--N", type=int, default=32)
    sub.add_argument("--out")

    sub = subs.add_parser("independence", help="period matrix over loops")
    sub.add_argument("--loops", default="L1,L2", help="comma-separated loop names")
    sub.add_argument("--out")

    sub = subs.add_parser("tree", help="level matrix dump of a group element")
    sub.add_argument("--element", default="a", help="word over a, t, T (tau), e")
    sub.add_argument("--level", type=int, default=2)
    sub.add_argument("--out")

    sub = subs.add_parser("tree-spectrum", help="level-n pencil eigenvalues")
    sub.add_argument("--z1", type=_finite, required=True)
    sub.add_argument("--z2", type=_finite, required=True)
    sub.add_argument("--z3", type=_finite, required=True)
    sub.add_argument("--level", type=int, default=4)
    sub.add_argument("--out")

    sub = subs.add_parser("coverage", help="spectrum coverage gap at a level")
    sub.add_argument("--z1", type=_finite, required=True)
    sub.add_argument("--z2", type=_finite, required=True)
    sub.add_argument("--z3", type=_finite, required=True)
    sub.add_argument("--level", type=int, default=4)
    sub.add_argument("--out")

    sub = subs.add_parser("verify", help="run the acceptance criteria")
    sub.add_argument("--only", help="comma-separated criterion numbers")
    sub.add_argument("--out")

    sub = subs.add_parser("erratum-report", help="tabulated-vs-oracle adjudication")
    sub.add_argument("--skip-periods", action="store_true")
    sub.add_argument("--out")

    return parser


def _cmd_membership(args) -> int:
    res = membership(PencilPoint(*args.z), tol=args.tol)
    _emit(_artifact(res.to_json(), args.seed), args.out)
    return 0


def _cmd_slice(args) -> int:
    free = set(args.axes)
    fixed_axes = [i for i in range(4) if i not in free]
    vals = [0j] * 4
    for ax, val in zip(fixed_axes, args.fixed):
        vals[ax] = val
    plane = RasterPlane(axes=tuple(args.axes), fixed=PencilPoint(*vals))
    u, v, margin, inside = slice_raster(
        plane,
        (args.grid[0], args.grid[1], tuple(args.u_range), tuple(args.v_range)),
        tol=args.tol,
    )
    _emit(raster_csv_lines(u, v, margin, inside), args.out)
    return 0


def _cmd_trace(args) -> int:
    kind = FunctionalKind.coerce(args.functional)
    if args.method == "oracle":
        value = oracle.oracle_functional(args.z, args.word, kind, N=args.N)
        meta = {"method": "oracle", "N": args.N}
    else:
        value = traces.trace_quadrature(
            traces.TraceRequest(args.z, kind, args.word, args.n_nodes),
            formula=args.formula,
        )
        meta = {"method": "quad", "formula": args.formula, "n_nodes": args.n_nodes}
    payload = {
        "functional": kind.json_tag(),
        "word": args.word,
        "value_re": value.real,
        "value_im": value.imag,
        **meta,
    }
    _emit(_artifact(payload, args.seed), args.out)
    return 0


def _cmd_mc_check(args) -> int:
    kind = FunctionalKind.coerce(args.functional)
    res = traces.closedness_residual(
        args.z, kind, step=args.step, n_nodes=args.n_nodes, formula=args.formula
    )
    lines = ["coord_i,coord_j,residual"]
    for i in range(4):
        for j in range(4):
            lines.append(f"{AXIS_NAMES[i]},{AXIS_NAMES[j]},{float(res[i, j])!r}")
    lines.append(f"# max residual: {float(res.max())!r}")
    _emit(lines, args.out)
    return 0


def _cmd_period(args) -> int:
    loop = _parse_loop(args.loop, args.steps)
    kind = FunctionalKind.coerce(args.functional)
    if args.method == "oracle":
        value = oracle.oracle_period(loop, N=args.N)[kind]
        rep = traces.PeriodReport(value, kind, loop.name)
    else:
        rep = traces.loop_period(loop)[kind]
    payload = rep.to_json()
    payload["method"] = args.method
    _emit(_artifact(payload, args.seed), args.out)
    return 0


def _cmd_independence(args) -> int:
    loop_objs = [_parse_loop(name.strip(), None) for name in args.loops.split(",")]
    out = traces.class_independence(loop_objs)
    payload = {
        "loops": [l.name for l in loop_objs],
        "integer_matrix": out["integer_matrix"],
        "rank": out["rank"],
        "max_residual": float(out["residuals"].max()),
    }
    _emit(_artifact(payload, args.seed), args.out)
    return 0


def _cmd_tree(args) -> int:
    g = parse_word(args.element)
    lm = selfsim.level_matrix(g, args.level)
    _emit(lm.dump_lines(), args.out)
    return 0


def _cmd_tree_spectrum(args) -> int:
    lines = selfsim.eigenvalue_csv_lines(args.z1, args.z2, args.z3, args.level)
    _emit(lines, args.out)
    return 0


def _cmd_coverage(args) -> int:
    gap = selfsim.coverage_gap(args.z1, args.z2, args.z3, args.level)
    payload = {
        "z1": args.z1,
        "z2": args.z2,
        "z3": args.z3,
        "level": args.level,
        "gap": gap,
    }
    _emit(_artifact(payload, args.seed), args.out)
    return 0


def _cmd_verify(args) -> int:
    only = [int(x) for x in args.only.split(",")] if args.only else None
    config = RunConfig(seed=args.seed)
    results = acceptance.run_all(config, only=only)
    payload = {
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": _json_safe(r.details),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit(_artifact(payload, args.seed), args.out)
    return 0 if payload["all_passed"] else 2


def _cmd_erratum(args) -> int:
    config = RunConfig(seed=args.seed)
    report = erratum.erratum_report(config, include_periods=not args.skip_periods)
    _emit(report, args.out)
    return 0


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


_COMMANDS = {
    "membership": _cmd_membership,
    "slice": _cmd_slice,
    "trace": _cmd_trace,
    "mc-check": _cmd_mc_check,
    "period": _cmd_period,
    "independence": _cmd_independence,
    "tree": _cmd_tree,
    "tree-spectrum": _cmd_tree_spectrum,
    "coverage": _cmd_coverage,
    "verify": _cmd_verify,
    "erratum-report": _cmd_erratum,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        # invalid values caught by the library's own checks are usage errors
        sys.stderr.write(f"dinfh: error: {exc}\n")
        return 1
    except DinfhError as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
