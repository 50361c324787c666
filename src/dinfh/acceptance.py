"""The verification suite: nine numbered criteria with pinned tolerances.

Each criterion body returns ``(passed, details)`` and is registered by
:func:`_criterion`, the one place that times it, holds its runtime budget,
makes SciPy's first import before the clock of the criteria that solve Klein
blocks, builds its :class:`CriterionResult` and lists it in ``CRITERIA``.
The CLI ``verify`` subcommand and the test suite both drive :func:`run_all`.
All randomness is seeded from the run configuration and wall-clock times
stay out of ``details``, so repeated runs produce identical artifacts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import erratum, loops, oracle, selfsim, traces
from .config import RunConfig
from .erratum import P_POINT
from .group import GEN_A, GEN_T, GEN_TAU, GEN_U, FunctionalKind, generator_product, mul
from .spectrum import membership, membership_grid


@dataclass
class CriterionResult:
    """Outcome of one criterion.

    ``details`` is deterministic for a given configuration and goes into
    the artifact; wall-clock time (``seconds``, and criterion 9's level-5
    eigensolve) is run telemetry, checked against the runtime budgets in
    ``passed`` but never written to the artifact.  A budget given to
    :func:`_criterion` is recorded as ``details["runtime_budget_s"]``.
    """

    number: int
    name: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.name} ({1e3 * self.seconds:.1f} ms)"


def _rng(config: RunConfig, criterion: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, criterion])


CRITERIA: Dict[int, Callable[[RunConfig], CriterionResult]] = {}


def _criterion(number: int, name: str, budget_s: float | None = None, klein: bool = False):
    """Register a body ``config -> (passed, details)`` as criterion ``number``,
    the same function as ``CRITERIA[number]``: SciPy's first import before
    the clock if ``klein``, then the timed body, failed past ``budget_s``
    with that budget recorded in ``details``."""

    def register(body: Callable[[RunConfig], Tuple[bool, dict]]):
        @wraps(body)
        def run(config: RunConfig) -> CriterionResult:
            if klein:
                oracle._gtsv()  # SciPy's first import, outside the timed part
            t0 = time.perf_counter()
            passed, details = body(config)
            seconds = time.perf_counter() - t0
            if budget_s is not None:
                details["runtime_budget_s"] = budget_s
                passed = passed and seconds < budget_s
            return CriterionResult(number, name, passed, seconds, details)

        CRITERIA[number] = run
        return run

    return register


@_criterion(1, "spectrum formula vs oracle on 10k points", budget_s=120.0)
def criterion_1(config: RunConfig):
    """Closed-form membership agrees with the oracle on 10k random points."""
    rng = _rng(config, 1)
    pts = rng.uniform(-2.0, 2.0, size=(10_000, 4))
    cf_margin, cf_in = membership_grid(pts.astype(complex))
    or_margin = oracle.margin_grid(pts.astype(complex), N=256)
    or_in = or_margin < 1e-3
    mismatch = cf_in != or_in
    outside_band = mismatch & (cf_margin >= 5e-3)
    return int(outside_band.sum()) == 0, {
        "points": len(pts),
        "mismatches": int(mismatch.sum()),
        "mismatches_outside_band": int(outside_band.sum()),
        "mismatch_fraction": float(mismatch.mean()),
    }


@_criterion(2, "resolvent point p")
def criterion_2(config: RunConfig):
    """p = (1, 8, 4, 2) is a resolvent point with a stable oracle margin."""
    res = membership(P_POINT)
    m256 = oracle.membership_margin(P_POINT, 256)
    m512 = oracle.membership_margin(P_POINT, 512)
    drift = abs(m512 - m256) / m256
    passed = (not res.in_spectrum) and m256 >= 0.5 and drift <= 0.01
    return passed, {
        "in_spectrum": res.in_spectrum,
        "closed_form_margin": res.margin,
        "oracle_margin_N256": m256,
        "oracle_margin_N512": m512,
        "relative_drift": drift,
    }


def _random_resolvent_points(
    rng: np.random.Generator, count: int, box: float, min_margin: float
) -> np.ndarray:
    pts = []
    while len(pts) < count:
        cand = rng.uniform(-box, box, size=(4 * count, 4))
        margin, inside = membership_grid(cand.astype(complex))
        good = cand[(~inside) & (margin > min_margin)]
        pts.extend(good.tolist())
    return np.asarray(pts[:count])


@_criterion(3, "exactness of the canonical-trace 1-form")
def criterion_3(config: RunConfig):
    """Exactness: the potential gradient equals the trace coefficients."""
    rng = _rng(config, 3)
    points = np.concatenate([[P_POINT], _random_resolvent_points(rng, 20, 3.0, 0.1)])
    # all 21 points in one stacked pass each
    grad = traces.potential_gradient(points)
    coeff = traces.trace_coefficients(points, FunctionalKind.CANONICAL_TRACE)
    worst = float(np.abs(grad - coeff).max())
    return worst <= 1e-6, {"points": len(points), "worst_abs_error": worst, "tolerance": 1e-6}


@_criterion(4, "trace values at p", klein=True)
def criterion_4(config: RunConfig):
    """Trace values at p match the independent closed forms both ways."""
    tr_e_exact = 0.5 / math.sqrt(2145.0) - 1.5 / math.sqrt(945.0)
    phi_a_exact = -(1.0 / 16.0 + 49.0 / (16.0 * math.sqrt(2145.0)))
    quad_tr_e = traces.trace_quadrature(traces.TraceRequest(P_POINT, "tr", "e"))
    oracle_tr_e = oracle.oracle_trace(P_POINT, "e", 256)
    quad_phi_a = traces.trace_quadrature(traces.TraceRequest(P_POINT, "phitr", "a"))
    oracle_phi_a = oracle.oracle_phitr(P_POINT, "a", 256)
    errs = {
        "quad_tr_e": abs(quad_tr_e - tr_e_exact),
        "oracle_tr_e": abs(oracle_tr_e - tr_e_exact),
        "quad_vs_oracle_tr_e": abs(quad_tr_e - oracle_tr_e),
        "quad_phitr_a": abs(quad_phi_a - phi_a_exact),
        "oracle_phitr_a": abs(oracle_phi_a - phi_a_exact),
    }
    return all(v <= 1e-8 for v in errs.values()), {
        "tr_e_exact": tr_e_exact,
        "phitr_a_exact": phi_a_exact,
        "errors": {k: float(v) for k, v in errs.items()},
    }


@_criterion(5, "erratum adjudication", klein=True)
def criterion_5(config: RunConfig):
    """Erratum adjudication: oracle refutes the tabulated tau/e entries."""
    report = erratum.erratum_report(config, include_periods=False)
    tau = report["tau_trace"]
    mp = report["mixed_partials"]
    checks = {
        "direct_tau_is_minus_third": abs(tau["direct_algebra"] + 1.0 / 3.0) <= 1e-12,
        "tabulated_tau_is_plus_third": abs(tau["tabulated"] - 1.0 / 3.0) <= 1e-9,
        "oracle_matches_direct": abs(tau["oracle_N64"] - tau["direct_algebra"])
        <= 1e-10,
        "mixed_partials_agree": mp["mutual_abs_diff"] <= 1e-6,
        "mixed_partials_match_true_value": abs(
            mp["oracle_d_z1_of_e_coeff"] - mp["closed_form_true_value"]
        )
        <= 1e-6,
        "tabulated_first_value_reproduced_as_formula": abs(
            mp["tabulated_first_value_reevaluated"] - mp["tabulated_first_value"]
        )
        <= 1e-6,
        "pointwise_inequality_not_reproducible": not mp[
            "pointwise_inequality_reproducible"
        ],
    }
    return all(checks.values()), {"checks": checks, "report": report}


@_criterion(6, "rank-2 period matrix on L1, L2", budget_s=60.0, klein=True)
def criterion_6(config: RunConfig):
    """Two independent cohomology classes via the L1/L2 period matrix."""
    expected = [[2, 2], [-2, 0]]
    analytic = traces.class_independence([loops.loop_L1(), loops.loop_L2()])
    oracle_entries = {}
    oracle_ok = True
    for col, loop in enumerate((loops.loop_L1(), loops.loop_L2())):
        # rows of the period matrix: Tr, phi~ (FunctionalKind order)
        for row, (kind, val) in enumerate(oracle.oracle_period(loop, N=32).items()):
            rep = traces.PeriodReport(val, kind, loop.name)
            oracle_entries[f"{loop.name}_{kind.value}"] = {
                "nearest": rep.nearest_multiple,
                "residual": float(rep.residual),
            }
            oracle_ok &= rep.nearest_multiple == expected[row][col] and rep.residual <= 1e-6
    passed = (
        analytic["integer_matrix"] == expected
        and analytic["rank"] == 2
        and float(analytic["residuals"].max()) <= 1e-6
        and oracle_ok
    )
    return passed, {
        "integer_matrix": analytic["integer_matrix"],
        "rank": analytic["rank"],
        "max_analytic_residual": float(analytic["residuals"].max()),
        "oracle_periods": oracle_entries,
    }


@_criterion(7, "period quantization on random loops")
def criterion_7(config: RunConfig):
    """Period quantization on 10 random loops in the z1 = z2 = 0 plane."""
    loop_set = loops.random_axis_loops(config.seed, 10)
    worst_tr = worst_phi = 0.0
    for loop in loop_set:
        reps = traces.loop_period(loop)
        worst_tr = max(worst_tr, reps[FunctionalKind.CANONICAL_TRACE].residual)
        worst_phi = max(worst_phi, reps[FunctionalKind.PHI_TENSOR_TRACE].residual)
    return worst_tr <= 1e-6 and worst_phi <= 1e-6, {
        "loops": len(loop_set),
        "worst_tr_residual": worst_tr,
        "worst_phitr_residual": worst_phi,
    }


def _random_words(rng: np.random.Generator, count: int):
    """Products of 1 to 6 generators a, t, tau."""
    return [
        generator_product(rng.integers(0, 3, size=rng.integers(1, 7)).tolist())
        for _ in range(count)
    ]


@_criterion(8, "self-similar action invariants")
def criterion_8(config: RunConfig):
    """Self-similar action invariants on seeded random words."""
    rng = _rng(config, 8)
    words = _random_words(rng, 200)
    failures: List[str] = []

    # the level vectors of the 100 pairs (g, h) and their products, stacked
    gs, hs = words[0::2], words[1::2]
    products = [mul(g, h) for g, h in zip(gs, hs)]
    for level in range(1, 5):
        lg, lh, lgh = (selfsim.level_vectors(x, level) for x in (gs, hs, products))
        if not np.array_equal(lgh, np.take_along_axis(lg, lh, axis=1)):
            failures.append(f"homomorphism at level {level}")

    for level in range(1, 5):
        mats = {
            s: selfsim.level_matrix(g, level).perm_vector
            for s, g in (("a", GEN_A), ("t", GEN_T), ("tau", GEN_TAU))
        }
        ident = np.arange(4**level)
        for s, v in mats.items():
            if not np.array_equal(v[v], ident):
                failures.append(f"{s} not involutive at level {level}")
        for s in ("a", "t"):
            if not np.array_equal(
                mats[s][mats["tau"]], mats["tau"][mats[s]]
            ):
                failures.append(f"tau does not commute with {s} at level {level}")

    # every homomorphic image of the group passes the relations above; the
    # order of u and the letter-by-letter action also catch a wrong one,
    # such as a level matrix that reduces k modulo 2^(n-1) instead of 2^n
    for level in range(1, selfsim.MAX_LEVEL + 1):
        power = selfsim.level_matrix(GEN_U, level).perm_vector
        for _ in range(level - 1):
            power = power[power]  # u^(2^(level - 1))
        ident = np.arange(4**level)
        if np.array_equal(power, ident) or not np.array_equal(power[power], ident):
            failures.append(f"u does not have order 2^{level} at level {level}")
    for g in [GEN_U] + words[:8]:
        walked = selfsim.act_on_level(g, 3)
        if not np.array_equal(selfsim.level_matrix(g, 3).perm_vector, walked):
            failures.append(f"level-3 vector of {g} is not its letter-by-letter action")

    rng2 = _rng(config, 88)
    for _ in range(5):
        z1, z2, z3 = rng2.uniform(-2, 2, 3)
        prev = np.sort(selfsim.pencil_level_eigs(z1, z2, z3, 1))
        for level in range(2, 5):
            cur = np.sort(selfsim.pencil_level_eigs(z1, z2, z3, level))
            idx = np.searchsorted(cur, prev)
            idx = np.clip(idx, 1, len(cur) - 1)
            dist = np.minimum(
                np.abs(cur[idx] - prev), np.abs(prev - cur[idx - 1])
            )
            if dist.max() > 1e-9:
                failures.append(f"nesting broken at level {level}")
                break
            prev = cur

    return not failures, {"words": len(words), "failures": failures}


@_criterion(9, "weak-equivalence witness")
def criterion_9(config: RunConfig):
    """Weak-equivalence witness: eigenvalue containment and coverage."""
    rng = _rng(config, 9)
    # 50 points (z1, z2, z3), each level's eigenvalues of all 50 at once
    coeffs = rng.uniform(-2, 2, (50, 3))
    violations = sum(selfsim.count_violations(coeffs, level, tol=1e-8) for level in (2, 3, 4))
    gaps = [selfsim.coverage_gap(1.0, 1.0, 0.5, n) for n in (2, 3, 4, 5)]
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    t_eig = time.perf_counter()
    selfsim.pencil_level_eigs(1.0, 1.0, 0.5, 5)
    eig_seconds = time.perf_counter() - t_eig
    passed = violations == 0 and decreasing and gaps[-1] < 0.5 and eig_seconds < 30.0
    return passed, {"violations": violations, "coverage_gaps": [float(g) for g in gaps]}


def run_all(
    config: RunConfig | None = None,
    only: Sequence[int] | None = None,
    echo: Callable[[str], None] | None = print,
) -> List[CriterionResult]:
    """Run the criteria numbered in ``only`` (all by default), each once and
    in ascending order, echoing each one's line.  An empty or unknown
    selection is a ``ValueError`` before any criterion runs."""
    config = config or RunConfig()
    numbers = sorted(CRITERIA) if only is None else sorted(set(only))
    if not numbers:
        raise ValueError("no criterion selected")
    unknown = [num for num in numbers if num not in CRITERIA]
    if unknown:
        raise ValueError(f"no criterion {', '.join(map(str, unknown))}")
    results = []
    for num in numbers:
        result = CRITERIA[num](config)
        results.append(result)
        if echo:
            echo(result.line())
    return results
