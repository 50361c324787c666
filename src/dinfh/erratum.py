"""Erratum report: tabulated closed forms vs operator ground truth.

The tabulated trace integrands in :mod:`dinfh.traces` contain three
defects that the finite circulant oracle (and direct group-algebra
arithmetic) contradict:

1. the canonical-trace tau integrand has the wrong sign structure -- at
   z = (2, 0, 0, 1) it evaluates to +1/3 while (2 + tau)^-1 * tau has
   canonical trace -1/3 exactly;
2. the twisted-functional identity integrand is wrong -- at the same
   point it gives -1/3 against the exact value -1; as a consequence the
   tabulated mixed partial d/dz1 of that coefficient at p = (1, 8, 4, 2)
   differs from the true one, and the claimed pointwise inequality
   between the two mixed partials fails: the oracle values agree;
3. the degenerate-case (z0 = +-z3) e/tau entries carry a spurious factor
   -2 relative to the oracle.

The report records all of these side by side.  The independence of the
two 1-form classes survives: it is certified by the loop period matrix
(rank 2), not by the pointwise inequality.
"""

from __future__ import annotations

import math

from . import group, loops, oracle, traces
from .config import SCHEMA_VERSION, RunConfig
from .group import FunctionalKind

P_POINT = (1.0, 8.0, 4.0, 2.0)

# closed-form reference values at p for the two mixed partials
TRUE_MIXED_PARTIAL_AT_P = 752.0 / (2145.0 * math.sqrt(2145.0))
TABULATED_MIXED_PARTIAL_AT_P = 14872.0 / (45045.0 * math.sqrt(105.0)) - 7896.0 / (
    45045.0 * math.sqrt(2145.0)
)


def _quad(z, functional, word, formula) -> complex:
    return traces.trace_quadrature(
        traces.TraceRequest(z, functional, word), formula=formula
    )


def _fd_oracle_phitr(z, word: str, coord: int) -> float:
    def f(zi):
        return oracle.oracle_phitr(zi, word, 256)

    return traces.central_difference(f, z, coord, traces.FD_STEP).real


def _fd_tabulated_phitr(z, word: str, coord: int) -> float:
    def f(zi):
        return _quad(zi, "phitr", word, "tabulated")

    return traces.central_difference(f, z, coord, traces.FD_STEP).real


def tau_trace_comparison() -> dict:
    """Item 1: canonical trace of R^-1 tau at (2, 0, 0, 1)."""
    z = (2.0, 0.0, 0.0, 1.0)
    two_plus_tau = group.AlgebraElement(
        {group.IDENTITY: 2.0, group.GEN_TAU: 1.0}
    )
    inv = group.invert_scalar_plus_tau(two_plus_tau)
    direct = group.canonical_trace(
        group.algebra_mul(inv, group.AlgebraElement({group.GEN_TAU: 1.0}))
    )
    return {
        "z": list(map(float, z)),
        "word": "tau",
        "direct_algebra": direct.real,
        "tabulated": _quad(z, "tr", "tau", "tabulated").real,
        "adjudicated": _quad(z, "tr", "tau", "symbol").real,
        "oracle_N64": oracle.oracle_trace(z, "tau", 64).real,
    }


def phitr_identity_comparison() -> dict:
    """Item 2a: twisted functional of R^-1 at (2, 0, 0, 1)."""
    z = (2.0, 0.0, 0.0, 1.0)
    two_plus_tau = group.AlgebraElement(
        {group.IDENTITY: 2.0, group.GEN_TAU: 1.0}
    )
    direct = group.phi_trace(group.invert_scalar_plus_tau(two_plus_tau))
    return {
        "z": list(map(float, z)),
        "word": "e",
        "direct_algebra": direct.real,
        "tabulated": _quad(z, "phitr", "e", "tabulated").real,
        "adjudicated": _quad(z, "phitr", "e", "symbol").real,
        "oracle_N64": oracle.oracle_phitr(z, "e", 64).real,
    }


def mixed_partial_comparison() -> dict:
    """Item 2b: the two mixed partials of the twisted 1-form at p (oracle
    at N = 256, central differences of step FD_STEP).

    Closedness demands d/dz1 of the e-coefficient equal d/dz0 of the
    a-coefficient; the oracle confirms they do.  The tabulated
    e-coefficient instead reproduces the (incorrect) first value only as
    a formula evaluation.
    """
    d1 = _fd_oracle_phitr(P_POINT, "e", coord=1)
    d2 = _fd_oracle_phitr(P_POINT, "a", coord=0)
    tab = _fd_tabulated_phitr(P_POINT, "e", coord=1)
    return {
        "z": list(map(float, P_POINT)),
        "oracle_d_z1_of_e_coeff": d1,
        "oracle_d_z0_of_a_coeff": d2,
        "mutual_abs_diff": abs(d1 - d2),
        "closed_form_true_value": TRUE_MIXED_PARTIAL_AT_P,
        "tabulated_first_value": TABULATED_MIXED_PARTIAL_AT_P,
        "tabulated_first_value_reevaluated": tab,
        "pointwise_inequality_reproducible": bool(
            abs(d1 - d2) > 1e-3  # the tabulated claim; the oracle refutes it
        ),
    }


def degenerate_weight_comparison() -> dict:
    """Item 3: the z0 = +-z3 e/tau entries are off by a factor -2."""
    z_plus = (1.0, 0.5, 0.0, 1.0)
    z_minus = (1.0, 0.5, 0.0, -1.0)
    out = {"cases": []}
    for z in (z_plus, z_minus):
        out["cases"].append(
            {
                "z": list(map(float, z)),
                "word": "e",
                "tabulated": _quad(z, "tr", "e", "tabulated").real,
                "adjudicated": _quad(z, "tr", "e", "symbol").real,
                "oracle_N64": oracle.oracle_trace(z, "e", 64).real,
                "tabulated_tau": _quad(z, "tr", "tau", "tabulated").real,
                "adjudicated_tau": _quad(z, "tr", "tau", "symbol").real,
            }
        )
    return out


def class_conclusion() -> dict:
    """The surviving conclusion: rank-2 period matrix over L1, L2."""
    ind = traces.class_independence([loops.loop_L1(), loops.loop_L2()])
    return {
        "loops": ["L1", "L2"],
        "integer_matrix": ind["integer_matrix"],
        "rank": ind["rank"],
        "max_residual": float(ind["residuals"].max()),
    }


def erratum_report(config: RunConfig | None = None, include_periods: bool = True) -> dict:
    config = config or RunConfig()
    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "tau_trace": tau_trace_comparison(),
        "phitr_identity": phitr_identity_comparison(),
        "mixed_partials": mixed_partial_comparison(),
        "degenerate_weight": degenerate_weight_comparison(),
    }
    if include_periods:
        report["class_independence"] = class_conclusion()
    return report
