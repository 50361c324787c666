"""Trace integrands of the resolvent 1-form, potentials, and loop periods.

Every coefficient of the scalar 1-forms  Tr(R^-1 dR)  and  phi~(R^-1 dR)
is an integral  (1/2pi) int_0^{2pi} f(theta) dtheta  of a trace integrand.
Two evaluation routes are provided:

* ``formula="symbol"`` (default): the pointwise symbol route from
  :mod:`dinfh.oracle` - closed-form rational functions of G^+- from the
  tau-parity 2x2 split of the symbol.  Averaged over the N-th roots of
  unity this is *identical* to the finite circulant oracle, which is what
  adjudicates every formula here.

* ``formula="tabulated"``: a table of closed-form integrands retained
  verbatim for auditing.  Most entries agree with the symbol route; the
  canonical-trace tau entry, the twisted-functional identity entry, and
  the degenerate-case e/tau weight do not (see the erratum report, which
  documents the discrepancies instead of silently fixing the table).

The canonical-trace 1-form is exact: it is d of the potential

    (1/8pi) int_0^{2pi} log( G^-_theta(z) * G^+_theta(z) ) dtheta

with the log branch unwrapped continuously in theta.  Both 1-forms are
closed with nonzero periods; the period lattice is quantized by pi*i/2
(canonical trace) and pi*i (twisted functional).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from . import oracle
from .errors import LoopHitsSpectrum, NotDegenerate, OnSpectrum
from .group import FunctionalKind
from .loops import LoopPath
from .oracle import WORDS, fft_angles, refine, richardson, symbol_integrand
from .spectrum import PencilPoint, as_point, membership_grid, pencil_scale

SINGULAR_TOL = 1e-12
NEAR_DEGENERATE_TOL = 1e-9
MAX_NODES = 2**14
MAX_UNWRAP_NODES = 2**17

QUANTA = {
    FunctionalKind.CANONICAL_TRACE: 0.5j * math.pi,
    FunctionalKind.PHI_TENSOR_TRACE: 1j * math.pi,
}

# provenance of the tabulated twisted-functional integrands: only the e and
# a entries have closed forms in the table; t and tau are defined by the
# oracle symbol
PHITR_TABULATED_WORDS = ("e", "a")


@dataclass(frozen=True)
class TraceRequest:
    z: PencilPoint
    functional: FunctionalKind
    word: str
    n_nodes: int = 256

    def __post_init__(self):
        object.__setattr__(self, "z", as_point(self.z))
        object.__setattr__(self, "functional", FunctionalKind.coerce(self.functional))
        if self.word not in WORDS:
            raise ValueError(f"word must be one of {WORDS}")
        if self.n_nodes < 4 or self.n_nodes % 2:
            raise ValueError("n_nodes must be even and at least 4")


def _parts(z: PencilPoint, theta):
    c = np.cos(np.asarray(theta, dtype=float))
    s = z.z1 * z.z1 + z.z2 * z.z2
    pc2 = 2.0 * z.z1 * z.z2 * c
    gm = (z.z0 - z.z3) ** 2 - s - pc2
    gp = (z.z0 + z.z3) ** 2 - s - pc2
    return c, s, pc2, gm, gp


def _require_offspectrum(z: PencilPoint, denominators, what: str) -> None:
    floor = SINGULAR_TOL * pencil_scale(z)
    for d in denominators:
        if np.min(np.abs(d)) <= floor:
            raise OnSpectrum(f"{what}: integrand denominator vanishes")


def integrand_tr(z, word: str, theta):
    """Tabulated canonical-trace integrand (non-degenerate closed forms).

    The e, a, t entries match the symbol route; the tau entry is kept as
    tabulated even though the oracle contradicts it (erratum item).
    """
    z = as_point(z)
    c, s, pc2, gm, gp = _parts(z, theta)
    _require_offspectrum(z, (gm, gp), "integrand_tr")
    denom = gm * gp
    if word == "e":
        val = z.z0 * (z.z0**2 - z.z3**2 - s - pc2) / denom
    elif word == "a":
        val = -(z.z1 + z.z2 * c) * (z.z0**2 + z.z3**2 - s - pc2) / denom
    elif word == "t":
        val = -(z.z1 * c + z.z2) * (z.z0**2 + z.z3**2 - s - pc2) / denom
    elif word == "tau":
        val = z.z3 * (z.z0**2 - z.z3**2 - s - pc2) / denom
    else:
        raise ValueError(f"word must be one of {WORDS}")
    return val if np.ndim(theta) else complex(val)


def is_degenerate(z) -> bool:
    """True at z0 = +-z3 with z3 != 0 (the Schur split collapses)."""
    z = as_point(z)
    tol = NEAR_DEGENERATE_TOL * max(1.0, max(abs(c) for c in z))
    return abs(z.z3) > tol and min(abs(z.z0 - z.z3), abs(z.z0 + z.z3)) <= tol


def integrand_tr_degenerate(z, word: str, theta):
    """Tabulated degenerate-case integrand at z0 = +-z3.

    The stated -1/pi prefactor of the e/tau entries is folded into the
    normalized (1/2pi) measure, i.e. those entries carry a factor -2.
    The oracle disagrees with the e/tau entries by exactly that factor
    (erratum item); the a/t entries agree.
    """
    z = as_point(z)
    if not is_degenerate(z):
        raise NotDegenerate("requires z0 = +-z3 with z3 != 0")
    c, s, pc2, _, _ = _parts(z, theta)
    g4 = 4.0 * z.z0**2 - s - pc2
    if word in ("e", "tau"):
        _require_offspectrum(z, (g4,), "integrand_tr_degenerate")
        val = -2.0 * z.z0 / g4
    elif word in ("a", "t"):
        spc = s + pc2
        _require_offspectrum(z, (g4, spc), "integrand_tr_degenerate")
        val = (z.z1 + z.z2 * c) * (2.0 * z.z0**2 - s - pc2) / (g4 * spc)
    else:
        raise ValueError(f"word must be one of {WORDS}")
    return val if np.ndim(theta) else complex(val)


def integrand_phitr(z, word: str, theta):
    """Twisted-functional integrand.

    Words e and a use the tabulated closed forms (the e entry disagrees
    with the oracle; erratum item).  Words t and tau have no tabulated
    form and are defined by the oracle symbol.
    """
    z = as_point(z)
    if word in ("t", "tau"):
        val = symbol_integrand(z, word, FunctionalKind.PHI_TENSOR_TRACE, theta)
        return val if np.ndim(theta) else complex(val[0])
    c, s, pc2, gm, gp = _parts(z, theta)
    if word == "e":
        _require_offspectrum(z, (gm, gp), "integrand_phitr")
        val = (z.z3 - z.z0) * (z.z0**2 - z.z3**2 - s - pc2) / (gm * gp)
    elif word == "a":
        _require_offspectrum(z, (gm,), "integrand_phitr")
        val = (z.z1 + z.z2 * c) / gm
    else:
        raise ValueError(f"word must be one of {WORDS}")
    return val if np.ndim(theta) else complex(val)


def _mean_integrand(req: TraceRequest, n: int, formula: str) -> complex:
    thetas = fft_angles(n)
    z = req.z
    _, _, _, gm, gp = _parts(z, thetas)
    _require_offspectrum(z, (gm, gp), "trace_quadrature")
    if formula == "symbol":
        vals = symbol_integrand(z, req.word, req.functional, thetas)
    elif formula == "tabulated":
        if req.functional is FunctionalKind.PHI_TENSOR_TRACE:
            vals = integrand_phitr(z, req.word, thetas)
        elif is_degenerate(z):
            vals = integrand_tr_degenerate(z, req.word, thetas)
        else:
            vals = integrand_tr(z, req.word, thetas)
    else:
        raise ValueError(f"unknown formula {formula!r}")
    return complex(np.mean(vals))


def trace_quadrature(
    req: TraceRequest,
    formula: str = "symbol",
    target: float = 1e-10,
    max_nodes: int = MAX_NODES,
) -> complex:
    """(1/2pi) int integrand dtheta by the uniform-node (trapezoid) rule.

    Nodes are doubled until two consecutive grids agree to ``target``;
    NonConvergent is raised if they still differ by more once the grid
    reaches ``max_nodes``.
    """
    return refine(
        lambda n: _mean_integrand(req, n, formula),
        req.n_nodes,
        target,
        max_nodes,
        "quadrature",
    )[1]


def trace_coefficients(
    z,
    functional,
    n_nodes: int = 256,
    formula: str = "symbol",
    target: float = 1e-10,
) -> np.ndarray:
    """The four 1-form coefficients (words e, a, t, tau) at one point."""
    z = as_point(z)
    return np.array(
        [
            trace_quadrature(
                TraceRequest(z, functional, w, n_nodes), formula=formula, target=target
            )
            for w in WORDS
        ]
    )


# ---------------------------------------------------------------------------
# potential and closedness


def _unwrapped_log_mean(values: np.ndarray) -> complex:
    """Mean of log(values) with the imaginary part unwrapped along the grid.

    G(theta) sweeps a straight segment in C, so it never winds around 0;
    unwrapping only has to repair principal-branch cuts.
    """
    steps = oracle._phase_increments(values, "potential log branch")
    args = np.angle(values[0]) + np.concatenate(([0.0], np.cumsum(steps)))
    return complex(np.mean(np.log(np.abs(values)) + 1j * args))


def potential_tr(z, n_nodes: int = 256, max_nodes: int = MAX_UNWRAP_NODES) -> complex:
    """(1/8pi) int log(G^- G^+) dtheta, branch-continuous in theta.

    The gradient of this potential reproduces the four canonical-trace
    coefficients (exactness of the trace of the resolvent 1-form).
    NonConvergent is raised if two grids still differ by more than 1e-12
    at ``max_nodes``; a grid too coarse to unwrap the branch is doubled.
    """
    z = as_point(z)

    def value_at(n: int) -> complex:
        _, _, _, gm, gp = _parts(z, fft_angles(n))
        _require_offspectrum(z, (gm, gp), "potential_tr")
        return 0.25 * _unwrapped_log_mean(gm * gp)

    return refine(value_at, max(4, n_nodes), 1e-12, max_nodes, "potential")[1]


def central_difference(f, z, i: int, step: float):
    """(f(z + h e_i) - f(z - h e_i)) / 2h in the real direction of coordinate i."""
    zp = np.array(z, dtype=complex)
    zm = zp.copy()
    zp[i] += step
    zm[i] -= step
    return (f(zp) - f(zm)) / (2 * step)


def potential_gradient(z, step: float = 1e-5, n_nodes: int = 256) -> np.ndarray:
    """Central-difference gradient of the potential in the four real
    coordinate directions (holomorphy recovers the complex derivative)."""
    z = as_point(z).as_array()

    def potential(zi):
        return potential_tr(zi, n_nodes)

    return np.array([central_difference(potential, z, i, step) for i in range(4)])


def closedness_residual(
    z,
    functional,
    step: float = 1e-5,
    n_nodes: int = 256,
    formula: str = "symbol",
) -> np.ndarray:
    """4x4 matrix |d_i c_j - d_j c_i| of mixed-partial mismatches.

    Central differences in the real direction of each coordinate; all
    stencil points must stay off-spectrum.
    """
    z = as_point(z).as_array()

    def coeffs(zi):
        return trace_coefficients(zi, functional, n_nodes, formula)

    # dc[i, j] = d_i c_j
    dc = np.array([central_difference(coeffs, z, i, step) for i in range(4)])
    return np.abs(dc - dc.T)


# ---------------------------------------------------------------------------
# loop periods


@dataclass
class PeriodReport:
    value: complex
    quantum: complex
    nearest_multiple: int
    residual: float
    loop_name: str = "loop"
    functional: FunctionalKind = FunctionalKind.CANONICAL_TRACE

    def to_json(self) -> dict:
        return {
            "loop": self.loop_name,
            "functional": self.functional.json_tag(),
            "value_re": self.value.real,
            "value_im": self.value.imag,
            "quantum_im": self.quantum.imag,
            "nearest": self.nearest_multiple,
            "residual": self.residual,
        }


def _coefficient_batch(Z: np.ndarray, functional, n: int) -> np.ndarray:
    """All four 1-form coefficients at every sample: n-node trapezoid
    means of the split integrands, shape (len(Z), 4)."""
    vals = oracle.word_integrands(Z, functional, fft_angles(n))
    return np.stack([v.mean(axis=-1) for v in vals], axis=-1)


def loop_coefficients(
    Z: np.ndarray,
    functional,
    n_nodes: int = 64,
    target: float = 1e-9,
    max_nodes: int = 4096,
) -> np.ndarray:
    """Adaptive batched coefficients along loop samples.

    Nodes double until two grids agree to ``target`` at every sample;
    NonConvergent is raised once the grid reaches ``max_nodes`` without.
    """
    return refine(
        lambda n: _coefficient_batch(Z, functional, n),
        n_nodes,
        target,
        max_nodes,
        "loop coefficients",
    )[1]


def _loop_margin_check(Z: np.ndarray, name: str) -> None:
    margin, _ = membership_grid(Z)
    if margin.min() <= 1e-9:
        raise LoopHitsSpectrum(
            f"loop {name}: closed-form margin {margin.min():.3e} at a sample"
        )


def loop_period(
    loop: LoopPath,
    functional,
    n_nodes: int = 64,
    steps: int | None = None,
    residual_target: float = 1e-6,
    max_steps: int = 2**13,
) -> PeriodReport:
    """Contour integral of the coefficient 1-form around a closed loop.

    Trapezoid in the loop parameter with one Richardson refinement; steps
    double until two grids agree to ``residual_target``, and each doubling
    computes coefficients only at its new samples (the reused ones are
    converged to the 1e-9 of ``loop_coefficients``).  The expected
    period lattice unit (pi*i/2 or pi*i) and the residual against its
    nearest integer multiple are reported.
    """
    kind = FunctionalKind.coerce(functional)
    n = loop.steps if steps is None else int(steps)
    # coefficient rows by the exact bytes of their sample: the even points
    # of a doubled grid are bitwise the previous grid
    cache: dict[bytes, np.ndarray] = {}

    def value_at(nsteps: int) -> complex:
        Z = loop.samples(nsteps)
        _loop_margin_check(Z, loop.name)
        Z = Z[:-1]
        keys = [z.tobytes() for z in Z]
        fresh = [j for j, key in enumerate(keys) if key not in cache]
        if fresh:
            rows = loop_coefficients(Z[fresh], kind, n_nodes)
            cache.update((keys[j], row) for j, row in zip(fresh, rows))
        coeffs = np.array([cache[key] for key in keys])
        dz = loop.derivatives(nsteps)
        # periodic trapezoid of c(z(s)) . z'(s): geometric convergence
        return complex((coeffs * dz).sum(axis=1).mean())

    value = richardson(
        *refine(value_at, n, residual_target, max_steps, f"period on {loop.name}")
    )
    quantum = QUANTA[kind]
    nearest = int(round((value / quantum).real))
    residual = abs(value - nearest * quantum)
    return PeriodReport(value, quantum, nearest, residual, loop.name, kind)


def _integer_rank(rows: List[List[int]]) -> int:
    """Exact rank over Q of an integer matrix (fraction-free elimination)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr = mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                f = mat[r][col] / pr[col]
                mat[r] = [a - f * b for a, b in zip(mat[r], pr)]
        rank += 1
    return rank


def class_independence(
    loops: Sequence[LoopPath], n_nodes: int = 64
) -> dict:
    """Period matrix of both 1-forms over a family of loops.

    Row 1: canonical-trace periods, row 2: twisted-functional periods.
    The rank is computed exactly after dividing each row by its quantum
    and rounding to integers.
    """
    if not loops:
        raise ValueError("at least one loop is required")
    periods = np.empty((2, len(loops)), dtype=complex)
    integers = [[0] * len(loops) for _ in range(2)]
    residuals = np.empty((2, len(loops)))
    for j, loop in enumerate(loops):
        for i, kind in enumerate(
            (FunctionalKind.CANONICAL_TRACE, FunctionalKind.PHI_TENSOR_TRACE)
        ):
            rep = loop_period(loop, kind, n_nodes=n_nodes)
            periods[i, j] = rep.value
            integers[i][j] = rep.nearest_multiple
            residuals[i, j] = rep.residual
    return {
        "period_matrix": periods,
        "integer_matrix": integers,
        "residuals": residuals,
        "rank": _integer_rank(integers),
    }
