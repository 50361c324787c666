"""Trace integrands of the resolvent 1-form, potentials, and loop periods.

Every coefficient of the scalar 1-forms  Tr(R^-1 dR)  and  phi~(R^-1 dR)
is an integral  (1/2pi) int_0^{2pi} f(theta) dtheta  of a trace integrand,
a rational function of the tau-parity symbols G^+-(theta) = A^+- - B cos.
Those circle integrals have exact closed forms (``oracle.circle_means``,
by the residue theorem): ``loop_coefficients`` and ``potential_tr`` are
evaluated from them, with no quadrature.

The trapezoid quadrature (``trace_quadrature``, ``trace_coefficients``)
is the independent route that the closed forms are checked against, and
the only route for the tabulated integrands.  Both run one refinement: each
node grid evaluates all requested words in one pass, and nodes double
until every word agrees to QUAD_TARGET (a coupled stop, so the four
coefficients cost one quadrature, not four).  A doubled grid evaluates
only its new angles and keeps the integrand values of the last grid
(``oracle.refine``), as do the loop periods' step grids, so no node is
evaluated twice.  The integrands:

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
        = (1/4) log(f^+ f^-)  (mod pi*i/2)

with the log branch continuous in theta.  Both 1-forms are closed with
nonzero periods; the period lattice is quantized by pi*i/2 (canonical
trace) and pi*i (twisted functional).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from . import oracle
from .errors import GridTooLarge, NotDegenerate, OnSpectrum
from .group import FunctionalKind
from .loops import LoopPath
from .oracle import WORDS, fft_angles, refine
from .oracle import symbol_integrand
from .spectrum import PencilPoint, as_point, membership_grid

SINGULAR_TOL = 1e-12
NEAR_DEGENERATE_TOL = 1e-9
# quadrature: two node grids must agree to QUAD_TARGET before MAX_NODES nodes
QUAD_TARGET = 1e-10
MAX_NODES = 2**14
# central-difference step of the potential gradient and the erratum's
# mixed partials
FD_STEP = 1e-5

QUANTA = {
    FunctionalKind.CANONICAL_TRACE: 0.5j * math.pi,
    FunctionalKind.PHI_TENSOR_TRACE: 1j * math.pi,
}


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
    """OnSpectrum where a denominator is within SINGULAR_TOL times the
    ``pencil_scale`` of its point of 0.  The coordinates of z may be
    columns of points, which broadcast against the denominators."""
    floor = SINGULAR_TOL * np.maximum(1.0, (np.abs(np.array(list(z))) ** 2).max(axis=0))
    for d in denominators:
        if (np.abs(d) <= floor).any():
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


def _points(z) -> tuple:
    """(Z, one): one point of 4 coordinates, or a stack (m, 4) with m >= 1,
    as an (m, 4) complex array, and whether z was one point."""
    Z = np.asarray(z.as_array() if isinstance(z, PencilPoint) else z, dtype=complex)
    if Z.ndim == 1:
        return as_point(Z).as_array()[None, :], True
    if Z.ndim != 2 or Z.shape[1] != 4 or len(Z) == 0:
        raise ValueError(f"points must be one point or an (m, 4) stack, not shape {Z.shape}")
    return Z, False


def _integrands(Z: np.ndarray, functional, words, thetas, formula: str) -> np.ndarray:
    """The words' integrands at the angles ``thetas`` for points Z (m, 4),
    shape (m, len(words), len(thetas)).

    One pass per call for the whole stack: the symbol route takes every word
    of every point from one ``oracle.word_integrands`` call, the tabulated
    one calls its per-word integrands here, point by point.  Each value
    depends on its own point and angle alone.
    """
    # the four coordinates as (m, 1) columns, which _parts broadcasts
    columns = PencilPoint(*Z.T[:, :, None])
    _, _, _, gm, gp = _parts(columns, thetas)
    _require_offspectrum(columns, (gm, gp), "trace_quadrature")
    if formula == "symbol":
        rows = oracle.word_integrands(Z, functional, thetas)
        return np.stack([rows[WORDS.index(w)] for w in words], axis=1)
    if formula == "tabulated":
        vals = []
        for z in map(as_point, Z):
            if functional is FunctionalKind.PHI_TENSOR_TRACE:
                integrand = integrand_phitr
            elif is_degenerate(z):
                integrand = integrand_tr_degenerate
            else:
                integrand = integrand_tr
            vals.append([integrand(z, w, thetas) for w in words])
        return np.array(vals, dtype=complex)
    raise ValueError(f"unknown formula {formula!r}")


def _quadrature(Z: np.ndarray, functional, words, n_nodes: int, formula: str) -> np.ndarray:
    """The words' trapezoid means at points Z (m, 4), shape (m, len(words)),
    nodes doubling from ``n_nodes`` until two grids agree to QUAD_TARGET on
    every word of every point (NonConvergent past MAX_NODES, GridTooLarge
    before any node if ``n_nodes`` is above it).  Through ``refine``, each
    doubled grid evaluates only its new angles, for the whole stack at once.

    A point in the spectrum raises OnSpectrum before the first grid: its
    poles can fall between the nodes, which then pass their own check
    while the grid doubles to MAX_NODES.  The closed form (``membership_grid``
    at its default tol) decides, as it does for ``loop_period``'s samples.
    """
    if n_nodes > MAX_NODES:
        raise GridTooLarge(f"quadrature: first grid of {n_nodes} exceeds the cap {MAX_NODES}")
    if membership_grid(Z)[1].any():
        raise OnSpectrum("quadrature: a point is in the spectrum")
    return refine(
        lambda n, j: _integrands(Z, functional, words, fft_angles(n, j), formula),
        n_nodes,
        QUAD_TARGET,
        MAX_NODES,
        "quadrature",
    )[1]


def trace_quadrature(req: TraceRequest, formula: str = "symbol") -> complex:
    """(1/2pi) int integrand dtheta by the uniform-node (trapezoid) rule.

    Nodes are doubled until two consecutive grids agree to QUAD_TARGET;
    NonConvergent is raised if they still differ by more once the grid
    reaches MAX_NODES, GridTooLarge if the first grid is above it, and
    OnSpectrum, before any node, at a point in the spectrum.
    """
    Z = req.z.as_array()[None, :]
    return complex(_quadrature(Z, req.functional, (req.word,), req.n_nodes, formula)[0, 0])


def trace_coefficients(
    z, functional, n_nodes: int = 256, formula: str = "symbol"
) -> np.ndarray:
    """The four 1-form coefficients (words e, a, t, tau) at one point,
    shape (4,), or at every point of a stack (m, 4), shape (m, 4).

    One quadrature for all words of all points: each grid evaluates every
    word of every point in one pass, and the grids double until all of them
    agree to QUAD_TARGET (the coupled stop), so no word of any point is less
    converged than by its own ``trace_quadrature``.  OnSpectrum, before any
    grid, if a point of the stack is in the spectrum.
    """
    Z, one = _points(z)
    # the request checks the functional and the node count
    req = TraceRequest(Z[0], functional, WORDS[0], n_nodes)
    coeffs = _quadrature(Z, req.functional, WORDS, req.n_nodes, formula)
    return coeffs[0] if one else coeffs


# ---------------------------------------------------------------------------
# potential and closedness


def potentials(Z) -> np.ndarray:
    """``potential_tr`` at every point of Z (m, 4), shape (m,), from one
    ``oracle.circle_means`` call."""
    Z = np.asarray(Z, dtype=complex)
    f, _, _ = oracle.circle_means(Z)
    _, _, _, gm0, gp0 = _parts(PencilPoint(*Z.T), 0.0)
    # the principal branch at theta = 0: G(0) of a real point gets imaginary
    # part +0, so a negative one has Arg pi, not -pi (numpy's square can
    # leave -0 there)
    gm0, gp0 = gm0 + 0.0, gp0 + 0.0
    out = np.empty(len(Z), dtype=complex)
    out.real = 0.25 * np.log(np.abs(f)).sum(axis=0)
    out.imag = 0.25 * (np.angle(gm0 * gp0) + np.angle(f / np.stack([gp0, gm0])).sum(axis=0))
    return out


def potential_tr(z) -> complex:
    """(1/8pi) int log(G^- G^+) dtheta, branch-continuous in theta.

    Exact: the real part is (1/4) log|f^+ f^-| (``oracle.circle_means``).
    The branch starts from the principal log of G^- G^+ at theta = 0 and
    follows theta; G(theta) = f (1 - zeta e^{i theta})(1 - zeta e^{-i theta})
    with |zeta| < 1, so the mean argument of each block lies within pi of
    Arg G(0) and equals Arg G(0) + Arg(f / G(0)).  The gradient of this
    potential reproduces the four canonical-trace coefficients (exactness
    of the trace of the resolvent 1-form).  The one-point call of
    ``potentials``.
    """
    return complex(potentials(as_point(z).as_array()[None, :])[0])


def central_difference(f, z, i: int, step: float):
    """(f(z + h e_i) - f(z - h e_i)) / 2h in the real direction of coordinate i."""
    zp = np.array(z, dtype=complex)
    zm = zp.copy()
    zp[i] += step
    zm[i] -= step
    return (f(zp) - f(zm)) / (2 * step)


def potential_gradient(z) -> np.ndarray:
    """Central-difference gradient (step FD_STEP) of the potential in the
    four real coordinate directions (holomorphy recovers the complex
    derivative), at one point, shape (4,), or at every point of a stack
    (m, 4), shape (m, 4).

    All 8m stencil points go through one ``potentials`` call.  The
    difference is divided by 2h on its real and imaginary parts apart, which
    is Python's complex / float (numpy's multiplies by the reciprocal).
    """
    Z, one = _points(z)
    i = np.arange(4)
    # row i of each point's (4, 4) block moves its coordinate i
    plus = np.repeat(Z[:, None, :], 4, axis=1)
    minus = plus.copy()
    plus[:, i, i] += FD_STEP
    minus[:, i, i] -= FD_STEP
    up, down = potentials(np.concatenate([plus, minus]).reshape(-1, 4)).reshape(2, -1, 4)
    d = up - down
    grad = np.empty(d.shape, dtype=complex)
    grad.real = d.real / (2 * FD_STEP)
    grad.imag = d.imag / (2 * FD_STEP)
    return grad[0] if one else grad


def closedness_residual(
    z,
    functional,
    step: float = FD_STEP,
    n_nodes: int = 256,
    formula: str = "symbol",
) -> np.ndarray:
    """4x4 matrix |d_i c_j - d_j c_i| of mixed-partial mismatches.

    Central differences in the real direction of each coordinate; all
    stencil points must stay off-spectrum.  ValueError unless ``step`` is
    positive and finite.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, not {step!r}")
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
    """A loop period, its nearest multiple of the lattice unit QUANTA[kind]
    and its distance to that multiple; both period routes report this way."""

    value: complex
    functional: FunctionalKind
    loop_name: str
    quantum: complex = field(init=False)
    nearest_multiple: int = field(init=False)
    residual: float = field(init=False)

    def __post_init__(self):
        self.quantum = QUANTA[self.functional]
        self.nearest_multiple = int(round((self.value / self.quantum).real))
        self.residual = abs(self.value - self.nearest_multiple * self.quantum)

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


def loop_coefficients(Z: np.ndarray) -> np.ndarray:
    """The four 1-form coefficients (words e, a, t, tau) at every sample,
    for both functionals.

    Exact: the circle means of ``oracle.word_integrands`` read off term by
    term from one ``oracle.circle_means`` call (per block, mean 1/G = 1/r
    and mean cos/G = zeta/r); shape (2, len(Z), 4), one row per functional
    in FunctionalKind order (Tr, phi~).  phi~ reads only block -.
    """
    Z = np.asarray(Z, dtype=complex)
    _, inv, cos = oracle.circle_means(Z)
    z0, z1, z2, z3 = Z.T
    ep, em = (z0 + z3) * inv[0], (z0 - z3) * inv[1]
    s1, sc = inv.sum(axis=0), cos.sum(axis=0)
    tr = (
        0.5 * (ep + em),
        -0.5 * (z1 * s1 + z2 * sc),
        -0.5 * (z1 * sc + z2 * s1),
        0.5 * (ep - em),
    )
    phi = -em, z1 * inv[1] + z2 * cos[1], z1 * cos[1] + z2 * inv[1], em
    return np.stack([np.stack(tr, axis=-1), np.stack(phi, axis=-1)])


def loop_period(loop: LoopPath, steps: int | None = None) -> dict:
    """Contour integrals of both coefficient 1-forms around a closed loop.

    The ``oracle.trapezoid_periods`` of the exact ``loop_coefficients``
    contracted with z'(s), guarded by the closed-form margin
    (``membership_grid``): trapezoid in the loop parameter with one
    Richardson refinement, steps doubling until both periods agree to
    PERIOD_TARGET (NonConvergent past MAX_STEPS).  Returns a PeriodReport
    per FunctionalKind: the expected period lattice unit (pi*i/2 or pi*i)
    and the residual against its nearest integer multiple.
    """
    values = oracle.trapezoid_periods(
        loop,
        steps,
        lambda Z: membership_grid(Z)[0],
        # periodic trapezoid of c(z(s)) . z'(s): geometric convergence
        lambda Z, dZ: (loop_coefficients(Z) * dZ).sum(axis=-1),
        f"period on {loop.name}",
    )
    return {kind: PeriodReport(v, kind, loop.name) for kind, v in values.items()}


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


def class_independence(loops: Sequence[LoopPath]) -> dict:
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
        for i, rep in enumerate(loop_period(loop).values()):
            periods[i, j] = rep.value
            integers[i][j] = rep.nearest_multiple
            residuals[i, j] = rep.residual
    return {
        "period_matrix": periods,
        "integer_matrix": integers,
        "residuals": residuals,
        "rank": _integer_rank(integers),
    }
