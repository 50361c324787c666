"""Closed-form joint-spectrum membership for the four-term pencil.

The pencil R(z) = z0*e + z1*a + z2*t + z3*tau (left regular representation)
is singular exactly when one of the scalar symbols

    G^-_x(z) = (z0 - z3)^2 - z1^2 - z2^2 - 2*z1*z2*x
    G^+_x(z) = (z0 + z3)^2 - z1^2 - z2^2 - 2*z1*z2*x

vanishes for some x in [-1, 1].  For z1*z2 != 0 each family has the single
root  x^{+-} = ((z0 +- z3)^2 - z1^2 - z2^2) / (2*z1*z2),  so membership is a
closed-form test on the two roots.  When z1*z2 = 0 the symbols do not depend
on x and membership degenerates to a direct zero test.

Margins are reported as  min_{x in [-1,1]} |G_x| / scale  with
scale = max(1, max_i |z_i|^2), which makes the margin dimensionless under
the projective scaling z -> c*z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .errors import DegeneratePencil, GridTooLarge, InvalidPlane

DEFAULT_TOL = 1e-9
# below this (relative) size of |z1*z2| the x-root formula is unstable and
# the x-independent branch is used instead
DEGENERATE_CUTOFF = 1e-12

AXIS_NAMES = ("z0", "z1", "z2", "z3")


@dataclass(frozen=True)
class PencilPoint:
    z0: complex = 0j
    z1: complex = 0j
    z2: complex = 0j
    z3: complex = 0j

    def as_array(self) -> np.ndarray:
        return np.array([self.z0, self.z1, self.z2, self.z3], dtype=complex)

    def __iter__(self):
        return iter((self.z0, self.z1, self.z2, self.z3))


def as_point(z) -> PencilPoint:
    if isinstance(z, PencilPoint):
        return z
    vals = [complex(v) for v in z]
    if len(vals) != 4:
        raise ValueError("a pencil point needs exactly 4 coordinates")
    return PencilPoint(*vals)


def pencil_scale(z) -> float:
    z = as_point(z)
    return max(1.0, max(abs(c) ** 2 for c in z))


@dataclass(frozen=True)
class Witness:
    sign: str  # "+" or "-"
    x: Optional[complex]  # None for the x-independent (degenerate) branch

    def to_json(self) -> dict:
        if self.x is None:
            return {"sign": self.sign, "x_re": None, "x_im": None, "degenerate": True}
        return {"sign": self.sign, "x_re": self.x.real, "x_im": self.x.imag}


@dataclass
class MembershipResult:
    in_spectrum: bool
    witnesses: List[Witness] = field(default_factory=list)
    margin: float = 0.0

    def to_json(self) -> dict:
        return {
            "in_spectrum": self.in_spectrum,
            "witnesses": [w.to_json() for w in self.witnesses],
            "margin": self.margin,
        }


def g_values(z, x) -> Tuple[complex, complex]:
    """(G^-_x(z), G^+_x(z)) for a complex slice parameter x."""
    z = as_point(z)
    common = z.z1 * z.z1 + z.z2 * z.z2 + 2.0 * z.z1 * z.z2 * complex(x)
    return (z.z0 - z.z3) ** 2 - common, (z.z0 + z.z3) ** 2 - common


def solve_x(z) -> List[Tuple[str, complex]]:
    """Roots x of G^{+-}_x(z) = 0, one per sign family.

    Raises DegeneratePencil when z1*z2 = 0 exactly (the symbols are then
    x-independent and ``membership`` handles the case directly).
    """
    z = as_point(z)
    p2 = 2.0 * z.z1 * z.z2
    if p2 == 0:
        raise DegeneratePencil("z1*z2 = 0: symbols do not depend on x")
    s = z.z1 * z.z1 + z.z2 * z.z2
    return [
        ("-", ((z.z0 - z.z3) ** 2 - s) / p2),
        ("+", ((z.z0 + z.z3) ** 2 - s) / p2),
    ]


def membership(z, tol: float = DEFAULT_TOL) -> MembershipResult:
    """Closed-form membership test with a normalized margin.

    For z1*z2 away from zero, z is in the spectrum iff one root x^{+-} is
    real (|Im x| <= tol) with |Re x| <= 1 + tol; ties at |x| = 1 count as
    inside (the union over x in [-1,1] is closed).  The verdict and margin
    are ``membership_grid`` at the one point; the witnesses are the roots,
    or in the x-independent branch the families whose symbol vanishes.
    """
    z = as_point(z)
    margin, inside = membership_grid(z.as_array()[None, :], tol)
    scale = pencil_scale(z)
    if abs(z.z1 * z.z2) < DEGENERATE_CUTOFF * scale:
        s = z.z1 * z.z1 + z.z2 * z.z2
        witnesses = [
            Witness(sign, None)
            for sign, d in (("-", z.z0 - z.z3), ("+", z.z0 + z.z3))
            if abs(d**2 - s) <= tol * scale
        ]
    else:
        witnesses = [Witness(sign, x) for sign, x in solve_x(z)]
    return MembershipResult(bool(inside[0]), witnesses, float(margin[0]))


# ---------------------------------------------------------------------------
# vectorized grid evaluation


def membership_grid(points: np.ndarray, tol: float = DEFAULT_TOL):
    """Vectorized ``membership`` over an (n, 4) array of pencil points.

    Returns (margin, in_spectrum) arrays.  For z1*z2 below DEGENERATE_CUTOFF
    (relative) the symbols do not depend on x and the margin is
    min |G^+-| / scale; otherwise it is the scaled distance of the roots x
    from [-1, 1].
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError("points must have shape (n, 4)")
    z0, z1, z2, z3 = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    scale = np.maximum(1.0, (np.abs(pts) ** 2).max(axis=1))
    s = z1 * z1 + z2 * z2
    p2 = 2.0 * z1 * z2
    a_minus = (z0 - z3) ** 2 - s
    a_plus = (z0 + z3) ** 2 - s

    degen = np.abs(z1 * z2) < DEGENERATE_CUTOFF * scale
    margin = np.empty(len(pts))
    inside = np.empty(len(pts), dtype=bool)

    # x-independent branch
    md = np.minimum(np.abs(a_minus), np.abs(a_plus)) / scale
    margin[degen] = md[degen]
    inside[degen] = md[degen] <= tol

    # root branch
    reg = ~degen
    if reg.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            xm = a_minus[reg] / p2[reg]
            xp = a_plus[reg] / p2[reg]
        dm = np.abs(xm - np.clip(xm.real, -1.0, 1.0))
        dp = np.abs(xp - np.clip(xp.real, -1.0, 1.0))
        margin[reg] = np.abs(p2[reg]) * np.minimum(dm, dp) / scale[reg]
        hit = np.zeros(reg.sum(), dtype=bool)
        for x in (xm, xp):
            hit |= (np.abs(x.imag) <= tol) & (np.abs(x.real) <= 1.0 + tol)
        inside[reg] = hit
    return margin, inside


# points of one raster.  Per point, slice_raster and membership_grid hold
# the two float coordinates (16 B), the complex point (64 B) and fewer than
# twenty 16 B temporaries (320 B), and the CSV some 200 B of line text and
# string objects: under 0.6 GiB at 2^20 points (`dinfh slice` at 1024 x
# 1024 peaks at 308 MiB RSS on an x86-64 Linux box).
MAX_RASTER_POINTS = 2**20


@dataclass(frozen=True)
class RasterPlane:
    """Affine 2-plane: two free coordinate axes, the other two fixed."""

    axes: Tuple[int, int]
    fixed: PencilPoint

    def __post_init__(self):
        if self.axes[0] == self.axes[1]:
            raise InvalidPlane("raster axes must differ")
        if not all(0 <= ax <= 3 for ax in self.axes):
            raise InvalidPlane("axes must index z0..z3")


def slice_raster(
    plane: RasterPlane,
    grid: Tuple[int, int, Tuple[float, float], Tuple[float, float]],
    tol: float = DEFAULT_TOL,
):
    """Evaluate membership on a real 2-parameter slice.

    grid = (n_u, n_v, (u_min, u_max), (v_min, v_max)); returns
    (u, v, margin, in_spectrum) with margin/in_spectrum of shape
    (n_u, n_v), row-major in u.  GridTooLarge is raised, before anything
    is allocated, for more than MAX_RASTER_POINTS points.
    """
    n_u, n_v, urange, vrange = grid
    if n_u < 2 or n_v < 2:
        raise ValueError("raster grid must be at least 2x2")
    if n_u * n_v > MAX_RASTER_POINTS:
        raise GridTooLarge(f"raster of {n_u} x {n_v} points exceeds {MAX_RASTER_POINTS}")
    u = np.linspace(urange[0], urange[1], n_u)
    v = np.linspace(vrange[0], vrange[1], n_v)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.tile(plane.fixed.as_array(), (n_u * n_v, 1))
    pts[:, plane.axes[0]] = uu.ravel()
    pts[:, plane.axes[1]] = vv.ravel()
    margin, inside = membership_grid(pts, tol)
    return u, v, margin.reshape(n_u, n_v), inside.reshape(n_u, n_v)


def raster_csv_lines(u, v, margin, inside) -> Iterable[str]:
    """CSV rows for a raster: header ``u,v,margin,in_spectrum``."""
    yield "u,v,margin,in_spectrum"
    for i in range(len(u)):
        for j in range(len(v)):
            flag = str(bool(inside[i, j])).lower()
            yield f"{float(u[i])!r},{float(v[j])!r},{float(margin[i, j])!r},{flag}"
