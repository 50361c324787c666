"""Closed paths in the joint resolvent set.

A loop is a piecewise-smooth closed map s in [0,1] -> C^4 whose samples all
stay off the joint spectrum.  Period integrals use the periodic-trapezoid
form  (1/n) sum_j c(z(s_j)) . z'(s_j),  so every loop carries its
derivative z'(s) in closed form (``dfn``).

Two reference loops live in the z1 = z2 = 0 plane, where the spectrum
reduces to the two hyperplanes z0 = z3 and z0 = -z3:

    L1: z(s) = ((3 + w)/2, 0, 0, (3 - w)/2),  w = exp(2*pi*i*s)
        (z0 - z3 = w winds once around 0, z0 + z3 = 3 is constant)
    L2: z(s) = ((3 + w)/2, 0, 0, (w - 3)/2)
        (z0 + z3 = w winds, z0 - z3 = 3 constant)

Both are ``circle_loop`` circles of radius 1/2 moving z0 and z3 together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

AXIS_INDEX = {"z0": 0, "z1": 1, "z2": 2, "z3": 3}

# a random axis loop clears the singular hyperplanes by this share of its radius
MIN_REL_MARGIN = 0.25


@dataclass
class LoopPath:
    """Closed path; ``fn`` and ``dfn`` map an array of parameters s to z(s)
    and dz/ds, each of shape (len(s), 4).  ``steps`` is the first grid of
    its periods."""

    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    steps: int = 512
    name: str = "loop"

    def check(self) -> None:
        """ValueError unless the first grid has at least 8 steps and the
        path is closed, z(1) = z(0)."""
        if self.steps < 8:
            raise ValueError("a loop needs at least 8 steps")
        ends = self.points(np.array([0.0, 1.0]))
        if np.max(np.abs(ends[0] - ends[1])) > 1e-12:
            raise ValueError("loop is not closed")

    def points(self, s: np.ndarray) -> np.ndarray:
        """Points z(s) at the parameters s, shape (len(s), 4)."""
        pts = np.asarray(self.fn(s), dtype=complex)
        if pts.shape != (len(s), 4):
            raise ValueError("loop fn must return an (len(s), 4) array")
        return pts


def circle_loop(
    center: Sequence[complex],
    radius: float,
    coords: Sequence[str],
    signs: Sequence[int] | None = None,
    steps: int = 512,
    name: str = "circle",
) -> LoopPath:
    """Circle in one or more coordinates: z_c(s) = center_c + sign_c*r*w(s)."""
    center = np.asarray([complex(c) for c in center], dtype=complex)
    if center.shape != (4,):
        raise ValueError("center needs 4 coordinates")
    idx = [AXIS_INDEX[c] if isinstance(c, str) else int(c) for c in coords]
    if signs is None:
        signs = [1] * len(idx)
    if len(signs) != len(idx):
        raise ValueError("signs must match coords")

    def fn(s):
        w = radius * np.exp(2j * np.pi * s)
        z = np.tile(center, (len(s), 1))
        for i, sg in zip(idx, signs):
            z[:, i] = center[i] + sg * w
        return z

    def dfn(s):
        dw = radius * 2j * np.pi * np.exp(2j * np.pi * s)
        dz = np.zeros((len(s), 4), dtype=complex)
        for i, sg in zip(idx, signs):
            dz[:, i] = sg * dw
        return dz

    return LoopPath(fn, dfn, steps, name)


def loop_L1(steps: int = 512) -> LoopPath:
    """z0 - z3 = w winds once around 0, z0 + z3 = 3 (module docstring)."""
    return circle_loop([1.5, 0, 0, 1.5], 0.5, ["z0", "z3"], [1, -1], steps, "L1")


def loop_L2(steps: int = 512) -> LoopPath:
    """z0 + z3 = w winds once around 0, z0 - z3 = 3 (module docstring)."""
    return circle_loop([1.5, 0, 0, -1.5], 0.5, ["z0", "z3"], [1, 1], steps, "L2")


NAMED_LOOPS = {"L1": loop_L1, "L2": loop_L2}


def random_axis_loops(seed: int, count: int) -> List[LoopPath]:
    """Seeded random circles in the z1 = z2 = 0 resolvent region.

    Each loop fixes one of z0/z3 and circles the other; candidates are
    rejected until the circle clears both singular hyperplanes z0 = +-z3
    by MIN_REL_MARGIN times the radius.
    """
    rng = np.random.default_rng(seed)
    loops: List[LoopPath] = []
    while len(loops) < count:
        c0 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c3 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        r = rng.uniform(0.3, 1.5)
        moving = "z0" if rng.integers(2) == 0 else "z3"
        # distance from the circle to the points where z0 = +-z3
        d1 = abs(abs(c0 - c3) - r)
        d2 = abs(abs(c0 + c3) - r)
        if min(d1, d2) < MIN_REL_MARGIN * r:
            continue
        center = [c0, 0j, 0j, c3]
        loops.append(
            circle_loop(center, r, [moving], name=f"rand{len(loops)}")
        )
    return loops
