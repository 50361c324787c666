"""Self-similar action on the 4-ary tree and finite-level pencil spectra.

The group acts on the binary tree through the automaton  a = sigma,
t = (a, t)  (dihedral factor) and on a second binary tree through
tau = sigma  (order-two factor).  The product action lives on the 4-ary
tree with letters encoding pairs: letter = x + 2*y for x, y in {0, 1}
(x the dihedral coordinate, fastest index).  Lifted through that encoding
the generators become

    a   -> permutation (0 1)(2 3), trivial restrictions
    t   -> trivial permutation,    restrictions (a, t, a, t)
    tau -> permutation (0 2)(1 3), trivial restrictions

with the left-action law g(x w) = g(x) . g|_x(w).

Every level is a finite quotient.  u = a*t = sigma(a, t, a, t) and
u^2 = (u^-1, u, u^-1, u) with the identity permutation, so by induction
u^(2^n) fixes level n, and level n sees only the 4 * 2^n elements
tau^eps t^delta u^(k mod 2^n).  ``TreeAction.level_matrix`` caches its
vectors under that representative, so its cache is bounded by the group
itself: at most 4 * (2^7 - 1) = 508 vectors over levels 0-6 (under
10 MiB), and at most 4 * 2^6 = 256 wreath decompositions on the level
path, with no eviction.

Level-n matrices are the 4^n-point permutation representations; the
finite-level pencil  z1*M(a) + z2*M(t) + z3*M(tau)  is real symmetric and
its eigenvalues all satisfy the closed-form spectrum membership of the
full pencil (-lambda, z1, z2, z3) - a desk-scale witness that the tree
(Koopman) representation and the left regular representation have the
same joint spectrum.

The pencil is solved one orbit at a time.  Its entry (i, j) is nonzero
only when i = g(j) for a generator g, so each orbit of <a, t, tau> on the
4^n leaves spans an invariant subspace, and after a permutation of the
leaves the pencil is the direct sum of its restrictions to the orbits.
The eigenvalues of those blocks, with multiplicity, are exactly the
eigenvalues of the pencil.  The orbits come from the group action alone
(not from the nonzero pattern), so zero coefficients need no special case,
and the split is plain linear algebra on the permutation representation:
it uses neither the closed-form spectrum nor the DFT.  Level n has
2^(n-1) orbits of 2^(n+1) leaves; blocks are grouped by size, so nothing
depends on that count.

Many orbit blocks are the same matrix: a block is fixed by where each
generator sends each of its leaves, in the block's local numbering, and
that (a, t, tau) pattern repeats across orbits (at levels 1-6 all 2^(n-1)
orbits share one).  ``TreeAction.orbit_blocks`` reduces the orbits of a
level to their distinct patterns and counts once; ``pencil_level_eigs``
solves each distinct block once and repeats its eigenvalues by its count,
so every eigenvalue's multiplicity comes from the block counts.  Identical
matrices have identical eigenvalues, so this is exact whatever the
spectrum; another automaton would only give more patterns.

Cached level vectors, orbit labels and orbit blocks are read-only, so a
caller cannot change what later calls return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import LevelTooLarge
from .group import GEN_A, GEN_T, GEN_TAU, IDENTITY, GroupElement, mul
from .spectrum import membership_grid

MAX_LEVEL = 6
# sorted eigenvalues this close to a cluster's first one share its CSV row
CLUSTER_TOL = 1e-9

_IDENT_PERM = (0, 1, 2, 3)


def _check_level(n: int) -> None:
    # raised before any 4^n allocation
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n > MAX_LEVEL:
        raise LevelTooLarge(f"level {n} exceeds the desk-scale cap {MAX_LEVEL}")


@dataclass(frozen=True)
class WreathElement:
    """Tree automorphism as (letter permutation, four restrictions)."""

    perm: Tuple[int, int, int, int]
    restrictions: Tuple[GroupElement, GroupElement, GroupElement, GroupElement]

    def is_identity(self) -> bool:
        return self.perm == _IDENT_PERM and all(
            r.is_identity() for r in self.restrictions
        )


_E4 = (IDENTITY, IDENTITY, IDENTITY, IDENTITY)

_WREATH_A = WreathElement((1, 0, 3, 2), _E4)
_WREATH_T = WreathElement(_IDENT_PERM, (GEN_A, GEN_T, GEN_A, GEN_T))
_WREATH_TAU = WreathElement((2, 3, 0, 1), _E4)
_WREATH_ID = WreathElement(_IDENT_PERM, _E4)


def generator_wreath(symbol: str) -> WreathElement:
    """Wreath recursion of a generator (letters 0..3)."""
    if symbol == "a":
        return _WREATH_A
    if symbol == "t":
        return _WREATH_T
    if symbol == "tau":
        return _WREATH_TAU
    raise ValueError(f"unknown generator {symbol!r}")


def wreath_mul(g: WreathElement, h: WreathElement) -> WreathElement:
    """Product under the left action: (gh)|_x = g|_{h(x)} . h|_x."""
    perm = tuple(g.perm[h.perm[x]] for x in range(4))
    restr = tuple(mul(g.restrictions[h.perm[x]], h.restrictions[x]) for x in range(4))
    return WreathElement(perm, restr)


class TreeAction:
    """Wreath decompositions for arbitrary group elements, memoized."""

    def __init__(self):
        self._gen = {s: generator_wreath(s) for s in ("a", "t", "tau")}
        self._cache: Dict[GroupElement, WreathElement] = {}
        self._levels: Dict[Tuple[int, int, int, int], np.ndarray] = {}
        self._orbits: Dict[int, np.ndarray] = {}
        self._blocks: Dict[int, Tuple[Tuple[np.ndarray, np.ndarray], ...]] = {}

    def _wreath_pow_u(self, k: int) -> WreathElement:
        # square-and-multiply on u = a*t (u^-1 = t*a); powers of u commute.
        # On the level path k < 2^MAX_LEVEL, so this takes at most six squares
        if k >= 0:
            base = wreath_mul(self._gen["a"], self._gen["t"])
        else:
            base = wreath_mul(self._gen["t"], self._gen["a"])
            k = -k
        acc = _WREATH_ID
        while k:
            if k & 1:
                acc = wreath_mul(acc, base)
            base = wreath_mul(base, base)
            k >>= 1
        return acc

    def wreath_of(self, g: GroupElement) -> WreathElement:
        """Wreath decomposition of a normal form tau^eps t^delta u^k."""
        cached = self._cache.get(g)
        if cached is not None:
            return cached
        wr = _WREATH_ID
        if g.tau_flag:
            wr = self._gen["tau"]
        if g.t_flag:
            wr = wreath_mul(wr, self._gen["t"])
        if g.k:
            wr = wreath_mul(wr, self._wreath_pow_u(g.k))
        self._cache[g] = wr
        return wr

    def act(self, g: GroupElement, word: Sequence[int]) -> Tuple[int, ...]:
        """Apply the action letter by letter: g(x w) = g(x) . g|_x(w)."""
        out = []
        for x in word:
            wr = self.wreath_of(g)
            out.append(wr.perm[x])
            g = wr.restrictions[x]
        return tuple(out)

    def level_matrix(self, g: GroupElement, n: int) -> np.ndarray:
        """Permutation vector of g on the 4^n level-n words.

        Index encoding is big-endian in the letters: word (x_1 .. x_n)
        maps to x_1*4^(n-1) + ... + x_n.

        u^(2^n) fixes level n, so g acts there as its representative
        tau^eps t^delta u^(k mod 2^n): vectors are cached under that
        representative, at most 4 * 2^n of them per level (508 over levels
        0-6), and the recursion only ever decomposes representatives.
        """
        _check_level(n)
        # a plain tuple: building a GroupElement per lookup doubles a hit's cost
        key = (g.k % (1 << n), g.t_flag, g.tau_flag, n)
        cached = self._levels.get(key)
        if cached is not None:
            return cached
        if n == 0:
            vec = np.zeros(1, dtype=np.int64)
        else:
            wr = self.wreath_of(GroupElement(*key[:3]))
            block = 4 ** (n - 1)
            vec = np.empty(4**n, dtype=np.int64)
            for x in range(4):
                sub = self.level_matrix(wr.restrictions[x], n - 1)
                vec[x * block : (x + 1) * block] = wr.perm[x] * block + sub
        vec.setflags(write=False)
        self._levels[key] = vec
        return vec

    def orbit_labels(self, n: int) -> np.ndarray:
        """Orbit of each level-n leaf under <a, t, tau>, named by its
        smallest leaf (min-label propagation to a fixed point)."""
        cached = self._orbits.get(n)
        if cached is not None:
            return cached
        vecs = [self.level_matrix(g, n) for g in (GEN_A, GEN_T, GEN_TAU)]
        lab = np.arange(4**n)
        while True:
            new = lab
            for v in vecs:
                new = np.minimum(new, new[v])
            if np.array_equal(new, lab):
                break
            lab = new
        lab.setflags(write=False)
        self._orbits[n] = lab
        return lab

    def orbit_blocks(self, n: int) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """Distinct orbit blocks of the level-n generators, by block size.

        One ``(rows, counts)`` pair per orbit size s: ``rows[j, g, c]`` is the
        local index, inside its orbit, of the image of the orbit's c-th leaf
        under generator g (a, t, tau), for the j-th distinct pattern, and
        ``counts[j]`` is the number of orbits with that pattern.
        """
        cached = self._blocks.get(n)
        if cached is not None:
            return cached
        labels = self.orbit_labels(n)
        vecs = [self.level_matrix(g, n) for g in (GEN_A, GEN_T, GEN_TAU)]
        # leaves grouped by orbit; local[i] is leaf i's index inside its block
        order = np.argsort(labels, kind="stable")
        _, start, sizes = np.unique(
            labels[order], return_index=True, return_counts=True
        )
        local = np.empty_like(order)
        local[order] = np.arange(len(order)) - np.repeat(start, sizes)
        blocks = []
        for s in np.unique(sizes):
            # (k, s): the leaves of the k orbits of size s, block by block
            leaves = order[start[sizes == s][:, None] + np.arange(s)]
            rows = np.stack([local[vec[leaves]] for vec in vecs], axis=1)
            rows, counts = np.unique(rows, axis=0, return_counts=True)
            rows.setflags(write=False)
            counts.setflags(write=False)
            blocks.append((rows, counts))
        self._blocks[n] = tuple(blocks)
        return self._blocks[n]


_DEFAULT_ACTION = TreeAction()


def act_on_word(g: GroupElement, word: Sequence[int] | str) -> Tuple[int, ...]:
    """Self-similar action on a word over letters 0..3.

    Accepts digit strings for convenience ("132" -> (1, 3, 2))."""
    if isinstance(word, str):
        word = tuple(int(ch) for ch in word if not ch.isspace())
    letters = tuple(int(x) for x in word)
    if any(x < 0 or x > 3 for x in letters):
        raise ValueError("letters must be in 0..3")
    return _DEFAULT_ACTION.act(g, letters)


@dataclass(frozen=True)
class LevelMatrix:
    """Sparse level-n permutation: image vector over 0..4^n-1."""

    n: int
    perm_vector: np.ndarray

    def dump_lines(self) -> Iterable[str]:
        for i, image in enumerate(self.perm_vector):
            yield f"{i} -> {int(image)}"


def level_matrix(g: GroupElement, n: int) -> LevelMatrix:
    return LevelMatrix(n=n, perm_vector=_DEFAULT_ACTION.level_matrix(g, n))


def _fill_blocks(blocks: np.ndarray, rows: np.ndarray, coeffs) -> None:
    """Add the pencil's coefficients to orbit blocks (..., p, s, s) of the
    patterns ``rows`` (p, 3, s) from ``TreeAction.orbit_blocks``: coeffs[g]
    at (rows[j, g, c], c) of block j for each generator g (a, t, tau), a
    scalar or an array broadcast against (..., p, s)."""
    k, cols = np.ogrid[: rows.shape[0], : rows.shape[2]]
    for g, coeff in enumerate(coeffs):
        blocks[..., k, rows[:, g], cols] += coeff


def pencil_level_eigs(z1: float, z2: float, z3: float, n: int) -> np.ndarray:
    """Sorted eigenvalues (with multiplicity) of the level-n pencil
    z1*M(a) + z2*M(t) + z3*M(tau), solved once per distinct orbit block."""
    _check_level(n)
    eigs = []
    for rows, counts in _DEFAULT_ACTION.orbit_blocks(n):
        p, _, s = rows.shape
        blocks = np.zeros((p, s, s))
        _fill_blocks(blocks, rows, (z1, z2, z3))
        eigs.append(np.repeat(np.linalg.eigvalsh(blocks), counts, axis=0).ravel())
    return np.sort(np.concatenate(eigs))


def validate_eigs_in_spectrum(
    z1: float,
    z2: float,
    z3: float,
    n: int,
    tol: float = 1e-8,
) -> dict:
    """Check every level-n eigenvalue against the closed-form spectrum.

    For each eigenvalue lambda, (-lambda, z1, z2, z3) must be a spectrum
    point; violations are collected, and the largest membership margin
    among all eigenvalues is reported as a quality figure.
    """
    eigs = pencil_level_eigs(z1, z2, z3, n)
    # eigenvalues repeat (2^(n-1) times at levels 1-6): check each value once
    distinct, where = np.unique(eigs, return_inverse=True)
    points = np.empty((len(distinct), 4), dtype=complex)
    points[:, 0] = -distinct
    points[:, 1:] = (z1, z2, z3)
    margin, inside = membership_grid(points, tol=tol)
    margin, inside = margin[where], inside[where]
    violations: List[dict] = [
        {"eigenvalue": float(lam), "margin": float(m)}
        for lam, m in zip(eigs[~inside], margin[~inside])
    ]
    return {"violations": violations, "max_margin": float(margin.max())}


def count_violations(coeffs, n: int, tol: float = 1e-8) -> int:
    """Level-n eigenvalues, with multiplicity, outside the closed-form
    spectrum, summed over the pencils with coefficient rows (z1, z2, z3)
    in ``coeffs`` (m, 3).

    The count of ``validate_eigs_in_spectrum``'s violations over the m
    pencils, from one stacked ``eigvalsh`` and one ``membership_grid`` call
    per block size (one size at levels 1-6), on the distinct blocks'
    eigenvalues, each weighted by its block's orbit count.
    """
    _check_level(n)
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 3)
    misses = 0
    for rows, counts in _DEFAULT_ACTION.orbit_blocks(n):
        p, _, s = rows.shape
        blocks = np.zeros((len(coeffs), p, s, s))
        _fill_blocks(blocks, rows, coeffs.T[:, :, None, None])
        # each point's blocks solved as on their own
        eigs = np.linalg.eigvalsh(blocks)
        points = np.empty(eigs.shape + (4,), dtype=complex)
        points[..., 0] = -eigs
        points[..., 1:] = coeffs[:, None, None]
        inside = membership_grid(points.reshape(-1, 4), tol)[1].reshape(eigs.shape)
        misses += int(((~inside).sum(axis=2) * counts).sum())
    return misses


def spectrum_slice_intervals(z1: float, z2: float, z3: float):
    """The real spectrum slice {z0 : (-z0, z1, z2, z3) in P} as intervals.

    The slice is the union of +-z3 +- [r_lo, r_hi] with
    r = sqrt(z1^2 + z2^2 + 2*z1*z2*x) over x in [-1, 1].
    """
    r_lo = abs(abs(z1) - abs(z2))
    r_hi = abs(z1) + abs(z2)
    raw = []
    for s3 in (+1.0, -1.0):
        for sr in (+1.0, -1.0):
            lo = s3 * z3 + sr * r_lo
            hi = s3 * z3 + sr * r_hi
            raw.append((min(lo, hi), max(lo, hi)))
    raw.sort()
    merged = [raw[0]]
    for lo, hi in raw[1:]:
        if lo <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def coverage_gap(z1: float, z2: float, z3: float, n: int) -> float:
    """One-sided Hausdorff gap from the spectrum slice to the level-n
    eigenvalues: sup over slice points of the distance to the nearest
    eigenvalue."""
    eigs = pencil_level_eigs(z1, z2, z3, n)
    # the distance-to-eigenvalues function is piecewise V-shaped, so its
    # max over each slice interval [lo, hi] sits at an endpoint or at a
    # midpoint of consecutive eigenvalues inside the interval
    candidates = []
    for lo, hi in spectrum_slice_intervals(z1, z2, z3):
        inside = eigs[(eigs > lo) & (eigs < hi)]
        candidates += [[lo, hi], 0.5 * (inside[1:] + inside[:-1])]
    y = np.concatenate(candidates)
    i = np.searchsorted(eigs, y)
    above = np.abs(eigs[np.minimum(i, len(eigs) - 1)] - y)
    below = np.abs(y - eigs[np.maximum(i - 1, 0)])
    dist = np.minimum(
        np.where(i < len(eigs), above, np.inf), np.where(i > 0, below, np.inf)
    )
    return float(dist.max())


def eigenvalue_csv_lines(z1: float, z2: float, z3: float, n: int) -> Iterable[str]:
    """CSV rows ``level,z1,z2,z3,lambda,multiplicity_hint``."""
    eigs = pencil_level_eigs(z1, z2, z3, n)
    yield "level,z1,z2,z3,lambda,multiplicity_hint"
    i = 0
    while i < len(eigs):
        j = i
        while j + 1 < len(eigs) and eigs[j + 1] - eigs[i] <= CLUSTER_TOL:
            j += 1
        yield f"{n},{z1!r},{z2!r},{z3!r},{float(eigs[i])!r},{j - i + 1}"
        i = j + 1
