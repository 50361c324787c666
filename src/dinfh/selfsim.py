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

The pencil is solved on tau-paired orbits of <a, t>.  Its entry (i, j)
is nonzero only when i = g(j) for a generator g, so each orbit O of
<a, t> on the 4^n leaves spans a subspace that z1*M(a) + z2*M(t) keeps,
with restriction P = z1*A_O + z2*T_O.  tau is central and of order two,
so M(tau) is an involution that commutes with M(a) and M(t); hence tau
maps O onto an orbit tau(O), and x -> tau(x) carries O's a/t pattern onto
tau(O): a(tau x) = tau(a x) and t(tau x) = tau(t x).  If tau(O) != O, then
in the basis (e_x, e_tau(x)), x in O, the pencil on span(O u tau(O)) is

    [[P, z3 I], [z3 I, P]],

which (e_x +- e_tau(x)) / sqrt(2) block-diagonalize into P + z3 I and
P - z3 I: its eigenvalues are eig(P) + z3 and eig(P) - z3, once each.  If
tau fixes O pointwise (level 0, where it fixes the root), the block is
P + z3 I.  A tau that maps an orbit onto itself other than pointwise
would need another route, and ``TreeAction.orbit_blocks`` raises
UnpairedOrbit for it, as for a level where M(tau) is not an involution
commuting with M(a) and M(t): the pairing is checked on the level
vectors, never assumed.  For this automaton a and t move only the
dihedral letters x and tau only the order-two letters y, so level n >= 1
has 2^n orbits of 2^n leaves (one per y-word), paired by tau into
2^(n-1) pairs.  The orbits come from the group action alone (not from
the nonzero pattern), so zero coefficients need no special case, and the
split is plain linear algebra on the permutation representation: it uses
neither the closed-form spectrum nor the DFT.

Many orbit blocks are the same matrix: a block is fixed by where a and t
send each of its leaves, in the block's local numbering, and that
pattern repeats across orbits (at levels 1-6 all 2^(n-1) pairs share
one).  ``TreeAction.orbit_blocks`` keeps one orbit per tau-pair (the one
with the smaller label), reduces them to their distinct patterns and
counts once.  Every level-pencil caller reads one stacked orbit solve,
``_level_eigs``: one ``eigvalsh`` solves each distinct 2^n-leaf block of
each pencil of a stack once and shifts its eigenvalues by that pencil's
+-z3, so every multiplicity comes from the block counts.
``pencil_level_eigs`` repeats one pencil's eigenvalues by their counts
(``coverage_gap``, the CSV, criterion 8), and the spectrum checks read one
closed-form check on top of the solve (``_level_check``):
``count_violations`` weights its misses by count, and
``validate_eigs_in_spectrum`` repeats them by count and sorts them.
Identical matrices have identical eigenvalues, so this is exact whatever
the spectrum; another automaton would only give more patterns.

Cached level vectors, level tables and orbit blocks are read-only, so a
caller cannot change what later calls return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import LevelTooLarge, UnpairedOrbit
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
        self._tables: Dict[int, np.ndarray] = {}
        self._blocks: Dict[int, Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]] = {}

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

    def act_on_level(self, g: GroupElement, n: int) -> np.ndarray:
        """Images of all 4^n level-n words under g, in ``level_matrix``'s
        index encoding, from one breadth-first walk of the letter-by-letter
        action: each word of length below n decomposes its restriction
        once with ``wreath_of``, with no reduction of k and no level cache.
        """
        _check_level(n)
        images, states = [0], [g]
        for _ in range(n):
            walked = [(4 * image, self.wreath_of(h)) for image, h in zip(images, states)]
            images = [base + x for base, wr in walked for x in wr.perm]
            states = [h for _, wr in walked for h in wr.restrictions]
        return np.array(images, dtype=np.int64)

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

    def level_vectors(self, elements: Sequence[GroupElement], n: int) -> np.ndarray:
        """Level-n vectors of ``elements``, stacked (len(elements), 4^n).

        One gather from the level's table of the vectors of its 4 * 2^n
        representatives tau^eps t^delta u^k, k < 2^n, row
        (2*eps + delta) * 2^n + k.  A level's table is built on its first
        call, through ``level_matrix``, and is read-only.  It copies the
        level's ``level_matrix`` entries, which stay as they are: making
        them views of the table frees them, and that alone slowed criterion
        1, which shares no code with it, by about 0.7 ms.
        """
        _check_level(n)
        period = 1 << n
        table = self._tables.get(n)
        if table is None:
            table = np.stack(
                [
                    self.level_matrix(GroupElement(k, t_flag, tau_flag), n)
                    for tau_flag in (0, 1)
                    for t_flag in (0, 1)
                    for k in range(period)
                ]
            )
            table.setflags(write=False)
            self._tables[n] = table
        rows = [(2 * g.tau_flag + g.t_flag) * period + g.k % period for g in elements]
        return table[rows]

    def orbit_blocks(self, n: int) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Distinct <a, t>-orbit blocks of level n, one per tau-pair.

        One ``(rows, counts, shifts)`` triple per orbit size s and tau
        action: ``rows[j, g, c]`` is the local index, inside its orbit, of
        the image of the orbit's c-th leaf under generator g (a, t), for
        the j-th distinct pattern; ``counts[j]`` is the number of kept
        orbits with that pattern, one per tau-pair (the one with the
        smaller label) or per orbit that tau fixes pointwise; and each
        eigenvalue lambda of a block gives the pencil's eigenvalues
        lambda + shift * z3 for ``shifts`` (1, -1) on pairs and (1,) on
        fixed orbits.  UnpairedOrbit if M(tau) is not an involution that
        commutes with M(a) and M(t), or maps an orbit onto itself other
        than pointwise.
        """
        cached = self._blocks.get(n)
        if cached is not None:
            return cached
        vec_a, vec_t, vec_tau = (self.level_matrix(g, n) for g in (GEN_A, GEN_T, GEN_TAU))
        leaves = np.arange(4**n)
        if not (
            np.array_equal(vec_tau[vec_tau], leaves)
            and np.array_equal(vec_a[vec_tau], vec_tau[vec_a])
            and np.array_equal(vec_t[vec_tau], vec_tau[vec_t])
        ):
            raise UnpairedOrbit(
                f"level {n}: M(tau) is not an involution commuting with M(a) and M(t)"
            )
        labels = orbit_labels([vec_a, vec_t])
        partner = labels[vec_tau]
        fixed = partner == labels
        if np.any(fixed & (vec_tau != leaves)):
            raise UnpairedOrbit(f"level {n}: tau maps an <a, t>-orbit onto itself, not pointwise")
        # the kept orbits' leaves grouped by orbit; local[i] is leaf i's
        # index inside its block
        kept = np.flatnonzero(fixed | (labels < partner))
        order = kept[np.argsort(labels[kept], kind="stable")]
        _, start, sizes = np.unique(labels[order], return_index=True, return_counts=True)
        local = np.empty_like(leaves)
        local[order] = np.arange(len(order)) - np.repeat(start, sizes)
        paired = ~fixed[order[start]]
        blocks = []
        for s in np.unique(sizes):
            for pair in (True, False):
                first = start[(sizes == s) & (paired == pair)]
                if not len(first):
                    continue
                # (k, s): the leaves of the k kept orbits, block by block
                members = order[first[:, None] + np.arange(s)]
                rows = np.stack([local[vec[members]] for vec in (vec_a, vec_t)], axis=1)
                rows, counts = np.unique(rows, axis=0, return_counts=True)
                shifts = np.array([1.0, -1.0] if pair else [1.0])
                for arr in (rows, counts, shifts):
                    arr.setflags(write=False)
                blocks.append((rows, counts, shifts))
        self._blocks[n] = tuple(blocks)
        return self._blocks[n]


def orbit_labels(vecs: Sequence[np.ndarray]) -> np.ndarray:
    """Orbit of each leaf under the permutations ``vecs``, named by its
    smallest leaf (min-label propagation to a fixed point)."""
    lab = np.arange(len(vecs[0]))
    while True:
        new = lab
        for v in vecs:
            new = np.minimum(new, new[v])
        if np.array_equal(new, lab):
            return lab
        lab = new


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


def act_on_level(g: GroupElement, n: int) -> np.ndarray:
    """Level-n images of g by the letter-by-letter action (``TreeAction.act_on_level``)."""
    return _DEFAULT_ACTION.act_on_level(g, n)


def level_matrix(g: GroupElement, n: int) -> LevelMatrix:
    return LevelMatrix(n=n, perm_vector=_DEFAULT_ACTION.level_matrix(g, n))


def level_vectors(elements: Sequence[GroupElement], n: int) -> np.ndarray:
    """Stacked level-n vectors of ``elements`` (``TreeAction.level_vectors``)."""
    return _DEFAULT_ACTION.level_vectors(elements, n)


def _level_eigs(coeffs, n: int):
    """Per layout group of level n, ``(lam, counts)``: ``lam`` (m, p, 2^n,
    len(shifts)) holds the eigenvalues of the p distinct <a, t>-orbit blocks
    z1*A + z2*T of the m pencils with coefficient rows ``coeffs`` (m, 3),
    from one stacked ``eigvalsh`` (each block as if solved alone), shifted
    by each pencil's +-z3; block j stands for ``counts[j]`` kept orbits."""
    _check_level(n)
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 3)
    out = []
    for rows, counts, shifts in _DEFAULT_ACTION.orbit_blocks(n):
        p, _, s = rows.shape
        # coeffs[:, g] at (rows[j, g, c], c) of block j for generator g (a, t)
        blocks = np.zeros((len(coeffs), p, s, s))
        k, cols = np.arange(p)[:, None], np.arange(s)
        for g in range(2):
            blocks[:, k, rows[:, g], cols] += coeffs[:, g, None, None]
        lam = np.linalg.eigvalsh(blocks)[..., None] + coeffs[:, 2, None, None, None] * shifts
        out.append((lam, counts))
    return out


def _level_check(coeffs, n: int, tol: float):
    """``_level_eigs`` with ``membership_grid``'s margin and verdict of each
    point (-lambda, z1, z2, z3): ``(lam, counts, margin, inside)``."""
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 3)
    out = []
    for lam, counts in _level_eigs(coeffs, n):
        points = np.empty(lam.shape + (4,), dtype=complex)
        points[..., 0] = -lam
        points[..., 1:] = coeffs[:, None, None, None]
        margin, inside = membership_grid(points.reshape(-1, 4), tol)
        out.append((lam, counts, margin.reshape(lam.shape), inside.reshape(lam.shape)))
    return out


def pencil_level_eigs(z1: float, z2: float, z3: float, n: int) -> np.ndarray:
    """Sorted eigenvalues (with multiplicity) of the level-n pencil
    z1*M(a) + z2*M(t) + z3*M(tau): each distinct <a, t>-orbit block
    z1*A + z2*T is solved once, and its eigenvalues shifted by +-z3."""
    groups = _level_eigs((z1, z2, z3), n)
    eigs = [np.repeat(lam[0], counts, axis=0).ravel() for lam, counts in groups]
    return np.sort(np.concatenate(eigs))


def validate_eigs_in_spectrum(z1: float, z2: float, z3: float, n: int, tol: float = 1e-8) -> dict:
    """Check every level-n eigenvalue against the closed-form spectrum.

    For each eigenvalue lambda, (-lambda, z1, z2, z3) must be a spectrum
    point; violations are listed by ascending lambda, with multiplicity,
    and the largest membership margin among all eigenvalues is reported as
    a quality figure.  Each distinct block's misses are repeated by its count.
    """
    missed, margins, top = [], [], []
    for lam, counts, margin, inside in _level_check((z1, z2, z3), n, tol):
        miss = ~inside[0]
        reps = counts[np.nonzero(miss)[0]]
        missed.append(np.repeat(lam[0][miss], reps))
        margins.append(np.repeat(margin[0][miss], reps))
        top.append(margin.max())
    missed, margins = np.concatenate(missed), np.concatenate(margins)
    order = np.argsort(missed, kind="stable")
    violations: List[dict] = [
        {"eigenvalue": float(lam), "margin": float(m)}
        for lam, m in zip(missed[order], margins[order])
    ]
    return {"violations": violations, "max_margin": float(np.max(top))}


def count_violations(coeffs, n: int, tol: float = 1e-8) -> int:
    """Level-n eigenvalues, with multiplicity, outside the closed-form
    spectrum, summed over the pencils with coefficient rows (z1, z2, z3)
    in ``coeffs`` (m, 3): the count of ``validate_eigs_in_spectrum``'s
    violations over the m pencils, each distinct block's misses weighted by
    its count."""
    return sum(
        int(((~inside).sum(axis=(2, 3)) * counts).sum())
        for _, counts, _, inside in _level_check(coeffs, n, tol)
    )


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
