"""Finite circulant truncation of the pencil: the ground-truth engine.

The left regular pencil is unitarily equivalent to the 4x4 operator matrix

        [ z0        z1*T + z2   z3         0        ]
        [ z1*T'+z2  z0          0          z3       ]
        [ z3        0           z0         z1*T+z2  ]
        [ 0         z3          z1*T'+z2   z0       ]

with T the bilateral shift (T' its adjoint).  Replacing T by the N-cyclic
shift gives a 4N x 4N matrix whose blocks are all circulant, hence
simultaneously diagonalized by the DFT: the truncation is *exactly* the
direct sum of the symbols M(theta_k) at the N-th roots of unity.  As tau
is central and an involution, M(theta) = diag(B+, B-) in the basis
e +- tau, with B+- = [[z0 +- z3, w], [wbar, z0 +- z3]], det B+- = G+-,
w = z1*exp(i*theta) + z2 and wbar = z1*exp(-i*theta) + z2.  Consequently
the truncation's singular values are those of the 2N blocks, and
normalized traces of (pencil^-1 * word) are the N-node trapezoid rule of
closed-form rational functions of G+- (the *true* trace integrands).

The truncation (N <= MAX_DENSE_N) is the boundary-effect-free
adjudicator of trace formulas and loop periods, assembled densely only as
a reference (``pencil_matrix``, ``klein_blocks``); the tau-parity 2x2
split is the fast path that serves the membership margins, sweeps and
quadratures, and its exact circle means (``circle_means``, by the residue
theorem) give the loop coefficients and the potential with no quadrature.
The margins (``margin_grid``) route each point by its own blocks: where z1
and z2 are real, wbar = conj(w), each block is d I plus a Hermitian matrix,
hence normal, and |w(theta)| is monotone in cos(theta), so its margin
evaluates only the few grid angles that bracket the minimum, with the bits
of a scan of all N; a finite point with z1 = z2 = 0 has w = 0 and blocks
(z0 +- z3) I, so its margin min |z0 +- z3| is read with no angle at all;
only a point with complex z1 or z2 takes the general 2x2 closed form.  A
point's margin does not depend on its batch.

The oracle trace and period values come from the group structure of the
truncation alone, neither the DFT nor the 2x2 symbol, so they stay
independent of the fast path; only the guard of ``oracle_period``, which
rejects loops that come near the spectrum, reads the symbol margin
(``margin_grid``).  The truncation is the left regular representation of
the finite group D_N x Z_2 of order 4N: a, t and tau are involutions,
u = a*t has order N, and the word permutations act freely and
transitively on the 4N basis indices (index i is the element g_i with
g_i(0) = i).  So every right translation R_h: g_i -> g_i h commutes with
every word matrix, hence with P(z) = z0 I + z1 W_a + z2 W_t + z3 W_tau:

  * R_tau = W_tau, as tau is central: the tau block swap Q;
  * R_t maps (e, m) <-> (t, -m) and (tau, m) <-> (tau*t, -m) (cosets e,
    t, tau, tau*t; m mod N), a fixed-point-free involution that commutes
    with R_tau.

Their joint eigenspaces, s = +-1 for tau and r = +-1 for t, are the four
Klein blocks, each N-dimensional with the orthonormal basis
(1/2)(d(e, m) + r d(t, -m) + s d(tau, m) + s r d(tau*t, -m)).  On block
(s, r) the pencil is the N x N matrix

    P_{s,r} = (z0 + s z3) I + r (z1 K + z2 J),
    (J x)(m) = x(-m),  (K x)(m) = x(1 - m)  (mod N),

and since P is linear in z, a tangent X = P(dz) has the same blocks with
dz in place of z.  Q - I is 0 on the tau-even blocks and -2 on the
tau-odd ones, so

    Tr(P^-1 X)   = sum_{s,r} Tr(P_{s,r}^-1 X_{s,r}),
    phi~(P^-1 X) = (1/4N) Tr(P^-1 X (Q - I)) = -(1/2N) sum_r Tr(P_{-,r}^-1 X_{-,r}).

This is not the DFT: the split diagonalizes only the involutions R_t and
R_tau, never the shift u = KJ.  The Schreier graph of <J, K> on Z_N is
the path 0 -K- 1 -J- -1 -K- 2 -J- -2 ... (``path_order``), with a loop
where J or K fixes a vertex: J fixes 0, and the last vertex is fixed by J
(N even) or K (N odd).  In path order each block is tridiagonal, with
r z1, r z2 alternating off the diagonal, and a trace needs one column of
each (``_klein_form``):

    Tr(P^-1 X) = N sum_{s,r} (P_{s,r}^-1 X_{s,r} e_0)_0.

At a point with z1 = z2 = 0 (L1, L2 and every axis loop) each block is
(z0 + s z3) I, and its first row alone is solved, as a 1 x 1 system.

SciPy is imported on the first block solve only (``_gtsv``,
``CirculantPencil.lu``), so the closed-form and symbol routes never load
it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge, LoopHitsSpectrum, NonConvergent, OnSpectrum
from .errors import SingularTruncation, TruncationTooLarge
from .group import FunctionalKind
from .loops import LoopPath
from .spectrum import PencilPoint, as_point

WORDS = ("e", "a", "t", "tau")

LU_PIVOT_TOL = 1e-12
# the assembled truncation stores a (4N)^2 complex matrix
MAX_DENSE_N = 1024

# the Klein blocks (s, r): tau acts by s and right translation by t by r
KLEIN_BLOCKS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# each functional's weight on the (P_{s,r}^-1 X_{s,r} e_0)_0 of the blocks,
# one row per functional in FunctionalKind order (Tr, phi~)
_WEIGHTS = np.array([(0.25, 0.25, 0.25, 0.25), (0.0, 0.0, -0.5, -0.5)])

# rows of one stacked Klein-block solve: _klein_form solves max(1,
# KLEIN_ROWS // 4N) samples per gtsv, so its bands (a few complex arrays of
# that many rows) stay in L2 and its memory does not grow with the grid
# (unchunked, 8192 samples at N = 1024 need 512 MiB per band; at N = 32,
# 512 samples took 2.2 ms at 2^14 rows and 5 ms at 2^16 on a 2-core Xeon)
KLEIN_ROWS = 2**14

# points per batch of margin_grid's full scan, which bounds its (points, N)
# temporaries: at N = 256, 128 points make w 512 KiB and |w| 256 KiB, so they
# stay in a 2 MiB L2 cache (at 512 points criterion 1's 10,000 margins took
# 53 ms, at 128 points 33 ms, on a 2-core Xeon).  The bracket of real points
# evaluates _BRACKET_ANGLES angles per point, in batches of
# MARGIN_CHUNK * N // _BRACKET_ANGLES points, so its temporaries are no larger.
MARGIN_CHUNK = 128
_BRACKET_ANGLES = 12
# the bracket's roundoff factor C: a real row is bracketed where
# |2 z1 z2| (1 - cos 2pi/N) > C eps (z1^2 + z2^2), so a step of |w| between
# grid angles is hundreds of times the few ulps by which |w| and c* err (see
# margin_grid); a larger C only sends more rows to the full scan
_BRACKET_ROUNDOFF = 1024.0
_EPS = float(np.finfo(float).eps)

# block positions of tau (cosets e <-> tau, t <-> tau*t)
_TAU_BLOCKS = ((0, 2), (1, 3), (2, 0), (3, 1))


@functools.cache
def _gtsv():
    """LAPACK's complex tridiagonal solve (LU with partial pivoting).

    SciPy is imported on the first call, so a process that solves no Klein
    block never loads it.
    """
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs("gtsv", dtype=complex)


# ---------------------------------------------------------------------------
# dense truncation


def _check_size(N: int) -> None:
    if N < 2:
        raise ValueError("truncation size N must be at least 2")
    if N > MAX_DENSE_N:
        raise TruncationTooLarge(f"dense truncation N={N} exceeds {MAX_DENSE_N}")


@functools.lru_cache(maxsize=64)
def word_permutation(word: str, N: int) -> np.ndarray:
    """Image map sigma of the word's permutation matrix: W[sigma(i), i] = 1.

    Basis: index b*N + m with block b in 0..3 (cosets e, t, tau, tau*t) and
    m the cyclic-shift coordinate.  Cached per (word, N), read-only; N is
    capped at MAX_DENSE_N, so the cache holds at most 64 * 32 KiB.
    """
    _check_size(N)
    m = np.arange(N)
    up = (m + 1) % N
    down = (m - 1) % N
    sigma = np.empty(4 * N, dtype=np.int64)
    if word == "e":
        sigma = np.arange(4 * N, dtype=np.int64)
    elif word == "a":
        sigma[0 * N + m] = 1 * N + down
        sigma[1 * N + m] = 0 * N + up
        sigma[2 * N + m] = 3 * N + down
        sigma[3 * N + m] = 2 * N + up
    elif word == "t":
        sigma[0 * N + m] = 1 * N + m
        sigma[1 * N + m] = 0 * N + m
        sigma[2 * N + m] = 3 * N + m
        sigma[3 * N + m] = 2 * N + m
    elif word == "tau":
        sigma[0 * N + m] = 2 * N + m
        sigma[1 * N + m] = 3 * N + m
        sigma[2 * N + m] = 0 * N + m
        sigma[3 * N + m] = 1 * N + m
    else:
        raise ValueError(f"unknown word {word!r}")
    sigma.setflags(write=False)
    return sigma


def klein_blocks(Z, N: int, blocks) -> np.ndarray:
    """The Klein blocks P_{s,r} of P(z) for points Z of shape (n, 4).

    Returns shape (n, len(blocks), N, N) for (s, r) in ``blocks``:
    (z0 + s z3) on the diagonal, r z1 at (m, 1 - m) and r z2 at (m, -m),
    written once per term for the whole stack.
    """
    _check_size(N)
    Z = np.asarray(Z, dtype=complex).reshape(-1, 4)
    s, r = np.array(blocks, dtype=float).T
    z0, z1, z2, z3 = (Z[:, i, None, None] for i in range(4))
    m = np.arange(N)
    out = np.zeros((len(Z), len(s), N, N), dtype=complex)
    # the three index maps overlap (K and J meet the diagonal), so each adds
    out[..., m, m] = z0 + s[:, None] * z3
    out[..., m, (1 - m) % N] += r[:, None] * z1
    out[..., m, -m % N] += r[:, None] * z2
    return out


@functools.lru_cache(maxsize=64)
def path_order(N: int) -> np.ndarray:
    """Z_N along the Schreier path 0 -K- 1 -J- -1 -K- 2 ... of J and K.

    Position i holds vertex (i + 1) // 2 for odd i and -(i // 2) for even
    i (mod N).  Cached per N, read-only.
    """
    _check_size(N)
    i = np.arange(N)
    order = np.where(i % 2 == 1, (i + 1) // 2, -(i // 2)) % N
    order.setflags(write=False)
    return order


def jacobi_blocks(Z, N: int) -> tuple:
    """The Klein blocks at points Z (n, 4), tridiagonal in ``path_order``.

    Returns (off, diag), of shapes (n, 4, N - 1) and (n, 4, N) in
    KLEIN_BLOCKS order, off a view of the band that ``_klein_bands`` writes.
    Edges from even positions are K, from odd ones J; J loops at vertex 0
    (first), and J or K (N even or odd) at the last.
    """
    band, diag = _klein_bands(Z, N)
    return band[..., :-1], diag


def _klein_bands(Z, N: int) -> tuple:
    """The off-diagonal band and the diagonals of the Klein blocks at points
    Z (n, 4), each entry written once.

    The band (n, 4, N) holds each block's N - 1 off-diagonals, r times the
    path's edges z1, z2, z1, ... (K, J, K, ...), and then an exact 0: the
    edges of a point are one strided row, multiplied by r into the band.
    The diagonals (n, 4, N) are d + r l, d = z0 + s z3 and l the loop term
    at each position: z2 (J) at the first, 0 inside, and 0 + z2 (J) or
    0 + z1 (K) at the last, each a complex sum and product as written, so
    signed zeros come out as in a dense d + r l.
    """
    _check_size(N)
    Z = np.asarray(Z, dtype=complex).reshape(-1, 4)
    s, r = np.array(KLEIN_BLOCKS, dtype=float).T[..., None]
    z0, z1, z2, z3 = (Z[:, i, None, None] for i in range(4))
    edges = np.empty((len(Z), 1, N - 1), dtype=complex)
    edges[..., 0::2] = z1
    edges[..., 1::2] = z2
    band = np.empty((len(Z), 4, N), dtype=complex)
    np.multiply(r, edges, out=band[..., :-1])
    band[..., -1] = 0.0
    d = z0 + s * z3
    zero = np.zeros((1, 1, 1), dtype=complex)
    diag = np.empty((len(Z), 4, N), dtype=complex)
    diag[...] = d + r * zero
    diag[..., :1] = d + r * z2
    diag[..., -1:] = d + r * (zero + (z2 if N % 2 == 0 else z1))
    return band, diag


@dataclass(frozen=True, eq=False)
class CirculantPencil:
    """Dense 4N x 4N truncation at a point; its matrix is read-only."""

    N: int
    z: PencilPoint
    matrix: np.ndarray

    def lu(self, s: int, r: int) -> tuple:
        """Dense ``lu_factor`` of the Klein block P_{s,r} on each call, not
        stored; SingularTruncation if a pivot is below LU_PIVOT_TOL."""
        if (s, r) not in KLEIN_BLOCKS:
            raise ValueError(f"no Klein block ({s}, {r})")
        import scipy.linalg

        block = klein_blocks(self.z.as_array(), self.N, ((s, r),))[0, 0]
        lu, piv = scipy.linalg.lu_factor(block)
        if np.abs(np.diagonal(lu)).min() < LU_PIVOT_TOL:
            raise SingularTruncation(f"pencil truncation at N={self.N} is numerically singular")
        return lu, piv


def pencil_matrix(z, N: int) -> CirculantPencil:
    """Assemble the truncation (O(N) nonzeros, N <= MAX_DENSE_N)."""
    _check_size(N)
    z = as_point(z)
    coeffs = dict(zip(WORDS, z))
    mat = np.zeros((4 * N, 4 * N), dtype=complex)
    cols = np.arange(4 * N)
    for word, c in coeffs.items():
        if c != 0 or word == "e":
            mat[word_permutation(word, N), cols] += c
    mat.setflags(write=False)
    return CirculantPencil(N=N, z=z, matrix=mat)


# ---------------------------------------------------------------------------
# the symbol and its tau-parity split (the DFT-diagonalized truncation)


def fft_angles(N: int, nodes: np.ndarray | None = None) -> np.ndarray:
    """The angles 2*pi*k/N sampled by the size-N truncation, at the node
    indices k in ``nodes`` (all N by default).  Each angle depends on k and
    N alone, so fft_angles(2N)[0::2] equals fft_angles(N) bit for bit."""
    k = np.arange(N) if nodes is None else nodes
    return 2.0 * np.pi * k / N


def pencil_symbol(Z, thetas) -> np.ndarray:
    """Full 4x4 symbols M(theta) for points Z of shape (..., 4).

    Returns shape (..., len(thetas), 4, 4): the dense block layout with T
    replaced by exp(i*theta).  The fast path uses ``parity_blocks`` instead.
    """
    Z = np.asarray(Z, dtype=complex)
    _, _, w, wbar = parity_blocks(Z, thetas)
    M = np.zeros(w.shape + (4, 4), dtype=complex)
    for i in range(4):
        M[..., i, i] = Z[..., 0, None]
    M[..., 0, 1] = M[..., 2, 3] = w
    M[..., 1, 0] = M[..., 3, 2] = wbar
    for i, j in _TAU_BLOCKS:
        M[..., i, j] = Z[..., 3, None]
    return M


def parity_blocks(Z, thetas):
    """Tau-parity blocks B+- of M(theta) for points Z of shape (..., 4).

    Returns (z0 + z3, z0 - z3, w, wbar): the block diagonals of shape
    (..., 1) and the off-diagonals of shape (..., len(thetas)).
    """
    Z = np.asarray(Z, dtype=complex)
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    z0, z1, z2, z3 = (Z[..., i, None] for i in range(4))
    up = np.exp(1j * th)
    return z0 + z3, z0 - z3, z1 * up + z2, z1 * np.conj(up) + z2


def word_integrands(Z, functional, thetas) -> tuple:
    """Trace integrands of the words e, a, t, tau (in WORDS order).

    With T+- the trace over block +-: T(e) = 2*(z0 +- z3)/G+-,
    T(a) = -2*(z1 + z2*cos)/G+-, T(t) = -2*(z1*cos + z2)/G+-, tau flips
    the sign of B-; Tr = (T+ + T-)/4 and phi~ = -T-/2.  Each array has
    shape (..., len(thetas)); a singular block raises OnSpectrum.
    """
    kind = FunctionalKind.coerce(functional)
    Z = np.asarray(Z, dtype=complex)
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    dp, dm, w, wbar = parity_blocks(Z, th)
    ww = w * wbar
    gp, gm = dp * dp - ww, dm * dm - ww
    if not (gp.all() and gm.all()):
        raise OnSpectrum("a symbol block is singular at a node")
    c = np.cos(th)
    z1, z2 = Z[..., 1, None], Z[..., 2, None]
    pa, pt = z1 + z2 * c, z1 * c + z2
    if kind is FunctionalKind.CANONICAL_TRACE:
        ep, em = dp / gp, dm / gm
        r = 1.0 / gp + 1.0 / gm
        return 0.5 * (ep + em), -0.5 * pa * r, -0.5 * pt * r, 0.5 * (ep - em)
    rm = 1.0 / gm
    return -dm * rm, pa * rm, pt * rm, dm * rm


def circle_means(Z) -> tuple:
    """Exact circle means of the tau-parity symbols for points Z of (..., 4).

    Each block determinant is G(theta) = A - B cos(theta), with
    A+- = (z0 +- z3)^2 - z1^2 - z2^2 and B = 2 z1 z2.  Take r = sqrt(A^2 - B^2)
    with the sign that makes |A + r| >= |A - r|, f = (A + r)/2, and
    zeta = B/(2f), the root of G inside the unit disc in exp(i theta).  Then
    G = f (1 - zeta e^{i theta})(1 - zeta e^{-i theta}), and by the residue
    theorem mean 1/G = 1/r, mean cos/G = zeta/r and mean log G = log f
    (mod 2 pi i).  (zeta/r, not (A/r - 1)/B, which cancels; B = 0 gives
    f = A and zeta = 0.)  Returns (f, inv, cos): the arrays f, 1/r and
    zeta/r, each of shape (2, ...) with block + first.  OnSpectrum is raised
    where f = 0 or |zeta| >= 1, exactly where a block vanishes on the circle.
    """
    Z = np.asarray(Z, dtype=complex)
    z0, z1, z2, z3 = (Z[..., i] for i in range(4))
    d = np.stack([z0 + z3, z0 - z3])
    A = d * d - (z1 * z1 + z2 * z2)
    B = 2.0 * z1 * z2
    # r^2 = A^2 - B^2 = G(0) G(pi), each a difference of squares in factored
    # form, so r keeps its relative accuracy near the spectrum
    p, m = z1 + z2, z1 - z2
    r = np.sqrt((d - p) * (d + p) * (d - m) * (d + m))
    r = np.where(np.abs(A + r) >= np.abs(A - r), r, -r)
    f = 0.5 * (A + r)
    with np.errstate(divide="ignore", invalid="ignore"):
        zeta = B / (2.0 * f)
    if not (f.all() and (np.abs(zeta) < 1.0).all()):
        raise OnSpectrum("a symbol block vanishes on the circle")
    inv = 1.0 / r
    return f, inv, zeta * inv


def symbol_integrand(z, word: str, functional, thetas) -> np.ndarray:
    """Pointwise trace integrand of one word defined by the pencil symbol.

    This is the exact content of the circulant oracle at one angle:
    averaging it over the N-th roots of unity reproduces oracle_trace /
    oracle_phitr identically.  It is the adjudicated integrand used by the
    quadratures (the tabulated closed forms live in ``traces``).
    """
    if word not in WORDS:
        raise ValueError(f"unknown word {word!r}")
    z = as_point(z)
    return word_integrands(z.as_array(), functional, thetas)[WORDS.index(word)]


# ---------------------------------------------------------------------------
# membership margins


def membership_margin(z, N: int) -> float:
    """Smallest singular value of the size-N truncation, from its 2N
    tau-parity blocks (``margin_grid``)."""
    z = as_point(z)
    return float(margin_grid(z.as_array()[None, :], N)[0])


def _block_sigma_min(d, w, wbar, aw, av) -> np.ndarray:
    """Smallest singular value of [[d, w], [wbar, d]], elementwise, given
    aw = |w|^2 and av = |wbar|^2 (shared by both blocks of a point)."""
    # sigma_max^2 is the larger eigenvalue of B^H B, whose discriminant is a
    # sum of squares (no cancellation); sigma_min = |det B| / sigma_max, and
    # a zero block has margin 0, not 0/0
    disc = np.hypot(aw - av, 2.0 * np.abs(np.conj(d) * w + d * np.conj(wbar)))
    smax = np.sqrt(0.5 * (2.0 * np.abs(d) ** 2 + aw + av + disc))
    det = np.abs(d * d - w * wbar)
    return np.divide(det, smax, out=np.zeros_like(det), where=smax > 0)


def margin_grid(points: np.ndarray, N: int) -> np.ndarray:
    """Batched truncation margins for an (n, 4) array of pencil points.

    The truncation's singular values are those of the 2N parity blocks
    [[d, w], [wbar, d]], d = z0 +- z3, at the angles 2 pi k / N.  Each row
    takes its route from its own coordinates, so a point's margin does not
    depend on the other points of its batch.

    A row with real z1 and z2 has wbar = conj(w): each block is d I + H with
    H Hermitian of eigenvalues +-|w|, so it is normal, with singular values
    |d +- |w||, and its margin is hypot(min_k ||Re d| - |w_k||, Im d), hypot
    taken once per block after the minimum (for real d it is the minimum
    itself, as hypot(x, 0) = |x|, and a chunk of real d skips it).  With
    a = |Re d| and |w(theta)|^2 = z1^2 + z2^2 + 2 z1 z2 cos(theta) monotone
    in cos, |a - |w|| falls and then rises along the ascending grid cosines
    cos(2 pi k / N), k <= N/2, towards c* = (a^2 - z1^2 - z2^2) / (2 z1 z2)
    and away from it.  The bracket finds the position k with cos_{k-1} <
    c* <= cos_k (one ``searchsorted``) and evaluates |w|, with the full
    scan's arithmetic, only at positions k - 1, k and k + 1 and at the
    mirror angles N - k of all three, which round differently: at most 6
    angles per block, 12 per point.

    The minimum is bit for bit the full scan's.  The computed |w| err by a
    few ulps of |z1| + |z2|, c* by a small part of the least step between
    grid cosines, 1 - cos(2 pi/N), and consecutive grid values of |w|
    differ by at least |2 z1 z2| (1 - cos 2 pi/N) / (2 (|z1| + |z2|)).  So
    the exact |w| of every angle outside the bracket is at least that step
    farther from a than the one of the bracket's angle on its side of c*
    (or than one within that small part of c*).  Where the step is well
    above the roundoff, the computed |w| keep that order, and since rounding
    is monotone, no computed |a - |w|| outside the bracket is smaller than
    the bracket's least.  The step counts as well above the roundoff where
    |2 z1 z2| (1 - cos 2 pi/N) > _BRACKET_ROUNDOFF eps (z1^2 + z2^2).  A
    row with z1 = z2 = 0 has w = 0 exactly at every angle, so any angles
    bracket its minimum.  The other rows, among them z1 z2 = 0 with z1 or
    z2 nonzero, and every row whose c* is not finite (a NaN or inf
    coordinate, or an overflow), get the full scan, which takes |w| once
    for both blocks and never forms wbar.

    A finite row with z1 = z2 = 0 is taken before the bracket: each block
    is d I, and its margin min(hypot(Re d, Im d)) over d = z0 +- z3 has
    the full scan's bits, as |w| = 0 at every angle and hypot(x, 0) = |x|.
    Such a row with a NaN or inf coordinate keeps its route above.

    A row with complex z1 or z2, or with a non-finite coordinate and a
    complex one, takes the 2x2 closed form |det| / sigma_max at every angle
    (``_block_sigma_min``), with |w|^2 and |wbar|^2 taken once for both
    blocks.  The full scans go through in batches of MARGIN_CHUNK points and
    the bracket in batches whose (points, 12) arrays are no larger than a
    (MARGIN_CHUNK, N) one.  ValueError unless N >= 1.
    """
    if N < 1:
        raise ValueError(f"truncation size N={N} must be at least 1")
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError("points must have shape (n, 4)")
    # rows with real z1 and z2; a non-finite row among them keeps the 2x2
    # form unless z0 and z3 are real too (taken column by column, as numpy's
    # any/all along rows of 4 cost criterion 1's points about 0.3 ms)
    imag = pts.imag != 0.0
    finite = np.isfinite(pts)
    finite = finite[:, 0] & finite[:, 1] & finite[:, 2] & finite[:, 3]
    normal = ~(imag[:, 1] | imag[:, 2]) & (~(imag[:, 0] | imag[:, 3]) | finite)
    out = np.empty(len(pts))
    # finite rows with z1 = z2 = 0: w = 0 at every angle, each block is d I
    diagonal = finite & (pts[:, 1] == 0.0) & (pts[:, 2] == 0.0)
    rows = np.flatnonzero(diagonal)
    dp, dm = pts[rows, 0] + pts[rows, 3], pts[rows, 0] - pts[rows, 3]
    out[rows] = np.minimum(np.hypot(dp.real, dp.imag), np.hypot(dm.real, dm.imag))
    up = np.exp(1j * fft_angles(N))
    rows = np.flatnonzero(normal & ~diagonal)
    part = np.empty(len(rows))
    scan = rows[_bracket_margins(pts[rows], up, part)]
    out[rows] = part
    for rows, hermitian in ((scan, True), (np.flatnonzero(~normal), False)):
        for lo in range(0, len(rows), MARGIN_CHUNK):
            chunk = rows[lo : lo + MARGIN_CHUNK]
            z0, z1, z2, z3 = (pts[chunk, i, None] for i in range(4))
            w = z1 * up + z2
            blocks = (z0 + z3, z0 - z3)
            if hermitian:
                aw = np.abs(w)
                sv = [np.abs(np.abs(d.real) - aw).min(axis=1) for d in blocks]
                if z0.imag.any() or z3.imag.any():
                    sv = [np.hypot(m, d[:, 0].imag) for m, d in zip(sv, blocks)]
            else:
                wbar = z1 * np.conj(up) + z2
                aw, av = np.abs(w) ** 2, np.abs(wbar) ** 2
                sv = [_block_sigma_min(d, w, wbar, aw, av).min(axis=1) for d in blocks]
            out[chunk] = np.minimum(*sv)
    return out


def _bracket_margins(pts: np.ndarray, up: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The bracketed margins of the points ``pts`` with real z1 and z2 (see
    ``margin_grid``), written to ``out``; returns the rows left to the full
    scan."""
    N = len(up)
    half = N // 2
    cos = up.real[half::-1]  # cos(2 pi k / N) for k = half, ..., 1, 0: ascending
    gap = 1.0 - np.cos(2.0 * np.pi / N)
    left = np.zeros(len(pts), dtype=bool)
    step = max(1, MARGIN_CHUNK * N // _BRACKET_ANGLES)
    for lo in range(0, len(pts), step):
        # points along the last axis, blocks (+, -) and angles before it
        z = pts[lo : lo + step].T
        x0, x1, x2, x3 = z.real
        s, b = x1 * x1 + x2 * x2, 2.0 * x1 * x2
        a = np.abs(np.stack([x0 + x3, x0 - x3]))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c = (a * a - s) / b
            ok = np.isfinite(c).all(axis=0) & (np.abs(b) * gap > _BRACKET_ROUNDOFF * _EPS * s)
        # where z1 = z2 = 0, w is exactly 0 at every angle: any angle is a minimum
        rest = np.flatnonzero(~ok)
        ok[rest[(x1[rest] == 0.0) & (x2[rest] == 0.0)]] = True
        left[lo : lo + step] = ~ok
        rows = np.flatnonzero(ok)
        a, c = a[:, rows], c[:, rows]
        # cos[k - 1] < c* <= cos[k]: the grid indices of positions k - 1, k, k + 1
        k = np.searchsorted(cos, c)
        k = half - np.clip(k + np.array([-1, 0, 1])[:, None, None], 0, half)
        w = z[1, rows] * up[np.concatenate([k, (N - k) % N])] + z[2, rows]
        if z[0].imag.any() or z[3].imag.any():
            y0, y3 = z[0, rows].imag, z[3, rows].imag
            dev = np.abs(a - np.abs(w)).min(axis=0)
            out[lo + rows] = np.hypot(dev, np.stack([y0 + y3, y0 - y3])).min(axis=0)
        else:
            out[lo + rows] = np.abs(a - np.abs(w)).min(axis=(0, 1))
    return np.flatnonzero(left)


# ---------------------------------------------------------------------------
# oracle traces


def _klein_form(Z, dZ, N: int) -> np.ndarray:
    """Both functionals on P(z)^-1 P(dz) for points Z and tangents dZ (n, 4).

    Returns shape (2, n), one row per functional in FunctionalKind order
    (Tr, phi~).  A one-hot dz gives a word's oracle values; along a loop,
    dz = z'(s) gives the periods' 1-forms.  Row k is sum_{s,r} w_{s,r}
    y_{s,r}, with y_{s,r} = (P_{s,r}^-1 X_{s,r} e_0)_0, X = P(dz) and the
    weights w of row k of _WEIGHTS: 1/4 on every block for Tr, -1/2 on the
    tau-odd ones for phi~.  One solve serves both rows.

    Proof.  The tau half s, spanned by d(g, m) + s d(tau g, m) for g in the
    cosets e and t, is the left regular representation of D_N, where
    Tr A = 2N <v, A v> with v = (d(e, 0) + s d(tau, 0)) / sqrt 2 at the
    identity.  As v = (b_{s,+}(0) + b_{s,-}(0)) / sqrt 2 in the Klein bases
    and A = P^-1 X is block diagonal there, sum_r Tr(P_{s,r}^-1 X_{s,r}) =
    N sum_r y_{s,r}; the module docstring's sums for Tr and phi~ weight
    r = +1 and -1 alike, so they become the sums above.  (One block alone
    is not regular: for odd N, K has trace 1 and (0, 0) entry 0.)  Vertex
    0 heads the path, and X_{s,r} e_0 = (dz0 + s dz3 + r dz2) e_0 + r dz1 e_1.

    The samples go through in chunks of max(1, KLEIN_ROWS // 4N), and the
    4 blocks of the samples of a chunk through at most two LAPACK gtsv
    (``_klein_solve``): one of 1 x 1 blocks for the samples with
    z1 = z2 = 0, one of N x N blocks for the others.  So a solve's memory
    is O(KLEIN_ROWS) whatever n is.  Every block gets the arithmetic of its
    own solve, so the chunking, like the stacking, leaves each sample's
    finite values bit for bit as if it were solved alone (up to the sign of
    a zero part, see ``_klein_solve``).  All four blocks are solved, as
    phi~ too needs all of P invertible.
    """
    _check_size(N)  # before N sizes the chunks
    Z = np.asarray(Z, dtype=complex).reshape(-1, 4)
    dZ = np.asarray(dZ, dtype=complex).reshape(-1, 4)
    step = max(1, KLEIN_ROWS // (4 * N))
    y = np.concatenate(
        [_klein_solve(Z[lo : lo + step], dZ[lo : lo + step], N) for lo in range(0, len(Z), step)]
    )
    # on a strided y, or one matmul for both rows, numpy takes another path,
    # with other roundoff
    return np.stack([y @ w for w in _WEIGHTS])


def _klein_solve(Z, dZ, N: int) -> np.ndarray:
    """y_{s,r} = (P_{s,r}^-1 X_{s,r} e_0)_0 for points Z and tangents dZ
    (n, 4), of shape (n, 4) in KLEIN_BLOCKS order, from at most two gtsv.

    Each row takes its route from its own z1 and z2.  Where z1 = z2 = 0,
    every block is P_{s,r} = (z0 + s z3) I, so its first row alone gives
    y_{s,r}: the 4 blocks of such a row are 1 x 1 systems, diagonal
    d + r z2 as ``_klein_bands`` writes it and right-hand side
    dz0 + s dz3 + r dz2, and the other N - 1 rows of a block, whose
    pivots all have modulus |d|, are not solved.  The other rows solve
    their blocks at size N.  Both go through ``_stacked_solve``, which
    divides as gtsv does (numpy's complex divide rounds otherwise), so a
    row's finite values are bit for bit those of its N-row solve, but for
    the sign of a zero part: on either route, that sign can come from the
    terms 0 times the next row's solution, so it is not pinned.
    """
    s, r = np.array(KLEIN_BLOCKS, dtype=float).T
    b0 = dZ[:, 0, None] + s * dZ[:, 3, None] + r * dZ[:, 2, None]
    y = np.empty(b0.shape, dtype=complex)
    diagonal = (Z[:, 1] == 0.0) & (Z[:, 2] == 0.0)
    rows = np.flatnonzero(diagonal)
    if len(rows):
        z0, z2, z3 = (Z[rows, i, None, None] for i in (0, 2, 3))
        d = (z0 + s[:, None] * z3) + r[:, None] * z2
        band = np.zeros(d.shape, dtype=complex)
        y[rows] = _stacked_solve(band, d, b0[rows, :, None], N)
    rows = np.flatnonzero(~diagonal)
    if len(rows):
        band, diag = _klein_bands(Z[rows], N)
        rhs = np.zeros(diag.shape, dtype=complex)
        rhs[..., 0] = b0[rows]
        rhs[..., 1] = r * dZ[rows, 1, None]
        y[rows] = _stacked_solve(band, diag, rhs, N)
    return y


def _stacked_solve(band, diag, rhs, N: int) -> np.ndarray:
    """The first entries of the solutions of the blocks (n, 4, m) laid end
    to end as one tridiagonal system of size 4nm, from one gtsv; ``band``
    holds each block's m - 1 off-diagonals (the blocks are symmetric) and
    then the exact 0 that couples it to the next.

    At a zero subdiagonal entry gtsv eliminates nothing and interchanges no
    rows, and every back-substitution term that reaches across it is
    multiplied by that exact 0, so each block gets the arithmetic of its
    own solve.  gtsv also returns U's diagonal, each block's pivots in
    turn; SingularTruncation (naming the truncation size N) is raised for
    an exactly zero pivot (info > 0: gtsv stops there and leaves the later
    blocks unsolved), one below LU_PIVOT_TOL, or a NaN one.  As in dense
    getrf, partial pivoting keeps |L| <= 1, so a pivot u_kk leaves the
    first k columns of the row-permuted block within |u_kk| |L e_k| <=
    sqrt(2) |u_kk| of rank k - 1: the block's smallest singular value is
    below sqrt(2) |u_kk|, as for a block solved alone.  A NaN pivot comes
    from a non-finite sample, whose NaN solution reaches every earlier
    block of the system through the exact-0 coupling (0 * NaN = NaN).
    """
    # gtsv overwrites both bands, so they are two arrays
    lower = band.reshape(-1)[:-1]
    upper = lower.copy()
    _, pivots, _, x, info = _gtsv()(
        lower, diag.reshape(-1), upper, rhs.reshape(-1),
        overwrite_dl=True, overwrite_d=True, overwrite_du=True, overwrite_b=True,
    )
    # not >=: a NaN pivot (a non-finite sample) raises too
    if info > 0 or not np.abs(pivots).min() >= LU_PIVOT_TOL:
        raise SingularTruncation(f"pencil truncation at N={N} is numerically singular")
    return x.reshape(diag.shape)[..., 0]


def oracle_functional(z, word: str, functional, N: int) -> complex:
    """The functional on pencil^-1 * word matrix: the word's one-hot tangent."""
    if word not in WORDS:
        raise ValueError(f"unknown word {word!r}")
    onehot = [float(w == word) for w in WORDS]
    values = _klein_form(as_point(z).as_array(), onehot, N)[:, 0]
    return complex(dict(zip(FunctionalKind, values))[FunctionalKind.coerce(functional)])


def oracle_trace(z, word: str, N: int) -> complex:
    """(1/4N) * trace(pencil^-1 * word matrix)."""
    return oracle_functional(z, word, FunctionalKind.CANONICAL_TRACE, N)


def oracle_phitr(z, word: str, N: int) -> complex:
    """Twisted functional phi~(pencil^-1 * word matrix)."""
    return oracle_functional(z, word, FunctionalKind.PHI_TENSOR_TRACE, N)


# both period routes: two step grids must agree to PERIOD_TARGET before
# MAX_STEPS steps
PERIOD_TARGET = 1e-6
MAX_STEPS = 2**13


def richardson(coarse: complex, fine: complex) -> complex:
    """One trapezoid-refinement step: fine + (fine - coarse)/3."""
    return fine + (fine - coarse) / 3.0


def refine(nodes, n: int, target: float, n_max: int, what: str) -> tuple:
    """Trapezoid means on n, 2n, 4n, ... nodes until two consecutive grids
    agree.

    ``nodes(m, j)`` gives the values at the node indices j of the m-node
    grid, one per node along the last axis (a scalar or a stack per node);
    a grid's value is their ``.mean(axis=-1)``.  The first grid asks for
    all n nodes.  Each doubling to m nodes keeps the node values of the
    last grid, whose node k is node 2k of the new one, asks only for the
    odd nodes j = 1, 3, ..., m - 1 and interleaves the two sets, so a grid
    of m nodes costs m/2 new ones.  When ``nodes`` gives each node the same
    bits whatever else j holds, every mean is bit for bit the one of the
    whole grid evaluated at once.

    Returns the (coarse, fine) means at the first pair with max |fine -
    coarse| <= ``target``.  NonConvergent, with the history of changes, is
    raised once a comparison at n >= ``n_max`` still misses.
    """
    coarse, history, values = None, [], None
    while True:
        if values is None:
            values = nodes(n, np.arange(n))
        else:
            odd = nodes(n, np.arange(1, n, 2))
            grid = np.empty(odd.shape[:-1] + (n,), dtype=odd.dtype)
            grid[..., 0::2] = values
            grid[..., 1::2] = odd
            values = grid
        fine = values.mean(axis=-1)
        if coarse is not None:
            change = float(np.max(np.abs(fine - coarse)))
            if change <= target:
                return coarse, fine
            history.append(f"{change:.3e} at {n}")
            if n >= n_max:
                raise NonConvergent(
                    f"{what} not settled to {target:.0e}: changes " + ", ".join(history)
                )
        coarse = fine
        n *= 2


def trapezoid_periods(loop: LoopPath, guard, form, what: str) -> dict:
    """Both functionals' periods around a closed loop, keyed by FunctionalKind.

    The driver of both period routes; each passes in its own ``guard`` and
    1-form.  On a grid of n steps (first ``loop.steps``), the samples Z =
    z(j/n) and z'(j/n) come from ``loop.fn`` and ``loop.dfn``; ``guard(Z)``
    gives the spectrum margins of samples Z (m, 4), and LoopHitsSpectrum is
    raised unless all exceed 1e-9 (so also at a NaN one); ``form(Z, dZ)``,
    with dZ = z'(s), gives the 1-forms of shape (2, m) in FunctionalKind
    order, and their periodic trapezoid means are the grid's two periods.
    Steps double through ``refine`` until both periods agree to
    PERIOD_TARGET (NonConvergent if either still misses at MAX_STEPS), then
    one Richardson step.  A first grid above MAX_STEPS raises
    GridTooLarge, and one below 8 steps or an open loop ValueError
    (``LoopPath.check``), before any sample is taken.

    As the samples and z' at s = j/n depend on j/n alone, each doubling
    samples, guards and evaluates only its new odd steps.
    """
    if loop.steps > MAX_STEPS:
        raise GridTooLarge(f"{what}: first grid of {loop.steps} exceeds the cap {MAX_STEPS}")
    loop.check()

    def forms(nsteps: int, j: np.ndarray) -> np.ndarray:
        s = j / nsteps
        Z = loop.points(s)
        margin = guard(Z).min()
        # not >: a NaN margin (a non-finite sample) raises too
        if not margin > 1e-9:
            raise LoopHitsSpectrum(f"{what}: sample margin {margin:.3e}")
        return form(Z, np.asarray(loop.dfn(s), dtype=complex))

    coarse, fine = refine(forms, loop.steps, PERIOD_TARGET, MAX_STEPS, what)
    # in Python complex arithmetic: numpy's complex divide rounds otherwise
    return {
        kind: richardson(complex(c), complex(f))
        for kind, c, f in zip(FunctionalKind, coarse, fine)
    }


# ---------------------------------------------------------------------------
# oracle loop periods


def oracle_period(loop: LoopPath, N: int = 32) -> dict:
    """Both loop periods from the finite truncation, keyed by FunctionalKind.

    The ``trapezoid_periods`` of the oracle 1-forms, from a first grid of
    ``loop.steps`` steps.  The pencil is linear in z, P(z) = sum_w z_w W_w,
    so on a tangent dz each 1-form is its functional on P^-1 P(dz), which
    ``_klein_form`` takes for both functionals from stacked tridiagonal
    solves of the Klein blocks of a grid's new samples: each grid solves
    only the samples that the last one lacks, no sample twice.  The samples
    are guarded by the symbol margin (``margin_grid``).  A phase unwrap of
    det P would need no comparison but aliases: the phase turns 64 times
    around L1 at N = 32, so coarse samples can pass the unwrap check with a
    wrong integer.
    """
    _check_size(N)  # before the loop margins allocate (samples, N) arrays
    return trapezoid_periods(
        loop,
        lambda Z: margin_grid(Z, N),
        lambda Z, dZ: _klein_form(Z, dZ, N),
        f"oracle period on {loop.name} at N={N}",
    )
