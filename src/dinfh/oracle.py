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

The dense route (assembled matrix, N <= MAX_DENSE_N) is the
boundary-effect-free adjudicator of membership margins, trace formulas
and loop periods; the tau-parity 2x2 split is the fast path that serves
the membership sweeps and quadratures, and its exact circle means
(``circle_means``, by the residue theorem) give the loop coefficients and
the potential with no quadrature at all.

The dense traces and periods use only the group structure of the
truncation, neither the DFT nor the 2x2 symbol, so they stay independent
of the fast path.  The truncation is the left regular representation of
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

This is not the DFT.  J and K are the reflections m -> -m and
m -> 1 - m of the dihedral action on Z_N; the split diagonalizes only the
two involutions R_t and R_tau, never the shift u = KJ, so each block
stays a dense N x N matrix in the position basis with entries z0 +- z3
and +-z1, +-z2 (no twiddle factors), and it is solved by LU.  The four
blocks replace one LU of the 4N matrix (or two of its 2N tau halves) by
four of size N: a quarter of the LU and solve flops of the tau halves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import LoopHitsSpectrum, NonConvergent, OnSpectrum
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
# the blocks each functional reads, and its scale times N
_READS = {
    FunctionalKind.CANONICAL_TRACE: (KLEIN_BLOCKS, 0.25),
    FunctionalKind.PHI_TENSOR_TRACE: (KLEIN_BLOCKS[2:], -0.5),
}
# a stack of Klein blocks holds at most this many bytes, unless one point's
# blocks alone are larger: 1 MiB stacks took twice the page faults of
# 256 KiB ones (past the import's) and ran no faster
_BATCH_BYTES = 1 << 18

# LAPACK's complex LU and LU solve, as called by scipy.linalg.lu_factor
# and lu_solve on one 2-D block
_GETRF, _GETRS = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=complex)

# block positions of tau (cosets e <-> tau, t <-> tau*t)
_TAU_BLOCKS = ((0, 2), (1, 3), (2, 0), (3, 1))


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


def klein_lu(Z, N: int, blocks) -> tuple:
    """LU factorizations of the Klein blocks P_{s,r} at points Z (n, 4).

    Returns (lu, piv) stacked as in ``klein_blocks``, in the format of
    ``scipy.linalg.lu_factor``; SingularTruncation is raised if any
    factored block has a pivot below LU_PIVOT_TOL.  LAPACK factors one 2-D
    block per call, so the stack is walked block by block.
    """
    stack = klein_blocks(Z, N, blocks)
    lu = np.empty_like(stack)
    piv = np.empty(stack.shape[:-1], dtype=np.int32)
    for k in np.ndindex(stack.shape[:-2]):
        # an exactly zero pivot (info > 0) is caught by the check below
        lu[k], piv[k], _ = _GETRF(stack[k], overwrite_a=True)
    if np.abs(np.diagonal(lu, axis1=-2, axis2=-1)).min() < LU_PIVOT_TOL:
        raise SingularTruncation(f"pencil truncation at N={N} is numerically singular")
    return lu, piv


@dataclass(frozen=True, eq=False)
class CirculantPencil:
    """Dense 4N x 4N truncation at a point; its matrix is read-only."""

    N: int
    z: PencilPoint
    matrix: np.ndarray

    def lu(self, s: int, r: int) -> tuple:
        """LU of the Klein block P_{s,r}, factored on each call, not stored."""
        if (s, r) not in KLEIN_BLOCKS:
            raise ValueError(f"no Klein block ({s}, {r})")
        lu, piv = klein_lu(self.z.as_array(), self.N, ((s, r),))
        return lu[0, 0], piv[0, 0]


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


def fft_angles(N: int) -> np.ndarray:
    """The angles 2*pi*k/N sampled by the size-N truncation."""
    return 2.0 * np.pi * np.arange(N) / N


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


def membership_margin(z, N: int, method: str = "symbol") -> float:
    """Smallest singular value of the size-N truncation.

    ``method="dense"`` computes it from the assembled matrix;
    ``method="symbol"`` from the tau-parity blocks (identical up to
    roundoff, O(N) instead of O(N^3)).
    """
    if method == "dense":
        pencil = z if isinstance(z, CirculantPencil) else pencil_matrix(z, N)
        return float(np.linalg.svd(pencil.matrix, compute_uv=False)[-1])
    if method == "symbol":
        z = as_point(z)
        return float(margin_grid(z.as_array()[None, :], N)[0])
    raise ValueError(f"unknown method {method!r}")


def _block_sigma_min(d, w, wbar, hermitian: bool) -> np.ndarray:
    """Smallest singular value of [[d, w], [wbar, d]], elementwise."""
    if hermitian:
        # real point: wbar = conj(w), eigenvalues d +- |w|
        return np.abs(np.abs(d.real) - np.abs(w))
    # sigma_max^2 is the larger eigenvalue of B^H B, whose discriminant is a
    # sum of squares (no cancellation); sigma_min = |det B| / sigma_max, and
    # a zero block has margin 0, not 0/0
    aw, av = np.abs(w) ** 2, np.abs(wbar) ** 2
    disc = np.hypot(aw - av, 2.0 * np.abs(np.conj(d) * w + d * np.conj(wbar)))
    smax = np.sqrt(0.5 * (2.0 * np.abs(d) ** 2 + aw + av + disc))
    det = np.abs(d * d - w * wbar)
    return np.divide(det, smax, out=np.zeros_like(det), where=smax > 0)


def margin_grid(points: np.ndarray, N: int, chunk: int = 512) -> np.ndarray:
    """Batched truncation margins for an (n, 4) array of pencil points.

    The truncation's singular values are those of the 2N parity blocks;
    real inputs give Hermitian blocks (eigenvalues z0 +- z3 +- |w|),
    complex inputs use the 2x2 closed form |det| / sigma_max.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError("points must have shape (n, 4)")
    hermitian = np.all(pts.imag == 0.0)
    th = fft_angles(N)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), chunk):
        dp, dm, w, wbar = parity_blocks(pts[lo : lo + chunk], th)
        sv = [_block_sigma_min(d, w, wbar, hermitian).min(axis=1) for d in (dp, dm)]
        out[lo : lo + chunk] = np.minimum(*sv)
    return out


# ---------------------------------------------------------------------------
# oracle traces


def _klein_form(Z, dZ, N: int, kind: FunctionalKind) -> np.ndarray:
    """The functional on P(z)^-1 P(dz) for points Z and tangents dZ (n, 4).

    Each Klein block the functional reads (all four for Tr, the tau-odd
    two for phi~) is factored once per point and solved against its N
    columns of X = P(dz); the traces of the solutions add up as in the
    module docstring.  Points are stacked at most _BATCH_BYTES per array.
    A one-hot dz gives a word's oracle value; along a loop, dz = z'(s)
    gives the period's 1-form.
    """
    _check_size(N)
    blocks, scale = _READS[kind]
    Z = np.asarray(Z, dtype=complex).reshape(-1, 4)
    dZ = np.asarray(dZ, dtype=complex).reshape(-1, 4)
    per = max(1, _BATCH_BYTES // (16 * len(blocks) * N * N))
    out = np.empty(len(Z), dtype=complex)
    for lo in range(0, len(Z), per):
        factors = klein_lu(Z[lo : lo + per], N, blocks)
        tangent = klein_blocks(dZ[lo : lo + per], N, blocks)
        Y = np.empty_like(tangent)
        for k in np.ndindex(tangent.shape[:-2]):
            Y[k], _ = _GETRS(factors[0][k], factors[1][k], tangent[k], overwrite_b=True)
        out[lo : lo + per] = np.einsum("kbii->k", Y)
    return out * (scale / N)


def oracle_functional(z_or_pencil, word: str, functional, N: int | None = None) -> complex:
    """The functional on pencil^-1 * word matrix: the word's one-hot tangent."""
    if word not in WORDS:
        raise ValueError(f"unknown word {word!r}")
    kind = FunctionalKind.coerce(functional)
    if isinstance(z_or_pencil, CirculantPencil):
        z, N = z_or_pencil.z, z_or_pencil.N
    elif N is None:
        raise ValueError("N is required when passing a pencil point")
    else:
        z = as_point(z_or_pencil)
    z = z.as_array()
    if kind is FunctionalKind.PHI_TENSOR_TRACE:
        # phi~ reads the tau-odd blocks alone but is defined only where all
        # of P is invertible: the tau-even blocks are factored too, so a
        # singular truncation raises for both functionals
        klein_lu(z, N, KLEIN_BLOCKS[:2])
    onehot = [float(w == word) for w in WORDS]
    return complex(_klein_form(z, onehot, N, kind)[0])


def oracle_trace(z_or_pencil, word: str, N: int | None = None) -> complex:
    """(1/4N) * trace(pencil^-1 * word matrix)."""
    return oracle_functional(z_or_pencil, word, FunctionalKind.CANONICAL_TRACE, N)


def oracle_phitr(z_or_pencil, word: str, N: int | None = None) -> complex:
    """Twisted functional phi~(pencil^-1 * word matrix)."""
    return oracle_functional(z_or_pencil, word, FunctionalKind.PHI_TENSOR_TRACE, N)


def richardson(coarse: complex, fine: complex) -> complex:
    """One trapezoid-refinement step: fine + (fine - coarse)/3."""
    return fine + (fine - coarse) / 3.0


def refine(fn, n: int, target: float, n_max: int, what: str) -> tuple:
    """Evaluate fn(n), fn(2n), ... until two consecutive grids agree.

    Returns (coarse, fine) at the first pair with max |fine - coarse| <=
    ``target`` (scalars or arrays).  NonConvergent, with the history of
    changes, is raised once a comparison at n >= ``n_max`` still misses.
    """
    coarse, history = None, []
    while True:
        fine = fn(n)
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


# ---------------------------------------------------------------------------
# oracle loop periods


def _check_loop_margins(Z: np.ndarray, N: int, loop_name: str) -> None:
    margins = margin_grid(Z, N)
    if margins.min() <= 1e-9:
        raise LoopHitsSpectrum(
            f"loop {loop_name}: sample margin {margins.min():.3e} at N={N}"
        )


def oracle_period(
    loop: LoopPath,
    functional,
    N: int = 32,
    steps: int | None = None,
    residual_target: float = 1e-6,
    max_steps: int = 2**13,
) -> complex:
    """Loop period from the finite truncation.

    One path for both functionals: the trapezoid integral of the oracle
    1-form along the loop, with step doubling through ``refine`` until two
    grids agree to ``residual_target``, then one Richardson step.  The
    pencil is linear in z, P(z) = sum_w z_w W_w, so on a tangent dz the
    1-form is the functional on P^-1 P(dz), which ``_klein_form`` takes
    from LUs of the N x N Klein blocks, assembled straight from (z, dz)
    with no 4N x 4N matrix.  That uses only the right action of t and
    tau on the truncation, neither the DFT nor the tau-parity symbol, so
    this route stays independent of the fast path.  A phase unwrap of
    det P would need no comparison but aliases: the phase turns 64 times
    around L1 at N = 32, so coarse samples can pass the unwrap check with
    a wrong integer.
    Sample values are reused across step doublings, keyed on the exact
    bytes of (z_j, dz_j): with an analytic derivative the even points of
    the 2n grid are bitwise the n grid; spectral derivatives never match.
    """
    kind = FunctionalKind.coerce(functional)
    n = loop.steps if steps is None else int(steps)
    cache: dict[bytes, complex] = {}

    def value_at(nsteps: int) -> complex:
        Z = loop.samples(nsteps)[:-1]
        _check_loop_margins(Z, N, loop.name)
        dz = loop.derivatives(nsteps)
        keys = [zj.tobytes() + dzj.tobytes() for zj, dzj in zip(Z, dz)]
        new = {key: j for j, key in enumerate(keys) if key not in cache}
        rows = list(new.values())
        cache.update(zip(new, _klein_form(Z[rows], dz[rows], N, kind)))
        # periodic trapezoid of the coefficient 1-form along the loop
        return complex(np.array([cache[key] for key in keys]).mean())

    what = f"oracle period on {loop.name}"
    return richardson(*refine(value_at, n, residual_target, max_steps, what))
