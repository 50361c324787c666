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
the potential with no quadrature at all.  The dense traces and periods
use only the tau block structure of the assembled matrix: every word
commutes with the tau block swap Q, so in 2N blocks
P = [[E, F], [F, E]] and P is similar to diag(P+, P-) with P+- = E +- F.
One 1-form kernel, ``_half_form``, evaluates both functionals on
P^-1 P(dz) from LU factorizations of those halves; it uses neither the
DFT nor the 2x2 symbol, so it stays independent of the fast path.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import LoopHitsSpectrum, NonConvergent, OnSpectrum
from .errors import SingularTruncation, TruncationTooLarge
from .group import FunctionalKind
from .loops import LoopPath
from .spectrum import PencilPoint, as_point

WORDS = ("e", "a", "t", "tau")

LU_PIVOT_TOL = 1e-12
# the dense truncation stores a (4N)^2 complex matrix and LUs of its two halves
MAX_DENSE_N = 1024

# block positions of tau (cosets e <-> tau, t <-> tau*t)
_TAU_BLOCKS = ((0, 2), (1, 3), (2, 0), (3, 1))


# ---------------------------------------------------------------------------
# dense truncation


@functools.lru_cache(maxsize=64)
def word_permutation(word: str, N: int) -> np.ndarray:
    """Image map sigma of the word's permutation matrix: W[sigma(i), i] = 1.

    Basis: index b*N + m with block b in 0..3 (cosets e, t, tau, tau*t) and
    m the cyclic-shift coordinate.  Cached per (word, N), read-only; N is
    capped at MAX_DENSE_N, so the cache holds at most 64 * 32 KiB.
    """
    if N > MAX_DENSE_N:
        raise TruncationTooLarge(f"dense truncation N={N} exceeds {MAX_DENSE_N}")
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


def _tau_half(matrix: np.ndarray, sign: int) -> np.ndarray:
    """P+ = E + F (sign 1) or P- = E - F (sign -1) of P = [[E, F], [F, E]].

    The tau block swap Q maps the first 2N basis vectors (cosets e, t) onto
    the last 2N (tau, tau*t); every word matrix commutes with Q, so any
    assembled truncation has this 2N-block form, with P U = U P+ for
    U = [I; I] and P V = V P- for V = [I; -I].
    """
    half = matrix.shape[0] // 2
    return matrix[:half, :half] + sign * matrix[:half, half:]


@dataclass
class CirculantPencil:
    """Dense 4N x 4N truncation with cached LU factorizations of its halves."""

    N: int
    z: PencilPoint
    matrix: np.ndarray

    _lu: dict = field(default_factory=dict)

    def lu(self, sign: int):
        """LU of the tau half P+ (sign 1) or P- (sign -1), factored once."""
        if sign not in self._lu:
            with warnings.catch_warnings():
                # singular factorizations surface as SingularTruncation
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu, piv = scipy.linalg.lu_factor(
                    _tau_half(self.matrix, sign), overwrite_a=True, check_finite=False
                )
            if np.abs(np.diag(lu)).min() < LU_PIVOT_TOL:
                raise SingularTruncation(
                    f"pencil truncation at N={self.N} is numerically singular"
                )
            self._lu[sign] = (lu, piv)
        return self._lu[sign]


def pencil_matrix(z, N: int) -> CirculantPencil:
    """Assemble the truncation (O(N) nonzeros, N <= MAX_DENSE_N)."""
    if N < 2:
        raise ValueError("truncation size N must be at least 2")
    if N > MAX_DENSE_N:
        raise TruncationTooLarge(f"dense truncation N={N} exceeds {MAX_DENSE_N}")
    z = as_point(z)
    coeffs = dict(zip(WORDS, z))
    mat = np.zeros((4 * N, 4 * N), dtype=complex)
    cols = np.arange(4 * N)
    for word, c in coeffs.items():
        if c != 0 or word == "e":
            mat[word_permutation(word, N), cols] += c
    return CirculantPencil(N=N, z=z, matrix=mat)


def _as_pencil(z_or_pencil, N: int | None) -> CirculantPencil:
    if isinstance(z_or_pencil, CirculantPencil):
        return z_or_pencil
    if N is None:
        raise ValueError("N is required when passing a pencil point")
    return pencil_matrix(z_or_pencil, N)


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
        pencil = _as_pencil(z, N)
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


def _half_form(pencil: CirculantPencil, dz, kind: FunctionalKind) -> complex:
    """The functional on P^-1 X, X = P(dz), from the tau halves it needs.

    X has P's block form, so with U, V as in ``_tau_half``,
    Tr(P^-1 X) = Tr(P+^-1 X+) + Tr(P-^-1 X-), and as Q - I = -V V^T,
    phi~(P^-1 X) = (1/4N) Tr(P^-1 X (Q - I)) = -(1/2N) Tr(P-^-1 X-).
    Each half trace is one 2N-column solve against that half's LU; phi~
    never factors P+.  A one-hot dz gives a word's oracle value; along a
    loop, dz = z'(s) gives the period's 1-form.
    """
    if kind is FunctionalKind.CANONICAL_TRACE:
        signs, scale = (1, -1), 1.0 / (4 * pencil.N)
    else:
        signs, scale = (-1,), -1.0 / (2 * pencil.N)
    tangent = pencil_matrix(dz, pencil.N).matrix
    total = 0j
    for sign in signs:
        Y = scipy.linalg.lu_solve(
            pencil.lu(sign), _tau_half(tangent, sign), overwrite_b=True, check_finite=False
        )
        total += complex(np.trace(Y))
    return total * scale


def oracle_functional(z_or_pencil, word: str, functional, N: int | None = None) -> complex:
    """The functional on pencil^-1 * word matrix: the word's one-hot tangent."""
    if word not in WORDS:
        raise ValueError(f"unknown word {word!r}")
    kind = FunctionalKind.coerce(functional)
    pencil = _as_pencil(z_or_pencil, N)
    # phi~ reads P- alone but is defined only where all of P is invertible:
    # P+ is factored too, so a singular truncation raises for both functionals
    pencil.lu(1)
    return _half_form(pencil, [float(w == word) for w in WORDS], kind)


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
    1-form is the functional on P^-1 P(dz), which ``_half_form`` takes
    from LUs of the tau halves of the assembled truncation.  That uses
    only how P and the functionals are built from the tau block swap,
    neither the DFT nor the tau-parity symbol, so this route stays
    independent of the fast path.  A phase unwrap of det P would need no
    comparison but aliases: the phase turns 64 times around L1 at N = 32,
    so coarse samples can pass the unwrap check with a wrong integer.
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
        vals = np.empty(len(Z), dtype=complex)
        for j, (zj, dzj) in enumerate(zip(Z, dz)):
            key = zj.tobytes() + dzj.tobytes()
            if key not in cache:
                cache[key] = _half_form(pencil_matrix(zj, N), dzj, kind)
            vals[j] = cache[key]
        # periodic trapezoid of the coefficient 1-form along the loop
        return complex(vals.mean())

    what = f"oracle period on {loop.name}"
    return richardson(*refine(value_at, n, residual_target, max_steps, what))
