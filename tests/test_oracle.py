import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from dinfh import loops, oracle, traces
from dinfh.errors import (
    GridTooLarge,
    LoopHitsSpectrum,
    NonConvergent,
    OnSpectrum,
    SingularTruncation,
    TruncationTooLarge,
)
from dinfh.group import FunctionalKind
from dinfh.oracle import (
    KLEIN_BLOCKS,
    LU_PIVOT_TOL,
    MAX_DENSE_N,
    WORDS,
    circle_means,
    fft_angles,
    jacobi_blocks,
    klein_blocks,
    margin_grid,
    membership_margin,
    oracle_period,
    parity_blocks,
    oracle_phitr,
    oracle_trace,
    path_order,
    pencil_matrix,
    pencil_symbol,
    refine,
    richardson,
    symbol_integrand,
    word_integrands,
    word_permutation,
)

TR, PHI = FunctionalKind.CANONICAL_TRACE, FunctionalKind.PHI_TENSOR_TRACE

P = (1.0, 8.0, 4.0, 2.0)

GTSV = scipy.linalg.get_lapack_funcs("gtsv", dtype=complex)


# ---------------------------------------------------------------------------
# test-side references: dense word matrices and the full 4x4 symbol route


def word_matrix(word, N):
    sigma = word_permutation(word, N)
    W = np.zeros((4 * N, 4 * N), dtype=complex)
    W[sigma, np.arange(4 * N)] = 1.0
    return W


def uncached_pencil_matrix(z, N):
    """pencil_matrix's assembly with freshly built word permutations."""
    mat = np.zeros((4 * N, 4 * N), dtype=complex)
    cols = np.arange(4 * N)
    for word, c in zip(WORDS, z):
        if c != 0 or word == "e":
            mat[word_permutation.__wrapped__(word, N), cols] += c
    return mat


def word_symbol(word, thetas):
    """Symbol of a word at angles theta: shape (len(thetas), 4, 4)."""
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    W = np.zeros((len(th), 4, 4), dtype=complex)
    if word == "e":
        W[:, range(4), range(4)] = 1.0
    elif word == "a":
        up = np.exp(1j * th)
        W[:, 0, 1] = W[:, 2, 3] = up
        W[:, 1, 0] = W[:, 3, 2] = np.conj(up)
    elif word == "t":
        for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
            W[:, i, j] = 1.0
    elif word == "tau":
        for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
            W[:, i, j] = 1.0
    return W


def apply_functional(X, functional):
    """Tr or the twisted functional on stacked 4x4 matrices."""
    diag = X[..., 0, 0] + X[..., 1, 1] + X[..., 2, 2] + X[..., 3, 3]
    if FunctionalKind.coerce(functional) is FunctionalKind.CANONICAL_TRACE:
        return 0.25 * diag
    anti = X[..., 0, 2] + X[..., 1, 3] + X[..., 2, 0] + X[..., 3, 1]
    return 0.25 * (anti - diag)


def dense_margin(z, N):
    """Smallest singular value of the assembled 4N x 4N truncation."""
    return float(np.linalg.svd(pencil_matrix(z, N).matrix, compute_uv=False)[-1])


def reference_integrand(z, word, functional, thetas):
    X = np.linalg.solve(pencil_symbol(z, thetas), word_symbol(word, thetas))
    return apply_functional(X, functional)


def reference_trace(pencil, word):
    """(1/4N) * trace(pencil^-1 * word matrix), gathered from the full inverse."""
    n = pencil.N
    Pinv = np.linalg.inv(pencil.matrix)
    sigma = word_permutation(word, n)
    idx = np.arange(4 * n)
    return complex(Pinv[idx, sigma[idx]].sum()) / (4 * n)


def reference_phitr(pencil, word):
    """Twisted functional of pencil^-1 * word from the full inverse:
    -(1/4N) * the diagonal block traces of X plus (1/4N) * its (1,3),
    (2,4), (3,1), (4,2) block traces, X = pencil^-1 * word matrix."""
    n = pencil.N
    Pinv = np.linalg.inv(pencil.matrix)
    sigma = word_permutation(word, n)
    m = np.arange(n)
    total = 0j
    for b in range(4):
        rows = b * n + m
        total -= Pinv[rows, sigma[rows]].sum()
    for bi, bj in ((0, 2), (1, 3), (2, 0), (3, 1)):
        rows = bi * n + m
        cols = sigma[bj * n + m]
        total += Pinv[rows, cols].sum()
    return complex(total) / (4 * n)


def reference_canonical_period(loop, N, max_steps=2**13):
    """Increment of log det of the full truncation around the loop, / 4N:
    slogdet at every sample, phase unwrapped on the first grid whose
    principal phase steps all stay below pi/2."""
    n = loop.steps
    while n <= max_steps:
        Z = loop.points(np.arange(n + 1) / n)
        signs, logabs = zip(*(np.linalg.slogdet(pencil_matrix(zj, N).matrix) for zj in Z))
        dphi = np.angle(np.array(signs[1:]) / np.array(signs[:-1]))
        if np.abs(dphi).max() < np.pi / 2:
            return complex(logabs[-1] - logabs[0] + 1j * dphi.sum()) / (4 * N)
        n *= 2
    raise AssertionError(f"reference log det on {loop.name} did not unwrap")


def reference_twisted_period(loop, N, residual_target=1e-6):
    """The per-word full-inverse twisted period: for every sample, the four
    coefficients oracle_phitr(P, w) contracted with dz, each grid in full."""

    def value_at(nsteps):
        s = np.arange(nsteps) / nsteps
        Z = loop.points(s)
        coeffs = np.empty((len(Z), 4), dtype=complex)
        for j, zj in enumerate(Z):
            pencil = pencil_matrix(zj, N)
            for iw, word in enumerate(WORDS):
                coeffs[j, iw] = reference_phitr(pencil, word)
        dz = loop.dfn(s)
        return complex((coeffs * dz).sum(axis=1).mean())

    n = loop.steps
    prev = value_at(n)
    while n < 2**13:
        n *= 2
        cur = value_at(n)
        if abs(cur - prev) <= residual_target:
            return richardson(prev, cur)
        prev = cur
    raise AssertionError(f"reference period on {loop.name} did not stabilise")


def reference_tau_half(matrix, sign):
    """P+ = E + F (sign 1) or P- = E - F (sign -1) of P = [[E, F], [F, E]]."""
    half = matrix.shape[0] // 2
    return matrix[:half, :half] + sign * matrix[:half, half:]


def reference_half_form(pencil, dz, kind):
    """The tau-half 1-form kernel: the functional on P^-1 P(dz) from LUs of
    the 2N halves P+- (phi~ reads P- alone)."""
    if kind is FunctionalKind.CANONICAL_TRACE:
        signs, scale = (1, -1), 1.0 / (4 * pencil.N)
    else:
        signs, scale = (-1,), -1.0 / (2 * pencil.N)
    tangent = pencil_matrix(dz, pencil.N).matrix
    total = 0j
    for sign in signs:
        lu = scipy.linalg.lu_factor(reference_tau_half(pencil.matrix, sign))
        Y = scipy.linalg.lu_solve(
            lu, reference_tau_half(tangent, sign), overwrite_b=True, check_finite=False
        )
        total += complex(np.trace(Y))
    return total * scale


def right_translation(h_index, N):
    """Right translation by h as an index map i -> index of g_i h, built
    from word_permutation alone by walking the left action: index 0 is the
    identity, index i is the element g_i with g_i(0) = i, and applying a
    generator to both entries of the pair (0, h_index) keeps it of the form
    (i, index of g_i h)."""
    perms = [word_permutation(w, N) for w in ("a", "t", "tau")]
    image = np.full(4 * N, -1)
    image[0] = h_index
    frontier = [0]
    while frontier:
        reached = []
        for i in frontier:
            for sigma in perms:
                j = sigma[i]
                if image[j] < 0:
                    image[j] = sigma[image[i]]
                    reached.append(j)
        frontier = reached
    return image


def klein_basis(N):
    """Orthonormal Klein basis, one N-column group per (s, r) in KLEIN_BLOCKS:
    (1/2)(d(e, m) + r d(t, -m) + s d(tau, m) + s r d(tau*t, -m))."""
    m = np.arange(N)
    neg = -m % N
    U = np.zeros((4 * N, 4 * N))
    for k, (s, r) in enumerate(KLEIN_BLOCKS):
        cols = k * N + m
        U[m, cols] = 0.5
        U[N + neg, cols] = 0.5 * r
        U[2 * N + m, cols] = 0.5 * s
        U[3 * N + neg, cols] = 0.5 * s * r
    return U


def random_offspectrum_points(rng, count, require_margin=0.05):
    pts = []
    while len(pts) < count:
        z = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-1, 1, 4)
        if margin_grid(z[None, :], 64)[0] > require_margin:
            pts.append(z)
    return pts


def reference_klein_form(Z, dZ, N):
    """_klein_form's per-block loop: one gtsv per Klein block and point."""
    off, diag = jacobi_blocks(Z, N)
    dZ = np.asarray(dZ, dtype=complex).reshape(-1, 4)
    s, r = np.array(KLEIN_BLOCKS, dtype=float).T
    rhs = np.zeros(diag.shape, dtype=complex)
    rhs[..., 0] = dZ[:, 0, None] + s * dZ[:, 3, None] + r * dZ[:, 2, None]
    rhs[..., 1] = r * dZ[:, 1, None]
    y = np.empty(diag.shape[:-1], dtype=complex)
    for k in np.ndindex(y.shape):
        _, pivots, _, x, info = GTSV(off[k], diag[k], off[k], rhs[k])
        if info > 0 or np.abs(pivots).min() < LU_PIVOT_TOL:
            raise SingularTruncation(f"pencil truncation at N={N} is numerically singular")
        y[k] = x[0]
    return np.stack([y @ w for w in oracle._WEIGHTS])


class TestPencilMatrix:
    def test_identity_coefficients(self):
        assert np.array_equal(pencil_matrix((1, 0, 0, 0), 3).matrix, np.eye(12))

    def test_tau_block_structure(self):
        mat = pencil_matrix((0, 0, 0, 1), 2).matrix
        expect = np.zeros((8, 8))
        expect[0:2, 4:6] = np.eye(2)
        expect[2:4, 6:8] = np.eye(2)
        expect[4:6, 0:2] = np.eye(2)
        expect[6:8, 2:4] = np.eye(2)
        assert np.array_equal(mat, expect)

    @pytest.mark.parametrize("N", [2, 5, 16])
    def test_tau_swap_block_form(self, rng, N):
        # P = [[E, F], [F, E]] in 2N blocks: what the dense traces rely on
        for z in random_offspectrum_points(rng, 3):
            M = pencil_matrix(z, N).matrix
            h = 2 * N
            assert np.array_equal(M[h:, h:], M[:h, :h])
            assert np.array_equal(M[h:, :h], M[:h, h:])

    @pytest.mark.parametrize("N", [2, 5, 32])
    def test_cached_permutations_assemble_the_same_matrix(self, rng, N):
        points = random_offspectrum_points(rng, 3) + [(1.0, 0.0, -2.0, 0.0)]
        for _ in range(2):
            # the second pass reads every permutation from the cache
            for z in points:
                assert np.array_equal(
                    pencil_matrix(z, N).matrix, uncached_pencil_matrix(z, N)
                )

    def test_cached_permutation_is_read_only(self):
        sigma = word_permutation("a", 4)
        with pytest.raises(ValueError):
            sigma[0] = 7
        assert word_permutation("a", 4) is sigma
        assert np.array_equal(sigma, word_permutation.__wrapped__("a", 4))

    def test_permutation_size_cap(self):
        # the cache holds at most 64 permutations of at most 4 * MAX_DENSE_N
        with pytest.raises(TruncationTooLarge):
            word_permutation("a", MAX_DENSE_N + 1)

    def test_word_matrices_are_involutions(self):
        for word in ("a", "t", "tau"):
            W = word_matrix(word, 5)
            assert np.array_equal(W @ W, np.eye(20))

    def test_word_commutation(self):
        Wa, Wt, Wtau = (word_matrix(w, 4) for w in ("a", "t", "tau"))
        assert np.array_equal(Wa @ Wtau, Wtau @ Wa)
        assert np.array_equal(Wt @ Wtau, Wtau @ Wt)

    def test_real_pencil_is_symmetric(self, rng):
        z = rng.uniform(-2, 2, 4)
        mat = pencil_matrix(z, 6).matrix
        assert np.allclose(mat, mat.T)
        sv = np.sort(np.linalg.svd(mat, compute_uv=False))
        ev = np.sort(np.abs(np.linalg.eigvalsh(mat.real)))
        assert np.allclose(sv, ev, atol=1e-12)


class TestMargins:
    def test_identity_margin(self):
        assert membership_margin((1, 0, 0, 0), 16) == pytest.approx(1.0)

    def test_exactly_singular(self):
        assert membership_margin((1, 1, 0, 0), 16) <= 1e-12

    def test_p_margin_bounded_away(self):
        m64 = membership_margin(P, 64)
        m128 = membership_margin(P, 128)
        assert m64 >= 0.5
        assert abs(m128 - m64) <= 0.01 * m64

    @pytest.mark.parametrize("N", [2, 3, 4, 8, 16])
    def test_symbol_equals_dense(self, rng, N):
        z = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-1, 1, 4)
        fast = membership_margin(z, N)
        assert fast == pytest.approx(dense_margin(z, N), abs=1e-11)

    def test_symbol_equals_dense_real(self, rng):
        z = rng.uniform(-2, 2, 4)
        fast = membership_margin(z, 8)
        assert fast == pytest.approx(dense_margin(z, 8), abs=1e-12)

    def test_homogeneity(self, rng):
        z = rng.uniform(-2, 2, 4)
        for c in (2.0, 0.25, 1.5j, 1 + 1j):
            assert membership_margin(np.asarray(z, complex) * c, 32) == pytest.approx(
                abs(c) * membership_margin(z, 32), rel=1e-10
            )


class TestOracleTraces:
    def test_two_plus_tau(self):
        assert oracle_trace((2, 0, 0, 1), "tau", 8) == pytest.approx(-1 / 3)

    def test_identity_point(self):
        for word in ("a", "t", "tau"):
            assert oracle_trace((1, 0, 0, 0), word, 8) == pytest.approx(0.0)
        assert oracle_trace((1, 0, 0, 0), "e", 8) == pytest.approx(1.0)

    def test_trace_at_p(self):
        expect = 0.5 / math.sqrt(2145) - 1.5 / math.sqrt(945)
        assert oracle_trace(P, "e", 256) == pytest.approx(expect, abs=1e-10)

    def test_phitr_examples(self):
        assert oracle_phitr((2, 0, 0, 1), "e", 8) == pytest.approx(-1.0)
        assert oracle_phitr(P, "a", 256) == pytest.approx(
            -(1 / 16 + 49 / (16 * math.sqrt(2145))), abs=1e-10
        )
        assert oracle_phitr(P, "e", 256) == pytest.approx(
            -1 / math.sqrt(2145), abs=1e-10
        )

    def test_phitr_matches_full_inverse(self, rng):
        points = [P, (2, 0, 0, 1)] + random_offspectrum_points(rng, 3)
        for z in points:
            for N in (16, 64):
                pencil = pencil_matrix(z, N)
                for word in WORDS:
                    assert abs(oracle_phitr(z, word, N) - reference_phitr(pencil, word)) <= 1e-12

    def test_trace_matches_full_inverse(self, rng):
        points = [P, (2, 0, 0, 1)] + random_offspectrum_points(rng, 3)
        for z in points:
            for N in (16, 64):
                pencil = pencil_matrix(z, N)
                for word in WORDS:
                    assert abs(oracle_trace(z, word, N) - reference_trace(pencil, word)) <= 1e-12

    def test_phitr_unknown_word(self):
        with pytest.raises(ValueError):
            oracle_phitr(P, "u", 8)

    def test_singular_truncation(self):
        with pytest.raises(SingularTruncation):
            oracle_trace((1, 1, 0, 0), "e", 8)

    def test_phitr_raises_where_only_p_plus_is_singular(self):
        # z0 + z3 = |z1| = 1 makes every P+ block singular; P- is invertible
        z = (0.75, 1.0, 0.0, 0.25)
        assert np.linalg.svd(pencil_matrix(z, 8).matrix, compute_uv=False)[-1] < 1e-12
        with pytest.raises(SingularTruncation):
            oracle_phitr(z, "e", 8)

    def test_small_pivot_raises_on_both_routes(self):
        # block (+, -) is I - (1 - 1e-14) K, and K pairs m with 1 - m for
        # even N: both LUs meet the pivot 1 - (1 - 1e-14)^2, small but not 0
        z = (1.0, 1.0 - 1e-14, 0.0, 0.0)
        with pytest.raises(SingularTruncation):
            oracle_trace(z, "e", 8)
        with pytest.raises(SingularTruncation):
            pencil_matrix(z, 8).lu(1, -1)

    def test_dense_size_cap(self):
        # raised before the (4N)^2 matrix is allocated
        assert MAX_DENSE_N == 1024
        with pytest.raises(TruncationTooLarge):
            pencil_matrix(P, 1025)

    def test_oracle_is_trapezoid_of_symbol(self, rng):
        # the truncation is exactly the theta-sampled symbol: the oracle
        # value must equal the plain average of the pointwise integrand
        for z in random_offspectrum_points(rng, 3):
            for word in WORDS:
                for kind in FunctionalKind:
                    direct = (
                        oracle_trace(z, word, 16)
                        if kind is FunctionalKind.CANONICAL_TRACE
                        else oracle_phitr(z, word, 16)
                    )
                    mean = symbol_integrand(z, word, kind, fft_angles(16)).mean()
                    assert direct == pytest.approx(mean, abs=1e-12)

    def test_geometric_decay(self):
        # just off-spectrum (nearest root x = 1.006): truncation error is
        # visible at N = 64 yet still halves (much faster, in fact) per
        # doubling
        z = (2.503, 1.0, 1.0, 0.5)
        vals = {n: oracle_trace(z, "e", n) for n in (64, 128, 256, 512)}
        d1 = abs(vals[128] - vals[64])
        d2 = abs(vals[256] - vals[128])
        d3 = abs(vals[512] - vals[256])
        assert d2 > 1e-14  # the test is vacuous if already converged
        assert d2 < 0.5 * d1
        assert d3 < 0.5 * d2

    def test_richardson_extrapolation_refines(self):
        z = (2.503, 1.0, 1.0, 0.5)
        coarse = oracle_trace(z, "e", 96)
        refined = richardson(oracle_trace(z, "e", 96), oracle_trace(z, "e", 192))
        truth = oracle_trace(z, "e", 512)  # error ~1e-12 per the decay test
        assert abs(refined - truth) < abs(coarse - truth)


class TestKleinSplit:
    @pytest.mark.parametrize("N", [2, 3, 8, 32])
    def test_right_translation_by_t(self, N):
        t_index = word_permutation("t", N)[0]
        rt = right_translation(t_index, N)
        ident = np.arange(4 * N)
        assert np.array_equal(rt[rt], ident)
        assert np.all(rt != ident)
        m = np.arange(N)
        assert np.array_equal(rt[m], N + (-m % N))  # (e, m) -> (t, -m)
        assert np.array_equal(rt[2 * N + m], 3 * N + (-m % N))  # (tau, m) -> (tau*t, -m)
        for word in WORDS:
            sigma = word_permutation(word, N)
            assert np.array_equal(rt[sigma], sigma[rt])
        # tau is central: right and left translation by tau agree
        tau = word_permutation("tau", N)
        assert np.array_equal(right_translation(tau[0], N), tau)
        assert np.array_equal(rt[tau], tau[rt])

    @pytest.mark.parametrize("N", [2, 3, 8, 32])
    def test_pencil_is_block_diagonal_in_the_klein_basis(self, rng, N):
        U = klein_basis(N)
        assert np.array_equal(U.T @ U, np.eye(4 * N))
        rt = right_translation(word_permutation("t", N)[0], N)
        tau = word_permutation("tau", N)
        for k, (s, r) in enumerate(KLEIN_BLOCKS):
            cols = U[:, k * N : (k + 1) * N]
            assert np.array_equal(cols[rt], r * cols)
            assert np.array_equal(cols[tau], s * cols)
        points = random_offspectrum_points(rng, 3) + [np.array([1.0, 0.0, -2.0, 0.5])]
        for z in points:
            B = U.T @ pencil_matrix(z, N).matrix @ U
            direct = klein_blocks(z, N, KLEIN_BLOCKS)[0]
            for k in range(4):
                for j in range(4):
                    block = B[k * N : (k + 1) * N, j * N : (j + 1) * N]
                    expect = direct[k] if j == k else 0.0
                    assert np.abs(block - expect).max() <= 1e-14

    @pytest.mark.parametrize("N", [2, 3, 5, 16, 32, 33])
    def test_kernel_matches_the_tau_half_reference(self, rng, N):
        points = []
        while len(points) < 3:
            z = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-1, 1, 4)
            if margin_grid(z[None, :], N)[0] > 0.05:
                points.append(z)
        tangents = [np.eye(4)[i] for i in range(4)]
        tangents += [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]
        Z = np.array([z for z in points for _ in tangents])
        dZ = np.array([dz for _ in points for dz in tangents])
        got = oracle._klein_form(Z, dZ, N)
        assert got.shape == (2, len(Z))
        for row, kind in zip(got, FunctionalKind):
            for k, (z, dz) in enumerate(zip(Z, dZ)):
                ref = reference_half_form(pencil_matrix(z, N), dz, kind)
                assert abs(row[k] - ref) <= 1e-13 * abs(ref)

    def test_pencil_is_immutable(self):
        pencil = pencil_matrix(P, 8)
        state = dict(vars(pencil))
        matrix = pencil.matrix.copy()
        first = pencil.lu(-1, 1)
        for _ in range(2):
            for s, r in KLEIN_BLOCKS:
                pencil.lu(s, r)
        again = pencil.lu(-1, 1)
        assert vars(pencil).keys() == state.keys()
        assert all(vars(pencil)[name] is value for name, value in state.items())
        assert np.array_equal(pencil.matrix, matrix)
        assert again[0] is not first[0]
        assert np.array_equal(again[0], first[0]) and np.array_equal(again[1], first[1])
        lu, piv = scipy.linalg.lu_factor(klein_blocks(P, 8, ((-1, 1),))[0, 0])
        assert np.array_equal(first[0], lu) and np.array_equal(first[1], piv)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pencil.N = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            pencil.matrix = matrix
        with pytest.raises(ValueError):
            pencil.matrix[0, 0] = 7.0
        with pytest.raises(ValueError):
            pencil.lu(1, 0)


# points whose Klein blocks interchange rows in gtsv (|d_k| < |dl_k|)
PIVOTING_POINT = (0.1 + 0.05j, 1.0 + 0.2j, 0.8 - 0.1j, 0.05j)


def kernel_points(rng, count):
    """Seeded complex points and tangents; every other point has small z0
    and z3, the diagonals of its blocks, so most of those interchange rows."""
    Z = rng.uniform(-2, 2, (count, 4)) + 1j * rng.uniform(-1, 1, (count, 4))
    Z[1::2, [0, 3]] *= 0.05
    dZ = rng.normal(size=(count, 4)) + 1j * rng.normal(size=(count, 4))
    return Z, dZ


def block_pivots(z, N):
    """(info, smallest |pivot|, interchanged rows) of each Klein block of z,
    one gtsv per block."""
    off, diag = jacobi_blocks(z, N)
    out = []
    for k in range(4):
        du2, pivots, _, _, info = GTSV(off[0, k], diag[0, k], off[0, k], np.ones(N, complex))
        # rows K < N - 1 that were not interchanged leave du2[K] = 0
        out.append((int(info), float(np.abs(pivots).min()), bool(np.any(du2[:-1] != 0))))
    return out


def where_jacobi_blocks(Z, N):
    """jacobi_blocks with its off-diagonals from one np.where broadcast."""
    Z = np.asarray(Z, dtype=complex).reshape(-1, 4)
    s, r = np.array(KLEIN_BLOCKS, dtype=float).T[..., None]
    z0, z1, z2, z3 = (Z[:, i, None, None] for i in range(4))
    off = r * np.where(np.arange(N - 1) % 2 == 0, z1, z2)
    loops = np.zeros((len(Z), 1, N), dtype=complex)
    loops[..., :1] = z2
    loops[..., -1:] += z2 if N % 2 == 0 else z1
    return off, (z0 + s * z3) + r * loops


def copied_band_klein_solve(Z, dZ, N):
    """_klein_solve with the bands copied from where_jacobi_blocks: a zero
    band with the off-diagonals copied in, and a copy of it for gtsv's
    upper band."""
    off, diag = where_jacobi_blocks(Z, N)
    s, r = np.array(KLEIN_BLOCKS, dtype=float).T
    rhs = np.zeros(diag.shape, dtype=complex)
    rhs[..., 0] = dZ[:, 0, None] + s * dZ[:, 3, None] + r * dZ[:, 2, None]
    rhs[..., 1] = r * dZ[:, 1, None]
    band = np.zeros(diag.shape, dtype=complex)
    band[..., :-1] = off
    lower = band.reshape(-1)[:-1]
    upper = lower.copy()
    _, pivots, _, x, info = GTSV(
        lower, diag.reshape(-1), upper, rhs.reshape(-1),
        overwrite_dl=True, overwrite_d=True, overwrite_du=True, overwrite_b=True,
    )
    if info > 0 or np.abs(pivots).min() < LU_PIVOT_TOL:
        raise SingularTruncation(f"pencil truncation at N={N} is numerically singular")
    return x.reshape(diag.shape)[..., 0].copy()


class TestStackedKernel:
    @pytest.mark.parametrize("count", [1, 7, 512])
    @pytest.mark.parametrize("N", [2, 3, 5, 16, 33, 256])
    def test_bit_identical_to_the_per_block_loop(self, rng, N, count):
        Z, dZ = kernel_points(rng, count)
        Z[count // 2] = PIVOTING_POINT
        got = oracle._klein_form(Z, dZ, N)
        ref = reference_klein_form(Z, dZ, N)
        assert got.shape == ref.shape == (2, count)
        for got_row, ref_row in zip(got, ref):
            assert np.array_equal(got_row.view(np.uint64), ref_row.view(np.uint64))

    @pytest.mark.parametrize("N", [2, 3, 5, 32, 33, 64, 256])
    def test_bands_give_the_copied_band_solution_bit_for_bit(self, rng, monkeypatch, N):
        Z, dZ = kernel_points(rng, 300)
        Z[7] = PIVOTING_POINT
        # signed zeros in every coordinate, and real points
        Z[10:20] = np.where(rng.random((10, 4)) < 0.5, 0.0, -0.0) + Z[10:20].imag * 1j
        Z[20:30] = Z[20:30].real
        got = oracle._klein_form(Z, dZ, N)
        off, diag = jacobi_blocks(Z, N)
        ref_off, ref_diag = where_jacobi_blocks(Z, N)
        for a, b in ((off, ref_off), (diag, ref_diag)):
            assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
        monkeypatch.setattr(oracle, "_klein_solve", copied_band_klein_solve)
        ref = oracle._klein_form(Z, dZ, N)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("N", [3, 5, 16, 33])
    def test_pivoting_point_interchanges_rows(self, N):
        # the bit-identity test covers row interchanges only if this holds
        assert all(swapped for _, _, swapped in block_pivots(PIVOTING_POINT, N))

    @pytest.mark.parametrize(
        "z1, exact",
        # z0 + z3 = -(z1 + z2) makes P_{+,+} singular on the constant vector,
        # and only that block, as z2 != 0 and z0 - z3 = 3; 1 - 1e-14 moves
        # its last pivot off 0 to about N * 1e-14, as in
        # test_small_pivot_raises_on_both_routes
        [(1.0, True), (1.0 - 1e-14, False)],
        ids=["zero-pivot", "small-pivot"],
    )
    @pytest.mark.parametrize("N", [2, 8])
    def test_one_singular_block_mid_batch_raises(self, rng, N, z1, exact):
        bad = (0.75, z1, 0.5, -2.25)
        pivots = block_pivots(bad, N)
        assert [p < LU_PIVOT_TOL for _, p, _ in pivots] == [True, False, False, False]
        info, pivot, _ = pivots[0]
        assert (info > 0, pivot == 0.0) == (exact, exact)
        Z, dZ = kernel_points(rng, 7)
        Z[3] = bad
        with pytest.raises(SingularTruncation):
            reference_klein_form(Z, dZ, N)
        with pytest.raises(SingularTruncation):
            oracle._klein_form(Z, dZ, N)


# _klein_solve as it was before rows with z1 = z2 = 0 took 1 x 1 systems,
# the N-row route for every row: kept verbatim as the bitwise reference, but
# for the pivot guard, which raises at a NaN pivot as _stacked_solve does
def n_row_klein_solve(Z, dZ, N):
    # each block's N - 1 off-diagonals, then the exact 0 that couples it to
    # the next; gtsv overwrites both bands, so they are two arrays
    band, diag = oracle._klein_bands(Z, N)
    lower = band.reshape(-1)[:-1]
    upper = lower.copy()
    s, r = np.array(KLEIN_BLOCKS, dtype=float).T
    rhs = np.zeros(diag.shape, dtype=complex)
    rhs[..., 0] = dZ[:, 0, None] + s * dZ[:, 3, None] + r * dZ[:, 2, None]
    rhs[..., 1] = r * dZ[:, 1, None]
    _, pivots, _, x, info = GTSV(
        lower, diag.reshape(-1), upper, rhs.reshape(-1),
        overwrite_dl=True, overwrite_d=True, overwrite_du=True, overwrite_b=True,
    )
    if info > 0 or not np.abs(pivots).min() >= LU_PIVOT_TOL:
        raise SingularTruncation(f"pencil truncation at N={N} is numerically singular")
    # a copy, not a view that keeps all of x alive
    return x.reshape(diag.shape)[..., 0].copy()


def chunked(solve, Z, dZ, N):
    """``solve`` over the chunks that _klein_form hands _klein_solve."""
    step = max(1, oracle.KLEIN_ROWS // (4 * N))
    return np.concatenate(
        [solve(Z[lo : lo + step], dZ[lo : lo + step], N) for lo in range(0, len(Z), step)]
    )


def signed_zeros(rng, shape):
    """Complex zeros with each part +0 or -0 at random."""
    out = np.empty(shape, dtype=complex)
    out.real = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    out.imag = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    return out


def diagonal_rows(rng, count):
    """Seeded points with z1 = z2 = 0, each zero of either sign in both
    parts, and tangents with nonzero dz1 and dz2.  Every fifth row from the
    second on has a signed-zero Im z0, from the third on a signed-zero
    Re z0, and from the fourth on signed-zero Im z0 and Im z3 (so the
    block diagonals d = z0 + s z3 can hold a -0) and a word's one-hot
    tangent, as a trace at a real point has."""
    Z = rng.uniform(-2, 2, (count, 4)) + 1j * rng.uniform(-1, 1, (count, 4))
    Z[:, 1:3] = signed_zeros(rng, (count, 2))
    Z.imag[1::5, 0] = signed_zeros(rng, len(Z[1::5])).imag
    Z.real[2::5, 3] = signed_zeros(rng, len(Z[2::5])).real
    Z.imag[3::5, 0::3] = signed_zeros(rng, (len(Z[3::5]), 2)).imag
    dZ = rng.normal(size=(count, 4)) + 1j * rng.normal(size=(count, 4))
    dZ[3::5] = np.eye(4)[np.arange(len(dZ[3::5])) % 4]
    return Z, dZ


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# a single-cut circle off the z1 = z2 = 0 plane: its periods are (Tr, phi~)
# = (1, -1) quanta, and every sample solves N-row Klein blocks
OFF_PLANE_LOOP = loops.circle_loop([4, 1, 0.5, 5], 0.6, ["z0"], steps=128, name="off-plane")


class TestDiagonalRows:
    """Rows with z1 = z2 = 0 solve their 4 Klein blocks (z0 + s z3) I as
    1 x 1 systems, with the bits of the N-row solve."""

    @pytest.mark.parametrize("N", [2, 3, 5, 32, 33, 64, 256])
    def test_loop_samples_bit_for_bit(self, N):
        for loop in [loops.loop_L1(), loops.loop_L2()] + loops.random_axis_loops(3, 20):
            s = np.arange(1024) / 1024
            Z, dZ = loop.points(s), np.asarray(loop.dfn(s), dtype=complex)
            got = chunked(oracle._klein_solve, Z, dZ, N)
            assert bitwise_equal(got, chunked(n_row_klein_solve, Z, dZ, N)), loop.name

    @pytest.mark.parametrize("N", [2, 3, 5, 32, 33])
    def test_signed_zeros_and_tangents_bit_for_bit(self, rng, N):
        Z, dZ = diagonal_rows(rng, 1024)
        got = chunked(oracle._klein_solve, Z, dZ, N)
        assert bitwise_equal(got, chunked(n_row_klein_solve, Z, dZ, N))

    @pytest.mark.parametrize("N", [2, 3, 32])
    def test_zero_right_hand_side_gives_zero(self, rng, N):
        # dz0 + s dz3 + r dz2 = 0 exactly: y is 0 on both routes; where a
        # part of it is -0, the sign of a zero y is not pinned, as the N-row
        # solve takes it from the next block's solution (0 times it)
        Z, dZ = diagonal_rows(rng, 256)
        dZ[:, [0, 2, 3]] = signed_zeros(rng, (256, 3))
        got = chunked(oracle._klein_solve, Z, dZ, N)
        assert np.all(got == 0) and np.all(chunked(n_row_klein_solve, Z, dZ, N) == 0)

    @pytest.mark.parametrize("N", [2, 3, 16, 33])
    def test_every_row_in_a_mixed_batch_is_its_own_one_row_call(self, rng, N):
        Z, dZ = kernel_points(rng, 60)
        Z[7] = PIVOTING_POINT
        diag, ddiag = diagonal_rows(rng, 60)
        order = rng.permutation(120)
        Z, dZ = np.concatenate([Z, diag])[order], np.concatenate([dZ, ddiag])[order]
        got = oracle._klein_solve(Z, dZ, N)
        one = [oracle._klein_solve(Z[i : i + 1], dZ[i : i + 1], N) for i in range(120)]
        one = np.concatenate(one)
        assert bitwise_equal(got, one)
        assert bitwise_equal(got, n_row_klein_solve(Z, dZ, N))

    @pytest.mark.parametrize(
        "z3",
        # z0 - z3 = 0 exactly (gtsv's info > 0) and 5e-13 (a pivot below
        # LU_PIVOT_TOL): the tau-odd blocks are singular
        [1.5, 1.5 - 5e-13],
        ids=["zero-pivot", "small-pivot"],
    )
    @pytest.mark.parametrize("N", [2, 8])
    def test_singular_diagonal_row_raises(self, rng, monkeypatch, N, z3):
        Z, dZ = diagonal_rows(rng, 7)
        Z[3] = (1.5, 0.0, 0.0, z3)
        with pytest.raises(SingularTruncation) as ref:
            n_row_klein_solve(Z, dZ, N)
        sizes = []
        gtsv = oracle._gtsv()

        def counted(*arrays, **kw):
            sizes.append(len(arrays[1]))
            return gtsv(*arrays, **kw)

        monkeypatch.setattr(oracle, "_gtsv", lambda: counted)
        with pytest.raises(SingularTruncation) as got:
            oracle._klein_solve(Z, dZ, N)
        assert str(got.value) == str(ref.value)
        assert sizes == [4 * 7]
        with pytest.raises(SingularTruncation):
            oracle_trace(Z[3], "e", N)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("N", [2, 5, 32])
    def test_non_finite_rows_as_today(self, N):
        # NaN or inf at each coordinate, on and off the z1 = z2 = 0 plane
        rows = []
        for col in range(4):
            for bad in (np.nan, complex(0.0, np.nan), np.inf, -np.inf, complex(1.0, np.inf)):
                for z1 in (0.0, 0.7):
                    z = np.array([2.0 + 0.3j, z1, 0.0, -0.5 + 0.1j])
                    z[col] = bad
                    rows.append(z)
        dz = np.array([1.0, 0.5, -0.25, 2j])
        for z in rows:
            try:
                ref = n_row_klein_solve(z[None, :], dz[None, :], N)
            except SingularTruncation:
                with pytest.raises(SingularTruncation):
                    oracle._klein_solve(z[None, :], dz[None, :], N)
                continue
            assert bitwise_equal(oracle._klein_solve(z[None, :], dz[None, :], N), ref), z

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("z1", [0.0, 0.3], ids=["1x1", "N-row"])
    def test_nan_sample_raises_on_both_routes(self, monkeypatch, z1):
        # a NaN z0 in the third of four samples turned the first three NaN
        # through the stacked system's 0 * NaN, and the NaN pivot passed
        Z = np.array([[2.0, z1, 0.0, 0.5]] * 4, dtype=complex)
        Z[2, 0] = np.nan
        dZ = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)).astype(complex)
        sizes = []
        gtsv = oracle._gtsv()

        def counted(*arrays, **kw):
            sizes.append(len(arrays[1]))
            return gtsv(*arrays, **kw)

        monkeypatch.setattr(oracle, "_gtsv", lambda: counted)
        with pytest.raises(SingularTruncation):
            oracle._klein_solve(Z, dZ, 8)
        # one gtsv of 1 x 1 or of N x N blocks
        assert sizes == [4 * 4 * (1 if z1 == 0.0 else 8)]

    @pytest.mark.parametrize("N", [1, 2, 3, 32, 256])
    def test_margins_bitwise_the_full_scan(self, rng, monkeypatch, N):
        # real and complex z0 and z3, signed zeros in z1 and z2, and
        # criterion 6's samples; none of them reaches the bracket
        Z, _ = diagonal_rows(rng, 2000)
        real = Z.real.astype(complex)
        real[:, 1:3] = Z[:, 1:3]
        s = np.arange(1024) / 1024
        samples = [loop.points(s) for loop in (loops.loop_L1(), loops.loop_L2())]
        pts = np.concatenate([Z, real] + samples)
        bracket = oracle._bracket_margins

        def finite_off_plane(pts, up, out):
            assert not (np.isfinite(pts).all(axis=1) & (pts[:, 1] == 0) & (pts[:, 2] == 0)).any()
            return bracket(pts, up, out)

        monkeypatch.setattr(oracle, "_bracket_margins", finite_off_plane)
        assert bitwise_equal(margin_grid(pts, N), normal_full_scan(pts, N))


def path_generators(N):
    """The generator joining positions i and i + 1 of the path, and the one
    fixing each fixed position: J: m -> -m, K: m -> 1 - m (mod N)."""
    order = path_order(N)
    J, K = -order % N, (1 - order) % N
    edges = ["K" if K[i] == order[i + 1] else "J" if J[i] == order[i + 1] else "?"
             for i in range(N - 1)]
    loops = {i: g for i in range(N) for g, image in (("J", J), ("K", K)) if image[i] == order[i]}
    return edges, loops


class TestPathOrder:
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 33, 64])
    def test_is_a_read_only_permutation(self, N):
        order = path_order(N)
        assert np.array_equal(np.sort(order), np.arange(N))
        assert list(order[:3]) == [0, 1, -1 % N][:N]
        with pytest.raises(ValueError):
            order[0] = 1

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 33, 64])
    def test_klein_blocks_are_tridiagonal_in_path_order(self, rng, N):
        order = path_order(N)
        i, j = np.indices((N, N))
        for z in random_offspectrum_points(rng, 2) + [np.array([1.0, 0.5, -2.0, 0.5])]:
            dense = klein_blocks(z, N, KLEIN_BLOCKS)[0][:, order][:, :, order]
            assert np.all(dense[:, np.abs(i - j) > 1] == 0)
            off, diag = jacobi_blocks(z, N)
            for k in range(4):
                assert np.array_equal(dense[k].diagonal(), diag[0, k])
                assert np.array_equal(dense[k].diagonal(1), off[0, k])
                assert np.array_equal(dense[k].diagonal(-1), off[0, k])

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 33, 64])
    def test_edges_alternate_and_loops_sit_at_the_ends(self, N):
        edges, loops = path_generators(N)
        if N == 2:
            # K swaps 0 and 1; J fixes both
            assert edges == ["K"] and loops == {0: "J", 1: "J"}
            return
        assert edges == ["K" if i % 2 == 0 else "J" for i in range(N - 1)]
        assert loops == {0: "J", N - 1: "J" if N % 2 == 0 else "K"}


def dyadic_spike(m, j):
    """1 at node s = 0, 0 at the others: the m-node mean is exactly 1/m."""
    return (j == 0).astype(float)


def recorded(nodes):
    """nodes(m, j) that records each call's grid size and node indices."""
    calls = []

    def fn(m, j):
        calls.append((m, j.tolist()))
        return nodes(m, j)

    return fn, calls


def odd(m):
    return list(range(1, m, 2))


class TestRefine:
    def test_returns_first_agreeing_pair(self):
        # means 1/4, 1/8, 1/16, 1/32: the change 1/32 is the first <= 0.05
        fn, calls = recorded(dyadic_spike)
        assert refine(fn, 4, 0.05, 1024, "toy") == (1 / 16, 1 / 32)
        # all nodes of the first grid, then only the odd nodes of each new one
        assert calls == [(4, [0, 1, 2, 3]), (8, odd(8)), (16, odd(16)), (32, odd(32))]

    def test_each_mean_is_the_whole_grids_mean(self):
        # s itself at every node: the interleaved grid is arange(m) / m
        means = []

        def fn(m, j):
            means.append(m)
            return j / m

        coarse, fine = refine(fn, 8, 0.1, 1024, "toy")
        for m, mean in zip(means[-2:], (coarse, fine)):
            assert mean == (np.arange(m) / m).mean()

    def test_arrays_compare_by_largest_change(self):
        # row 0 settles at once, row 1 is the spike: 1/8 -> 1/16 is a change
        # of 1/16, the first below 0.1
        def fn(m, j):
            return np.stack([np.ones(len(j)), dyadic_spike(m, j)])

        coarse, fine = refine(fn, 4, 0.1, 1024, "toy")
        assert np.array_equal(coarse, [1.0, 1 / 8])
        assert np.array_equal(fine, [1.0, 1 / 16])

    @pytest.mark.parametrize("n_max, last", [(16, 16), (20, 32)])
    def test_no_grid_past_the_first_comparison_at_n_max(self, n_max, last):
        fn, calls = recorded(dyadic_spike)
        with pytest.raises(NonConvergent):
            refine(fn, 4, 1e-6, n_max, "toy")
        assert calls[-1][0] == last

    def test_nonconvergent_reports_change_history(self):
        with pytest.raises(NonConvergent) as exc:
            refine(dyadic_spike, 4, 1e-6, 16, "toy")
        assert str(exc.value) == (
            "toy not settled to 1e-06: changes 1.250e-01 at 8, 6.250e-02 at 16"
        )

    def test_first_grid_at_n_max_is_still_compared(self):
        fn, calls = recorded(lambda m, j: np.ones(len(j)))
        assert refine(fn, 64, 1e-6, 16, "toy") == (1.0, 1.0)
        assert calls == [(64, list(range(64))), (128, odd(128))]


class TestSymbol:
    def test_symbol_determinant_is_g_product(self, rng):
        from dinfh.spectrum import g_values

        z = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-1, 1, 4)
        thetas = np.array([0.3, 1.1, 2.9])
        M = pencil_symbol(z, thetas)
        for i, th in enumerate(thetas):
            gm, gp = g_values(tuple(z), math.cos(th))
            assert np.linalg.det(M[i]) == pytest.approx(gm * gp, rel=1e-10)

    def test_word_permutation_is_homomorphism(self):
        N = 6
        sa = word_permutation("a", N)
        st_ = word_permutation("t", N)
        stau = word_permutation("tau", N)
        ident = np.arange(4 * N)
        for s in (sa, st_, stau):
            assert np.array_equal(s[s], ident)
        assert np.array_equal(sa[stau], stau[sa])


# L1, L2, and a circle with z1*z2 != 0 and a complex centre around the
# z0 = z3 sheet
TWISTED_LOOPS = [
    loops.loop_L1(),
    loops.loop_L2(),
    loops.circle_loop([1 + 0.2j, 0.3, 0.2, 1.0], 0.8, ["z0"], name="offaxis"),
]


class TestOraclePeriods:
    def test_L1_canonical(self):
        val = oracle_period(loops.loop_L1(), N=32)[TR]
        assert val == pytest.approx(1j * math.pi, abs=1e-6)

    @pytest.mark.parametrize("steps", [16, 64])
    def test_L1_canonical_on_coarse_grids(self, steps):
        # det P turns 64 times around L1 at N = 32: a phase unwrap of
        # coarse samples aliased this to 0
        val = oracle_period(loops.loop_L1(steps), N=32)[TR]
        assert abs(val - 1j * math.pi) <= 1e-6

    def test_L1_twisted(self):
        val = oracle_period(loops.loop_L1(128), N=16)[PHI]
        assert val == pytest.approx(-2j * math.pi, abs=1e-6)

    def test_L2_twisted_vanishes(self):
        val = oracle_period(loops.loop_L2(128), N=16)[PHI]
        assert abs(val) <= 1e-6

    def test_size_cap_before_the_loop_margins(self):
        # N = 2^40 would make the margin check ask for 2^40 angles first
        with pytest.raises(TruncationTooLarge):
            oracle_period(loops.loop_L1(), N=2**40)

    def test_loop_through_spectrum_rejected(self):
        bad = loops.circle_loop([1.0, 0, 0, 1.5], 0.5, ["z0"], steps=64, name="bad")
        with pytest.raises(LoopHitsSpectrum):
            oracle_period(bad, N=8)

    def test_nan_margin_raises(self):
        # margins nan and finite: min() is NaN, which no <= comparison caught
        def guard(Z):
            margin = np.ones(len(Z))
            margin[len(Z) // 2] = np.nan
            return margin

        def form(Z, dZ):
            raise AssertionError("a grid with a NaN margin is evaluated")

        with pytest.raises(LoopHitsSpectrum, match="sample margin nan"):
            oracle.trapezoid_periods(loops.loop_L1(8), guard, form, "nan guard")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loop_raises_on_both_period_routes(self):
        loop = loops.circle_loop([np.nan, 0, 0, 1.5], 0.5, ["z0"], steps=16, name="nan")
        with pytest.raises(LoopHitsSpectrum, match="sample margin nan"):
            oracle_period(loop, N=8)
        with pytest.raises(LoopHitsSpectrum, match="sample margin nan"):
            traces.loop_period(loop)

    def test_step_cap_before_the_samples(self):
        # 2^40 steps would allocate (2^40, 4) samples first
        loop = loops.loop_L1(2**40)
        loop.fn = loop.dfn = None  # any sampling fails
        with pytest.raises(GridTooLarge, match="first grid of 1099511627776 exceeds"):
            oracle_period(loop, N=32)
        loop.steps = 2 * oracle.MAX_STEPS
        with pytest.raises(GridTooLarge):
            oracle_period(loop, N=32)

    def test_twisted_nonconvergent_at_step_cap(self, monkeypatch):
        # off the spectrum at z0 = 0 by 0.01: 16 -> 32 steps change the
        # period by ~20, so a 32-step cap must raise, not return; both
        # functionals refine together, so neither returns the first grid
        # it could unwrap
        monkeypatch.setattr(oracle, "MAX_STEPS", 32)
        near = loops.circle_loop([1.0, 0, 0, 0], 0.99, ["z0"], steps=8, name="near")
        with pytest.raises(NonConvergent, match="oracle period on near .* at 32$"):
            oracle_period(near, N=8)

    @pytest.mark.parametrize("loop", TWISTED_LOOPS, ids=lambda lp: lp.name)
    def test_twisted_matches_full_inverse_reference(self, loop):
        loop = dataclasses.replace(loop, steps=128)
        val = oracle_period(loop, N=16)[PHI]
        assert abs(val - reference_twisted_period(loop, 16)) <= 1e-12

    @pytest.mark.parametrize("loop", TWISTED_LOOPS, ids=lambda lp: lp.name)
    def test_canonical_matches_full_slogdet_reference(self, loop):
        val = oracle_period(loop, N=16)[TR]
        assert abs(val - reference_canonical_period(loop, 16)) <= 1e-12

    @staticmethod
    def assert_one_solve_per_grid(monkeypatch, loop, rows):
        # one gtsv per grid for both functionals, on all 4 S Klein blocks of
        # its S new samples end to end, each block of ``rows`` rows, solved
        # in place: 128 and 256 steps, at most KLEIN_ROWS // 4N = 256
        # samples per gtsv, and the second grid solves only its 128 new
        # samples
        calls = []
        gtsv = oracle._gtsv()

        def counted(*arrays, **kw):
            calls.append((tuple(a.shape for a in arrays), kw))
            return gtsv(*arrays, **kw)

        monkeypatch.setattr(oracle, "_gtsv", lambda: counted)
        assert set(oracle_period(loop, N=16)) == set(FunctionalKind)
        assert len(calls) == 2
        for S, (shapes, kw) in zip((128, 128), calls):
            size = 4 * S * rows
            assert shapes == ((size - 1,), (size,), (size - 1,), (size,))
            flags = ("overwrite_dl", "overwrite_d", "overwrite_du", "overwrite_b")
            assert all(kw.get(flag) for flag in flags)

    def test_one_tridiagonal_solve_per_grid(self, monkeypatch):
        # L1 lies in the z1 = z2 = 0 plane, so its blocks are 1 x 1
        self.assert_one_solve_per_grid(monkeypatch, loops.loop_L1(128), 1)

    def test_a_loop_off_the_diagonal_plane_solves_n_row_blocks(self, monkeypatch):
        self.assert_one_solve_per_grid(monkeypatch, OFF_PLANE_LOOP, 16)


# grid angles and off-grid angles
THETAS = np.concatenate([fft_angles(16), [0.3, 1.7, 2.9]])


def split_test_points(rng, count):
    """Seeded complex points well off the spectrum (by the 4x4 reference),
    cycling through z0 = z3, z0 = -z3, z1 = 0 and z2 = 0."""
    pts = []
    while len(pts) < count:
        z = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-1, 1, 4)
        case = len(pts) % 5
        if case in (1, 2):
            z[3] = z[0] if case == 1 else -z[0]
        elif case in (3, 4):
            z[case - 2] = 0.0
        sv = np.linalg.svd(pencil_symbol(z, THETAS), compute_uv=False)
        if sv.min() > 0.05:
            pts.append(z)
    return np.array(pts)


def reference_margins(pts, N, hermitian):
    M = pencil_symbol(pts, fft_angles(N))
    if hermitian:
        sv = np.abs(np.linalg.eigvalsh(M))
    else:
        sv = np.linalg.svd(M, compute_uv=False)
    return sv.reshape(len(pts), -1).min(axis=1)


class TestParitySplit:
    def test_integrands_match_4x4_solve(self, rng):
        for z in split_test_points(rng, 20):
            for word in WORDS:
                for kind in FunctionalKind:
                    fast = symbol_integrand(z, word, kind, THETAS)
                    ref = reference_integrand(z, word, kind, THETAS)
                    # relative, or absolute where the integrand vanishes
                    scale = max(np.abs(ref).max(), 1.0)
                    assert np.abs(fast - ref).max() <= 1e-10 * scale

    def test_batched_integrands_match_pointwise(self, rng):
        pts = split_test_points(rng, 6)
        for kind in FunctionalKind:
            batch = word_integrands(pts, kind, THETAS)
            for iw, word in enumerate(WORDS):
                assert batch[iw].shape == (len(pts), len(THETAS))
                for k, z in enumerate(pts):
                    assert np.array_equal(
                        batch[iw][k], symbol_integrand(z, word, kind, THETAS)
                    )

    def test_real_margins_match_eigvalsh(self, rng):
        pts = rng.uniform(-2, 2, (200, 4))
        pts[1::4, 3] = pts[1::4, 0]
        pts[2::4, 3] = -pts[2::4, 0]
        pts[3::4, 1] = 0.0
        fast = margin_grid(pts, 32)
        assert np.abs(fast - reference_margins(pts, 32, True)).max() <= 1e-13

    def test_complex_margins_match_svd(self, rng):
        pts = split_test_points(rng, 10)
        near = rng.uniform(-2, 2, (190, 4)) + 1j * rng.uniform(-1, 1, (190, 4))
        pts = np.concatenate([pts, near])
        fast = margin_grid(pts, 32)
        assert np.abs(fast - reference_margins(pts, 32, False)).max() <= 1e-13

    @pytest.mark.parametrize("N", [2, 3, 8])
    def test_margins_match_dense_svd(self, rng, N):
        for z in list(split_test_points(rng, 5)) + [rng.uniform(-2, 2, 4)]:
            assert margin_grid(z[None, :], N)[0] == pytest.approx(dense_margin(z, N), abs=1e-13)

    @pytest.mark.parametrize(
        "z",
        [
            (1.0, 0.0, 0.0, 1.0),  # B- = 0 at every angle
            (1 + 1j, 0.0, 0.0, 1 + 1j),
            (0.0, 1j, -1j, 0.0),  # both blocks vanish at theta = 0
        ],
    )
    def test_zero_block(self, z):
        margin = margin_grid(np.array([z]), 4)[0]
        assert margin == 0.0
        assert reference_margins(np.array([z]), 4, False)[0] <= 1e-15
        for kind in FunctionalKind:
            with pytest.raises(OnSpectrum):
                symbol_integrand(z, "e", kind, fft_angles(4))


# G = A - B cos(theta) with A - B = 2^-13 + 2^-30 exactly: |zeta| = 0.989
NEAR_UNIT_ZETA = (2.0 + 2.0**-15, 1.0, 1.0, 0.0)


def trapezoid_means(z, n=2**16):
    """n-node trapezoid means of 1/G, cos/G and log|G| per tau block."""
    th = fft_angles(n)
    dp, dm, w, wbar = parity_blocks(z, th)
    G = np.stack([dp * dp - w * wbar, dm * dm - w * wbar])
    return (1.0 / G).mean(-1), (np.cos(th) / G).mean(-1), np.log(np.abs(G)).mean(-1)


class TestCircleMeans:
    def test_match_fine_trapezoid(self, rng):
        # split_test_points cycles through z0 = +-z3, z1 = 0 and z2 = 0
        pts = list(split_test_points(rng, 10)) + [np.array(NEAR_UNIT_ZETA, complex)]
        _, inv, cos = circle_means(NEAR_UNIT_ZETA)
        assert 0.98 < abs(cos[0] / inv[0]) < 0.99  # zeta = (mean cos/G) / (mean 1/G)
        for z in pts:
            f, inv, cos = circle_means(z)
            ref_inv, ref_cos, ref_log = trapezoid_means(z)
            scale = max(np.abs(ref_inv).max(), 1.0)
            assert np.abs(inv - ref_inv).max() <= 1e-12 * scale
            assert np.abs(cos - ref_cos).max() <= 1e-12 * scale
            assert np.abs(np.log(np.abs(f)) - ref_log).max() <= 1e-12

    def test_batched_shape(self, rng):
        pts = split_test_points(rng, 6)
        f, inv, cos = circle_means(pts)
        assert f.shape == inv.shape == cos.shape == (2, 6)
        for k, z in enumerate(pts):
            for got, one in zip((f, inv, cos), circle_means(z)):
                assert np.array_equal(got[:, k], one)

    @pytest.mark.parametrize("z", [(1.5, 0.0, 0.7, 0.2), (1 + 1j, 0.5j, 0.0, -0.3)])
    def test_b_zero_needs_no_special_case(self, z):
        # G is constant A: f = A, zeta = 0, so mean 1/G = 1/A, mean cos/G = 0
        f, inv, cos = circle_means(z)
        z0, z1, z2, z3 = (complex(v) for v in z)
        A = np.array([(z0 + z3) ** 2, (z0 - z3) ** 2]) - z1 * z1 - z2 * z2
        assert np.allclose(f, A, rtol=1e-15, atol=0)
        assert np.allclose(inv, 1.0 / A, rtol=1e-15, atol=0)
        assert np.all(cos == 0)

    @pytest.mark.parametrize(
        "z",
        [
            (2.0, 1.0, 1.0, 0.0),  # G(0) = 0 in both blocks: |zeta| = 1
            (0.0, 1.0, 1.0, 2.0),
            (1.0, 0.0, 0.0, 1.0),  # B = 0 and A- = 0: f = 0
            (0.0, 1j, -1j, 0.0),
        ],
    )
    def test_on_spectrum(self, z):
        with pytest.raises(OnSpectrum):
            circle_means(z)


def two_abs_margin_grid(points, N, chunk=512):
    """The margin loop that took |w| once per block: ``parity_blocks`` per
    batch of 512 points (both w and wbar) and each block's sigma_min on its
    own, kept verbatim as the bitwise reference of ``margin_grid``."""

    def block_sigma_min(d, w, wbar, hermitian):
        if hermitian:
            return np.abs(np.abs(d.real) - np.abs(w))
        aw, av = np.abs(w) ** 2, np.abs(wbar) ** 2
        disc = np.hypot(aw - av, 2.0 * np.abs(np.conj(d) * w + d * np.conj(wbar)))
        smax = np.sqrt(0.5 * (2.0 * np.abs(d) ** 2 + aw + av + disc))
        det = np.abs(d * d - w * wbar)
        return np.divide(det, smax, out=np.zeros_like(det), where=smax > 0)

    pts = np.asarray(points, dtype=complex)
    hermitian = np.all(pts.imag == 0.0)
    th = fft_angles(N)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), chunk):
        hi = lo + chunk
        dp, dm, w, wbar = parity_blocks(pts[lo:hi], th)
        sv = [block_sigma_min(d, w, wbar, hermitian).min(axis=1) for d in (dp, dm)]
        out[lo:hi] = np.minimum(*sv)
    return out


def with_special_rows(pts):
    """Every fifth row from the second on gets z1 = 0, z2 = 0, z0 = z3 or
    z0 = -z3 in turn."""
    pts = np.array(pts)
    pts[1::20, 1] = 0.0
    pts[6::20, 2] = 0.0
    pts[11::20, 3] = pts[11::20, 0]
    pts[16::20, 3] = -pts[16::20, 0]
    return pts


class TestMarginGridBitwise:
    """margin_grid takes |w| once per batch of MARGIN_CHUNK and forms no wbar
    for real points; the arithmetic is that of the reference loop, so the
    bits are too."""

    @staticmethod
    def assert_bitwise(pts, N):
        got, ref = margin_grid(pts, N), two_abs_margin_grid(pts, N)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("N", [2, 3, 32, 256])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 10_000])
    def test_real_batches(self, rng, n, N):
        pts = with_special_rows(rng.uniform(-2.0, 2.0, (n, 4)))
        self.assert_bitwise(pts.astype(complex), N)

    def test_criterion_1_points(self):
        # the points and truncation size of acceptance criterion 1 at seed 1
        pts = np.random.default_rng([1, 1]).uniform(-2.0, 2.0, size=(10_000, 4))
        self.assert_bitwise(pts.astype(complex), 256)

    @pytest.mark.parametrize("N", [2, 3, 32, 256])
    def test_complex_batch(self, rng, N):
        pts = rng.uniform(-2, 2, (300, 4)) + 1j * rng.uniform(-1, 1, (300, 4))
        pts = np.concatenate([with_special_rows(pts), split_test_points(rng, 10)])
        self.assert_bitwise(pts, N)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("N", [3, 32, 256])
    def test_every_row_is_its_own_one_row_call(self, rng, N):
        # real rows, rows with complex z0 or z3 only, rows with complex z1 or
        # z2, and non-finite rows of each kind, in one batch
        real = with_special_rows(rng.uniform(-2.0, 2.0, (150, 4))).astype(complex)
        normal = real_z1_z2_rows(rng, 150)
        cplx = with_special_rows(rng.uniform(-2, 2, (150, 4)) + 1j * rng.uniform(-1, 1, (150, 4)))
        pts = np.concatenate([real, normal, cplx, non_finite_rows(rng)])
        pts = pts[rng.permutation(len(pts))]
        got = margin_grid(pts, N)
        one = np.array([margin_grid(z[None, :], N)[0] for z in pts])
        assert np.array_equal(got.view(np.uint64), one.view(np.uint64))
        # a row's route is its own: the real rows have the bits of an all-real
        # batch, the rows with complex z1 or z2 those of the 2x2 closed form
        # (two_abs_margin_grid routes a whole batch)
        for rows in (np.all(pts.imag == 0, axis=1), pts[:, 1:3].imag.any(axis=1)):
            ref = two_abs_margin_grid(pts[rows], N)
            assert np.array_equal(got[rows].view(np.uint64), ref.view(np.uint64))


def real_z1_z2_rows(rng, count):
    """Rows with complex z0 and z3 but real z1 and z2, with special rows
    (z1 = 0, z2 = 0, z0 = z3, z0 = -z3, z1 = z2 = 0) and real z0 or z3."""
    pts = rng.uniform(-2.0, 2.0, (count, 4)) + 1j * rng.uniform(-1.0, 1.0, (count, 4))
    pts = with_special_rows(pts)
    pts[:, 1:3] = pts[:, 1:3].real
    pts[3::20, 1:3] = 0.0
    pts[8::20, 0] = pts[8::20, 0].real
    pts[13::20, 3] = pts[13::20, 3].real
    return pts


def non_finite_rows(rng):
    """Rows with a NaN or inf coordinate: all real, with complex z0 or z3
    only, and with complex z1 or z2, a NaN or inf real or imaginary part at
    each coordinate."""
    rows = []
    for kind in range(3):
        for bad in (np.nan, np.inf, -np.inf):
            for col in range(4):
                for imag in (False, True):
                    z = rng.uniform(-2.0, 2.0, 4).astype(complex)
                    if kind == 1:
                        z[[0, 3]] += 1j * rng.uniform(-1.0, 1.0, 2)
                    elif kind == 2:
                        z += 1j * rng.uniform(-1.0, 1.0, 4)
                    z[col] = complex(z[col].real, bad) if imag else complex(bad, z[col].imag)
                    rows.append(z)
    return np.array(rows)


def normal_full_scan(pts, N):
    """The margins of rows with real z1 and z2 from every grid angle:
    hypot(min_k ||Re d| - |w_k||, Im d) per block, w_k = z1 up_k + z2 with
    margin_grid's arithmetic, and the smaller of the two blocks."""
    pts = np.asarray(pts, dtype=complex)
    up = np.exp(1j * fft_angles(N))
    z0, z1, z2, z3 = (pts[:, i, None] for i in range(4))
    aw = np.abs(z1 * up + z2)
    blocks = (z0 + z3, z0 - z3)
    sv = [np.hypot(np.abs(np.abs(d.real) - aw).min(axis=1), d[:, 0].imag) for d in blocks]
    return np.minimum(*sv)


class TestRealZ1Z2Rows:
    """Rows with real z1 and z2 have normal blocks d I + H, H Hermitian,
    whatever z0 and z3: they take the bracket and the full scan of real
    points, with hypot(., Im d) per block after the minimum."""

    @pytest.mark.parametrize("N", [2, 3, 8, 32])
    def test_match_svd(self, rng, N):
        L1, L2 = loops.loop_L1(), loops.loop_L2()
        samples = [lp.points(np.arange(64) / 64) for lp in (L1, L2)]
        pts = np.concatenate([real_z1_z2_rows(rng, 200)] + samples)
        assert np.count_nonzero(pts[:, 1] * pts[:, 2] == 0) >= 130
        got = margin_grid(pts, N)
        ref = reference_margins(pts, N, False)
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        assert np.all(got[-128:] > 0.05)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 33, 1024, 4096])
    def test_bracket_bitwise_the_full_scan(self, rng, N):
        # z1 = z2 = 0 (signed zeros, and NaN or inf in z0 or z3) gives w = 0
        # at every angle, so those rows are bracketed whatever N
        axis = rng.uniform(-2.0, 2.0, (16, 4)).astype(complex)
        axis[:, 1:3] = np.where(rng.random((16, 2)) < 0.5, 0.0, -0.0)
        axis[np.arange(12, 16), [0, 3, 3, 0]] = [np.nan, np.inf, -np.inf, np.nan]
        pts = np.concatenate([bracket_test_rows(rng, N), axis])
        # complex z0 and z3 on the finite rows, keeping |Re(z0 +- z3)|; the
        # bracket decides by the real parts alone
        finite = np.isfinite(pts).all(axis=1)
        pts[finite, 0] += 1j * rng.uniform(-1.0, 1.0, finite.sum()) * np.abs(pts[finite, 0])
        pts[finite, 3] += 1j * rng.uniform(-1.0, 1.0, finite.sum())
        up = np.exp(1j * fft_angles(N))
        part = np.empty(len(pts))
        left = oracle._bracket_margins(pts, up, part)
        real = oracle._bracket_margins(pts.real.astype(complex), up, np.empty(len(pts)))
        assert np.array_equal(left, real) and 0 < len(left)
        assert len(left) < len(pts) - len(axis) or N == 1
        assert not np.isin(np.arange(len(pts) - len(axis), len(pts)), left).any()
        ref = normal_full_scan(pts, N)
        got = margin_grid(pts, N)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        done = np.setdiff1d(np.arange(len(pts)), left)
        assert np.array_equal(part[done].view(np.uint64), ref[done].view(np.uint64))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("N", [1, 3, 32])
    def test_non_finite_rows_as_one_row_batches(self, rng, N):
        # a non-finite row takes the route a batch of its own took: the
        # real-point scan if it is all real, else the 2x2 closed form
        pts = non_finite_rows(rng)
        got = margin_grid(pts, N)
        ref = np.array([two_abs_margin_grid(z[None, :], N)[0] for z in pts])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_loop_samples_take_no_2x2_form(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a row with real z1 and z2 took the 2x2 closed form")

        monkeypatch.setattr(oracle, "_block_sigma_min", refused)
        for loop in (loops.loop_L1(), loops.loop_L2()):
            margin_grid(loop.points(np.arange(512) / 512), 32)


def bracket_test_rows(rng, N):
    """Real rows for the bracket of margin_grid, a few of each kind: random;
    |z0 +- z3| equal to a grid |w| (computed with margin_grid's arithmetic)
    or outside [min |w|, max |w|]; z1 z2 scaled by 1e-9, or by 1e-15 with
    |z0| at a grid |w|; scaled to +-1e150; z1 z2 = 0; NaN and inf
    coordinates."""
    rows = [rng.uniform(-2.0, 2.0, (40, 4))]
    up = np.exp(1j * fft_angles(N))
    on = rng.uniform(-2.0, 2.0, (40, 4))
    k = rng.integers(0, N, 40)
    grid_w = np.abs(on[:, 1].astype(complex) * up[k] + on[:, 2].astype(complex))
    # z3 = 0 (both blocks at a grid |w|), z0 = z3 (block + only), z0 = -z3
    on[0::3, 0], on[0::3, 3] = grid_w[0::3] * np.sign(on[0::3, 0]), 0.0
    on[1::3, 0] = on[1::3, 3] = 0.5 * grid_w[1::3]
    on[2::3, 0], on[2::3, 3] = 0.5 * grid_w[2::3], -0.5 * grid_w[2::3]
    rows.append(on)
    outside = rng.uniform(-2.0, 2.0, (20, 4))
    reach = np.abs(outside[:, 1]) + np.abs(outside[:, 2])
    outside[:10, 0], outside[:10, 3] = 3.0 * reach[:10], 0.0
    outside[10:, 1] = outside[10:, 2] * rng.uniform(0.5, 0.9, 10)
    outside[10:, 0] = outside[10:, 3] = 0.01 * np.abs(outside[10:, 2] - outside[10:, 1])
    rows.append(outside)
    tiny = rng.uniform(-2.0, 2.0, (30, 4))
    tiny[:10, 1] *= 1e-9
    tiny[10:20, 2] *= -1e-9
    # |w| flat to roundoff, with a at one of its values
    tiny[20:, 2] *= 1e-15
    tiny[20:, 0] = np.abs(tiny[20:, 1].astype(complex) * up[k[:10]] + tiny[20:, 2])
    tiny[20:, 3] = 0.0
    rows.append(tiny)
    big = rng.uniform(-2.0, 2.0, (20, 4))
    rows.append(big * np.where(np.arange(20) % 2 == 0, 1e150, -1e150)[:, None])
    rows.append(with_special_rows(rng.uniform(-2.0, 2.0, (20, 4))))
    bad = rng.uniform(-2.0, 2.0, (12, 4))
    bad[np.arange(12), np.arange(12) % 4] = [np.nan, np.inf, -np.inf] * 4
    rows.append(bad)
    return np.concatenate(rows).astype(complex)


class TestMarginBracket:
    """The bracket of real points evaluates at most 12 angles per point and
    must return the full scan's bits (``two_abs_margin_grid``) whatever the
    row; rows it cannot bracket go to the full scan."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 33, 1024, 4096])
    def test_bitwise_the_full_scan(self, rng, N):
        pts = bracket_test_rows(rng, N)
        got, ref = margin_grid(pts, N), two_abs_margin_grid(pts, N)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("N", [2, 256, 4096])
    def test_gap_decides_the_full_scan(self, rng, N):
        pts = bracket_test_rows(rng, N)
        left = oracle._bracket_margins(pts, np.exp(1j * fft_angles(N)), np.empty(len(pts)))
        x1, x2 = pts[:, 1].real, pts[:, 2].real
        gap = np.abs(2.0 * x1 * x2) * (1.0 - np.cos(2.0 * np.pi / N))
        roundoff = oracle._BRACKET_ROUNDOFF * np.finfo(float).eps * (x1 * x1 + x2 * x2)
        # no row of these overflows c*, so the finite rows with a step above
        # the roundoff are bracketed, and z1 z2 = 0 and NaN or inf rows are not
        bracketed = np.isfinite(pts.real).all(axis=1) & (gap > roundoff)
        assert np.array_equal(left, np.flatnonzero(~bracketed))
        assert 0 < len(left) < len(pts)

    def test_several_chunks_with_rows_left_to_the_full_scan(self, rng):
        # a chunk of the bracket holds MARGIN_CHUNK * N // 12 points
        N = 32
        pts = rng.uniform(-2.0, 2.0, (3 * oracle.MARGIN_CHUNK * N // 12 + 5, 4)).astype(complex)
        pts[::97, 1] = 0.0
        got, ref = margin_grid(pts, N), two_abs_margin_grid(pts, N)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_criterion_1_allocates_no_points_by_angles_array(self):
        n, N = 10_000, 256
        pts = np.random.default_rng([1, 1]).uniform(-2.0, 2.0, size=(n, 4)).astype(complex)
        tracemalloc.start()
        try:
            margin_grid(pts, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (n, N) float array would be 20 MB.  A chunk's complex (points,
        # 12) arrays are each the size of one (MARGIN_CHUNK, N), 512 KiB, and
        # peak at 2.1 MB together; unchunked they peak at 5.2 MB
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("N", [0, -4])
    def test_size_below_one_is_a_value_error(self, N):
        with pytest.raises(ValueError, match=f"N={N}"):
            margin_grid(np.array([P], dtype=complex), N)
        with pytest.raises(ValueError, match=f"N={N}"):
            membership_margin(P, N)

    def test_oracle_trace_checks_the_size_before_chunking(self):
        with pytest.raises(ValueError, match="at least 2"):
            oracle_trace(P, "e", 0)
