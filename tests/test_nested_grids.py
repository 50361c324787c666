"""Nested refinement grids against the full-grid reference.

Each doubled grid evaluates only its new (odd) nodes and keeps the values
of the last grid.  The reference below is the refinement that evaluated every
node of every grid; the nested one must give the same bits.
"""

import dataclasses
import math

import numpy as np
import pytest

from dinfh import loops, oracle, selfsim, traces
from dinfh.errors import LoopHitsSpectrum, NonConvergent
from dinfh.group import FunctionalKind
from dinfh.oracle import WORDS, fft_angles, margin_grid, oracle_period, richardson
from dinfh.spectrum import membership_grid
from dinfh.traces import TraceRequest, loop_period, trace_coefficients

TR, PHI = FunctionalKind.CANONICAL_TRACE, FunctionalKind.PHI_TENSOR_TRACE


# ---------------------------------------------------------------------------
# the full-grid reference: every grid evaluates all of its nodes


def full_grid_refine(fn, n, target, n_max, what):
    """fn(n), fn(2n), ... (the mean of every node of each grid) until two
    consecutive grids agree."""
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


def full_grid_periods(loop, guard, form, what):
    loop.check()

    def value_at(nsteps):
        s = np.arange(nsteps) / nsteps
        Z = loop.points(s)
        margin = guard(Z).min()
        if margin <= 1e-9:
            raise LoopHitsSpectrum(f"{what}: sample margin {margin:.3e}")
        return form(Z, np.asarray(loop.dfn(s), dtype=complex)).mean(axis=-1)

    coarse, fine = full_grid_refine(
        value_at, loop.steps, oracle.PERIOD_TARGET, oracle.MAX_STEPS, what
    )
    return {
        kind: richardson(complex(c), complex(f))
        for kind, c, f in zip(FunctionalKind, coarse, fine)
    }


def full_grid_oracle_period(loop, N):
    return full_grid_periods(
        loop,
        lambda Z: margin_grid(Z, N),
        lambda Z, dZ: oracle._klein_form(Z, dZ, N),
        f"oracle period on {loop.name} at N={N}",
    )


def full_grid_loop_period(loop):
    return full_grid_periods(
        loop,
        lambda Z: membership_grid(Z)[0],
        lambda Z, dZ: (traces.loop_coefficients(Z) * dZ).sum(axis=-1),
        f"period on {loop.name}",
    )


def full_grid_means(z, functional, words, n, formula):
    """Each word's np.mean over all n nodes, one word at a time."""
    thetas = fft_angles(n)
    if formula == "symbol":
        rows = oracle.word_integrands(z.as_array(), functional, thetas)
        vals = [rows[WORDS.index(w)] for w in words]
    elif functional is PHI:
        vals = [traces.integrand_phitr(z, w, thetas) for w in words]
    elif traces.is_degenerate(z):
        vals = [traces.integrand_tr_degenerate(z, w, thetas) for w in words]
    else:
        vals = [traces.integrand_tr(z, w, thetas) for w in words]
    return np.array([np.mean(v) for v in vals], dtype=complex)


def full_grid_coefficients(z, functional, n_nodes, formula):
    req = TraceRequest(z, functional, WORDS[0], n_nodes)
    return full_grid_refine(
        lambda n: full_grid_means(req.z, req.functional, WORDS, n, formula),
        n_nodes,
        traces.QUAD_TARGET,
        traces.MAX_NODES,
        "quadrature",
    )[1]


def same_bits(a, b):
    a, b = (np.atleast_1d(np.asarray(v, dtype=complex)) for v in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# L1, L2, a circle with z1*z2 != 0 and a complex centre, and criterion 7's
# loops at seed 7
LOOPS = [
    loops.loop_L1(),
    loops.loop_L2(),
    loops.circle_loop([1 + 0.2j, 0.3, 0.2, 1.0], 0.8, ["z0"], name="offaxis"),
] + loops.random_axis_loops(7, 10)


def first_grid(loop, steps):
    """The loop with a first grid of ``steps`` steps (None keeps its own)."""
    return loop if steps is None else dataclasses.replace(loop, steps=steps)


class TestPeriodsMatchFullGrids:
    @pytest.mark.parametrize("loop", LOOPS[:3], ids=lambda lp: lp.name)
    @pytest.mark.parametrize("N, steps", [(32, None), (16, 128), (5, 64)])
    def test_oracle(self, loop, N, steps):
        loop = first_grid(loop, steps)
        got = oracle_period(loop, N=N)
        ref = full_grid_oracle_period(loop, N)
        assert all(same_bits(got[kind], ref[kind]) for kind in FunctionalKind)

    @pytest.mark.parametrize("loop", LOOPS, ids=lambda lp: lp.name)
    @pytest.mark.parametrize("steps", [None, 8, 100])
    def test_analytic(self, loop, steps):
        loop = first_grid(loop, steps)
        got = loop_period(loop)
        ref = full_grid_loop_period(loop)
        assert all(same_bits(got[kind].value, ref[kind]) for kind in FunctionalKind)

    def test_nonconvergent_history(self, monkeypatch):
        # 16 -> 32 steps change the period by ~20 near z0 = 0
        monkeypatch.setattr(oracle, "MAX_STEPS", 32)
        near = loops.circle_loop([1.0, 0, 0, 0], 0.99, ["z0"], steps=8, name="near")
        for nested, full in (
            (lambda: oracle_period(near, N=8), lambda: full_grid_oracle_period(near, 8)),
            (lambda: loop_period(near), lambda: full_grid_loop_period(near)),
        ):
            with pytest.raises(NonConvergent) as got:
                nested()
            with pytest.raises(NonConvergent) as ref:
                full()
            assert str(got.value) == str(ref.value)
            # both comparisons, at 16 and at 32 steps
            assert str(got.value).endswith(" at 32") and " at 16, " in str(got.value)


# nearest root x = 1 + 1.5e-4: the trapezoid rule settles only at 4096 nodes
SLOW = (math.sqrt(4.0 + 6e-4), 1.0, 1.0, 0.0)


class TestQuadratureMatchesFullGrids:
    @pytest.mark.parametrize("formula", ["symbol", "tabulated"])
    @pytest.mark.parametrize("functional", [TR, PHI])
    @pytest.mark.parametrize(
        "z",
        [(1.0, 8.0, 4.0, 2.0), (2.0, 0.0, 0.0, 1.0), (1.0, 0.5, 0.0, 1.0), SLOW,
         (1 + 0.5j, 0.7, -0.3j, 0.2)],
        ids=["p", "q", "degenerate", "slow", "complex"],
    )
    @pytest.mark.parametrize("n_nodes", [16, 256, 100])
    def test_trace_coefficients(self, z, functional, formula, n_nodes):
        got = trace_coefficients(z, functional, n_nodes, formula)
        assert same_bits(got, full_grid_coefficients(z, functional, n_nodes, formula))

    def test_nonconvergent_history(self, monkeypatch):
        monkeypatch.setattr(traces, "MAX_NODES", 2048)
        with pytest.raises(NonConvergent) as got:
            trace_coefficients(SLOW, TR, 16)
        with pytest.raises(NonConvergent) as ref:
            full_grid_coefficients(SLOW, TR, 16, "symbol")
        assert str(got.value) == str(ref.value)


class TestGuardOnNewSamples:
    # z3 sits on the circle at s = 1/16: a node of the 16-step grid only,
    # 0.39 radii from every sample of the 8-step grid
    CENTRE, RADIUS = 1.0 + 0.5j, 0.5
    HIT = CENTRE + RADIUS * complex(math.cos(math.pi / 8), math.sin(math.pi / 8))

    def loop(self):
        return loops.circle_loop(
            [self.CENTRE, 0, 0, self.HIT], self.RADIUS, ["z0"], steps=8, name="odd-hit"
        )

    def test_first_grid_clears_the_spectrum(self):
        Z = self.loop().points(np.arange(8) / 8)
        assert margin_grid(Z, 8).min() > 0.1
        assert membership_grid(Z)[0].min() > 1e-2

    def test_oracle_period_raises_on_the_odd_sample(self, monkeypatch):
        sizes = []

        def guard(Z, N):
            sizes.append(len(Z))
            return margin_grid(Z, N)

        monkeypatch.setattr(oracle, "margin_grid", guard)
        with pytest.raises(LoopHitsSpectrum, match="oracle period on odd-hit"):
            oracle_period(self.loop(), N=8)
        # the second grid guards only its 8 new samples
        assert sizes == [8, 8]

    def test_loop_period_raises_on_the_odd_sample(self):
        with pytest.raises(LoopHitsSpectrum, match="period on odd-hit"):
            loop_period(self.loop())


def klein_points(rng, count):
    Z = rng.uniform(-2, 2, (count, 4)) + 1j * rng.uniform(-1, 1, (count, 4))
    dZ = rng.normal(size=(count, 4)) + 1j * rng.normal(size=(count, 4))
    return Z, dZ


class TestChunkedKleinForm:
    @pytest.mark.parametrize("N", [2, 5, 8, 33])
    @pytest.mark.parametrize("rows", [1, 3 * 4 * 8, 7 * 4 * 5])
    def test_chunks_equal_one_solve(self, monkeypatch, rng, N, rows):
        Z, dZ = klein_points(rng, 23)
        whole = oracle._klein_form(Z, dZ, N)
        monkeypatch.setattr(oracle, "KLEIN_ROWS", rows)
        sizes = []
        gtsv = oracle._gtsv()

        def counted(*arrays, **kw):
            sizes.append(len(arrays[1]))
            return gtsv(*arrays, **kw)

        monkeypatch.setattr(oracle, "_gtsv", lambda: counted)
        chunked = oracle._klein_form(Z, dZ, N)
        assert same_bits(chunked, whole)
        # max(1, rows // 4N) samples per gtsv; the last chunk takes the rest
        per = max(1, rows // (4 * N))
        assert len(sizes) == -(-23 // per) > 1
        assert sizes[:-1] == [4 * N * per] * (len(sizes) - 1)
        assert sum(sizes) == 4 * N * 23

    def test_default_chunk_bound(self, monkeypatch):
        # the 4-sample chunks of N = 1024 keep each solve at 2^14 rows
        sizes = []
        gtsv = oracle._gtsv()

        def counted(*arrays, **kw):
            sizes.append(len(arrays[1]))
            return gtsv(*arrays, **kw)

        monkeypatch.setattr(oracle, "_gtsv", lambda: counted)
        Z, dZ = klein_points(np.random.default_rng(3), 10)
        Z[:, 0] += 6.0  # well off the spectrum
        oracle._klein_form(Z, dZ, 1024)
        assert sizes == [oracle.KLEIN_ROWS] * 2 + [4 * 1024 * 2]


class TestStackedLevelEigs:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_equal_pencil_level_eigs(self, rng, n):
        # batch independence: each row of one m-pencil solve is that pencil's
        # own pencil_level_eigs, bit for bit
        coeffs = rng.uniform(-2, 2, (6, 3))
        coeffs[1] = (1.0, 1.0, 0.5)
        coeffs[2, 1] = 0.0
        groups = selfsim._level_eigs(coeffs, n)
        for i, row in enumerate(coeffs):
            eigs = [np.repeat(lam[i], counts, axis=0).ravel() for lam, counts in groups]
            one = selfsim.pencil_level_eigs(*row, n)
            assert np.array_equal(np.sort(np.concatenate(eigs)).view(np.uint64), one.view(np.uint64))

    @pytest.mark.parametrize("tol", [1e-8, 1e-15])
    @pytest.mark.parametrize("n", range(0, 7))
    def test_count_violations_sums_validation(self, rng, n, tol):
        # tol = 1e-15 makes violations, so the counts are not all 0
        coeffs = rng.uniform(-2, 2, (8, 3))
        coeffs[0] = (1.0, 0.0, 0.0)
        expected = sum(
            len(selfsim.validate_eigs_in_spectrum(*row, n, tol=tol)["violations"])
            for row in coeffs
        )
        assert selfsim.count_violations(coeffs, n, tol=tol) == expected
