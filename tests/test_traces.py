import math

import numpy as np
import pytest

from dinfh import loops, oracle, traces
from dinfh.errors import (
    GridTooLarge,
    LoopHitsSpectrum,
    NonConvergent,
    NotDegenerate,
    OnSpectrum,
)
from dinfh.group import FunctionalKind
from dinfh.oracle import MAX_STEPS, WORDS
from dinfh.spectrum import as_point, membership_grid
from dinfh.traces import (
    MAX_NODES,
    QUAD_TARGET,
    QUANTA,
    PeriodReport,
    TraceRequest,
    class_independence,
    closedness_residual,
    integrand_phitr,
    integrand_tr,
    integrand_tr_degenerate,
    loop_coefficients,
    loop_period,
    potential_gradient,
    potential_tr,
    trace_coefficients,
    trace_quadrature,
)
from test_oracle import NEAR_UNIT_ZETA, split_test_points

TR, PHI = FunctionalKind.CANONICAL_TRACE, FunctionalKind.PHI_TENSOR_TRACE
# the row of each functional in loop_coefficients
ROW = {"tr": 0, "phitr": 1}

P = (1.0, 8.0, 4.0, 2.0)
Q = (2.0, 0.0, 0.0, 1.0)

TRUE_MIXED = 752 / (2145 * math.sqrt(2145))
TABULATED_MIXED = 14872 / (45045 * math.sqrt(105)) - 7896 / (45045 * math.sqrt(2145))


def reference_potential(z, n_nodes=256, max_nodes=2**17):
    """The unwrap-and-double route potential_tr replaced: the mean of
    log(G^- G^+) on n nodes with its argument unwrapped along the grid from
    the principal branch at theta = 0; a grid too coarse to unwrap (a phase
    step >= pi/2) is doubled without a comparison, and nodes double until
    two grids agree to 1e-12."""
    z = as_point(z)

    def value_at(n):
        _, _, _, gm, gp = traces._parts(z, oracle.fft_angles(n))
        values = gm * gp
        steps = np.angle(values[1:] / values[:-1])
        if np.abs(steps).max() >= np.pi / 2:
            return None
        args = np.angle(values[0]) + np.concatenate(([0.0], np.cumsum(steps)))
        return 0.25 * complex(np.mean(np.log(np.abs(values)) + 1j * args))

    n, coarse = max(4, n_nodes), None
    while n <= max_nodes:
        fine = value_at(n)
        if fine is not None:
            if coarse is not None and abs(fine - coarse) <= 1e-12:
                return fine
            coarse = fine
        n *= 2
    raise NonConvergent(f"reference potential not settled at {max_nodes} nodes")


def fine_trapezoid_coefficients(z, functional, n=2**16):
    """The four coefficients as n-node trapezoid means of the integrands."""
    vals = oracle.word_integrands(z, functional, oracle.fft_angles(n))
    return np.array([v.mean(-1) for v in vals])


class TestTabulatedIntegrands:
    def test_identity_resolvent(self):
        for th in (0.0, 1.3):
            assert integrand_tr((1, 0, 0, 0), "e", th) == pytest.approx(1.0)

    def test_e_integrand_at_p(self):
        for th in (0.4, 2.0):
            c = math.cos(th)
            expect = -(83 + 64 * c) / ((79 + 64 * c) * (71 + 64 * c))
            assert integrand_tr(P, "e", th) == pytest.approx(expect)

    def test_tau_entry_keeps_tabulated_value(self):
        # the defective entry: +1/3 pointwise, against the exact -1/3
        for th in (0.0, 0.9, 2.8):
            assert integrand_tr(Q, "tau", th) == pytest.approx(1 / 3)

    def test_on_spectrum_raises(self):
        with pytest.raises(OnSpectrum):
            integrand_tr((0, 1, 1, 2), "e", 0.0)  # theta = 0 is the zero of G

    def test_degenerate_e_entry(self):
        for th in (0.0, 1.0):
            assert integrand_tr_degenerate((1, 0, 0, 1), "e", th) == pytest.approx(
                -0.5
            )

    def test_degenerate_a_entry(self):
        for th in (0.2, 2.2):
            assert integrand_tr_degenerate((1, 1, 0, 1), "a", th) == pytest.approx(
                1 / 3
            )

    def test_degenerate_a_t_coincide_for_equal_couplings(self):
        z = (1.0, 0.1, 0.1, 1.0)
        for th in (0.5, 1.7):
            va = integrand_tr_degenerate(z, "a", th)
            vt = integrand_tr_degenerate(z, "t", th)
            assert va == pytest.approx(vt)

    def test_not_degenerate_raises(self):
        with pytest.raises(NotDegenerate):
            integrand_tr_degenerate(Q, "e", 0.0)

    def test_phitr_a_at_p(self):
        for th in (0.4, 2.6):
            c = math.cos(th)
            assert integrand_phitr(P, "a", th) == pytest.approx(
                (8 + 4 * c) / (-(79 + 64 * c))
            )

    def test_phitr_e_tabulated_disagrees_with_exact(self):
        # quadrature of the tabulated form gives -1/3; the exact value is -1
        val = trace_quadrature(TraceRequest(Q, "phitr", "e", 64), formula="tabulated")
        assert val == pytest.approx(-1 / 3)
        adjudicated = trace_quadrature(TraceRequest(Q, "phitr", "e", 64))
        assert adjudicated == pytest.approx(-1.0)


class TestQuadrature:
    def test_identity_point(self):
        assert trace_quadrature(TraceRequest((1, 0, 0, 0), "tr", "e", 8)) == (
            pytest.approx(1.0)
        )
        assert trace_quadrature(TraceRequest((1, 0, 0, 0), "phitr", "e", 8)) == (
            pytest.approx(-1.0)
        )

    def test_canonical_e_at_p(self):
        expect = 0.5 / math.sqrt(2145) - 1.5 / math.sqrt(945)
        val = trace_quadrature(TraceRequest(P, "tr", "e", 256))
        assert val == pytest.approx(expect, abs=1e-10)
        assert val == pytest.approx(oracle.oracle_trace(P, "e", 256), abs=1e-10)

    def test_twisted_a_at_p(self):
        expect = -(1 / 16 + 49 / (16 * math.sqrt(2145)))
        val = trace_quadrature(TraceRequest(P, "phitr", "a", 256))
        assert val == pytest.approx(expect, abs=1e-10)

    def test_tau_adjudicated(self):
        val = trace_quadrature(TraceRequest(Q, "tr", "tau", 64))
        assert val == pytest.approx(-1 / 3)

    def test_degenerate_points_agree_with_oracle(self):
        # z0 = +-z3: the symbol quadrature must match the truncation
        for z in ((1.0, 0.5, 0.0, 1.0), (1.0, 1.0, 0.25, -1.0)):
            for word in ("e", "a", "t", "tau"):
                quad = trace_quadrature(TraceRequest(z, "tr", word, 128))
                orc = oracle.oracle_trace(z, word, 256)
                assert quad == pytest.approx(orc, abs=1e-7)

    def test_tabulated_degenerate_weight_defect(self):
        # the tabulated e entry integrates to -2x the oracle value
        z = (1.0, 0.5, 0.0, 1.0)
        tab = trace_quadrature(TraceRequest(z, "tr", "e", 128), formula="tabulated")
        orc = oracle.oracle_trace(z, "e", 128)
        assert tab == pytest.approx(-2 * orc, abs=1e-9)

    def test_on_spectrum_node(self):
        with pytest.raises(OnSpectrum):
            trace_quadrature(TraceRequest((1, 1, 0, 0), "tr", "e", 16))

    def test_nonconvergent_near_spectrum(self):
        # root at x = 1 + 2e-9, just outside the closed form's 1e-9 band: the
        # integrand is analytic but with a singularity so close to the node
        # set that 2^14 nodes cannot settle
        z0 = math.sqrt(4.0 + 4e-9)
        with pytest.raises(NonConvergent):
            trace_quadrature(TraceRequest((z0, 1.0, 1.0, 0.0), "tr", "e", 16))

    def test_nonconvergent_above_target_at_max_nodes(self, monkeypatch):
        # nearest root x = 1 + 1.5e-4: 1024 -> 2048 nodes change the value by
        # 1.0e-9, above the 1e-10 target, so a 2048-node cap must not return
        z = (math.sqrt(4.0 + 6e-4), 1.0, 1.0, 0.0)
        req = TraceRequest(z, "tr", "e", 16)
        with monkeypatch.context() as m:
            m.setattr(traces, "MAX_NODES", 2048)
            with pytest.raises(NonConvergent):
                trace_quadrature(req)
        exact = z[0] / math.sqrt((z[0] ** 2 - 2.0) ** 2 - 4.0)
        assert trace_quadrature(req) == pytest.approx(exact, abs=1e-10)

    def test_rejects_odd_nodes(self):
        with pytest.raises(ValueError):
            TraceRequest(P, "tr", "e", 15)


# nearest root x = 1 + 1.5e-4: the trapezoid rule settles only at 4096 nodes
SLOW = (math.sqrt(4.0 + 6e-4), 1.0, 1.0, 0.0)


def count_word_integrands(monkeypatch):
    """Record the grid size of every oracle.word_integrands call."""
    sizes = []
    original = oracle.word_integrands

    def counting(Z, functional, thetas):
        sizes.append(len(thetas))
        return original(Z, functional, thetas)

    monkeypatch.setattr(oracle, "word_integrands", counting)
    return sizes


class TestTraceCoefficients:
    @pytest.mark.parametrize("formula", ["symbol", "tabulated"])
    @pytest.mark.parametrize("functional", [TR, PHI])
    @pytest.mark.parametrize(
        "z",
        [P, Q, (1.0, 0.5, 0.0, 1.0), SLOW, (1 + 0.5j, 0.7, -0.3j, 0.2)],
        ids=["p", "q", "degenerate", "slow", "complex"],
    )
    def test_match_each_words_own_quadrature(self, z, functional, formula):
        # the coupled stop refines every word at least as far as its own
        coeff = trace_coefficients(z, functional, 16, formula)
        for word, c in zip(WORDS, coeff):
            own = trace_quadrature(TraceRequest(z, functional, word, 16), formula)
            assert abs(c - own) <= QUAD_TARGET

    def test_one_word_integrands_call_per_grid(self, monkeypatch):
        sizes = count_word_integrands(monkeypatch)
        trace_coefficients(SLOW, TR, 16)
        assert len(sizes) >= 4
        # 16 nodes, then the 16, 32, 64, ... new nodes of 32, 64, 128, ...
        assert sizes == [16] + [16 * 2**k for k in range(len(sizes) - 1)]

    @pytest.mark.parametrize("formula", ["symbol", "tabulated"])
    def test_on_spectrum_node(self, formula):
        with pytest.raises(OnSpectrum):
            trace_coefficients((1, 1, 0, 0), TR, 16, formula)

    def test_nonconvergent_above_target_at_max_nodes(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(traces, "MAX_NODES", 2048)
            with pytest.raises(NonConvergent):
                trace_coefficients(SLOW, TR, 16)
        exact = SLOW[0] / math.sqrt((SLOW[0] ** 2 - 2.0) ** 2 - 4.0)
        assert trace_coefficients(SLOW, TR, 16)[0] == pytest.approx(exact, abs=1e-10)

    def test_first_grid_above_the_cap(self, monkeypatch):
        sizes = count_word_integrands(monkeypatch)
        with pytest.raises(GridTooLarge):
            trace_coefficients(P, TR, 2 * MAX_NODES)
        with pytest.raises(GridTooLarge):
            trace_quadrature(TraceRequest(P, TR, "e", 2 * MAX_NODES))
        assert sizes == []
        # a first grid at the cap still runs
        trace_quadrature(TraceRequest(P, TR, "e", MAX_NODES))
        assert sizes == [MAX_NODES, MAX_NODES]

    @pytest.mark.parametrize("formula", ["symbol", "tabulated"])
    @pytest.mark.parametrize(
        "z",
        # poles between the nodes (margin 0), and a root at x = 1 + 5e-11,
        # inside the closed form's 1e-9 band
        [(0.3, 1.1, -0.7, 0.2), (math.sqrt(4.0 + 2e-10), 1.0, 1.0, 0.0)],
        ids=["between-nodes", "inside-band"],
    )
    def test_point_in_the_spectrum_raises_before_any_grid(self, monkeypatch, z, formula):
        # no node grid is evaluated: at the first point the nodes miss the
        # poles, so the grids would double to MAX_NODES
        assert membership_grid(np.array([z], dtype=complex))[1][0]
        grids = []
        monkeypatch.setattr(traces, "_integrands", lambda *a: grids.append(a))
        for functional in (TR, PHI):
            with pytest.raises(OnSpectrum):
                trace_coefficients(z, functional, 256, formula)
            with pytest.raises(OnSpectrum):
                trace_quadrature(TraceRequest(z, functional, "a", 256), formula)
        assert grids == []


# closed-form margin 5.0e-8, above the 1e-9 loop guard; the nearest root
# x = 1 + 5e-8 makes the trapezoid rule need ~6e4 nodes
NEAR = (math.sqrt(4.0 + 2e-7), 1.0, 1.0, 0.0)
# (1/2pi) int z0 / (z0^2 - 2 - 2 cos) = z0 / sqrt((z0^2 - 2)^2 - 4)
# = 1 / sqrt(z0^2 - 4), factored so that no square cancels
NEAR_TR_E = 1.0 / math.sqrt((NEAR[0] - 2.0) * (NEAR[0] + 2.0))


class TestNearSpectrum:
    def test_loop_coefficients_are_exact(self):
        # a 4096-node trapezoid gives 3088.7 against the true 2236.07
        coeffs = loop_coefficients(np.array([NEAR], dtype=complex))[0]
        assert coeffs[0, 0] == pytest.approx(NEAR_TR_E, rel=1e-12)

    def test_fine_grid_reaches_the_closed_form(self):
        vals = oracle.symbol_integrand(NEAR, "e", "tr", oracle.fft_angles(2**16))
        assert vals.mean() == pytest.approx(NEAR_TR_E, rel=1e-6)

    def test_potential_matches_the_fine_reference(self):
        assert potential_tr(NEAR) == pytest.approx(reference_potential(NEAR), abs=1e-12)


class TestClosedForm:
    @pytest.mark.parametrize("functional", ["tr", "phitr"])
    def test_coefficients_match_fine_trapezoid(self, rng, functional):
        # z0 = +-z3, z1 = 0, z2 = 0 (z1 z2 = 0) and |zeta| = 0.989
        pts = np.concatenate([split_test_points(rng, 10), [NEAR_UNIT_ZETA]])
        both = loop_coefficients(pts)
        assert both.shape == (2, len(pts), 4)
        coeffs = both[ROW[functional]]
        for z, row in zip(pts, coeffs):
            ref = fine_trapezoid_coefficients(z, functional)
            assert np.abs(row - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)

    def test_match_dense_oracle_at_p(self):
        # |zeta| <= 0.63 at P: the N = 128 truncation is exact to |zeta|^N < 1e-25
        tr, phi = loop_coefficients(np.array([P], dtype=complex))[:, 0]
        for i, word in enumerate(oracle.WORDS):
            assert tr[i] == pytest.approx(oracle.oracle_trace(P, word, 128), abs=1e-14)
            assert phi[i] == pytest.approx(oracle.oracle_phitr(P, word, 128), abs=1e-14)

    @pytest.mark.parametrize("z", [(2, 1, 1, 0), (0, 1, 1, 2)])
    def test_on_spectrum_raises(self, z):
        with pytest.raises(OnSpectrum):
            loop_coefficients(np.array([z], dtype=complex))
        with pytest.raises(OnSpectrum):
            potential_tr(z)

    def test_potential_matches_reference(self, rng):
        real = rng.uniform(-2, 2, (40, 4))
        real = real[membership_grid(real.astype(complex))[0] > 0.05][:12]
        pts = list(real) + list(split_test_points(rng, 12)) + [(0.2, 1.5, 0.7, 0.1)]
        for z in pts:
            assert potential_tr(z) == pytest.approx(reference_potential(z), abs=1e-12)


class TestPotential:
    def test_identity_point(self):
        assert potential_tr((1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_theta_independent_logs(self):
        assert potential_tr(Q) == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_gradient_matches_coefficients_at_p(self, monkeypatch):
        monkeypatch.setattr(traces, "FD_STEP", 1e-5)
        grad = potential_gradient(P)
        coeff = trace_coefficients(P, FunctionalKind.CANONICAL_TRACE)
        assert np.abs(grad - coeff).max() <= 1e-8

    def test_gradient_with_negative_symbols(self, monkeypatch):
        # G^- < 0 on part of the circle: exercises the log branch
        monkeypatch.setattr(traces, "FD_STEP", 1e-5)
        z = (0.2, 1.5, 0.7, 0.1)
        from dinfh.spectrum import membership

        assert not membership(z).in_spectrum
        grad = potential_gradient(z)
        coeff = trace_coefficients(z, FunctionalKind.CANONICAL_TRACE)
        assert np.abs(grad - coeff).max() <= 1e-6


class TestClosedness:
    def test_canonical_at_p(self):
        res = closedness_residual(P, FunctionalKind.CANONICAL_TRACE)
        assert res.max() <= 1e-6

    def test_twisted_adjudicated_at_p(self):
        res = closedness_residual(P, FunctionalKind.PHI_TENSOR_TRACE)
        assert res.max() <= 1e-6

    def test_twisted_tabulated_is_not_closed(self):
        res = closedness_residual(P, FunctionalKind.PHI_TENSOR_TRACE, formula="tabulated")
        expect = abs(TABULATED_MIXED - TRUE_MIXED)
        assert res[0, 1] == pytest.approx(expect, abs=1e-4)


class TestPeriods:
    def test_L1_canonical(self):
        rep = loop_period(loops.loop_L1())[TR]
        assert rep.value == pytest.approx(1j * math.pi, abs=1e-9)
        assert rep.nearest_multiple == 2
        assert rep.residual <= 1e-6

    def test_L1_twisted(self):
        rep = loop_period(loops.loop_L1())[PHI]
        assert rep.value == pytest.approx(-2j * math.pi, abs=1e-9)
        assert rep.nearest_multiple == -2

    def test_L2_periods(self):
        rep_tr, rep_phi = loop_period(loops.loop_L2()).values()
        assert rep_tr.value == pytest.approx(1j * math.pi, abs=1e-9)
        assert abs(rep_phi.value) <= 1e-9
        assert rep_phi.nearest_multiple == 0

    @pytest.mark.parametrize("functional", ["tr", "phitr"])
    def test_both_periods_take_the_richardson_step(self, monkeypatch, functional):
        # a scripted (coarse, fine) pair per functional: returning the fine
        # grid alone (4.0, 8.0) or the coarse one (1.0, 2.0) instead of the
        # step fails here, and so does a swap of the functionals
        def scripted(nodes, n, target, n_max, what, nested=True):
            return np.array([1.0, 2.0]), np.array([4.0, 8.0])

        monkeypatch.setattr(oracle, "refine", scripted)
        assert oracle.richardson(1.0, 4.0) == 5.0
        kind = FunctionalKind.coerce(functional)
        expect = 5.0 if kind is TR else 10.0
        assert oracle.oracle_period(loops.loop_L1(), N=8)[kind] == expect
        assert loop_period(loops.loop_L1())[kind].value == expect

    def test_report_schema(self):
        rep = loop_period(loops.loop_L1(), steps=64)[TR]
        js = rep.to_json()
        assert set(js) == {
            "loop",
            "functional",
            "value_re",
            "value_im",
            "quantum_im",
            "nearest",
            "residual",
        }
        assert js["functional"] == "Tr"
        assert js["quantum_im"] == pytest.approx(math.pi / 2)

    def test_loop_through_spectrum_rejected(self):
        bad = loops.circle_loop([1.0, 0, 0, 1.5], 0.5, ["z0"], name="bad")
        with pytest.raises(LoopHitsSpectrum):
            loop_period(bad, steps=64)

    def test_step_cap_before_the_samples(self):
        loop = loops.loop_L1()
        loop.fn = None  # any sampling fails
        with pytest.raises(GridTooLarge, match="period on L1: first grid"):
            loop_period(loop, steps=2 * MAX_STEPS)

    def test_nonconvergent_at_step_cap(self, monkeypatch):
        # off the spectrum at z0 = 0 by 0.01: 16 -> 32 steps change the
        # period by ~20, so a 32-step cap must raise, not return (the cap
        # lives with the driver both routes share)
        monkeypatch.setattr(oracle, "MAX_STEPS", 32)
        near = loops.circle_loop([1.0, 0, 0, 0], 0.99, ["z0"], steps=8, name="near")
        with pytest.raises(NonConvergent, match="period on near .* at 32$"):
            loop_period(near)

    def test_one_circle_means_call_per_grid(self, monkeypatch):
        # both functionals' coefficients come from one circle_means call on
        # each grid's new samples: 512 steps on L1, then the 512 new ones of
        # the 1024-step grid
        calls = []
        circle_means = oracle.circle_means

        def counted(Z):
            calls.append(len(Z))
            return circle_means(Z)

        monkeypatch.setattr(oracle, "circle_means", counted)
        reps = loop_period(loops.loop_L1())
        assert set(reps) == set(FunctionalKind)
        assert calls == [512, 512]

    def test_quanta(self):
        assert QUANTA[FunctionalKind.CANONICAL_TRACE] == 0.5j * math.pi
        assert QUANTA[FunctionalKind.PHI_TENSOR_TRACE] == 1j * math.pi

    @pytest.mark.parametrize(
        "kind, multiple",
        [(FunctionalKind.CANONICAL_TRACE, -3), (FunctionalKind.PHI_TENSOR_TRACE, 2)],
    )
    def test_report_quantizes_a_value(self, kind, multiple):
        value = multiple * QUANTA[kind] + 2e-7 - 1e-7j
        rep = PeriodReport(value, kind, "given")
        assert rep.quantum == QUANTA[kind]
        assert rep.nearest_multiple == multiple
        assert rep.residual == pytest.approx(math.hypot(2e-7, 1e-7), rel=1e-6)
        assert rep.to_json()["loop"] == "given"


class TestReferenceLoops:
    """L1 and L2 are the closed forms of the loops module docstring."""

    @pytest.mark.parametrize("steps", [8, 16, 512, 1024, 4096])
    @pytest.mark.parametrize("name, sign", [("L1", -1), ("L2", 1)])
    def test_samples_and_derivatives_are_the_closed_forms(self, name, sign, steps):
        loop = loops.NAMED_LOOPS[name](steps)
        assert loop.name == name and loop.steps == steps
        w = np.exp(2j * np.pi * np.arange(steps + 1) / steps)
        z = np.zeros((steps + 1, 4), dtype=complex)
        z[:, 0] = (3.0 + w) / 2.0
        z[:, 3] = (3.0 - w) / 2.0 if sign < 0 else (w - 3.0) / 2.0
        np.testing.assert_array_equal(loop.samples(), z)
        dz = np.zeros((steps, 4), dtype=complex)
        dz[:, 0] = 1j * np.pi * w[:-1]
        dz[:, 3] = sign * dz[:, 0]
        np.testing.assert_array_equal(loop.derivatives(), dz)


class TestIndependence:
    def test_reference_loops(self):
        out = class_independence([loops.loop_L1(), loops.loop_L2()])
        assert out["integer_matrix"] == [[2, 2], [-2, 0]]
        assert out["rank"] == 2
        assert out["residuals"].max() <= 1e-6

    def test_duplicate_loop(self):
        out = class_independence([loops.loop_L1(steps=64), loops.loop_L1(steps=64)])
        assert out["rank"] == 1

    def test_single_loop(self):
        out = class_independence([loops.loop_L2(steps=64)])
        assert out["rank"] == 1


# ---------------------------------------------------------------------------
# stacked potential gradient and coefficients against the per-point code


def per_point_potential_tr(z) -> complex:
    """potential_tr as it was before it took stacks, kept verbatim as the
    bitwise reference: Python complex arithmetic for G(0) at one point."""
    z = as_point(z)
    f, _, _ = oracle.circle_means(z.as_array())
    _, _, _, gm0, gp0 = traces._parts(z, 0.0)
    arg = np.angle(gm0 * gp0) + np.angle(f / np.array([gp0, gm0])).sum()
    return complex(0.25 * np.log(np.abs(f)).sum(), 0.25 * arg)


def per_point_potential_gradient(z) -> np.ndarray:
    """potential_gradient as it was before it took stacks: eight
    potential_tr calls through central_difference."""
    z = as_point(z).as_array()
    return np.array(
        [traces.central_difference(per_point_potential_tr, z, i, traces.FD_STEP) for i in range(4)]
    )


def per_point_integrands(z, functional, words, thetas, formula):
    """_integrands as it was before it took stacks, at one PencilPoint."""
    _, _, _, gm, gp = traces._parts(z, thetas)
    traces._require_offspectrum(z, (gm, gp), "trace_quadrature")
    if formula == "symbol":
        rows = oracle.word_integrands(z.as_array(), functional, thetas)
        vals = [rows[WORDS.index(w)] for w in words]
    elif formula == "tabulated":
        if functional is FunctionalKind.PHI_TENSOR_TRACE:
            integrand = integrand_phitr
        elif traces.is_degenerate(z):
            integrand = integrand_tr_degenerate
        else:
            integrand = integrand_tr
        vals = [integrand(z, w, thetas) for w in words]
    else:
        raise ValueError(f"unknown formula {formula!r}")
    return np.array(vals, dtype=complex)


def per_point_trace_coefficients(z, functional, n_nodes=256, formula="symbol"):
    """trace_coefficients as it was before it took stacks: one refine per
    point, stopped on that point's four words alone."""
    req = TraceRequest(z, functional, WORDS[0], n_nodes)
    if membership_grid(req.z.as_array()[None, :])[1][0]:
        raise OnSpectrum("quadrature: the point is in the spectrum")
    return oracle.refine(
        lambda n, j: per_point_integrands(
            req.z, req.functional, WORDS, oracle.fft_angles(n, j), formula
        ),
        req.n_nodes,
        QUAD_TARGET,
        MAX_NODES,
        "quadrature",
    )[1]


def criterion_3_points(seed):
    """The 21 points of acceptance criterion 3 at ``seed``."""
    from dinfh import acceptance
    from dinfh.config import RunConfig

    rng = acceptance._rng(RunConfig(seed=seed), 3)
    return np.concatenate([[P], acceptance._random_resolvent_points(rng, 20, 3.0, 0.1)])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def count_integrands(monkeypatch):
    """Record the stack size and new node count of every _integrands call."""
    calls = []
    original = traces._integrands

    def counting(Z, functional, words, thetas, formula):
        calls.append((len(Z), len(thetas)))
        return original(Z, functional, words, thetas, formula)

    monkeypatch.setattr(traces, "_integrands", counting)
    return calls


class TestStacks:
    @pytest.mark.parametrize("seed", [1, 2, 11, "default"])
    def test_criterion_3_points_match_the_per_point_code(self, seed):
        from dinfh.config import DEFAULT_SEED

        pts = criterion_3_points(DEFAULT_SEED if seed == "default" else seed)
        assert same_bits(
            potential_gradient(pts), [per_point_potential_gradient(z) for z in pts]
        )
        assert same_bits(
            trace_coefficients(pts, TR), [per_point_trace_coefficients(z, TR) for z in pts]
        )
        assert same_bits(
            [potential_tr(z) for z in pts], [per_point_potential_tr(z) for z in pts]
        )

    def test_criterion_3_takes_one_integrands_call_per_grid(self, monkeypatch):
        calls = count_integrands(monkeypatch)
        trace_coefficients(criterion_3_points(11), TR)
        # every row settles on 256 nodes, then the 256 new ones of 512
        assert calls == [(21, 256), (21, 256)]

    def test_one_point_is_the_one_row_stack(self):
        pts = np.array([P, (0.2, 1.5, 0.7, 0.1), (1 + 0.5j, 0.7, -0.3j, 0.2)], dtype=complex)
        for z in pts:
            assert same_bits(potential_gradient(z), potential_gradient(z[None, :])[0])
            assert same_bits(trace_coefficients(z, TR), trace_coefficients(z[None, :], TR)[0])
            assert potential_gradient(z).shape == trace_coefficients(z, PHI).shape == (4,)
        assert same_bits(trace_coefficients(as_point(P), TR), trace_coefficients(P, TR))

    @pytest.mark.parametrize("formula", ["symbol", "tabulated"])
    def test_a_point_in_the_spectrum_raises_before_the_first_grid(self, monkeypatch, formula):
        pts = np.insert(criterion_3_points(1), 7, (0.3, 1.1, -0.7, 0.2), axis=0)
        calls = count_integrands(monkeypatch)
        with pytest.raises(OnSpectrum):
            trace_coefficients(pts, TR, 256, formula)
        assert calls == []
        with pytest.raises(OnSpectrum):
            potential_gradient(np.insert(criterion_3_points(1), 7, (0, 1, 1, 2), axis=0))

    @pytest.mark.parametrize("formula", ["symbol", "tabulated"])
    def test_rows_on_different_grids_land_within_target_of_their_own(
        self, monkeypatch, formula
    ):
        # P settles on 16 + 16 nodes alone, SLOW only at 4096: the coupled
        # stop carries P on to SLOW's grid
        pts = np.array([P, SLOW, Q])
        calls = count_integrands(monkeypatch)
        got = trace_coefficients(pts, TR, 16, formula)
        assert calls == [(3, 16)] + [(3, 16 * 2**k) for k in range(len(calls) - 1)]
        for z, row in zip(pts, got):
            own = per_point_trace_coefficients(z, TR, 16, formula)
            assert np.abs(row - own).max() <= QUAD_TARGET
        # the slowest row stops where it stops alone, bit for bit
        assert same_bits(got[1], per_point_trace_coefficients(SLOW, TR, 16, formula))

    @pytest.mark.parametrize("shape", [(0, 4), (3, 3), (2, 2, 4)])
    def test_other_shapes_are_rejected(self, shape):
        with pytest.raises(ValueError, match="points must be one point or an"):
            trace_coefficients(np.ones(shape), TR)
        with pytest.raises(ValueError, match="points must be one point or an"):
            potential_gradient(np.ones(shape))
