import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dinfh.group import (
    GEN_A,
    GEN_T,
    GEN_TAU,
    GEN_U,
    IDENTITY,
    AlgebraElement,
    FunctionalKind,
    GroupElement,
    algebra_mul,
    algebra_star,
    canonical_trace,
    generator_product,
    inv,
    invert_scalar_plus_tau,
    mul,
    parse_word,
    phi_trace,
)

group_elements = st.builds(
    GroupElement,
    k=st.integers(-8, 8),
    t_flag=st.integers(0, 1),
    tau_flag=st.integers(0, 1),
)

coeffs = st.sampled_from([1.0, -1.0, 0.5, 2.0j, 1.0 + 1.0j, -0.75j, 1.5])

algebra_elements = st.dictionaries(group_elements, coeffs, max_size=4).map(
    AlgebraElement
)


# An independent model: t^d u^k acts on Z by m -> (-1)^d (m + k), tau is a
# separate sign flag.  Composing maps left-to-right cross-checks `mul`.
def _affine(g):
    def act(m, flag):
        return ((-1) ** g.t_flag) * (m + g.k), flag ^ g.tau_flag

    return act


def _compose(f, g):
    return lambda m, flag: f(*g(m, flag))


class TestMul:
    def test_t_squared_is_identity(self):
        assert mul(GEN_T, GEN_T) == IDENTITY

    def test_shift_past_t(self):
        # u * t = t * u^(-1)
        assert mul(GEN_U, GEN_T) == GroupElement(k=-1, t_flag=1)

    def test_tau_central_powers(self):
        g = GroupElement(k=2, tau_flag=1)
        h = GroupElement(k=3, tau_flag=1)
        assert mul(g, h) == GroupElement(k=5)

    def test_generator_relations(self):
        for g in (GEN_A, GEN_T, GEN_TAU):
            assert mul(g, g) == IDENTITY
        assert mul(GEN_A, GEN_TAU) == mul(GEN_TAU, GEN_A)
        assert mul(GEN_T, GEN_TAU) == mul(GEN_TAU, GEN_T)

    def test_a_times_t_is_u(self):
        assert mul(GEN_A, GEN_T) == GEN_U

    @given(st.lists(st.sampled_from([GEN_A, GEN_T, GEN_TAU, GEN_U]), max_size=8))
    def test_against_affine_model(self, word):
        g = IDENTITY
        act = _affine(IDENTITY)
        for w in word:
            g = mul(g, w)
            act = _compose(act, _affine(w))
        expect = _affine(g)
        for m in (-3, 0, 7):
            assert act(m, 0) == expect(m, 0)
            assert act(m, 1) == expect(m, 1)


class TestGeneratorProduct:
    @given(st.lists(st.integers(0, 2), max_size=12))
    def test_is_the_mul_fold(self, indices):
        g = IDENTITY
        for i in indices:
            g = mul(g, (GEN_A, GEN_T, GEN_TAU)[i])
        assert generator_product(indices) == g

    def test_generators(self):
        assert generator_product([]) == IDENTITY
        assert [generator_product([i]) for i in range(3)] == [GEN_A, GEN_T, GEN_TAU]
        assert generator_product([0, 1]) == GEN_U

    @pytest.mark.parametrize("bad", [3, -1])
    def test_unknown_index_raises(self, bad):
        with pytest.raises(ValueError, match="generator index"):
            generator_product([0, bad])


class TestInv:
    def test_identity(self):
        assert inv(IDENTITY) == IDENTITY

    def test_pure_shift(self):
        assert inv(GroupElement(k=5)) == GroupElement(k=-5)

    def test_flagged_element_is_involution(self):
        g = GroupElement(k=3, t_flag=1, tau_flag=1)
        assert inv(g) == g
        assert mul(g, g) == IDENTITY

    @given(group_elements)
    def test_left_right(self, g):
        assert mul(g, inv(g)) == IDENTITY
        assert mul(inv(g), g) == IDENTITY

    @given(group_elements, group_elements)
    def test_antihomomorphism(self, g, h):
        assert inv(mul(g, h)) == mul(inv(h), inv(g))


class TestAlgebra:
    def test_identity_times_a(self):
        e = AlgebraElement({IDENTITY: 1.0})
        a = AlgebraElement({GEN_A: 1.0})
        assert algebra_mul(e, a) == a

    def test_a_plus_t_squared(self):
        f = AlgebraElement({GEN_A: 1.0, GEN_T: 1.0})
        expect = AlgebraElement({IDENTITY: 2.0, GEN_U: 1.0, inv(GEN_U): 1.0})
        assert algebra_mul(f, f) == expect

    def test_tau_squared(self):
        tau = AlgebraElement({GEN_TAU: 1.0})
        assert algebra_mul(tau, tau) == AlgebraElement({IDENTITY: 1.0})

    def test_star_conjugates(self):
        f = AlgebraElement({IDENTITY: 2 + 3j})
        assert algebra_star(f) == AlgebraElement({IDENTITY: 2 - 3j})

    def test_star_inverts(self):
        f = AlgebraElement({GEN_U: 1j})
        assert algebra_star(f) == AlgebraElement({inv(GEN_U): -1j})

    @given(algebra_elements, algebra_elements)
    def test_star_antihomomorphism(self, f, g):
        lhs = algebra_star(algebra_mul(f, g))
        rhs = algebra_mul(algebra_star(g), algebra_star(f))
        assert lhs == rhs

    @given(algebra_elements)
    def test_star_involution(self, f):
        assert algebra_star(algebra_star(f)) == f


class TestFunctionals:
    def test_canonical_trace_examples(self):
        assert canonical_trace(AlgebraElement({IDENTITY: 1.0})) == 1.0
        assert canonical_trace(AlgebraElement({GEN_A: 1.0})) == 0.0
        f = AlgebraElement({GEN_A: 1.0, GEN_T: 1.0})
        assert canonical_trace(algebra_mul(f, f)) == pytest.approx(2.0)

    def test_phi_examples(self):
        assert phi_trace(AlgebraElement({IDENTITY: 1.0})) == -1.0
        assert phi_trace(AlgebraElement({GEN_TAU: 1.0})) == 1.0
        assert phi_trace(AlgebraElement({GEN_A: 1.0})) == 0.0

    @given(algebra_elements, algebra_elements)
    def test_centrality(self, f, g):
        fg = algebra_mul(f, g)
        gf = algebra_mul(g, f)
        assert canonical_trace(fg) == pytest.approx(canonical_trace(gf), abs=1e-9)
        assert phi_trace(fg) == pytest.approx(phi_trace(gf), abs=1e-9)

    @given(algebra_elements)
    def test_canonical_trace_positivity(self, f):
        val = canonical_trace(algebra_mul(algebra_star(f), f))
        assert abs(val.imag) < 1e-9
        assert val.real >= -1e-9

    def test_phi_is_not_positive(self):
        e = AlgebraElement({IDENTITY: 1.0})
        assert phi_trace(algebra_mul(algebra_star(e), e)).real == -1.0

    def test_invert_scalar_plus_tau(self):
        f = AlgebraElement({IDENTITY: 2.0, GEN_TAU: 1.0})
        finv = invert_scalar_plus_tau(f)
        assert algebra_mul(f, finv) == AlgebraElement({IDENTITY: 1.0})
        tau = AlgebraElement({GEN_TAU: 1.0})
        assert canonical_trace(algebra_mul(finv, tau)) == pytest.approx(-1 / 3)

    def test_coerce_takes_only_the_two_tags(self):
        assert FunctionalKind.coerce("TR") is FunctionalKind.CANONICAL_TRACE
        assert FunctionalKind.coerce("phitr") is FunctionalKind.PHI_TENSOR_TRACE
        kind = FunctionalKind.PHI_TENSOR_TRACE
        assert FunctionalKind.coerce(kind) is kind
        with pytest.raises(ValueError, match="unknown functional 'phi'"):
            FunctionalKind.coerce("phi")


class TestParser:
    def test_word_with_whitespace(self):
        g = parse_word("aTt a")
        expect = mul(mul(mul(GEN_A, GEN_TAU), GEN_T), GEN_A)
        assert g == expect

    def test_identity_token(self):
        assert parse_word("e") == IDENTITY

    def test_rejects_unknown_letters(self):
        with pytest.raises(ValueError):
            parse_word("axt")

    @given(group_elements)
    def test_str_roundtrip(self, g):
        assert parse_word(str(g)) == g
