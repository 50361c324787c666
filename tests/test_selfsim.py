import numpy as np
import pytest

from dinfh import selfsim
from dinfh.errors import LevelTooLarge, UnpairedOrbit
from dinfh.group import (
    GEN_A,
    GEN_T,
    GEN_TAU,
    GEN_U,
    IDENTITY,
    GroupElement,
    mul,
)
from dinfh.selfsim import (
    MAX_LEVEL,
    TreeAction,
    WreathElement,
    act_on_word,
    coverage_gap,
    eigenvalue_csv_lines,
    generator_wreath,
    level_matrix,
    pencil_level_eigs,
    spectrum_slice_intervals,
    validate_eigs_in_spectrum,
    wreath_mul,
)
from dinfh.spectrum import PencilPoint, membership_grid
from test_spectrum import reference_membership

GENS = {"a": GEN_A, "t": GEN_T, "tau": GEN_TAU}


# ---------------------------------------------------------------------------
# test-side references: the dense level-n pencil and the scalar loops that
# validate_eigs_in_spectrum and coverage_gap replaced


def alt_tau_action():
    """The alternative automaton tau = sigma(tau, tau): it generates the same
    group as tau = sigma but is a different permutation of the tree."""
    action = TreeAction()
    action._gen["tau"] = WreathElement((2, 3, 0, 1), (GEN_TAU,) * 4)
    return action


def reference_level_vector(action, g, n):
    """The recursion level_matrix replaced, unreduced and uncached: g's own
    wreath decomposition at every level, whatever its k."""
    if n == 0:
        vec = np.zeros(1, dtype=np.int64)
    else:
        wr = action.wreath_of(g)
        block = 4 ** (n - 1)
        vec = np.empty(4**n, dtype=np.int64)
        for x in range(4):
            sub = reference_level_vector(action, wr.restrictions[x], n - 1)
            vec[x * block : (x + 1) * block] = wr.perm[x] * block + sub
    return vec


class TauAsAction(TreeAction):
    """Level vectors in which tau acts at level n as the element tau_at(n)
    of <a, t>, and a and t as in the automaton."""

    def __init__(self, tau_at):
        super().__init__()
        self._tau_at = tau_at

    def level_matrix(self, g, n):
        if g == GEN_TAU:
            return super().level_matrix(self._tau_at(n), n)
        return super().level_matrix(g, n)


def pencil_level_matrix(z1, z2, z3, n, action=selfsim._DEFAULT_ACTION):
    """Dense symmetric matrix z1*M(a) + z2*M(t) + z3*M(tau) at level n."""
    size = 4**n
    M = np.zeros((size, size))
    cols = np.arange(size)
    for coeff, gen in ((z1, GEN_A), (z2, GEN_T), (z3, GEN_TAU)):
        M[action.level_matrix(gen, n), cols] += coeff
    return M


def reference_level_eigs(z1, z2, z3, n):
    """The route pencil_level_eigs replaced: every orbit of <a, t, tau>
    (2^(n+1) leaves, a tau-pair of <a, t>-orbits) is built as a block with
    the z3 entries and factored, and the orbit bookkeeping is redone per
    call."""
    vecs = [selfsim._DEFAULT_ACTION.level_matrix(g, n) for g in (GEN_A, GEN_T, GEN_TAU)]
    labels = selfsim.orbit_labels(vecs)
    # leaves grouped by orbit; local[i] is leaf i's index inside its block
    order = np.argsort(labels, kind="stable")
    _, start, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    local = np.empty_like(order)
    local[order] = np.arange(len(order)) - np.repeat(start, sizes)
    eigs = []
    for s in np.unique(sizes):
        # (k, s): the leaves of the k orbits of size s, block by block
        leaves = order[start[sizes == s][:, None] + np.arange(s)]
        blocks = np.zeros((len(leaves), s, s))
        k, cols = np.ogrid[: len(leaves), :s]
        for coeff, vec in zip((z1, z2, z3), vecs):
            blocks[k, local[vec[leaves]], cols] += coeff
        eigs.append(np.linalg.eigvalsh(blocks).ravel())
    return np.sort(np.concatenate(eigs))


def scalar_validation(z1, z2, z3, n, tol=1e-8):
    violations = []
    max_margin = 0.0
    for lam in pencil_level_eigs(z1, z2, z3, n):
        res = reference_membership(PencilPoint(-lam, z1, z2, z3), tol=tol)
        max_margin = max(max_margin, res.margin)
        if not res.in_spectrum:
            violations.append({"eigenvalue": float(lam), "margin": res.margin})
    return {"violations": violations, "max_margin": max_margin}


def reference_validation(z1, z2, z3, n, tol=1e-8):
    """The grid check validate_eigs_in_spectrum replaced: every one of the
    4^n eigenvalues goes through membership_grid."""
    eigs = pencil_level_eigs(z1, z2, z3, n)
    points = np.empty((len(eigs), 4), dtype=complex)
    points[:, 0] = -eigs
    points[:, 1:] = (z1, z2, z3)
    margin, inside = membership_grid(points, tol=tol)
    violations = [
        {"eigenvalue": float(lam), "margin": float(m)}
        for lam, m in zip(eigs[~inside], margin[~inside])
    ]
    return {"violations": violations, "max_margin": float(margin.max())}


def scalar_coverage_gap(z1, z2, z3, n):
    eigs = np.sort(pencil_level_eigs(z1, z2, z3, n))

    def dist(y):
        i = np.searchsorted(eigs, y)
        best = np.inf
        if i < len(eigs):
            best = min(best, abs(eigs[i] - y))
        if i > 0:
            best = min(best, abs(y - eigs[i - 1]))
        return float(best)

    gap = 0.0
    for lo, hi in spectrum_slice_intervals(z1, z2, z3):
        candidates = [lo, hi]
        inside = eigs[(eigs > lo) & (eigs < hi)]
        if len(inside) > 1:
            candidates.extend(0.5 * (inside[1:] + inside[:-1]))
        for y in candidates:
            gap = max(gap, dist(float(y)))
    return gap


def seeded_pencils(rng, count):
    """Seeded (z1, z2, z3), one coefficient zeroed in every third."""
    out = []
    for i in range(count):
        z = rng.uniform(-2, 2, 3)
        if i % 3 == 0:
            z[i % 9 // 3] = 0.0
        out.append(tuple(float(v) for v in z))
    return out


# ---------------------------------------------------------------------------
# independent model: fold the defining binary-tree automata of the two
# product factors over generator *words* (never normal forms), with the
# letter pairing  letter = x + 2*y.  Elementary transitions:
#   a:   x -> 1 - x, restriction = empty word
#   t:   x -> x,     restriction = [a] at x = 0, [t] at x = 1
#   tau: y -> 1 - y, restriction = empty word


def _letter_step(gen, x):
    if gen == "a":
        return 1 - x, []
    if gen == "t":
        return x, (["a"] if x == 0 else ["t"])
    raise AssertionError(gen)


def _word_step(word, x):
    # (g1 .. gm)(x ...) applies gm first; (g h)|_x = g|_{h(x)} . h|_x
    restriction = []
    for gen in reversed(word):
        x, r = _letter_step(gen, x)
        restriction = r + restriction
    return x, restriction


def _binary_act(word, stream):
    out = []
    for x in stream:
        y, word = _word_step(word, x)
        out.append(y)
    return out


def _product_act(gen_word, word4):
    xs = [int(w) % 2 for w in word4]
    ys = [int(w) // 2 for w in word4]
    dihedral = [g for g in gen_word if g in ("a", "t")]
    n_tau = sum(1 for g in gen_word if g == "tau")
    xs2 = _binary_act(dihedral, xs)
    ys2 = list(ys)
    if n_tau % 2 and ys2:
        ys2[0] = 1 - ys2[0]
    return tuple(x + 2 * y for x, y in zip(xs2, ys2))


class TestWreath:
    def test_generator_a(self):
        wr = generator_wreath("a")
        assert wr.perm == (1, 0, 3, 2)
        assert all(r.is_identity() for r in wr.restrictions)

    def test_generator_t(self):
        wr = generator_wreath("t")
        assert wr.perm == (0, 1, 2, 3)
        assert wr.restrictions == (GEN_A, GEN_T, GEN_A, GEN_T)

    def test_generator_tau(self):
        wr = generator_wreath("tau")
        assert wr.perm == (2, 3, 0, 1)
        assert all(r.is_identity() for r in wr.restrictions)

    def test_a_squares_to_identity(self):
        wr = generator_wreath("a")
        assert wreath_mul(wr, wr).is_identity()

    def test_tau_times_a(self):
        prod = wreath_mul(generator_wreath("tau"), generator_wreath("a"))
        assert prod.perm == (3, 2, 1, 0)
        assert all(r.is_identity() for r in prod.restrictions)

    def test_t_squares_to_identity_deep(self):
        wr = generator_wreath("t")
        sq = wreath_mul(wr, wr)
        assert sq.is_identity()
        for depth in range(1, 6):
            word = (0, 1, 2, 3, 0)[:depth]
            assert act_on_word(mul(GEN_T, GEN_T), word) == tuple(word)


class TestAction:
    def test_a_moves_first_letter(self):
        assert act_on_word(GEN_A, (0, 2, 1)) == (1, 2, 1)
        assert act_on_word(GEN_A, "021") == (1, 2, 1)

    def test_tau_moves_first_letter(self):
        assert act_on_word(GEN_TAU, (0, 2)) == (2, 2)

    def test_t_acts_through_restriction(self):
        assert act_on_word(GEN_T, (0, 0)) == (0, 1)

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            act_on_word(GEN_A, (0, 4))

    def test_against_product_model(self, rng):
        names = ["a", "t", "tau"]
        for _ in range(60):
            gen_word = [names[i] for i in rng.integers(0, 3, size=rng.integers(1, 8))]
            g = IDENTITY
            for s in gen_word:
                g = mul(g, GENS[s])
            word = tuple(int(x) for x in rng.integers(0, 4, size=rng.integers(1, 6)))
            assert act_on_word(g, word) == _product_act(gen_word, word)


class TestLevelMatrix:
    def test_a_level_1(self):
        assert level_matrix(GEN_A, 1).perm_vector.tolist() == [1, 0, 3, 2]

    def test_t_level_1_trivial(self):
        assert level_matrix(GEN_T, 1).perm_vector.tolist() == [0, 1, 2, 3]

    def test_t_level_2_blocks(self):
        vec = level_matrix(GEN_T, 2).perm_vector
        pi_a = level_matrix(GEN_A, 1).perm_vector
        pi_t = level_matrix(GEN_T, 1).perm_vector
        expect = np.concatenate(
            [0 + pi_a, 4 + pi_t, 8 + pi_a, 12 + pi_t]
        )
        assert np.array_equal(vec, expect)

    def test_t_level_2_bruteforce(self):
        vec = level_matrix(GEN_T, 2).perm_vector
        for idx in range(16):
            word = (idx // 4, idx % 4)
            image = act_on_word(GEN_T, word)
            assert vec[idx] == image[0] * 4 + image[1]

    def test_homomorphism(self, rng):
        gens = [GEN_A, GEN_T, GEN_TAU]
        for _ in range(30):
            g = IDENTITY
            h = IDENTITY
            for i in rng.integers(0, 3, size=6):
                g = mul(g, gens[i])
            for i in rng.integers(0, 3, size=6):
                h = mul(h, gens[i])
            for n in (1, 2, 3, 4):
                lg = level_matrix(g, n).perm_vector
                lh = level_matrix(h, n).perm_vector
                assert np.array_equal(level_matrix(mul(g, h), n).perm_vector, lg[lh])

    def test_involutions_and_commutation(self):
        for n in (1, 2, 3, 4):
            ident = np.arange(4**n)
            mats = {s: level_matrix(g, n).perm_vector for s, g in GENS.items()}
            for v in mats.values():
                assert np.array_equal(v[v], ident)
            assert np.array_equal(mats["a"][mats["tau"]], mats["tau"][mats["a"]])
            assert np.array_equal(mats["t"][mats["tau"]], mats["tau"][mats["t"]])

    def test_generators_distinct_at_level_4(self):
        vecs = [level_matrix(g, 4).perm_vector.tolist() for g in GENS.values()]
        assert vecs[0] != vecs[1] and vecs[0] != vecs[2] and vecs[1] != vecs[2]

    def test_rotation_order_grows(self):
        for n in (1, 2, 3, 4):
            vec = level_matrix(GEN_U, n).perm_vector
            ident = np.arange(4**n)
            order, cur = 1, vec
            while not np.array_equal(cur, ident):
                cur = vec[cur]
                order += 1
            assert order == 2**n
            assert order > 2 ** (n - 1)

    def test_short_words_act_faithfully_at_level_4(self):
        n = 4
        ident = np.arange(4**n)
        for k in range(-n, n + 1):
            for t_flag in (0, 1):
                for tau_flag in (0, 1):
                    g = GroupElement(k=k, t_flag=t_flag, tau_flag=tau_flag)
                    if g.is_identity():
                        continue
                    assert not np.array_equal(
                        level_matrix(g, n).perm_vector, ident
                    )

    def test_level_cap(self):
        # raised before the 4^n vector is allocated; the cap + 1 stays small
        # even if it were not
        with pytest.raises(LevelTooLarge):
            level_matrix(GEN_A, MAX_LEVEL + 1)
        with pytest.raises(LevelTooLarge):
            alt_tau_action().level_matrix(GEN_U, MAX_LEVEL + 1)
        with pytest.raises(ValueError):
            level_matrix(GEN_A, -1)

    def test_cached_vectors_are_read_only(self):
        vec = level_matrix(GEN_A, 2).perm_vector
        before = vec.copy()
        with pytest.raises(ValueError):
            vec[0] = 7
        assert np.array_equal(level_matrix(GEN_A, 2).perm_vector, before)
        for rows, counts, shifts in selfsim._DEFAULT_ACTION.orbit_blocks(2):
            with pytest.raises(ValueError):
                rows[0, 0, 0] = 7
            with pytest.raises(ValueError):
                counts[0] = 7
            with pytest.raises(ValueError):
                shifts[0] = 7
        table = selfsim.level_vectors([GEN_A], 2)
        table[0, 0] = 7  # a gathered copy, not the cached table
        assert np.array_equal(selfsim.level_vectors([GEN_A], 2)[0], before)
        with pytest.raises(ValueError):
            selfsim._DEFAULT_ACTION._tables[2][0, 0] = 7

    def test_dump_format(self):
        lines = list(level_matrix(GEN_A, 1).dump_lines())
        assert lines[0] == "0 -> 1"
        assert lines[1] == "1 -> 0"


def edge_elements(n):
    """k at and around the level-n period 2^n, far beyond int64, both flags."""
    ks = {s * k for k in (0, 1, 2**n, 2**n - 1, 2**n + 1, 2**62) for s in (1, -1)}
    ks.add(10**30)
    return [
        GroupElement(k=k, t_flag=t_flag, tau_flag=tau_flag)
        for k in sorted(ks)
        for t_flag in (0, 1)
        for tau_flag in (0, 1)
    ]


def seeded_elements(rng, count, max_k):
    ks = rng.integers(-max_k, max_k + 1, size=count)
    flags = rng.integers(0, 2, size=(count, 2))
    return [
        GroupElement(k=int(k), t_flag=int(f[0]), tau_flag=int(f[1]))
        for k, f in zip(ks, flags)
    ]


class TestLevelQuotient:
    """level_matrix keys on tau^eps t^delta u^(k mod 2^n): its vectors are
    checked against g's own, unreduced wreath decomposition, and its caches
    against the size of the group's level-n quotients."""

    @pytest.mark.parametrize("alt", [False, True])
    def test_equal_to_unreduced_recursion(self, rng, alt):
        make = alt_tau_action if alt else TreeAction
        action, ref = make(), make()
        for n in range(MAX_LEVEL + 1):
            for g in edge_elements(n) + seeded_elements(rng, 12, 10**4):
                vec = action.level_matrix(g, n)
                assert np.array_equal(vec, reference_level_vector(ref, g, n)), (g, n)

    @pytest.mark.parametrize("alt", [False, True])
    def test_u_has_order_2_to_the_n_at_level_n(self, alt):
        action = alt_tau_action() if alt else TreeAction()
        for n in range(1, MAX_LEVEL + 1):
            ident = np.arange(4**n)
            period, half = GroupElement(k=2**n), GroupElement(k=2 ** (n - 1))
            assert np.array_equal(reference_level_vector(action, period, n), ident)
            assert not np.array_equal(reference_level_vector(action, half, n), ident)
            assert np.array_equal(action.level_matrix(period, n), ident)
            assert not np.array_equal(action.level_matrix(half, n), ident)

    @pytest.mark.parametrize("alt", [False, True])
    def test_letter_by_letter_action(self, rng, alt):
        action = alt_tau_action() if alt else TreeAction()
        walk = action.act if alt else act_on_word
        for n in range(1, 5):
            # leaf i is the big-endian word of its base-4 digits
            words = [tuple(int(c) for c in np.base_repr(i, 4).zfill(n)) for i in range(4**n)]
            for g in edge_elements(n) + seeded_elements(rng, 4, 10**4):
                vec = action.level_matrix(g, n)
                for i, word in enumerate(words):
                    image = walk(g, word)
                    assert vec[i] == sum(x * 4 ** (n - 1 - j) for j, x in enumerate(image))

    @pytest.mark.parametrize("alt", [False, True])
    def test_level_walk_is_the_letter_by_letter_action(self, rng, alt):
        action = alt_tau_action() if alt else TreeAction()
        walk = action.act if alt else act_on_word
        level_walk = action.act_on_level if alt else selfsim.act_on_level
        assert np.array_equal(level_walk(GEN_A, 0), [0])
        for n in range(1, 5):
            words = [tuple(int(c) for c in np.base_repr(i, 4).zfill(n)) for i in range(4**n)]
            for g in edge_elements(n) + seeded_elements(rng, 4, 10**4):
                walked = level_walk(g, n)
                assert walked.dtype == np.int64
                for i, word in enumerate(words):
                    image = walk(g, word)
                    assert walked[i] == sum(x * 4 ** (n - 1 - j) for j, x in enumerate(image))
        with pytest.raises(LevelTooLarge):
            level_walk(GEN_U, MAX_LEVEL + 1)

    @pytest.mark.parametrize("alt", [False, True])
    def test_level_vectors_stack_level_matrices(self, rng, alt):
        action = alt_tau_action() if alt else TreeAction()
        for n in range(MAX_LEVEL + 1):
            elements = edge_elements(n) + seeded_elements(rng, 12, 10**4)
            stacked = action.level_vectors(elements, n)
            assert stacked.shape == (len(elements), 4**n)
            for g, vec in zip(elements, stacked):
                assert np.array_equal(vec, action.level_matrix(g, n)), (g, n)
        assert action.level_vectors([], 2).shape == (0, 16)
        # 4 * 2^n representatives per level table
        assert [len(action._tables[n]) for n in range(MAX_LEVEL + 1)] == [
            4 * 2**n for n in range(MAX_LEVEL + 1)
        ]
        with pytest.raises(LevelTooLarge):
            action.level_vectors([GEN_A], MAX_LEVEL + 1)

    def test_caches_bounded_by_the_group(self, rng):
        action = TreeAction()
        for g in seeded_elements(rng, 2000, 10**12):
            action.level_matrix(g, MAX_LEVEL)
        pairs = zip(seeded_elements(rng, 200, 10**12), seeded_elements(rng, 200, 10**12))
        for g, h in pairs:
            lg = action.level_matrix(g, MAX_LEVEL)
            lh = action.level_matrix(h, MAX_LEVEL)
            assert np.array_equal(action.level_matrix(mul(g, h), MAX_LEVEL), lg[lh])
        # 4 * 2^n representatives at each level 0-6, and the wreath
        # decompositions of the 4 * 2^6 level-6 ones
        assert len(action._levels) <= 508
        assert len(action._cache) <= 256
        assert all(not vec.flags.writeable for vec in action._levels.values())


class TestOrbits:
    @pytest.mark.parametrize("alt", [False, True])
    def test_partition(self, alt):
        action = alt_tau_action() if alt else selfsim._DEFAULT_ACTION
        for n in range(1, MAX_LEVEL + 1):
            # <a, t, tau>: 2^(n-1) orbits of 2^(n+1) leaves; <a, t>: 2^n
            # orbits of 2^n leaves, one per y-word
            for gens, count, size in (
                (list(GENS.values()), 2 ** (n - 1), 2 ** (n + 1)),
                ([GEN_A, GEN_T], 2**n, 2**n),
            ):
                labels = selfsim.orbit_labels([action.level_matrix(g, n) for g in gens])
                leaves = np.arange(4**n)
                # each label names a leaf of its own orbit, and the smallest one
                assert np.all(labels[labels] == labels)
                assert np.all(labels <= leaves)
                for g in gens:
                    vec = action.level_matrix(g, n)
                    assert np.array_equal(labels[vec], labels)
                # the orbits are connected by the generators: from each
                # label every leaf of its orbit is reached
                reached = labels == leaves
                frontier = reached.copy()
                while frontier.any():
                    new = np.zeros_like(reached)
                    for g in gens:
                        new[action.level_matrix(g, n)[frontier]] = True
                    frontier = new & ~reached
                    reached |= new
                assert reached.all()
                # count orbits of size leaves, covering every leaf once
                _, sizes = np.unique(labels, return_counts=True)
                assert sizes.sum() == 4**n
                assert len(sizes) == count
                assert np.all(sizes == size)

    @pytest.mark.parametrize("alt", [False, True])
    def test_blocks_match_dense(self, monkeypatch, rng, alt):
        # the automata differ only in how tau moves the order-two letters y
        # (the first, or all of them); each pairs the <a, t>-orbits (one per
        # y-word) its own way, and its tau-halves match its own dense pencil.
        # Both are the same representation up to a relabelling of the
        # leaves, so the default automaton's eigenvalues match too
        pencils = seeded_pencils(rng, 12) + [(0.0, 0.0, 1.5), (1.0, 1.0, 0.5)]
        levels = range(0, 6)
        default = {(z, n): pencil_level_eigs(*z, n) for z in pencils for n in levels}
        action = alt_tau_action() if alt else TreeAction()
        monkeypatch.setattr(selfsim, "_DEFAULT_ACTION", action)
        for z in pencils:
            for n in levels:
                eigs = pencil_level_eigs(*z, n)
                dense = np.linalg.eigvalsh(pencil_level_matrix(*z, n, action))
                assert len(eigs) == 4**n
                tol = 1e-12 * max(1.0, np.linalg.norm(z))
                assert np.abs(eigs - dense).max() <= tol
                assert np.abs(default[z, n] - dense).max() <= tol

    def test_tau_fixing_orbits_pointwise(self, monkeypatch, rng):
        # tau acting trivially is a representation of the group too; its
        # <a, t>-orbits are their own partners, each block shifted by +z3
        action = TauAsAction(lambda n: IDENTITY)
        monkeypatch.setattr(selfsim, "_DEFAULT_ACTION", action)
        for n in range(0, 5):
            blocks = action.orbit_blocks(n)
            assert [shifts.tolist() for _, _, shifts in blocks] == [[1.0]]
            assert sum(counts.sum() for _, counts, _ in blocks) == 2**n
            for z in seeded_pencils(rng, 4):
                eigs = pencil_level_eigs(*z, n)
                dense = np.linalg.eigvalsh(pencil_level_matrix(*z, n, action))
                assert np.abs(eigs - dense).max() <= 1e-12 * max(1.0, np.linalg.norm(z))

    def test_zero_pencil(self):
        assert np.array_equal(pencil_level_eigs(0, 0, 0, 3), np.zeros(64))

    @pytest.mark.parametrize("alt", [False, True])
    def test_block_counts(self, alt):
        action = alt_tau_action() if alt else selfsim._DEFAULT_ACTION
        for n in range(0, MAX_LEVEL + 1):
            blocks = action.orbit_blocks(n)
            leaves = 0
            for rows, counts, shifts in blocks:
                p, gens, s = rows.shape
                assert gens == 2 and len(counts) == p
                # each generator permutes the leaves of each orbit
                assert np.all(np.sort(rows, axis=2) == np.arange(s))
                assert len(np.unique(rows, axis=0)) == p
                assert s == 2**n
                assert shifts.tolist() == ([1.0, -1.0] if n else [1.0])
                leaves += s * len(shifts) * counts.sum()
            assert leaves == 4**n
            # one kept orbit per tau-pair: 2^(n-1) pairs, the root at level 0
            pairs = sum(counts.sum() for _, counts, _ in blocks)
            assert pairs == (2 ** (n - 1) if n else 1)

    @pytest.mark.parametrize("central", ["half_turn", "a"])
    def test_unpaired_orbit_raises(self, central):
        # a half turn u^(2^(n-1)) is a central involution at level n, but it
        # maps each <a, t>-orbit onto itself; a acting as tau maps them onto
        # themselves too, and from level 2 on does not commute with t
        if central == "half_turn":
            action = TauAsAction(lambda n: GroupElement(k=2 ** max(n - 1, 0)))
            message = "not pointwise"
        else:
            action = TauAsAction(lambda n: GEN_A)
            message = "not an involution commuting"
        for n in range(2, 5):
            with pytest.raises(UnpairedOrbit, match=message):
                action.orbit_blocks(n)

    def test_equal_to_orbit_route(self, rng):
        # the tau-halves round otherwise than the 2^(n+1)-leaf orbit blocks
        points = seeded_pencils(rng, 18) + [
            (0.0, 0.0, 0.0),
            (1.5, -0.5, 0.0),
            (-1.5, 0.5, 0.0),
            (0.0, -1.0, 2.0),
            (-0.7, 0.0, -1.1),
        ]
        assert any(z[0] < 0 for z in points) and any(z[0] > 0 for z in points)
        assert any(z[1] < 0 for z in points) and any(z[1] > 0 for z in points)
        for n in range(0, MAX_LEVEL + 1):
            for z in points:
                eigs = pencil_level_eigs(*z, n)
                ref = reference_level_eigs(*z, n)
                assert len(eigs) == 4**n
                assert np.abs(eigs - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(z))

    def test_level_6_factors_one_block(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        eigs = pencil_level_eigs(1, 1, 0.5, 6)
        assert shapes == [(1, 64, 64)]
        assert len(eigs) == 4**6


class TestLevelEigs:
    def test_commuting_involutions(self):
        eigs = pencil_level_eigs(1, 1, 1, 1)
        assert np.allclose(eigs, [-1, 1, 1, 3])

    def test_involution_spectrum(self):
        eigs = pencil_level_eigs(1, 0, 0, 3)
        assert np.allclose(np.abs(eigs), 1.0)

    def test_level_4_bound(self):
        eigs = pencil_level_eigs(1, 1, 0.5, 4)
        assert len(eigs) == 256
        assert eigs.min() >= -2.5 - 1e-12
        assert eigs.max() <= 2.5 + 1e-12

    def test_level_cap(self):
        with pytest.raises(LevelTooLarge):
            pencil_level_eigs(1, 1, 1, 7)

    def test_nesting(self):
        prev = np.sort(pencil_level_eigs(1, 1, 0.5, 1))
        for n in range(2, MAX_LEVEL + 1):
            cur = np.sort(pencil_level_eigs(1, 1, 0.5, n))
            idx = np.clip(np.searchsorted(cur, prev), 1, len(cur) - 1)
            dist = np.minimum(np.abs(cur[idx] - prev), np.abs(prev - cur[idx - 1]))
            assert dist.max() <= 1e-9
            prev = cur


class TestValidation:
    def test_top_eigenvalue_witness(self):
        out = validate_eigs_in_spectrum(1, 1, 1, 1)
        assert out["violations"] == []
        assert out["max_margin"] <= 1e-10

    def test_level_5_clean(self):
        out = validate_eigs_in_spectrum(1, 1, 0.5, 5)
        assert out["violations"] == []

    def test_level_6_clean(self):
        out = validate_eigs_in_spectrum(1, 1, 0.5, 6)
        assert out["violations"] == []

    @pytest.mark.parametrize("z", [(1, 1, 0.5), (1, 0, 0), (1, 1, 1), (-1.3, 0.7, 1.9)])
    def test_matches_scalar_loop(self, z):
        for n in range(1, 5):
            for tol in (1e-8, 1e-15):
                fast = validate_eigs_in_spectrum(*z, n, tol=tol)
                ref = scalar_validation(*z, n, tol=tol)
                assert len(fast["violations"]) == len(ref["violations"])
                for f, r in zip(fast["violations"], ref["violations"]):
                    assert f["eigenvalue"] == r["eigenvalue"]
                    assert f["margin"] == pytest.approx(r["margin"], abs=1e-15)
                assert fast["max_margin"] == pytest.approx(ref["max_margin"], abs=1e-15)

    @pytest.mark.parametrize("tol", [1e-8, 1e-15])
    def test_distinct_eigenvalues_give_the_full_check(self, rng, tol):
        # tol = 1e-15 makes violations, so their order is compared too
        pencils = seeded_pencils(rng, 12) + [(1, 1, 0.5), (1, 0, 0), (0, 0, 0)]
        for z in pencils:
            for n in range(1, 6):
                ref = reference_validation(*z, n, tol=tol)
                assert validate_eigs_in_spectrum(*z, n, tol=tol) == ref

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            validate_eigs_in_spectrum(1, 1, 0.5, 2, tol=0.0)

    def test_degenerate_branch(self):
        out = validate_eigs_in_spectrum(1, 0, 0, 2)
        assert out["violations"] == []

    def test_alternative_tau_automaton(self):
        action = alt_tau_action()
        assert validate_eigs_in_spectrum(1, 1, 0.5, 3)["violations"] == []
        eigs = np.linalg.eigvalsh(pencil_level_matrix(1, 1, 0.5, 3, action))
        points = np.array([(-lam, 1, 1, 0.5) for lam in eigs], dtype=complex)
        assert membership_grid(points, tol=1e-8)[1].all()
        # the two automata differ as permutations but generate the same group
        assert not np.array_equal(
            level_matrix(GEN_TAU, 2).perm_vector, action.level_matrix(GEN_TAU, 2)
        )

    def test_alternative_tau_relations(self):
        action = alt_tau_action()
        for n in (1, 2, 3, 4):
            ident = np.arange(4**n)
            mats = {s: action.level_matrix(g, n) for s, g in GENS.items()}
            for v in mats.values():
                assert np.array_equal(v[v], ident)
            assert np.array_equal(mats["a"][mats["tau"]], mats["tau"][mats["a"]])
            assert np.array_equal(mats["t"][mats["tau"]], mats["tau"][mats["t"]])
            u = action.level_matrix(GEN_U, n)
            assert np.array_equal(u, mats["a"][mats["t"]])


class TestCoverage:
    def test_slice_intervals(self):
        assert spectrum_slice_intervals(1, 1, 0.5) == [(-2.5, 2.5)]
        assert spectrum_slice_intervals(1, 0, 0) == [(-1.0, -1.0), (1.0, 1.0)]

    def test_monotone_refinement(self):
        g2 = coverage_gap(1, 1, 0.5, 2)
        g3 = coverage_gap(1, 1, 0.5, 3)
        assert g3 < g2

    def test_level_5_coverage(self):
        assert coverage_gap(1, 1, 0.5, 5) < 0.5

    @pytest.mark.parametrize("z", [(1, 1, 0.5), (1, 0, 0), (0.3, -1.7, 1.1)])
    def test_matches_scalar_reference(self, z):
        for n in range(2, 6):
            assert coverage_gap(*z, n) == scalar_coverage_gap(*z, n)

    def test_involution_attains_slice(self):
        for n in (1, 2, 3):
            assert coverage_gap(1, 0, 0, n) == pytest.approx(0.0, abs=1e-12)

    def test_csv_header(self):
        lines = list(eigenvalue_csv_lines(1, 1, 1, 1))
        assert lines[0] == "level,z1,z2,z3,lambda,multiplicity_hint"
        # eigenvalues -1, 1 (x2), 3
        assert len(lines) == 4
        assert lines[2].endswith(",2")
