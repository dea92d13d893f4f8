import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from endotorus import subgroups as sg
from endotorus.words import (
    Endomorphism,
    InternalInconsistency,
    concat,
    conjugate,
    invert,
    parse_word,
    reduce_word,
)
from endotorus.subgroups import (
    ImageGraph,
    SubgroupGraph,
    free_factor_containment,
    invert_automorphism,
    is_injective,
    preimage,
    rank_one_system,
    stallings,
    whitehead_graph,
)

from helpers import is_conjugate

PHI = Endomorphism(2, (parse_word("ab"), parse_word("ba")))
GOLDEN = Endomorphism(2, (parse_word("ab"), parse_word("a")))
PSI = Endomorphism(3, (parse_word("ab"), parse_word("ba"), parse_word("a")))

KERNEL_GENS = [parse_word("aa"), parse_word("b"), parse_word("abA")]


class TestStallings:
    def test_single_generator_is_loop(self):
        g = stallings(2, [parse_word("a")])
        assert g.num_vertices == 1 and g.num_edges == 1 and g.graph_rank() == 1

    def test_full_rose(self):
        g = stallings(2, [parse_word("a"), parse_word("b")])
        assert g.num_vertices == 1 and g.num_edges == 2 and g.index() == 1

    def test_index_two_kernel(self):
        g = stallings(2, KERNEL_GENS)
        assert g.graph_rank() == 3
        assert g.num_vertices == 2
        assert g.index() == 2

    def test_folding_confluent_under_shuffle(self):
        rng = random.Random(7)
        gens = [parse_word(s) for s in ("abA", "aabb", "bab", "Aba")]
        reference = stallings(3, gens)
        for _ in range(10):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert stallings(3, shuffled) == reference

    @given(st.lists(st.lists(st.integers(-2, 2).filter(bool), min_size=1, max_size=5),
                    min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_generators_are_members(self, raw_gens):
        gens = [tuple(g) for g in raw_gens]
        graph = stallings(2, gens)
        for g in gens:
            assert graph.contains(g)
        for g, h in zip(gens, gens[1:]):
            assert graph.contains(concat(g, h))
            assert graph.contains(concat(h, invert(g)))


def words_of_rank(rank):
    return st.lists(st.integers(-rank, rank).filter(bool),
                    min_size=1, max_size=5).map(tuple)


@st.composite
def generator_lists(draw):
    rank = draw(st.sampled_from([2, 3]))
    gens = draw(st.lists(words_of_rank(rank), min_size=1, max_size=4))
    return rank, gens


class TestSingleFold:
    def test_empty_words_ignored(self):
        assert stallings(2, [(), (1, -1), (1,)]) == stallings(2, [(1,)])
        assert stallings(2, [()]) == stallings(2, [])

    def test_trivial_image_is_not_injective(self):
        # a generator sent to 1 lies in the kernel
        assert is_injective(Endomorphism(2, (parse_word("a"), parse_word("aA")))) is False
        assert is_injective(Endomorphism(2, (parse_word("bB"), parse_word("ab")))) is False

    @given(generator_lists(), st.data())
    @settings(max_examples=60)
    def test_invariant_under_nielsen_moves(self, rank_gens, data):
        (rank, gens) = rank_gens
        reference = stallings(rank, gens)
        gens = list(gens)
        for _ in range(data.draw(st.integers(1, 6))):
            i = data.draw(st.integers(0, len(gens) - 1))
            j = data.draw(st.integers(0, len(gens) - 1))
            if i != j and data.draw(st.booleans()):
                gens[i] = concat(gens[i], gens[j])
            else:
                gens[i] = invert(gens[i])
            assert stallings(rank, gens) == reference

    @given(st.sampled_from([2, 3]).flatmap(
        lambda rank: st.lists(words_of_rank(rank), min_size=rank, max_size=rank)))
    @settings(max_examples=60)
    def test_injective_iff_image_has_full_rank(self, images):
        endo = Endomorphism(len(images), tuple(images))
        assert is_injective(endo) == (
            stallings(endo.rank, endo.images).graph_rank() == endo.rank)


class TestMembershipAndIndex:
    def test_powers_of_generator(self):
        g = stallings(2, [parse_word("a")])
        assert g.contains(parse_word("aaaaa"))
        assert not g.contains(parse_word("b"))

    def test_kernel_membership_parity(self):
        g = stallings(2, KERNEL_GENS)
        # membership in the kernel of F2 -> Z/2 (a -> 1, b -> 0) is exactly
        # even a-exponent sum: bab has odd sum, aba has even sum
        assert not g.contains(parse_word("bab"))
        assert g.contains(parse_word("aba"))

    def test_infinite_index(self):
        assert stallings(2, [parse_word("a")]).index() is None

    def test_index_matches_coset_count(self):
        g = stallings(2, KERNEL_GENS)
        assert g.index() == 2


class TestIntersect:
    def test_with_full_group(self):
        g = stallings(2, KERNEL_GENS)
        assert g.intersect(SubgroupGraph.full_group(2)) == g

    def test_disjoint_cyclics(self):
        inter = stallings(2, [parse_word("a")]).intersect(stallings(2, [parse_word("b")]))
        assert inter.is_trivial()

    def test_cyclic_meets_bigger(self):
        inter = stallings(2, [parse_word("a")]).intersect(
            stallings(2, [parse_word("aa"), parse_word("b")]))
        assert inter == stallings(2, [parse_word("aa")])


class TestInjectivity:
    def test_remark_map_injective(self):
        assert is_injective(PHI)

    def test_extension_not_injective(self):
        # the rank-3 extension sends everything into a rank-2 subgroup
        assert not is_injective(PSI)

    def test_collapsing_map_not_injective(self):
        assert not is_injective(Endomorphism(2, (parse_word("ab"), parse_word("ab"))))

    def test_image_subgroup(self):
        img = stallings(PHI.rank, PHI.images)
        assert img.graph_rank() == 2
        assert not img.contains(parse_word("a"))
        assert img.contains(parse_word("abba"))


class TestRewriting:
    def test_express_roundtrip(self):
        ig = ImageGraph(PHI.rank, PHI.images)
        for text in ("ab", "ba", "abba", "baab", "abBA"):
            h = PHI.apply(parse_word(text))
            assert PHI.apply(ig.express(h)) == h

    def test_express_rejects_non_members(self):
        ig = ImageGraph(PHI.rank, PHI.images)
        with pytest.raises(ValueError):
            ig.express(parse_word("a"))

    def test_wrong_label_raises(self):
        ig = ImageGraph(PHI.rank, PHI.images)
        ig.labels = {e: () for e in ig.labels}
        with pytest.raises(InternalInconsistency,
                           match="edge labels do not spell the loop"):
            ig.express(PHI.apply(parse_word("ab")))

    def test_invert_golden(self):
        inv = invert_automorphism(GOLDEN)
        assert inv.images == (parse_word("b"), parse_word("Ba"))
        assert GOLDEN.compose(inv) == Endomorphism.identity(2)
        assert inv.compose(GOLDEN) == Endomorphism.identity(2)

    def test_invert_rejects_nonsurjective(self):
        with pytest.raises(ValueError):
            invert_automorphism(PHI)


class TestPreimage:
    def test_identity_preimage(self):
        g = stallings(2, KERNEL_GENS)
        assert preimage(Endomorphism.identity(2), g) == g

    def test_preimage_of_everything(self):
        assert preimage(PHI, SubgroupGraph.full_group(2)) == SubgroupGraph.full_group(2)

    def test_noninjective_total_preimage(self):
        # every generator image of the rank-3 extension lies in <a,b>
        g = stallings(3, [parse_word("a"), parse_word("b")])
        assert preimage(PSI, g) == SubgroupGraph.full_group(3)

    def test_conjugated_cyclic_preimage(self):
        # alpha: a -> bab^-1, b -> b; the preimage of <a> is <b^-1 a b>, which
        # a label-only fiber product would miss
        alpha = Endomorphism(2, (parse_word("baB"), parse_word("b")))
        got = preimage(alpha, stallings(2, [parse_word("a")]))
        assert got == stallings(2, [parse_word("Bab")])

    def test_preimage_under_square(self):
        # (a -> a^2, b -> b^2): preimage of <a> is <a>
        sq = Endomorphism(2, (parse_word("aa"), parse_word("bb")))
        assert preimage(sq, stallings(2, [parse_word("a")])) == stallings(2, [parse_word("a")])

    def test_preimage_chain_is_ascending(self):
        sq = Endomorphism(2, (parse_word("aa"), parse_word("bb")))
        g = stallings(2, [parse_word("a")])
        h = preimage(sq, g)
        assert all(h.contains(w) for w in g.basis())


def letters_of_rank(rank):
    return st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)])


@st.composite
def whitehead_automorphisms(draw, rank):
    """A Whitehead automorphism (Y, v) of F_rank: Y holds v and no other
    letter of v's generator."""
    v = draw(letters_of_rank(rank))
    y = draw(st.sets(letters_of_rank(rank).filter(lambda x: abs(x) != abs(v))))
    return sg._whitehead_move(rank, v, y | {v})


@st.composite
def scrambled_factors(draw):
    """(rank, words): 1-3 words inside a proper letter factor, scrambled by
    up to 4 Whitehead automorphisms and conjugated by a word of length at
    most 6."""
    rank = draw(st.integers(2, 3))
    kept = draw(st.lists(st.integers(1, rank), min_size=1, max_size=rank - 1,
                         unique=True))
    inside = st.sampled_from([s * i for i in kept for s in (1, -1)])
    gens = [reduce_word(draw(st.lists(inside, min_size=1, max_size=6)))
            for _ in range(draw(st.integers(1, 3)))]
    for move in draw(st.lists(whitehead_automorphisms(rank), max_size=4)):
        gens = [move.apply(g) for g in gens]
    u = draw(st.lists(letters_of_rank(rank), max_size=6))
    return rank, [conjugate(g, u) for g in gens]


@st.composite
def scrambled_systems(draw):
    """(rank, classes): 1-rank distinct letters, each possibly inverted,
    scrambled by up to 4 Whitehead automorphisms, each class conjugated by
    a word of length at most 4."""
    rank = draw(st.integers(2, 4))
    letters = draw(st.lists(st.integers(1, rank), min_size=1, max_size=rank,
                            unique=True))
    words = [(draw(st.sampled_from([1, -1])) * l,) for l in letters]
    for move in draw(st.lists(whitehead_automorphisms(rank), max_size=4)):
        words = [move.apply(w) for w in words]
    return rank, [conjugate(w, draw(st.lists(letters_of_rank(rank), max_size=4)))
                  for w in words]


class TestFreeFactor:
    def test_cyclic_generator_factor(self):
        res = free_factor_containment(stallings(2, [parse_word("a")]))
        assert res.contained and res.factor == [parse_word("a")]

    def test_remark_image_not_contained(self):
        res = free_factor_containment(stallings(2, [parse_word("ab"), parse_word("ba")]))
        assert res.status == "not_contained"

    def test_extension_image_contained(self):
        res = free_factor_containment(
            stallings(3, [parse_word("ab"), parse_word("ba"), parse_word("a")]))
        assert res.contained
        factor = stallings(3, res.factor)
        assert factor.contains(parse_word("a")) and factor.contains(parse_word("b"))
        assert not factor.contains(parse_word("c"))

    def test_primitive_word_contained(self):
        res = free_factor_containment(stallings(2, [parse_word("ab")]))
        assert res.contained
        assert stallings(2, res.factor).contains(parse_word("ab"))

    def test_squares_not_contained(self):
        res = free_factor_containment(stallings(2, [parse_word("aa"), parse_word("bb")]))
        assert res.status == "not_contained"

    def test_finite_index_not_contained(self):
        res = free_factor_containment(stallings(2, KERNEL_GENS))
        assert res.status == "not_contained"

    def test_conjugated_letter_is_contained(self):
        # baBaBAbAB = u B u^-1 with u = baBa: the graph is a b-loop at the
        # end of a hair, and the factor is read on the cyclic core
        w = parse_word("baBaBAbAB")
        res = free_factor_containment(stallings(2, [w]))
        assert res.contained and len(res.factor) == 1
        assert is_conjugate(res.factor[0], parse_word("b"))
        assert stallings(2, res.factor).contains(w)

    @given(scrambled_factors())
    @settings(max_examples=60, deadline=None)
    def test_scrambled_factor_is_found(self, case):
        (rank, gens) = case
        res = free_factor_containment(stallings(rank, gens))
        assert res.contained and len(res.factor) < rank
        factor = stallings(rank, res.factor)
        assert all(factor.contains(g) for g in gens)

    def test_whitehead_graph_of_rose(self):
        rose = SubgroupGraph.full_group(2)
        wh = whitehead_graph(2, [[l for (l, _) in nbrs] for nbrs in rose.adj])
        assert all(len(v) == 3 for v in wh.values())  # complete graph on 4 germs
        # the cyclic word ab has the junctions (B, a) and (A, b)
        word = parse_word("ab")
        wh = whitehead_graph(2, [(-word[i - 1], word[i]) for i in range(2)])
        assert wh == {1: {-2}, -2: {1}, -1: {2}, 2: {-1}}


class TestRankOneSystem:
    @given(scrambled_systems())
    @settings(max_examples=80, deadline=None)
    def test_scrambled_letters_are_a_system(self, case):
        (rank, classes) = case
        assert rank_one_system(rank, classes)

    @pytest.mark.parametrize("classes", [["aa"], ["abAB"], ["ab", "aB"]])
    def test_non_systems(self, classes):
        # ab and aB are each primitive, but their abelianized determinant
        # is -2, so they are no basis of a free factor together
        assert not rank_one_system(2, [parse_word(w) for w in classes])

    def test_move_that_does_not_shrink_raises(self, monkeypatch):
        monkeypatch.setattr(sg, "_cut_vertex_move",
                            lambda rank, nbrs: Endomorphism.identity(rank))
        with pytest.raises(InternalInconsistency, match="did not shrink"):
            rank_one_system(2, [parse_word("ab")])


# ---------------------------------------------------------------------------
# edge labels: rewriting and preimages on random injective maps
# ---------------------------------------------------------------------------

@st.composite
def injective_cases(draw):
    """(phi, domain words, generators of a target subgroup), phi injective."""
    rank = draw(st.integers(2, 3))
    words = words_of_rank(rank).map(reduce_word)
    endo = Endomorphism(rank, tuple(draw(st.lists(words, min_size=rank, max_size=rank))))
    assume(is_injective(endo))
    return (endo, draw(st.lists(words, max_size=4)),
            draw(st.lists(words, min_size=1, max_size=3)))


class TestLabelRewriting:
    @given(injective_cases())
    @settings(max_examples=60, deadline=None)
    def test_express_and_preimage(self, case):
        (endo, ws, gens) = case
        ig = ImageGraph(endo.rank, endo.images)
        for w in ws:
            h = endo.apply(w)
            assert endo.apply(ig.express(h)) == h
            assert ig.express(h) == w      # phi is injective
        G = stallings(endo.rank, gens)
        for b in preimage(endo, G).basis():
            assert G.contains(endo.apply(b))

