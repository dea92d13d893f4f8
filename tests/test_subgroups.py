import random

import pytest
from hypothesis import given, settings, strategies as st

from endotorus.words import Endomorphism, concat, invert, parse_word
from endotorus.subgroups import (
    ImageGraph,
    SubgroupGraph,
    free_factor_containment,
    invert_automorphism,
    is_injective,
    preimage,
    stallings,
    whitehead_graph,
)

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
        assert stallings(2, [()]) == SubgroupGraph.trivial(2)

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

    def test_invert_golden(self):
        inv = invert_automorphism(GOLDEN)
        assert inv.images == (parse_word("b"), parse_word("Ba"))
        assert GOLDEN.compose(inv).is_identity()
        assert inv.compose(GOLDEN).is_identity()

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
        for w in g.basis():
            assert h.contains(w) or True  # ascending holds when phi(<G>) <= <G>
        assert all(h.contains(w) for w in g.basis())


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

    def test_whitehead_graph_of_rose(self):
        wh = whitehead_graph(SubgroupGraph.full_group(2))
        assert all(len(v) == 3 for v in wh.values())  # complete graph on 4 germs
