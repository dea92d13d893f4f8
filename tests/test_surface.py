import math

import pytest

from endotorus.cli import parse, run
from endotorus.words import CyclicWord, Endomorphism, parse_word
from endotorus.nielsen import StableRepresentative, nielsen_loops, stabilize
from endotorus.traintrack import (
    InvariantFactor,
    ReductionWitness,
    Unknown,
    find_train_track,
    verify_reduction_witness,
)
from endotorus import surface
from endotorus.surface import (
    NotSurface,
    SurfaceRealization,
    Verdict,
    classify,
    realize_surface,
    reduction_search,
)

from helpers import TWO_ROSES, arc_orbits, identity_track

PHI = Endomorphism(2, (parse_word("ab"), parse_word("ba")))
GOLDEN = Endomorphism(2, (parse_word("ab"), parse_word("a")))
PSI = Endomorphism(3, (parse_word("ab"), parse_word("ba"), parse_word("a")))
SWAP = Endomorphism(2, (parse_word("b"), parse_word("a")))
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


class TestRealize:
    def test_golden_once_punctured_torus(self):
        stable = stabilize(find_train_track(GOLDEN))
        loops = nielsen_loops(stable.tt, stable.orbits)
        surf = realize_surface(stable, loops)
        assert isinstance(surf, SurfaceRealization)
        assert surf.genus == 1 and surf.boundary_count == 1
        assert surf.euler_char == -1
        assert surf.transitive_boundary and surf.orientable
        assert surf.fully_irreducible
        assert abs(surf.stretch - GOLDEN_RATIO) < 1e-9

    def test_arithmetic_identity(self):
        stable = stabilize(find_train_track(GOLDEN))
        loops = nielsen_loops(stable.tt, stable.orbits)
        surf = realize_surface(stable, loops)
        g = stable.tt.gm.graph
        assert 2 - 2 * surf.genus - surf.boundary_count == g.nv - len(g.edges)


class TestOrientable:
    @pytest.mark.parametrize("loops, orientable", [
        # one loop over a one-edge graph, crossing the edge twice the same way
        ([(1, 1)], False),
        # edge 1 asks for opposite orientations of the loops, edge 2 the same
        ([(1, 2), (1, -2)], False),
        # reversing the second loop crosses edge 1 once each way
        ([(1,), (1,)], True),
        ([(1, 2, -1, -2)], True),
    ])
    def test_loop_orientations(self, loops, orientable):
        assert surface._orientable(loops) is orientable


def realize_arcs(tt, arcs):
    """`realize_surface` of the loops that the arcs close into."""
    orbits = arc_orbits(arcs)
    return realize_surface(StableRepresentative(tt, orbits, 1.0, []),
                           nielsen_loops(tt, orbits))


class TestNotSurface:
    # loop systems on the identity of two roses joined by edge 3; no corpus
    # input reaches these reasons
    @pytest.mark.parametrize("arcs,vertex", [
        # the arc (3, 5, 5, -3) closes the link (-3, 5, -5) at vertex 1, so
        # no pairing there is a circle, and vertex 0 keeps its first tight
        # pairing, which closes (1,) and (2,) on themselves although a
        # later pairing is a circle
        ([(1,), (1,), (2,), (2,), (3, 5, 5, -3), (4,), (4,)], 0),
        # here vertex 0's first tight pairing is a circle
        ([(1,), (2,), (1, -2), (3, 5, 5, -3), (4,), (4,)], 1),
    ])
    def test_a_vertex_without_a_circle_splits(self, arcs, vertex):
        tt = identity_track(2, TWO_ROSES)
        loops = nielsen_loops(tt, arc_orbits(arcs))
        assert set(loops.multiplicities.values()) == {2}
        surf = realize_arcs(tt, arcs)
        assert isinstance(surf, NotSurface)
        assert surf.reason.startswith("vertex link splits after blow-up")
        assert surf.vertex == vertex

    def test_an_edge_covered_once_fails_the_coverage(self):
        tt = identity_track(1, [(0, 0), (0, 0)])
        surf = realize_arcs(tt, [(1,), (1,), (2,)])
        assert isinstance(surf, NotSurface)
        assert surf.reason.startswith(
            "Nielsen loops do not cover each edge exactly twice "
            "(multiplicities [1, 2])")
        assert surf.vertex is None


class TestReductionSearch:
    def test_remark_map_empty_at_depth_three(self):
        assert reduction_search(PHI) is None

    def test_extension_found(self):
        w = reduction_search(PSI)
        assert w is not None and w.factors[0].graph is not None

    def test_swap_letter_cycle(self):
        w = reduction_search(SWAP)
        assert w is not None and len(w.factors) == 2
        assert [f.basis for f in w.factors] == [[(1,)], [(2,)]]

    def test_golden_none(self):
        assert reduction_search(GOLDEN) is None

    def test_letter_cycles_stop_at_the_first_longer_class(self, monkeypatch):
        # b and c do not go to letter classes, so the orbit of a ends at b
        # instead of growing through ccab and its images
        lengths = []
        real = surface.cyclic_canonical

        def recording(w, unoriented=False):
            lengths.append(len(w))
            return real(w, unoriented)

        monkeypatch.setattr(surface, "cyclic_canonical", recording)
        endo = Endomorphism(3, (parse_word("b"), parse_word("ccab"),
                                parse_word("abcab")))
        assert surface._letter_cycle_witness(endo) is None
        assert max(lengths) == 1

    # each image is conjugate to a power of the next letter in a cycle of
    # letter classes, so the letters span an invariant free factor system
    @pytest.mark.parametrize("images, bases", [
        (("bb", "A"), [[(1,)], [(2,)]]),
        (("AB", "Abba"), [[(2,)]]),
        (("b", "aaaa"), [[(1,)], [(2,)]]),
        (("CC", "a", "BB"), [[(1,)], [(3,)], [(2,)]]),
        (("b", "C", "aa"), [[(1,)], [(2,)], [(3,)]]),
    ])
    def test_letter_classes_up_to_powers(self, images, bases):
        endo = Endomorphism(len(images), tuple(map(parse_word, images)))
        v = classify(endo)
        assert v.kind == "reducible"
        assert v.witness.provenance == "generator classes permute"
        assert [f.basis for f in v.witness.factors] == bases
        assert verify_reduction_witness(endo, v.witness._replace(
            factors=[f._replace(graph=None) for f in v.witness.factors]))

    def test_an_invariant_class_that_is_no_letter_verifies(self):
        # phi(aB) = BaBa = B (aB)^2 b: the one factor <aB> with conjugator B
        endo = Endomorphism(2, (parse_word("BaB"), parse_word("A")))
        witness = ReductionWitness(
            [InvariantFactor([parse_word("aB")], parse_word("B"))], "test")
        assert verify_reduction_witness(endo, witness)

    @pytest.mark.xfail(strict=True, reason="neither the letter cycles nor the "
                       "word search sees the invariant class aB")
    def test_an_invariant_class_that_is_no_letter_is_found(self):
        endo = Endomorphism(2, (parse_word("BaB"), parse_word("A")))
        assert classify(endo).kind == "reducible"


class TestClassify:
    def test_remark_map(self):
        v = classify(PHI)
        assert v.kind == "irreducible_atoroidal"
        assert v.injective
        assert v.atoroidal is not None
        assert v.irreducibility == "bounded"

    def test_golden(self):
        v = classify(GOLDEN)
        assert v.kind == "geometric"
        assert v.surface.genus == 1 and v.surface.boundary_count == 1
        assert v.surface.fully_irreducible
        assert v.toroidal is not None and v.toroidal.witness == CyclicWord.of(parse_word("abAB"))

    def test_extension(self):
        v = classify(PSI)
        assert v.kind == "reducible" and not v.injective
        assert v.witness is not None and v.witness.factors[0].graph is not None

    def test_a_train_track_search_that_gives_up(self, monkeypatch):
        monkeypatch.setattr(surface, "find_train_track", lambda endo, **kw:
                            Unknown("iteration budget exhausted", 500))
        spec = parse("rank 2; a -> a b; b -> b a;")   # remark_irreducible_atoroidal
        verdict = run("classify", spec)["verdict"]
        assert verdict["kind"] == "unknown"
        assert verdict["notes"] == [
            "train track search: iteration budget exhausted"]
        assert run("tt", spec)["unknown"] == {
            "reason": "iteration budget exhausted", "iterations": 500}

    def test_swap(self):
        v = classify(SWAP)
        assert v.kind == "finite_order" and v.finite_order.power == 2

    def test_exclusive_verdicts(self):
        for endo in (PHI, GOLDEN, PSI, SWAP):
            v = classify(endo)
            assert (v.kind == "reducible") == (v.witness is not None)
            if v.kind == "geometric":
                assert v.atoroidal is None
            if v.kind == "irreducible_atoroidal":
                assert v.surface is None and v.witness is None

    def test_full_irreducibility_spot_check(self):
        # a single-boundary geometric monodromy stays irreducible under
        # iteration (bounded search on the first few powers)
        for k in (2, 3, 4):
            assert reduction_search(GOLDEN.power(k)) is None

    def test_multi_boundary_power_reduces(self):
        # the square of the swap map fixes each generator class: reducible
        v = classify(SWAP.power(2))
        assert v.kind == "finite_order"


class TestDehnTwistLike:
    def test_twist_reducible_and_toroidal(self):
        twist = Endomorphism(2, (parse_word("a"), parse_word("ba")))
        v = classify(twist)
        assert v.kind == "reducible"
        assert v.witness is not None
