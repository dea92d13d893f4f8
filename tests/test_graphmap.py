import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from endotorus import graphmap, nielsen, traintrack
from endotorus.cli import parse, run
from endotorus.nielsen import scan_pinps
from endotorus.traintrack import find_train_track
from endotorus.words import Endomorphism, is_conjugate, parse_word, reduce_word
from endotorus.graphmap import (
    GraphMap,
    TransitionData,
    _strongly_connected,
    certify_growth_rate,
    transition_matrix,
    with_eigenmetric,
)

PHI = Endomorphism(2, (parse_word("ab"), parse_word("ba")))
GOLDEN = Endomorphism(2, (parse_word("ab"), parse_word("a")))
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def rose(endo):
    return GraphMap.rose(endo)


class TestRose:
    def test_remark_map(self):
        gm = rose(PHI)
        assert gm.eimg == {1: (1, 2), 2: (2, 1)}
        gm.check_consistency()

    def test_identity(self):
        gm = rose(Endomorphism.identity(2))
        assert gm.eimg == {1: (1,), 2: (2,)}

    def test_marking_words(self):
        gm = rose(GOLDEN)
        for g in (1, 2):
            assert gm.path_to_word(gm.marking[g - 1]) == (g,)

    def test_induced_images(self):
        gm = rose(GOLDEN)
        for g in (1, 2):
            assert gm.induced_generator_image(g) == GOLDEN.images[g - 1]


class TestTighten:
    def test_cancelling_image(self):
        gm = rose(Endomorphism(2, (parse_word("abBa"), parse_word("b"))))
        # parse_word already reduces; build an unreduced image by hand
        gm.eimg[1] = (1, 2, -2, 1)
        tight = gm.tighten()
        assert tight.eimg[1] == (1, 1)

    def test_already_tight(self):
        gm = rose(PHI)
        assert gm.tighten().eimg == gm.eimg

    def test_tighten_path(self):
        # edge paths tighten by free reduction on signed edge ids
        assert reduce_word((1, 2, -2, 1)) == (1, 1)


class TestTransition:
    def test_remark_matrix_and_lambda(self):
        data = transition_matrix(rose(PHI))
        assert data.as_lists() == [[1, 1], [1, 1]]
        assert data.lam == 2.0
        assert data.irreducible and data.expanding

    def test_identity_not_expanding(self):
        data = transition_matrix(rose(Endomorphism.identity(2)))
        assert data.as_lists() == [[1, 0], [0, 1]]
        assert data.lam == 1.0
        assert not data.expanding

    def test_golden_ratio(self):
        data = transition_matrix(rose(GOLDEN))
        assert data.as_lists() == [[1, 1], [1, 0]]
        assert abs(data.lam - GOLDEN_RATIO) < 1e-12
        assert certify_growth_rate(data.matrix, data.lam)

    def test_eigenmetric_equation(self):
        data = transition_matrix(rose(GOLDEN))
        assert data.residual < 1e-9
        v = data.eigenmetric
        assert all(x > 0 for x in v)
        assert abs(sum(v) - 1.0) < 1e-12

    def test_row_sums_are_image_lengths(self):
        gm = rose(GOLDEN)
        data = transition_matrix(gm)
        for i, e in enumerate(data.edge_order):
            assert sum(data.matrix[i]) == len(gm.eimg[e])

    def test_volume_after_eigenmetric(self):
        gm, data = with_eigenmetric(rose(GOLDEN))
        assert abs(gm.graph.volume() - 1.0) < 1e-12


class TestMoves:
    def test_collapse_empty_is_identity(self):
        gm = rose(PHI)
        assert gm.collapse_forest(()) is gm

    def test_subdivide_then_collapse_trivial_half(self):
        gm = rose(GOLDEN)
        split = gm.subdivide(1, 0)       # first half has trivial image
        split.check_consistency()
        e1 = [e for e in split.graph.edge_ids() if split.eimg[e] == ()][0]
        back = split.collapse_forest({e1})
        back.check_consistency()
        for g in (1, 2):
            assert is_conjugate(back.induced_generator_image(g), GOLDEN.images[g - 1])

    def test_subdivide_then_remove_valence_two(self):
        gm = rose(GOLDEN)
        split = gm.subdivide(1, 1)
        split.check_consistency()
        new_vertex = split.graph.nv - 1
        merged = split.remove_valence_two(new_vertex)
        merged.check_consistency()
        for g in (1, 2):
            assert is_conjugate(merged.induced_generator_image(g), GOLDEN.images[g - 1])

    def test_fold_merges_edges_with_equal_images(self):
        # map with f(a) = ab, f(b) = ab: not injective, but the fold itself
        # is a legal move on the one-vertex graph with two edges to fold?
        # use a subdivided golden map instead: fold the two halves created by
        # matching initial segments
        gm = rose(GOLDEN)   # f(a) = ab, f(b) = a
        split = gm.subdivide(1, 1)  # a = a1 a2 with f(a1) = a-ish prefix
        split.check_consistency()
        e1 = max(gm.graph.edges) + 1   # first half of old edge 1
        assert split.eimg[e1] == split.eimg[2]
        folded = split.fold(e1, 2)
        folded.check_consistency()
        assert folded.graph.nv == split.graph.nv - 1
        for g in (1, 2):
            assert is_conjugate(folded.induced_generator_image(g), GOLDEN.images[g - 1])

    def test_fold_preserves_rank(self):
        gm = rose(GOLDEN).subdivide(1, 1)
        e1 = max(rose(GOLDEN).graph.edges) + 1
        folded = gm.fold(e1, 2)
        g = folded.graph
        assert len(g.edges) - g.nv + 1 == 2

    def test_fold_keeps_vertex_ids_contiguous(self):
        # folding away vertex 0 renumbers vertex 1 to 0, so the next
        # subdivision's new vertex 1 is a vertex of its own
        folded = rose(GOLDEN).subdivide(1, 1).fold(3, 2)
        assert folded.graph.nv == 1 and folded.graph.base == 0
        assert set(folded.vimg) == {0}
        split = folded.subdivide(3, 1)
        split.check_consistency()
        g = split.graph
        assert {v for ends in g.edges.values() for v in ends} == set(range(g.nv))
        assert len(g.edges) - g.nv + 1 == 2
        for gen in (1, 2):
            assert is_conjugate(split.induced_generator_image(gen),
                                GOLDEN.images[gen - 1])

    def test_fold_rejects_mismatched_images(self):
        gm = rose(PHI)
        with pytest.raises(ValueError):
            gm.fold(1, 2)

    def test_fold_bookkeeping_volumes(self):
        gm, data = with_eigenmetric(rose(GOLDEN))
        vol0 = gm.graph.volume()
        split = gm.subdivide(1, 1)
        assert abs(split.graph.volume() - vol0) < 1e-9
        e1 = max(gm.graph.edges) + 1
        folded = split.fold(e1, 2)
        x = split.graph.lengths[e1]
        assert abs(folded.graph.volume() - (vol0 - x)) < 1e-9


class TestPullback:
    def test_loop_words_after_moves(self):
        gm = rose(GOLDEN).subdivide(1, 1)
        e1 = max(rose(GOLDEN).graph.edges) + 1
        folded = gm.fold(e1, 2)
        # the marking loops still read the generators
        for g in (1, 2):
            assert folded.path_to_word(folded.marking[g - 1]) == (g,)


class TestMoveDispatcher:
    def test_moves_roundtrip_outer_class(self):
        gm = rose(GOLDEN)
        split = gm.subdivide(1, 1)
        e1 = max(gm.graph.edges) + 1
        folded = split.fold(e1, 2)
        for g in (1, 2):
            assert is_conjugate(folded.induced_generator_image(g), GOLDEN.images[g - 1])

    def test_invalid_descriptors_rejected(self):
        gm = rose(PHI)
        with pytest.raises(ValueError):
            gm.fold(1, 2)                 # images differ
        with pytest.raises(ValueError):
            gm.collapse_forest({1})       # a loop is not a forest
        with pytest.raises(ValueError):
            gm.subdivide(1, 3)            # past the end of the image path


class TestPrepared:
    @pytest.mark.parametrize("name", ["golden_geometric", "composite_geometric",
                                      "double_cover_geometric",
                                      "remark_irreducible_atoroidal"])
    def test_refined_representative_is_consistent(self, name):
        endo = parse((CORPUS / f"{name}.endo").read_text()).endo
        tt = find_train_track(endo)
        prepared = scan_pinps(tt, 8)[0].gm
        assert prepared.graph.nv > tt.gm.graph.nv   # the refinement cut edges
        prepared.check_consistency()
        for g in range(1, endo.rank + 1):
            assert prepared.path_to_word(prepared.marking[g - 1]) == (g,)


# ---------------------------------------------------------------------------
# transition oracle: the dense power iteration, kept here as the reference
# for the sparse one
# ---------------------------------------------------------------------------

GEOMETRIC_CLASSIFY = ("composite_geometric", "double_cover_geometric",
                      "golden_geometric", "golden_mirror", "golden_transpose",
                      "remark_irreducible_atoroidal")


def reference_transition_matrix(gm):
    """Every product a full n x n sum, zero entries included."""
    order = tuple(gm.graph.edge_ids())
    idx = {e: i for i, e in enumerate(order)}
    n = len(order)
    m = [[0] * n for _ in range(n)]
    for e in order:
        for x in gm.eimg[e]:
            m[idx[e]][idx[abs(x)]] += 1
    matrix = tuple(tuple(r) for r in m)
    irreducible = _strongly_connected(matrix)
    v = [1.0] * n
    lam = 0.0
    if n:
        for _ in range(2000):
            w = [sum(m[i][j] * v[j] for j in range(n)) + v[i] for i in range(n)]
            s = sum(w)
            if s == 0:
                break
            w = [x / s for x in w]
            if max(abs(w[i] - v[i]) for i in range(n)) < 1e-16:
                v = w
                break
            v = w
        mv = [sum(m[i][j] * v[j] for j in range(n)) for i in range(n)]
        denom = sum(x * x for x in v)
        lam = sum(mv[i] * v[i] for i in range(n)) / denom if denom else 0.0
        if abs(lam - round(lam)) < 1e-12:
            lam = float(round(lam))
    eigenmetric = None
    residual = float("inf")
    if n and irreducible and min(v) > 0:
        total = sum(v)
        eigenmetric = tuple(x / total for x in v)
        mv = [sum(m[i][j] * eigenmetric[j] for j in range(n)) for i in range(n)]
        residual = max(abs(mv[i] - lam * eigenmetric[i]) for i in range(n))
    expanding = irreducible and lam > 1 + 1e-9
    return TransitionData(order, matrix, lam, eigenmetric, irreducible,
                          expanding, residual)


@st.composite
def subdivided_roses(draw):
    """A rose of a random map with nontrivial images, split a few times."""
    rank = draw(st.integers(2, 3))
    letters = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    images = draw(st.lists(st.lists(letters, min_size=1, max_size=6)
                           .map(reduce_word).filter(bool),
                           min_size=rank, max_size=rank))
    gm = rose(Endomorphism(rank, tuple(images)))
    for _ in range(draw(st.integers(0, 6))):
        long = [e for e in gm.graph.edge_ids() if len(gm.eimg[e]) >= 2]
        if not long:
            break
        e = draw(st.sampled_from(long))
        gm = gm.subdivide(e, draw(st.integers(1, len(gm.eimg[e]) - 1)))
    return gm


class TestTransitionOracle:
    @pytest.mark.parametrize("name", GEOMETRIC_CLASSIFY)
    def test_every_call_in_classify_matches_the_dense_product(self, name):
        calls = []
        real = graphmap.transition_matrix

        def checked(gm):
            data = real(gm)
            calls.append(data == reference_transition_matrix(gm))
            return data

        with pytest.MonkeyPatch.context() as patch:
            for module in (graphmap, traintrack, nielsen):
                patch.setattr(module, "transition_matrix", checked)
            run("classify", parse((CORPUS / f"{name}.endo").read_text()))
        assert calls and all(calls)

    @given(subdivided_roses())
    @settings(max_examples=60, deadline=None)
    def test_random_graph_maps_match_the_dense_product(self, gm):
        assert transition_matrix(gm) == reference_transition_matrix(gm)
