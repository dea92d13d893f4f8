import copy
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from endotorus import graphmap, nielsen, traintrack
from endotorus.cli import parse, run
from endotorus.nielsen import stabilize
from endotorus.subgroups import SubgroupGraph, is_injective
from endotorus.traintrack import TrainTrack, find_train_track
from endotorus.words import Endomorphism, conjugate, parse_word, reduce_word
from endotorus.graphmap import (
    EdgeDigraph,
    GraphMap,
    MarkedGraph,
    TransitionData,
    edge_digraph,
    push_path,
    transition_flags,
    transition_matrix,
    transport_path,
    with_eigenmetric,
)
from helpers import certify_growth_rate, check_consistency, reference_refinement

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
        check_consistency(gm)

    def test_identity(self):
        gm = rose(Endomorphism.identity(2))
        assert gm.eimg == {1: (1,), 2: (2,)}

    def test_marking_words(self):
        gm = rose(GOLDEN)
        assert gm.twist == ()
        for g in (1, 2):
            assert gm.path_to_word((g,)) == (g,)

    def test_induced_images(self):
        gm = rose(GOLDEN)
        for g in (1, 2):
            assert gm.path_to_word(gm.map_path((g,))) == GOLDEN.images[g - 1]
        assert_marked(gm, GOLDEN)


class TestTighten:
    # images are reduced by construction; `check_consistency`, run after
    # every move the tests make, holds each map to it

    def test_cancelling_image(self):
        gm = rose(Endomorphism(2, (parse_word("abBa"), parse_word("b"))))
        assert gm.eimg[1] == (1, 1)
        # parse_word already reduces; build an unreduced image by hand
        gm.eimg[1] = (1, 2, -2, 1)
        with pytest.raises(AssertionError, match="not reduced"):
            check_consistency(gm)

    def test_already_tight(self):
        check_consistency(rose(PHI))

    def test_tighten_path(self):
        # edge paths tighten by free reduction on signed edge ids
        assert reduce_word((1, 2, -2, 1)) == (1, 1)


class TestTransition:
    def test_remark_matrix_and_lambda(self):
        gm = rose(PHI)
        data = transition_matrix(gm, edge_digraph(gm))
        assert data.as_lists() == [[1, 1], [1, 1]]
        assert data.lam == 2.0
        assert data.irreducible and data.expanding

    def test_identity_not_expanding(self):
        gm = rose(Endomorphism.identity(2))
        data = transition_matrix(gm, edge_digraph(gm))
        assert data.as_lists() == [[1, 0], [0, 1]]
        assert data.lam == 1.0
        assert not data.expanding

    def test_golden_ratio(self):
        gm = rose(GOLDEN)
        data = transition_matrix(gm, edge_digraph(gm))
        assert data.as_lists() == [[1, 1], [1, 0]]
        assert abs(data.lam - GOLDEN_RATIO) < 1e-12
        assert certify_growth_rate(data.as_lists(), data.lam)

    def test_eigenmetric_equation(self):
        gm = rose(GOLDEN)
        data = transition_matrix(gm, edge_digraph(gm))
        assert data.residual < 1e-9
        v = data.eigenmetric
        assert all(x > 0 for x in v)
        assert abs(sum(v) - 1.0) < 1e-12

    def test_row_sums_are_image_lengths(self):
        gm = rose(GOLDEN)
        data = transition_matrix(gm, edge_digraph(gm))
        for i, e in enumerate(data.edge_order):
            assert sum(data.as_lists()[i]) == len(gm.eimg[e])

    def test_volume_after_eigenmetric(self):
        gm = rose(GOLDEN)
        gm = with_eigenmetric(gm, transition_matrix(gm, edge_digraph(gm)))
        assert abs(gm.graph.volume() - 1.0) < 1e-12


class TestMoves:
    def test_collapse_empty_is_identity(self):
        gm = rose(PHI)
        assert gm.collapse_forest(()) is gm

    def test_subdivide_then_collapse_trivial_half(self):
        gm = rose(GOLDEN)
        split = gm.subdivide(1, 0)       # first half has trivial image
        check_consistency(split)
        e1 = [e for e in split.graph.edge_ids() if split.eimg[e] == ()][0]
        back = split.collapse_forest({e1})
        check_consistency(back)
        assert_marked(back, GOLDEN)

    def test_fold_merges_edges_with_equal_images(self):
        # map with f(a) = ab, f(b) = ab: not injective, but the fold itself
        # is a legal move on the one-vertex graph with two edges to fold?
        # use a subdivided golden map instead: fold the two halves created by
        # matching initial segments
        gm = rose(GOLDEN)   # f(a) = ab, f(b) = a
        split = gm.subdivide(1, 1)  # a = a1 a2 with f(a1) = a-ish prefix
        check_consistency(split)
        e1 = max(gm.graph.edges) + 1   # first half of old edge 1
        assert split.eimg[e1] == split.eimg[2]
        folded = split.fold(e1, 2)
        check_consistency(folded)
        assert folded.graph.nv == split.graph.nv - 1
        assert_marked(folded, GOLDEN)

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
        check_consistency(split)
        g = split.graph
        assert {v for ends in g.edges.values() for v in ends} == set(range(g.nv))
        assert len(g.edges) - g.nv + 1 == 2
        assert_marked(split, GOLDEN)

    def test_fold_rejects_mismatched_images(self):
        # 2 and -4 leave vertex 0 for two vertices, and their images, 3 4 2
        # and -2 -4, read 3 and the empty path once -4 is 2
        gm = nielsen_legs_map()
        assert not gm.folds_whole(2, -4)
        with pytest.raises(ValueError, match="agree"):
            gm.fold(2, -4)

    def test_fold_rejects_parallel_edges(self):
        # the two loops of a rose agree once identified, a -> ab, b -> ba
        # as much as a -> ab, b -> ab, but identifying them drops the rank
        for endo in (PHI, Endomorphism(2, (parse_word("ab"), parse_word("ab")))):
            gm = rose(endo)
            assert not gm.folds_whole(1, 2)
            with pytest.raises(ValueError, match="parallel"):
                gm.fold(1, 2)

    def test_fold_identifies_the_legs_of_a_nielsen_path_whole(self):
        # f(2) = 3 4 . 2 and f(3) = 3 4 . 3: the images differ, and agree
        # once 3 is 2; the fold sends the Nielsen path -2 3 to the empty
        # path and the valence-two vertex 1 away
        gm = nielsen_legs_map()
        check_consistency(gm)
        assert_marked(gm, DOUBLE_COVER)
        assert gm.image_of_edge(2) != gm.image_of_edge(3)
        assert gm.folds_whole(2, 3)
        folded = gm.fold(2, 3)
        check_consistency(folded)
        assert_marked(folded, DOUBLE_COVER)
        assert folded.graph.nv == 1 and sorted(folded.graph.edges) == [2, 4]
        assert folded.eimg == {2: (2, 4, 2), 4: (4, 2)}
        assert transport_path(folded, (-2, 3)) == ()

    def test_fold_bookkeeping_volumes(self):
        gm = rose(GOLDEN)
        gm = with_eigenmetric(gm, transition_matrix(gm, edge_digraph(gm)))
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
        # the fold keeps the base's attachment: the edge loops read b and
        # Ba, and f fixes the base, so the twist stays trivial
        assert folded.labels == {3: (2,), 4: (-2, 1)}
        assert folded.twist == ()
        assert_marked(folded, GOLDEN)


DOUBLE_COVER = Endomorphism(2, (parse_word("aab"), parse_word("ab")))


def nielsen_legs_map():
    """A map of a -> aab, b -> ab: edges 3: 0 -> 1 (label a) and 4: 1 -> 0
    (label 1) make the loop a, and the loop 2 at 0 reads b.  The Nielsen
    path -2 3 has the legs 2 and 3, with f(2) = 3 4 2 and f(3) = 3 4 3."""
    graph = MarkedGraph(2, {3: (0, 1), 4: (1, 0), 2: (0, 0)},
                        {3: 1.0, 4: 1.0, 2: 1.0})
    return GraphMap(graph, {0: 0, 1: 1}, {3: (3, 4, 3), 4: (4, 2), 2: (3, 4, 2)},
                    {3: (1,), 4: (), 2: (2,)})


def off_base_map():
    """A map of phi: a -> ab, b -> b that sends the base 0 to vertex 2:
    edges 1: 0 -> 1 (label b) and 2: 0 -> 2 (label 1) with equal images,
    and loops 3 at 1 (label a) and 4 at 2 (label b), with the empty twist."""
    graph = MarkedGraph(3, {1: (0, 1), 2: (0, 2), 3: (1, 1), 4: (2, 2)},
                        {e: 1.0 for e in (1, 2, 3, 4)})
    eimg = {1: (-2, 1), 2: (-2, 1), 3: (3, -1, 2, 4, -2, 1),
            4: (-1, 2, 4, -2, 1)}
    return GraphMap(graph, {0: 2, 1: 1, 2: 1}, eimg,
                    {1: (2,), 2: (), 3: (1,), 4: (2,)})


class TestTwist:
    ENDO = Endomorphism(2, (parse_word("ab"), parse_word("b")))

    def test_a_move_that_reattaches_the_base_image_twists(self):
        # folding 1 onto 2 re-attaches vertex 2 = f(base) along b^-1, so
        # the twist becomes b; collapsing edge 1 then re-attaches vertex
        # 1 = f(base) along b and the twist is 1 again
        gm = off_base_map()
        check_consistency(gm)
        assert_marked(gm, self.ENDO)
        folded = gm.fold(1, 2)
        check_consistency(folded)
        assert folded.twist == (2,)
        assert_marked(folded, self.ENDO)
        collapsed = folded.collapse_forest({1})
        assert collapsed.twist == ()
        assert_marked(collapsed, self.ENDO)

    def test_subdivide_and_metric_keep_the_twist(self):
        folded = off_base_map().fold(1, 2)
        split = folded.subdivide(3, 1)
        assert split.twist == folded.twist
        data = transition_matrix(split, edge_digraph(split))
        assert with_eigenmetric(split, data).twist == folded.twist
        assert_marked(split, self.ENDO)


class TestMoveDispatcher:
    def test_moves_roundtrip_outer_class(self):
        gm = rose(GOLDEN)
        split = gm.subdivide(1, 1)
        e1 = max(gm.graph.edges) + 1
        folded = split.fold(e1, 2)
        assert_marked(folded, GOLDEN)

    def test_invalid_descriptors_rejected(self):
        gm = rose(PHI)
        with pytest.raises(ValueError):
            gm.fold(1, 2)                 # parallel edges
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
        prepared = reference_refinement(tt, 3).gm
        assert prepared.graph.nv > tt.gm.graph.nv   # the refinement cut edges
        check_consistency(prepared)
        assert_marked(prepared, endo)


# ---------------------------------------------------------------------------
# transition oracle: the dense power iteration, kept here as the reference
# for the sparse one
# ---------------------------------------------------------------------------

GEOMETRIC_CLASSIFY = ("composite_geometric", "double_cover_geometric",
                      "golden_geometric", "golden_mirror", "golden_transpose",
                      "remark_irreducible_atoroidal")


def reference_strongly_connected(matrix):
    """Reachability by scanning every entry of a row."""
    n = len(matrix)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if adj[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    return n == 0 or (reach(matrix) and
                      reach([[matrix[j][i] for j in range(n)] for i in range(n)]))


def reference_transition_matrix(gm):
    """Every product a full n x n sum, zero entries included: the same
    products as the sparse rows, plus the exact 0 * v[j] terms, from the
    same start (the lengths when all are positive, else ones) and with the
    same stops."""
    order = tuple(gm.graph.edge_ids())
    idx = {e: i for i, e in enumerate(order)}
    n = len(order)
    m = [[0] * n for _ in range(n)]
    for e in order:
        for x in gm.eimg[e]:
            m[idx[e]][idx[abs(x)]] += 1
    matrix = tuple(tuple(r) for r in m)
    irreducible = reference_strongly_connected(matrix)
    digraph = EdgeDigraph(
        tuple(tuple(j for j in range(n) if m[i][j]) for i in range(n)),
        tuple(tuple(x for x in m[i] if x) for i in range(n)),
        tuple(tuple(i for i in range(n) if m[i][j]) for j in range(n)))
    v = [gm.graph.lengths[e] for e in order]
    if not all(x > 0 for x in v):
        v = [1.0] * n
    back = saved = None
    lam = 0.0
    steps = 0
    if n:
        for steps in range(1, 2001):
            w = [sum(m[i][j] * v[j] for j in range(n)) + v[i] for i in range(n)]
            s = sum(w)
            if s == 0:
                break
            w = [x / s for x in w]
            if max(abs(w[i] - v[i]) for i in range(n)) < 1e-16 or w in (back, saved):
                v = w
                break
            if steps in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
                saved = w
            (back, v) = (v, w)
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
    return TransitionData(order, digraph, lam, eigenmetric, irreducible,
                          expanding, residual, steps)


@st.composite
def random_maps(draw, max_len):
    """A rank-2/3 map with nontrivial images of up to max_len letters."""
    rank = draw(st.integers(2, 3))
    letters = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    images = draw(st.lists(st.lists(letters, min_size=1, max_size=max_len)
                           .map(reduce_word).filter(bool),
                           min_size=rank, max_size=rank))
    return Endomorphism(rank, tuple(images))


@st.composite
def subdivided_roses(draw):
    """A rose of a random map with nontrivial images, split a few times."""
    gm = rose(draw(random_maps(6)))
    for _ in range(draw(st.integers(0, 6))):
        long = [e for e in gm.graph.edge_ids() if len(gm.eimg[e]) >= 2]
        if not long:
            break
        e = draw(st.sampled_from(long))
        gm = gm.subdivide(e, draw(st.integers(1, len(gm.eimg[e]) - 1)))
    return gm


def classify_calls(name):
    """(graph map, transition data) of every transition_matrix call inside
    `classify` of a corpus input."""
    calls = []
    real = graphmap.transition_matrix

    def recording(gm, digraph):
        data = real(gm, digraph)
        calls.append((gm, data))
        return data

    with pytest.MonkeyPatch.context() as patch:
        for module in (graphmap, traintrack, nielsen):
            patch.setattr(module, "transition_matrix", recording)
        run("classify", parse((CORPUS / f"{name}.endo").read_text()))
    return calls


class TestTransitionOracle:
    # repr compares the floats bit for bit (and nan, -0.0 and inf as well)
    @pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.endo")))
    def test_every_call_in_classify_matches_the_dense_product(self, name):
        calls = classify_calls(name)
        for (gm, data) in calls:
            assert repr(data) == repr(reference_transition_matrix(gm))
        assert calls or name not in GEOMETRIC_CLASSIFY

    @given(subdivided_roses())
    @settings(max_examples=60, deadline=None)
    def test_random_graph_maps_match_the_dense_product(self, gm):
        assert repr(transition_matrix(gm, edge_digraph(gm))) == repr(reference_transition_matrix(gm))

    def test_an_empty_row_matches_the_dense_product(self):
        gm = rose(Endomorphism(2, (parse_word("aab"), ())))
        assert repr(transition_matrix(gm, edge_digraph(gm))) == repr(reference_transition_matrix(gm))

    @given(st.integers(0, 7).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_strong_connectivity_matches_the_dense_scan(self, matrix):
        # the rose whose edge i maps to edge j M[i][j] times, in column
        # order; built by hand, since an Endomorphism has rank at least 1
        n = len(matrix)
        graph = MarkedGraph(1, {i: (0, 0) for i in range(1, n + 1)},
                            {i: 1.0 for i in range(1, n + 1)})
        eimg = {i: tuple(j for (j, x) in enumerate(row, 1) for _ in range(x))
                for (i, row) in enumerate(matrix, 1)}
        gm = GraphMap(graph, {0: 0}, eimg, {i: (i,) for i in range(1, n + 1)})
        data = transition_matrix(gm, edge_digraph(gm))
        assert data.as_lists() == matrix
        assert data.irreducible == reference_strongly_connected(matrix)


# ---------------------------------------------------------------------------
# the exact flags against the float rule they replaced
# ---------------------------------------------------------------------------

def assert_flags_match_the_float_rule(gm):
    """`transition_flags` against the oracle's `irreducible` and its
    `expanding`, which is `irreducible and lam > 1 + 1e-9` on the power
    iteration."""
    ref = reference_transition_matrix(gm)
    flags = transition_flags(edge_digraph(gm))
    assert flags == (ref.irreducible, ref.expanding)
    return (flags, ref.lam)


@st.composite
def signed_permutations(draw):
    """A rank-2..6 automorphism sending each generator to another one or
    its inverse."""
    rank = draw(st.integers(2, 6))
    perm = draw(st.permutations(range(1, rank + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
    return Endomorphism(rank, tuple((s * g,) for (s, g) in zip(signs, perm)))


class TestTransitionFlags:
    @given(subdivided_roses())
    @settings(max_examples=100, deadline=None)
    def test_random_graph_maps_match_the_float_rule(self, gm):
        assert_flags_match_the_float_rule(gm)

    @given(signed_permutations())
    @settings(max_examples=60, deadline=None)
    def test_signed_permutations_do_not_expand(self, endo):
        # lambda = 1; the rose is irreducible when the permutation is one
        # cycle
        ((irreducible, expanding), lam) = assert_flags_match_the_float_rule(rose(endo))
        assert not expanding and lam == 1.0
        cycle = [1]
        while abs(endo.images[cycle[-1] - 1][0]) != 1:
            cycle.append(abs(endo.images[cycle[-1] - 1][0]))
        assert irreducible == (len(cycle) == endo.rank)

    @pytest.mark.parametrize("tail", [(1, 2), (1, 1)], ids=["l^n=l+1", "l^n=2"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_roots_near_one_expand(self, n, tail):
        # a_1 -> a_2, ..., a_{n-1} -> a_n and a_n -> a_1 a_2 or a_1 a_1:
        # lambda^n = lambda + 1 or lambda^n = 2, down to 1.0866 at n = 8
        endo = Endomorphism(n, tuple((i,) for i in range(2, n + 1)) + (tail,))
        (flags, lam) = assert_flags_match_the_float_rule(rose(endo))
        assert flags == (True, True)
        assert abs(lam ** n - (lam + 1 if tail == (1, 2) else 2)) < 1e-9


# ---------------------------------------------------------------------------
# the start of the power iteration: the map's own lengths against ones
# ---------------------------------------------------------------------------

def with_lengths(gm, lengths):
    """The graph map with its edge lengths replaced."""
    g = gm.graph
    graph = MarkedGraph(g.nv, dict(g.edges), dict(lengths), g.base)
    return GraphMap(graph, gm.vimg, gm.eimg, gm.labels, gm.twist, gm.history)


def cold_start(gm):
    """transition_matrix of gm started from ones, whatever the lengths."""
    gm = with_lengths(gm, {e: 1.0 for e in gm.graph.lengths})
    return transition_matrix(gm, edge_digraph(gm))


def assert_warm_is_cold(gm):
    """The same data from the lengths and from ones.  A cold run that ends
    on the 2000-step budget has not settled lambda from any start: on
    a -> a, b -> ab (M = ((1, 0), (1, 1)), a Jordan block) the Rayleigh
    quotient still reads 1.000999 there, so lambda is compared only when
    the cold run stopped on its own."""
    (warm, cold) = (transition_matrix(gm, edge_digraph(gm)), cold_start(gm))
    assert (warm.edge_order, warm.digraph, warm.irreducible, warm.expanding) == \
        (cold.edge_order, cold.digraph, cold.irreducible, cold.expanding)
    assert cold.steps < 2000 or not cold.irreducible
    if cold.steps < 2000:
        assert abs(warm.lam - cold.lam) <= 1e-12
    assert (warm.eigenmetric is None) == (cold.eigenmetric is None)
    if warm.eigenmetric is not None:
        assert max(abs(x - y) for (x, y) in
                   zip(warm.eigenmetric, cold.eigenmetric)) <= 1e-12


class TestWarmStart:
    @pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.endo")))
    def test_every_call_in_classify_matches_the_cold_start(self, name):
        for (gm, _) in classify_calls(name):
            assert_warm_is_cold(gm)

    @given(subdivided_roses(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_lengths_match_the_cold_start(self, gm, data):
        lengths = {e: data.draw(st.floats(0.01, 10.0)) for e in gm.graph.edge_ids()}
        assert_warm_is_cold(with_lengths(gm, lengths))

    def test_a_zero_length_starts_from_ones(self):
        # M = ((2, 0), (1, 1)): from the lengths (0, 1) the iteration would
        # never see the block of edge 1 and would read lambda = 1
        gm = rose(Endomorphism(2, (parse_word("aa"), parse_word("ba"))))
        gm = with_lengths(gm, {1: 0.0, 2: 1.0})
        data = transition_matrix(gm, edge_digraph(gm))
        assert not data.irreducible
        assert data.lam == cold_start(gm).lam == 2.0

    def test_a_float_cycle_stops_the_iteration(self):
        # M = ((2, 2, 2), (1, 1, 0), (1, 2, 1)): from ones the iterates
        # alternate between two vectors from about step 25
        gm = rose(Endomorphism(3, tuple(map(parse_word, ("aabbcc", "ab", "abbc")))))
        data = transition_matrix(gm, edge_digraph(gm))
        assert data.as_lists() == [[2, 2, 2], [1, 1, 0], [1, 2, 1]]
        assert data.steps < 100
        assert data.lam == 3.8751297941627785

    @pytest.mark.parametrize("images", [("bb", "abbb"), ("aaab", "aa")])
    def test_a_longer_float_cycle_stops_the_iteration(self, images):
        # M = ((0, 2), (1, 3)) and ((3, 1), (2, 0)), both with lambda^2 =
        # 3 lambda + 2: from ones the iterates settle into a cycle longer
        # than two steps, and used to run out the 2000-step budget
        endo = Endomorphism(2, tuple(map(parse_word, images)))
        gm = rose(endo)
        data = transition_matrix(gm, edge_digraph(gm))
        assert data.steps < 100
        assert abs(data.lam - (3 + math.sqrt(17)) / 2) <= 1e-12
        assert_warm_is_cold(gm)
        # the rose is a train track, so the fold loop returns this data
        assert find_train_track(endo).data == data

    def test_geometric_classify_takes_few_steps(self):
        # from ones, these calls took 3,793 steps
        assert sum(data.steps for name in GEOMETRIC_CLASSIFY
                   for (_, data) in classify_calls(name)) < 400


# ---------------------------------------------------------------------------
# edge labels: every intermediate graph of the pipeline stays marked
# ---------------------------------------------------------------------------

def moves(endo):
    """(map before, map after) of every subdivision, fold, forest collapse
    or refinement inside find_train_track and, on a train track, stabilize.
    The map after is a shallow copy taken as the move returns, so its
    `history` is the move's own even after `fold_at_pair` prepends its
    subdivisions to the original's."""
    made = []

    def recording(real):
        def wrapper(gm, *args, **kwargs):
            out = real(gm, *args, **kwargs)
            made.append((gm, copy.copy(out)))
            return out
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in ("subdivide", "fold", "collapse_forest"):
            patch.setattr(GraphMap, name, recording(getattr(GraphMap, name)))
        patch.setattr(nielsen, "refine_at_points", recording(nielsen.refine_at_points))
        tt = find_train_track(endo, max_iterations=15)
        if isinstance(tt, TrainTrack) and tt.data.expanding:
            try:
                stabilize(tt, period_bound=3)
            except ValueError:
                # the Nielsen path scan stops on a loop that f kills
                assert not is_injective(endo)
    return made


def moved_graph_maps(endo):
    """Every GraphMap made by a move of `moves`."""
    return [after for (_, after) in moves(endo)]


def base_loop(gm, d):
    """The direction d closed into a loop at the base along BFS paths."""
    g = gm.graph
    return (g.shortest_path(g.base, g.init_of(d)) + (d,)
            + g.shortest_path(g.term_of(d), g.base))


def assert_marked(gm, endo):
    """The edge loops' words generate F, and phi(word(loop)) is
    twist . word(f(loop)) . twist^-1 for each, exactly.  Both orientations
    are needed: a tree edge's loop, read against the tree, may come back
    along the same edge and be trivial."""
    loops = [base_loop(gm, d) for d in gm.graph.all_directions()]
    words = [gm.path_to_word(lp) for lp in loops]
    assert SubgroupGraph.from_generators(endo.rank, words).index() == 1
    for w, lp in zip(words, loops):
        assert endo.apply(w) == conjugate(gm.path_to_word(gm.map_path(lp)),
                                          gm.twist)


class TestLabels:
    @given(random_maps(4))
    @settings(max_examples=50, deadline=None)
    def test_every_intermediate_graph_is_marked(self, endo):
        for gm in moved_graph_maps(endo):
            check_consistency(gm)
            assert_marked(gm, endo)


# ---------------------------------------------------------------------------
# push maps: each move's recorded push map is the substitution it applied
# ---------------------------------------------------------------------------

def assert_pushed(before, after):
    """The images of the edges the move keeps are the old ones carried
    across by `transport_path`, and they are paths of the new graph."""
    check_consistency(after)
    for e in set(before.eimg) & set(after.eimg):
        assert after.eimg[e] == transport_path(after, before.eimg[e])


class TestPushMaps:
    def test_push_path_rule(self):
        push = {1: (3, 4), 2: ()}
        assert push_path((1, 5, -1), push) == (3, 4, 5, -4, -3)
        assert push_path((5, 2, -5), push) == ()           # reduced as it goes
        assert push_path((-1, 1), push) == ()
        assert push_path((5, 6), push) == (5, 6)           # other edges stay

    @pytest.mark.parametrize("name", GEOMETRIC_CLASSIFY)
    def test_corpus_moves_carry_their_paths(self, name):
        endo = parse((CORPUS / f"{name}.endo").read_text()).endo
        pairs = moves(endo)
        # and a refinement at many cuts, which the pipeline makes only at
        # the ends of Nielsen paths (on remark_irreducible_atoroidal, none)
        tt = find_train_track(endo)
        pairs.append((tt.gm, reference_refinement(tt, 3).gm))
        assert pairs[0][1] is not tt.gm
        for (before, after) in pairs:
            assert_pushed(before, after)

    @pytest.mark.parametrize("text", [
        # fold loops that run out the fold budget, and a -> a^k b, b -> a
        "a -> A b; b -> b a;", "a -> A b a; b -> b a;",
        "a -> a b A; b -> a b;", "a -> b a; b -> b b a B;",
        "a -> a a a b; b -> a;", "a -> a a a a a a b; b -> a;"])
    def test_long_fold_loops_carry_their_paths(self, text):
        pairs = moves(parse(f"rank 2; {text}").endo)
        assert pairs
        for (before, after) in pairs:
            assert_pushed(before, after)

    @given(random_maps(4))
    @settings(max_examples=25, deadline=None)
    def test_random_moves_carry_their_paths(self, endo):
        for (before, after) in moves(endo):
            assert_pushed(before, after)
