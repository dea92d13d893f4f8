import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from endotorus.cli import parse
from endotorus.words import (
    Endomorphism,
    concat,
    conjugate,
    find_conjugator,
    invert,
    parse_word,
    reduce_word,
)
from endotorus.graphmap import GraphMap, MarkedGraph, edge_digraph, transition_matrix
from endotorus.surface import classify
from endotorus.traintrack import (
    FiniteOrderCertificate,
    ReductionWitness,
    TrainTrack,
    Unknown,
    direction_map,
    find_train_track,
    gates,
    illegal_crossings,
    illegal_turns,
    invariant_sets,
    is_finite_order,
    verify_reduction_witness,
)
from endotorus import subgroups as sg
from endotorus import graphmap
from endotorus import traintrack as tt_module
from helpers import check_consistency, reference_refinement

PHI = Endomorphism(2, (parse_word("ab"), parse_word("ba")))
GOLDEN = Endomorphism(2, (parse_word("ab"), parse_word("a")))
PSI = Endomorphism(3, (parse_word("ab"), parse_word("ba"), parse_word("a")))
SWAP = Endomorphism(2, (parse_word("b"), parse_word("a")))
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


FINITE_ORDER_POWER = 12        # iterates the reference tests for being inner
FINITE_ORDER_CONJUGATOR = 24   # longest conjugator the reference tries


def reference_finite_order(endo):
    """A bounded search with no theory behind it: compose every power up to
    FINITE_ORDER_POWER and solve for a common conjugator of length at most
    FINITE_ORDER_CONJUGATOR at each."""
    current = Endomorphism.identity(endo.rank)
    for k in range(1, FINITE_ORDER_POWER + 1):
        current = endo.compose(current)
        g1 = (1,)
        u = find_conjugator(g1, current.images[0])
        if u is None:
            continue
        for j in range(-FINITE_ORDER_CONJUGATOR, FINITE_ORDER_CONJUGATOR + 1):
            x = concat(u, g1 * abs(j) if j >= 0 else invert(g1 * abs(j)))
            if len(x) > FINITE_ORDER_CONJUGATOR:
                continue
            if all(conjugate((i,), x) == current.images[i - 1]
                   for i in range(1, endo.rank + 1)):
                return FiniteOrderCertificate(k, x)
    return None


@st.composite
def injective_maps(draw):
    """Random injective rank-2/3 maps: short images, or a signed permutation
    of the generators followed by an inner automorphism (finite order)."""
    rank = draw(st.integers(2, 3))
    letters = st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)])
    if draw(st.booleans()):
        images = [draw(st.lists(letters, min_size=1, max_size=2))
                  for _ in range(rank)]
    else:
        perm = draw(st.permutations(range(1, rank + 1)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank,
                              max_size=rank))
        x = draw(st.lists(letters, max_size=2))
        images = [conjugate((s * g,), x) for (s, g) in zip(signs, perm)]
    endo = Endomorphism(rank, tuple(tuple(im) for im in images))
    assume(all(endo.images) and sg.is_injective(endo))
    return endo


@st.composite
def twisted_permutations(draw):
    """i_x after a random signed permutation of the generators, |x| <= 60."""
    rank = draw(st.integers(2, 3))
    perm = draw(st.permutations(range(1, rank + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
    letters = st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)])
    x = reduce_word(draw(st.lists(letters, max_size=60)))
    return Endomorphism(rank, tuple(conjugate((s * g,), x)
                                    for (s, g) in zip(signs, perm)))


def matrix_order(endo):
    """The least k with M^k = I, by composing the map; a signed permutation
    of at most three generators has order at most 6."""
    ident = Endomorphism.identity(endo.rank).abelianized()
    power = endo
    for k in range(1, 7):
        if power.abelianized() == ident:
            return k
        power = endo.compose(power)
    raise AssertionError("not a signed permutation")


TRAIN_TRACK_INPUTS = ("composite_geometric", "double_cover_geometric",
                      "expanding_double", "golden_geometric", "golden_mirror",
                      "golden_transpose", "noninjective_equal_images",
                      "nonsurjective_mixed", "plastic_rank3",
                      "remark_irreducible_atoroidal")


def reference_gates(gm):
    """The iterated-partition loop: number the kernel of Df^k, k = 0, 1, ...,
    by first appearance, until one repeats."""
    dmap = direction_map(gm)
    dirs = gm.graph.all_directions()
    cur = {d: d for d in dirs}

    def partition_of(m):
        classes: dict = {}
        return {d: classes.setdefault(m[d], len(classes)) for d in dirs}

    part = partition_of(cur)
    for _ in range(2 * len(dirs) + 1):
        cur = {d: dmap[cur[d]] for d in dirs}
        new_part = partition_of(cur)
        if new_part == part:
            break
        part = new_part
    return part


@st.composite
def subdivided_roses(draw, splits=8):
    """The rose of a rank-2/3 map with nonempty images of up to 6 letters,
    split up to `splits` times strictly inside an image, so every image
    stays nonempty and the direction map is defined."""
    rank = draw(st.integers(2, 3))
    letters = st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)])
    images = [draw(st.lists(letters, min_size=1, max_size=6)) for _ in range(rank)]
    gm = GraphMap.rose(Endomorphism(rank, tuple(tuple(im) for im in images)))
    assume(all(gm.eimg.values()))
    for _ in range(draw(st.integers(0, splits))):
        long = [e for e in gm.graph.edge_ids() if len(gm.eimg[e]) >= 2]
        if not long:
            break
        e = draw(st.sampled_from(long))
        gm = gm.subdivide(e, draw(st.integers(1, len(gm.eimg[e]) - 1)))
    return gm


class TestGates:
    @given(subdivided_roses())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_iterated_partition(self, gm):
        assert gates(gm) == reference_gates(gm)

    @pytest.mark.parametrize("name", TRAIN_TRACK_INPUTS)
    def test_corpus_train_tracks_match_the_iterated_partition(self, name):
        tt = find_train_track(parse((CORPUS / f"{name}.endo").read_text()).endo)
        assert isinstance(tt, TrainTrack)
        assert tt.gate_map == gates(tt.gm) == reference_gates(tt.gm)
        prepared = reference_refinement(tt, 3).gm   # many interior cuts
        assert gates(prepared) == reference_gates(prepared)

    @given(subdivided_roses())
    @settings(max_examples=50, deadline=None)
    def test_a_given_direction_map_gives_the_same_gates(self, gm):
        assert gates(gm, direction_map(gm)) == gates(gm)

    def test_one_direction_map_per_fold_iteration(self, monkeypatch):
        # every iteration on this map folds, and none collapses a forest
        calls = []
        real = tt_module.direction_map

        def counted(gm):
            calls.append(gm)
            return real(gm)

        monkeypatch.setattr(tt_module, "direction_map", counted)
        result = find_train_track(
            Endomorphism(2, (parse_word("Ab"), parse_word("ba"))), max_iterations=30)
        assert isinstance(result, Unknown)
        assert len(calls) == 30

    def test_remark_map_has_no_illegal_turns(self):
        gm = GraphMap.rose(PHI)
        gate_map = gates(gm)
        # direction map is a permutation, so all gates are singletons
        assert len(set(gate_map.values())) == len(gate_map)
        assert illegal_crossings(gm, gate_map) == []

    def test_golden_gates(self):
        gm = GraphMap.rose(GOLDEN)
        gate_map = gates(gm)
        # directions a and b share a gate (both map to a); their reverses do not
        assert gate_map[1] == gate_map[2]
        assert gate_map[-1] != gate_map[-2]
        assert gate_map[-1] != gate_map[1]

    def test_legality_along_paths(self):
        gm = GraphMap.rose(GOLDEN)
        gate_map = gates(gm)
        assert illegal_turns(gate_map, ()) == []
        assert illegal_turns(gate_map, (1,)) == []
        assert illegal_turns(gate_map, (1, -1)) == [0]      # degenerate turn
        assert illegal_turns(gate_map, (1, 2)) == []        # turn {A, b} legal
        assert illegal_turns(gate_map, (-1, 2)) == [0]      # turn {a, b} illegal
        # every illegal turn, in order, not only the first
        assert illegal_turns(gate_map, (-1, 2, 1, 2, -1, 2)) == [0, 4]


class TestInvariantSubgraph:
    def test_irreducible_has_none(self):
        gm = GraphMap.rose(PHI)
        assert invariant_sets(gm, edge_digraph(gm))[0] is None

    def test_extension_invariant_pair(self):
        gm = GraphMap.rose(PSI)
        sub = invariant_sets(gm, edge_digraph(gm))[0]
        assert sub == frozenset({1, 2})

    def test_dehn_twist_like(self):
        gm = GraphMap.rose(Endomorphism(2, (parse_word("a"), parse_word("ba"))))
        assert invariant_sets(gm, edge_digraph(gm))[0] == frozenset({1})


def reference_rank(gm, edge_set):
    """Rank of the fundamental group of the subgraph spanned by edge_set:
    edges - vertices + components, with components by union-find."""
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for e in edge_set:
        (a, b) = gm.graph.edges[e]
        parent[find(a)] = find(b)
    return len(edge_set) - len(parent) + len({find(v) for v in list(parent)})


def maximal_invariant_sets(gm):
    """Every maximal proper edge set S with f(S) inside S, by listing every
    subset."""
    edges = gm.graph.edge_ids()
    invariant = [frozenset(s) for k in range(1, len(edges))
                 for s in itertools.combinations(edges, k)
                 if all(abs(x) in s for e in s for x in gm.eimg[e])]
    return [s for s in invariant if not any(s < t for t in invariant)]


def assert_matches_subset_enumeration(gm):
    """invariant_sets picks a largest carrying set and a forest among the
    maximal proper invariant sets, and None only when there is none."""
    (sub, forest) = invariant_sets(gm, edge_digraph(gm))
    sets = maximal_invariant_sets(gm)
    carrying = [s for s in sets if reference_rank(gm, s) > 0]
    forests = [s for s in sets if reference_rank(gm, s) == 0]
    if carrying:
        assert sub in carrying
        assert len(sub) == max(map(len, carrying))
    else:
        assert sub is None
    if forests:
        assert forest in forests
    else:
        assert forest is None


def assert_collapses_to_one_vertex(gm, forest, endo):
    collapsed = gm.collapse_forest(forest)
    check_consistency(collapsed)
    assert collapsed.graph.nv == 1
    for e in collapsed.graph.edge_ids():
        w = collapsed.path_to_word((e,))
        assert endo.apply(w) == conjugate(
            collapsed.path_to_word(collapsed.eimg[e]), collapsed.twist)


class TestInvariantSets:
    def forest_map(self, base):
        """Loops 1 at vertex 0 (label a) and 2 at vertex 1 (label b), edge 3
        from 0 to 1 (label 1); f(1) = 3 2 -3 1, f(2) = -3 1 3 2 and f(3) = 3,
        fixing both vertices: the map a -> ba, b -> ab, read at either end
        of the tree edge 3."""
        graph = MarkedGraph(2, {1: (0, 0), 2: (1, 1), 3: (0, 1)},
                            {1: 1.0, 2: 1.0, 3: 1.0}, base)
        eimg = {1: (3, 2, -3, 1), 2: (-3, 1, 3, 2), 3: (3,)}
        return GraphMap(graph, {0: 0, 1: 1}, eimg, {1: (1,), 2: (2,), 3: ()})

    @pytest.mark.parametrize("base", [0, 1])
    def test_forest_branch_collapses_to_one_vertex(self, base):
        gm = self.forest_map(base)
        check_consistency(gm)
        assert not transition_matrix(gm, edge_digraph(gm)).irreducible
        assert invariant_sets(gm, edge_digraph(gm)) == (None, frozenset({3}))
        assert_matches_subset_enumeration(gm)
        assert_collapses_to_one_vertex(
            gm, frozenset({3}), Endomorphism(2, (parse_word("ba"), parse_word("ab"))))

    def test_the_forest_is_a_maximal_invariant_set(self):
        # the path 1 (0 -> 1), 2 (1 -> 2) with loops 3 at 0 (label a) and 4
        # at 2 (label b), f swapping vertices 1 and 2: the map a -> ab,
        # b -> ba.  The edges reaching edge 1 are 1, 3 and 4, whose
        # complement {2} is an invariant forest but not a maximal one: edge
        # 1 is no source, and the source {3, 4} leaves the path {1, 2}
        graph = MarkedGraph(3, {1: (0, 1), 2: (1, 2), 3: (0, 0), 4: (2, 2)},
                            {e: 1.0 for e in (1, 2, 3, 4)})
        eimg = {1: (1, 2), 2: (-2,), 3: (3, 1, 2, 4, -2, -1),
                4: (2, 4, -2, -1, 3, 1)}
        gm = GraphMap(graph, {0: 0, 1: 2, 2: 1}, eimg,
                      {1: (), 2: (), 3: (1,), 4: (2,)})
        check_consistency(gm)
        assert invariant_sets(gm, edge_digraph(gm)) == (None, frozenset({1, 2}))
        assert_matches_subset_enumeration(gm)
        assert_collapses_to_one_vertex(gm, frozenset({1, 2}), PHI)

    @given(subdivided_roses(splits=5))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_subset_enumeration(self, gm):
        assert_matches_subset_enumeration(gm)

    @given(subdivided_roses())
    @settings(max_examples=150, deadline=None)
    def test_some_set_exactly_when_reducible(self, gm):
        # a source component of a reducible M is proper, so the folding
        # loop's reducible branch always has a subgraph or a forest
        data = transition_matrix(gm, edge_digraph(gm))
        assert data.irreducible == (invariant_sets(gm, data.digraph) == (None, None))


class TestFiniteOrder:
    def test_swap(self):
        cert = is_finite_order(SWAP)
        assert cert is not None and cert.power == 2 and cert.conjugator == ()

    def test_identity(self):
        cert = is_finite_order(Endomorphism.identity(2))
        assert cert is not None and cert.power == 1

    def test_inner(self):
        inner = Endomorphism.inner(2, parse_word("ab"))
        cert = is_finite_order(inner)
        assert cert is not None and cert.power == 1 and cert.conjugator == parse_word("ab")

    def test_expanding_map_is_not(self):
        assert is_finite_order(PHI) is None

    def test_homology_prefilter_skips_composition(self):
        # phi^2 of squares_reducible doubles every length four times per
        # power; its homology matrix 4I has no power equal to I
        phi = parse((CORPUS / "squares_reducible.endo").read_text()).endo
        square = phi.compose(phi)
        start = time.process_time()
        assert is_finite_order(square) is None
        assert time.process_time() - start < 0.01

    def test_non_conjugate_generator_image_skips_the_solve(self, monkeypatch):
        # c -> c [a, b] acts trivially on homology (M^k = I for every k) but
        # has infinite order: c's image never cyclically reduces to c
        twist = Endomorphism(3, (parse_word("a"), parse_word("b"),
                                 parse_word("cabAB")))
        calls = []
        monkeypatch.setattr(tt_module, "find_conjugator",
                            lambda *args: calls.append(args))
        assert is_finite_order(twist) is None
        assert calls == []

    def test_long_inner_automorphisms(self):
        rng = random.Random(13)
        for length in (25, 40, 200):
            x = ()
            while len(x) < length:
                x = reduce_word(x + (rng.choice((1, -1, 2, -2)),))
            cert = is_finite_order(Endomorphism.inner(2, x))
            assert cert == FiniteOrderCertificate(1, x)

    @given(twisted_permutations())
    @settings(max_examples=60, deadline=None)
    def test_twisted_permutations_have_the_order_of_their_matrix(self, endo):
        verdict = classify(endo)
        assert verdict.kind == "finite_order"
        cert = verdict.finite_order
        assert cert.power == matrix_order(endo)
        assert endo.power(cert.power) == Endomorphism.inner(endo.rank,
                                                             cert.conjugator)

    @given(injective_maps())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_unfiltered_search(self, endo):
        assert is_finite_order(endo) == reference_finite_order(endo)


class TestFindTrainTrack:
    def test_remark_map_is_already_a_train_track(self):
        result = find_train_track(PHI)
        assert isinstance(result, TrainTrack)
        assert result.data.as_lists() == [[1, 1], [1, 1]]
        assert result.stretch == 2.0
        assert illegal_crossings(result.gm, result.gate_map) == []

    def test_golden_map(self):
        result = find_train_track(GOLDEN)
        assert isinstance(result, TrainTrack)
        assert abs(result.stretch - 1.6180339887498949) < 1e-9
        # edge images legal, volume one
        assert abs(result.gm.graph.volume() - 1.0) < 1e-9
        for e in result.gm.graph.edge_ids():
            assert illegal_turns(result.gate_map, result.gm.eimg[e]) == []

    def test_extension_reduction(self):
        result = find_train_track(PSI)
        assert isinstance(result, ReductionWitness)
        assert result.factors[0].graph is not None
        assert len(result.factors) == 1
        factor = sg.stallings(3, result.factors[0].basis)
        assert factor.contains(parse_word("a")) and factor.contains(parse_word("b"))
        assert not factor.contains(parse_word("c"))

    def test_swap_finite_order(self):
        result = find_train_track(SWAP)
        assert isinstance(result, FiniteOrderCertificate)
        assert result.power == 2

    def test_fold_loop_certificate_is_the_exact_test(self):
        # the verdict takes finite order from `is_finite_order` alone; the
        # fold loop certifies finite order only where that test does
        certified = 0
        for path in sorted(CORPUS.glob("*.endo")):
            endo = parse(path.read_text()).endo
            result = find_train_track(endo)
            if isinstance(result, FiniteOrderCertificate):
                assert is_finite_order(endo) == result, path.name
                certified += 1
        assert certified

    def test_dehn_twist_reduction(self):
        twist = Endomorphism(2, (parse_word("a"), parse_word("ba")))
        result = find_train_track(twist)
        assert isinstance(result, ReductionWitness)
        assert result.factors[0].graph is not None
        basis = result.factors[0].basis
        assert sg.stallings(2, basis) == sg.stallings(2, [parse_word("a")])

    def test_train_track_iterates_stay_tight(self):
        result = find_train_track(GOLDEN)
        gm = result.gm
        for e in gm.graph.edge_ids():
            p = gm.eimg[e]
            for _ in range(5):
                q = gm.map_path(p)
                # map_path tightens as it goes; the train track property says
                # no cancellation happens at all
                total = sum(len(gm.eimg[abs(x)]) for x in p)
                assert len(q) == total
                p = q

    def test_outer_class_preserved(self):
        # phi(word(loop)) = twist . word(f(loop)) . twist^-1 on every edge's
        # base loop
        for endo in (PHI, GOLDEN):
            result = find_train_track(endo)
            assert isinstance(result, TrainTrack)
            gm = result.gm
            g = gm.graph
            for d in g.all_directions():
                loop = (g.shortest_path(g.base, g.init_of(d)) + (d,)
                        + g.shortest_path(g.term_of(d), g.base))
                assert endo.apply(gm.path_to_word(loop)) == conjugate(
                    gm.path_to_word(gm.map_path(loop)), gm.twist)

    @pytest.mark.parametrize("name", ["golden_geometric", "plastic_rank3"])
    def test_transition_data_is_computed_once_per_map(self, name, monkeypatch):
        # the returned track carries the data the loop computed for its
        # images; setting the eigenmetric does not compute it again
        calls = []
        real = tt_module.transition_matrix

        def recording(gm, digraph):
            calls.append((gm, real(gm, digraph)))
            return calls[-1][1]

        monkeypatch.setattr(tt_module, "transition_matrix", recording)
        monkeypatch.setattr(graphmap, "transition_matrix", recording)
        result = find_train_track(parse((CORPUS / f"{name}.endo").read_text()).endo)
        assert isinstance(result, TrainTrack)
        assert len({id(gm) for (gm, _) in calls}) == len(calls)
        assert result.data is calls[-1][1]
        assert result.gm.eimg == calls[-1][0].eimg

    @pytest.mark.parametrize("source,max_iterations,kind", [
        ("rank 3; a -> c c c b; b -> b a; c -> B B A;", 500, TrainTrack),
        ((CORPUS / "inner_rank2.endo").read_text(), 60, Unknown),
        ((CORPUS / "squares_reducible.endo").read_text(), 500, ReductionWitness),
    ], ids=["three_folds", "inner_rank2", "squares_reducible"])
    def test_transition_matrix_runs_only_for_a_returned_train_track(
            self, source, max_iterations, kind, monkeypatch):
        # the loop reads its flags off the edge digraph; lambda and the
        # eigenmetric are computed once, for the train track it returns
        calls = []
        real = tt_module.transition_matrix

        def recording(gm, digraph):
            calls.append(real(gm, digraph))
            return calls[-1]

        monkeypatch.setattr(tt_module, "transition_matrix", recording)
        monkeypatch.setattr(graphmap, "transition_matrix", recording)
        result = find_train_track(parse(source).endo, max_iterations)
        assert isinstance(result, kind)
        if kind is TrainTrack:
            assert len(calls) == 1 and calls[0] is result.data
        else:
            assert calls == []

    def test_history_holds_only_the_last_move(self, monkeypatch):
        # every graph map keeps the push maps of the move that made it, so
        # the folding loop does not pile them up: fold_at_pair makes at
        # most 8 subdivisions and one fold
        made = []
        real_init = GraphMap.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(GraphMap, "__init__", recording_init)
        endo = parse((CORPUS / "inner_rank2.endo").read_text()).endo
        find_train_track(endo, max_iterations=60)
        assert len(made) > 60
        assert max(len(gm.history) for gm in made) <= 9

    def test_deterministic(self):
        a = find_train_track(GOLDEN)
        b = find_train_track(GOLDEN)
        assert a.gm.eimg == b.gm.eimg and a.data.as_lists() == b.data.as_lists()


class TestWitnessVerification:
    def test_tampered_witness_rejected(self):
        result = find_train_track(PSI)
        assert isinstance(result, ReductionWitness)
        bad = ReductionWitness(
            [type(result.factors[0])([parse_word("c")], ())], "tampered")
        assert not verify_reduction_witness(PSI, bad)

    @staticmethod
    def witness(*bases):
        """A_1 -> A_2 -> ... -> A_1 with trivial conjugators, each A_i given
        by the texts of its basis."""
        return ReductionWitness(
            [tt_module.InvariantFactor([parse_word(w) for w in basis], ())
             for basis in bases], "test")

    def test_two_copies_of_the_whole_group_are_rejected(self):
        # each factor keeps the invariance, but the system is not proper
        witness = self.witness(["a", "b"], ["a", "b"])
        assert verify_reduction_witness(SWAP, witness) is None

    def test_two_rank_one_factors_verify(self):
        witness = self.witness(["a"], ["b"])
        # the same witness with each factor's Stallings graph; the argument
        # is left as it was
        assert verify_reduction_witness(SWAP, witness) == ReductionWitness(
            [f._replace(graph=sg.stallings(2, f.basis)) for f in witness.factors],
            "test")
        assert all(f.graph is None for f in witness.factors)

    def test_an_empty_factor_is_rejected(self):
        # a -> a, b -> 1 sends <b> into the trivial group and the trivial
        # group anywhere, so only the empty basis fails
        kill_b = Endomorphism(2, (parse_word("a"), ()))
        witness = self.witness(["b"], [])
        assert verify_reduction_witness(kill_b, witness) is None
