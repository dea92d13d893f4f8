import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import accumulate, combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from endotorus import nielsen, surface
from endotorus.cli import main, parse
from endotorus.graphmap import (
    POINT_TOL,
    GraphMap,
    MarkedGraph,
    edge_digraph,
    transition_matrix,
)
from endotorus.subgroups import SubgroupGraph, is_injective
from endotorus.surface import classify
from endotorus.words import (
    CyclicWord,
    Endomorphism,
    InternalInconsistency,
    cyclic_canonical,
    invert,
    parse_word,
)
from endotorus.traintrack import (
    FiniteOrderCertificate,
    TrainTrack,
    find_train_track,
    gates,
    illegal_crossings,
)
from endotorus.nielsen import (
    NielsenLoops,
    NielsenOrbit,
    NielsenPath,
    StableRepresentative,
    critical_equation,
    group_orbits,
    nielsen_loops,
    scan_pinps,
    stabilize,
)

from helpers import (
    TWO_ROSES,
    arc_orbits,
    identity_track,
    reference_cuts,
    reference_point_image,
    reference_refinement,
)

PHI = Endomorphism(2, (parse_word("ab"), parse_word("ba")))
GOLDEN = Endomorphism(2, (parse_word("ab"), parse_word("a")))
SWAP = Endomorphism(2, (parse_word("b"), parse_word("a")))
PERIOD_TWO = Endomorphism(2, (parse_word("BA"), parse_word("A")))
# geometric with the golden stretch; like PERIOD_TWO it stabilizes with one
# orbit of two periodic Nielsen paths
SHIFT_TWIST = Endomorphism(2, (parse_word("b"), parse_word("aB")))
COMMUTATOR = CyclicWord.of(parse_word("abAB"))
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_endo(name):
    return parse((CORPUS / f"{name}.endo").read_text()).endo


def golden_tt():
    tt = find_train_track(GOLDEN)
    assert isinstance(tt, TrainTrack)
    return tt


def verify_orbit_relations(tt, orbit):
    """Symbolic re-check of f(alpha) = alpha' tau and f(beta) = tau-bar beta'."""
    gm = tt.gm
    m = len(orbit.paths)
    for i in range(m):
        j = (i + 1) % m
        alpha = orbit.paths[i][:orbit.junctions[i] + 1]
        beta = orbit.paths[i][orbit.junctions[i] + 1:]
        tau = orbit.connectors[(i + 1) % m]
        f_alpha = gm.map_path(alpha)
        f_beta = gm.map_path(beta)
        if j == 0 and orbit.orientation_reversal:
            alpha_next = invert(orbit.paths[0][orbit.junctions[0] + 1:])
            beta_next = invert(orbit.paths[0][:orbit.junctions[0] + 1])
        else:
            alpha_next = orbit.paths[j][:orbit.junctions[j] + 1]
            beta_next = orbit.paths[j][orbit.junctions[j] + 1:]
        if f_alpha != alpha_next + tau:
            return False
        if f_beta != invert(tau) + beta_next:
            return False
    return True


class TestEnumerate:
    def test_remark_map_has_none(self):
        tt = find_train_track(PHI)
        assert scan_pinps(tt, 8)[1] == []

    def test_golden_finds_commutator_path(self):
        tt0 = golden_tt()
        tt, pinps = scan_pinps(tt0, 8)
        assert len(pinps) == 1
        p = pinps[0]
        assert p.period == 1 and p.reversal
        # the path is the commutator loop: closed, volume twice the graph
        # volume, class [a,b]
        vol = sum(tt.gm.graph.lengths[abs(e)] for e in p.path)
        assert abs(vol - 2 * tt.gm.graph.volume()) < 1e-9
        g = tt.gm.graph
        assert g.init_of(p.path[0]) == g.term_of(p.path[-1])
        cls = CyclicWord.of(tt.gm.path_to_word(p.path))
        assert cls == COMMUTATOR
        assert p.alpha and p.beta

    def test_a_reversing_path_is_found_at_its_own_period(self):
        # at period bound 1 the commutator path is seen only through the
        # reversing equations f(alpha) = gamma beta, f(beta) = gamma alpha
        (_, pinps) = scan_pinps(golden_tt(), 1)
        assert [(p.period, p.reversal) for p in pinps] == [(1, True)]

    def test_period_two_paths(self):
        # read on the train track refined at their interior ends only
        tt, pinps = scan_pinps(find_train_track(PERIOD_TWO), 8)
        assert [p.period for p in pinps] == [2, 2]
        assert sorted(len(p.path) for p in pinps) == [2, 4]

    @pytest.mark.parametrize("endo", [PERIOD_TWO, corpus_endo("golden_geometric")])
    def test_period_is_the_least_return(self, endo):
        tt, pinps = scan_pinps(find_train_track(endo), 8)
        assert pinps
        for p in pinps:
            img = p.path
            for n in range(1, p.period + 1):
                img = tt.gm.map_path(img)
                assert (img in (p.path, invert(p.path))) == (n == p.period)
            assert img == (invert(p.path) if p.reversal else p.path)

    @pytest.mark.parametrize("source", ["rank 2; a -> a b; b -> a b;",
                                        "rank 3; a -> b; b -> a c B a; c -> b b;"],
                             ids=["equal_images", "rank3"])
    def test_a_loop_that_f_kills_stops_the_scan(self, source):
        # legal paths with equal images multiply on a map that is not
        # injective; the scan stops at the first two that close a loop
        endo = parse(source).endo
        tt = find_train_track(endo)
        assert isinstance(tt, TrainTrack) and not is_injective(endo)
        start = time.process_time()
        with pytest.raises(ValueError, match="loop that the map kills"):
            scan_pinps(tt)
        assert time.process_time() - start < 1.0

    def test_rejects_non_expanding(self):
        result = find_train_track(SWAP)
        assert not isinstance(result, TrainTrack)


class TestOrbit:
    def test_golden_orbit_relations(self):
        tt, pinps = scan_pinps(golden_tt(), 8)
        orbits = group_orbits(tt, pinps)
        assert len(orbits) == 1
        orbit = orbits[0]
        assert orbit.orientation_reversal
        assert len(orbit.paths) == 1
        assert any(orbit.connectors)
        assert verify_orbit_relations(tt, orbit)

    @pytest.mark.parametrize("endo", [PERIOD_TWO, SHIFT_TWIST],
                             ids=["period_two", "shift_twist"])
    def test_an_orbit_of_two_paths(self, endo):
        tt, pinps = scan_pinps(find_train_track(endo), 8)
        (orbit,) = group_orbits(tt, pinps)
        assert len(orbit.paths) == 2 and not orbit.orientation_reversal
        assert tt.gm.map_path(orbit.paths[0]) == orbit.paths[1]
        assert verify_orbit_relations(tt, orbit)

    def test_an_orbit_that_leaves_the_paths_is_inconsistent(self):
        # the first path of the stable orbit of two goes to the second one,
        # which the list leaves out: a certified invariant fails
        stable = stabilize(find_train_track(SHIFT_TWIST))
        (tt, pinps) = scan_pinps(stable.tt, 8)
        assert tt is stable.tt and len(pinps) == 2
        with pytest.raises(InternalInconsistency,
                           match="orbit left the enumerated set"):
            group_orbits(tt, pinps[:1])


class TestStabilize:
    def test_remark_map_stable_without_orbit(self):
        stable = stabilize(find_train_track(PHI))
        assert isinstance(stable, StableRepresentative)
        assert not stable.orbits and stable.stable

    def test_golden_stable_with_one_orbit(self):
        stable = stabilize(find_train_track(GOLDEN))
        assert isinstance(stable, StableRepresentative)
        assert len(stable.orbits) == 1 and stable.stable
        assert len(stable.fold_log) >= 1
        for entry in stable.fold_log:
            assert entry["x"] > 0
            assert entry["eigen_residual"] < 1e-9
            assert abs((entry["vol_before"] - entry["vol_after"]) - entry["x"]) < 1e-9
            assert abs((entry["orbit_before"] - entry["orbit_after"]) - 2 * entry["x"]) < 1e-9

    def test_swap_propagates_finite_order(self):
        result = find_train_track(SWAP)
        assert not isinstance(result, StableRepresentative)
        assert isinstance(result, FiniteOrderCertificate)

    def test_stability_endpoint_single_orbit(self):
        stable = stabilize(find_train_track(GOLDEN))
        assert len(stable.orbits) == 1


class TestCriticalEquation:
    def test_golden_residual_vanishes(self):
        stable = stabilize(find_train_track(GOLDEN))
        assert critical_equation(stable.tt, stable.orbits) < 1e-9

    def test_empty_orbit_flagged(self):
        stable = stabilize(find_train_track(PHI))
        assert critical_equation(stable.tt, stable.orbits) == 2.0


class TestLoops:
    def test_golden_loops(self):
        stable = stabilize(find_train_track(GOLDEN))
        loops = nielsen_loops(stable.tt, stable.orbits)
        assert len(loops.loops) == 1
        assert set(loops.multiplicities.values()) == {2}
        assert loops.classes[0] == COMMUTATOR
        assert loops.transitive

    def test_class_of_a_loop_away_from_the_base(self):
        # edges 1: 0 -> 1 (label a), 4: 1 -> 2, 3: 0 -> 3, 2: 3 -> 2 and a
        # loop 5 at 0 (label b), under the identity.  The loop
        # (-4, -1, 3, 2) at vertex 2 reads A; closing it at the base along
        # the BFS paths (1, 4) there and (-2, -3) back, which are not
        # reverses of each other, would read the trivial class instead
        graph = MarkedGraph(4, {1: (0, 1), 4: (1, 2), 3: (0, 3), 2: (3, 2),
                                5: (0, 0)}, {e: 1.0 for e in range(1, 6)})
        gm = GraphMap(graph, {v: v for v in range(4)},
                      {e: (e,) for e in range(1, 6)},
                      {1: (1,), 2: (), 3: (), 4: (), 5: (2,)})
        assert graph.shortest_path(0, 2) == (1, 4)
        assert graph.shortest_path(2, 0) == (-2, -3)
        tt = TrainTrack(gm, gates(gm), transition_matrix(gm, edge_digraph(gm)))
        orbit = NielsenOrbit([(-4, -1, 3, 2)], [0], [], 1, False)
        loops = nielsen_loops(tt, [orbit])
        assert loops.classes == [CyclicWord.of(parse_word("a"))]

    def test_two_loop_multiplicities_checked(self):
        # synthetic check of the multiplicity counter on two loops
        stable = stabilize(find_train_track(GOLDEN))
        loops = nielsen_loops(stable.tt, stable.orbits)
        doubled = {e: 2 * c for (e, c) in loops.multiplicities.items()}
        assert all(v == 4 for v in doubled.values())


class TestVerdict:
    def test_bcc_radius_positive(self):
        tt = golden_tt()
        assert tt.radius > 0

    def test_reported_radius_is_the_scan_radius(self):
        # a scan that finds no path refines nothing, so the track returned
        # is the one scanned, with the scan's radius
        tt = find_train_track(PHI)
        stable = stabilize(tt)
        assert stable.radius == tt.radius == 3.0
        assert stable.tt is tt
        assert classify(PHI).atoroidal.radius == stable.radius

    def test_radius_belongs_to_the_returned_scan(self, monkeypatch):
        scanned = {}
        real = nielsen.scan_pinps

        def spy(tt, period_bound):
            out = real(tt, period_bound)
            scanned[id(out[0])] = tt.radius
            return out

        monkeypatch.setattr(nielsen, "scan_pinps", spy)
        for endo in (GOLDEN, corpus_endo("composite_geometric")):
            stable = stabilize(find_train_track(endo))
            assert stable.fold_log and stable.radius == scanned[id(stable.tt)]
            scanned.clear()


# ---------------------------------------------------------------------------
# scan oracle: the train track refined at every interior periodic point of
# period up to 3 (`reference_cuts`), and on it the per-pair two-pointer merge
# over eigenrays grown by remap-and-truncate.  The merge needs both ends of a
# path at vertices, so it finds the paths the scan grows from their illegal
# turns, except those with an end of period above 3
# ---------------------------------------------------------------------------

GEOMETRIC_CLASSIFY = ("composite_geometric", "double_cover_geometric",
                      "golden_geometric", "golden_mirror", "golden_transpose",
                      "remark_irreducible_atoroidal")


def reference_ray(gm, d, step, target):
    """Grow the eigenray by mapping the whole ray under f^step and
    truncating just past the target; None when the prefix closure fails."""
    slack = target + max(gm.graph.lengths.values()) + 1e-9

    def truncate(path):
        out, acc = [], 0.0
        for e in path:
            out.append(e)
            acc += gm.graph.lengths[abs(e)]
            if acc >= slack:
                break
        return tuple(out)

    ray = (d,)
    for _ in range(64 * step + 64):
        if gm.graph.path_length(ray) >= target:
            return ray
        prev = ray
        for _ in range(step):
            ray = truncate(gm.map_path(ray))
        if ray[:len(prev)] != prev:
            return None
        if len(ray) == len(prev):
            return ray
    return ray


def reference_enumerate(tt, period_bound, radius, tol=POINT_TOL):
    """Each qualifying direction pair walks a two-pointer merge over its two
    eigenrays; the candidate checks are those of the scan."""
    gm = tt.gm
    dirs = gm.graph.all_directions()
    order = {d: i for i, d in enumerate(dirs)}
    dmap = {d: gm.image_of_edge(d)[0] for d in dirs}
    pairs = set()
    first = {d: d for d in dirs}
    for _ in range(period_bound):
        first = {d: dmap[first[d]] for d in dirs}
        fixed = [d for d in dirs if first[d] == d]
        pairs.update(combinations(fixed, 2))
        pairs.update((d, first[d]) for d in dirs
                     if order[d] < order[first[d]] and first[first[d]] == d)
    rays = {}

    def ray(d):
        if d not in rays:
            step, x = 1, dmap[d]
            while x != d:
                step, x = step + 1, dmap[x]
            r = reference_ray(gm, d, step, radius + 1e-9)
            rays[d] = r and (r, list(accumulate(gm.graph.lengths[abs(e)]
                                                for e in r)))
        return rays[d]

    found = {}
    for (d1, d2) in sorted(pairs, key=lambda pair: (order[pair[0]],
                                                    order[pair[1]])):
        if ray(d1) is None or ray(d2) is None:
            continue
        ((r1, pos1), (r2, pos2)) = (rays[d1], rays[d2])
        j = 0
        for i, p in enumerate(pos1):
            if p > radius + 1e-9:
                break
            while j < len(pos2) and pos2[j] < p - tol:
                j += 1
            if j >= len(pos2) or abs(pos2[j] - p) > tol:
                continue
            (e1, e2) = (r1[i], r2[j])
            if e1 == e2 or tt.gate_map[-e1] != tt.gate_map[-e2] \
                    or gm.graph.term_of(e1) != gm.graph.term_of(e2):
                continue
            (X, Y) = (r1[:i + 1], r2[:j + 1])
            rho = X + invert(Y)
            key = min(rho, invert(rho))
            if key in found:
                continue
            if sum(tt.gate_map[-rho[k]] == tt.gate_map[rho[k + 1]]
                   for k in range(len(rho) - 1)) != 1:
                continue
            back = nielsen._least_return(gm, rho, period_bound, radius)
            if back is None:
                continue
            (per, reversal) = back
            if reversal and d1 > d2:
                (X, Y) = (Y, X)
            found[key] = NielsenPath(X, invert(Y), per, reversal)
    return [found[k] for k in sorted(found)]


def rescans(endo):
    """(train track, period bound, radius, paths) of every representative
    that `stabilize` visits on the endomorphism's train track, whether a
    scan found its paths or a fold carried them."""
    return [call[1:] for call in stabilize_steps(endo)[1] if call[4] is not None]


def stabilize_steps(endo, steps=nielsen.STABILIZE_STEPS):
    """(stable representative, calls) of `stabilize`, held to at most
    `steps` folds, on the endomorphism's train track.  The calls are
    (function, train track, period bound, radius, paths) of every scan
    (`scan_pinps`, with the track it returns and the radius of the track
    it scanned) and every carry (`_carry`, None when it fails), in call
    order."""
    calls = []

    def recording(name, real):
        def call(*args):
            out = real(*args)
            if name == "scan_pinps":
                calls.append((name, out[0], args[1], args[0].radius, out[1]))
            else:
                calls.append((name, args[0], *args[2:], out))
            return out
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nielsen, "STABILIZE_STEPS", steps)
        for name in ("scan_pinps", "_carry"):
            patch.setattr(nielsen, name, recording(name, getattr(nielsen, name)))
        stable = stabilize(find_train_track(endo))
    return stable, calls


def expanding_train_track(images):
    """The train track of an injective map with the images, when it is
    expanding and irreducible: the scan's domain."""
    endo = Endomorphism(len(images), tuple(images))
    assume(all(endo.images) and is_injective(endo))
    tt = find_train_track(endo, max_iterations=30)
    assume(isinstance(tt, TrainTrack) and tt.data.expanding
           and tt.data.irreducible)
    return tt


WORDS = st.lists(st.sampled_from((1, -1, 2, -2)), min_size=1, max_size=3)


@st.composite
def rank3_images(draw):
    """Three images, each holding the next generator (a in c's image) among
    one or two random letters: the rose's transition matrix is irreducible,
    so about a third of the draws have an expanding irreducible train
    track."""
    letters = st.sampled_from((1, -1, 2, -2, 3, -3))
    images = []
    for g in (2, 3, 1):
        word = draw(st.lists(letters, min_size=1, max_size=2))
        word.insert(draw(st.integers(0, len(word))),
                    draw(st.sampled_from((g, -g))))
        images.append(tuple(word))
    return images


def end_points(track, tt, path):
    """The two ends of a path of `track`, a refinement of `tt` or `tt`
    itself: ('v', vertex) for a vertex of `tt`, else (edge of `tt`,
    position from its initial vertex)."""
    g = track.gm.graph
    points = {v: ("v", v) for v in range(tt.gm.graph.nv)}
    if track.gm is not tt.gm:
        for (e, pieces) in track.gm.history[0].items():
            at = 0.0
            for x in pieces[:-1]:
                at += g.lengths[x]
                points[g.term_of(x)] = (e, at)
    return (points[g.init_of(path[0])], points[g.term_of(path[-1])])


def signature(track, tt, p):
    """What two scans of `tt` agree on for a path p of `track`, whichever
    edges it is read in: its turn, in the directions of `tt`, its period,
    its orientation, its half length and its ends."""
    origin = {d: d for d in tt.gm.graph.all_directions()}
    if track.gm is not tt.gm:
        for (e, pieces) in track.gm.history[0].items():
            origin.update({x: e for x in pieces})
            origin.update({-x: -e for x in pieces})
    return (frozenset((origin[-p.alpha[-1]], origin[p.beta[0]])), p.period,
            p.reversal, round(track.gm.graph.path_length(p.path) / 2, 9),
            frozenset((e, x if e == "v" else round(x, 7))
                      for (e, x) in end_points(track, tt, p.path)))


def point_period(gm, point, bound):
    """The least n <= bound with f^n fixing an interior point (edge,
    position), or None."""
    (e, x) = point
    image = point
    for n in range(1, bound + 1):
        image = reference_point_image(gm, *image)
        if image[0] == e and abs(image[1] - x) < 1e-6:
            return n
    return None


def reference_signatures(tt, period_bound, tol=POINT_TOL):
    """The signatures of the paths that the pair merge, at the tolerance,
    finds on the refinement at the interior periodic points of period up
    to 3."""
    prepared = reference_refinement(tt, min(3, period_bound))
    return {signature(prepared, tt, p) for p in
            reference_enumerate(prepared, period_bound, tt.radius, tol)}


def assert_scan_matches_reference(tt, period_bound):
    """Every path that the pair merge finds on the refinement at the
    interior periodic points of period up to 3 the scan finds too, with the
    same turn, period, orientation, half length and ends; every other path
    the scan finds has an end of period above 3, which that refinement
    lacks, so the two lists are equal when no end has period above 3.
    Returns the scan's (train track, paths)."""
    (lean, paths) = scan_pinps(tt, period_bound)
    expected = reference_signatures(tt, period_bound)
    found = {signature(lean, tt, p): p for p in paths}
    assert len(found) == len(paths)
    assert expected <= found.keys()
    for key in found.keys() - expected:
        periods = [point_period(tt.gm, end, 4 * period_bound)
                   for end in end_points(lean, tt, found[key].path)
                   if end[0] != "v"]
        assert any(n is not None and n > 3 for n in periods)
    return lean, paths


def assert_halves_are_eigenrays(tt, paths):
    """Each half of each path, read from its end, is a prefix of the
    eigenray of its first direction: the prefix-closure equations."""
    gm = tt.gm
    dmap = {d: gm.image_of_edge(d)[0] for d in gm.graph.all_directions()}
    for p in paths:
        for half in (p.alpha, invert(p.beta)):
            step, x = 1, dmap[half[0]]
            while x != half[0]:
                step, x = step + 1, dmap[x]
            ray = reference_ray(gm, half[0], step, gm.graph.path_length(half))
            assert ray[:len(half)] == half


class TestScanOracle:
    @pytest.mark.parametrize("name", GEOMETRIC_CLASSIFY)
    def test_every_rescan_matches_the_pair_merge(self, name):
        calls = rescans(corpus_endo(name))
        assert calls
        for (tt, period_bound, _, _) in calls:
            assert_scan_matches_reference(tt, period_bound)

    @pytest.mark.parametrize("name", GEOMETRIC_CLASSIFY)
    def test_coarse_tolerance_matches_the_pair_merge(self, name):
        # a tolerance wider than the short edges puts several vertices of a
        # ray within reach of one position: the merge then finds no path
        # that the scan, which matches no positions, does not find
        for (tt, period_bound, _, _) in rescans(corpus_endo(name))[:3]:
            (lean, paths) = scan_pinps(tt, period_bound)
            found = {signature(lean, tt, p) for p in paths}
            for tol in (0.01, 0.05):
                assert reference_signatures(tt, period_bound, tol) <= found

    @pytest.mark.parametrize("name", GEOMETRIC_CLASSIFY)
    def test_eigenrays_are_prefixes_of_their_images(self, name):
        for (tt, _, _, paths) in rescans(corpus_endo(name))[:4]:
            assert_halves_are_eigenrays(tt, paths)

    @given(st.tuples(WORDS, WORDS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_rank2_scans_match_the_pair_merge(self, images):
        tt = expanding_train_track(images)
        (lean, paths) = assert_scan_matches_reference(tt, 3)
        assert_halves_are_eigenrays(lean, paths)

    @given(rank3_images())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_rank3_scans_match_the_pair_merge(self, images):
        # gates with three or more directions, and gates of several
        # directions at vertices other than the base, which the rank-2
        # maps rarely have
        tt = expanding_train_track(images)
        (lean, paths) = assert_scan_matches_reference(tt, 3)
        assert_halves_are_eigenrays(lean, paths)


# a = A A A B A A A A B, b = A A A A B (trace -8, det -1, lambda = 4 + sqrt 17):
# the whole f^8 images of its edges run to millions of letters, and its
# train track refined at every interior periodic point of period up to 3
# has 594 edges
LONG_PERIOD = "rank 2; a -> A A A B A A A A B; b -> A A A A B;"
# a rank-2 automorphism with lambda about 12.9, whose refinement at every
# interior periodic point of period up to 3 has 2,312 edges
WIDE_REFINEMENT = "rank 2; a -> b b A b; b -> b b A b b A b b b A b b b A b b b A b;"


def a_to_the_k_b(k):
    return parse(f"rank 2; a -> {'a ' * k}b; b -> a;").endo


class TestLongPeriodRays:
    def test_a_ray_makes_only_the_letters_it_keeps(self):
        # the images are read as stacked lazy substitutions, so one scan
        # makes only the letters that its halves compare and keep: traced,
        # it peaks at 16 KiB, where a classify that refined the train track
        # at every interior periodic point of period up to 3 took 107 MB
        tt = find_train_track(parse(LONG_PERIOD).endo)
        assert len(tt.gm.graph.edges) == 2
        tracemalloc.start()
        try:
            (_, pinps) = scan_pinps(tt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pinps
        assert peak < 1 << 18

    def test_a_scan_keeps_no_ray_positions(self):
        # traced, this scan peaks at 17 KiB (14.9 MiB on the refinement)
        tt = find_train_track(parse("rank 2; a -> a a a a a a b; b -> a;").endo)
        tracemalloc.start()
        try:
            (_, pinps) = scan_pinps(tt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pinps
        assert peak < 1 << 18

    @pytest.mark.parametrize("endo", [parse(LONG_PERIOD).endo,
                                      parse(WIDE_REFINEMENT).endo,
                                      a_to_the_k_b(12), a_to_the_k_b(16)],
                             ids=["long_period", "wide_refinement",
                                  "a->a^12b,b->a", "a->a^16b,b->a"])
    def test_classifies_geometric_in_under_a_second(self, endo):
        start = time.process_time()
        verdict = classify(endo)
        assert time.process_time() - start < 1.0
        assert verdict.kind == "geometric"

    def test_classify_under_a_one_gigabyte_cap(self):
        # in a child process, so that running out of memory fails this test
        # instead of killing the suite
        cap = 1 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, (str(root / "src"),
                                             os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "endotorus.cli", "classify", "-", "--json"],
            input=LONG_PERIOD, capture_output=True, text=True, cwd=root,
            env={**os.environ, "PYTHONPATH": path}, preexec_fn=limit,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        assert "error" not in rep
        verdict = rep["verdict"]
        assert verdict["kind"] == "geometric"
        surface = verdict["surface"]
        assert (surface["g"], surface["b"]) == (1, 1)
        assert abs(surface["lambda"] - (4 + math.sqrt(17))) <= 1e-9
        assert verdict["toroidal"]["witness"] == "abAB"
        assert verdict["toroidal"]["period"] == 2


# ---------------------------------------------------------------------------
# carry oracle: at every fold of `stabilize` the carried paths are the paths
# that the scan and the reference find on the folded representative
# ---------------------------------------------------------------------------

GOLDEN_NAMES = ("golden_geometric", "golden_mirror", "golden_transpose")
I_B = Endomorphism.inner(2, parse_word("b"))
# the corpus inputs with periodic Nielsen paths, three squares, i_b after
# each geometric input that has a train track (i_b after
# composite_geometric and after golden_geometric has none yet, ROADMAP
# item 1, so stabilize never runs on them), and two maps that end with an
# orbit of two paths
CARRY_CASES = (
    [(n, corpus_endo(n)) for n in
     ("composite_geometric", "double_cover_geometric", "expanding_double",
      *GOLDEN_NAMES, "nonsurjective_mixed")]
    + [(f"{n}^2", corpus_endo(n).power(2)) for n in GOLDEN_NAMES]
    + [(f"i_b*{n}", I_B.compose(corpus_endo(n))) for n in
       ("double_cover_geometric", "golden_mirror", "golden_transpose")]
    + [("period_two", PERIOD_TWO), ("shift_twist", SHIFT_TWIST)])


def carried_steps(endo, steps=nielsen.STABILIZE_STEPS):
    """(train track, period bound, radius, carried paths) of every carry
    inside `stabilize`, after asserting that every fold was carried."""
    (stable, calls) = stabilize_steps(endo, steps)
    carries = [call[1:] for call in calls if call[0] == "_carry"]
    assert len(carries) == len(stable.fold_log) > 0
    assert all(out is not None for (_, _, _, out) in carries)
    return carries


class TestCarry:
    @pytest.mark.parametrize("endo", [endo for (_, endo) in CARRY_CASES],
                             ids=[name for (name, _) in CARRY_CASES])
    def test_the_first_scan_matches_the_pair_merge(self, endo):
        # the scan that each stabilization starts with; the squares of
        # composite_geometric and double_cover_geometric pass too, but take
        # over a minute each on their period-3 refinements
        assert assert_scan_matches_reference(find_train_track(endo), 8)[1]

    @pytest.mark.parametrize("endo", [endo for (_, endo) in CARRY_CASES],
                             ids=[name for (name, _) in CARRY_CASES])
    def test_every_carry_is_the_scan(self, endo):
        for (tt, period_bound, radius, out) in carried_steps(endo):
            # a scan of each carried track is the carried list, and the
            # track keeps every end it needs
            assert radius == tt.radius
            (lean, scanned) = scan_pinps(tt, period_bound)
            assert lean is tt and scanned == out
            assert out == reference_enumerate(tt, period_bound, radius)

    @pytest.mark.parametrize("name", ("composite_geometric",
                                      "double_cover_geometric"))
    def test_squares_carry_the_scan(self, name):
        # the squares' reference refinements have about 360 edges: two
        # folds, and no reference, which takes minutes per representative
        for (tt, period_bound, radius, out) in \
                carried_steps(corpus_endo(name).power(2), steps=2):
            assert radius == tt.radius
            (lean, scanned) = scan_pinps(tt, period_bound)
            assert lean is tt and scanned == out

    @pytest.mark.parametrize("endo", [endo for (_, endo) in CARRY_CASES],
                             ids=[name for (name, _) in CARRY_CASES])
    def test_only_the_scan_refines(self, endo, monkeypatch):
        # the track is refined at most once per scan, never per fold
        calls = Counter()

        def counting(name):
            real = getattr(nielsen, name)

            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        for name in ("scan_pinps", "refine_at_points"):
            monkeypatch.setattr(nielsen, name, counting(name))
        stable = stabilize(find_train_track(endo))
        assert stable.fold_log and calls["scan_pinps"] >= 1
        assert calls["refine_at_points"] <= calls["scan_pinps"]

    @pytest.mark.parametrize("name", ("golden_geometric", "composite_geometric"))
    def test_a_dropped_path_falls_back_to_the_scan(self, name, monkeypatch):
        real = nielsen._carry

        def dropping(*args):
            return real(*args)[1:]

        monkeypatch.setattr(nielsen, "_carry", dropping)
        stable = stabilize(find_train_track(corpus_endo(name)))
        (tt, pinps) = scan_pinps(stable.tt, 8)
        assert tt is stable.tt and pinps
        assert stable.fold_log and not stable.stable
        assert [o.paths for o in stable.orbits] == \
            [o.paths for o in group_orbits(tt, pinps)]

    def test_a_carry_that_splits_an_orbit_exits_three(self, tmp_path,
                                                     monkeypatch, capsys):
        # without the second path of the orbit of two, grouping the carried
        # paths fails a certified invariant: exit code 3, not an error entry
        real = nielsen._carry

        def dropping(*args):
            out = real(*args)
            return out and out[:-1]

        monkeypatch.setattr(nielsen, "_carry", dropping)
        path = tmp_path / "shift_twist.endo"
        path.write_text("rank 2; a -> b; b -> a B;")
        assert main(["classify", str(path)]) == 3
        (out, err) = capsys.readouterr()
        assert out == ""
        assert err == "internal inconsistency: orbit left the enumerated set\n"

    @pytest.mark.parametrize("endo", [endo for (_, endo) in CARRY_CASES],
                             ids=[name for (name, _) in CARRY_CASES])
    def test_admit_reads_the_halves_in_either_order(self, endo):
        # every path that a scan or a carry accepts inside `stabilize`, on
        # each corpus input with such paths and the maps derived from them,
        # is stored as the same NielsenPath whichever half comes first
        for (tt, period_bound, radius, out) in rescans(endo):
            for p in out:
                halves = (p.alpha, invert(p.beta))
                for (X, Y) in (halves, halves[::-1]):
                    found: dict = {}
                    assert nielsen._admit(tt, X, Y, period_bound, radius,
                                          found)
                    assert found == {p.canonical(): p}


# ---------------------------------------------------------------------------
# the lean representative: the scan refines the train track only at the
# paths' interior ends, a scan of that track finds the same paths on it, and
# stabilization on it converges (ROADMAP item 4)
# ---------------------------------------------------------------------------

def euler_characteristic(tt):
    return tt.gm.graph.nv - len(tt.gm.graph.edges)


class TestLeanRepresentative:
    @given(st.tuples(WORDS, WORDS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_rank2_coarsening_is_the_lean_scan(self, images):
        period_bound = 3
        tt = expanding_train_track(images)
        (lean, paths) = assert_scan_matches_reference(tt, period_bound)
        assert paths or lean is tt
        (again, rescanned) = scan_pinps(lean, period_bound)
        assert again is lean and rescanned == paths
        # the lean track adds one vertex per path end that is no vertex of tt
        g = lean.gm.graph
        ends = {v for p in paths
                for v in (g.init_of(p.path[0]), g.term_of(p.path[-1]))}
        assert set(range(tt.gm.graph.nv, g.nv)) <= ends
        assert euler_characteristic(lean) == euler_characteristic(tt)

    def test_a_coarsened_path_must_pass_admit(self, monkeypatch):
        # a grown path, read on the lean track, that the acceptance rule
        # turns down fails a certified invariant
        monkeypatch.setattr(nielsen, "_readmit", lambda *args: None)
        with pytest.raises(InternalInconsistency,
                           match="grown Nielsen path fails"):
            stabilize(golden_tt())

    @pytest.mark.parametrize("k", range(3, 7))
    def test_a_to_the_k_b_stabilizes_within_k_folds(self, k):
        verdict = classify(a_to_the_k_b(k))
        assert verdict.kind == "geometric"
        assert verdict.stable.stable and len(verdict.stable.fold_log) <= k
        surface = verdict.surface
        assert (surface.genus, surface.boundary_count) == (1, 1)
        assert abs(surface.stretch - (k + math.sqrt(k * k + 4)) / 2) <= 1e-9

    def test_the_square_of_composite_geometric_stabilizes(self):
        verdict = classify(corpus_endo("composite_geometric").power(2))
        assert verdict.kind == "geometric" and verdict.stable.stable

    @pytest.mark.parametrize("endo", [endo for (_, endo) in CARRY_CASES]
                             + [a_to_the_k_b(k) for k in (3, 4)],
                             ids=[name for (name, _) in CARRY_CASES]
                             + ["a->a^3b,b->a", "a->a^4b,b->a"])
    def test_the_stable_representative_keeps_chi(self, endo):
        tt = find_train_track(endo)
        stable = stabilize(tt)
        assert stable.orbits
        assert euler_characteristic(stable.tt) == euler_characteristic(tt)

    @pytest.mark.parametrize("power", [1, 2])
    def test_double_cover_geometric_stabilizes(self, power):
        # a path of two one-edge halves E1, E2 with f(Ei) = gamma . Ei: the
        # fold identifies the halves whole, where a partial fold would leave
        # the same halves, shorter, and one more edge, fold after fold
        endo = corpus_endo("double_cover_geometric").power(power)
        stable = stabilize(find_train_track(endo))
        assert stable.stable and len(stable.fold_log) <= 2
        g = stable.tt.gm.graph
        assert (g.nv, len(g.edges)) == (1, 2)
        assert abs(stable.tt.stretch - ((3 + math.sqrt(5)) / 2) ** power) <= 1e-9
        verdict = classify(endo)
        assert verdict.kind == "geometric" and verdict.stable.stable
        assert verdict.loops.classes == [COMMUTATOR]

    @pytest.mark.parametrize("source", ["rank 2; a -> b a b a b a; b -> a;",
                                        "rank 2; a -> a a a b; b -> a a;"])
    def test_folds_remove_the_paths_of_irreducible_nonsurjective_maps(self, source):
        # neither M nor M^2 has a rational eigenvalue, so no primitive p
        # has phi(p) ~ p^k and no primitive basis p, q has phi(p) ~ q^j and
        # phi(q) ~ p^l: the map is irreducible; a nonsurjective irreducible
        # map has a hyperbolic mapping torus (Mutanguha, Bull. LMS 2020), so
        # it is atoroidal, and the stabilizing folds leave no Nielsen path
        endo = parse(source).endo
        assert SubgroupGraph.from_generators(2, endo.images).index() != 1
        for m in (endo.abelianized(), endo.power(2).abelianized()):
            assert not has_rational_eigenvalue(m)
        verdict = classify(endo)
        assert verdict.kind == "irreducible_atoroidal"
        assert verdict.stable.stable and not verdict.stable.orbits


def has_rational_eigenvalue(m) -> bool:
    """Whether the integer 2x2 matrix m has a rational eigenvalue: whether
    the discriminant of x^2 - t x + d is a square."""
    disc = (m[0][0] + m[1][1]) ** 2 - 4 * (m[0][0] * m[1][1] - m[0][1] * m[1][0])
    return disc >= 0 and math.isqrt(disc) ** 2 == disc


# the Nielsen generators of Aut(F2): a <-> b, a -> A and a -> a b
NIELSEN_GENERATORS = (Endomorphism(2, ((2,), (1,))),
                      Endomorphism(2, ((-1,), (2,))),
                      Endomorphism(2, ((1, 2), (2,))))


@st.composite
def rank_two_automorphisms(draw):
    """A product of 3-8 Nielsen generators."""
    endo = Endomorphism.identity(2)
    for g in draw(st.lists(st.sampled_from(NIELSEN_GENERATORS),
                           min_size=3, max_size=8)):
        endo = g.compose(endo)
    return endo


def rank_two_rule(endo):
    """The verdict and stretch of a rank-2 automorphism, read off the trace
    t and determinant d of its abelianization M: finite order when M = +-I,
    d = 1 and |t| < 2, or d = -1 and t = 0; a Dehn twist, reducible, when
    d = 1 and |t| = 2; otherwise Anosov, geometric with the larger root of
    x^2 - |t| x + d."""
    m = endo.abelianized()
    (t, d) = (m[0][0] + m[1][1], m[0][0] * m[1][1] - m[0][1] * m[1][0])
    if m in (((1, 0), (0, 1)), ((-1, 0), (0, -1))) or \
            (d == 1 and abs(t) < 2) or (d == -1 and t == 0):
        return ("finite_order", 1.0)
    if d == 1 and abs(t) == 2:
        return ("reducible", 1.0)
    return ("geometric", (abs(t) + math.sqrt(t * t - 4 * d)) / 2)


def stabilized_representatives(endo):
    """(verdict, the train track that `classify` stabilizes or None, every
    representative whose paths stabilization groups into orbits)."""
    stabilized = []
    representatives = []
    (real_stabilize, real_group) = (surface.stabilize, nielsen.group_orbits)

    def stabilizing(tt, **bounds):
        stabilized.append(tt)
        return real_stabilize(tt, **bounds)

    def grouping(tt, pinps):
        representatives.append(tt)
        return real_group(tt, pinps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(surface, "stabilize", stabilizing)
        patch.setattr(nielsen, "group_orbits", grouping)
        verdict = classify(endo)
    return verdict, (stabilized or [None])[0], representatives


class TestRankTwoAutomorphisms:
    @given(rank_two_automorphisms())
    @settings(max_examples=60, deadline=None)
    def test_stabilization_keeps_a_train_track_and_the_rule(self, endo):
        (verdict, tt, representatives) = stabilized_representatives(endo)
        for rep in representatives:
            assert illegal_crossings(rep.gm, rep.gate_map) == []
            assert abs(rep.stretch - tt.stretch) <= 1e-9
            assert euler_characteristic(rep) == euler_characteristic(tt) == -1
        (kind, stretch) = rank_two_rule(endo)
        if verdict.kind != "unknown":
            assert verdict.kind == kind
        if verdict.kind == "geometric":
            assert abs(verdict.surface.stretch - stretch) <= 1e-9


class TestEigenmetricCarry:
    # a fold of a train track keeps lambda and the eigenmetric, scaled
    # (Bestvina-Handel 1992, section 5), which is why the power iteration
    # can start from the folded lengths
    @pytest.mark.parametrize("name", GEOMETRIC_CLASSIFY[:5])
    def test_folds_keep_the_eigenmetric(self, name, monkeypatch):
        tt = find_train_track(corpus_endo(name))
        made = []
        real = nielsen.transition_matrix

        def recording(gm, digraph):
            data = real(gm, digraph)
            made.append((gm.graph, data))
            return data

        monkeypatch.setattr(nielsen, "transition_matrix", recording)
        stable = stabilize(tt)
        assert len(made) >= len(stable.fold_log) > 0
        lam = tt.stretch
        for (graph, data) in made:
            volume = graph.volume()
            assert max(abs(graph.lengths[e] / volume - x) for (e, x) in
                       zip(data.edge_order, data.eigenmetric)) <= 1e-12
            assert abs(data.lam - lam) <= 1e-12
            lam = data.lam


# ---------------------------------------------------------------------------
# cut-set oracle: every vertex the scan adds is an interior periodic point,
# and one of period up to 3 is a point of the closure under the single map of
# the interior fixed points of f, f^2 and f^3 (`reference_cuts`)
# ---------------------------------------------------------------------------

def assert_cuts_match_reference(tt, lean, period_bound):
    """Every vertex that `lean`, the scan's track, adds to `tt` is an
    interior point fixed by some f^n with n up to twice the bound, and one
    with n up to 3 is a point of `reference_cuts(tt, 3)`.  Returns the
    cuts, edge by edge."""
    cuts = {}
    if lean is not tt:
        g = lean.gm.graph
        for (e, pieces) in lean.gm.history[0].items():
            cuts[e] = list(accumulate(g.lengths[x] for x in pieces[:-1]))
    closure = reference_cuts(tt, 3)
    for (e, xs) in cuts.items():
        for x in xs:
            n = point_period(tt.gm, (e, x), 2 * period_bound)
            assert n is not None
            if n <= 3:
                assert any(abs(x - y) < 1e-9 for y in closure.get(e, ()))
    return cuts


def classify_scans(endo):
    """(train track, returned track, period bound) of every scan that
    `classify` makes on the endomorphism."""
    calls = []
    real = nielsen.scan_pinps

    def recording(tt, period_bound):
        out = real(tt, period_bound)
        calls.append((tt, out[0], period_bound))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nielsen, "scan_pinps", recording)
        classify(endo)
    return calls


class TestCutOracle:
    def test_every_corpus_refinement_matches_the_closure(self):
        calls = [call for path in sorted(CORPUS.glob("*.endo"))
                 for call in classify_scans(parse(path.read_text()).endo)]
        assert len(calls) >= 7
        assert any([assert_cuts_match_reference(*call) for call in calls])

    @pytest.mark.parametrize("name", ("golden_geometric", "composite_geometric",
                                      "double_cover_geometric"))
    def test_square_refinements_match_the_closure(self, name):
        calls = classify_scans(corpus_endo(name).power(2))
        assert calls
        for call in calls:
            assert_cuts_match_reference(*call)

    @given(st.tuples(WORDS, WORDS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_rank2_cuts_match_the_closure(self, images):
        tt = expanding_train_track(images)
        assert_cuts_match_reference(tt, scan_pinps(tt, 3)[0], 3)

    @given(rank3_images())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_rank3_cuts_match_the_closure(self, images):
        tt = expanding_train_track(images)
        assert_cuts_match_reference(tt, scan_pinps(tt, 3)[0], 3)


# ---------------------------------------------------------------------------
# loop oracle: one search over the perfect matchings of all arc ends at once,
# the first matching whose vertex links are all circles, else the first one
# ---------------------------------------------------------------------------

def reference_vertex_links(gm, loops):
    links = {v: {} for v in range(gm.graph.nv)}
    for loop in loops:
        n = len(loop)
        for i in range(n):
            d_in, d_out = -loop[i], loop[(i + 1) % n]
            link = links.setdefault(gm.graph.init_of(d_in), {})
            link.setdefault(d_in, []).append(d_out)
            link.setdefault(d_out, []).append(d_in)
    return links


def reference_link_components(link):
    seen = set()
    comps = 0
    for start in sorted(link):
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            d = stack.pop()
            for e in link[d]:
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
    return comps


def reference_single_cycle(perm):
    n = len(perm)
    if n == 0:
        return False
    seen = 1
    i = perm[0]
    while i != 0 and seen <= n:
        seen += 1
        i = perm[i]
    return seen == n


def reference_loops(tt, orbits):
    """Backtracking over the perfect matchings of all arc ends, without a
    cap on the assemblies."""
    gm = tt.gm
    arcs = [p for o in orbits for p in o.paths]
    ends = []
    for idx, p in enumerate(arcs):
        ends.append((idx, 0, gm.graph.init_of(p[0])))
        ends.append((idx, 1, gm.graph.term_of(p[-1])))
    n = len(ends)

    def compatible(i, j):
        (ai, si, vi) = ends[i]
        (aj, sj, vj) = ends[j]
        if vi != vj:
            return False
        pi = arcs[ai] if si == 1 else invert(arcs[ai])
        pj = invert(arcs[aj]) if sj == 1 else arcs[aj]
        return pi[-1] != -pj[0]  # junction stays tight

    def loops_of(matching):
        seen = set()
        loops = []
        for start in range(n):
            if start in seen or ends[start][1] == 1:
                continue
            loop = []
            i = start
            ok = True
            for _ in range(n + 1):
                (a, s, _) = ends[i]
                seen.add(i)
                other = i + 1 if s == 0 else i - 1
                seen.add(other)
                loop.extend(arcs[a] if s == 0 else invert(arcs[a]))
                j = matching[other]
                if j == start:
                    break
                i = j
            else:
                ok = False
            if ok:
                loops.append(tuple(loop))
        return loops if len(seen) == n else None

    def valid_loops(matching):
        lp = loops_of(matching)
        if lp is None:
            return None
        if all(len(l) > 0 and (len(l) == 1 or l[0] != -l[-1]) for l in lp):
            return lp
        return None

    assemblies = []

    def search(matching, free):
        if not free:
            lp = valid_loops(matching)
            if lp is not None:
                assemblies.append(lp)
            return
        i = free[0]
        for j in free[1:]:
            if compatible(i, j) and compatible(j, i):
                matching[i] = j
                matching[j] = i
                search(matching, [k for k in free if k not in (i, j)])
                del matching[i]
                del matching[j]

    search({}, list(range(n)))
    if not assemblies:
        raise ValueError("orbit paths do not close into Nielsen loops")
    loops = next((lp for lp in assemblies
                  if all(reference_link_components(link) <= 1
                         for link in reference_vertex_links(gm, lp).values())),
                 assemblies[0])
    mult = {e: 0 for e in gm.graph.edge_ids()}
    for l in loops:
        for e in l:
            mult[abs(e)] += 1
    classes = [CyclicWord.of(gm.path_to_word(l)) for l in loops]
    canon = {}
    for i, l in enumerate(loops):
        canon[cyclic_canonical(l, unoriented=True)] = i
    perm = []
    for l in loops:
        key = cyclic_canonical(gm.map_path(l), unoriented=True)
        perm.append(canon.get(key, -1))
    transitive = sorted(perm) == list(range(len(loops))) \
        and reference_single_cycle(perm)
    links = reference_vertex_links(gm, loops)
    return NielsenLoops(loops, mult, classes, transitive,
                        [reference_link_components(links[v])
                         for v in range(gm.graph.nv)])


def assert_loops_match_reference(tt, orbits):
    """The same loops, multiplicities, classes and transitivity as the
    global search, or ValueError from both.  Returns the loops."""
    try:
        expected = reference_loops(tt, orbits)
    except ValueError:
        with pytest.raises(ValueError):
            nielsen_loops(tt, orbits)
        return None
    loops = nielsen_loops(tt, orbits)
    assert loops == expected
    return loops


@st.composite
def arc_systems(draw):
    """(identity train track on a connected graph of 1-4 vertices, orbits of
    tight edge paths of 1-4 edges) with an even number of at most six arc
    ends at every vertex."""
    nv = draw(st.integers(1, 4))
    vertex = st.integers(0, nv - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    edges += draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
    tt = identity_track(nv, edges)
    graph = tt.gm.graph
    arcs = []
    for _ in range(draw(st.integers(1, 6))):
        arc = [draw(st.sampled_from(graph.all_directions()))]
        for _ in range(draw(st.integers(0, 3))):
            onward = [d for d in graph.directions_at(graph.term_of(arc[-1]))
                      if d != -arc[-1]]
            if not onward:
                break
            arc.append(draw(st.sampled_from(onward)))
        arcs.append(tuple(arc))
    ends = Counter(graph.init_of(d) for p in arcs for d in (p[0], -p[-1]))
    assume(all(c % 2 == 0 and c <= 6 for c in ends.values()))
    return tt, arc_orbits(arcs)


@st.composite
def doubled_edges(draw):
    """(identity train track on a connected graph of 1-3 vertices, one
    orbit that runs over each edge twice, each time as an arc of its own in
    a drawn direction)."""
    nv = draw(st.integers(1, 3))
    vertex = st.integers(0, nv - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    edges += draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=2))
    tt = identity_track(nv, edges)
    arcs = [(draw(st.sampled_from((e, -e))),)
            for e in tt.gm.graph.edge_ids() for _ in range(2)]
    return tt, arc_orbits(arcs)


class TestLoopOracle:
    @given(arc_systems())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much,
                                     HealthCheck.too_slow])
    def test_random_arc_systems_match_the_global_search(self, system):
        assert_loops_match_reference(*system)

    @given(arc_systems() | doubled_edges())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much,
                                     HealthCheck.too_slow])
    def test_a_twice_covered_graph_has_a_turn_at_every_vertex(self, system):
        """Once every edge is covered twice, every vertex has a covered
        edge and so a turn in its link: `realize_surface` never reads a
        zero count."""
        try:
            loops = nielsen_loops(*system)
        except ValueError:
            return
        if all(c == 2 for c in loops.multiplicities.values()):
            assert min(loops.link_components) >= 1

    def test_a_later_pairing_closes_the_link(self):
        # eight ends at one vertex: the first tight pairing closes each arc
        # on itself and splits the link into {1, -1} and {2, -2}
        tt = identity_track(1, [(0, 0), (0, 0)])
        loops = assert_loops_match_reference(
            tt, arc_orbits([(1,), (1,), (2,), (2,)]))
        assert loops.loops == [(1,), (1, -2), (2,)]
        links = reference_vertex_links(tt.gm, loops.loops)
        assert reference_link_components(links[0]) == 1
        assert loops.link_components == [1]

    def test_a_vertex_without_a_circle_takes_the_first_pairings(self):
        # vertex 1 has no circle pairing for its four ends, so vertex 0
        # keeps its first tight pairing although a later one is a circle
        tt = identity_track(2, TWO_ROSES)
        arcs = [(1,), (1,), (2,), (2,), (4,), (5,)]
        loops = assert_loops_match_reference(tt, arc_orbits(arcs))
        assert loops.loops == arcs
        assert loops.link_components == [2, 2]
        circles = assert_loops_match_reference(tt, arc_orbits(arcs[:4]))
        assert circles.loops == [(1,), (1, -2), (2,)]
        assert circles.link_components == [1, 0]
