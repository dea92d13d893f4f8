import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import accumulate, combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from endotorus import nielsen
from endotorus.cli import main, parse
from endotorus.graphmap import (
    POINT_TOL,
    GraphMap,
    MarkedGraph,
    edge_digraph,
    transition_matrix,
)
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
)
from endotorus.nielsen import (
    INTERIOR_BOUND,
    NielsenLoops,
    NielsenOrbit,
    NielsenPath,
    StableRepresentative,
    _enumerate_on,
    _lean_scan,
    _ray,
    critical_equation,
    group_orbits,
    nielsen_loops,
    prepare_representative,
    scan_pinps,
    stabilize,
)

from helpers import TWO_ROSES, arc_orbits, identity_track

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

    def test_period_two_paths(self):
        tt, pinps = scan_pinps(find_train_track(PERIOD_TWO), 8)
        assert [p.period for p in pinps] == [2, 2]
        assert sorted(len(p.path) for p in pinps) == [4, 8]

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
        (tt, pinps) = _lean_scan(stable.tt, 8)
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
        # the refinement lengthens edge images, so the refined graph's own
        # bound (27/7) is not the one the scan used
        tt = find_train_track(PHI)
        stable = stabilize(tt)
        assert stable.radius == tt.radius == 3.0
        assert stable.tt.radius != stable.radius
        assert classify(PHI).atoroidal.radius == stable.radius

    def test_radius_belongs_to_the_returned_scan(self, monkeypatch):
        scanned = {}
        real = nielsen._lean_scan

        def spy(tt, period_bound):
            out = real(tt, period_bound)
            scanned[id(out[0])] = tt.radius
            return out

        monkeypatch.setattr(nielsen, "_lean_scan", spy)
        for endo in (GOLDEN, corpus_endo("composite_geometric")):
            stable = stabilize(find_train_track(endo))
            assert stable.fold_log and stable.radius == scanned[id(stable.tt)]
            scanned.clear()


# ---------------------------------------------------------------------------
# scan oracle: the per-pair two-pointer merge over eigenrays grown by
# remap-and-truncate, kept here as the reference for the junction index
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
    """(prepared train track, period bound, radius, paths) of every
    representative that `stabilize` visits on the endomorphism's train
    track, whether a scan found its paths or a fold carried them."""
    return [call[1:] for call in stabilize_steps(endo)[1] if call[4] is not None]


def stabilize_steps(endo, steps=nielsen.STABILIZE_STEPS):
    """(stable representative, calls) of `stabilize`, held to at most
    `steps` folds, on the endomorphism's train track.  The calls are
    (function, train track, period bound, radius, result) of every scan
    (`_enumerate_on`) and every carry (`_carry`, None when it fails), in
    call order."""
    calls = []

    def recording(name, real):
        def call(tt, *args):
            out = real(tt, *args)
            calls.append((name, tt, args[-2], args[-1], out))
            return out
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nielsen, "STABILIZE_STEPS", steps)
        for name in ("_enumerate_on", "_carry"):
            patch.setattr(nielsen, name, recording(name, getattr(nielsen, name)))
        stable = stabilize(find_train_track(endo))
    return stable, calls


def periodic_directions(gm, period_bound):
    """(direction, least period under the direction map) for each direction
    whose period is at most the bound: the directions a scan pairs."""
    dmap = {d: gm.image_of_edge(d)[0] for d in gm.graph.all_directions()}
    out = []
    for d in dmap:
        step, x = 1, dmap[d]
        while x != d and step < period_bound:
            step, x = step + 1, dmap[x]
        if x == d:
            out.append((d, step))
    return out


def direction_images(gm):
    return {d: gm.image_of_edge(d) for d in gm.graph.all_directions()}


def assert_rays_are_eigenrays(tt, period_bound, radius):
    gm = tt.gm
    lengths = gm.graph.lengths
    image = direction_images(gm)
    for (d, step) in periodic_directions(gm, period_bound):
        (r, pos) = _ray(image, lengths, d, step, radius)
        assert r[0] == d
        assert pos == list(accumulate(lengths[abs(e)] for e in r))
        mapped = r
        for _ in range(step):
            mapped = gm.map_path(mapped)
        assert mapped[:len(r)] == r
        assert gm.graph.path_length(r) >= radius - 1e-9 or mapped == r
        # the ray stops at its first vertex at or beyond the target
        assert mapped == r or (pos[-1] >= radius
                               and (len(pos) == 1 or pos[-2] < radius))
        assert reference_ray(gm, d, step, radius)[:len(r)] == r


def random_train_track(images, period_bound):
    endo = Endomorphism(len(images), tuple(images))
    assume(all(endo.images))
    tt = find_train_track(endo, max_iterations=30)
    assume(isinstance(tt, TrainTrack) and tt.data.expanding
           and tt.data.irreducible)
    return (prepare_representative(tt, min(INTERIOR_BOUND, period_bound)),
            tt.radius)


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


def assert_scan_matches_reference(tt, period_bound, radius, tol=POINT_TOL):
    """The scan and the reference, at the tolerance, find the same paths
    and hand the same candidates to `_least_return` in the same order, so
    a change in the junctions found shows even when no Nielsen path
    depends on it.  Returns the paths."""
    candidates = []
    real = nielsen._least_return

    def recording(gm, rho, period_bound, radius):
        candidates.append(rho)
        return real(gm, rho, period_bound, radius)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nielsen, "_least_return", recording)
        patch.setattr(nielsen, "POINT_TOL", tol)
        out = _enumerate_on(tt, period_bound, radius)
        scanned = list(candidates)
        candidates.clear()
        assert reference_enumerate(tt, period_bound, radius, tol) == out
        assert candidates == scanned
    return out


class TestScanOracle:
    @pytest.mark.parametrize("name", GEOMETRIC_CLASSIFY)
    def test_every_rescan_matches_the_pair_merge(self, name):
        calls = rescans(corpus_endo(name))
        assert calls
        for (tt, period_bound, radius, out) in calls:
            assert assert_scan_matches_reference(tt, period_bound, radius) == out

    @pytest.mark.parametrize("name", GEOMETRIC_CLASSIFY)
    def test_coarse_tolerance_matches_the_pair_merge(self, name):
        # a tolerance wider than the short edges puts several vertices of a
        # ray within reach of one position and lets the second ray's side
        # reach past the radius: the matching rule must still be the merge's
        for (tt, period_bound, radius, _) in rescans(corpus_endo(name))[:3]:
            for tol in (0.01, 0.05):
                assert_scan_matches_reference(tt, period_bound, radius, tol)

    @pytest.mark.parametrize("name", GEOMETRIC_CLASSIFY)
    def test_eigenrays_are_prefixes_of_their_images(self, name):
        for (tt, period_bound, radius, _) in rescans(corpus_endo(name))[:4]:
            assert_rays_are_eigenrays(tt, period_bound, radius)

    @given(st.tuples(WORDS, WORDS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_rank2_scans_match_the_pair_merge(self, images):
        period_bound = 3
        (tt, radius) = random_train_track(images, period_bound)
        assert_rays_are_eigenrays(tt, period_bound, radius)
        for tol in (POINT_TOL, 0.05):
            assert_scan_matches_reference(tt, period_bound, radius, tol)

    @given(rank3_images())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_rank3_scans_match_the_pair_merge(self, images):
        # gates with three or more directions, and gates of several
        # directions at vertices other than the base, which the rank-2
        # maps rarely have
        period_bound = 3
        (tt, radius) = random_train_track(images, period_bound)
        assert_rays_are_eigenrays(tt, period_bound, radius)
        for tol in (POINT_TOL, 0.05):
            assert_scan_matches_reference(tt, period_bound, radius, tol)


# a = A A A B A A A A B, b = A A A A B (trace -8, det -1, lambda = 4 + sqrt 17):
# the refinement gives directions of period 6 and more, whose whole
# f^period images run to hundreds of thousands of letters
LONG_PERIOD = "rank 2; a -> A A A B A A A A B; b -> A A A A B;"


class TestLongPeriodRays:
    def test_a_ray_makes_only_the_letters_it_keeps(self):
        tt = find_train_track(parse(LONG_PERIOD).endo)
        gm = tt.gm
        assert len(gm.graph.edges) == 2
        image = direction_images(gm)
        periodic = periodic_directions(gm, 8)
        assert periodic
        for (d, step) in periodic:
            assert 8 % step == 0
            tracemalloc.start()
            try:
                (r, _) = _ray(image, gm.graph.lengths, d, 8, tt.radius)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            assert r == reference_ray(gm, d, 8, tt.radius)[:len(r)]

    def test_a_scan_keeps_no_ray_positions(self):
        # each eigenray drops its vertex positions once its junction entries
        # are made: traced, this scan peaks at 14.9 MiB, and at 26.1 MiB
        # when every ray held its positions to the end of the sweep
        tt = find_train_track(parse("rank 2; a -> a a a a a a b; b -> a;").endo)
        tracemalloc.start()
        try:
            (_, pinps) = scan_pinps(tt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pinps
        assert peak < 20 << 20

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
    def test_every_carry_is_the_scan(self, endo):
        for (tt, period_bound, radius, out) in carried_steps(endo):
            # the full scan of each carried track, coarsened onto it, is the
            # carried list, and the track keeps every end it needs
            assert radius == tt.radius
            (lean, scanned) = _lean_scan(tt, period_bound)
            assert lean is tt and scanned == out
            assert out == _enumerate_on(tt, period_bound, radius)
            assert out == reference_enumerate(tt, period_bound, radius)

    @pytest.mark.parametrize("name", ("composite_geometric",
                                      "double_cover_geometric"))
    def test_squares_carry_the_scan(self, name):
        # the squares refine to about 360 edges: two folds, and no
        # reference, which takes minutes per representative there
        for (tt, period_bound, radius, out) in \
                carried_steps(corpus_endo(name).power(2), steps=2):
            assert radius == tt.radius
            (lean, scanned) = _lean_scan(tt, period_bound)
            assert lean is tt and scanned == out
            assert out == _enumerate_on(tt, period_bound, radius)

    @pytest.mark.parametrize("endo", [endo for (_, endo) in CARRY_CASES],
                             ids=[name for (name, _) in CARRY_CASES])
    def test_only_the_scan_refines(self, endo, monkeypatch):
        # interior periodic points are sought once per scan, never per fold
        calls = Counter()

        def counting(name):
            real = getattr(nielsen, name)

            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        for name in ("scan_pinps", "interior_periodic_cuts"):
            monkeypatch.setattr(nielsen, name, counting(name))
        stable = stabilize(find_train_track(endo))
        assert stable.fold_log and calls["scan_pinps"] >= 1
        assert calls["interior_periodic_cuts"] == calls["scan_pinps"]

    @pytest.mark.parametrize("name", ("golden_geometric", "composite_geometric"))
    def test_a_dropped_path_falls_back_to_the_scan(self, name, monkeypatch):
        real = nielsen._carry

        def dropping(*args):
            return real(*args)[1:]

        monkeypatch.setattr(nielsen, "_carry", dropping)
        stable = stabilize(find_train_track(corpus_endo(name)))
        (tt, pinps) = _lean_scan(stable.tt, 8)
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
# the lean representative: the scan's paths, read on the train track refined
# only at their ends, are what a scan of that track finds, and stabilization
# on it converges (ROADMAP item 4)
# ---------------------------------------------------------------------------

def a_to_the_k_b(k):
    return parse(f"rank 2; a -> {'a ' * k}b; b -> a;").endo


def euler_characteristic(tt):
    return tt.gm.graph.nv - len(tt.gm.graph.edges)


class TestLeanRepresentative:
    @given(st.tuples(WORDS, WORDS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_rank2_coarsening_is_the_lean_scan(self, images):
        period_bound = 3
        tt = expanding_train_track(images)
        (lean, paths) = _lean_scan(tt, period_bound)
        if not paths:
            lean = tt
        assert paths == _enumerate_on(lean, period_bound, tt.radius)
        # the lean track adds one vertex per path end that is no vertex of tt
        g = lean.gm.graph
        ends = {v for p in paths
                for v in (g.init_of(p.path[0]), g.term_of(p.path[-1]))}
        assert set(range(tt.gm.graph.nv, g.nv)) <= ends
        assert euler_characteristic(lean) == euler_characteristic(tt)

    def test_a_coarsened_path_must_pass_admit(self, monkeypatch):
        # a path read on the lean track that the acceptance rule turns down
        # fails a certified invariant
        monkeypatch.setattr(nielsen, "_readmit", lambda *args: None)
        with pytest.raises(InternalInconsistency,
                           match="coarsened Nielsen path fails"):
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

    def test_double_cover_geometric_runs_out_of_folds(self):
        # each partial fold shrinks a segment of a path of two one-edge legs
        # and adds an edge; this waits for the valence-two normalization of
        # ROADMAP item 1
        stable = stabilize(find_train_track(corpus_endo("double_cover_geometric")))
        assert not stable.stable
        assert len(stable.fold_log) == nielsen.STABILIZE_STEPS == 24


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
# cut-set oracle: the interior periodic points found once, then closed under
# the single map, as the refinement found them before it read the fixed-point
# set as f-invariant
# ---------------------------------------------------------------------------

def reference_point_image(gm, e, pos):
    """Image of the interior point at metric position pos on edge e, as
    (edge, position from that edge's initial vertex)."""
    img = gm.eimg[e]
    le = gm.graph.lengths[e]
    total = sum(gm.graph.lengths[abs(x)] for x in img)
    t = pos / le * total
    acc = 0.0
    for x in img:
        lx = gm.graph.lengths[abs(x)]
        if t <= acc + lx + 1e-12:
            inner = t - acc
            return (abs(x), inner) if x > 0 else (abs(x), lx - inner)
        acc += lx
    x = img[-1]
    return (abs(x), gm.graph.lengths[abs(x)] if x > 0 else 0.0)


def reference_cuts(tt, interior_bound):
    """Interior fixed points of f^per for per up to the bound, closed under
    the map."""
    gm = tt.gm
    lam = tt.stretch
    cuts = {e: [] for e in gm.graph.edge_ids()}

    def add(e, p):
        le = gm.graph.lengths[e]
        if p < POINT_TOL or p > le - POINT_TOL:
            return False
        for q in cuts[e]:
            if abs(q - p) < POINT_TOL:
                return False
        cuts[e].append(p)
        return True

    paths = {e: (e,) for e in gm.graph.edge_ids()}   # f^per(e)
    for per in range(1, interior_bound + 1):
        stretch = lam ** per
        for e in gm.graph.edge_ids():
            paths[e] = gm.map_path(paths[e])
            le = gm.graph.lengths[e]
            acc = 0.0
            for x in paths[e]:
                lx = gm.graph.lengths[abs(x)]
                if abs(x) == e:
                    if x > 0:
                        p = acc / (stretch - 1.0)
                    else:
                        p = (acc + le) / (stretch + 1.0)
                    add(e, p)
                acc += lx
    # close under the single map
    for _ in range(4 * interior_bound + 4):
        new = False
        for e in sorted(cuts):
            for p in list(cuts[e]):
                (e2, p2) = reference_point_image(gm, e, p)
                if add(e2, p2):
                    new = True
        if not new:
            break
    return {e: sorted(ps) for (e, ps) in cuts.items() if ps}


def assert_cuts_match_reference(tt, interior_bound):
    """The same edges, in the same order, with the same floats."""
    out = nielsen.interior_periodic_cuts(tt, interior_bound)
    assert list(out.items()) == list(reference_cuts(tt, interior_bound).items())
    return out


def classify_cut_calls(endo):
    """(train track, bound) of every `interior_periodic_cuts` call that
    `classify` makes on the endomorphism."""
    calls = []
    real = nielsen.interior_periodic_cuts

    def recording(tt, interior_bound):
        calls.append((tt, interior_bound))
        return real(tt, interior_bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nielsen, "interior_periodic_cuts", recording)
        classify(endo)
    return calls


def expanding_train_track(images):
    endo = Endomorphism(len(images), tuple(images))
    assume(all(endo.images))
    tt = find_train_track(endo, max_iterations=30)
    assume(isinstance(tt, TrainTrack) and tt.data.expanding
           and tt.data.irreducible)
    return tt


class TestCutOracle:
    def test_every_corpus_refinement_matches_the_closure(self):
        calls = [call for path in sorted(CORPUS.glob("*.endo"))
                 for call in classify_cut_calls(parse(path.read_text()).endo)]
        assert len(calls) >= 7
        assert any(assert_cuts_match_reference(tt, bound)
                   for (tt, bound) in calls)

    @pytest.mark.parametrize("name", ("golden_geometric", "composite_geometric",
                                      "double_cover_geometric"))
    def test_square_refinements_match_the_closure(self, name):
        # the squares of the last two cut their 2-edge train tracks into
        # about 360 edges
        calls = classify_cut_calls(corpus_endo(name).power(2))
        assert calls
        for (tt, bound) in calls:
            assert assert_cuts_match_reference(tt, bound)

    @given(st.tuples(WORDS, WORDS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_rank2_cuts_match_the_closure(self, images):
        assert_cuts_match_reference(expanding_train_track(images),
                                    INTERIOR_BOUND)

    @given(rank3_images())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_random_rank3_cuts_match_the_closure(self, images):
        assert_cuts_match_reference(expanding_train_track(images),
                                    INTERIOR_BOUND)


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
