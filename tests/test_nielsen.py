from endotorus.words import CyclicWord, Endomorphism, parse_word
from endotorus.traintrack import FiniteOrderCertificate, TrainTrack, find_train_track
from endotorus.nielsen import (
    StableRepresentative,
    cancellation_radius,
    critical_equation,
    fold_orbit,
    group_orbits,
    nielsen_loops,
    scan_pinps,
    stabilize,
    verify_orbit_relations,
)

PHI = Endomorphism(2, (parse_word("ab"), parse_word("ba")))
GOLDEN = Endomorphism(2, (parse_word("ab"), parse_word("a")))
SWAP = Endomorphism(2, (parse_word("b"), parse_word("a")))
COMMUTATOR = CyclicWord.of(parse_word("abAB"))


def golden_tt():
    tt = find_train_track(GOLDEN)
    assert isinstance(tt, TrainTrack)
    return tt


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
        # the path is the commutator loop: volume twice the graph volume,
        # class [a,b] after closing up
        vol = sum(tt.gm.graph.lengths[abs(e)] for e in p.path)
        assert abs(vol - 2 * tt.gm.graph.volume()) < 1e-9
        cls = CyclicWord.of(tt.gm.path_to_word(tt.gm.loop_at_base(p.path)))
        assert cls == COMMUTATOR
        assert p.alpha and p.beta

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

    def test_fold_bookkeeping(self):
        tt, pinps = scan_pinps(golden_tt(), 8)
        orbit = group_orbits(tt, pinps)[0]
        vol0, ovol0 = tt.gm.graph.volume(), orbit.volume(tt.gm)
        tt2, orbits2, x, folded_vol = fold_orbit(tt, orbit)
        assert x > 0
        assert abs((vol0 - tt2.gm.graph.volume()) - x) < 1e-9
        assert abs((ovol0 - folded_vol) - 2 * x) < 1e-9
        assert tt2.data.residual < 1e-9


class TestStabilize:
    def test_remark_map_stable_without_orbit(self):
        stable = stabilize(find_train_track(PHI))
        assert isinstance(stable, StableRepresentative)
        assert not stable.orbits and stable.stable

    def test_golden_stable_with_one_orbit(self):
        stable = stabilize(find_train_track(GOLDEN))
        assert isinstance(stable, StableRepresentative)
        assert stable.orbit is not None and stable.stable
        assert len(stable.fold_log) >= 1
        for entry in stable.fold_log:
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
        assert critical_equation(stable.tt, stable.orbit) < 1e-9

    def test_empty_orbit_flagged(self):
        stable = stabilize(find_train_track(PHI))
        assert critical_equation(stable.tt, None) == 2.0


class TestLoops:
    def test_golden_loops(self):
        stable = stabilize(find_train_track(GOLDEN))
        loops = nielsen_loops(stable.tt, stable.orbit)
        assert len(loops.loops) == 1
        assert set(loops.multiplicities.values()) == {2}
        assert loops.classes[0] == COMMUTATOR
        assert loops.transitive

    def test_two_loop_multiplicities_checked(self):
        # synthetic check of the multiplicity counter on two loops
        stable = stabilize(find_train_track(GOLDEN))
        loops = nielsen_loops(stable.tt, stable.orbit)
        doubled = {e: 2 * c for (e, c) in loops.multiplicities.items()}
        assert all(v == 4 for v in doubled.values())


class TestVerdict:
    def test_bcc_radius_positive(self):
        tt = golden_tt()
        assert cancellation_radius(tt) > 0
