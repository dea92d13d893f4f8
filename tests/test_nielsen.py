from pathlib import Path

import pytest

from endotorus import nielsen
from endotorus.cli import parse
from endotorus.surface import classify
from endotorus.words import CyclicWord, Endomorphism, invert, parse_word
from endotorus.traintrack import FiniteOrderCertificate, TrainTrack, find_train_track
from endotorus.nielsen import (
    StableRepresentative,
    cancellation_radius,
    critical_equation,
    group_orbits,
    nielsen_loops,
    scan_pinps,
    stabilize,
    verify_orbit_relations,
)

PHI = Endomorphism(2, (parse_word("ab"), parse_word("ba")))
GOLDEN = Endomorphism(2, (parse_word("ab"), parse_word("a")))
SWAP = Endomorphism(2, (parse_word("b"), parse_word("a")))
PERIOD_TWO = Endomorphism(2, (parse_word("BA"), parse_word("A")))
COMMUTATOR = CyclicWord.of(parse_word("abAB"))
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_endo(name):
    return parse((CORPUS / f"{name}.endo").read_text()).endo


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

    def test_two_loop_multiplicities_checked(self):
        # synthetic check of the multiplicity counter on two loops
        stable = stabilize(find_train_track(GOLDEN))
        loops = nielsen_loops(stable.tt, stable.orbits)
        doubled = {e: 2 * c for (e, c) in loops.multiplicities.items()}
        assert all(v == 4 for v in doubled.values())


class TestVerdict:
    def test_bcc_radius_positive(self):
        tt = golden_tt()
        assert cancellation_radius(tt) > 0

    def test_reported_radius_is_the_scan_radius(self):
        # the refinement lengthens edge images, so the refined graph's own
        # bound (27/7) is not the one the scan used
        tt = find_train_track(PHI)
        stable = stabilize(tt)
        assert stable.radius == cancellation_radius(tt) == 3.0
        assert cancellation_radius(stable.tt) != stable.radius
        assert classify(PHI).atoroidal.radius == stable.radius

    def test_radius_belongs_to_the_returned_scan(self, monkeypatch):
        scanned = {}
        real = nielsen.scan_pinps

        def spy(tt, period_bound=8):
            out = real(tt, period_bound)
            scanned[id(out[0])] = cancellation_radius(tt)
            return out

        monkeypatch.setattr(nielsen, "scan_pinps", spy)
        for endo in (GOLDEN, corpus_endo("composite_geometric")):
            stable = stabilize(find_train_track(endo))
            assert len(scanned) > 1 and stable.radius == scanned[id(stable.tt)]
            scanned.clear()
