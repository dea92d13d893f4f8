import pytest
from hypothesis import given, strategies as st

from endotorus.cli import parse, run
from endotorus.words import Endomorphism, parse_word
from endotorus import subgroups as sg
from endotorus import torus
from endotorus.traintrack import (
    InvariantFactor,
    ReductionWitness,
    verify_reduction_witness,
)
from endotorus.torus import (
    chi_zero_report,
    fiber_chain,
    minimality_check,
    witness_subgroup,
)
from helpers import HNNPresentation, euler_char

PHI = Endomorphism(2, (parse_word("ab"), parse_word("ba")))
PSI = Endomorphism(3, (parse_word("ab"), parse_word("ba"), parse_word("a")))
SWAP = Endomorphism(2, (parse_word("b"), parse_word("a")))
SQUARES = Endomorphism(2, (parse_word("aa"), parse_word("bb")))


class TestEulerChar:
    def test_direct(self):
        assert euler_char(HNNPresentation(3, 1)) == -2

    def test_ascending_is_zero(self):
        p = HNNPresentation(4, 4)
        assert euler_char(p) == 0 and p.ascending

    def test_witness_shape(self):
        assert euler_char(HNNPresentation(2, 2)) == 0

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_formula(self, m, n):
        if n <= m:
            assert euler_char(HNNPresentation(m, n)) == n - m


class TestWitnessSubgroup:
    def test_swap_period_two(self):
        ws = witness_subgroup(SWAP, [parse_word("a")], (), 2)
        assert ws.chi == 0 and ws.cyclic_fiber
        assert ws.power == 2 and ws.conjugator == ()

    def test_extension_witness(self):
        ws = witness_subgroup(PSI, [parse_word("a"), parse_word("b")], (), 1)
        assert ws.chi == 0 and not ws.cyclic_fiber

    def test_rejects_non_invariant(self):
        with pytest.raises(ValueError):
            witness_subgroup(PHI, [parse_word("a")], (), 1)

    def test_rejects_full_fiber(self):
        with pytest.raises(ValueError):
            witness_subgroup(SWAP, [parse_word("a"), parse_word("b")], (), 1)


class TestFiberChain:
    def test_swap_constant_chain(self):
        a = sg.stallings(2, [parse_word("a")])
        chain = fiber_chain(SWAP, a, (), 2)
        assert chain["conclusion"] == "infinite index (stable chain)"
        assert chain["certified"] and chain["stabilized_at"] == 0
        assert chain["terms"][0]["index"] == "infinite"
        assert chain["ascending"]

    def test_extension_reaches_everything(self):
        ab = sg.stallings(3, [parse_word("a"), parse_word("b")])
        chain = fiber_chain(PSI, ab, (), 1)
        assert chain["conclusion"] == "finite index"
        assert chain["finite_index_at"] == 1
        assert chain["terms"][1]["index"] == 1

    def test_squares_chain(self):
        a = sg.stallings(2, [parse_word("a")])
        chain = fiber_chain(SQUARES, a, (), 1)
        assert chain["conclusion"] == "infinite index (stable chain)"

    def test_rejects_full_group(self):
        with pytest.raises(ValueError):
            fiber_chain(SWAP, sg.SubgroupGraph.full_group(2), (), 1)


class TestMinimality:
    def test_automorphism_minimal(self):
        assert minimality_check(SWAP)[0] == "minimal"

    def test_extension_not_minimal(self):
        status, factor = minimality_check(PSI)
        assert status == "not_minimal"
        fg = sg.stallings(3, factor)
        assert fg.contains(parse_word("a")) and not fg.contains(parse_word("c"))

    def test_remark_map_minimal(self):
        assert minimality_check(PHI)[0] == "minimal"

    def test_image_in_a_conjugated_factor(self):
        # every image is u w u^-1 with u = Cbc and w in <a, b>: the image
        # graph has a hair, and the invariant factor is u <a, b> u^-1
        spec = parse("rank 3; a -> C b c b A B A C B c; b -> C b c a a C B c; "
                     "c -> C b c B C B c;")
        assert minimality_check(spec.endo)[0] == "not_minimal"
        verdict = run("classify", spec)["verdict"]
        assert verdict["kind"] == "reducible"
        w = verdict["reduction_witness"]
        word = lambda text: () if text == "1" else parse_word(text)
        witness = ReductionWitness(
            [InvariantFactor([word(b) for b in basis], word(x))
             for (basis, x) in zip(w["factors"], w["conjugators"])],
            w["provenance"])
        assert verify_reduction_witness(spec.endo, witness)
        assert run("report", spec)["characterization"]["applicable"] is False


class TestReport:
    def test_swap_reverse_direction(self):
        rep = chi_zero_report(SWAP)
        assert rep["applicable"]
        ws = rep["witness_subgroup"]
        assert ws["fiber_basis"] == [[1]] and ws["power"] == 2 and ws["conjugator"] == []
        assert ws["chi"] == 0
        chain = rep["fiber_chain"]
        assert chain["conclusion"] == "infinite index (stable chain)" and chain["certified"]

    def test_extension_inapplicable(self):
        rep = chi_zero_report(PSI)
        assert not rep["applicable"]
        assert "proper free factor" in rep["inapplicable_reason"]
        assert rep["fiber_chain"]["conclusion"] == "finite index"

    def test_remark_map_forward_direction_cited(self):
        rep = chi_zero_report(PHI)
        assert rep["verdict"] == "irreducible_atoroidal"
        assert rep["applicable"]
        assert "cited conclusion" in rep["forward_direction"]
        assert "witness_subgroup" not in rep

    def test_squares_report(self):
        rep = chi_zero_report(SQUARES)
        assert rep["applicable"]
        assert rep["verdict"] == "reducible"
        assert rep["fiber_chain"]["conclusion"] == "infinite index (stable chain)"

    def test_torus_view_carries_the_witness_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("no witness subgroup")

        monkeypatch.setattr(torus, "witness_subgroup", failing)
        spec = parse("rank 2; a -> b; b -> a;")
        report = run("report", spec)["characterization"]
        assert report["witness_error"] == "no witness subgroup"
        assert run("torus", spec)["witness_error"] == report["witness_error"]

    def test_spot_check(self):
        # the image subgroup is invariant; its preimage is everything
        image = sg.stallings(2, PHI.images)
        chain = fiber_chain(PHI, image, (), 1)
        assert chain["ascending"] and chain["finite_index_at"] == 1
