from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from endotorus.cli import parse, run
from endotorus.surface import Analysis, Bounds
from endotorus.words import Endomorphism, parse_word, reduce_word
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
    subgroup_report,
    witness_subgroup,
)
from helpers import HNNPresentation, euler_char, reference_witness_block

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

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


def verified(endo, *bases):
    """The reduction witness A_1 -> A_2 -> ... -> A_1 with trivial
    conjugators, each A_i given by the texts of its basis; it must pass
    `verify_reduction_witness`."""
    witness = verify_reduction_witness(endo, ReductionWitness(
        [InvariantFactor([parse_word(w) for w in basis], ()) for basis in bases],
        "test"))
    assert witness
    return witness


def marked_verified(endo, *bases):
    """The witness of `verified`, marked verified by hand by folding each
    factor's graph, for systems that its check refuses."""
    return ReductionWitness(
        [InvariantFactor(basis, (), sg.stallings(endo.rank, basis))
         for basis in ([parse_word(w) for w in texts] for texts in bases)],
        "test")


class TestWitnessSubgroup:
    def test_swap_period_two(self):
        ws = witness_subgroup(SWAP, verified(SWAP, ["a"], ["b"]))
        assert ws.chi == 0 and ws.cyclic_fiber
        assert ws.power == 2 and ws.conjugator == ()

    def test_extension_witness(self):
        ws = witness_subgroup(PSI, verified(PSI, ["a", "b"]))
        assert ws.chi == 0 and not ws.cyclic_fiber

    def test_rejects_non_invariant(self):
        witness = ReductionWitness([InvariantFactor([parse_word("a")], ())],
                                   "test")
        assert not verify_reduction_witness(PHI, witness)
        with pytest.raises(ValueError):
            witness_subgroup(PHI, witness)

    def test_rechecks_invariance(self):
        # a witness marked verified by hand, which phi does not keep
        witness = marked_verified(PHI, ["a"])
        with pytest.raises(ValueError, match="invariance"):
            witness_subgroup(PHI, witness)

    def test_rejects_full_fiber(self):
        # two factors, each all of F, marked verified by hand: the witness's
        # own check refuses them
        witness = marked_verified(SWAP, ["a", "b"], ["a", "b"])
        with pytest.raises(ValueError,
                           match="witness fiber must be a proper subgroup"):
            witness_subgroup(SWAP, witness)


def chain_of(endo, *bases):
    return fiber_chain(witness_subgroup(endo, verified(endo, *bases)))


class TestFiberChain:
    def test_swap_constant_chain(self):
        chain = chain_of(SWAP, ["a"], ["b"])
        assert chain["conclusion"] == "infinite index (stable chain)"
        assert chain["certified"] and chain["stabilized_at"] == 0
        assert chain["terms"][0]["index"] == "infinite"
        assert chain["ascending"]

    def test_extension_reaches_everything(self):
        chain = chain_of(PSI, ["a", "b"])
        assert chain["conclusion"] == "finite index"
        assert chain["finite_index_at"] == 1
        assert chain["terms"][1]["index"] == 1

    def test_squares_chain(self):
        chain = chain_of(SQUARES, ["a"])
        assert chain["conclusion"] == "infinite index (stable chain)"


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
        # the image subgroup is invariant; its preimage is everything (a
        # subgroup of rank 2 in F_2 is no proper free factor, so the
        # witness's check refuses it and it is marked verified by hand)
        witness = marked_verified(PHI, ["ab", "ba"])
        chain = fiber_chain(witness_subgroup(PHI, witness))
        assert chain["ascending"] and chain["finite_index_at"] == 1


# the witness block of the report against the construction built from
# scratch (helpers.reference_witness_block)

WITNESS_KEYS = ("witness_subgroup", "fiber_chain", "witness_error")
TORUS_MAPS = (
    "rank 2; a -> a; b -> 1;",                        # the chain ends in F
    "rank 3; a -> C A A B; b -> 1; c -> b C B B;",    # a trivial image
    "rank 3; a -> b a a b; b -> c c; c -> c;",        # non-injective preimage
)


def assert_witness_block_matches_reference(endo, bounds=Bounds()):
    """The report's witness entries equal the reference's on the analysis's
    witness; returns them, or None without a witness."""
    analysis = Analysis(endo, bounds)
    witness = analysis.reduction_witness
    if witness is None:
        return None
    report = subgroup_report(analysis)
    block = {key: report[key] for key in WITNESS_KEYS if key in report}
    assert block == reference_witness_block(endo, witness, bounds.kmax)
    return block


def corpus_endos():
    return [parse(path.read_text()).endo
            for path in sorted(CORPUS.glob("*.endo"))]


def bounded_endomorphisms():
    """Rank-2 and rank-3 maps with images of at most 4 letters, trivial
    images included."""
    def maps(rank):
        letters = st.integers(-rank, rank).filter(bool)
        image = st.lists(letters, max_size=4).map(reduce_word)
        return st.lists(image, min_size=rank, max_size=rank).map(
            lambda images: Endomorphism(rank, tuple(images)))
    return st.one_of(maps(2), maps(3))


class TestWitnessBlockOracle:
    def test_corpus_and_squares(self):
        blocks = [assert_witness_block_matches_reference(e)
                  for endo in corpus_endos() for e in (endo, endo.power(2))]
        assert sum(block is not None for block in blocks[::2]) == 14
        assert sum(block is not None for block in blocks[1::2]) == 14

    def test_torus_maps(self):
        blocks = [assert_witness_block_matches_reference(parse(text).endo)
                  for text in TORUS_MAPS]
        assert blocks[0]["fiber_chain"]["finite_index_at"] == 1
        assert blocks[1] == {"witness_error": "generator image must be nontrivial"}
        assert blocks[2]["witness_error"].startswith(
            "preimage for non-injective maps")

    def test_a_two_step_conjugator_telescopes(self):
        # the classes of a and c swap with conjugators A and c: x = phi(A) c
        block = assert_witness_block_matches_reference(
            parse("rank 3; a -> A b a; b -> c A C; c -> a;").endo)
        assert block["witness_subgroup"]["power"] == 2
        assert block["witness_subgroup"]["conjugator"] == list(parse_word("ABac"))

    @given(bounded_endomorphisms())
    @settings(max_examples=150, deadline=None)
    def test_random_maps(self, endo):
        assert_witness_block_matches_reference(
            endo, Bounds(max_period=2, max_len=4, max_iterations=30))
