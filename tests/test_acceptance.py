"""Acceptance suite: each test prints one PASS line for its criterion after
asserting it at the stated tolerance."""

import itertools
import math
import random
import time
from pathlib import Path

import pytest

from endotorus.cli import parse, report_json, run
from endotorus.nielsen import (
    critical_equation,
    nielsen_loops,
    scan_pinps,
    stabilize,
    StableRepresentative,
)
from endotorus.surface import classify, reduction_search
from endotorus.torus import chi_zero_report, minimality_check
from endotorus.traintrack import TrainTrack, find_train_track
from endotorus.words import (
    CyclicWord,
    Endomorphism,
    cyclic_canonical,
    invert,
    parse_word,
    periodic_conjugacy_search,
)
from endotorus import subgroups as sg
from endotorus.subgroups import SubgroupGraph
from helpers import HNNPresentation, euler_char

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "corpus").glob("*.endo"))

PHI = Endomorphism(2, (parse_word("ab"), parse_word("ba")))
PSI = Endomorphism(3, (parse_word("ab"), parse_word("ba"), parse_word("a")))
GOLDEN = Endomorphism(2, (parse_word("ab"), parse_word("a")))
SWAP = Endomorphism(2, (parse_word("b"), parse_word("a")))
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def corpus_reports():
    """Two full classify passes over the corpus (default bounds), reused by
    the bookkeeping, agreement and determinism criteria."""
    def full_run():
        out = []
        for f in CORPUS:
            spec = parse(f.read_text())
            rep = run("classify", spec)
            rep["input"]["name"] = f.name
            out.append(rep)
        return out

    first = full_run()
    second = full_run()
    return first, second


def test_criterion_1_remark_example():
    t0 = time.monotonic()
    verdict = classify(PHI)
    assert verdict.kind == "irreducible_atoroidal"
    tt = find_train_track(PHI)
    assert isinstance(tt, TrainTrack)
    assert scan_pinps(tt, 8)[1] == []                         # (i)
    assert reduction_search(PHI) is None   # (ii)
    assert tt.data.as_lists() == [[1, 1], [1, 1]]             # (iii)
    assert tt.data.lam == 2.0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: irreducible+atoroidal flagship "
          f"(lambda=2 exact, empty scans) in {elapsed:.2f}s")


def test_criterion_2_extension_example():
    t0 = time.monotonic()
    verdict = classify(PSI)
    assert verdict.kind == "reducible"
    assert verdict.witness is not None and verdict.witness.factors[0].graph is not None
    factor = sg.stallings(3, verdict.witness.factors[0].basis)
    assert factor.contains(parse_word("a")) and factor.contains(parse_word("b"))
    assert not factor.contains(parse_word("c"))
    status, factor_basis = minimality_check(PSI)
    assert status == "not_minimal"
    fg = sg.stallings(3, factor_basis)
    assert fg.contains(parse_word("a")) and not fg.contains(parse_word("c"))
    report = chi_zero_report(PSI)
    assert not report["applicable"]
    assert "proper free factor" in report["inapplicable_reason"]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: rank-3 extension reducible with verified "
          f"witness, characterization inapplicable, in {elapsed:.2f}s")


def test_criterion_3_geometric_example():
    t0 = time.monotonic()
    stable = stabilize(find_train_track(GOLDEN))
    assert isinstance(stable, StableRepresentative) and stable.orbits
    loops = nielsen_loops(stable.tt, stable.orbits)
    assert set(loops.multiplicities.values()) == {2}
    assert loops.classes == [CyclicWord.of(parse_word("abAB"))]
    assert critical_equation(stable.tt, stable.orbits) < 1e-9
    verdict = classify(GOLDEN)
    surf = verdict.surface
    assert verdict.kind == "geometric"
    assert surf.genus == 1 and surf.boundary_count == 1
    assert surf.transitive_boundary and surf.fully_irreducible
    assert abs(surf.stretch - GOLDEN_RATIO) < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 3: once-punctured torus realization "
          f"(g=1, b=1, residual<1e-9) in {elapsed:.2f}s")


def test_criterion_4_euler_characteristic_suite():
    rng = random.Random(42)
    zero_cases = 0
    for _ in range(100):
        m = rng.randint(1, 8)
        n = rng.randint(1, m)
        chi = euler_char(HNNPresentation(m, n))
        assert chi == n - m
        assert (chi == 0) == (n == m)
        zero_cases += chi == 0
    print(f"\nPASS criterion 4: chi = n - m on 100 random presentations "
          f"({zero_cases} ascending)")


def test_criterion_5_volume_bookkeeping(corpus_reports):
    first, _ = corpus_reports
    folds = 0
    for rep in first:
        stab = rep.get("verdict", {}).get("stabilization")
        if not stab:
            continue
        for entry in stab["fold_log"]:
            folds += 1
            dv = entry["vol_before"] - entry["vol_after"]
            dorb = entry["orbit_before"] - entry["orbit_after"]
            assert abs(dv - entry["x"]) < 1e-9, rep["input"]["name"]
            assert abs(dorb - 2 * entry["x"]) < 1e-9, rep["input"]["name"]
    assert folds > 0, "corpus produced no fold steps to check"
    print(f"\nPASS criterion 5: |dvol - x| and |dorbit - 2x| < 1e-9 over "
          f"{folds} fold steps")


def test_criterion_6_oracle_agreement():
    checked = 0
    for f in CORPUS:
        endo = parse(f.read_text()).endo
        word_hit = periodic_conjugacy_search(endo, 6, 12)
        if not sg.is_injective(endo):
            continue
        tt = find_train_track(endo)
        pipeline = stabilize(tt) if isinstance(tt, TrainTrack) else tt
        if not isinstance(pipeline, StableRepresentative):
            continue
        if pipeline.orbits:
            loop_classes = nielsen_loops(pipeline.tt, pipeline.orbits).classes
            if word_hit is not None:
                (w, _, _) = word_hit
                assert CyclicWord.of(w) in loop_classes, f.name
                checked += 1
        elif pipeline.stable:
            assert word_hit is None, \
                f"{f.name}: word search found a witness but the Nielsen " \
                f"scan certified emptiness"
            checked += 1
    assert checked > 0
    print(f"\nPASS criterion 6: word search and Nielsen pipeline agree on "
          f"{checked} definite corpus cases")


def _random_cover(rng, rank, sheets):
    while True:
        perms = [list(rng.sample(range(sheets), sheets)) for _ in range(rank)]
        # connectivity of the action
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for p in perms:
                for w in (p[v], p.index(v)):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        if len(seen) == sheets:
            return perms


def test_criterion_7_stallings_suite():
    rng = random.Random(7)
    for trial in range(200):
        rank = rng.choice([2, 3])
        sheets = rng.randint(1, 6)
        perms = _random_cover(rng, rank, sheets)
        adj = {v: {} for v in range(sheets)}
        for g, p in enumerate(perms, start=1):
            for v in range(sheets):
                adj[v][g] = p[v]
                adj[p[v]][-g] = v
        graph = SubgroupGraph(rank, adj, 0)
        # Nielsen-Schreier: rank - 1 = index * (ambient rank - 1)
        assert graph.index() == sheets
        assert graph.graph_rank() - 1 == sheets * (rank - 1)
        # brute-force coset count through the permutation action, words of
        # length <= 8 (independent of the graph code)
        reachable = {0}
        frontier = {0}
        for _ in range(8):
            new = set()
            for v in frontier:
                for p in perms:
                    new.add(p[v])
                    new.add(p.index(v))
            frontier = new - reachable
            reachable |= new
            if not frontier:
                break
        assert len(reachable) == sheets
    print("\nPASS criterion 7: Nielsen-Schreier and coset counts on 200 "
          "random covers")


def test_criterion_8_reverse_direction_witness():
    report = chi_zero_report(SWAP)
    ws = report["witness_subgroup"]
    assert ws["fiber_basis"] == [[1]]
    assert ws["power"] == 2 and ws["conjugator"] == []
    assert ws["chi"] == 0
    chain = report["fiber_chain"]
    assert chain["conclusion"] == "infinite index (stable chain)"
    assert chain["certified"]
    assert chain["stabilized_at"] == 0
    assert chain["terms"][0] == {"vertices": 1, "edges": 1, "rank": 1,
                                 "index": "infinite"}
    print("\nPASS criterion 8: witness <a, t^2> with chi=0 and certified "
          "infinite index via the constant non-covering chain")


def test_criterion_9_determinism(corpus_reports):
    first, second = corpus_reports
    blob1 = "\n".join(report_json(r) for r in first)
    blob2 = "\n".join(report_json(r) for r in second)
    assert blob1 == blob2
    print(f"\nPASS criterion 9: byte-identical JSON over two corpus runs "
          f"({len(first)} inputs, {len(blob1)} bytes)")


def test_corpus_expectations(corpus_reports):
    first, _ = corpus_reports
    mismatches = []
    for rep in first:
        expect = rep["input"].get("expect")
        got = rep["verdict"]["kind"]
        if expect and got != expect:
            mismatches.append((rep["input"]["name"], expect, got))
    assert not mismatches, mismatches
    print(f"\nPASS corpus: all {len(first)} expected verdicts reproduced")
