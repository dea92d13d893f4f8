import itertools
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from endotorus.cli import parse
from endotorus.words import (
    CyclicWord,
    Endomorphism,
    _canonical_cyclic_words,
    _invert_ords,
    _least_rotation,
    _letter,
    concat,
    conjugate,
    cyclic_canonical,
    cyclic_reduce,
    find_conjugator,
    invert,
    is_conjugate,
    parse_word,
    periodic_conjugacy_search,
    reduce_word,
    show_word,
    word_key,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

PHI = Endomorphism(2, (parse_word("ab"), parse_word("ba")))      # irreducible, atoroidal
GOLDEN = Endomorphism(2, (parse_word("ab"), parse_word("a")))    # geometric, stretch = golden ratio
SWAP = Endomorphism(2, (parse_word("b"), parse_word("a")))


def letters(rank):
    return st.integers(-rank, rank).filter(lambda x: x != 0)


def words(rank, max_size=10):
    return st.lists(letters(rank), max_size=max_size).map(tuple)


class TestReduce:
    def test_full_cancellation(self):
        assert reduce_word(parse_word("a") + parse_word("A")) == ()

    def test_inner_cancellation(self):
        assert reduce_word((1, 2, -2, 1)) == (1, 1)

    def test_already_reduced(self):
        assert reduce_word((1, 2, -1)) == (1, 2, -1)

    @given(words(3, 12))
    def test_idempotent(self, w):
        assert reduce_word(reduce_word(w)) == reduce_word(w)

    @given(words(3, 12))
    def test_length_nonincreasing(self, w):
        assert len(reduce_word(w)) <= len(w)

    @given(words(3, 10))
    def test_inverse_cancels(self, w):
        assert concat(w, invert(w)) == ()


class TestParse:
    def test_roundtrip(self):
        assert parse_word("abA") == (1, 2, -1)
        assert show_word((1, 2, -1)) == "abA"
        assert parse_word("") == ()
        assert show_word(()) == "1"

    def test_parse_reduces(self):
        assert parse_word("aA") == ()


class TestApply:
    def test_paper_remark_map(self):
        assert PHI.apply(parse_word("ab")) == parse_word("abba")

    def test_empty_word(self):
        assert PHI.apply(()) == ()

    def test_substitution_with_cancellation(self):
        # (a->ab, b->a) on aba^-1b^-1: ab.a.(b^-1 a^-1).a^-1
        assert GOLDEN.apply(parse_word("abAB")) == parse_word("abaBAA")

    @given(words(2, 8), words(2, 8))
    @settings(max_examples=60)
    def test_homomorphism(self, u, v):
        assert PHI.apply(concat(u, v)) == concat(PHI.apply(u), PHI.apply(v))


class TestCompose:
    def test_identity_neutral(self):
        assert PHI.compose(Endomorphism.identity(2)) == PHI
        assert Endomorphism.identity(2).compose(PHI) == PHI

    def test_involution(self):
        assert SWAP.compose(SWAP) == Endomorphism.identity(2)

    def test_square_of_remark_map(self):
        sq = PHI.compose(PHI)
        assert sq.images == (parse_word("abba"), parse_word("baab"))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            PHI.compose(Endomorphism.identity(3))

    @given(words(2, 10))
    @settings(max_examples=60)
    def test_apply_respects_composition(self, w):
        psi = GOLDEN
        assert PHI.compose(psi).apply(w) == PHI.apply(psi.apply(w))

    def test_power(self):
        assert PHI.power(2) == PHI.compose(PHI)
        assert PHI.power(0).is_identity()


class TestConjugacy:
    def test_explicit_conjugator(self):
        assert is_conjugate(parse_word("abA"), parse_word("b"))

    def test_distinct_generators(self):
        assert not is_conjugate(parse_word("a"), parse_word("b"))

    def test_rotation_pair(self):
        assert is_conjugate(parse_word("abaBAA"), parse_word("BAba"))

    def test_orientation_matters(self):
        u = parse_word("ab")
        assert not is_conjugate(u, invert(u))
        assert is_conjugate(u, invert(u), unoriented=True)

    def test_find_conjugator(self):
        u, v = parse_word("abA"), parse_word("b")
        x = find_conjugator(u, v)
        assert x is not None and conjugate(u, x) == v
        assert find_conjugator(parse_word("a"), parse_word("b")) is None

    @given(words(2, 8))
    def test_reflexive(self, w):
        assert is_conjugate(w, w)

    @given(words(2, 6), words(2, 4))
    @settings(max_examples=60)
    def test_conjugates_are_conjugate(self, w, x):
        assert is_conjugate(w, conjugate(w, x))

    @given(words(2, 6), words(2, 6), words(2, 6))
    @settings(max_examples=40)
    def test_transitive_on_samples(self, u, v, w):
        if is_conjugate(u, v) and is_conjugate(v, w):
            assert is_conjugate(u, w)


class TestCyclicWord:
    def test_canonical_of_rotations(self):
        w = parse_word("abAB")
        for k in range(len(w)):
            rotated = w[k:] + w[:k]
            assert cyclic_canonical(rotated) == cyclic_canonical(w)

    def test_unoriented_identifies_inverse(self):
        w = parse_word("aabAB")
        assert CyclicWord.of(w) == CyclicWord.of(invert(w))

    def test_cyclic_reduce(self):
        assert cyclic_reduce(parse_word("Babb")) == parse_word("ab")

    @given(words(3, 10))
    def test_canonical_is_cyclically_reduced(self, w):
        c = cyclic_canonical(w)
        if len(c) >= 2:
            assert c[0] != -c[-1]

    @given(words(3, 12))
    def test_canonical_is_least_rotation(self, w):
        c = cyclic_reduce(w)
        oriented = min(_rotations(c), key=word_key, default=())
        assert cyclic_canonical(w) == oriented
        unoriented = min(_rotations(c) + _rotations(invert(c)), key=word_key,
                         default=())
        assert cyclic_canonical(w, unoriented=True) == unoriented


class TestPeriodicSearch:
    def test_identity_finds_generator(self):
        assert periodic_conjugacy_search(Endomorphism.identity(2), 6, 12) == ((1,), 1, +1)

    def test_golden_commutator_period_two(self):
        witness, n, orient = periodic_conjugacy_search(GOLDEN, 6, 12)
        assert n == 2 and orient == +1
        assert cyclic_canonical(witness, unoriented=True) == \
            cyclic_canonical(parse_word("abAB"), unoriented=True)

    def test_remark_map_has_no_witness(self):
        assert periodic_conjugacy_search(PHI, 6, 12) is None

    def test_swap_least_period(self):
        # ab maps to ba, a rotation, so the class is fixed already at n=1;
        # that beats the period-2 witness a.
        witness, n, orient = periodic_conjugacy_search(SWAP, 6, 12)
        assert (n, orient) == (1, +1) and witness == (1, 2)

    def test_inner_automorphism_is_periodic(self):
        inner = Endomorphism.inner(2, parse_word("ab"))
        assert periodic_conjugacy_search(inner, 6, 12) == ((1,), 1, +1)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            periodic_conjugacy_search(PHI, 0, 12)


# ---------------------------------------------------------------------------
# brute-force reference for the periodic-class search
# ---------------------------------------------------------------------------

def _rotations(w):
    return [w[k:] + w[:k] for k in range(len(w))]


@lru_cache(maxsize=None)
def _class_representatives(rank, max_len):
    """One word per class and inverse class, up to max_len: the least, by
    word_key, of the rotations of w and of w^-1, listed in (length, ord)
    order."""
    alphabet = [x for i in range(1, rank + 1) for x in (i, -i)]
    reps = []
    for length in range(1, max_len + 1):
        found = []
        for w in itertools.product(alphabet, repeat=length):
            if reduce_word(w + w) != w + w:
                continue  # not cyclically reduced
            if min(_rotations(w) + _rotations(invert(w)), key=word_key) == w:
                found.append(w)
        reps.extend(sorted(found, key=word_key))
    return reps


def reference_search(endo, max_period, max_len):
    """The least oriented period over all classes, the first class in
    (length, ord) order on ties; the least reversing period only when no
    class has an oriented one.  An orbit stops at the empty word or at a
    class longer than max_len."""
    plus = minus = None
    for w in _class_representatives(endo.rank, max_len):
        same, inverse = set(_rotations(w)), set(_rotations(invert(w)))
        oriented = reversing = None
        u = w
        for n in range(1, max_period + 1):
            u = cyclic_reduce(endo.apply(u))
            if not u or len(u) > max_len:
                break
            if u in same:
                oriented = n
                break
            if reversing is None and u in inverse:
                reversing = n
        if oriented is not None and (plus is None or oriented < plus[1]):
            plus = (w, oriented, +1)
        if reversing is not None and (minus is None or reversing < minus[1]):
            minus = (w, reversing, -1)
    return plus if plus is not None else minus


def endomorphisms(rank, max_image=4):
    return st.lists(words(rank, max_image), min_size=rank, max_size=rank).map(
        lambda images: Endomorphism(rank, tuple(images)))


class TestSearchOracle:
    @given(endomorphisms(2), st.integers(1, 3), st.integers(1, 7))
    @settings(max_examples=80, deadline=None)
    def test_rank_two_matches_reference(self, endo, max_period, max_len):
        assert periodic_conjugacy_search(endo, max_period, max_len) == \
            reference_search(endo, max_period, max_len)

    @given(endomorphisms(3, 3), st.integers(1, 3), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_rank_three_matches_reference(self, endo, max_period, max_len):
        assert periodic_conjugacy_search(endo, max_period, max_len) == \
            reference_search(endo, max_period, max_len)

    def test_reference_on_known_maps(self):
        assert reference_search(GOLDEN, 3, 6) == (parse_word("abAB"), 2, +1)
        assert reference_search(PHI, 3, 6) is None


# ---------------------------------------------------------------------------
# generator oracle: every FKM necklace, then the inverse-class filter
# ---------------------------------------------------------------------------

def _fkm_necklaces(rank, length, balanced_only):
    """Cyclically reduced words, as ords, that are least among their
    rotations and start with a generator; zero exponent sums when
    balanced_only.  Lexicographic (FKM) order."""
    nsym = 2 * rank
    w = [0] * (length + 1)
    sums = [0] * rank
    out = []

    def gen(t, p, pending):
        start = w[t - p]
        cancel = w[t - 1] ^ 1 if t > 1 else -1
        letters = range(start, nsym) if t > 1 else range(0, nsym, 2)
        if t == length:
            cancel_first = w[1] ^ 1 if t > 1 else -1
            for c in letters:
                if c == cancel or c == cancel_first or (c == start and length % p):
                    continue
                w[t] = c
                out.append(tuple(w[1:]))
            return
        rem = length - t
        closing = balanced_only and rem == 1
        for c in letters:
            if c == cancel:
                continue
            g = c >> 1
            old = sums[g]
            if c & 1:
                new = old - 1
                new_pending = pending - 1 if old > 0 else pending + 1
            else:
                new = old + 1
                new_pending = pending - 1 if old < 0 else pending + 1
            if balanced_only and new_pending > rem:
                continue
            w[t] = c
            q = p if c == start else t
            if closing:
                if new:
                    z = 2 * g + (new > 0)
                else:
                    h = 0
                    while h == g or not sums[h]:
                        h += 1
                    z = 2 * h + (sums[h] > 0)
                s = w[length - q]
                if not (z < s or z == c ^ 1 or z == w[1] ^ 1
                        or (z == s and length % q)):
                    w[length] = z
                    out.append(tuple(w[1:]))
                continue
            sums[g] = new
            gen(t + 1, q, new_pending)
            sums[g] = old

    if length >= 1 and not (balanced_only and length % 2):
        gen(1, 1, 0)
    return out


def reference_candidates(rank, length, balanced_only):
    """The FKM necklaces whose inverse class does not come first."""
    return [c for c in _fkm_necklaces(rank, length, balanced_only)
            if not _least_rotation(_invert_ords(c)) < c]


def _balanced(w):
    return not any(sum(1 if x > 0 else -1 for x in w if abs(x) == g)
                   for g in set(map(abs, w)))


class TestGeneratorOracle:
    @pytest.mark.parametrize("rank, max_len, balanced_only", [
        (2, 12, False), (2, 12, True), (3, 12, True), (3, 7, False)])
    def test_one_word_per_inverse_pair(self, rank, max_len, balanced_only):
        for length in range(1, max_len + 1):
            assert _canonical_cyclic_words(rank, length, balanced_only) == \
                reference_candidates(rank, length, balanced_only)

    @pytest.mark.parametrize("rank, max_len", [(2, 7), (3, 5)])
    def test_reference_is_one_word_per_class_pair(self, rank, max_len):
        for balanced_only in (False, True):
            listed = [tuple(map(_letter, c)) for length in range(1, max_len + 1)
                      for c in reference_candidates(rank, length, balanced_only)]
            expected = [w for w in _class_representatives(rank, max_len)
                        if not balanced_only or _balanced(w)]
            assert listed == expected


# The search's result on every corpus input at the default bounds
# (max_period 6, max_len 12): witness, period, orientation.
CORPUS_HITS = {
    "composite_geometric": ("abAB", 1, +1),
    "conjugation_twist": ("b", 1, +1),
    "cycle3_finite_order": ("abc", 1, +1),
    "dehn_twist": ("a", 1, +1),
    "double_cover_geometric": ("abAB", 1, +1),
    "expanding_double": ("aBB", 2, +1),
    "golden_geometric": ("abAB", 2, +1),
    "golden_mirror": ("abAB", 2, +1),
    "golden_transpose": ("abAB", 2, +1),
    "identity_rank2": ("a", 1, +1),
    "inner_rank2": ("a", 1, +1),
    "noninjective_equal_images": None,
    "noninjective_extension": ("abAB", 2, +1),
    "nonsurjective_mixed": ("aB", 2, +1),
    "plastic_rank3": None,
    "rank3_invariant_subrose": ("aCb", 1, +1),
    "rank3_swap_twist": ("ab", 1, +1),
    "remark_extension_reducible": None,
    "remark_irreducible_atoroidal": None,
    "squares_reducible": None,
    "swap_finite_order": ("ab", 1, +1),
}


@pytest.mark.parametrize("name", sorted(f.stem for f in CORPUS.glob("*.endo")))
def test_corpus_search_results(name):
    endo = parse((CORPUS / f"{name}.endo").read_text()).endo
    expected = CORPUS_HITS[name]
    if expected is not None:
        expected = (parse_word(expected[0]),) + expected[1:]
    assert periodic_conjugacy_search(endo) == expected
