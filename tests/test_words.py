import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from endotorus import words as words_module
from endotorus.cli import parse
from endotorus.words import (
    TAIL_LETTERS,
    CyclicWord,
    Endomorphism,
    _PeriodFilter,
    _canonical_cyclic_words,
    _invert_ords,
    _kernel_trivial,
    _least_rotation,
    _letter,
    _mat_mul,
    _on_eventual_alphabet,
    concat,
    conjugate,
    cyclic_canonical,
    cyclic_reduce,
    find_conjugator,
    invert,
    parse_word,
    periodic_conjugacy_search,
    reduce_word,
    show_word,
    word_key,
)

from helpers import is_conjugate

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

    @pytest.mark.parametrize("text", ["\u00e9", "\u0130", "\u00aa", "a\u01c5b",
                                      "\uff41", "1", "a-b"])
    def test_non_ascii_letters_are_rejected(self, text):
        # str.islower and str.isupper hold for these, or for none of them
        with pytest.raises(ValueError, match="bad letter"):
            parse_word(text)


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
        assert PHI.power(0) == Endomorphism.identity(2)

    def test_power_builds_no_higher_power(self, monkeypatch):
        # a -> ab, b -> b: the k-th power sends a to a b^k, so the length
        # of a's image less one is the exponent of each composed map
        shear = Endomorphism(2, (parse_word("ab"), parse_word("b")))
        built = []
        real = Endomorphism.compose

        def recording(self, other):
            out = real(self, other)
            built.append(len(out.images[0]) - 1)
            return out

        monkeypatch.setattr(Endomorphism, "compose", recording)
        for n in range(1, 17):
            built.clear()
            assert shear.power(n).images[0] == (1,) + (2,) * n
            assert max(built) == n


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


class TestEndomorphismRecord:
    def test_images_are_reduced(self):
        endo = Endomorphism(2, (parse_word("aAb"), (2, 1, -1)))
        assert endo.images == ((2,), (2,))

    @pytest.mark.parametrize("rank,images", [(0, ()), (2, ((1,),)),
                                             (2, ((1,), (2,), (1,)))])
    def test_bad_rank_or_image_count(self, rank, images):
        with pytest.raises(ValueError):
            Endomorphism(rank, images)

    @pytest.mark.parametrize("images", [((3,), (1,)), ((1,), (2, -3)),
                                        ((1, 4, -4), (2,))])
    def test_image_letters_outside_the_rank(self, images):
        # a letter outside the rank made a map whose apply leaves F
        with pytest.raises(ValueError, match="outside rank 2"):
            Endomorphism(2, images)

    def test_equal_maps_hash_equal(self):
        endo = Endomorphism(2, (parse_word("aAb"), (1,)))
        assert endo == SWAP and hash(endo) == hash(SWAP)
        assert len({endo, SWAP, PHI}) == 2
        assert endo != PHI and endo != (2, endo.images)
        assert repr(endo) == "Endomorphism(rank=2, images=((2,), (1,)))"


class TestCyclicWord:
    def test_equal_classes_hash_equal(self):
        u = CyclicWord.of(parse_word("abAB"))
        assert u == CyclicWord.of(parse_word("BAba")) and hash(u) == hash(
            CyclicWord.of(parse_word("BAba")))
        assert len(u) == 4 and str(u) == "[abAB]"
        assert u != u.letters

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


@lru_cache(maxsize=None)
def reference_candidates(rank, length, balanced_only):
    """The FKM necklaces whose inverse class does not come first."""
    return [c for c in _fkm_necklaces(rank, length, balanced_only)
            if not _least_rotation(_invert_ords(c)) < c]


def unfiltered_candidates(rank, length, balanced_only):
    """The generator under the identity's filter, which admits every word."""
    everything = _PeriodFilter(Endomorphism.identity(rank), 1, length)
    return [c for c, _ in _canonical_cyclic_words(rank, length, balanced_only,
                                                  everything)]


def _balanced(w):
    return not any(sum(1 if x > 0 else -1 for x in w if abs(x) == g)
                   for g in set(map(abs, w)))


class TestGeneratorOracle:
    @pytest.mark.parametrize("rank, max_len, balanced_only", [
        (2, 12, False), (2, 12, True), (3, 12, True), (3, 7, False)])
    def test_one_word_per_inverse_pair(self, rank, max_len, balanced_only):
        for length in range(1, max_len + 1):
            assert unfiltered_candidates(rank, length, balanced_only) == \
                reference_candidates(rank, length, balanced_only)

    @pytest.mark.parametrize("rank, max_len", [(2, 7), (3, 5)])
    def test_reference_is_one_word_per_class_pair(self, rank, max_len):
        for balanced_only in (False, True):
            listed = [tuple(map(_letter, c)) for length in range(1, max_len + 1)
                      for c in reference_candidates(rank, length, balanced_only)]
            expected = [w for w in _class_representatives(rank, max_len)
                        if not balanced_only or _balanced(w)]
            assert listed == expected


# ---------------------------------------------------------------------------
# the class-two filter against the search without it
# ---------------------------------------------------------------------------

def fraction_kernel_trivial(m):
    """True iff the integer matrix has trivial rational kernel: Gaussian
    elimination over the rationals, the oracle's own copy."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = a[rank][col]
        for r in range(n):
            if r != rank and a[r][col] != 0:
                f = a[r][col] / inv
                a[r] = [a[r][j] - f * a[rank][j] for j in range(n)]
        rank += 1
    return rank == n


def unfiltered_search(endo, max_period, max_len):
    """The search loop as it ran before the class-two filter: every
    candidate of reference_candidates, an abelian filter per exponent
    vector (all of them pass when no nonzero vector can), and the same
    iteration, ordering and tie-breaking."""
    rank = endo.rank
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    m = endo.abelianized()
    cur = ident
    constraints = []  # (M^n - I, M^n + I) for n = 1..max_period
    for _ in range(max_period):
        cur = _mat_mul(m, cur)
        constraints.append(tuple(
            tuple(tuple(cur[i][j] + s * ident[i][j] for j in range(rank))
                  for i in range(rank)) for s in (-1, 1)))
    balanced_only = all(fraction_kernel_trivial(mi)
                        and fraction_kernel_trivial(pl)
                        for mi, pl in constraints)

    def in_kernel(a, v):
        return all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)

    images = [word_key(endo.image_of_letter(_letter(o))) for o in range(2 * rank)]
    every = [True] * max_period
    never = [False] * max_period
    # exponent vector -> (ok_plus, ok_minus) per period, None if all False
    filters: dict = {(0,) * rank: (every, every)}
    best_plus = best_minus = None
    for length in range(1, max_len + 1):
        for cand in reference_candidates(rank, length, balanced_only):
            if balanced_only:
                ok_plus = ok_minus = every
            else:
                vec = tuple([cand.count(2 * i) - cand.count(2 * i + 1)
                             for i in range(rank)])
                ok = filters.get(vec, False)
                if ok is False:
                    ok_plus = [in_kernel(mi, vec) for (mi, _) in constraints]
                    ok_minus = [in_kernel(pl, vec) for (_, pl) in constraints]
                    ok = filters[vec] = ((ok_plus, ok_minus)
                                         if any(ok_plus) or any(ok_minus) else None)
                if ok is None:
                    continue
                ok_plus, ok_minus = ok
            cand_inv = None
            u = cand
            limit = max_period
            if best_plus is not None:
                (limit, ok_minus) = (best_plus[0] - 1, never)
            for n in range(1, limit + 1):
                u = word_key(cyclic_reduce(tuple(
                    x for o in u for x in map(_letter, images[o]))))
                if not u or len(u) > max_len:
                    break
                if len(u) != length or not (ok_plus[n - 1] or ok_minus[n - 1]):
                    continue
                canon_u = _least_rotation(u)
                if ok_plus[n - 1] and canon_u == cand:
                    best_plus = (n, cand)
                    break
                if ok_minus[n - 1]:
                    if cand_inv is None:
                        cand_inv = _least_rotation(_invert_ords(cand))
                    if canon_u == cand_inv and (best_minus is None
                                                or n < best_minus[0]):
                        best_minus = (n, cand)
        if best_plus is not None and best_plus[0] == 1:
            break
    for (best, orientation) in ((best_plus, +1), (best_minus, -1)):
        if best is not None:
            return (tuple(map(_letter, best[1])), best[0], orientation)
    return None


def half_area(rank, w):
    """H(w) from its definition: for i < j, the sum over the letters of
    generator j of the letter's sign times the exponent sum of generator i
    before it; pairs ordered by j, then i."""
    sums = [0] * rank
    area = {(i, j): 0 for j in range(rank) for i in range(j)}
    for x in w:
        (g, sign) = (abs(x) - 1, 1 if x > 0 else -1)
        for i in range(g):
            area[i, g] += sign * sums[i]
        sums[g] += sign
    return tuple(area.values())


def wedge_square(m):
    """The action on the exterior square: (ij),(kl) -> M_ik M_jl - M_jk M_il."""
    pairs = [(i, j) for j in range(len(m)) for i in range(j)]
    return [[m[i][k] * m[j][l] - m[j][k] * m[i][l] for (k, l) in pairs]
            for (i, j) in pairs]


def balance(rank, w):
    """w followed by the letters that zero its exponent sums."""
    tail = []
    for g in range(1, rank + 1):
        e = sum(1 if x == g else -1 if x == -g else 0 for x in w)
        tail.extend([-g if e > 0 else g] * abs(e))
    return reduce_word(tuple(w) + tuple(tail))


def admitted(endo, max_period, reversing, w):
    """(ok_plus, ok_minus) of the filter from its definition: the exponent
    vector under M^n, or for a balanced word the half-area under the
    exterior square of M^n; None when no period admits w."""
    rank = endo.rank
    x = tuple(sum(1 if y == g else -1 if y == -g else 0 for y in w)
              for g in range(1, rank + 1))
    balanced_word = not any(x)
    if balanced_word:
        x = half_area(rank, w)
    m = power = endo.abelianized()
    images = []
    for _ in range(max_period):
        act = wedge_square(power) if balanced_word else power
        images.append(tuple(sum(a * c for a, c in zip(row, x)) for row in act))
        power = _mat_mul(m, power)
    ok_plus = tuple(y == x for y in images)
    ok_minus = tuple(reversing and y == tuple(-c for c in x) for y in images)
    return (ok_plus, ok_minus) if any(ok_plus + ok_minus) else None


def balanced_only_maps(rank, max_image, max_period):
    """Maps under which no nonzero exponent vector can be periodic."""
    return endomorphisms(rank, max_image).filter(
        lambda e: _PeriodFilter(e, max_period, 1).balanced_only)


def zero_area_maps(rank, max_image, max_period):
    """Maps under which no nonzero half-area can be periodic, at any period
    up to max_period, oriented or reversing."""
    return endomorphisms(rank, max_image).filter(
        lambda e: _PeriodFilter(e, max_period, 1)._zero_area_only)


class TestClassTwoFilter:
    @given(endomorphisms(2), st.integers(1, 4), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_rank_two_matches_unfiltered(self, endo, max_period, max_len):
        assert periodic_conjugacy_search(endo, max_period, max_len) == \
            unfiltered_search(endo, max_period, max_len)

    # the subtree check needs length 6, past the rank-3 brute-force oracle
    @given(balanced_only_maps(3, 3, 3), st.integers(1, 3), st.integers(6, 9))
    @settings(max_examples=30, deadline=None)
    def test_rank_three_balanced_matches_unfiltered(self, endo, max_period,
                                                    max_len):
        assert periodic_conjugacy_search(endo, max_period, max_len) == \
            unfiltered_search(endo, max_period, max_len)

    @given(endomorphisms(3, 3), st.integers(1, 3), st.integers(6, 9))
    @settings(max_examples=15, deadline=None)
    def test_rank_three_matches_unfiltered(self, endo, max_period, max_len):
        assert periodic_conjugacy_search(endo, max_period, max_len) == \
            unfiltered_search(endo, max_period, max_len)

    # (rank, balanced_only, shortest and longest word, only H = 0): the
    # unbalanced rank-3 lists grow fastest, and maps that admit only H = 0
    # read their tails by one lookup, which serves every word longer than
    # TAIL_LETTERS + 1, and make the subtree check, which fires from
    # length TAIL_LETTERS + 3
    @given(st.sampled_from([
        (2, False, 1, 10, False), (2, True, 1, 12, False), (3, False, 1, 6, False),
        (3, True, 1, 10, False), (2, True, TAIL_LETTERS + 2, 12, True),
        (3, True, TAIL_LETTERS + 2, 10, True)]).flatmap(
        lambda case: st.tuples(
            st.just(case[1]),
            zero_area_maps(case[0], 3, 4) if case[4] else endomorphisms(case[0], 3),
            st.integers(1, 4), st.integers(case[2], case[3]), st.booleans())))
    @settings(max_examples=60, deadline=None)
    def test_generator_keeps_exactly_the_admitted_words(self, case):
        (balanced_only, endo, max_period, length, reversing) = case
        rank = endo.rank
        filt = _PeriodFilter(endo, max_period, length, reversing)
        expected = []
        for c in unfiltered_candidates(rank, length, balanced_only):
            ok = admitted(endo, max_period, reversing, tuple(map(_letter, c)))
            if ok is not None:
                expected.append((c, ok))
        assert _canonical_cyclic_words(rank, length, balanced_only, filt) == expected

    def test_later_class_with_a_shorter_period_wins(self):
        # a has period 3; the longer aBC has period 2 and is found after the
        # search has narrowed its filter to periods below 3
        endo = Endomorphism(3, (parse_word("bA"), parse_word("A"), parse_word("aC")))
        assert periodic_conjugacy_search(endo, 6, 2) == ((1,), 3, +1)
        assert periodic_conjugacy_search(endo, 6, 3) == \
            (parse_word("aBC"), 2, +1) == unfiltered_search(endo, 6, 3)

    def test_unfiltered_search_on_known_maps(self):
        for endo in (PHI, GOLDEN, SWAP):
            assert unfiltered_search(endo, 3, 6) == reference_search(endo, 3, 6)

    @given(st.integers(2, 3).flatmap(
        lambda r: st.tuples(endomorphisms(r, 3), words(r, 10))))
    @settings(max_examples=80, deadline=None)
    def test_half_area_invariants(self, case):
        (endo, w) = case
        rank = endo.rank
        w = balance(rank, w)
        area = half_area(rank, w)
        for k in range(len(w)):
            assert half_area(rank, w[k:] + w[:k]) == area
        assert half_area(rank, invert(w)) == tuple(-x for x in area)
        image = [sum(a * x for a, x in zip(row, area))
                 for row in wedge_square(endo.abelianized())]
        assert list(half_area(rank, endo.apply(w))) == image
        # the generator's packed, letter-by-letter update gives the same H
        filt = _PeriodFilter(endo, 1, max(len(w), 1))
        (vv, hh) = (filt.zero, 0)
        for o in word_key(w):
            (vv, hh) = filt.step(vv, hh, o)
        assert vv == filt.zero
        assert filt.digits(hh, len(area)) == area


# ---------------------------------------------------------------------------
# the kernels of the filter's conditions
# ---------------------------------------------------------------------------

def plus_singular_maps(max_image=4):
    """Rank-2 maps whose abelianized matrix M has M + I singular: -1 is an
    eigenvalue, so exponent vectors can come back reversed."""
    def plus_singular(endo):
        ((p, q), (r, s)) = endo.abelianized()
        return (p + 1) * (s + 1) == q * r
    return endomorphisms(2, max_image).filter(plus_singular)


def corpus_endo(name):
    return parse((CORPUS / f"{name}.endo").read_text()).endo


@st.composite
def integer_matrices(draw, max_size=6):
    """Square integer matrices, half of them singular by construction: one
    row is an integer combination of the others."""
    n = draw(st.integers(0, max_size))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        combo = [sum(c * row[j] for c, row in zip(coeffs, rows[1:]))
                 for j in range(n)]
        rows[0] = combo
        rows = draw(st.permutations(rows))
    return tuple(tuple(row) for row in rows)


class TestKernelTrivial:
    @given(integer_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_rational_elimination(self, m):
        assert _kernel_trivial(m) == fraction_kernel_trivial(m)

    def test_small_cases(self):
        assert _kernel_trivial(())
        assert not _kernel_trivial(((0,),))
        assert _kernel_trivial(((0, 1), (1, 0)))           # needs a row swap
        assert not _kernel_trivial(((2, 4), (1, 2)))
        assert _kernel_trivial(((2, 1, 0), (1, 1, 0), (0, 0, -3)))
        assert not _kernel_trivial(((1, 2, 3), (4, 5, 6), (7, 8, 9)))


class TestOrientedNarrowing:
    # M has eigenvalues 2 and -1, so M + I is singular and M - I is not
    @pytest.mark.parametrize("name", ["expanding_double", "nonsurjective_mixed"])
    def test_oriented_filter_ignores_the_reversing_kernel(self, name):
        endo = corpus_endo(name)
        assert _PeriodFilter(endo, 1, 12, reversing=False).balanced_only
        assert not _PeriodFilter(endo, 1, 12, reversing=True).balanced_only

    @pytest.mark.parametrize("name", ["expanding_double", "nonsurjective_mixed"])
    def test_narrowed_search_generates_balanced_words_only(self, monkeypatch,
                                                           name):
        calls = []
        generate = words_module._canonical_cyclic_words

        def record(rank, length, balanced_only, filt):
            calls.append((length, balanced_only))
            return generate(rank, length, balanced_only, filt)

        monkeypatch.setattr(words_module, "_canonical_cyclic_words", record)
        (witness, n, orientation) = periodic_conjugacy_search(corpus_endo(name))
        assert (n, orientation) == (2, +1)
        # M^2 - I is singular, so the full filter admits unbalanced words;
        # after the match only period 1 is left, oriented only
        assert calls == [(length, length > len(witness)) for length in range(1, 13)]

    @given(plus_singular_maps(), st.integers(1, 4), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_rank_two_plus_singular_matches_unfiltered(self, endo, max_period,
                                                       max_len):
        assert periodic_conjugacy_search(endo, max_period, max_len) == \
            unfiltered_search(endo, max_period, max_len)


def brute_completions(filt, first):
    """The completions of a zero-area filter from their definition: packed
    v -> the changes of packed H made by one letter of ord at least
    `first` and then a reduced tail of TAIL_LETTERS such letters, the last
    not the inverse of that first letter, that together bring v back to 0.
    The changes are summed letter by letter on unpacked coordinates."""
    (rank, bits) = (filt.rank, filt.bits)
    table = {}
    for word in itertools.product(range(first, 2 * rank), repeat=TAIL_LETTERS + 1):
        tail = tuple(map(_letter, word[1:]))
        if word[-1] == first ^ 1 or reduce_word(tail) != tail:
            continue
        v = [0] * rank
        for x in map(_letter, word):
            v[abs(x) - 1] -= 1 if x > 0 else -1
        before = tuple(v)
        area = {(i, j): 0 for j in range(rank) for i in range(j)}
        for x in map(_letter, word):
            (g, sign) = (abs(x) - 1, 1 if x > 0 else -1)
            for i in range(g):
                area[i, g] += sign * v[i]
            v[g] += sign
        assert not any(v)
        packed_v = filt.zero + sum(x << (bits * i) for (i, x) in enumerate(before))
        packed_d = sum(x << (bits * k) for (k, x) in enumerate(area.values()))
        table.setdefault(packed_v, set()).add(packed_d)
    return table


class ListsEveryArea(dict):
    """A stand-in for `_PeriodFilter.completions` that lists every area
    change under every v, so that the generator's check drops nothing."""

    def __missing__(self, first):
        return self

    def get(self, vv, default=None):
        return self

    def __contains__(self, d):
        return True


@st.composite
def canonical_balanced_words(draw, min_len=1):
    """(rank, w): a balanced, cyclically reduced word of rank 2 or 3 of at
    least `min_len` letters in the generator's canonical form, the least
    rotation of w or w^-1, as ords.  A drawn word shorter than that is
    taken to the least power that reaches it, which keeps it canonical."""
    rank = draw(st.integers(2, 3))
    w = cyclic_canonical(balance(rank, draw(words(rank, 8))), unoriented=True)
    assume(w)
    return (rank, word_key(w * -(-min_len // len(w))))


class TestCompletionCheck:
    @given(st.integers(2, 3).flatmap(lambda rank: st.tuples(
        zero_area_maps(rank, 3, 4), st.integers(0, rank - 1),
        st.integers(1, 4), st.integers(TAIL_LETTERS + 2, 12), st.booleans())))
    @settings(max_examples=20, deadline=None)
    def test_completions_match_their_definition(self, case):
        (endo, g, max_period, max_len, reversing) = case
        filt = _PeriodFilter(endo, max_period, max_len, reversing)
        assert filt._zero_area_only
        assert filt.completions[2 * g] == brute_completions(filt, 2 * g)

    @given(canonical_balanced_words(TAIL_LETTERS + 2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_real_words_pass_the_check(self, case, data):
        # the prune drops only prefixes that no real word extends: the
        # area change of a word's last TAIL_LETTERS + 1 letters is listed
        # under the state before them
        (rank, w) = case
        endo = data.draw(zero_area_maps(rank, 3, 4))
        filt = _PeriodFilter(endo, data.draw(st.integers(1, 4)), len(w),
                             data.draw(st.booleans()))
        assert filt._zero_area_only
        (pv, ph) = (filt.zero, 0)
        for o in w[:-(TAIL_LETTERS + 1)]:
            (pv, ph) = filt.step(pv, ph, o)
        (vv, hh) = (pv, ph)
        for o in w[-(TAIL_LETTERS + 1):]:
            (vv, hh) = filt.step(vv, hh, o)
        assert vv == filt.zero
        assert hh - ph in filt.completions[w[0]][pv]

    @given(canonical_balanced_words(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_real_words_end_in_listed_tails(self, case, data):
        # the tails are exactly the reduced words of r letters no less than
        # w[1], the last not w[1]^-1, each filed under its own state
        (rank, w) = case
        endo = data.draw(endomorphisms(rank, 3))
        filt = _PeriodFilter(endo, data.draw(st.integers(1, 4)), len(w),
                             data.draw(st.booleans()))
        r = min(TAIL_LETTERS, len(w) - 1)
        table = filt.tails[w[0], r]
        listed = []
        for (key, entries) in table.items():
            assert entries == sorted(entries)
            for (tail, d) in entries:
                listed.append(tail)
                (vv, hh) = (key[0] if filt._zero_area_only else key, 0)
                for o in tail:
                    (vv, hh) = filt.step(vv, hh, o)
                assert vv == filt.zero and hh == d
                if filt._zero_area_only:
                    assert key[1] == d
        assert sorted(listed) == [
            tail for tail in itertools.product(range(w[0], 2 * rank), repeat=r)
            if tail[-1] != w[0] ^ 1
            and reduce_word(map(_letter, tail)) == tuple(map(_letter, tail))]

        # the word's own last r letters are listed under its prefix's state
        (pv, ph) = (filt.zero, 0)
        for o in w[:-r]:
            (pv, ph) = filt.step(pv, ph, o)
        (vv, hh) = (pv, ph)
        for o in w[-r:]:
            (vv, hh) = filt.step(vv, hh, o)
        key = (pv, hh - ph) if filt._zero_area_only else pv
        assert (w[-r:], hh - ph) in table[key]

    def test_plastic_rank3_checks_by_one_lookup(self):
        endo = corpus_endo("plastic_rank3")
        filt = _PeriodFilter(endo, 6, 12)
        assert filt.balanced_only and filt._zero_area_only

        # the check drops no word: the lists are those of a walk whose
        # lookup always succeeds
        unchecked = _PeriodFilter(endo, 6, 12)
        unchecked.completions = ListsEveryArea()
        for length in range(1, 11):
            assert _canonical_cyclic_words(3, length, True, filt) == \
                _canonical_cyclic_words(3, length, True, unchecked)
        # and every table it read is the one of the definition
        assert filt.completions
        for (first, table) in filt.completions.items():
            assert table == brute_completions(filt, first)

        # a filter that admits a nonzero area makes no check at all, and
        # the spy sees the check of a zero-area filter
        class Refuse(dict):
            def __missing__(self, first):
                raise AssertionError("the generator read the completions")

        golden = _PeriodFilter(corpus_endo("golden_geometric"), 6, 12)
        assert golden.balanced_only and not golden._zero_area_only
        golden.completions = Refuse()
        for length in range(1, 13):
            _canonical_cyclic_words(2, length, True, golden)
        spied = _PeriodFilter(endo, 6, 12)
        spied.completions = Refuse()
        with pytest.raises(AssertionError, match="read the completions"):
            _canonical_cyclic_words(3, 12, True, spied)

    def test_plastic_rank3_walk_is_pinned(self):
        # frames of the generator's recursive walk at length 12
        endo = corpus_endo("plastic_rank3")
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "gen":
                calls.append(None)

        filt = _PeriodFilter(endo, 6, 12)
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            pruned = _canonical_cyclic_words(3, 12, True, filt)
        finally:
            sys.setprofile(previous)
        assert len(pruned) == 726
        assert len(calls) < 4_000
        # the same words as the walk without the completion check
        unchecked = _PeriodFilter(endo, 6, 12)
        unchecked.completions = ListsEveryArea()
        assert _canonical_cyclic_words(3, 12, True, unchecked) == pruned


# ---------------------------------------------------------------------------
# the search on the eventual alphabet
# ---------------------------------------------------------------------------

@st.composite
def shrinking_maps(draw, rank=3, max_image=3):
    """Maps whose eventual alphabet is a proper subset of the generators.
    In a random order g_1..g_rank, the first `kept` generators map into
    themselves, and each later g_i maps into g_1..g_(i-1).  So the last
    generator occurs in no image, then the one before it in none of the
    rest, and so on: a -> b.., b -> b.., c -> a.. drops c, then a."""
    order = draw(st.permutations(range(1, rank + 1)))
    kept = draw(st.integers(0, rank - 1))
    images = [()] * rank
    for (i, g) in enumerate(order):
        alphabet = [x for h in order[:max(i, kept)] for x in (h, -h)]
        if alphabet:
            images[g - 1] = tuple(draw(st.lists(st.sampled_from(alphabet),
                                                max_size=max_image)))
    return Endomorphism(rank, tuple(images))


class TestEventualAlphabet:
    @given(shrinking_maps(), st.integers(1, 3), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_shrinking_rank_three_matches_both_oracles(self, endo, max_period,
                                                       max_len):
        restricted = _on_eventual_alphabet(endo)
        assert restricted is None or restricted[0].rank < endo.rank
        assert periodic_conjugacy_search(endo, max_period, max_len) == \
            reference_search(endo, max_period, max_len) == \
            unfiltered_search(endo, max_period, max_len)

    def test_alphabet_shrinks_in_two_steps(self):
        # c occurs in no image, and a only in the image of c
        endo = Endomorphism(3, (parse_word("bb"), parse_word("B"), parse_word("aB")))
        (restricted, kept) = _on_eventual_alphabet(endo)
        assert kept == (2,)
        assert restricted == Endomorphism(1, (parse_word("A"),))
        # b -> B -> b: the oriented period 2 beats the reversing period 1
        assert periodic_conjugacy_search(endo, 6, 12) == \
            (parse_word("b"), 2, +1) == unfiltered_search(endo, 6, 6)

    def test_witness_is_mapped_back(self):
        # the restricted map on (b, c) is the swap; its witness bc is read
        # back in the generators of the rank-3 map
        endo = Endomorphism(3, (parse_word("bc"), parse_word("c"), parse_word("b")))
        assert _on_eventual_alphabet(endo)[1] == (2, 3)
        assert periodic_conjugacy_search(endo, 6, 12) == \
            (parse_word("bc"), 1, +1) == unfiltered_search(endo, 6, 6)

    @pytest.mark.parametrize("endo", [
        Endomorphism(2, ((), parse_word("a"))),  # rank 2; a -> 1; b -> a;
        Endomorphism(1, ((),)),                  # rank 1; a -> 1;
    ], ids=["rank2", "rank1"])
    def test_empty_alphabet_generates_no_candidates(self, monkeypatch, endo):
        def refuse(*args):
            raise AssertionError("no candidate should be generated")

        assert _on_eventual_alphabet(endo) is None
        monkeypatch.setattr(words_module, "_canonical_cyclic_words", refuse)
        assert periodic_conjugacy_search(endo, 6, 12) is None

    def test_corpus_extension_searches_rank_two(self, monkeypatch):
        ranks = []
        generate = words_module._canonical_cyclic_words

        def record(rank, *args):
            ranks.append(rank)
            return generate(rank, *args)

        monkeypatch.setattr(words_module, "_canonical_cyclic_words", record)
        endo = parse((CORPUS / "remark_extension_reducible.endo").read_text()).endo
        assert endo.rank == 3
        assert periodic_conjugacy_search(endo) is None
        assert ranks and set(ranks) == {2}


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
