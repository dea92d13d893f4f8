"""Exact word arithmetic in finite-rank free groups.

Letters are nonzero integers: +i is the i-th generator (1-based), -i its
inverse.  Words are tuples of letters; the empty tuple is the identity.
Human-readable form uses 'a', 'b', ... with capitals for inverses, so
parse_word("abA") == (1, 2, -1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Word = tuple  # tuple[int, ...]


# ---------------------------------------------------------------------------
# reading and printing
# ---------------------------------------------------------------------------

def parse_word(text: str) -> Word:
    """Parse letters like 'abA' (capital = inverse) into a reduced word."""
    letters = []
    for ch in text:
        if ch.isspace():
            continue
        if ch.islower():
            letters.append(ord(ch) - ord("a") + 1)
        elif ch.isupper():
            letters.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"bad letter {ch!r}")
    return reduce_word(letters)


def show_word(w: Sequence[int]) -> str:
    if not w:
        return "1"
    out = []
    for x in w:
        if abs(x) > 26:
            out.append(f"g{x}" if x > 0 else f"G{-x}")
        else:
            ch = chr(ord("a") + abs(x) - 1)
            out.append(ch if x > 0 else ch.upper())
    return "".join(out)


# ---------------------------------------------------------------------------
# free reduction
# ---------------------------------------------------------------------------

def reduce_word(letters: Iterable[int]) -> Word:
    """Unique reduced form, single stack pass."""
    stack: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def invert(w: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(w))


def concat(*ws: Sequence[int]) -> Word:
    return reduce_word(itertools.chain.from_iterable(ws))


def cyclic_reduce(w: Sequence[int]) -> Word:
    w = reduce_word(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return tuple(w[i:j])


def conjugate(w: Sequence[int], x: Sequence[int]) -> Word:
    """x w x^-1."""
    return concat(x, w, invert(x))


def _ord(x: int) -> int:
    # fixed total order: a < A < b < B < ...; the inverse of ord o is o ^ 1
    return ((abs(x) - 1) << 1) | (x < 0)


def _letter(o: int) -> int:
    """The letter of an ord; inverse of _ord."""
    return -((o >> 1) + 1) if o & 1 else (o >> 1) + 1


def word_key(w: Sequence[int]) -> tuple:
    """The word as ords: tuples of ords compare in the letter order."""
    return tuple(_ord(x) for x in w)


def _invert_ords(ords: tuple) -> tuple:
    return tuple([o ^ 1 for o in reversed(ords)])


def _least_rotation(ords: tuple) -> tuple:
    """Least rotation of a nonempty ord tuple: the least n-slice of the
    doubled tuple that starts with the least ord, compared in C."""
    n = len(ords)
    twice = ords + ords
    least = min(ords)
    return min([twice[i:i + n] for i, o in enumerate(ords) if o == least])


def cyclic_canonical(w: Sequence[int], unoriented: bool = False) -> Word:
    """Least rotation of the cyclic reduction; with unoriented=True the
    inverse word's rotations compete too."""
    ords = word_key(cyclic_reduce(w))
    if not ords:
        return ()
    best = _least_rotation(ords)
    if unoriented:
        best = min(best, _least_rotation(_invert_ords(ords)))
    return tuple(map(_letter, best))


@dataclass(frozen=True)
class CyclicWord:
    """Conjugacy class of an element, canonicalized without orientation
    (the class of w and of w^-1 coincide)."""

    letters: Word

    @staticmethod
    def of(w: Sequence[int]) -> "CyclicWord":
        return CyclicWord(cyclic_canonical(w, unoriented=True))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return f"[{show_word(self.letters)}]"


def is_conjugate(u: Sequence[int], v: Sequence[int], unoriented: bool = False) -> bool:
    """Exact conjugacy in F via canonical cyclic forms.  Orientation matters
    unless unoriented=True, which also identifies v with v^-1."""
    return cyclic_canonical(u, unoriented) == cyclic_canonical(v, unoriented)


def _cyclic_split(w: Word) -> tuple[Word, Word]:
    """w = p c p^-1 with c cyclically reduced; returns (c, p)."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return tuple(w[i:j]), tuple(w[:i])


def find_conjugator(u: Sequence[int], v: Sequence[int]) -> Optional[Word]:
    """Some x with x u x^-1 = v, or None.  Rotation scan on cyclic forms."""
    u, v = reduce_word(u), reduce_word(v)
    cu, pu = _cyclic_split(u)
    cv, pv = _cyclic_split(v)
    if len(cu) != len(cv):
        return None
    if not cu:
        return () if not cv else None
    for r in range(len(cu)):
        if cu[r:] + cu[:r] == cv:
            # rot_r(cu) = cu[:r]^-1 . cu . cu[:r]
            x = concat(pv, invert(tuple(cu[:r])), invert(pu))
            if conjugate(u, x) == v:
                return x
    return None


# ---------------------------------------------------------------------------
# endomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Endomorphism:
    """A self-map of F given on the generators.  Images are stored reduced;
    injectivity is a computed certificate (subgroups.is_injective), never an
    input assumption."""

    rank: int
    images: tuple  # tuple[Word, ...], one per generator

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if len(self.images) != self.rank:
            raise ValueError("need one image per generator")
        object.__setattr__(self, "images", tuple(reduce_word(im) for im in self.images))

    @staticmethod
    def identity(rank: int) -> "Endomorphism":
        return Endomorphism(rank, tuple((i,) for i in range(1, rank + 1)))

    @staticmethod
    def inner(rank: int, x: Sequence[int]) -> "Endomorphism":
        """g -> x g x^-1."""
        x = reduce_word(x)
        return Endomorphism(rank, tuple(conjugate((i,), x) for i in range(1, rank + 1)))

    def image_of_letter(self, x: int) -> Word:
        if abs(x) > self.rank:
            raise ValueError(f"letter {x} outside rank {self.rank}")
        im = self.images[abs(x) - 1]
        return im if x > 0 else invert(im)

    def apply(self, w: Sequence[int]) -> Word:
        out: list[int] = []
        for x in w:
            for y in self.image_of_letter(x):
                if out and out[-1] == -y:
                    out.pop()
                else:
                    out.append(y)
        return tuple(out)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other: (self*other)(g) = self(other(g))."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return Endomorphism(self.rank, tuple(self.apply(im) for im in other.images))

    def power(self, n: int) -> "Endomorphism":
        if n < 0:
            raise ValueError("negative powers need an inverse")
        result = Endomorphism.identity(self.rank)
        base = self
        while n:
            if n & 1:
                result = result.compose(base)
            base = base.compose(base)
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return all(im == (i + 1,) for i, im in enumerate(self.images))

    def abelianized(self) -> tuple:
        """Exponent-sum matrix; column j is the image of generator j."""
        m = [[0] * self.rank for _ in range(self.rank)]
        for j, im in enumerate(self.images):
            for x in im:
                m[abs(x) - 1][j] += 1 if x > 0 else -1
        return tuple(tuple(row) for row in m)

    def __str__(self) -> str:
        parts = [f"{show_word((i,))}->{show_word(im)}" for i, im in
                 zip(range(1, self.rank + 1), self.images)]
        return "(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# bounded search for periodic conjugacy classes
# ---------------------------------------------------------------------------

def conjugacy_period(endo: Endomorphism, w: Sequence[int],
                     bound: int) -> Optional[tuple]:
    """(n, x) for the least n <= bound with phi^n(w) = x w x^-1, the
    oriented period of the class of w; None when there is none within the
    bound."""
    u = tuple(w)
    for n in range(1, bound + 1):
        u = endo.apply(u)
        x = find_conjugator(w, u)
        if x is not None:
            return (n, x)
    return None


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _kernel_trivial(m) -> bool:
    """True iff the integer matrix has trivial rational kernel."""
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


def _in_kernel(m, v) -> bool:
    return all(sum(row[j] * v[j] for j in range(len(v))) == 0 for row in m)


def _canonical_cyclic_words(rank: int, length: int, balanced_only: bool):
    """Cyclically reduced words of the given length, as ords, that are least
    among their rotations (FKM necklace generation with pruning),
    restricted to zero exponent sums when balanced_only.  Words whose least
    letter is an inverse are left out: the inverse class of such a word is
    led by a generator and comes first in the order."""
    nsym = 2 * rank
    w = [0] * (length + 1)  # w[1:] holds the word; w[0] seeds position 1
    sums = [0] * rank       # exponent sum per generator of w[1:t]
    out: list[tuple] = []

    def gen(t, p, pending):
        # pending = sum of |sums|: the letters still needed to balance
        start = w[t - p]
        cancel = w[t - 1] ^ 1 if t > 1 else -1
        letters = range(start, nsym) if t > 1 else range(0, nsym, 2)
        if t == length:
            # last letter: w must close up cyclically reduced and be a
            # necklace
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
                # one generator is off by one after c, and only its letter
                # of the other sign can close the word
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

    # a word with zero exponent sums has even length
    if length >= 1 and not (balanced_only and length % 2):
        gen(1, 1, 0)
    return out


def periodic_conjugacy_search(endo: Endomorphism, max_period: int = 6,
                              max_len: int = 12):
    """Bounded search for a nontrivial class [a] with phi^n(a) ~ a (or ~ a^-1,
    reported through the orientation flag).

    Returns (witness: Word, n, orientation) or None.  Oriented matches win:
    the least oriented period is reported, and a reversing witness only when
    no oriented one exists within the bounds.  Candidates run in (length,
    FKM) order, and ties go to the first.  None is a bounded negative,
    never a proof of atoroidality.
    """
    if max_period < 1 or max_len < 1:
        raise ValueError("bounds must be at least 1")

    rank = endo.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    m = endo.abelianized()
    cur = ident
    constraints = []  # (minus_matrix, plus_matrix) per period 1..max_period
    for _ in range(max_period):
        cur = _mat_mul(m, cur)
        minus = tuple(tuple(cur[i][j] - ident[i][j] for j in range(rank)) for i in range(rank))
        plus = tuple(tuple(cur[i][j] + ident[i][j] for j in range(rank)) for i in range(rank))
        constraints.append((minus, plus))
    balanced_only = all(_kernel_trivial(mi) and _kernel_trivial(pl)
                        for mi, pl in constraints)

    # the search runs on ords: images[o] is phi of the letter with ord o
    images = [word_key(endo.image_of_letter(_letter(o))) for o in range(2 * rank)]
    heads = [im[0] ^ 1 if im else -1 for im in images]  # what cancels im
    every = [True] * max_period
    never = [False] * max_period
    # exponent vector -> (ok_plus, ok_minus) per period, None if all False;
    # the zero vector lies in every kernel
    filters: dict = {(0,) * rank: (every, every)}

    best_plus = None   # (n, ords)
    best_minus = None
    for length in range(1, max_len + 1):
        for cand in _canonical_cyclic_words(rank, length, balanced_only):
            # the abelian filter first: a class and its inverse pass alike
            if balanced_only:
                ok_plus = ok_minus = every
            else:
                vec = tuple([cand.count(2 * i) - cand.count(2 * i + 1)
                             for i in range(rank)])
                ok = filters.get(vec, False)
                if ok is False:
                    ok_plus = [_in_kernel(mi, vec) for (mi, _) in constraints]
                    ok_minus = [_in_kernel(pl, vec) for (_, pl) in constraints]
                    ok = filters[vec] = ((ok_plus, ok_minus)
                                         if any(ok_plus) or any(ok_minus) else None)
                if ok is None:
                    continue
                ok_plus, ok_minus = ok
            cand_inv = _least_rotation(_invert_ords(cand))
            if cand_inv < cand:
                continue  # the inverse class representative covers this one
            u = cand
            limit = max_period
            if best_plus is not None:
                # only a shorter oriented period can still win, and a
                # reversing match is no longer reported
                (limit, ok_minus) = (best_plus[0] - 1, never)
            for n in range(1, limit + 1):
                # u <- phi(u), freely and then cyclically reduced; images
                # are reduced, so cancellation happens only at junctions
                out = [-2]  # a sentinel that cancels with nothing
                for o in u:
                    im = images[o]
                    if out[-1] != heads[o]:
                        out.extend(im)
                        continue
                    k = 0
                    while k < len(im) and out[-1] == im[k] ^ 1:
                        out.pop()
                        k += 1
                    out.extend(im[k:])
                i, j = 1, len(out)
                while j - i >= 2 and out[i] == out[j - 1] ^ 1:
                    i += 1
                    j -= 1
                if i == j or j - i > max_len:
                    break
                u = tuple(out[i:j])
                if j - i != length or not (ok_plus[n - 1] or ok_minus[n - 1]):
                    continue  # a class of another length cannot match
                canon_u = _least_rotation(u)
                if ok_plus[n - 1] and canon_u == cand:
                    best_plus = (n, cand)
                    break
                if ok_minus[n - 1] and canon_u == cand_inv:
                    if best_minus is None or n < best_minus[0]:
                        best_minus = (n, cand)
        if best_plus is not None and best_plus[0] == 1:
            break
    if best_plus is not None:
        return (tuple(map(_letter, best_plus[1])), best_plus[0], +1)
    if best_minus is not None:
        return (tuple(map(_letter, best_minus[1])), best_minus[0], -1)
    return None
