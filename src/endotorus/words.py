"""Exact word arithmetic in finite-rank free groups.

Letters are nonzero integers: +i is the i-th generator (1-based), -i its
inverse.  Words are tuples of letters; the empty tuple is the identity.
Human-readable form uses 'a', 'b', ... with capitals for inverses, so
parse_word("abA") == (1, 2, -1).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Iterable, Optional, Sequence

Word = tuple  # tuple[int, ...]


class InternalInconsistency(RuntimeError):
    """A certified invariant failed; reported with exit code 3 by the CLI."""


# ---------------------------------------------------------------------------
# reading and printing
# ---------------------------------------------------------------------------

def parse_word(text: str) -> Word:
    """Parse letters like 'abA' (capital = inverse) into a reduced word."""
    letters = []
    for ch in text:
        if ch.isspace():
            continue
        if "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
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
    return _cyclic_split(reduce_word(w))[0]


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


class CyclicWord:
    """Conjugacy class of an element, canonicalized without orientation
    (the class of w and of w^-1 coincide)."""

    def __init__(self, letters: Word):
        self.letters = letters

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"CyclicWord(letters={self.letters!r})"

    @staticmethod
    def of(w: Sequence[int]) -> "CyclicWord":
        return CyclicWord(cyclic_canonical(w, unoriented=True))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return f"[{show_word(self.letters)}]"


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

class Endomorphism:
    """A self-map of F given on the generators.  Images are stored reduced;
    injectivity is a computed certificate (subgroups.is_injective), never an
    input assumption."""

    def __init__(self, rank: int, images: tuple):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if len(images) != rank:
            raise ValueError("need one image per generator")
        if any(abs(x) > rank for im in images for x in im):
            raise ValueError(f"image letter outside rank {rank}")
        self.rank = rank
        self.images = tuple(reduce_word(im) for im in images)  # one Word per generator

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.rank, self.images))

    def __repr__(self) -> str:
        return f"Endomorphism(rank={self.rank!r}, images={self.images!r})"

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
            n >>= 1
            if n:
                base = base.compose(base)
        return result

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
    """True iff the square integer matrix has trivial rational kernel, that
    is, a nonzero determinant.  Fraction-free (Bareiss) elimination: after
    step k each entry below and right of the pivots is a (k+2)-minor of the
    row-swapped matrix, so every division is exact; a column with no pivot
    left means the determinant is 0."""
    n = len(m)
    a = [list(row) for row in m]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return False
        a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return True


def _row_space(rows) -> tuple:
    """The rational row space of integer rows, as its reduced echelon form
    with each row scaled to coprime integers and a positive pivot: equal
    spaces give equal tuples.  Every row is kept coprime as it is
    reduced, so the entries stay small."""
    rows = [row for row in rows if any(row)]
    basis: list = []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        g = math.gcd(*pivot) if pivot[col] > 0 else -math.gcd(*pivot)
        pivot = [x // g for x in pivot]
        rows = [row for row in (_clear(row, pivot, col) for row in rows) if any(row)]
        basis = [_clear(row, pivot, col) for row in basis]
        basis.append(pivot)
    return tuple(map(tuple, basis))


def _clear(row: list, pivot: list, col: int) -> list:
    """row with its entry at col cleared by the pivot row, whose entry
    there is positive, divided by the gcd of its entries."""
    if not row[col]:
        return row
    (a, b) = (pivot[col], row[col])
    row = [a * x - b * y for (x, y) in zip(row, pivot)]
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


# The last TAIL_LETTERS letters of a balanced word are not walked: they
# are read from the exact tails of the word's first letter, filed under
# the state before them (`_PeriodFilter.tails`).  Walked, plastic_rank3's
# search makes 3,949 calls at length 12 and took 0.0226, 0.0188 and
# 0.0174 s of CPU time with tails of 3, 4 and 5 letters (medians of 21
# interleaved cold runs on a 2-vCPU Xeon, Python 3.11).  The default
# search now reads those zero-area words from GAMMA3_NECKLACES
# (`_candidates`), so the tails serve the walks of other filters, of
# rank 4 and up and of lengths above GAMMA3_MAX_LEN.  Tails of 5 letters
# list the same candidates and were a little faster up to rank 3, but
# their tables grow with the rank: on `a -> b, b -> c, c -> d, d -> e,
# e -> a b` at (6, 9) the search took 0.17 s of CPU time against 0.06 s,
# its traced peak 33.5 MB against 12.7 MB, and that family's rank-8 map
# at (6, 10) ran out of a 600 MB address space where tails of 4 finish
# in 1.2 s.  So tails stop at 4.
TAIL_LETTERS = 4


class _Memo(dict):
    """A dict that computes a missing value once, with `compute(key)`."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class _PeriodFilter:
    """Necessary conditions for phi^n(w) ~ w and phi^n(w) ~ w^-1, read from
    the image of w in the class-two quotient F/[F,[F,F]].

    The abelian part is the exponent vector v, and phi acts on it by the
    abelianized matrix M: a class of period n needs M^n v = v (oriented) or
    M^n v = -v (reversing).  A balanced word (v = 0) lies in [F,F], whose
    image in the centre [F,F]/[F,[F,F]] is its half-area H in the exterior
    square of Z^rank (Magnus-Karrass-Solitar, Combinatorial Group Theory,
    ch. 5).  For i < j, H_ij sums, over the letters of generator j, the
    letter's sign times the exponent sum of generator i before it.  H is a
    class function, H(w^-1) = -H(w), and phi acts on it by the second
    exterior power of M, with entries M_ik M_jl - M_jk M_il; so a balanced
    class needs that matrix's n-th power to send H to H or to -H.  A word
    with v != 0 is judged by v alone.

    v and H are packed into ints with `bits` per coordinate, so that each
    letter updates them in O(1): v with every coordinate offset by half a
    digit, and H as signed digits, the pairs (i, j) ordered by j and then i.
    A letter of generator g adds its sign times v_i to H_ig for each i < g,
    that is, the low g coordinates of v shifted to the first pair of g.  The
    memo tables `by_vector` (packed v != 0) and `by_area` (packed H) hold
    (ok_plus, ok_minus), one flag per period, or None when no period admits
    the class.  With reversing=False, no period admits a reversing match.

    A canonical word (`_canonical_cyclic_words`) starts with its least
    letter, a generator, and closes cyclically reduced, so its last letter
    is not the inverse of its first.  `tails` maps (first ord, r),
    r <= TAIL_LETTERS, for the ord of that first letter, to the words that
    can end such a word, built on first use: every reduced word of r
    letters of ord at least the first's, the last of them not the first's
    inverse, with its change of packed H, in lexicographic order under the
    packed v before it, which it brings back to 0.

    Two exact shortcuts read the kernels of these conditions.  When every
    M^n - I, and with reversing every M^n + I, n <= max_period, has trivial
    kernel, no v != 0 is admitted, so `balanced_only` holds and only
    balanced words need to be generated; with reversing=False the M^n + I
    do not count, since M^n v = -v is never asked for.  When the exterior
    squares' kernels are all trivial in the same sense (`_zero_area_only`,
    computed on first use), H = 0 is the only admissible area.  Packing is
    additive and one-to-one on the coordinates that occur, so the tails
    that can end a prefix are then those filed under (v, -H), and `tails`
    files them under (v, change).  For such a filter `completions` maps a
    first ord to packed v -> the changes of packed H made by one letter of
    ord at least the first's and then a tail of TAIL_LETTERS letters that
    brings v back to 0, built on first use.  Every real completion of
    TAIL_LETTERS + 1 letters is one of these, so a prefix with that many
    letters to come whose -H is not listed under its v has no admissible
    completion.

    The words of [F,[F,F]] that `_candidates` reads from GAMMA3_NECKLACES
    have v = 0 and H = 0, and `class_three` reads them one quotient
    further, in the free abelian gamma_3/gamma_4, where phi acts by
    Phi(X) = M X adj(M) on their images X (GAMMA3_IMAGES): a class of
    oriented period n needs Phi^n X = X, and a reversing one Phi^n X = -X,
    so Phi^2n X = X."""

    def __init__(self, endo: Endomorphism, max_period: int, max_len: int,
                 reversing: bool = True):
        rank = endo.rank
        self.rank = rank
        self.max_period = max_period
        self.reversing = reversing
        pairs = [(i, j) for j in range(rank) for i in range(j)]
        ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        m = endo.abelianized()
        cur = ident
        self.vector_powers = []  # M^n for n = 1..max_period
        self.area_powers = []    # the exterior square of M^n
        for _ in range(max_period):
            cur = _mat_mul(m, cur)
            self.vector_powers.append(cur)
            self.area_powers.append(tuple(
                tuple(cur[i][k] * cur[j][l] - cur[j][k] * cur[i][l] for (k, l) in pairs)
                for (i, j) in pairs))
        self.balanced_only = self._admits_only_zero(self.vector_powers)

        # a prefix's v, its area, and an area plus a completion's or a
        # tail's change all have coordinates below
        # (max_len + TAIL_LETTERS + 1)^2, so half a digit leaves a factor
        # of 2 to spare
        bits = self.bits = (2 * (max_len + TAIL_LETTERS + 1) ** 2).bit_length() + 1
        half = 1 << (bits - 1)
        self.zero = sum(half << (bits * i) for i in range(rank))
        # per ord o: the change of packed v, and the mask, offset and
        # shift that turn packed v into the change of H, up to the sign o & 1
        self.vstep = [(-1 if o & 1 else 1) << (bits * (o >> 1))
                      for o in range(2 * rank)]
        self.amask = [(1 << (bits * (o >> 1))) - 1 for o in range(2 * rank)]
        self.abias = [self.zero & mask for mask in self.amask]
        self.ashift = [bits * ((o >> 1) * ((o >> 1) - 1) // 2)
                       for o in range(2 * rank)]
        self.by_vector = _Memo(self._vector_ok)
        self.by_area = _Memo(self._area_ok)
        self.completions = _Memo(self._completion_table)
        self.tails = _Memo(self._tail_table)

    def step(self, vv: int, hh: int, o: int) -> tuple:
        """Packed (v, H) after appending the letter with ord o."""
        x = ((vv & self.amask[o]) - self.abias[o]) << self.ashift[o]
        return (vv + self.vstep[o], hh - x if o & 1 else hh + x)

    def digits(self, x: int, count: int) -> tuple:
        """The signed coordinates of a packed value, lowest first."""
        bits = self.bits
        half = 1 << (bits - 1)
        out = []
        for _ in range(count):
            d = ((x + half) & ((1 << bits) - 1)) - half
            out.append(d)
            x = (x - d) >> bits
        return tuple(out)

    def _verdict(self, powers, x: tuple):
        neg = tuple(-c for c in x)
        images = [tuple(sum(a * c for a, c in zip(row, x)) for row in p) for p in powers]
        ok_plus = tuple(y == x for y in images)
        ok_minus = tuple(self.reversing and y == neg for y in images)
        return (ok_plus, ok_minus) if any(ok_plus) or any(ok_minus) else None

    def _vector_ok(self, vv: int):
        return self._verdict(self.vector_powers, self.digits(vv - self.zero, self.rank))

    def _area_ok(self, hh: int):
        return self._verdict(self.area_powers,
                             self.digits(hh, self.rank * (self.rank - 1) // 2))

    def _admits_only_zero(self, powers) -> bool:
        """Whether every A - I, and with reversing every A + I, for A in
        `powers` has trivial kernel, so that only 0 can be admitted."""
        signs = (-1, 1) if self.reversing else (-1,)
        return all(
            _kernel_trivial(tuple(tuple(a[i][j] + s * (i == j) for j in range(len(a)))
                                  for i in range(len(a))))
            for a in powers for s in signs)

    @cached_property
    def _zero_area_only(self) -> bool:
        """Whether H = 0 is the only admissible half-area."""
        return self._admits_only_zero(self.area_powers)

    @cached_property
    def class_three(self) -> dict:
        """m -> the rows of ker(Phi^m - I) on the traceless X that the rank
        reads (`_row_space`), at ranks 2 and 3, for each m that is
        divisibility-maximal among the periods n <= max_period and, with
        reversing, their doubles 2n: X_w of a class of oriented period n
        lies in the kernel of Phi^n - I, of a reversing one in that of
        Phi^2n - I, and ker(Phi^m - I) lies in ker(Phi^km - I).  A kept
        m above max_period is even, so M^m is the square of a stored
        power; no power above 2 * max_period is formed."""
        (top, powers) = (self.max_period, self.vector_powers)
        periods = set(range(1, top + 1))
        if self.reversing:
            top *= 2
            periods.update(range(2, top + 1, 2))
        if self.rank == 2:
            # F_2 in F_3: M is lifted to diag(M, 1)
            powers = [(a[0] + (0,), a[1] + (0,), (0, 0, 1)) for a in powers]
        coords = _CLASS_THREE_COORDS[self.rank]
        kernels = {}
        for m in sorted(periods):
            if any(k in periods for k in range(2 * m, top + 1, m)):
                continue
            p = powers[m - 1] if m <= len(powers) else \
                _mat_mul(powers[m // 2 - 1], powers[m // 2 - 1])
            # adj(P), from the cofactors of the 3x3 matrix P
            q = [[p[(j + 1) % 3][(i + 1) % 3] * p[(j + 2) % 3][(i + 2) % 3]
                  - p[(j + 1) % 3][(i + 2) % 3] * p[(j + 2) % 3][(i + 1) % 3]
                  for j in range(3)] for i in range(3)]

            def phi(k, a):
                # entry k = 3i + j of Phi^m(E_a), a = 3r + s: P_ir adj(P)_sj
                return p[k // 3][a // 3] * q[a % 3][k % 3]

            # X_22 = -X_00 - X_11 folds into the columns of X_00 and X_11
            rows = _row_space([[phi(k, a) - (phi(k, 8) if a in (0, 4) else 0)
                                - (a == k) for a in coords] for k in coords])
            kernels[m] = tuple(tuple(row[coords.index(a)] if a in coords else 0
                                     for a in range(9)) for row in rows)
        return kernels

    def _tail_table(self, key: tuple) -> dict:
        """The exact tails of r letters in words whose first letter has
        ord `first`, for key = (first, r): every reduced word of r letters
        of ord at least the first's, the last not the first's inverse,
        with its change d of packed H.  Filed under the packed v before
        it, which the tail brings back to 0, and with `_zero_area_only`
        under (v, d); each list is in lexicographic order.  Built from the
        tails of r - 1 letters, one letter in front."""
        (first, r) = key
        zero_only = self._zero_area_only
        if r == 0:
            return {(self.zero, 0) if zero_only else self.zero: [((), 0)]}
        table: dict = {}
        for (after, entries) in self.tails[first, r - 1].items():
            if zero_only:
                after = after[0]
            for (tail, d) in entries:
                # the letter after the tail's end is w[1], cyclically
                nxt = tail[0] if tail else first
                for o in range(first, 2 * self.rank):
                    if o ^ 1 != nxt:
                        vv = after - self.vstep[o]
                        d2 = d + self.step(vv, 0, o)[1]
                        table.setdefault((vv, d2) if zero_only else vv,
                                         []).append(((o,) + tail, d2))
        for entries in table.values():
            entries.sort()
        return table

    def _completion_table(self, first: int) -> dict:
        """The `completions` of a zero-area filter for first ord `first`:
        one letter in front of each tail of TAIL_LETTERS letters, with no
        cancellation check at their junction, one `step` per (v, letter)."""
        areas: dict = {}
        for (after, d) in self.tails[first, TAIL_LETTERS]:
            areas.setdefault(after, []).append(d)
        table: dict = {}
        for (after, deltas) in areas.items():
            for o in range(first, 2 * self.rank):
                vv = after - self.vstep[o]
                x = self.step(vv, 0, o)[1]
                table.setdefault(vv, set()).update([x + d for d in deltas])
        return table


def _canonical_cyclic_words(rank: int, length: int, balanced_only: bool,
                            filt: _PeriodFilter) -> list:
    """One cyclically reduced word of the given length per class and
    inverse class, as ords: the least, in ord order, among the rotations of
    w and of w^-1.  Restricted to zero exponent sums when balanced_only.
    Returns (word, (ok_plus, ok_minus)) for each word that `filt` admits,
    in lexicographic order; the filter of the identity map admits every
    word.

    FKM necklace generation (Ruskey-Savage-Wang 1992) yields each word that
    is least among its own rotations; its first letter is its least letter
    and a generator, since otherwise the inverse word has a smaller one.
    The inverse word's rotations are pruned as in Sawada's bracelet
    generator (2001): a rotation of w^-1 can only come before w if it
    starts with w[1], that is, at a position t with w[t] = w[1]^-1.  It then
    reads w[t]^-1 w[t-1]^-1 ... w[1]^-1 before the letters still to come,
    so that run against w[1..t] decides it for every extension.

    The packed exponent vector and half-area of the prefix ride down the
    tree, one O(1) update per letter (`_PeriodFilter`).  Each finished word
    is looked up in the filter by its vector, or by its area when it is
    balanced, and a word that no period admits is never built.  When
    balanced_only and H = 0 is the only admissible area, a prefix with
    TAIL_LETTERS + 1 letters to come is dropped with its whole subtree
    when its -H is not among the area changes that the completions of w[1]
    list under its v (`_PeriodFilter.completions`): one set lookup, made
    inline from the second letter on, once w[1] is placed.

    The last min(TAIL_LETTERS, length - 1) letters of a balanced word are
    not walked: the prefix's state picks them from the exact tails of w[1]
    (`_PeriodFilter.tails`), those that balance it, by one dict lookup when
    H = 0 is the only admissible area and by one `by_area` check per tail
    otherwise.  A tail is kept when its first letter does not cancel the
    prefix's last and the necklace and bracelet rules pass letter by
    letter, so the words and their order are those of the full walk.

    `periodic_conjugacy_search` calls this through `_candidates`, which
    reads the lists of a zero-area filter at ranks 2 and 3 up to
    GAMMA3_MAX_LEN letters from GAMMA3_NECKLACES and keeps the words that
    the class-three rule admits; the walk serves every other filter, rank
    and length, and is the reference that table is checked against."""
    nsym = 2 * rank
    w = [0] * (length + 1)  # w[1:] holds the word; w[0] seeds position 1
    sums = [0] * rank       # exponent sum per generator of w[1:t]
    out: list[tuple] = []
    (vstep, amask, abias, ashift) = (filt.vstep, filt.amask, filt.abias, filt.ashift)
    (zero, by_vector, by_area) = (filt.zero, filt.by_vector, filt.by_area)
    (completions, tails) = (filt.completions, filt.tails)
    # letters to come at the tail lookup (-1: none)
    tail_len = min(TAIL_LETTERS, length - 1) if balanced_only else -1
    zero_only = balanced_only and filt._zero_area_only

    def gen(t, p, pending, vv, hh):
        # pending = sum of |sums|: the letters still needed to balance;
        # vv, hh = packed exponent vector and half-area of w[1:t]
        start = w[t - p]
        cancel = w[t - 1] ^ 1 if t > 1 else -1
        first_inv = w[1] ^ 1 if t > 1 else -1
        letters = range(start, nsym) if t > 1 else range(0, nsym, 2)
        if t == length:
            # last letter of an unbalanced walk: w must close up
            # cyclically reduced and be a necklace
            for c in letters:
                if c == cancel or c == first_inv or (c == start and length % p):
                    continue
                v2 = vv + vstep[c]
                ok = by_vector[v2] if v2 != zero else by_area[hh]
                if ok is not None:
                    w[t] = c
                    out.append((tuple(w[1:]), ok))
            return
        rem = length - t
        # the completions of w's first letter, from the second letter on
        comp = (completions[w[1]] if zero_only and rem == TAIL_LETTERS + 1
                and t > 1 else None)
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
            if c == first_inv:
                # compare w[t]^-1 ... w[1]^-1 with w[1..t].  They never
                # tie: equal up to the middle, the middle letter of
                # w[1..t] would be its own inverse (t odd) or cancel with
                # the next one (t even).  A smaller run puts a rotation
                # of w^-1 before every extension of w[1..t]; a larger one
                # never lets this rotation win.  The last letter never
                # equals first_inv (w must stay cyclically reduced), so
                # each rotation of w^-1 that could win is settled here.
                i = 2
                while w[t + 1 - i] ^ 1 == w[i]:
                    i += 1
                if w[t + 1 - i] ^ 1 < w[i]:
                    continue
            q = p if c == start else t
            x = ((vv & amask[c]) - abias[c]) << ashift[c]
            h2 = hh - x if c & 1 else hh + x
            v2 = vv + vstep[c]
            if rem == tail_len:
                # the tails that balance w[1..t]; the necklace and
                # bracelet rules above, run on the tail's letters
                last_inv = w[1] ^ 1  # first_inv, which is -1 at t = 1
                for (tail, d) in tails[w[1], rem].get((v2, -h2) if zero_only else v2, ()):
                    ok = by_area[h2 + d]
                    if ok is None or tail[0] == c ^ 1:
                        continue
                    (s, ps) = (t, q)
                    for y in tail:
                        s += 1
                        z = w[s - ps]
                        if y < z:
                            break
                        if y != z:
                            ps = s
                        w[s] = y
                        if y == last_inv:
                            i = 2
                            while w[s + 1 - i] ^ 1 == w[i]:
                                i += 1
                            if w[s + 1 - i] ^ 1 < w[i]:
                                break
                    else:
                        if not length % ps:
                            out.append((tuple(w[1:]), ok))
                continue
            if comp is not None and -h2 not in comp.get(v2, ()):
                continue
            sums[g] = new
            gen(t + 1, q, new_pending, v2, h2)
            sums[g] = old

    # a word with zero exponent sums has even length
    if length >= 1 and not (balanced_only and length % 2):
        gen(1, 1, 0, zero, 0)
    return out


# The zero-area candidates of ranks 2 and 3 up to GAMMA3_MAX_LEN letters.
# Under a filter that admits only v = 0 and H = 0, the walk lists the
# cyclically reduced words of gamma_3 = [F,[F,F]] (the kernel of
# F -> F/[F,[F,F]], Magnus-Karrass-Solitar ch. 5), one per class and
# inverse class, and every prune it makes reads only the rank, the length
# and the packing, never phi.  So the list depends on rank and length
# alone, and `_candidates` reads it from here, keeping only the words that
# the class-three rule admits (GAMMA3_IMAGES).  These are the walk's words
# at rank 3, in its order, lexicographic in ords (a < A < b < B < c < C);
# the rank-2 words are those with no c.  The words of one length are
# separated by single spaces, so the k-th starts at k (length + 1).
# Lengths without a word are left out.  tests/test_words.py regenerates
# the table with the walk.
GAMMA3_MAX_LEN = 12
GAMMA3_NECKLACES = {
    8: ("aabABBAb aaBAbbAB aacACCAc aaCAccAC abaBAbAB abAbaBAB acaCAcAC "
        "acAcaCAC bbcBCCBc bbCBccBC bcbCBcBC bcBcbCBC"),
    10: ("aaabABABAb aaaBAbAbAB aaacACACAc aaaCAcAcAC aabaBAAbAB aaBabAABAb "
         "aacaCAAcAC aaCacAACAc ababABBBAb abacACBCAc abaCAcBcAC abAbAbaBBB "
         "abAbbaBABB abABcaBAbC abABcAbaBC abABcbaBAC abABcBAbaC abABCaBAbc "
         "abABCAbaBc abABCBAbac abAcaBAbCB abAcaCBcAC abAcAbaBCB abAcBAbaCB "
         "abACacBCAc abACAbaBcB abACBAbacB abbAbaBBAB abcaCABcAC abcAbaBCAB "
         "abcACaBCAc abcBAbaCAB abcBCAbCBc abcBCABcbC abcBCAcbCB abcBCACBcb "
         "abCacABCAc abCAbaBcAB abCAcaBcAC abCBcAbcBC abCBcABCbc abCBcAcBCb "
         "abCBcACbcB aBacACbCAc aBaCAcbcAC aBcaCAbcAC aBcbABaCAb aBcbCAbcBC "
         "aBcbCABCbc aBcbCAcBCb aBcbCACbcB aBCacAbCAc aBCbcAbCBc aBCbcABcbC "
         "aBCbcAcbCB aBCbcACBcb acacACCCAc acAbaCAcBC acAbcaCABC acABcaCAbC "
         "acAcAcaCCC acAccaCACC acACbcaCAB accAcaCCAC bbbcBCBCBc bbbCBcBcBC "
         "bbcbCBBcBC bbCbcBBCBc bcbcBCCCBc bcBcBcbCCC bcBccbCBCC bccBcbCCBC"),
    12: ("aaaabAABBAAb aaaabABAABAb aaaaBAAbbAAB aaaaBAbAAbAB aaaacAACCAAc "
         "aaaacACAACAc aaaaCAAccAAC aaaaCAcAAcAC aaabaBAAAbAB aaabAABaBAAb "
         "aaabAABBBAbb aaabbABBBAAb aaaBabAAABAb aaaBAAbabAAB aaaBAAbbbABB "
         "aaaBBAbbbAAB aaacaCAAAcAC aaacAACaCAAc aaacAACCCAcc aaaccACCCAAc "
         "aaaCacAAACAc aaaCAAcacAAC aaaCAAcccACC aaaCCAcccAAC aabaaBAAbAAB "
         "aababABBABAb aabaBBAbbAAB aabacACBACAc aabaCAcBAcAC aabAAbaaBAAB "
         "aabAAbbaBBAB aabAABaBBAbb aabAABAbbaBB aabAABBAbbaB aabAbaBBAbAB "
         "aabAbbaBBAAB aabABAbAbaBB aabABAbbaBAB aabABABaBAbb aabABABBAbab "
         "aabABAcaBAbC aabABAcAbaBC aabABAcbaBAC aabABAcBAbaC aabABACaBAbc "
         "aabABACAbaBc aabABACbaBAc aabABACBAbac aabABcBCAcbC aabABCBcACbc "
         "aabAcaCBAcAC aabAcBCBAcbC aabAcBCCBcAb aabACacBACAc aabACBcBACbc "
         "aabACBccBCAb aabbaBABAbAB aabbaBBAbAAB aabbABaBABAb aabbABBBBAbb "
         "aabcaCABAcAC aabcABCCBAcb aabcACaBACAc aabcACBBCAcb aabcACBCBAbc "
         "aabcBAbCBCAc aabcBACbCBAc aabcBACCABcb aabcBCAAbCBc aabcBCAABcbC "
         "aabcBCAAcbCB aabcBCAACBcb aabCacABACAc aabCABccBACb aabCAcaBAcAC "
         "aabCAcBBcACb aabCAcBcBAbC aabCBAbcBcAC aabCBAcbcBAC aabCBAccABCb "
         "aabCBcAAbcBC aabCBcAABCbc aabCBcAAcBCb aabCBcAACbcB aaBaBAbbAbAB "
         "aaBacACbACAc aaBaCAcbAcAC aaBAbAbabABB aaBAbAbbABaB aaBAbABABabb "
         "aaBAbABBabAb aaBAbAcabABC aaBAbAcABabC aaBAbAcbABaC aaBAbAcBabAC "
         "aaBAbACabABc aaBAbACABabc aaBAbACbABac aaBAbACBabAc aaBAbcbCAcBC "
         "aaBAbCbcACBc aaBABabbABAb aaBABBabbAAb aaBAcaCbAcAC aaBAcbCbAcBC "
         "aaBAcbCCbcAB aaBACacbACAc aaBACbcbACBc aaBACbccbCAB aaBBabAbABAb "
         "aaBBAbabAbAB aaBBAbbbbABB aaBcaCAbAcAC aaBcAbCCbAcB aaBcACabACAc "
         "aaBcACbbCAcB aaBcACbCbABc aaBcbABCbCAc aaBcbACBCbAc aaBcbACCAbcB "
         "aaBcbCAAbcBC aaBcbCAABCbc aaBcbCAAcBCb aaBcbCAACbcB aaBCacAbACAc "
         "aaBCAbccbACB aaBCAcabAcAC aaBCAcbbcACB aaBCAcbcbABC aaBCbABcbcAC "
         "aaBCbAcBcbAC aaBCbAccAbCB aaBCbcAAbCBc aaBCbcAABcbC aaBCbcAAcbCB "
         "aaBCbcAACBcb aacaaCAAcAAC aacabABCABAb aacaBAbCAbAB aacacACCACAc "
         "aacaCCAccAAC aacAAcaaCAAC aacAAccaCCAC aacAACaCCAcc aacAACAccaCC "
         "aacAACCAccaC aacAbaBCAbAB aacAbCBBCbAc aacAbCBCAbcB aacABabCABAb "
         "aacABCbbCBAc aacABCbCABcb aacAcaCCAcAC aacAccaCCAAC aacACAbaCAcB "
         "aacACAbAcaCB aacACAbcaCAB aacACAbCAcaB aacACABaCAcb aacACABAcaCb "
         "aacACABcaCAb aacACABCAcab aacACAcAcaCC aacACAccaCAC aacACACaCAcc "
         "aacACACCAcac aacACbCBAbcB aacACBCbABcb aacbaBACAbAB aacbABaCABAb "
         "aacbABCBCAcb aacbABCCBAbc aacbACBBCAbc aacbCABBACbc aacbCABcBCAb "
         "aacbCAcBCBAb aacBabACABAb aacBAbaCAbAB aacBAbCbCAcB aacBAbCCbABc "
         "aacBACbbCABc aacBCAbbACBc aacBCAbcbCAB aacBCAcbCbAB aaccaCACAcAC "
         "aaccaCCAcAAC aaccACaCACAc aaccACCCCAcc aaCabABcABAb aaCaBAbcAbAB "
         "aaCaCAccAcAC aaCAbaBcAbAB aaCAbcBBcbAC aaCAbcBcAbCB aaCABabcABAb "
         "aaCABcbbcBAC aaCABcbcABCb aaCAcAbacACB aaCAcAbACacB aaCAcAbcACaB "
         "aaCAcAbCacAB aaCAcABacACb aaCAcABACacb aaCAcABcACab aaCAcABCacAb "
         "aaCAcAcacACC aaCAcAccACaC aaCAcACACacc aaCAcACCacAc aaCAcbcBAbCB "
         "aaCAcBcbABCb aaCACaccACAc aaCACCaccAAc aaCbaBAcAbAB aaCbABacABAb "
         "aaCbABcBcACb aaCbABccBAbC aaCbAcBBcAbC aaCbcABBAcbC aaCbcABCBcAb "
         "aaCbcACBcBAb aaCBabAcABAb aaCBAbacAbAB aaCBAbcbcACB aaCBAbccbABC "
         "aaCBAcbbcABC aaCBcAbbAcBC aaCBcAbCbcAB aaCBcACbcbAB aaCCacAcACAc "
         "aaCCAcacAcAC aaCCAccccACC ababcBACCBAc ababCBAccBAC abaBAcbCAcBC "
         "abaBACbcACBc abaBBAbbbABB abaBcACbCAcB abaBcACCbABc abaBcbABCCAc "
         "abaBCAcbcACB abaBCAccbABC abaBCbABccAC abacABCbCBAc abacABCCABcb "
         "abacACCBAbcB abacBAbCCAcB abacBACbCABc abacBCAbACBc abacBCAcbCAB "
         "abaCABcbcBAC abaCABccABCb abaCAccBAbCB abaCBAbccACB abaCBAcbcABC "
         "abaCBcAbAcBC abaCBcACbcAB abAbacBCACBc abAbaCBcAcBC abAbbAbaBBBB "
         "abAbbbaBABBB abAbcaBAbCBB abAbcaBACCBc abAbcaCBcACB abAbcAbaBCBB "
         "abAbcbaBACBB abAbcBAbaCBB abAbcBCCaBAc abAbCaBAbcBB abAbCaBAccBC "
         "abAbCacBCAcB abAbCAbaBcBB abAbCbaBAcBB abAbCBAbacBB abAbCBccaBAC "
         "abABacBCAcbC abABaCBcACbc abABBBBAbabb abABBcaBAbCb abABBcAbaBCb "
         "abABBcACbcaC abABBcbaBACb abABBcBAbaCb abABBCaBAbcb abABBCAbaBcb "
         "abABBCAcbCac abABBCbaBAcb abABBCBAbacb abABcaCBcACb abABcACbcaCB "
         "abABcbAbaBBC abABcBBAbabC abABccaBAbCC abABccAbaBCC abABccbaBACC "
         "abABccBAbaCC abABCacBCAcb abABCAcbCacB abABCbAbaBBc abABCBBAbabc "
         "abABCCaBAbcc abABCCAbaBcc abABCCBAbacc abAcabCBcBAC abAcaBABcbCC "
         "abAcaBAcbCBC abAcaBACbCBc abAcaBACBcbC abAcaBACCBcb abAcaBBcbCAC "
         "abAcaBcbCBAC abAcaBCBcbAC abAcacbCBBAC abAcAbaCBcBC abAcAcbCaBBC "
         "abAcACbcaCBB abAcbaCBcABC abAcbAbaBBCB abAcbCaBAcBC abAcbCacBCAB "
         "abAcbCBcaBAC abAcBaCBcAbC abAcBAcbCaBC abAcBBAbabCB abAcBBAcbCaC "
         "abAcBBcAbaCC abAcBcAbaCBC abAcBcbCaBAC abAcBCaCBcAb abAcBCAbaCBc "
         "abAcBCAcbCaB abAcBCBcAbaC abAcBCCaBAcb abAccaBAbCCB abAccAbaBCCB "
         "abAccAbaCBBC abAccBAbaCCB abACabcBCBAc abACaBBCbcAc abACaBcBCbAc "
         "abACaBCbcBAc abACaCbcBBAc abACAbacBCBc abACAcbCacBB abACACbcaBBc "
         "abACbacBCABc abACbAbaBBcB abACbcaBACBc abACbcaCBcAB abACBacBCAbc "
         "abACBACbcaBc abACBBAbabcB abACBBACbcac abACBBCAbacc abACBcacBCAb "
         "abACBcAbacBC abACBcACbcaB abACBcbcaBAC abACBcBCAbac abACBccaBACb "
         "abACBCAbacBc abACCAbaBccB abACCAbacBBc abACCBAbaccB abbaBBAbbABB "
         "abbaBcACCAcB abbaBCAccACB abbacABCCBAc abbacACBBCAc abbacBACCABc "
         "abbaCABccBAC abbaCAcBBcAC abbaCBAccABC abbAbbaBBABB abbABBBAbbaB "
         "abbAcaCBBcAC abbACacBBCAc abbbAbaBBBAB abbcaCABBcAC abbcaCBAcACB "
         "abbcaCBcACAB abbcAbaBCBAB abbcACaBBCAc abbcBAbaCBAB abbcBACaCBAc "
         "abbcBCBAbCBc abbcBCBABcbC abbcBCBAcbCB abbcBCBACBcb abbCacABBCAc "
         "abbCacBACAcB abbCacBCAcAB abbCAbaBcBAB abbCAcaBBcAC abbCBAbacBAB "
         "abbCBAcacBAC abbCBcBAbcBC abbCBcBABCbc abbCBcBAcBCb abbCBcBACbcB "
         "abcabCBAcBAC abcaBCAcbACB abcacACCBCAc abcaCAcBAbCB abcaCBAbcACB "
         "abcaCBAcbABC abcaCBcACbAB abcAbaCBAcBC abcAbcaCBACB abcABaCCBcAb "
         "abcABcbaCBAC abcABCaCBAcb abcABCAcbaCB abcABCBAcbaC abcAcaCBAbCB "
         "abcAcaCCBcAC abcAcbaBCACB abcACAbcaCBB abcACAcbaBCB abcACbaBCAcB "
         "abcACbcaCBAB abcACBaBCAcb abcACBCAcbaB abcACCAcbaBB abcACCBAbcaB "
         "abcbaBCAcACB abcbaCABcBAC abcbAbaBBCAB abcBabCBAcAC abcBaCABcbAC "
         "abcBaCAcAbCB abcBAbAcaCCB abcBAbcaCACB abcBAbCaCAcB abcBAbCAcaCB "
         "abcBAbCBaCAc abcBAbCCAcaB abcBABcbaCAC abcBAcabCBAC abcBAcaCAbCB "
         "abcBAcbaCABC abcBACaCABcb abcBACABcbaC abcBACAcabCB abcBACbaCABc "
         "abcBCAbbCBcB abcBCAbcbCBB abcBCABBcbCb abcBCABCBcbb abcBCAcBcbCC "
         "abcBCAccbCBC abcBCACbCBcc abcBCACCBcbc abcBCCABacAb abccaCACBcAC "
         "abccAbaBCCAB abccACaCBCAc abccBAbaCCAB abCaBcACbAcB abCacBAbCAcB "
         "abCacBACbABc abCacBCAcbAB abCaCAccBcAC abCAbacBACBc abCAbCacBAcB "
         "abCABaccBCAb abCABcacBACb abCABcACbacB abCABcbacBAC abCABcBACbac "
         "abCAcacBAbCB abCAcAbCacBB abCAcACbaBcB abCAcbaBcACB abCAcbCacBAB "
         "abCAcBaBcACb abCAcBcACbaB abCAccACbaBB abCAccBAbCaB abCACaccBCAc "
         "abCACbaBcAcB abCbaBcACAcB abCbAbaBBcAB abCBacABCbAc abCBacACAbcB "
         "abCBcAbbcBCB abCBcAbCbcBB abCBcABBCbcb abCBcABcBCbb abCBcAcbcBCC "
         "abCBcAccBCbC abCBcACBCbcc abCBcACCbcBc abCBccABaCAb abCCacAcBCAc "
         "abCCAbaBccAB abCCAcacBcAC aBaBcbACCbAc aBaBCbAccbAC aBacAbCBCbAc "
         "aBacAbCCAbcB aBacACCbABcb aBacbABCCAcb aBacbACBCAbc aBacbCAcBCAb "
         "aBaCAbcBcbAC aBaCAbccAbCB aBaCAccbABCb aBaCbABccACb aBaCbAcBcAbC "
         "aBaCbcACBcAb aBBacAbCCbAc aBBacACbbCAc aBBacbACCAbc aBBaCAbccbAC "
         "aBBaCAcbbcAC aBBaCbAccAbC aBBcaCAbbcAC aBBcaCbAcACb aBBcaCbcACAb "
         "aBBcbABaCbAb aBBcbACaCbAc aBBcbCbAbcBC aBBcbCbABCbc aBBcbCbAcBCb "
         "aBBcbCbACbcB aBBCacAbbCAc aBBCacbACAcb aBBCacbCAcAb aBBCbABacbAb "
         "aBBCbAcacbAC aBBCbcbAbCBc aBBCbcbABcbC aBBCbcbAcbCB aBBCbcbACBcb "
         "aBcaBCbAcbAC aBcacACCbCAc aBcaCAcbABCb aBcaCbABcACb aBcAbaCbAcBC "
         "aBcAbaCCbcAB aBcAbcBaCbAC aBcAbCaCbAcB aBcAbCAcBaCb aBcAbCbAcBaC "
         "aBcABcaCbACb aBcAcaCbABCb aBcAcaCCbcAC aBcACABcaCbb aBcACbcaCbAB "
         "aBcbaBCbAcAC aBcbaCAcABCb aBcbAbcBaCAC aBcbABcaCACb aBcbABCaCAcb "
         "aBcbABCAcaCb aBcbABCbaCAc aBcbAcaBCbAC aBcbAcaCABCb aBcbAcBaCAbC "
         "aBcbACaCAbcB aBcbACAbcBaC aBcbACAcaBCb aBcbACBaCAbc aBcbCAbbcBCB "
         "aBcbCAbCbcBB aBcbCABBCbcb aBcbCABcBCbb aBcbCAcbcBCC aBcbCAccBCbC "
         "aBcbCACBCbcc aBcbCACCbcBc aBcbCCAbacAB aBcBaCAbcbAC aBccaCACbcAC "
         "aBccACaCbCAc aBccbABaCCAb aBCacbABCAcb aBCaCAccbcAC aBCAbacbACBc "
         "aBCAbaccbCAB aBCAbcacbACB aBCAbcACBacb aBCAbcbACBac aBCAbcBacbAC "
         "aBCABCacbAcb aBCAcacbABCb aBCAcABCacbb aBCAcbCacbAB aBCACaccbCAc "
         "aBCbacACABcb aBCbcAbbCBcB aBCbcAbcbCBB aBCbcABBcbCb aBCbcABCBcbb "
         "aBCbcAcBcbCC aBCbcAccbCBC aBCbcACbCBcc aBCbcACCBcbc aBCbccAbaCAB "
         "aBCCacAcbCAc aBCCAcacbcAC acacbCABBCAb acacBCAbbCAB acaCCAcccACC "
         "acAbacBCbCAB acAbaCAbcBCB acAbaCABBCbc acAbaCABcBCb acAbaCABCbcB "
         "acAbaCACbcBB acAbaCbcBCAB acAbaCBCbcAB acAbbaCAcBBC acAbbcaCABBC "
         "acAbbcBaCACB acAbbcBCaCAB acAbcAcaCCBC acAbcBaCAbCB acAbcBCbaCAB "
         "acAbccaCACBC acAbCaCAbcBB acAbCaCAccBC acAbCAbcBaCB acAbCbcBaCAB "
         "acAbCCAcacBC acABacbCBCAb acABaCbCBcAb acABaCBcbCAb acABBcaCAbbC "
         "acABBcbaCACb acABBcbCaCAb acABcAcaCCbC acABcbaCABCb acABccaCACbC "
         "acABCaCABcbb acABCaCAccbC acABCABcbaCb acABCbcbaCAB acABCCAcacbC "
         "acAcbcaCABCC acAcBcaCAbCC acAccAcaCCCC acAcccaCACCC acACbbcaCABB "
         "acACbcAcaCCB acACbccaCACB acACbCCAcacB acACBcAcaCCb acACBccaCACb "
         "acACBCCAcacb acACCCCAcacc acbacBCAbCAB acbcBCCAbCBc acbcBCCABcbC "
         "acbcBCCAcbCB acbcBCCACBcb acbCAbacBCAB acBcbCCAbcBC acBcbCCABCbc "
         "acBcbCCAcBCb acBcbCCACbcB accaCCAccACC accAccaCCACC accACCCAccaC "
         "acccAcaCCCAC aCaCbcABBcAb aCaCBcAbbcAB aCbaCBcAbcAB aCbcAbaCBcAB "
         "aCbCBccAbcBC aCbCBccABCbc aCbCBccAcBCb aCbCBccACbcB aCBCbccAbCBc "
         "aCBCbccABcbC aCBCbccAcbCB aCBCbccACBcb bbbbcBBCCBBc bbbbcBCBBCBc "
         "bbbbCBBccBBC bbbbCBcBBcBC bbbcbCBBBcBC bbbcBBCbCBBc bbbcBBCCCBcc "
         "bbbccBCCCBBc bbbCbcBBBCBc bbbCBBcbcBBC bbbCBBcccBCC bbbCCBcccBBC "
         "bbcbbCBBcBBC bbcbcBCCBCBc bbcbCCBccBBC bbcBBcbbCBBC bbcBBccbCCBC "
         "bbcBBCbCCBcc bbcBBCBccbCC bbcBBCCBccbC bbcBcbCCBcBC bbcBccbCCBBC "
         "bbcBCBcBcbCC bbcBCBccbCBC bbcBCBCbCBcc bbcBCBCCBcbc bbccbCBCBcBC "
         "bbccbCCBcBBC bbccBCbCBCBc bbccBCCCCBcc bbCbCBccBcBC bbCBcBcbcBCC "
         "bbCBcBccBCbC bbCBcBCBCbcc bbCBcBCCbcBc bbCBCbccBCBc bbCBCCbccBBc "
         "bbCCbcBcBCBc bbCCBcbcBcBC bbCCBccccBCC bcbCCBcccBCC bcBccBcbCCCC "
         "bcBcccbCBCCC bcBCCCCBcbcc bccbCCBccBCC bccBccbCCBCC bccBCCCBccbC "
         "bcccBcbCCCBC"),
}
_LETTER_ORDS = bytes.maketrans(b"aAbBcC", bytes(range(6)))  # for translate

# The class-three image X_w of each word w of GAMMA3_NECKLACES, in the same
# order.  w lies in gamma_3, and its image in the free abelian quotient
# gamma_3/gamma_4 is the degree-3 part of its Magnus expansion (a -> 1 +
# X_a), sent to a traceless integer 3x3 matrix by e_x e_y e_z ->
# e_x (e_y x e_z)^T.  X is a class function, X(w^-1) = -X(w), and phi moves
# it by Phi(X) = M X adj(M) for the abelianized 3x3 matrix M, singular or
# not, since My x Mz = adj(M)^T (y x z).  A word with no c has X_02 and
# X_12 alone nonzero, and there Phi is x -> det(M) M x.  Each entry v of X,
# row by row, is the character chr(ord("M") + v), 9 per word; no entry of
# a word up to GAMMA3_MAX_LEN letters leaves [-12, 12], and no X is 0.
# tests/test_words.py regenerates the table from the Magnus expansion.
GAMMA3_IMAGES = {
    8: ("MMPMMPMMMMMJMMPMMMMJMMMMMJMMPMMMMMJMMMJMMMMMMMMMMMJMMMMPMMMMMMMMMMMMMMPM"
        "MMMPMMPMMMMMJMMPMMMMMJMMMMMMMMMMMJMM"),
    10: ("MMSMMPMMMMMGMMPMMMMGMMMMMJMMSMMMMMJMMMGMMMMMMMMSMMMMMMMSMMMMMMMMGMMMMMMM"
         "MMPMMSMMMNJMMKMMJNLPMMOMMJLMMPMMGMMMMMMMMGMMMNMMMNPMMKNMPMNMMMKNMMMNMMMK"
         "NMPMNPMMKLMMMLPMMOLMPMLMMMOLMPMLPMMONMMMNMMMKLMMMOMMMLNMPMNJMMKNMPMNMMMK"
         "NMMMKMMMNLMPMLJMMOLMPMLMMMOMMMMMGMMMLPMMOMMMLNMMMNJMMKNMMMKMMJNNMMMNMMMK"
         "OMMMLMPMLOMMPLMMMLOMMMLMMMLOMMPLMPMLNJMMKMMMNLMMMLJMMOLMMMOMMJLKMMMNMPMN"
         "KMMJNMMMNKMMJNMPMNKMMMNMMMNLJMMOMMJLNPMMKMMJNNPMMKMMMNLMMMLMMMOKMMPNMMMN"
         "KMMMNMJMNKMMMNMMMNKMMPNMJMNLJMMOMMMLOMMJLMMMLOMMMLMJMLOMMJLMJMLOMMMLMMML"
         "MJMMMMMGMLMMMOMMMLLMMMOMMPLNMMMKMMPNMJMMMMMSMMMMMMMMSMLMMMOMMMLMMMMMMMSM"
         "MMMSMMPMMMMMGMMPMMMMMGMMMMMMMMSMMMMMMMMPMMSMMMMMPMMGMMMMMMMMGMMMMMMMMGMM"),
    12: ("MMYMMSMMMMMVMMPMMMMMAMMSMMMMMDMMPMMMMAMMMMMGMMDMMMMMJMMYMMMMMGMMVMMMMMJM"
         "MMDMMMMMMMMSMMSMMMMMVMMVMMMMMVMMVMMMMMVMMMMMMMMGMMSMMMMMDMMVMMMMMDMMVMMM"
         "MVMMMMMMMMGMMMMMGMMDMMMMMDMMDMMMMMDMMDMMMMMMMMSMMMMMGMMVMMMMMDMMVMMMMMDM"
         "MMAMMMMMMMMSMMSMMMMMDMMPMMMNGMMKMMJNLSMMOMMJLMMMMMGMMMMMPMMDMMMMMPMMVMMM"
         "MMVMMJMMMMMVMMPMMMMMJMMJMMMMMJMMDMMMMMSMMJMMMMMPMMJMMMMMPMMSMMMMMSMMSMMM"
         "NMPMNPMMKNMSMNMMMKNMPMNMMMKNMSMNPMMKLMPMLPMMOLMSMLMMMOLMPMLMMMOLMSMLPMMO"
         "OMPMLPMMLKMPMNPMMNLPMMOMMMLOMPPLPMMLMMPPMPPMMNJMMKMMMNKMPJNPMMNMMPJMPPMM"
         "MMGMMJMMMMMDMMJMMMMMPMMSMMMMMSMMYMMMLSMMOMMMLOJPPIPPJONJMMKMMJNOJPMIPMJO"
         "MJPMJPMJPOJMMLMMJLOJMMLMPJLQJMPKMPJKQMMMKMPMKQMMPKMMMKQMMMKMMMKQMMPKMPMK"
         "NGMMKMMMNKPPJQPPJKLPMMOMMJLKPPMQPMJKMPPMPPMJJKPMMNMMJNKPMMNMPJNIPMJOMPJO"
         "IMMMOMPMOIMMJOMMMOIMMJOMPMOIMMMOMMMOMMGMMSMMMLGMMOMMJLNSMMKMMJNMMJMMSMMM"
         "MMGMMSMMMMMGMMJMMMMMJMMJMMMLMJMLPMMOLMGMLMMMOLMGMLPMMOLMJMLMMMONMJMNPMMK"
         "NMGMNMMMKNMGMNPMMKNMJMNMMMKKMJMNPMMNOMJMLPMMLMMPMMJMMMMMPMMDMMMNPMMKMMMN"
         "KMJPNPMMNMMJPMPJMMLJMMOMMMLOMJJLPMMLMMJJMPJMMMMSMMJMMMMMJMMSMMMMMGMMYMMM"
         "NSMMKMMMNKJJPQPJJKLJMMOMMJLKJJMQPMJKMJJMPPMJJKJMMNMMJNKJMMNMJJNIJMPOMJJO"
         "IMMPOMMMOIMMMOMJMOIMMMOMMMOIMMPOMJMOLGMMOMMMLOPJJIPJJONPMMKMMJNOPJMIPMJO"
         "MPJMJPMJPOPMMLMMJLOPMMLMJJLQPMJKMJJKQMMJKMMMKQMMMKMJMKQMMJKMJMKQMMMKMMMK"
         "MYMMMMMMMLMSMLPMMONMGMNPMMKMGMMMMMGMMVMMMMMJMMMMMMMMSMMJMMMMMVMMJMMMMMDM"
         "MDMMMMMPMMDMMMMMJMNMJMNMMMKMJMJMMJJMKJMMNMJJNLMPMLMMMOMJMJMMPJMOJMMLMPJL"
         "MPMMMMMPMMPMMMMMVMLJMMOMMJLLGMMOMMMLLJMMOMMMLLGMMOMMJLNJMMKMMJNNGMMKMMMN"
         "NJMMKMMMNNGMMKMMJNMGMMMMMPMMJMMMMMPMMJMMMMMGMMGMMMMMGMKJMMNMMJNOJMMLMMJL"
         "NMGMNMMMKLMPMLPMMOMJPMJPMJPKJPMKPMJQKJPJKPJJQIMPJOPJMOKMPJNPMMNKMPMNPMMN"
         "LMSMLMMMONMJMNPMMKMJJMPPMJJOJJMOPMJIOJJJOPPJIQMJJKPPMKOMJJLPMMLOMJMLPMML"
         "MSMMMMMPMMVMMMMMPMMJMMMMMGMMGMMMMMAMNMSMNPMMKLMGMLPMMOMSMMMMMGMLMJMLMMMO"
         "MPMPMMJJMOPMMLMJJLNMPMNMMMKMPMPMMPJMKPMMNMPJNNPMMKMMJNNSMMKMMMNNSMMKMMJN"
         "NPMMKMMMNLPMMOMMJLLSMMOMMMLLSMMOMMJLLPMMOMMMLMPMMMMMGMMSMMMMMGMMSMMMMMPM"
         "MPMMMMMPMOPMMLMMJLKPMMNMMJNMJMMMMMPMMJMMMMMVMLMGMLMMMONMPMNPMMKMPPMPPMJJ"
         "OPPMOPMJIOPPPOPJJIQMPPKPJMKOMPPLPMMLOMPMLPMMLNMSMNMMMKLMJMLPMMOMPJMJPMJP"
         "KPJMKPMJQKPJPKPPJQIMJPOPPMOKMJPNPMMNKMJMNPMMNMGMMMMMPMMPMMMMMGMMSMMMMMAM"
         "PJMPJMPJMJPMJPMPJMKMJMNMMMNOMJMLMMMLMMGMMSMMMLJJMOMMJLNJJMNMMJKLJMMLMMJO"
         "NPJMKMMJNLPJMLMMJONPMMNMMJKNJMMKMPJNPJMPJMPJMLJMMLMMJONJJMNMMJKPJJMMMPJJ"
         "QMJMKMPMKOMJMLMMMLLPMMOMPJLJPMJPMPJMNPMMNMMJKLPJMLMMJOJPJMMMPJPIMJMOMPMO"
         "KMJMNMMMNOMMPLJPMLKMMJNJPMNMMPMMDMMMMMMMMDMMMNMMMNJMMKNMMPNJPMKLMMMOJMML"
         "NMPMNGMMKNMMMNGMMKNMPMNJMMKLMMPLMPMOLMMMLJMMOLMMJLJPMONMMMKJMMNLMPMLGMMO"
         "LMMMLGMMOLMPMLJMMONMMJNMPMKOMMMLPMMLKMMMNPMMNMMPMMVMMMNMMMNSMMKNMPMNPMMK"
         "LMPMOPMMLNMMMNPMMKNMPMNSMMKLMMMLSMMOLMPMLPMMONMPMKPMMNLMMMLPMMOLMPMLSMMO"
         "LMMMOPMMLLMPMOMMMLNMPMNJMMKNMPMNSMMKOMMMOPMMIOMPMOMMMIOMMMOMMMIOMPMOPMMI"
         "NMMMKPMMNNMPMKMMMNLMPMLJMMOLMPMLSMMOKMMMKPMMQKMPMKMMMQKMPMKPMMQLMMJOMMML"
         "NMMPNMJMKNMMMNMJMKNMMMNMPMKNMMPNMMMKNMMPNMPMKLMMPOMJMLLMMMOMJMLLMMPOMMML"
         "LMMJOMJMLNMPJNJMMKPMPJMJJMJLMPMOJMMLLMMJOJMMLNMPMNGMMKMMMJMJMMMOMMMLJMML"
         "NMMJNMMMKLMMPOPMMLPMPMMMJMJNMPMNPMMKPMPPMPJMJOMPPOPJMIOMPMOMJMINMMMNMJMK"
         "KMMPNPPMNMMPMMMPMMOMPMLMMMLNMPPNPMMKLMMPLPPMOOMMMOMMMIOMPMOJMMIOMPJOJJMI"
         "OMPMOMMMINMMPKMMMNNMMJKMJMNNMMJKMMMNNMMMKMJMNNMMPKMJMNLMPPLJMMONMPMKJMMN"
         "JMPPMJJMPNMMPKJMMNLMPMLGMMOMMMPMJMMMKMMMNJMMNNMMJKPMMNJMPMMMJMPLMPMLPMMO"
         "JMPJMPJMPKMPJKPJMQOMMJLPPMLMMPMMMPMMKMPMNMMMNNMMMNMPMKLMPJLPMMONMMJNPPMK"
         "KMPMKMJMQKMPMKJMMQKMPPKJJMQKMPMKMMMQMMGMMMMMMMJJMMJMJMMPJMMJMJMOJMPIMPJO"
         "OJMMIMMJOQJJPKJPJKKPMJQMPJKKPMMQMMJKIPJJOJPJOMMMMMAMMMMMSMMSMMMKMMMQMMMK"
         "OMMMIMMMOMMMMMDMMMKPMMQMMMKLPJMOJMMLLMJMOJMMLNMMMNGMMKOMMMIMMJONMMMNJMMK"
         "NMMPKMPJNOMMPLMPMLOMMSLMMMLOMMPLMMMLOMMSLMPMLOJMMIMMMONJJMKJMMNNMJMKJMMN"
         "LMMMLGMMOKMMMQMMJKLMMMLJMMOLMMJOMPJLKMMJNMPMNKMMGNMMMNKMMGNMPMNKMMJNMMMN"
         "JPMJPMMMMOPJMLMMMLNJMMKMMGNNPMMNMMMKMPJMMMMMMKPJMNMMMNLMJMOMMMLLMMJOJMML"
         "MMMMPJMPJLMMPLPPMONMMMNMJPKMMMPJPPJPOJPMLMMMLPJPPJPMMMNMMMNMMPKLMMMOMMPL"
         "OMMMOJMPILJPMOJMMLNJPMNJMMKMMMMMJMJMLMMMOJMMLOMMMIPMJONJPMKMMJNMJPMMJMJM"
         "LJPMLMMJONPJMNJMMKKPMJQMMMKNMMMNGMMKKPMMNMMMNMPMPMMMMMOPMMLMMMLNJMMNMMPK"
         "NMMMNMMPKNMMMNMMJKNJMMNMMMKOMMMLMMJLNJMMNMMJKOMMPLMJPLMMMMMMJPMOMMMLMMPL"
         "NMMMNMJPKOMMPLMPJLQJMPKMMMKOJMMLMMMLNMMMNMPJKOMMJLMPMLOMMJLMMMLOMMSLMMML"
         "OMMSLMPMLOMMPLMJMLOMMMLMJMLOMMMLMSMLOMMPLMSMLNMMPNMPMKLPMMOMMPLOMMMOJMMI"
         "NMMMKMMGNOMMMOMMMIKJJMNMMMNMJJMMMMMMOJJMLMMMLNMJMKMMMNLPMMOMMGLNMMPKJMMN"
         "MMMMJJMPPNMMJNPPMKMMMJPPPJJKPPMNMMMNNMMMNMPJKJPPJPPMMMNMMMNMMJKNPPMKJMMN"
         "LPPMLJMMOMMMMMJMJMNMMMKJMMNKMMMQPMJKLPPMOMMJLMPPMMJMJMNPPMNMMJKNMMMKMMPN"
         "KMMMKJMPQLJJMLJMMOLMMMLGMMOMJMJMMMMMKJMMNMMMNKMMPNMPMNKMMPNMMMNKMMGNMMMN"
         "KMMGNMPMNKMMMNMSMNKMMJNMSMNKMMJNMJMNKMMMNMJMNLMMJLMPMONJMMKMMPNKMMMKJMMQ"
         "LMMMOMMGLJJMPPMJJMPPMJJMJJMLJMMOMJJLJJMPPMJJMNJMMNMMJKLJPMLMMJOJJPMMMJJP"
         "KMPMNMMMNNPMMKMJJNPPMJJMJJMLPMMLMMJONPPMNMMJKPPPMMMJJJOMPMLMMMLKJMPQMJJK"
         "KJMMQMMJKIJPPOJJJOOPMJIMJJOOPMMIMMJOQPPJKJJJKOPMMIMMMONPPMKJMMNNMPMKJMMN"
         "LMMMLJMMOLMMPOMJJLKMMSNMMMNKMMPNMJMNKMMPNMMMNKMMSNMJMNKJMMQMMMKLJPMOJMML"
         "LMPMOJMMLNMMMNJMMKNMMJKMJJNOMMGLMMMLOMMJLMJMLOMMGLMJMLOMMJLMMMLPPMJJMMMM"
         "LJMMOMMGLLPMMLMMMOMPPMMMMMMLMMPOPMMLNMMPNPJMKLMMMLMPPOMMMPPPJJJKJJMNMMMN"
         "JJJPPPMMMMMMMJJMPPLMMMLMMPONMMMKMMPNNJJMKJMMNLMMMOPMMLOPMMLMMMLKPMMNMMMN"
         "KMMPNMPPNLMMMLMMPOLMMMLMMJOLJMMLMMMOKMMMNMMJNMMMMMMPPMKMMMNMMPNLMMMLMPPO"
         "KMMPNMJJNIJMPOMMMOKJMMNMMMNLMMMLMJJOKMMSNMMMNKMMSNMJMNKMMJNMJMNKMMJNMMMN"
         "KMMPNMPMNKMMMNMPMNKMMMNMGMNKMMPNMGMNLMMPLMJMOOPMJIMMMONPMMKMMPNLMMMOMMGL"
         "KMMMKMMMQMJPMMMMMMNPMMKMMGNNMMJKPMMNLMMJLPJMOMMMJJPJJPOPJMLMMMLPPJJJPMMM"
         "LMMMLMJJOMMMMPJMPJLMMMLMMJOLPJMOJMMLNMMMKPMMNLMMMOMMPLOJMMLMMMLOMMGLMMML"
         "OMMGLMJMLOMMPLMJMLOMMPLMMMLOMMMLMGMLOMMJLMGMLOMMJLMPMLOMMMLMPMLNMMJNMJMK"
         "LJMMOMMPLNMMMKMMGNJMPJMPJMPPMJJMPPMJMSMMMMMGMNMMMNMPMKLMMPOMMMLLMMJOMJML"
         "LMMJOMMMLLMMMOMJMLLMMPOMJMLNMMPNMMMKNMMMNMJMKKMMMQMMMKKMMMQMMPKLMMPOMPPL"
         "LMMPOMPMLLJMMOMMSLMMMMMMPPMLMMMOMPMLLMMMOMMSLLMMPOMJJLLMMMOMMJLJJMPPMMMM"
         "LMMPOMMMLLJMMOMMJLLMMMLMJMOLMMMLMPMOLMMPLMMMOOMMMIMMPONMMPKMJPNNMMPKMJMN"
         "NJMMKMMSNMMMMMMJPMNMMMKMMSNNMMPKMPJNNMMMKMMJNPJMPJMMMMLMMJOMMMLNJMMKMMJN"
         "LMMMOMMSLNMMMKMMSNMJMMMMMVMMMMMMMMVMKMMMQMMMKLJMMOMMPLLMMMOMMPLLJMMOMMGL"
         "NJMMKMMPNNMMMKMMPNNJMMKMMGNMJMMMMMDMPMJMMMPMJOMMMLMSMLOMMPLMPMLOMMMLMPML"
         "OMMPLMSMLMMMPMJMMMKMMPNMJMNKMMMNMGMNKMMMNMJMNKMMPNMGMNMSMMMMMMMMMMMMMMYM"
         "MGMMMMMGMMMMMMMMVMPMPPMPJMJJMJPMPPMPJMJMMMPMPMMMJMJMMMKMMMNMSMNKMMJNMPMN"
         "KMMJNMSMNKMMMNMPMNOMMJLMJMLOMMMLMGMLOMMJLMGMLOMMMLMJMLMMMYMMSMMMMMVMMPMM"
         "MMMAMMSMMMMMDMMPMMMMMDMMMMMMMMSMMSMMMMMVMMVMMMMMVMMVMMMMMVMMMMMMMMGMMSMM"
         "MMMDMMVMMMMMDMMVMMMMMAMMMMMMMMSMMSMMMMMDMMPMMMMMMMMGMMMMMPMMDMMMMMPMMVMM"
         "MMMVMMJMMMMMVMMPMMMMMJMMJMMMMMJMMDMMMMMSMMJMMMMMPMMJMMMMMPMMSMMMMMSMMSMM"
         "MMMGMMJMMMMMDMMJMMMMMPMMSMMMMMSMMYMMMMMGMMSMMMMMJMMSMMMMMGMMSMMMMMGMMJMM"
         "MMMJMMJMMMMMPMMJMMMMMPMMDMMMMMSMMJMMMMMJMMSMMMMMGMMYMMMMMGMMSMMMMMPMMDMM"
         "MMMMMMDMMMMMPMMVMMMMMGMMMMMMMMMMMAMMMMMSMMSMMMMMMMMDMM"),
}
_IMAGE_ZERO = ord("M")
# the entries of X that fix it: at rank 2, X_02 and X_12, the only ones a
# word with no c makes nonzero; at rank 3 all but X_22 = -X_00 - X_11
_CLASS_THREE_COORDS = {2: (2, 5), 3: tuple(range(8))}


def _class_three_words(rank: int, length: int, kernels) -> list:
    """The words of GAMMA3_NECKLACES of one length, at rank 2 those with no
    c, whose image X (GAMMA3_IMAGES) every row of some kernel in `kernels`
    annihilates, as ords in the table's order.  A kernel is a tuple of
    independent 9-entry rows, zero off _CLASS_THREE_COORDS[rank], as
    `_PeriodFilter.class_three` gives them; one with no rows keeps every
    word.  Equal kernels, and kernels that only X = 0 meets (a row per
    entry of _CLASS_THREE_COORDS[rank]), are dropped first.  Only the words
    kept are decoded, by index: the words of one length sit length + 1
    characters apart."""
    coords = _CLASS_THREE_COORDS[rank]
    kernels = [rows for rows in dict.fromkeys(kernels) if len(rows) < len(coords)]
    text = GAMMA3_NECKLACES.get(length)
    if not kernels or text is None:
        return []
    images = list(zip(*[iter(GAMMA3_IMAGES[length].encode())] * 9))
    kept: set = set()
    for rows in kernels:
        survivors = range(len(images))
        for row in rows:
            # row . X = 0 where row . c = row . (_IMAGE_ZERO, ...) for the
            # stored characters c
            zero = _IMAGE_ZERO * sum(row)
            survivors = [k for k in survivors
                         if sum(map(operator.mul, row, images[k])) == zero]
        kept.update(survivors)
    out = []
    for k in sorted(kept):
        word = text[k * (length + 1):k * (length + 1) + length]
        if rank == 3 or "c" not in word.lower():
            out.append(tuple(word.encode().translate(_LETTER_ORDS)))
    return out


def _candidates(rank: int, length: int, filt: _PeriodFilter) -> list:
    """The candidates of one length that `periodic_conjugacy_search` tries:
    (word, (ok_plus, ok_minus)) in lexicographic order.

    When `filt` admits only balanced words and only H = 0, at rank 2 or 3
    and at most GAMMA3_MAX_LEN letters, the words that the walk would list
    are those of GAMMA3_NECKLACES, and of those only the ones whose
    class-three image lies in the kernel of some Phi^m - I of
    `filt.class_three` can be periodic (`_class_three_words`).  Each comes
    with the flags `by_area[0]`: H = 0 comes back to itself under every
    power, so every period admits it, oriented, and reversing when `filt`
    asks for that.  Every other filter, rank and length walks
    (`_canonical_cyclic_words`), and the class-three rule does not cut
    those candidates."""
    if (2 <= rank <= 3 and length <= GAMMA3_MAX_LEN and filt.balanced_only
            and filt._zero_area_only):
        flags = filt.by_area[0]
        return [(w, flags) for w in
                _class_three_words(rank, length, filt.class_three.values())]
    return _canonical_cyclic_words(rank, length, filt.balanced_only, filt)


def _on_eventual_alphabet(endo: Endomorphism) -> Optional[tuple]:
    """(phi restricted to <S>, S) for the eventual alphabet S of phi, or
    None when S is empty.

    S_0 is every generator and S_(k+1) the generators whose letters occur
    in phi(x) for x in S_k.  The sets only shrink, so they settle within
    `rank` steps at an S with phi(<S>) in <S>, and phi^k(F) lies in <S_k>.
    The generators of S, in increasing order, become 1..|S| of the
    restricted map, so its letter order is the order of the letters it
    keeps."""
    alphabet = set(range(1, endo.rank + 1))
    while True:
        found = {abs(x) for g in alphabet for x in endo.images[g - 1]}
        if found == alphabet:
            break
        alphabet = found
    if not alphabet:
        return None
    kept = tuple(sorted(alphabet))
    if len(kept) == endo.rank:
        return (endo, kept)
    index = {g: i for (i, g) in enumerate(kept, 1)}
    images = tuple(tuple(index[x] if x > 0 else -index[-x]
                         for x in endo.images[g - 1]) for g in kept)
    return (Endomorphism(len(kept), images), kept)


def periodic_conjugacy_search(endo: Endomorphism, max_period: int = 6,
                              max_len: int = 12):
    """Bounded search for a nontrivial class [a] with phi^n(a) ~ a (or ~ a^-1,
    reported through the orientation flag).

    Returns (witness: Word, n, orientation) or None.  Oriented matches win:
    the least oriented period is reported, and a reversing witness only when
    no oriented one exists within the bounds.  Candidates are one word per
    class and inverse class (`_candidates`), run in (length, FKM) order,
    and ties go to the first.  A class and its inverse have the
    same periods, so one candidate covers both; the inverse class's
    canonical form is computed only when a reversing test is reached.

    The generator drops every class that fails the class-two filter
    (`_PeriodFilter`: the exponent vector, or the half-area of a balanced
    word, must come back to itself or to its negative under phi^n for some
    n), and hands on the periods and orientations that the filter admits;
    an iterate is compared only at those.  After an oriented match at
    period n, longer words go through the filter of the periods below n,
    without reversing matches, since nothing else can still win.  The
    conditions are necessary, so the witness is the one an unfiltered
    search finds.  When no nonzero exponent vector is admitted, only
    balanced words are generated; without reversing matches that needs
    only the kernels of the M^n - I to be trivial, so after an oriented
    match a map with eigenvalue -1 (M + I singular) generates balanced
    words only.  When no nonzero half-area is admitted either, one set
    lookup checks that a balanced prefix with TAIL_LETTERS + 1 letters to
    come can still be completed, and one dict lookup finds the tails that
    end it.
    Both rules drop only what the filter rejects anyway, so the candidates
    and the witness are unchanged.  Those candidates, the words of
    [F,[F,F]], depend on the rank and the length alone, and at ranks 2
    and 3 up to GAMMA3_MAX_LEN letters they are read from the committed
    table GAMMA3_NECKLACES instead of walked.  Of those, only the words
    whose class-three image X in gamma_3/gamma_4 (GAMMA3_IMAGES) some
    admitted power of phi's action Phi fixes are tried
    (`_PeriodFilter.class_three`, `_class_three_words`), a necessary
    condition again; the walked candidates of ranks 4 and up and of
    lengths above GAMMA3_MAX_LEN are not cut by it.  None is a bounded
    negative, never a proof of atoroidality.

    The search runs on phi restricted to its eventual alphabet S
    (`_on_eventual_alphabet`), the generators whose letters occur in every
    phi^k(F).  A periodic class lies in phi^k(F) for every k, so its
    cyclically reduced form uses only letters of S, and every candidate
    that the restriction drops could never match.  The renumbering keeps
    the order of the letters of S, so canonical forms and the candidate
    order are those of the full search; the restricted map's class-two
    filter is a necessary condition too.  So the witness, period and
    orientation are exactly the full search's.  An empty S means that
    some phi^k is trivial, and no candidate is generated.
    """
    if max_period < 1 or max_len < 1:
        raise ValueError("bounds must be at least 1")
    restricted = _on_eventual_alphabet(endo)
    if restricted is None:
        return None
    (endo, alphabet) = restricted

    rank = endo.rank
    filt = _PeriodFilter(endo, max_period, max_len)
    # the search runs on ords: images[o] is phi of the letter with ord o
    images = [word_key(endo.image_of_letter(_letter(o))) for o in range(2 * rank)]
    heads = [im[0] ^ 1 if im else -1 for im in images]  # what cancels im
    never = (False,) * max_period

    best_plus = None   # (n, ords)
    best_minus = None
    for length in range(1, max_len + 1):
        for cand, (ok_plus, ok_minus) in _candidates(rank, length, filt):
            cand_inv = None  # the inverse class's form, when first needed
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
                if ok_minus[n - 1]:
                    if cand_inv is None:
                        cand_inv = _least_rotation(_invert_ords(cand))
                    if canon_u == cand_inv and (best_minus is None
                                                or n < best_minus[0]):
                        best_minus = (n, cand)
        if best_plus is not None:
            if best_plus[0] == 1:
                break
            if filt.max_period >= best_plus[0]:
                # later lengths need an oriented period below the best
                filt = _PeriodFilter(endo, best_plus[0] - 1, max_len,
                                     reversing=False)
    # the witness in the generators of phi: ord o stands for alphabet[o >> 1]
    for (best, orientation) in ((best_plus, +1), (best_minus, -1)):
        if best is not None:
            witness = tuple(-alphabet[o >> 1] if o & 1 else alphabet[o >> 1]
                            for o in best[1])
            return (witness, best[0], orientation)
    return None
