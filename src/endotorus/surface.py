"""Surface realization of geometric monodromies, and the per-input analysis
behind every verdict and report.

When a stable representative's Nielsen loops cover every edge exactly twice,
thickening the graph and attaching an annulus along each loop produces a
compact surface provided the link of every vertex is a single circle (the
loops count each link when they close; this module reads the counts); the
loop system supplies the boundary, and the induced homeomorphism is the
monodromy.  Euler characteristic bookkeeping turns the combinatorics into
(genus, boundary count).

`Analysis(endo, bounds)` runs each pipeline stage at most once per input, on
first use.  `classify`, `reduction_search`, the mapping-torus report and
every CLI command are views of one analysis.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

from endotorus import subgroups as sg
from endotorus.nielsen import (
    Atoroidal,
    NielsenLoops,
    StableRepresentative,
    Toroidal,
    nielsen_loops,
    stabilize,
)
from endotorus.traintrack import (
    FiniteOrderCertificate,
    InvariantFactor,
    ReductionWitness,
    TrainTrack,
    Unknown,
    find_train_track,
    is_finite_order,
    verify_reduction_witness,
)
from endotorus.words import (
    CyclicWord,
    Endomorphism,
    InternalInconsistency,
    conjugacy_period,
    cyclic_canonical,
    cyclic_reduce,
    find_conjugator,
    invert,
    periodic_conjugacy_search,
)


class SurfaceRealization(NamedTuple):
    genus: int
    boundary_count: int
    transitive_boundary: bool
    euler_char: int
    stretch: float
    orientable: bool
    fully_irreducible: bool     # single boundary component criterion

    def as_dict(self):
        return {
            "g": self.genus,
            "b": self.boundary_count,
            "transitive": self.transitive_boundary,
            "euler_char": self.euler_char,
            "lambda": self.stretch,
            "orientable": self.orientable,
            "fully_irreducible": self.fully_irreducible,
        }


class NotSurface(NamedTuple):
    reason: str
    vertex: Optional[int] = None


def _orientable(loops) -> bool:
    """The thickened graph is orientable iff the loops can be oriented so
    that every edge is crossed once in each direction (bipartiteness of the
    conflict graph on loops)."""
    crossings: dict = {}
    for li, loop in enumerate(loops):
        for e in loop:
            crossings.setdefault(abs(e), []).append((li, 1 if e > 0 else -1))
    color = {}
    adj: dict = {i: [] for i in range(len(loops))}
    for e, cr in crossings.items():
        if len(cr) != 2:
            return False
        (l1, s1), (l2, s2) = cr
        # same direction twice forces the loops into opposite orientations
        parity = 0 if s1 != s2 else 1
        adj[l1].append((l2, parity))
        adj[l2].append((l1, parity))
    for start in range(len(loops)):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            for (j, parity) in adj[i]:
                want = color[i] ^ parity
                if j not in color:
                    color[j] = want
                    stack.append(j)
                elif color[j] != want:
                    return False
    return True


def realize_surface(stable: StableRepresentative, loops: NielsenLoops):
    """SurfaceRealization, or NotSurface with the least vertex whose link,
    as `nielsen_loops` counted it, is not one circle.

    The blow-up of a disconnected link splits the vertex and joins the parts
    by an arc; the arc is not covered by the loop system, so the covering
    condition cannot be repaired: the diagnostic reports it."""
    gm = stable.tt.gm
    if any(c != 2 for c in loops.multiplicities.values()):
        return NotSurface(
            "Nielsen loops do not cover each edge exactly twice "
            f"(multiplicities {sorted(set(loops.multiplicities.values()))}); "
            "with certified irreducibility this would contradict the "
            "stable-representative covering property")
    # every edge is covered, so every vertex has a turn and a count >= 1
    for (v, count) in enumerate(loops.link_components):
        if count != 1:
            return NotSurface(
                "vertex link splits after blow-up: the connecting arc would "
                "be uncovered", v)
    V = gm.graph.nv
    E = len(gm.graph.edges)
    chi = V - E
    b = len(loops.loops)
    orientable = _orientable(loops.loops)
    if orientable:
        if (2 - chi - b) % 2 != 0:
            return NotSurface("Euler characteristic parity mismatch")
        genus = (2 - chi - b) // 2
    else:
        genus = 2 - chi - b   # crosscap count
    if genus < 0:
        return NotSurface("negative genus from the loop count")
    return SurfaceRealization(genus, b, loops.transitive, chi,
                              stable.tt.stretch, orientable, b == 1)


# ---------------------------------------------------------------------------
# bounded reduction search
# ---------------------------------------------------------------------------

def _class_cycle(endo: Endomorphism, w, bound: int) -> Optional[list]:
    """The unoriented canonical words of the orbit of [w] under phi, when it
    returns to [w] within `bound` steps through distinct nontrivial
    classes; else None."""
    reps = [cyclic_canonical(w, unoriented=True)]
    for _ in range(bound):
        nxt = cyclic_canonical(endo.apply(reps[-1]), unoriented=True)
        if nxt == reps[0]:
            return reps
        if nxt in reps or not nxt:
            return None
        reps.append(nxt)
    return None


def _letter_cycle_witness(endo: Endomorphism) -> Optional[ReductionWitness]:
    """Detect generators whose conjugacy classes go, up to powers, around a
    cycle of single-letter classes: a cyclic free factor system of rank-one
    factors.  The orbits run under the map that sends each generator whose
    image is conjugate to a power of one letter to that letter, and every
    other generator to 1, which ends an orbit at its first class that is no
    letter class instead of letting it grow for `rank` steps."""
    roots = []
    for im in endo.images:
        c = cyclic_reduce(im)
        roots.append(c[:1] if c and c.count(c[0]) == len(c) else ())
    onto_letters = Endomorphism(endo.rank, tuple(roots))
    for g in range(1, endo.rank + 1):
        reps = _class_cycle(onto_letters, (g,), endo.rank)
        if reps is None:
            continue
        witness = _factor_cycle(endo, reps, "generator classes permute")
        if witness is not None:
            return witness
    return None


def _periodic_class_witness(endo: Endomorphism,
                            hit: tuple) -> Optional[ReductionWitness]:
    """A periodic conjugacy class (a word search hit) whose unoriented orbit
    generates a system of rank-one free factors yields an invariant one."""
    (w, n, _) = hit
    reps = _class_cycle(endo, w, n)
    if reps is None or not sg.rank_one_system(endo.rank, reps):
        return None
    return _factor_cycle(endo, reps, "periodic primitive classes")


def _factor_cycle(endo: Endomorphism, basis: list,
                  provenance: str) -> Optional[ReductionWitness]:
    """The rank-one factors <basis[i]>, each sent by phi into a conjugate of
    the next, cyclically, as a verified witness; None when some image is
    conjugate to no power target^k or target^-k (k >= 1) of the next word,
    or the witness fails verification."""
    factors = []
    for (i, w) in enumerate(basis):
        target = basis[(i + 1) % len(basis)]
        img = endo.apply(w)
        # target^k has a cyclic reduction k times as long as target's
        power = target * max(1, len(cyclic_reduce(img)) // len(cyclic_reduce(target)))
        x = find_conjugator(power, img)
        if x is None:
            x = find_conjugator(invert(power), img)
        if x is None:
            return None
        factors.append(InvariantFactor([w], x))
    return verify_reduction_witness(endo, ReductionWitness(factors, provenance))


# ---------------------------------------------------------------------------
# the per-input analysis and the verdict lattice
# ---------------------------------------------------------------------------

class Bounds:
    """Every bound of the pipeline, each at least 1.  All of them reach
    every stage that uses them, whichever view of the analysis is asked
    for.  The free-factor and finite-order tests are exact and take none.
    A `Bounds` is never changed after it is made."""

    def __init__(self, max_period: int = 6, max_len: int = 12,
                 period_bound: int = 8, max_iterations: int = 500,
                 kmax: int = 6):
        self.max_period = max_period          # periodic-class word search: period
        self.max_len = max_len                # periodic-class word search: cyclic length
        self.period_bound = period_bound      # Nielsen path scan
        self.max_iterations = max_iterations  # train-track folding budget
        self.kmax = kmax                      # preimage chain depth (the torus report)
        for (name, value) in self.as_dict().items():
            if value < 1:
                raise ValueError(f"{name} must be at least 1, not {value}")

    def as_dict(self) -> dict:
        """Each bound by name, in the order of the signature."""
        return dict(vars(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"Bounds({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class Verdict(NamedTuple):
    kind: str   # reducible | geometric | irreducible_atoroidal | finite_order | unknown
    injective: bool
    notes: list
    bounds: dict
    witness: Optional[ReductionWitness] = None
    surface: Optional[SurfaceRealization] = None
    finite_order: Optional[FiniteOrderCertificate] = None
    toroidal: Optional[Toroidal] = None
    atoroidal: Optional[Atoroidal] = None
    stable: Optional[StableRepresentative] = None
    loops: Optional[NielsenLoops] = None
    irreducibility: str = ""


class Analysis:
    """The pipeline on one input under one set of bounds.  Each stage is a
    lazy property, computed at most once and only when a view asks for it.

    Stage functions are looked up as module globals at call time, so a
    wrapper installed on a module (a tracer, a test spy) sees every call."""

    def __init__(self, endo: Endomorphism, bounds: Bounds = Bounds()):
        self.endo = endo
        self.bounds = bounds

    @cached_property
    def injective(self) -> bool:
        return sg.is_injective(self.endo)

    @cached_property
    def finite_order(self) -> Optional[FiniteOrderCertificate]:
        """Some iterate is inner; tested on injective maps only."""
        return is_finite_order(self.endo) if self.injective else None

    @cached_property
    def image_factor(self) -> sg.FreeFactorResult:
        """Whether the image subgroup lies in a proper free factor."""
        image = sg.stallings(self.endo.rank, list(self.endo.images))
        return sg.free_factor_containment(image)

    @cached_property
    def word_hit(self) -> Optional[tuple]:
        """Bounded search for a periodic conjugacy class:
        (witness, period, orientation) or None."""
        return periodic_conjugacy_search(self.endo, self.bounds.max_period,
                                         self.bounds.max_len)

    @cached_property
    def reduction_witness(self) -> Optional[ReductionWitness]:
        """Bounded search for an invariant proper free factor system: image
        containment, cycles of single-letter classes up to powers, periodic
        primitive classes, and invariant subgraphs (through the folding
        loop, injective maps only).  None is a bounded negative."""
        ffc = self.image_factor
        if ffc.contained:
            witness = verify_reduction_witness(self.endo, ReductionWitness(
                [InvariantFactor(ffc.factor, ())],
                "image lies in a proper free factor"))
            if witness is not None:
                return witness
        witness = _letter_cycle_witness(self.endo)
        if witness is None and self.word_hit is not None:
            witness = _periodic_class_witness(self.endo, self.word_hit)
        if witness is None and self.injective \
                and isinstance(self.train_track, ReductionWitness):
            witness = self.train_track
        return witness

    @cached_property
    def train_track(self):
        """TrainTrack, ReductionWitness, FiniteOrderCertificate or Unknown."""
        return find_train_track(self.endo,
                                max_iterations=self.bounds.max_iterations)

    @cached_property
    def stable(self) -> Optional[StableRepresentative]:
        """None when the map is not injective (legal paths with equal
        images then multiply in the Nielsen path scan, and the verdict reads
        no stabilization), or when the train track stage ended in an
        obstruction."""
        if not self.injective or not isinstance(self.train_track, TrainTrack):
            return None
        return stabilize(self.train_track, period_bound=self.bounds.period_bound)

    @cached_property
    def loops(self):
        """NielsenLoops; None without a periodic Nielsen path orbit, and
        Unknown when the orbit paths do not close into loops."""
        stable = self.stable
        if stable is None or not stable.orbits:
            return None
        try:
            return nielsen_loops(stable.tt, stable.orbits)
        except ValueError as exc:
            return Unknown(f"nielsen loops: {exc}")

    @cached_property
    def surface(self):
        """SurfaceRealization or NotSurface; None without Nielsen loops."""
        loops = self.loops
        if loops is None:
            return None
        if isinstance(loops, Unknown):
            return NotSurface(loops.reason)
        return realize_surface(self.stable, loops)

    @cached_property
    def verdict(self) -> Verdict:
        """Injectivity, finite order, reduction search, train track,
        stabilization, Nielsen loops, surface realization; the word search
        cross-checks the Nielsen loops."""
        notes: list = []
        bounds = self.bounds.as_dict()
        del bounds["kmax"]   # the preimage chain plays no part in a verdict

        def conclude(kind: str, **found) -> Verdict:
            return Verdict(kind, self.injective, notes, bounds, **found)

        if not self.injective:
            notes.append("endomorphism is not injective (image rank is "
                         "smaller than the ambient rank)")
        if self.finite_order is not None:
            return conclude("finite_order", finite_order=self.finite_order)
        if self.reduction_witness is not None:
            return conclude("reducible", witness=self.reduction_witness)
        if not self.injective:
            notes.append("train track pipeline needs injectivity; no bounded "
                         "reduction was found")
            return conclude("unknown")

        # a ReductionWitness here was already taken by the reduction search,
        # and a FiniteOrderCertificate by `finite_order`, the same exact test
        tt = self.train_track
        if isinstance(tt, Unknown):
            notes.append(f"train track search: {tt.reason}")
            return conclude("unknown")

        stable = self.stable
        if not stable.stable:
            # the returned representative is still a train track whose
            # Nielsen data verifies directly; only the stability label is
            # withheld
            notes.append("stabilization budget exhausted before projective "
                         "recurrence; Nielsen data taken at the train track "
                         "representative")
        word_hit = self.word_hit
        loops = self.loops
        if isinstance(loops, Unknown):
            notes.append(loops.reason)
            return conclude("unknown", stable=stable)
        if loops is None:
            if word_hit is not None:
                raise InternalInconsistency(
                    "word search found a periodic class but the Nielsen scan "
                    "at the stable representative is empty")
            cert = Atoroidal(self.bounds.period_bound, stable.radius)
            return conclude("irreducible_atoroidal", atoroidal=cert,
                            stable=stable, irreducibility="bounded")

        if word_hit is not None and CyclicWord.of(word_hit[0]) not in loops.classes:
            raise InternalInconsistency(
                "periodic class witnesses disagree between the word search "
                "and the Nielsen loops")
        cls = loops.classes[0]
        found = conjugacy_period(self.endo, cls.letters,
                                 2 * self.bounds.period_bound)
        toroidal = Toroidal(cls, found[0] if found else 0,
                            "both" if word_hit is not None else "nielsen loops")
        realization = self.surface
        if isinstance(realization, NotSurface):
            notes.append(f"surface realization failed: {realization.reason}")
            return conclude("unknown", stable=stable, loops=loops,
                            toroidal=toroidal)
        if realization.transitive_boundary:
            return conclude("geometric", surface=realization, stable=stable,
                            loops=loops, toroidal=toroidal,
                            irreducibility="supported by the surface dichotomy")
        notes.append("surface realized but the boundary action is not "
                     "transitive")
        return conclude("unknown", surface=realization, stable=stable,
                        loops=loops, toroidal=toroidal)


def reduction_search(endo: Endomorphism) -> Optional[ReductionWitness]:
    """The reduction-witness stage of `Analysis`: an invariant proper free
    factor system, or None (a bounded negative)."""
    return Analysis(endo, Bounds()).reduction_witness


def classify(endo: Endomorphism) -> Verdict:
    """The verdict of `Analysis` at the default bounds: injectivity, finite
    order, reduction search, train track, stabilization, Nielsen loops,
    surface realization."""
    return Analysis(endo, Bounds()).verdict
