"""Helpers that only the tests call."""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from typing import Sequence

from endotorus import subgroups as sg
from endotorus.graphmap import (
    POINT_TOL,
    GraphMap,
    MarkedGraph,
    edge_digraph,
    refine_at_points,
    transition_matrix,
)
from endotorus.nielsen import NielsenOrbit
from endotorus.subgroups import SubgroupGraph
from endotorus.traintrack import ReductionWitness, TrainTrack, gates
from endotorus.words import (
    Endomorphism,
    Word,
    concat,
    cyclic_canonical,
    _letter,
    invert,
    reduce_word,
    show_word,
)


def is_conjugate(u, v, unoriented=False):
    """Exact conjugacy in F via canonical cyclic forms.  Orientation matters
    unless unoriented=True, which also identifies v with v^-1."""
    return cyclic_canonical(u, unoriented) == cyclic_canonical(v, unoriented)


# ---------------------------------------------------------------------------
# interior periodic points: the fixed points of f^per found once, then closed
# under the single map, the set that the Nielsen path scan once refined at
# ---------------------------------------------------------------------------

def reference_point_image(gm, e, pos):
    """Image of the interior point at metric position pos on edge e, as
    (edge, position from that edge's initial vertex)."""
    img = gm.eimg[e]
    le = gm.graph.lengths[e]
    total = sum(gm.graph.lengths[abs(x)] for x in img)
    t = pos / le * total
    acc = 0.0
    for x in img:
        lx = gm.graph.lengths[abs(x)]
        if t <= acc + lx + 1e-12:
            inner = t - acc
            return (abs(x), inner) if x > 0 else (abs(x), lx - inner)
        acc += lx
    x = img[-1]
    return (abs(x), gm.graph.lengths[abs(x)] if x > 0 else 0.0)


def reference_cuts(tt, interior_bound):
    """Interior fixed points of f^per for per up to the bound, closed under
    the map."""
    gm = tt.gm
    lam = tt.stretch
    cuts = {e: [] for e in gm.graph.edge_ids()}

    def add(e, p):
        le = gm.graph.lengths[e]
        if p < POINT_TOL or p > le - POINT_TOL:
            return False
        for q in cuts[e]:
            if abs(q - p) < POINT_TOL:
                return False
        cuts[e].append(p)
        return True

    paths = {e: (e,) for e in gm.graph.edge_ids()}   # f^per(e)
    for per in range(1, interior_bound + 1):
        stretch = lam ** per
        for e in gm.graph.edge_ids():
            paths[e] = gm.map_path(paths[e])
            le = gm.graph.lengths[e]
            acc = 0.0
            for x in paths[e]:
                lx = gm.graph.lengths[abs(x)]
                if abs(x) == e:
                    if x > 0:
                        p = acc / (stretch - 1.0)
                    else:
                        p = (acc + le) / (stretch + 1.0)
                    add(e, p)
                acc += lx
    # close under the single map
    for _ in range(4 * interior_bound + 4):
        new = False
        for e in sorted(cuts):
            for p in list(cuts[e]):
                (e2, p2) = reference_point_image(gm, e, p)
                if add(e2, p2):
                    new = True
        if not new:
            break
    return {e: sorted(ps) for (e, ps) in cuts.items() if ps}


def reference_refinement(tt, interior_bound):
    """The train track refined at every interior periodic point of period up
    to the bound (`reference_cuts`)."""
    gm = refine_at_points(tt.gm, reference_cuts(tt, interior_bound))
    return TrainTrack(gm, gates(gm), transition_matrix(gm, edge_digraph(gm)))


# ---------------------------------------------------------------------------
# HNN presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HNNPresentation:
    """F_m *_A with relators t^-1 a t = phi(a) over a basis of a rank-n
    subgroup A; ascending when n = m."""
    ambient_rank: int              # m
    factor_rank: int               # n

    @property
    def ascending(self) -> bool:
        return self.factor_rank == self.ambient_rank


def euler_char(p: HNNPresentation) -> int:
    return p.factor_rank - p.ambient_rank


# ---------------------------------------------------------------------------
# graph maps
# ---------------------------------------------------------------------------

def check_consistency(gm) -> None:
    """Each edge image is a reduced edge path from the image of the edge's
    initial vertex to the image of its terminal one; a trivial image needs
    both ends sent to one vertex.  No move tightens, so a move that left an
    image unreduced fails here."""
    g = gm.graph
    for e in g.edge_ids():
        p = gm.eimg[e]
        if p:
            assert all(g.term_of(p[i]) == g.init_of(p[i + 1])
                       for i in range(len(p) - 1)), \
                f"image of edge {e} is not a path"
            assert all(p[i] != -p[i + 1] for i in range(len(p) - 1)), \
                f"image of edge {e} is not reduced"
            assert g.init_of(p[0]) == gm.vimg[g.init_of(e)]
            assert g.term_of(p[-1]) == gm.vimg[g.term_of(e)]
        else:
            assert gm.vimg[g.init_of(e)] == gm.vimg[g.term_of(e)]


def char_poly(matrix):
    """Exact characteristic polynomial coefficients via Faddeev-LeVerrier
    (works with Fractions)."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            m[i][i] += coeffs[-1]
        mm = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(mm[i][i] for i in range(n)) / k
        coeffs.append(c)
    return coeffs  # p(x) = sum coeffs[i] * x^(n-i)


def certify_growth_rate(matrix, lam: float, eps: float = 1e-9) -> bool:
    """Exact-rational sign check that the characteristic polynomial has a
    root within eps of lam (the dominant root for PF matrices)."""
    coeffs = char_poly(matrix)

    def val(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * x + c
        return acc

    lo = Fraction(lam - eps).limit_denominator(10 ** 12)
    hi = Fraction(lam + eps).limit_denominator(10 ** 12)
    vlo, vhi = val(lo), val(hi)
    return vlo == 0 or vhi == 0 or (vlo < 0) != (vhi < 0)


# ---------------------------------------------------------------------------
# arc systems for the Nielsen loops and the surface test
# ---------------------------------------------------------------------------

def identity_track(nv, edges):
    """The identity of the graph with edges 1.. (init, term) over nv
    vertices, as a train track: the first nv - 1 edges span a tree and are
    labeled by the empty word, each other edge by a generator of its own."""
    graph = MarkedGraph(nv, dict(enumerate(edges, 1)),
                        {e: 1.0 for e in range(1, len(edges) + 1)})
    labels = {e: () if e < nv else (e - nv + 1,) for e in graph.edges}
    gm = GraphMap(graph, {v: v for v in range(nv)},
                  {e: (e,) for e in graph.edges}, labels)
    return TrainTrack(gm, gates(gm), transition_matrix(gm, edge_digraph(gm)))


def arc_orbits(arcs):
    return [NielsenOrbit(list(arcs), [0] * len(arcs), [], 1, False)]


# edges 1 and 2 are loops at vertex 0, edge 3 joins it to vertex 1, and
# edges 4 and 5 are loops there
TWO_ROSES = [(0, 0), (0, 0), (0, 1), (1, 1), (1, 1)]


# ---------------------------------------------------------------------------
# the witness subgroup and its preimage chain, built from scratch
# ---------------------------------------------------------------------------
# The construction as it stood before the torus layer read A's graph and
# phi^n off the verified witness: A is folded again, phi^n is composed twice,
# and the chain checks properness and invariance once more.

@dataclass
class ReferenceWitnessSubgroup:
    """<A, t^n x> inside the mapping torus, carrying chi = 0."""
    fiber_basis: list          # basis of A
    power: int                 # n
    conjugator: Word           # x
    chi: int
    cyclic_fiber: bool
    provenance: str
    graph: SubgroupGraph       # Stallings graph of A; as_dict leaves it out

    def as_dict(self) -> dict:
        return {
            "fiber_basis": [list(w) for w in self.fiber_basis],
            "power": self.power,
            "conjugator": list(self.conjugator),
            "chi": self.chi,
            "cyclic_fiber": self.cyclic_fiber,
            "provenance": self.provenance,
        }


def reference_witness_subgroup(endo: Endomorphism, a_basis: Sequence[Word],
                               x: Word, n: int,
                               provenance: str = "") -> ReferenceWitnessSubgroup:
    """Verified construction of <A, t^n x>: requires phi^n(A) <= x A x^-1 by
    membership and A proper.  chi = 0 because the presentation is an
    ascending extension of A over itself.  The Stallings graph of A built
    for the membership test is kept, for the preimage chain."""
    graph = sg.stallings(endo.rank, list(a_basis))
    if graph.index() == 1:
        raise ValueError("witness fiber must be a proper subgroup")
    power = endo.power(n)
    for w in a_basis:
        if not graph.contains(concat(invert(x), power.apply(w), x)):
            raise ValueError("invariance phi^n(A) <= x A x^-1 failed on a "
                             "basis element")
    rank = len(graph.basis())
    return ReferenceWitnessSubgroup([reduce_word(w) for w in a_basis], n,
                                    reduce_word(x), 0, rank <= 1, provenance,
                                    graph)


def reference_fiber_chain(endo: Endomorphism, a_graph: SubgroupGraph, x: Word,
                          n: int, k_max: int = 6) -> dict:
    """Iterated preimages of A under i_{x^-1} phi^n, with indices and a
    stabilization check.  A finite-index term certifies finite index of the
    witness subgroup in the mapping torus; a stabilized infinite-index chain
    certifies infinite index."""
    if a_graph.index() == 1:
        raise ValueError("the fiber of a witness subgroup must be proper")
    psi = Endomorphism.inner(endo.rank, invert(x)).compose(endo.power(n))
    for w in a_graph.basis():
        if not a_graph.contains(psi.apply(w)):
            raise ValueError("the twisted endomorphism does not keep A "
                             "inside itself")
    terms = [a_graph]
    report_terms = []
    stabilized_at = None
    ascending_ok = True
    for k in range(k_max):
        nxt = sg.preimage(psi, terms[-1])
        for w in terms[-1].basis():
            if not nxt.contains(w):
                ascending_ok = False
        if nxt == terms[-1]:
            stabilized_at = k
            break
        terms.append(nxt)
    for t in terms:
        report_terms.append({
            "vertices": t.num_vertices,
            "edges": t.num_edges,
            "rank": t.graph_rank(),
            "index": t.index() if t.index() is not None else "infinite",
        })
    finite_at = next((i for i, t in enumerate(terms) if t.index() is not None), None)
    if finite_at is not None:
        conclusion = "finite index"
        certified = True
    elif stabilized_at is not None:
        conclusion = "infinite index (stable chain)"
        certified = True   # the stable term is a non-covering graph
    else:
        conclusion = f"undetermined at k_max={k_max}"
        certified = False
    return {
        "power": n,
        "conjugator": list(reduce_word(x)),
        "terms": report_terms,
        "ascending": ascending_ok,
        "stabilized_at": stabilized_at,
        "finite_index_at": finite_at,
        "conclusion": conclusion,
        "certified": certified,
    }


def _reference_accumulated_conjugator(endo: Endomorphism,
                                      witness: ReductionWitness) -> Word:
    """phi^k(A_1) <= X A_1 X^-1 where X = phi^{k-1}(x_1) phi^{k-2}(x_2) ... x_k
    telescopes the one-step conjugators through the iterates, in Horner
    form: X <- phi(X) x_i, one factor at a time."""
    X: Word = ()
    for f in witness.factors:
        X = concat(endo.apply(X), f.conjugator)
    return X


def reference_witness_block(endo: Endomorphism, witness: ReductionWitness,
                            kmax: int) -> dict:
    """The witness entries of the subgroup report from the reference:
    `witness_subgroup` and `fiber_chain`, or `witness_error`."""
    a_basis = witness.factors[0].basis
    n = len(witness.factors)
    X = _reference_accumulated_conjugator(endo, witness)
    try:
        ws = reference_witness_subgroup(endo, a_basis, X, n,
                                        provenance=witness.provenance)
        chain = reference_fiber_chain(endo, ws.graph, X, n, k_max=kmax)
        return {"witness_subgroup": ws.as_dict(), "fiber_chain": chain}
    except ValueError as exc:
        return {"witness_error": str(exc)}


# ---------------------------------------------------------------------------
# the committed table of zero-area candidates
# ---------------------------------------------------------------------------

def necklace_table(walked: dict) -> dict:
    """`words.GAMMA3_NECKLACES` read off the walk's lists: length -> the
    words of that length, in the walk's order, as letters separated by
    spaces.  Lengths without a word are left out."""
    return {length: " ".join(show_word(tuple(map(_letter, w))) for w in ws)
            for (length, ws) in walked.items() if ws}


def necklace_table_source(table: dict) -> str:
    """The source text of `words.GAMMA3_NECKLACES` for `table`, one string
    per length, wrapped at whole words within 79 columns."""
    lines = ["GAMMA3_NECKLACES = {"]
    for (length, text) in table.items():
        words = text.split()
        per_line = 68 // (length + 1)
        chunks = [" ".join(words[i:i + per_line])
                  for i in range(0, len(words), per_line)]
        head = f"    {length}: ("
        lines.append(f'{head}"{chunks[0]}')
        for chunk in chunks[1:]:
            lines[-1] += ' "'
            lines.append(f'{" " * len(head)}"{chunk}')
        lines[-1] += '"),'
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the class-three image of a word of [F,[F,F]]
# ---------------------------------------------------------------------------

def class_three_image(word) -> tuple:
    """X_w of a word of [F,[F,F]] in at most three generators, from its
    Magnus expansion (a -> 1 + X_a, a^-1 -> 1 - X_a + X_a^2 - X_a^3, cut
    at degree 3): the degree-3 part, sent to a 3x3 integer matrix by
    e_x e_y e_z -> e_x (e_y x e_z)^T, as its 9 entries row by row.  Raises
    ValueError when the word is not in [F,[F,F]] (a part of degree 1 or 2
    is left)."""
    c1 = [0] * 3
    c2 = [[0] * 3 for _ in range(3)]
    c3 = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for letter in word:
        (g, s) = (abs(letter) - 1, 1 if letter > 0 else -1)
        # multiply on the right by 1 + s X_g (+ X_g^2 - X_g^3 when s < 0)
        for x in range(3):
            for y in range(3):
                c3[x][y][g] += s * c2[x][y]
            if s < 0:
                c3[x][g][g] += c1[x]
        if s < 0:
            c3[g][g][g] -= 1
        for x in range(3):
            c2[x][g] += s * c1[x]
        if s < 0:
            c2[g][g] += 1
        c1[g] += s
    if any(c1) or any(map(any, c2)):
        raise ValueError(f"{show_word(word)} is not in [F,[F,F]]")
    image = [[0] * 3 for _ in range(3)]
    for (x, y, z) in itertools.product(range(3), repeat=3):
        if y != z:
            # e_y x e_z = sign * e_k, with k the third index
            k = 3 - y - z
            sign = 1 if (y, z) in ((0, 1), (1, 2), (2, 0)) else -1
            image[x][k] += sign * c3[x][y][z]
    return tuple(v for row in image for v in row)


def class_three_source(images: dict) -> str:
    """The source text of `words.GAMMA3_IMAGES` for length -> the images
    of that length's table words in table order: each entry v as the
    character chr(ord("M") + v), 9 per word, 8 words to a line."""
    lines = ["GAMMA3_IMAGES = {"]
    for (length, entries) in images.items():
        text = "".join(chr(ord("M") + v) for image in entries for v in image)
        chunks = [text[i:i + 72] for i in range(0, len(text), 72)]
        head = f"    {length}: ("
        lines.append(f'{head}"{chunks[0]}"')
        lines.extend(f'{" " * len(head)}"{chunk}"' for chunk in chunks[1:])
        lines[-1] += "),"
    lines.append("}")
    return "\n".join(lines) + "\n"
