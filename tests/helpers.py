"""Helpers that only the tests call."""

from dataclasses import dataclass
from fractions import Fraction

from endotorus.graphmap import GraphMap, MarkedGraph, edge_digraph, transition_matrix
from endotorus.nielsen import NielsenOrbit
from endotorus.traintrack import TrainTrack, gates
from endotorus.words import cyclic_canonical


def is_conjugate(u, v, unoriented=False):
    """Exact conjugacy in F via canonical cyclic forms.  Orientation matters
    unless unoriented=True, which also identifies v with v^-1."""
    return cyclic_canonical(u, unoriented) == cyclic_canonical(v, unoriented)


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
    """Each edge image is an edge path from the image of the edge's initial
    vertex to the image of its terminal one; a trivial image needs both
    ends sent to one vertex."""
    g = gm.graph
    for e in g.edge_ids():
        p = gm.eimg[e]
        if p:
            assert all(g.term_of(p[i]) == g.init_of(p[i + 1])
                       for i in range(len(p) - 1)), \
                f"image of edge {e} is not a path"
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
                  {e: (e,) for e in graph.edges}, len(edges) - nv + 1, labels)
    return TrainTrack(gm, gates(gm), transition_matrix(gm, edge_digraph(gm)))


def arc_orbits(arcs):
    return [NielsenOrbit(list(arcs), [0] * len(arcs), [], 1, False)]


# edges 1 and 2 are loops at vertex 0, edge 3 joins it to vertex 1, and
# edges 4 and 5 are loops there
TWO_ROSES = [(0, 0), (0, 0), (0, 1), (1, 1), (1, 1)]
