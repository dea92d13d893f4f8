"""Marked graphs and homotopy representatives of endomorphisms.

A MarkedGraph is a finite connected graph with positive edge lengths.  A
GraphMap carries vertex and edge images plus edge labels that identify the
fundamental group with F: every edge has a label, a reduced word in the
ambient generators, and an edge path reads as the reduced product of its
labels, word(p).  A loop at the base reads as an element of F, and a
closed path elsewhere as a conjugate of the base loop it makes with any
path from the base and back.  Each move updates the labels of the edges it
touches, so no earlier graph is kept; the labels are how reduction
witnesses and induced endomorphisms get expressed in ambient coordinates.
One word, the map's twist, makes them exact: for every loop gamma at the
base, phi(word(gamma)) = twist . word(f(gamma)) . twist^-1.

Every move is its push map: a dict sending each edge id the move removes to
its path in the new graph.  `push_path` applies one to any edge path (e
becomes push[e], -e the reverse path, every other edge stays, and the result
is freely reduced), and `GraphMap._move` carries the edge images through
it.  So edge images are reduced paths by construction, with no tightening
step: the rose's are reduced words, and a subdivision or a refinement slices
reduced paths.  Applying the map itself is the same substitution, with the
edge images as the push map.

Oriented edges are signed integers (+e, -e) over positive unoriented ids.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import cached_property
from itertools import accumulate
from operator import add, itemgetter, mul, sub
from typing import NamedTuple, Optional, Sequence

from endotorus.words import Endomorphism, Word, concat, invert, reduce_word

EdgePath = tuple  # tuple[int, ...] of signed edge ids

POINT_TOL = 1e-7  # metric positions closer than this are one point


class MarkedGraph:
    def __init__(self, nv: int, edges: dict, lengths: dict, base: int = 0):
        self.nv = nv
        self.edges = edges        # unoriented id -> (init, term)
        self.lengths = lengths    # unoriented id -> float
        self.base = base

    def __repr__(self) -> str:
        return (f"MarkedGraph(nv={self.nv!r}, edges={self.edges!r}, "
                f"lengths={self.lengths!r}, base={self.base!r})")

    def edge_ids(self) -> list:
        return sorted(self.edges)

    def init_of(self, e: int) -> int:
        (u, v) = self.edges[abs(e)]
        return u if e > 0 else v

    def term_of(self, e: int) -> int:
        return self.init_of(-e)

    def path_length(self, path: Sequence[int]) -> float:
        return sum(self.lengths[abs(e)] for e in path)

    def volume(self) -> float:
        return sum(self.lengths.values())

    @cached_property
    def _adjacency(self) -> dict:
        """vertex -> the directions leaving it, in (abs(d), d < 0) order.
        Built once: a graph never changes after the move that made it."""
        adjacency: dict = {}
        for e in self.edge_ids():
            (a, b) = self.edges[e]
            adjacency.setdefault(a, []).append(e)
            adjacency.setdefault(b, []).append(-e)
        return adjacency

    def directions_at(self, v: int) -> list:
        return list(self._adjacency.get(v, ()))

    def all_directions(self) -> list:
        return [d for e in self.edge_ids() for d in (e, -e)]

    def shortest_path(self, u: int, v: int) -> Optional[EdgePath]:
        """Deterministic BFS edge path from u to v."""
        paths = {u: ()}
        queue = deque([u])
        while queue:
            w = queue.popleft()
            if w == v:
                return paths[w]
            for d in self._adjacency.get(w, ()):
                t = self.term_of(d)
                if t not in paths:
                    paths[t] = paths[w] + (d,)
                    queue.append(t)
        return None


def push_path(path: Sequence[int], push: dict) -> EdgePath:
    """The path `path` becomes under the push map `push`: each edge e in it
    becomes push[e] and -e the reverse of push[e], every other edge stays,
    and the result is freely reduced as its letters are appended."""
    out: list = []
    for e in path:
        rep = push.get(abs(e))
        if rep is None:
            rep = (e,)
        elif e < 0:
            rep = [-x for x in reversed(rep)]
        for x in rep:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def _fold_push(d1: int, d2: int) -> dict:
    """The push map of the fold of d2 onto d1."""
    return {abs(d2): (d1,) if d2 > 0 else (-d1,)}


# ---------------------------------------------------------------------------
# graph maps
# ---------------------------------------------------------------------------

class GraphMap:
    """A self-map of a marked graph representing an endomorphism of F.

    `twist` is the word with phi(word(gamma)) = twist . word(f(gamma)) .
    twist^-1 for every loop gamma at the base.  It is () on the rose, and
    a move whose label twist re-attaches each old vertex v along h[v]
    multiplies it on the right by h[f(base)]^-1 (`_move`).

    `history` holds the push maps of the move that made this map, which is
    what `transport_path` reads: one for a single move, one per step for a
    composite move (`traintrack.fold_at_pair`).  A change of metric keeps
    it; the rose has none."""

    def __init__(self, graph: MarkedGraph, vimg: dict, eimg: dict,
                 labels: dict, twist: Word = (), history: tuple = ()):
        self.graph = graph
        self.vimg = dict(vimg)
        self.eimg = {e: tuple(p) for (e, p) in eimg.items()}
        self.labels = dict(labels)         # unoriented id -> word along +e
        self.twist = tuple(twist)          # phi(w) = twist . f_*(w) . twist^-1
        self.history = tuple(history)      # push maps of the last move

    # -- basics ---------------------------------------------------------------

    def image_of_edge(self, e: int) -> EdgePath:
        p = self.eimg[abs(e)]
        return p if e > 0 else tuple(-x for x in reversed(p))

    def label_of(self, e: int) -> Word:
        w = self.labels[abs(e)]
        return w if e > 0 else invert(w)

    def map_path(self, path: Sequence[int]) -> EdgePath:
        return push_path(path, self.eimg)

    # -- words in F ---------------------------------------------------------------

    def path_to_word(self, path: Sequence[int]) -> Word:
        """word(path): the reduced product of the edge labels along any
        edge path.  A loop at the base reads as its element of F."""
        return reduce_word(x for e in path for x in self.label_of(e))

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def rose(endo: Endomorphism) -> "GraphMap":
        """One vertex, one edge per generator, edge images spelling the
        generator images; edge i is labeled by generator i."""
        r = endo.rank
        graph = MarkedGraph(1, {i: (0, 0) for i in range(1, r + 1)},
                            {i: 1.0 for i in range(1, r + 1)})
        eimg = {i: tuple(endo.images[i - 1]) for i in range(1, r + 1)}
        labels = {i: (i,) for i in range(1, r + 1)}
        return GraphMap(graph, {0: 0}, eimg, labels)

    def _move(self, push: dict, new_edges: dict, new_vimg: Optional[dict] = None,
              rename: Optional[Sequence[int]] = None,
              h: Optional[dict] = None) -> "GraphMap":
        """The map after a move, from what the move decides.

        `push` is the move's push map: the edge ids it removes, each sent to
        its path in the new graph.  The images of the kept edges become their
        `push_path`, and `push` becomes the new `history`.  `rename` sends
        each old vertex to its new id (by default every id stays), and
        `new_vimg` gives the images of the vertices the move adds.
        `new_edges` maps each edge id the move makes or redefines to (ends,
        length, image, label) in the new graph.  Kept edges keep their lengths
        and their order, and the edges of `new_edges` come after them, in the
        order given.  The label twist h re-attaches each old vertex v along
        the word h[v] (default 1): a kept edge from a to b gets h[a] . label .
        h[b]^-1, so that loops keep their words once the moved vertices merge.
        The base keeps its attachment, so a base loop keeps its word, while
        the word of its image, a loop at f(base), is conjugated by h[f(base)]:
        the twist becomes twist . h[f(base)]^-1."""
        g = self.graph
        ren = range(g.nv) if rename is None else rename
        h = h or {}
        edges = {e: (ren[a], ren[b]) for e, (a, b) in g.edges.items()
                 if e not in push and e not in new_edges}
        lengths = {e: x for e, x in g.lengths.items() if e in edges}
        eimg = {e: push_path(self.eimg[e], push) for e in edges}
        labels = {e: self.labels[e] for e in edges}
        for e in labels:
            (a, b) = g.edges[e]
            if a in h or b in h:
                labels[e] = concat(h.get(a, ()), labels[e], invert(h.get(b, ())))
        for e, (ends, length, image, label) in new_edges.items():
            edges[e] = ends
            lengths[e] = length
            eimg[e] = image
            labels[e] = label
        vimg = {ren[v]: ren[w] for v, w in self.vimg.items()}
        vimg.update(new_vimg or {})
        twist = concat(self.twist, invert(h.get(self.vimg[g.base], ())))
        graph = MarkedGraph(len(vimg), edges, lengths, ren[g.base])
        return GraphMap(graph, vimg, eimg, labels, twist, (push,))

    # -- moves --------------------------------------------------------------------

    def subdivide(self, edge: int, k: int) -> "GraphMap":
        """Split edge at the point mapping to position k of its image path;
        0 <= k <= len(image) is allowed, the extreme values giving a
        trivial-image half.  The first half keeps the edge's label."""
        g = self.graph
        p = self.eimg[edge]
        if not 0 <= k <= len(p):
            raise ValueError("subdivision point outside the image path")
        e1 = max(g.edges) + 1
        e2 = e1 + 1
        w = g.nv
        (a, b) = g.edges[edge]
        total = max(g.lengths[edge], 1e-12)
        ratio = g.path_length(p[:k]) / max(g.path_length(p), 1e-12) if p else 0.5
        push = {edge: (e1, e2)}
        return self._move(push, {
            e1: ((a, w), total * ratio, push_path(p[:k], push), self.labels[edge]),
            e2: ((w, b), total * (1 - ratio), push_path(p[k:], push), ()),
        }, new_vimg={w: g.term_of(p[k - 1]) if k > 0 else self.vimg[a]})

    def _fold_refusal(self, d1: int, d2: int) -> Optional[str]:
        """Why `fold` cannot identify d1 and d2, or None when it can: two
        distinct edges from one vertex to two vertices whose images agree
        once d2 is d1, after the fold's push {|d2| -> d1}.  Equal images
        agree, and so do f(d1) = gamma . d1 and f(d2) = gamma . d2, the two
        halves of a Nielsen path, which the fold sends to the empty path."""
        g = self.graph
        if abs(d1) == abs(d2):
            return "cannot fold an edge with itself"
        if g.init_of(d1) != g.init_of(d2):
            return "fold requires a common initial vertex"
        if g.term_of(d1) == g.term_of(d2):
            return "parallel fold would drop the graph rank"
        push = _fold_push(d1, d2)
        if push_path(self.image_of_edge(d1), push) \
                != push_path(self.image_of_edge(d2), push):
            return ("fold requires images that agree once the edges are "
                    "identified")
        return None

    def folds_whole(self, d1: int, d2: int) -> bool:
        """Whether `fold` accepts d1 and d2, whose images need not be equal
        (`_fold_refusal`)."""
        return self._fold_refusal(d1, d2) is None

    def fold(self, d1: int, d2: int) -> "GraphMap":
        """Identify two distinct oriented edges with the same initial vertex
        whose images agree once the edges are identified (`_fold_refusal`),
        so a fold of the two halves of a Nielsen path identifies them whole.
        Rejects folds that would drop the rank (parallel edges), which
        cannot occur for injective maps, so the fold keeps the fundamental
        group.  The highest vertex takes the removed vertex's id, so ids
        stay 0..nv-1."""
        reason = self._fold_refusal(d1, d2)
        if reason is not None:
            raise ValueError(reason)
        g = self.graph
        v1, v2 = g.term_of(d1), g.term_of(d2)
        last = g.nv - 1
        merged = [v1 if v == v2 else v for v in range(g.nv)]
        # c is the word of the connector v2 -> v1; the base keeps its
        # attachment, so base loops are never conjugated
        c = concat(self.label_of(-d2), self.label_of(d1))
        return self._move(_fold_push(d1, d2), {},
                          rename=[v2 if v == last else v for v in merged],
                          h={v1: c} if v2 == g.base else {v2: invert(c)})

    def collapse_forest(self, edge_set) -> "GraphMap":
        """Collapse an f-invariant forest.  Validity: the set contains no
        cycle and image paths of its edges stay inside it."""
        edge_set = frozenset(abs(e) for e in edge_set)
        if not edge_set:
            return self
        g = self.graph
        for e in edge_set:
            if any(abs(x) not in edge_set for x in self.eimg[e]):
                raise ValueError("forest is not invariant under the map")
        parent = {v: v for v in range(g.nv)}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in edge_set:
            (a, b) = g.edges[e]
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValueError("edge set contains a cycle, not a forest")
            parent[max(ra, rb)] = min(ra, rb)
        rep_of = [find(v) for v in range(g.nv)]
        renum = {v: i for i, v in enumerate(sorted(set(rep_of)))}
        # h[v]: word of the tree path to v from its class's anchor, the base
        # in the base's class and the least vertex (the representative) in
        # every other class
        h: dict = {}
        for anchor in (g.base, *sorted({v for e in edge_set for v in g.edges[e]})):
            if anchor in h:
                continue
            h[anchor] = ()
            stack = [anchor]
            while stack:
                v = stack.pop()
                for d in g.directions_at(v):
                    w = g.term_of(d)
                    if abs(d) in edge_set and w not in h:
                        h[w] = concat(h[v], self.label_of(d))
                        stack.append(w)
        return self._move({e: () for e in edge_set}, {},
                          rename=[renum[r] for r in rep_of], h=h)


# ---------------------------------------------------------------------------
# transition data
# ---------------------------------------------------------------------------

class EdgeDigraph(NamedTuple):
    """The digraph e -> the edges of f(e), over edge positions in id order."""
    succ: tuple     # succ[i]: the j with e_j in f(e_i), increasing
    counts: tuple   # counts[i][k]: times f(e_i) crosses e_j, j = succ[i][k]
    pred: tuple     # pred[j]: the i with e_j in f(e_i), increasing


def edge_digraph(gm: GraphMap) -> EdgeDigraph:
    """The edge digraph of `gm`, read off its edge images."""
    order = gm.graph.edge_ids()
    idx = {e: i for i, e in enumerate(order)}
    succ = []
    counts = []
    pred: list = [[] for _ in order]
    for i, e in enumerate(order):
        crossed: dict = {}
        for x in gm.eimg[e]:
            j = idx[abs(x)]
            crossed[j] = crossed.get(j, 0) + 1
        cols = tuple(sorted(crossed))
        succ.append(cols)
        counts.append(tuple(map(crossed.__getitem__, cols)))
        for j in cols:
            pred[j].append(i)
    return EdgeDigraph(tuple(succ), tuple(counts), tuple(map(tuple, pred)))


class TransitionData(NamedTuple):
    edge_order: tuple
    digraph: EdgeDigraph   # the nonzero entries of the transition matrix
    lam: float
    eigenmetric: Optional[tuple]   # positive lengths with M v = lam v, sum 1
    irreducible: bool
    expanding: bool
    residual: float
    steps: int             # power-iteration steps taken; a work counter

    def as_lists(self):
        """The transition matrix: M[i][j] = times f(e_i) crosses e_j."""
        rows = map(dict, map(zip, self.digraph.succ, self.digraph.counts))
        return [[row.get(j, 0) for j in range(len(self.edge_order))] for row in rows]


def reach(adj, start) -> set:
    """The nodes reachable from `start` along `adj` (node -> successors),
    `start` included."""
    seen = {start}
    stack = [start]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def transition_flags(digraph: EdgeDigraph) -> tuple:
    """(irreducible, expanding) of the transition matrix M, exactly: M is
    strongly connected, and then some row sum exceeds 1.  An irreducible M's
    Perron root lies between its least and greatest row sums (each at least
    1 on two or more edges, the root itself on one), equal to either only
    when all are equal (Horn-Johnson, "Matrix Analysis", section 8.1)."""
    n = len(digraph.succ)
    irreducible = n == 0 or (len(reach(digraph.succ, 0)) == n
                             and len(reach(digraph.pred, 0)) == n)
    return (irreducible, irreducible and any(sum(c) > 1 for c in digraph.counts))


def transition_matrix(gm: GraphMap, digraph: EdgeDigraph) -> TransitionData:
    """The transition matrix M of `gm` (rows and columns in edge id order),
    read off `digraph`, the `edge_digraph(gm)` that the caller holds, and
    its Perron-Frobenius data, by power iteration on M + I.

    The iteration starts from the graph's own lengths, taken in edge order,
    when every one is positive, and from ones otherwise: a zero entry could
    miss the dominant block of a reducible M.  Every move carries the
    metric (a subdivision splits a length by ratio, a fold and a refinement
    keep them, and `find_train_track` ends on the eigenmetric), and a fold
    of a train track keeps lambda and the eigenmetric, scaled (Bestvina-
    Handel 1992, section 5).  So after a stabilization fold or a refinement
    the start is already an eigenvector and the loop ends in a few steps.
    It ends when no entry changes by 1e-16 or more, when the iterate
    repeats the one two steps back or the one of the last step 1, 2, 4,
    8, ... (floats can settle into a cycle of any length), or after 2000
    steps.  lambda is the Rayleigh quotient of the last iterate, snapped to
    an integer within 1e-12.  On a reducible M with a defective dominant
    eigenvalue it is not the Perron root (a -> a, b -> ab reads 1.000999
    for 1), and no flag reads it."""
    order = tuple(gm.graph.edge_ids())
    n = len(order)
    (irreducible, expanding) = transition_flags(digraph)
    # each row as a getter of the v[j] at its nonzero columns, in
    # increasing order, and their coefficients, or None when every
    # coefficient is 1.  The entries are nonnegative integers, so leaving
    # out the exact 0 * v[j] terms and reading 1 * v[j] as v[j] leaves each
    # sum, taken by the builtin `sum` over the same terms in the same order,
    # unchanged to the bit.  A getter of one index would return the bare
    # float, so a single column is read as a one-entry slice.
    rows = []
    for (cols, coefs) in zip(digraph.succ, digraph.counts):
        if len(cols) == 1:
            cols = [slice(cols[0], cols[0] + 1)]
        get = itemgetter(*cols) if cols else itemgetter(slice(0, 0))
        rows.append((get, None if coefs.count(1) == len(coefs) else coefs))

    def times(v) -> list:
        """M v."""
        return [sum(get(v)) if coefs is None else sum(map(mul, coefs, get(v)))
                for (get, coefs) in rows]

    # power iteration on M + I (primitive when M is irreducible)
    v = [gm.graph.lengths[e] for e in order]
    if n and min(v) <= 0:
        v = [1.0] * n
    back = saved = None    # the iterate before v, and of the last step 2^k
    lam = 0.0
    steps = 0
    if n:
        for steps in range(1, 2001):
            w = list(map(add, times(v), v))
            s = sum(w)
            if s == 0:
                break
            w = [x / s for x in w]
            if max(map(abs, map(sub, w, v))) < 1e-16 or w in (back, saved):
                v = w
                break
            if steps & (steps - 1) == 0:
                saved = w
            (back, v) = (v, w)
        mv = times(v)
        denom = sum(x * x for x in v)
        lam = sum(mv[i] * v[i] for i in range(n)) / denom if denom else 0.0
        if abs(lam - round(lam)) < 1e-12:
            lam = float(round(lam))
    eigenmetric = None
    residual = float("inf")
    if n and irreducible and min(v) > 0:
        total = sum(v)
        eigenmetric = tuple(x / total for x in v)
        mv = times(eigenmetric)
        residual = max(abs(mv[i] - lam * eigenmetric[i]) for i in range(n))
    return TransitionData(order, digraph, lam, eigenmetric, irreducible,
                          expanding, residual, steps)


def with_eigenmetric(gm: GraphMap, data: TransitionData) -> GraphMap:
    """The graph map with edge lengths set to the eigenmetric of `data`,
    `transition_matrix(gm, ...)`, which reads only the images and so holds for
    the result too."""
    if data.eigenmetric is None:
        return gm
    lengths = {e: data.eigenmetric[i] for i, e in enumerate(data.edge_order)}
    graph = MarkedGraph(gm.graph.nv, dict(gm.graph.edges), lengths, gm.graph.base)
    return GraphMap(graph, gm.vimg, gm.eimg, gm.labels, gm.twist, gm.history)


def refine_at_points(gm: GraphMap, cuts: dict) -> GraphMap:
    """Subdivide edges at interior metric positions (measured from each
    edge's initial vertex).  The cut set must be closed under the map: the
    image of every cut point has to land on a cut point or vertex, so that
    edge images re-express as paths in the pieces.  Needed to turn interior
    periodic points into vertices."""
    g = gm.graph
    cuts = {e: sorted(ps) for (e, ps) in cuts.items() if ps}
    if not cuts:
        return gm
    for e, ps in cuts.items():
        le = g.lengths[e]
        if any(p < POINT_TOL or p > le - POINT_TOL for p in ps):
            raise ValueError("cut positions must be strictly interior")
        if any(b - a < POINT_TOL for a, b in zip(ps, ps[1:])):
            raise ValueError("cut positions must be separated")

    next_id = max(g.edges) + 1
    nv = g.nv
    push: dict = {}
    ends: dict = {}
    lengths: dict = {}
    bounds_of: dict = {}      # edge -> boundary positions [0, ..., length]
    for e in g.edge_ids():
        (a, b) = g.edges[e]
        ps = cuts.get(e, [])
        bounds = [0.0] + ps + [g.lengths[e]]
        verts = [a] + list(range(nv, nv + len(ps))) + [b]
        nv += len(ps)
        if ps:
            push[e] = tuple(range(next_id, next_id + len(bounds) - 1))
            next_id += len(bounds) - 1
        for i, eid in enumerate(push.get(e, (e,))):
            ends[eid] = (verts[i], verts[i + 1])
            lengths[eid] = bounds[i + 1] - bounds[i]
        bounds_of[e] = bounds

    # every edge is redefined: slice its pushed image at the images of the
    # piece boundaries; a cut vertex maps to the point where its piece's
    # image slice begins, and the first piece keeps the edge's label
    new_edges = {}
    new_vimg = {}
    for e in g.edge_ids():
        img = push_path(gm.eimg[e], push)
        acc = list(accumulate((lengths[abs(x)] for x in img), initial=0.0))
        total = acc[-1]
        scale = total / g.lengths[e] if g.lengths[e] > 0 else 0.0
        idxs = []
        for p in bounds_of[e]:
            t = p * scale
            # the index of acc (sorted) nearest t, the first one on a tie
            j = bisect_left(acc, t)
            if j == len(acc) or j and abs(acc[j - 1] - t) <= abs(acc[j] - t):
                j -= 1
                while j and abs(acc[j - 1] - t) == abs(acc[j] - t):
                    j -= 1
            if abs(acc[j] - t) > 1e-5 * max(1.0, total):
                raise ValueError("cut set is not closed under the map")
            idxs.append(j)
        for k, eid in enumerate(push.get(e, (e,))):
            new_edges[eid] = (ends[eid], lengths[eid], img[idxs[k]:idxs[k + 1]],
                              () if k else gm.labels[e])
            if k:
                j = idxs[k]     # the slice begins at the term of img[j - 1]
                new_vimg[ends[eid][0]] = gm.vimg[g.edges[e][0]] if j == 0 \
                    else ends[abs(img[j - 1])][img[j - 1] > 0]
    return gm._move(push, new_edges, new_vimg)


def transport_path(gm_new: GraphMap, path) -> EdgePath:
    """Push a path forward through the last move that made `gm_new`: each
    push map in `history` sends the old edges to their paths in the new
    graph (a folded edge to its partner, a collapsed one to the empty path,
    a cut one to its pieces)."""
    path = tuple(path)
    for push in gm_new.history:
        path = push_path(path, push)
    return path
