"""Marked graphs and homotopy representatives of endomorphisms.

A MarkedGraph is a finite connected graph with positive edge lengths.  A
GraphMap carries vertex and edge images plus a marking: one loop per ambient
generator, identifying the fundamental group with F.  Every move records
enough to pull edge paths back to the original rose, where loops read off as
words in F; that recorded homotopy equivalence is how reduction witnesses
and induced endomorphisms get expressed in ambient coordinates.

Oriented edges are signed integers (+e, -e) over positive unoriented ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from endotorus.words import Endomorphism, Word, reduce_word

EdgePath = tuple  # tuple[int, ...] of signed edge ids

POINT_TOL = 1e-7  # metric positions closer than this are one point


@dataclass(frozen=True)
class MarkedGraph:
    nv: int
    edges: dict            # unoriented id -> (init, term)
    lengths: dict          # unoriented id -> float
    base: int = 0

    def edge_ids(self) -> list:
        return sorted(self.edges)

    def init_of(self, e: int) -> int:
        (u, v) = self.edges[abs(e)]
        return u if e > 0 else v

    def term_of(self, e: int) -> int:
        return self.init_of(-e)

    def is_path(self, path: Sequence[int]) -> bool:
        return all(self.term_of(path[i]) == self.init_of(path[i + 1])
                   for i in range(len(path) - 1))

    def path_length(self, path: Sequence[int]) -> float:
        return sum(self.lengths[abs(e)] for e in path)

    def volume(self) -> float:
        return sum(self.lengths.values())

    def directions_at(self, v: int) -> list:
        out = []
        for e in self.edge_ids():
            (a, b) = self.edges[e]
            if a == v:
                out.append(e)
            if b == v:
                out.append(-e)
        return sorted(out, key=lambda d: (abs(d), d < 0))

    def all_directions(self) -> list:
        out = []
        for e in self.edge_ids():
            out.append(e)
            out.append(-e)
        return sorted(out, key=lambda d: (abs(d), d < 0))

    def shortest_path(self, u: int, v: int) -> Optional[EdgePath]:
        """Deterministic BFS edge path from u to v."""
        if u == v:
            return ()
        prev = {u: None}
        queue = [u]
        while queue:
            w = queue.pop(0)
            for d in self.directions_at(w):
                t = self.term_of(d)
                if t not in prev:
                    prev[t] = (w, d)
                    if t == v:
                        path = []
                        cur = v
                        while prev[cur] is not None:
                            (p, d2) = prev[cur]
                            path.append(d2)
                            cur = p
                        return tuple(reversed(path))
                    queue.append(t)
        return None


# ---------------------------------------------------------------------------
# move records (pullback to the rose)
# ---------------------------------------------------------------------------

@dataclass
class _SubstRecord:
    """A move whose pullback is substitution of edges by paths in the
    previous graph (subdivision, valence-two merge, forest collapse).
    `push` optionally carries the forward substitution (old edge to a path
    in the new graph) for transporting paths across the move."""
    subst: dict  # new signed edge -> path in previous graph (for +e only)
    push: dict = field(default_factory=dict)

    def pull(self, path, prev_graph):
        out = []
        for e in path:
            rep = self.subst.get(abs(e), (abs(e),))
            out.extend(rep if e > 0 else tuple(-x for x in reversed(rep)))
        return reduce_word(out)


@dataclass
class _JumpRecord:
    """A move that merged removed_v into kept_v; pulled paths may need hops
    through the connector (a path removed_v -> kept_v in the previous
    graph).  Used by folds and forest collapses."""
    subst: dict
    kept_v: int
    removed_v: int
    connector: tuple
    base_before: int
    push: dict = field(default_factory=dict)

    def pull(self, path, prev_graph):
        raw = []
        for e in path:
            rep = self.subst.get(abs(e), (abs(e),))
            raw.extend(rep if e > 0 else tuple(-x for x in reversed(rep)))

        def hop(frm, to):
            if frm == self.removed_v and to == self.kept_v:
                return list(self.connector)
            if frm == self.kept_v and to == self.removed_v:
                return [-x for x in reversed(self.connector)]
            raise AssertionError("pullback jump at a non-merged vertex")

        out = []
        cur = self.base_before
        for e in raw:
            i = prev_graph.init_of(e)
            if i != cur:
                out.extend(hop(cur, i))
            out.append(e)
            cur = prev_graph.term_of(e)
        if cur != self.base_before:
            out.extend(hop(cur, self.base_before))
        return reduce_word(out)


@dataclass
class _ForestRecord:
    """Collapse of a forest: pulled paths hop through forest geodesics."""
    forest_edges: frozenset
    rep_of: dict          # previous vertex -> class representative
    base_before: int

    @property
    def push(self):
        return {e: () for e in self.forest_edges}

    def pull(self, path, prev_graph):
        def forest_path(u, v):
            if u == v:
                return []
            prev = {u: None}
            queue = [u]
            while queue:
                w = queue.pop(0)
                for d in prev_graph.directions_at(w):
                    if abs(d) not in self.forest_edges:
                        continue
                    t = prev_graph.term_of(d)
                    if t not in prev:
                        prev[t] = (w, d)
                        queue.append(t)
            if v not in prev:
                raise AssertionError("pullback jump outside the collapsed forest")
            out = []
            cur = v
            while prev[cur] is not None:
                (p, d2) = prev[cur]
                out.append(d2)
                cur = p
            return list(reversed(out))

        out: list[int] = []
        cur = self.base_before
        for e in path:
            i = prev_graph.init_of(e)
            if i != cur:
                out.extend(forest_path(cur, i))
            out.append(e)
            cur = prev_graph.term_of(e)
        if cur != self.base_before:
            out.extend(forest_path(cur, self.base_before))
        return reduce_word(out)


# ---------------------------------------------------------------------------
# graph maps
# ---------------------------------------------------------------------------

class GraphMap:
    """A self-map of a marked graph representing an endomorphism of F."""

    def __init__(self, graph: MarkedGraph, vimg: dict, eimg: dict,
                 marking: tuple, rank: int, history: tuple = (),
                 prev_graphs: tuple = ()):
        self.graph = graph
        self.vimg = dict(vimg)
        self.eimg = {e: tuple(p) for (e, p) in eimg.items()}
        self.marking = tuple(tuple(m) for m in marking)
        self.rank = rank
        self.history = tuple(history)        # records, oldest first
        self.prev_graphs = tuple(prev_graphs)

    # -- basics ---------------------------------------------------------------

    def image_of_edge(self, e: int) -> EdgePath:
        p = self.eimg[abs(e)]
        return p if e > 0 else tuple(-x for x in reversed(p))

    def map_path(self, path: Sequence[int]) -> EdgePath:
        out: list[int] = []
        for e in path:
            for x in self.image_of_edge(e):
                if out and out[-1] == -x:
                    out.pop()
                else:
                    out.append(x)
        return tuple(out)

    def check_consistency(self) -> None:
        g = self.graph
        for e in g.edge_ids():
            p = self.eimg[e]
            if p:
                assert g.is_path(p), f"image of edge {e} is not a path"
                assert g.init_of(p[0]) == self.vimg[g.init_of(e)]
                assert g.term_of(p[-1]) == self.vimg[g.term_of(e)]
            else:
                assert self.vimg[g.init_of(e)] == self.vimg[g.term_of(e)]
        for m in self.marking:
            assert g.is_path(m) and g.init_of(m[0]) == g.base \
                and g.term_of(m[-1]) == g.base

    # -- pullback to F ----------------------------------------------------------

    def path_to_word(self, path: Sequence[int]) -> Word:
        """Pull a loop back through every move; on the rose, edge ids are
        the ambient generators."""
        path = reduce_word(path)
        for record, prev in zip(reversed(self.history), reversed(self.prev_graphs)):
            path = record.pull(path, prev)
        return reduce_word(path)

    def loop_at_base(self, path: Sequence[int]) -> EdgePath:
        """Close a path into a base loop along shortest connectors."""
        if not path:
            return ()
        g = self.graph
        head = g.shortest_path(g.base, g.init_of(path[0]))
        tail = g.shortest_path(g.term_of(path[-1]), g.base)
        return reduce_word(tuple(head) + tuple(path) + tuple(tail))

    def induced_generator_image(self, gen: int) -> Word:
        """Word of f(marking loop), conjugated back to the base point."""
        g = self.graph
        img = self.map_path(self.marking[gen - 1])
        q = g.shortest_path(g.base, self.vimg[g.base])
        return self.path_to_word(reduce_word(tuple(q) + img + tuple(-x for x in reversed(q))))

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def rose(endo: Endomorphism) -> "GraphMap":
        """One vertex, one edge per generator, edge images spelling the
        generator images."""
        r = endo.rank
        graph = MarkedGraph(1, {i: (0, 0) for i in range(1, r + 1)},
                            {i: 1.0 for i in range(1, r + 1)})
        eimg = {i: tuple(endo.images[i - 1]) for i in range(1, r + 1)}
        marking = tuple((i,) for i in range(1, r + 1))
        return GraphMap(graph, {0: 0}, eimg, marking, r)

    def _derive(self, graph, vimg, eimg, marking, record) -> "GraphMap":
        return GraphMap(graph, vimg, eimg, marking, self.rank,
                        self.history + (record,), self.prev_graphs + (self.graph,))

    # -- moves --------------------------------------------------------------------

    def tighten(self) -> "GraphMap":
        eimg = {e: reduce_word(p) for (e, p) in self.eimg.items()}
        return GraphMap(self.graph, self.vimg, eimg, self.marking, self.rank,
                        self.history, self.prev_graphs)

    def subdivide(self, edge: int, k: int) -> "GraphMap":
        """Split edge at the point mapping to position k of its image path;
        0 <= k <= len(image) is allowed, the extreme values giving a
        trivial-image half."""
        g = self.graph
        p = self.eimg[edge]
        if not 0 <= k <= len(p):
            raise ValueError("subdivision point outside the image path")
        e1 = max(g.edges) + 1
        e2 = e1 + 1
        w = g.nv
        (a, b) = g.edges[edge]
        new_edges = dict(g.edges)
        del new_edges[edge]
        new_edges[e1] = (a, w)
        new_edges[e2] = (w, b)
        total = max(g.lengths[edge], 1e-12)
        head_len = self.graph.path_length(p[:k])
        full_len = max(self.graph.path_length(p), 1e-12)
        ratio = head_len / full_len if p else 0.5
        new_lengths = dict(g.lengths)
        del new_lengths[edge]
        new_lengths[e1] = total * ratio
        new_lengths[e2] = total * (1 - ratio)

        def sub(path):
            out = []
            for e in path:
                if e == edge:
                    out.extend((e1, e2))
                elif e == -edge:
                    out.extend((-e2, -e1))
                else:
                    out.append(e)
            return tuple(out)

        eimg = {e: sub(q) for (e, q) in self.eimg.items() if e != edge}
        eimg[e1] = sub(p[:k])
        eimg[e2] = sub(p[k:])
        vimg = dict(self.vimg)
        vimg[w] = self.graph.term_of(p[k - 1]) if k > 0 else self.vimg[a]
        # vertex images live in the old graph; translate through sub()
        # only edge paths need translation, vertices persist
        marking = tuple(sub(m) for m in self.marking)
        graph = MarkedGraph(g.nv + 1, new_edges, new_lengths, g.base)
        record = _SubstRecord({e1: (edge,), e2: ()}, push={edge: (e1, e2)})
        gm = self._derive(graph, vimg, eimg, marking, record)
        return gm

    def fold(self, d1: int, d2: int) -> "GraphMap":
        """Identify two distinct oriented edges with the same initial vertex
        and identical image paths.  Rejects folds that would drop the rank
        (parallel edges), which cannot occur for injective maps.  The
        highest vertex takes the removed vertex's id, so ids stay
        0..nv-1."""
        g = self.graph
        if abs(d1) == abs(d2):
            raise ValueError("cannot fold an edge with itself")
        if g.init_of(d1) != g.init_of(d2):
            raise ValueError("fold requires a common initial vertex")
        if self.image_of_edge(d1) != self.image_of_edge(d2):
            raise ValueError("full fold requires equal image paths")
        v1, v2 = g.term_of(d1), g.term_of(d2)
        if v1 == v2:
            raise ValueError("parallel fold would drop the graph rank")
        e_rem = abs(d2)
        last = g.nv - 1

        def remap_v(v):
            if v == v2:
                v = v1
            return v2 if v == last else v

        def sub(path):
            out = []
            for e in path:
                if e == d2:
                    out.append(d1)
                elif e == -d2:
                    out.append(-d1)
                else:
                    out.append(e)
            return reduce_word(out)

        new_edges = {}
        for e, (a, b) in g.edges.items():
            if e == e_rem:
                continue
            new_edges[e] = (remap_v(a), remap_v(b))
        new_lengths = {e: l for (e, l) in g.lengths.items() if e != e_rem}
        eimg = {e: sub(p) for (e, p) in self.eimg.items() if e != e_rem}
        vimg = {remap_v(v): remap_v(img) for (v, img) in self.vimg.items()
                if v != v2}
        marking = tuple(sub(m) for m in self.marking)
        base = remap_v(g.base)
        graph = MarkedGraph(g.nv - 1, new_edges, new_lengths, base)
        # the record pulls paths back in the previous graph's vertex ids
        connector = (-d2, d1)   # path v2 -> v1 in the previous graph
        push = {e_rem: (d1,) if d2 > 0 else (-d1,)}
        record = _JumpRecord({}, v1, v2, connector, g.base, push)
        gm = self._derive(graph, vimg, eimg, marking, record)
        return gm

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
        rep_of = {v: find(v) for v in range(g.nv)}

        def sub(path):
            return reduce_word(tuple(e for e in path if abs(e) not in edge_set))

        new_edges = {e: (rep_of[a], rep_of[b]) for e, (a, b) in g.edges.items()
                     if e not in edge_set}
        new_lengths = {e: l for (e, l) in g.lengths.items() if e not in edge_set}
        survivors = sorted({rep_of[v] for v in range(g.nv)})
        renum = {v: i for i, v in enumerate(survivors)}
        new_edges = {e: (renum[a], renum[b]) for e, (a, b) in new_edges.items()}
        eimg = {e: sub(p) for (e, p) in self.eimg.items() if e not in edge_set}
        vimg = {}
        for v in survivors:
            vimg[renum[v]] = renum[rep_of[self.vimg[v]]]
        marking = tuple(sub(m) for m in self.marking)
        graph = MarkedGraph(len(survivors), new_edges, new_lengths,
                            renum[rep_of[g.base]])
        record = _ForestRecord(edge_set, rep_of, g.base)
        # account for the renumbering inside the record pull: pulled paths are
        # in the previous graph already, so renumbering does not affect them
        gm = self._derive(graph, vimg, eimg, marking, record)
        return gm

    def remove_valence_two(self, v: int) -> "GraphMap":
        """Merge the two edges at a valence-two vertex into one."""
        g = self.graph
        if v == g.base:
            raise ValueError("will not remove the base vertex")
        dirs = [d for d in g.all_directions() if g.init_of(d) == v]
        if len(dirs) != 2 or abs(dirs[0]) == abs(dirs[1]):
            raise ValueError("vertex is not a clean valence-two point")
        if any(img == v for img in self.vimg.values()):
            raise ValueError("a vertex maps to the removed point")
        d_in, d_out = -dirs[0], dirs[1]   # d_in ends at v, d_out leaves v
        for p in list(self.eimg.values()) + list(self.marking):
            if p and (g.init_of(p[0]) == v or g.term_of(p[-1]) == v):
                raise ValueError("an image path ends at the removed point")
        enew = max(g.edges) + 1
        new_edges = dict(g.edges)
        del new_edges[abs(d_in)]
        del new_edges[abs(d_out)]
        new_edges[enew] = (g.init_of(d_in), g.term_of(d_out))
        new_lengths = dict(g.lengths)
        le = new_lengths.pop(abs(d_in)) + new_lengths.pop(abs(d_out))
        new_lengths[enew] = le

        def sub(path):
            out = []
            i = 0
            path = list(path)
            while i < len(path):
                if path[i] == d_in and i + 1 < len(path) and path[i + 1] == d_out:
                    out.append(enew)
                    i += 2
                elif path[i] == -d_out and i + 1 < len(path) and path[i + 1] == -d_in:
                    out.append(-enew)
                    i += 2
                elif abs(path[i]) in (abs(d_in), abs(d_out)):
                    raise ValueError("image path passes the vertex irregularly")
                else:
                    out.append(path[i])
                    i += 1
            return tuple(out)

        eimg = {e: sub(p) for (e, p) in self.eimg.items()
                if e not in (abs(d_in), abs(d_out))}
        eimg[enew] = sub(reduce_word(self.image_of_edge(d_in) + self.image_of_edge(d_out)))
        vimg = {w: img for (w, img) in self.vimg.items() if w != v}
        marking = tuple(sub(m) for m in self.marking)
        # vertices keep their numbers; nv shrinks only nominally
        graph = MarkedGraph(g.nv, new_edges, new_lengths, g.base)
        record = _SubstRecord({enew: (d_in, d_out)}, push=None)
        return self._derive(graph, vimg, eimg, marking, record)


# ---------------------------------------------------------------------------
# transition data
# ---------------------------------------------------------------------------

@dataclass
class TransitionData:
    edge_order: tuple
    matrix: tuple          # matrix[i][j] = times f(e_i) crosses e_j
    lam: float
    eigenmetric: Optional[tuple]   # positive lengths with M v = lam v, sum 1
    irreducible: bool
    expanding: bool
    residual: float

    def as_lists(self):
        return [list(r) for r in self.matrix]


def _strongly_connected(matrix) -> bool:
    n = len(matrix)
    if n == 0:
        return True

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if adj[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    return reach(matrix) and reach([[matrix[j][i] for j in range(n)] for i in range(n)])


def _char_poly(matrix):
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
    coeffs = _char_poly(matrix)

    def val(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * x + c
        return acc

    lo = Fraction(lam - eps).limit_denominator(10 ** 12)
    hi = Fraction(lam + eps).limit_denominator(10 ** 12)
    vlo, vhi = val(lo), val(hi)
    return vlo == 0 or vhi == 0 or (vlo < 0) != (vhi < 0)


def transition_matrix(gm: GraphMap) -> TransitionData:
    order = tuple(gm.graph.edge_ids())
    idx = {e: i for i, e in enumerate(order)}
    n = len(order)
    m = [[0] * n for _ in range(n)]
    for e in order:
        for x in gm.eimg[e]:
            m[idx[e]][idx[abs(x)]] += 1
    matrix = tuple(tuple(r) for r in m)
    irreducible = _strongly_connected(matrix)
    # the nonzero (j, m_ij) of each row in increasing j: the entries are
    # nonnegative, so leaving out the exact 0 * v[j] terms of a sum, in
    # the same order, leaves its bits unchanged
    rows = [[(j, x) for j, x in enumerate(r) if x] for r in m]

    # power iteration on M + I (primitive when M is irreducible)
    v = [1.0] * n
    lam = 0.0
    if n:
        for _ in range(2000):
            w = [sum(x * v[j] for j, x in row) + v[i] for i, row in enumerate(rows)]
            s = sum(w)
            if s == 0:
                break
            w = [x / s for x in w]
            if max(abs(w[i] - v[i]) for i in range(n)) < 1e-16:
                v = w
                break
            v = w
        mv = [sum(x * v[j] for j, x in row) for row in rows]
        denom = sum(x * x for x in v)
        lam = sum(mv[i] * v[i] for i in range(n)) / denom if denom else 0.0
        if abs(lam - round(lam)) < 1e-12:
            lam = float(round(lam))
    eigenmetric = None
    residual = float("inf")
    if n and irreducible and min(v) > 0:
        total = sum(v)
        eigenmetric = tuple(x / total for x in v)
        mv = [sum(x * eigenmetric[j] for j, x in row) for row in rows]
        residual = max(abs(mv[i] - lam * eigenmetric[i]) for i in range(n))
    expanding = irreducible and lam > 1 + 1e-9
    return TransitionData(order, matrix, lam, eigenmetric, irreducible,
                          expanding, residual)


def with_eigenmetric(gm: GraphMap) -> tuple:
    """Return (graph map with edge lengths set to the eigenmetric, data)."""
    data = transition_matrix(gm)
    if data.eigenmetric is None:
        return gm, data
    lengths = {e: data.eigenmetric[i] for i, e in enumerate(data.edge_order)}
    graph = MarkedGraph(gm.graph.nv, dict(gm.graph.edges), lengths, gm.graph.base)
    out = GraphMap(graph, gm.vimg, gm.eimg, gm.marking, gm.rank,
                   gm.history, gm.prev_graphs)
    return out, data


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
    piece_ids: dict = {}
    piece_pos: dict = {}      # edge -> boundary positions [0, ..., length]
    new_edges = {}
    new_lengths = {}
    for e in g.edge_ids():
        (a, b) = g.edges[e]
        ps = cuts.get(e, [])
        bounds = [0.0] + ps + [g.lengths[e]]
        verts = [a] + list(range(nv, nv + len(ps))) + [b]
        nv += len(ps)
        ids = [e]
        if ps:
            ids = list(range(next_id, next_id + len(bounds) - 1))
            next_id = ids[-1] + 1
        for i, eid in enumerate(ids):
            new_edges[eid] = (verts[i], verts[i + 1])
            new_lengths[eid] = bounds[i + 1] - bounds[i]
        piece_ids[e] = ids
        piece_pos[e] = bounds
    graph = MarkedGraph(nv, new_edges, new_lengths, g.base)

    def expand(path):
        out = []
        for x in path:
            ids = piece_ids[abs(x)]
            out.extend(ids if x > 0 else [-i for i in reversed(ids)])
        return out

    # slice each expanded image at the images of the piece boundaries; a
    # cut vertex maps to the point where its piece's image slice begins
    eimg = {}
    vimg = dict(gm.vimg)
    for e in g.edge_ids():
        img = expand(gm.eimg[e])
        acc = list(accumulate((new_lengths[abs(x)] for x in img), initial=0.0))
        total = acc[-1]
        scale = total / g.lengths[e] if g.lengths[e] > 0 else 0.0
        idxs = []
        for p in piece_pos[e]:
            t = p * scale
            j = min(range(len(acc)), key=lambda i: abs(acc[i] - t))
            if abs(acc[j] - t) > 1e-5 * max(1.0, total):
                raise ValueError("cut set is not closed under the map")
            idxs.append(j)
        ids = piece_ids[e]
        for k, eid in enumerate(ids):
            eimg[eid] = tuple(img[idxs[k]:idxs[k + 1]])
            if k:
                j = idxs[k]
                vimg[new_edges[eid][0]] = graph.term_of(img[j - 1]) if j \
                    else gm.vimg[g.edges[e][0]]

    marking = tuple(tuple(expand(m)) for m in gm.marking)
    subst = {}
    for e, ids in piece_ids.items():
        if ids == [e]:
            continue
        subst[ids[0]] = (e,)
        for eid in ids[1:]:
            subst[eid] = ()
    record = _SubstRecord(
        subst, push={e: tuple(ids) for e, ids in piece_ids.items() if ids != [e]})
    return GraphMap(graph, vimg, eimg, marking, gm.rank,
                    gm.history + (record,), gm.prev_graphs + (gm.graph,))


def transport_path(gm_new: GraphMap, start_index: int, path) -> EdgePath:
    """Push a path forward through the moves recorded from start_index on;
    only substitution-style moves (subdivide, fold, collapse, refine)
    support this."""
    path = tuple(path)
    for record in gm_new.history[start_index:]:
        push = getattr(record, "push", None)
        if push is None:
            raise ValueError("move does not support forward transport")
        out = []
        for e in path:
            if abs(e) in push:
                rep = push[abs(e)]
                out.extend(rep if e > 0 else [-x for x in reversed(rep)])
            else:
                out.append(e)
        path = reduce_word(out)
    return path
