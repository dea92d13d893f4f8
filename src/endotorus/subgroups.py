"""Stallings graphs for finitely generated subgroups of a free group.

A subgroup is stored as a folded core graph: vertices, directed edges labeled
by positive generators, base vertex 0.  Graphs are normalized (core-pruned,
BFS-renumbered) on construction, so equal subgroups compare equal.

One fold serves every query: ImageGraph folds the subdivided rose spelling
a list of generator words, and every edge carries a label, the word in the
generators (the petals) that the edge stands for.  Its folded graph is the
Stallings graph (membership, index, intersections), and a loop at its base
reads as the reduced product of its labels.  That is what makes exact
preimages under injective endomorphisms possible: fold the rose spelling
the generator images, intersect with the target subgroup, and read a basis
of the intersection in petal coordinates off the labels.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from endotorus.words import (
    Endomorphism,
    InternalInconsistency,
    Word,
    _ord,
    concat,
    cyclic_reduce,
    invert,
    reduce_word,
)


class SubgroupGraph:
    """Folded core graph of a finitely generated subgroup of F_rank."""

    __slots__ = ("rank", "adj", "base")

    def __init__(self, rank: int, adj: dict, base):
        """adj: {vertex: {signed letter: vertex}}, both directions present.
        Normalizes in place: restrict to the base component, prune hanging
        trees, renumber by BFS."""
        self.rank = rank
        # restrict to component of base
        keep = {base}
        queue = [base]
        while queue:
            v = queue.pop()
            for w in adj.get(v, {}).values():
                if w not in keep:
                    keep.add(w)
                    queue.append(w)
        adj = {v: dict(adj[v]) for v in keep}
        # core: peel valence<=1 vertices other than the base
        changed = True
        while changed:
            changed = False
            for v in list(adj):
                if v != base and len(adj[v]) <= 1:
                    for l, w in list(adj[v].items()):
                        del adj[w][-l]
                    del adj[v]
                    changed = True
        # canonical BFS renumbering
        order = {base: 0}
        queue = [base]
        while queue:
            v = queue.pop(0)
            for l in sorted(adj[v], key=_ord):
                w = adj[v][l]
                if w not in order:
                    order[w] = len(order)
                    queue.append(w)
        new_adj = [dict() for _ in range(len(order))]
        for v, nbrs in adj.items():
            for l, w in nbrs.items():
                new_adj[order[v]][l] = order[w]
        self.adj = tuple(
            tuple(sorted(d.items(), key=lambda it: _ord(it[0])))
            for d in new_adj
        )
        self.base = 0

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_generators(rank: int, gens: Sequence[Sequence[int]]) -> "SubgroupGraph":
        """Stallings graph of the subgroup the words generate; empty words
        (after free reduction) are ignored."""
        words = [w for w in map(reduce_word, gens) if w]
        return ImageGraph(rank, words).subgroup()

    @staticmethod
    def full_group(rank: int) -> "SubgroupGraph":
        return SubgroupGraph.from_generators(rank, [(i,) for i in range(1, rank + 1)])

    # -- basic queries -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return sum(len(d) for d in self.adj) // 2

    def graph_rank(self) -> int:
        return self.num_edges - self.num_vertices + 1

    def is_trivial(self) -> bool:
        return self.num_edges == 0

    def step(self, v: int, letter: int) -> Optional[int]:
        for l, w in self.adj[v]:
            if l == letter:
                return w
        return None

    def trace(self, word: Sequence[int], start: int = 0) -> Optional[int]:
        v = start
        for x in word:
            v = self.step(v, x)
            if v is None:
                return None
        return v

    def contains(self, word: Sequence[int]) -> bool:
        """Membership: the reduced word traces a loop at the base."""
        return self.trace(reduce_word(word)) == 0

    def index(self) -> Optional[int]:
        """Finite index iff the graph is a complete cover of the rose."""
        full = 2 * self.rank
        if all(len(d) == full for d in self.adj):
            return self.num_vertices
        return None

    def used_letters(self) -> set:
        return {abs(l) for d in self.adj for (l, _) in d}

    # -- basis ----------------------------------------------------------------

    def spanning_paths(self) -> list:
        """Reduced word from the base to each vertex along a BFS tree."""
        paths: list = [None] * self.num_vertices
        paths[0] = ()
        queue = [0]
        while queue:
            v = queue.pop(0)
            for l, w in self.adj[v]:
                if paths[w] is None:
                    paths[w] = paths[v] + (l,)
                    queue.append(w)
        return paths

    def basis(self) -> list:
        """Free basis from the BFS spanning tree, deterministic order."""
        paths = self.spanning_paths()
        tree_edges = set()
        for v, p in enumerate(paths):
            if p:
                l = p[-1]
                u = self.trace(p[:-1])
                tree_edges.add((u, l, v) if l > 0 else (v, -l, u))
        out = []
        for v in range(self.num_vertices):
            for l, w in self.adj[v]:
                if l < 0:
                    continue
                if (v, l, w) in tree_edges:
                    continue
                out.append(concat(paths[v], (l,), invert(paths[w])))
        return out

    # -- operations -----------------------------------------------------------

    def intersect(self, other: "SubgroupGraph") -> "SubgroupGraph":
        """Fiber product over edge labels, base component."""
        if self.rank != other.rank:
            raise ValueError("ambient rank mismatch")
        start = (0, 0)
        seen = {start: 0}
        adj: dict = {0: {}}
        queue = [start]
        while queue:
            (p, q) = queue.pop(0)
            v = seen[(p, q)]
            for l, p2 in self.adj[p]:
                q2 = other.step(q, l)
                if q2 is None:
                    continue
                key = (p2, q2)
                if key not in seen:
                    seen[key] = len(seen)
                    adj[seen[key]] = {}
                    queue.append(key)
                adj[v][l] = seen[key]
        return SubgroupGraph(self.rank, adj, 0)

    # -- identity --------------------------------------------------------------

    def canonical_key(self) -> tuple:
        return (self.rank, self.adj)

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgroupGraph) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"SubgroupGraph(rank={self.rank}, V={self.num_vertices}, E={self.num_edges})"


def stallings(rank: int, gens: Sequence[Sequence[int]]) -> SubgroupGraph:
    return SubgroupGraph.from_generators(rank, gens)


# ---------------------------------------------------------------------------
# labeled folding: image graphs, preimages, rewriting
# ---------------------------------------------------------------------------

class ImageGraph:
    """The subdivided rose with one petal per generator word, folded.  Every
    edge carries a label, a reduced word in the petals (for an
    endomorphism's images: the domain generators); before any fold the
    first edge of petal i is labeled i and the others 1.  A fold merges two
    vertices and moves the labels at the removed one so that every loop at
    the base keeps its word, which is the reduced product of its labels.
    The folded graph is the Stallings graph of the generated subgroup
    (membership, index, intersections), and its labels rewrite each element
    in petal coordinates."""

    def __init__(self, rank: int, gens: Sequence[Word]):
        self.rank = rank
        self.gens = tuple(gens)
        self.edges: dict = {}    # eid -> (u, letter, v)
        self.labels: dict = {}   # eid -> petal word along the letter
        nv = 1
        eid = 0
        for pi, im in enumerate(gens):
            if not im:
                raise ValueError("generator image must be nontrivial")
            prev = 0
            for j, x in enumerate(im):
                nxt = 0 if j == len(im) - 1 else nv
                if j != len(im) - 1:
                    nv += 1
                petal = (pi + 1,) if j == 0 else ()
                if x > 0:
                    self.edges[eid] = (prev, x, nxt)
                    self.labels[eid] = petal
                else:
                    self.edges[eid] = (nxt, -x, prev)
                    self.labels[eid] = invert(petal)
                prev = nxt
                eid += 1
        self.base = 0
        # the words freely generate their subgroup iff no fold is parallel;
        # free groups are Hopfian, so an endomorphism embeds iff its image
        # subgroup has full rank
        self.injective = True
        self._fold()
        # {vertex: {signed letter: (vertex, eid, sign)}} of the folded graph
        self.adj: dict = {self.base: {}}
        for e, (u, l, v) in self.edges.items():
            self.adj.setdefault(u, {})[l] = (v, e, +1)
            self.adj.setdefault(v, {})[-l] = (u, e, -1)

    def _fold(self):
        """Fold the first clash in edge order until none is left.  The
        removed vertex's edges move to the kept one: with c the word of the
        connector from removed to kept, an edge gets h(a) . label . h(b)^-1
        with h(removed) = c^-1, or h(kept) = c when the base is removed, so
        base loops are never conjugated."""
        edges, labels = self.edges, self.labels
        while True:
            out: dict = {}
            inn: dict = {}
            clash = None
            for e in sorted(edges):
                (u, l, v) = edges[e]
                if (u, l) in out:
                    clash = (out[(u, l)], e, True)
                    break
                if (v, l) in inn:
                    clash = (inn[(v, l)], e, False)
                    break
                out[(u, l)] = e
                inn[(v, l)] = e
            if clash is None:
                return
            (e1, e2, outgoing) = clash
            (u1, _, v1) = edges[e1]
            (u2, _, v2) = edges.pop(e2)
            w2 = labels.pop(e2)
            if outgoing:
                kept, removed = v1, v2
                c = concat(invert(w2), labels[e1])
            else:
                kept, removed = u1, u2
                c = concat(w2, invert(labels[e1]))
            if kept == removed:
                self.injective = False   # the fold drops the graph rank
                continue
            if removed == self.base:
                (h, self.base) = ({kept: c}, kept)
            else:
                h = {removed: invert(c)}
            for e, (u, l, v) in edges.items():
                if u in h or v in h:
                    labels[e] = concat(h.get(u, ()), labels[e], invert(h.get(v, ())))
                if u == removed or v == removed:
                    edges[e] = (kept if u == removed else u, l,
                                kept if v == removed else v)

    def subgroup(self) -> SubgroupGraph:
        """The generated subgroup as a plain SubgroupGraph."""
        adj = {v: {l: w for l, (w, _, _) in nbrs.items()}
               for v, nbrs in self.adj.items()}
        return SubgroupGraph(self.rank, adj, self.base)

    # -- rewriting ---------------------------------------------------------------

    def loop_word(self, path) -> Word:
        """The petal word w of a loop [(eid, sign), ...] at the base, read
        off its labels.  Checked exactly: the generator words must spell
        the loop's own letters when substituted into w."""
        w = reduce_word(x for (e, s) in path
                        for x in (self.labels[e] if s > 0 else invert(self.labels[e])))
        letters = reduce_word(self.edges[e][1] * s for (e, s) in path)
        spelled = reduce_word(y for x in w for y in (
            self.gens[x - 1] if x > 0 else invert(self.gens[-x - 1])))
        if spelled != letters:
            raise InternalInconsistency("edge labels do not spell the loop")
        return w

    def express(self, h: Sequence[int]) -> Word:
        """For h in the image subgroup of an injective endo, the unique w with
        phi(w) = h."""
        if not self.injective:
            raise ValueError("rewriting requires an injective endomorphism")
        v = self.base
        path = []
        for x in reduce_word(h):
            if x not in self.adj[v]:
                raise ValueError("element is not in the image subgroup")
            (v, e, s) = self.adj[v][x]
            path.append((e, s))
        if v != self.base:
            raise ValueError("element is not in the image subgroup")
        return self.loop_word(path)


def is_injective(endo: Endomorphism) -> bool:
    """Whether phi embeds F in itself; a generator sent to 1 is in the
    kernel."""
    if not all(endo.images):
        return False
    return ImageGraph(endo.rank, endo.images).injective


def invert_automorphism(endo: Endomorphism) -> Endomorphism:
    """Inverse of an automorphism, by rewriting each generator in the image
    basis through the edge labels."""
    ig = ImageGraph(endo.rank, endo.images)
    sub = ig.subgroup()
    if not (ig.injective and sub.index() == 1):
        raise ValueError("not an automorphism")
    images = tuple(ig.express((i,)) for i in range(1, endo.rank + 1))
    inv = Endomorphism(endo.rank, images)
    return inv


def preimage(endo: Endomorphism, G: SubgroupGraph) -> SubgroupGraph:
    """Stallings graph of phi^{-1}(<G>).

    For injective phi: intersect the image subgroup with G, then read a
    basis of the intersection in the domain generators off the edge labels.
    A non-injective phi is only supported in the degenerate case where
    every generator image already lies in <G> (then the preimage is all of
    F); otherwise the preimage need not be finitely generated.
    """
    if all(G.contains(im) for im in endo.images):
        return SubgroupGraph.full_group(endo.rank)
    ig = ImageGraph(endo.rank, endo.images)
    if not ig.injective:
        raise ValueError("preimage for non-injective maps is only defined "
                         "when the whole image lies in the subgroup")
    # phi^-1(G) = phi^-1(phi(F) & G), and phi is a bijection onto phi(F)
    gens = [ig.express(w) for w in ig.subgroup().intersect(G).basis()]
    return SubgroupGraph.from_generators(endo.rank, gens)


# ---------------------------------------------------------------------------
# free factors and rank-one systems (Whitehead's cut-vertex lemma)
# ---------------------------------------------------------------------------

class FreeFactorResult(NamedTuple):
    status: str                    # "contained" | "not_contained"
    factor: Optional[list] = None  # basis of a proper free factor containing G

    @property
    def contained(self) -> bool:
        return self.status == "contained"


def _whitehead_move(rank: int, v: int, y: set) -> Endomorphism:
    """The Whitehead automorphism (Y, v) of Lyndon-Schupp, with v in Y and
    -v not in Y: g maps to v^-eps(-g in Y) g v^eps(g in Y), v fixed."""
    images = []
    for g in range(1, rank + 1):
        if g == abs(v):
            images.append((g,))
            continue
        img = []
        if -g in y:
            img.append(-v)
        img.append(g)
        if g in y:
            img.append(v)
        images.append(reduce_word(img))
    return Endomorphism(rank, tuple(images))


def whitehead_graph(rank: int, junctions) -> dict:
    """Nodes are the signed letters; each junction, a list of the germs that
    leave one point, contributes the complete graph on them.  The points are
    the vertices of a core graph, or the junctions (-w[i-1], w[i]) of
    cyclic words."""
    nbrs: dict = {x: set() for i in range(1, rank + 1) for x in (i, -i)}
    for germs in junctions:
        for i, g1 in enumerate(germs):
            for g2 in germs[i + 1:]:
                nbrs[g1].add(g2)
                nbrs[g2].add(g1)
    return nbrs


def _reach(nbrs: dict, starts, removed: int) -> set:
    """The nodes joined to `starts` in the graph without the node
    `removed`."""
    seen = set(starts)
    queue = list(seen)
    while queue:
        for w in nbrs[queue.pop()] - seen - {removed}:
            seen.add(w)
            queue.append(w)
    return seen


def _cut_vertex_move(rank: int, nbrs: dict) -> Optional[Endomorphism]:
    """The move of the rule in `free_factor_containment` on the Whitehead
    graph `nbrs`, or None when no germ c has a nonempty S."""
    for c in sorted(nbrs, key=_ord):
        s = _reach(nbrs, nbrs[c], c) - _reach(nbrs, {-c}, c)
        if s:
            return _whitehead_move(rank, -c, {-x for x in s | {c}})
    return None


def _cyclic_core(G: SubgroupGraph) -> tuple:
    """(core, u) with <G> = u <core> u^-1: the base moved along its hair, the
    path u, to the first vertex of the cyclic core."""
    (v, u) = (0, ())
    while len(G.adj[v]) - (1 if u else 0) == 1:
        (l, v) = next((l, w) for (l, w) in G.adj[v] if not u or l != -u[-1])
        u += (l,)
    if not u:
        return G, u
    adj = {x: dict(nbrs) for x, nbrs in enumerate(G.adj)}
    return SubgroupGraph(G.rank, adj, v), u


def free_factor_containment(G: SubgroupGraph) -> FreeFactorResult:
    """Whether <G> lies in a proper free factor of F, exactly.

    The test runs on the cyclic core: its base path u is peeled off and the
    inner automorphism by u^-1 composed into alpha, so the core is always
    the Stallings graph of alpha(<G>).  Then, at each step:
    - letters missing from the core: "contained", with the factor basis
      alpha^-1 of the used letters, which is membership-checkable;
    - no germ c has a nonempty S, the union of the components of Wh - c
      that touch c and do not hold c^-1: "not_contained", because the
      Whitehead graph Wh is then connected without cut vertex (a core that
      uses every letter has no disconnected Wh whose components are all
      closed under inversion);
    - otherwise the Whitehead move cut out at the first such c, in `_ord`
      order.  `whitehead_graph` joins the germs leaving each vertex, which
      is the Lyndon-Schupp graph with every letter inverted, so the move
      has multiplier c^-1 and cut -({c} | S).
    By Whitehead's cut-vertex lemma (Stallings 1999; Heusener-Weidmann
    2019) each move strictly shrinks the core, so the loop ends; a move
    that does not raises InternalInconsistency.
    """
    rank = G.rank
    if G.is_trivial():
        return FreeFactorResult("contained", [(1,)])
    (G, u) = _cyclic_core(G)
    alpha = Endomorphism.inner(rank, invert(u))
    while True:
        used = G.used_letters()
        if len(used) < rank:
            inv = invert_automorphism(alpha)
            return FreeFactorResult("contained",
                                    [inv.apply((l,)) for l in sorted(used)])
        move = _cut_vertex_move(rank, whitehead_graph(
            rank, [[l for (l, _) in nbrs] for nbrs in G.adj]))
        if move is None:
            return FreeFactorResult("not_contained")
        (H, u) = _cyclic_core(stallings(rank, [move.apply(w) for w in G.basis()]))
        if H.num_edges >= G.num_edges:
            raise InternalInconsistency(
                "a cut-vertex Whitehead move did not shrink the core")
        alpha = Endomorphism.inner(rank, invert(u)).compose(move.compose(alpha))
        G = H


def rank_one_system(rank: int, classes) -> bool:
    """Whether the conjugacy classes generate a system of rank-one free
    factors, exactly: the rule of `free_factor_containment` on the
    Whitehead graph of the cyclic words, until every word is a single
    letter (a system iff the letters are distinct generators) or no germ
    has a nonempty cut (not a system).  Each move strictly shrinks the
    total length; one that does not raises InternalInconsistency."""
    words = [cyclic_reduce(w) for w in classes]
    while not all(len(w) == 1 for w in words):
        move = _cut_vertex_move(rank, whitehead_graph(
            rank, [(-w[i - 1], w[i]) for w in words for i in range(len(w))]))
        if move is None:
            return False
        moved = [cyclic_reduce(move.apply(w)) for w in words]
        if sum(map(len, moved)) >= sum(map(len, words)):
            raise InternalInconsistency(
                "a cut-vertex Whitehead move did not shrink the classes")
        words = moved
    letters = {abs(w[0]) for w in words}
    return len(letters) == len(words)
