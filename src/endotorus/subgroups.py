"""Stallings graphs for finitely generated subgroups of a free group.

A subgroup is stored as a folded core graph: vertices, directed edges labeled
by positive generators, base vertex 0.  Graphs are normalized (core-pruned,
BFS-renumbered) on construction, so equal subgroups compare equal.

One fold serves every query: ImageGraph folds the subdivided rose spelling
a list of generator words and records each identification.  Its folded
graph is the Stallings graph (membership, index, intersections), and its
history pulls paths back through the fold sequence.  That is what makes
exact preimages under injective endomorphisms possible: fold the rose
spelling the generator images, intersect with the target subgroup, and
rewrite a basis of the intersection in petal coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from endotorus.words import (
    Endomorphism,
    Word,
    _ord,
    concat,
    cyclic_canonical,
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

    @staticmethod
    def trivial(rank: int) -> "SubgroupGraph":
        return SubgroupGraph.from_generators(rank, [])

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

    def conjugated(self, x: Sequence[int]) -> "SubgroupGraph":
        """Graph of x <self> x^-1."""
        x = reduce_word(x)
        return SubgroupGraph.from_generators(
            self.rank, [concat(x, w, invert(x)) for w in self.basis()])

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
# folding with history: image graphs, preimages, rewriting
# ---------------------------------------------------------------------------

@dataclass
class _FoldRecord:
    kept_edge: int
    removed_edge: int
    kept_v: int      # vertex representative surviving the merge (time-local)
    removed_v: int
    connector: tuple  # path removed_v -> kept_v in the before graph
    parallel: bool    # endpoints already equal: the fold drops graph rank


class ImageGraph:
    """The subdivided rose with one petal per generator word, folded with a
    full record of identifications.  Supports membership in the subgroup the
    words generate and exact rewriting of its elements in petal
    coordinates (for an endomorphism's images: in the domain generators)."""

    def __init__(self, rank: int, gens: Sequence[Word]):
        self.rank = rank
        nv = 1
        self.edge_ends: dict = {}    # eid -> (u, letter, v) at creation time
        self.petal_of: dict = {}     # eid -> (petal index, position)
        self.petal_sign: dict = {}   # +1 if the petal runs along the edge
        self.petal_len: list = []
        eid = 0
        edges = []
        for pi, im in enumerate(gens):
            if not im:
                raise ValueError("generator image must be nontrivial")
            prev = 0
            for j, x in enumerate(im):
                nxt = 0 if j == len(im) - 1 else nv
                if j != len(im) - 1:
                    nv += 1
                if x > 0:
                    self.edge_ends[eid] = (prev, x, nxt)
                    self.petal_sign[eid] = +1
                else:
                    self.edge_ends[eid] = (nxt, -x, prev)
                    self.petal_sign[eid] = -1
                self.petal_of[eid] = (pi, j)
                edges.append(eid)
                prev = nxt
                eid += 1
            self.petal_len.append(len(im))
        self.records: list = []
        self._merge_parent: dict = {}  # vertex -> (kept vertex, record index)
        self._fold(edges)

    # vertex representative after the first t records
    def _rep(self, x: int, t: int) -> int:
        while x in self._merge_parent and self._merge_parent[x][1] < t:
            x = self._merge_parent[x][0]
        return x

    def _ends_at(self, eid: int, t: int) -> tuple:
        (u, l, v) = self.edge_ends[eid]
        return (self._rep(u, t), l, self._rep(v, t))

    def _fold(self, edges):
        alive = set(edges)
        while True:
            t = len(self.records)
            out: dict = {}
            inn: dict = {}
            clash = None
            for e in sorted(alive):
                (u, l, v) = self._ends_at(e, t)
                if (u, l) in out:
                    clash = ("out", out[(u, l)], e)
                    break
                if (v, l) in inn:
                    clash = ("in", inn[(v, l)], e)
                    break
                out[(u, l)] = e
                inn[(v, l)] = e
            if clash is None:
                self.alive = alive
                break
            kind, e1, e2 = clash
            (u1, l, v1) = self._ends_at(e1, t)
            (u2, _, v2) = self._ends_at(e2, t)
            if kind == "out":
                kept_v, removed_v = v1, v2
                connector = ((e2, -1), (e1, +1))
            else:
                kept_v, removed_v = u1, u2
                connector = ((e2, +1), (e1, -1))
            parallel = kept_v == removed_v
            rec = _FoldRecord(e1, e2, kept_v, removed_v, connector, parallel)
            alive.discard(e2)
            if not parallel:
                self._merge_parent[removed_v] = (kept_v, t)
            self.records.append(rec)

    # -- final folded graph ----------------------------------------------------

    def final_time(self) -> int:
        return len(self.records)

    def folded_adjacency(self) -> dict:
        """{vertex: {signed letter: (vertex, eid, sign)}} of the folded graph."""
        T = self.final_time()
        fadj: dict = {self._rep(0, T): {}}
        for e in self.alive:
            (u, l, v) = self._ends_at(e, T)
            fadj.setdefault(u, {})[l] = (v, e, +1)
            fadj.setdefault(v, {})[-l] = (u, e, -1)
        return fadj

    def image_rank(self) -> int:
        T = self.final_time()
        verts = {self._rep(0, T)}
        for e in self.alive:
            (u, _, v) = self._ends_at(e, T)
            verts.add(u)
            verts.add(v)
        return len(self.alive) - len(verts) + 1

    def is_injective(self) -> bool:
        """Whether the words freely generate their subgroup, iff no fold was
        parallel.  Free groups are Hopfian on rank: an endomorphism embeds
        iff its image subgroup has full rank."""
        return self.image_rank() == len(self.petal_len)

    def subgroup(self) -> SubgroupGraph:
        """The generated subgroup as a plain SubgroupGraph."""
        T = self.final_time()
        adj: dict = {self._rep(0, T): {}}
        for e in self.alive:
            (u, l, v) = self._ends_at(e, T)
            adj.setdefault(u, {})[l] = v
            adj.setdefault(v, {})[-l] = u
        return SubgroupGraph(self.rank, adj, self._rep(0, T))

    # -- pullback --------------------------------------------------------------

    def _tighten(self, path):
        out = []
        for step in path:
            if out and out[-1][0] == step[0] and out[-1][1] == -step[1]:
                out.pop()
            else:
                out.append(step)
        return out

    def _pull_once(self, path, k: int):
        """Path valid after record k becomes a path valid after record k-1..k
        boundary (i.e. before record k), anchored at the base."""
        rec = self.records[k]
        if rec.parallel:
            raise ValueError("pullback through a rank-dropping fold is not sound")
        base_before = self._rep(0, k)

        def ends(step):
            (e, s) = step
            (u, l, v) = self._ends_at(e, k)
            return (u, v) if s > 0 else (v, u)

        def hop(frm, to):
            if frm == rec.removed_v and to == rec.kept_v:
                return list(rec.connector)
            if frm == rec.kept_v and to == rec.removed_v:
                return [(e, -s) for (e, s) in reversed(rec.connector)]
            raise AssertionError("pullback endpoint jump at a non-merged vertex")

        out = []
        cur = base_before
        for step in path:
            (i, t) = ends(step)
            if i != cur:
                out.extend(hop(cur, i))
            out.append(step)
            cur = t
        if cur != base_before:
            out.extend(hop(cur, base_before))
        return self._tighten(out)

    def pull_loop(self, path) -> list:
        """Pull a loop at the folded base all the way back to the unfolded
        rose of petals; returns a petal-path [(eid, sign), ...]."""
        path = self._tighten(list(path))
        for k in range(len(self.records) - 1, -1, -1):
            path = self._pull_once(path, k)
        return path

    def petal_word(self, path) -> Word:
        """Read a loop in the unfolded rose as a word in the domain
        generators (one letter per full petal traversal)."""
        out = []
        i = 0
        while i < len(path):
            (e, s) = path[i]
            (pi, pos) = self.petal_of[e]
            n = self.petal_len[pi]
            forward = s == self.petal_sign[e]
            if i + n > len(path):
                raise AssertionError("partial petal traversal")
            for j in range(n):
                (e2, s2) = path[i + j]
                want = (pi, j) if forward else (pi, n - 1 - j)
                want_sign = self.petal_sign[e2] if forward else -self.petal_sign[e2]
                if self.petal_of[e2] != want or s2 != want_sign:
                    raise AssertionError("broken petal traversal")
            if (pos, forward) not in (((0, True)), ((n - 1, False))):
                raise AssertionError("partial petal traversal")
            out.append(pi + 1 if forward else -(pi + 1))
            i += n
        return reduce_word(out)

    # -- rewriting ---------------------------------------------------------------

    def trace_word(self, word: Sequence[int]):
        """Trace a reduced word in the folded graph from the base; returns the
        edge path [(eid, sign), ...] or None if it leaves the graph."""
        fadj = self.folded_adjacency()
        T = self.final_time()
        v = self._rep(0, T)
        out = []
        for x in reduce_word(word):
            if x not in fadj.get(v, {}):
                return None
            (w, e, s) = fadj[v][x]
            out.append((e, s))
            v = w
        return out, v

    def express(self, h: Sequence[int]) -> Word:
        """For h in the image subgroup of an injective endo, the unique w with
        phi(w) = h."""
        if not self.is_injective():
            raise ValueError("rewriting requires an injective endomorphism")
        traced = self.trace_word(h)
        T = self.final_time()
        if traced is None or traced[1] != self._rep(0, T):
            raise ValueError("element is not in the image subgroup")
        w = self.petal_word(self.pull_loop(traced[0]))
        return w


def is_injective(endo: Endomorphism) -> bool:
    """Whether phi embeds F in itself; a generator sent to 1 is in the
    kernel."""
    if not all(endo.images):
        return False
    return ImageGraph(endo.rank, endo.images).is_injective()


def invert_automorphism(endo: Endomorphism) -> Endomorphism:
    """Inverse of an automorphism, by rewriting each generator in the image
    basis through the fold history."""
    ig = ImageGraph(endo.rank, endo.images)
    sub = ig.subgroup()
    if not (ig.is_injective() and sub.index() == 1):
        raise ValueError("not an automorphism")
    images = tuple(ig.express((i,)) for i in range(1, endo.rank + 1))
    inv = Endomorphism(endo.rank, images)
    return inv


def preimage(endo: Endomorphism, G: SubgroupGraph) -> SubgroupGraph:
    """Stallings graph of phi^{-1}(<G>).

    For injective phi: intersect the image subgroup with G, then rewrite a
    basis of the intersection in the domain generators through the fold
    history.  A non-injective phi is only supported in the degenerate case
    where every generator image already lies in <G> (then the preimage is all
    of F); otherwise the preimage need not be finitely generated.
    """
    if all(G.contains(im) for im in endo.images):
        return SubgroupGraph.full_group(endo.rank)
    ig = ImageGraph(endo.rank, endo.images)
    if not ig.is_injective():
        raise ValueError("preimage for non-injective maps is only defined "
                         "when the whole image lies in the subgroup")
    fadj = ig.folded_adjacency()
    T = ig.final_time()
    s_base = ig._rep(0, T)
    start = (s_base, 0)
    tree: dict = {start: []}
    parent_edge: dict = {start: None}
    queue = [start]
    loops = []
    closed = set()
    while queue:
        (p, q) = queue.pop(0)
        for l in sorted(fadj.get(p, {}), key=_ord):
            (p2, e, s) = fadj[p][l]
            q2 = G.step(q, l)
            if q2 is None:
                continue
            key = (p2, q2)
            if key not in tree:
                tree[key] = tree[(p, q)] + [(e, s)]
                parent_edge[key] = ((p, q), l)
                queue.append(key)
            else:
                if parent_edge.get(key) == ((p, q), l) or \
                        parent_edge.get((p, q)) == (key, -l):
                    continue  # spanning tree edge
                edge_id = frozenset((((p, q), l), (key, -l)))
                if edge_id in closed:
                    continue
                closed.add(edge_id)
                back = [(e2, -s2) for (e2, s2) in reversed(tree[key])]
                loops.append(tree[(p, q)] + [(e, s)] + back)
    gens = [ig.petal_word(ig.pull_loop(lp)) for lp in loops]
    return SubgroupGraph.from_generators(endo.rank, gens)


# ---------------------------------------------------------------------------
# free factor containment (Whitehead descent + cut vertex test)
# ---------------------------------------------------------------------------

@dataclass
class FreeFactorResult:
    status: str                    # "contained" | "not_contained" | "unknown"
    factor: Optional[list] = None  # basis of a proper free factor containing G
    reason: str = ""

    @property
    def contained(self) -> bool:
        return self.status == "contained"


def whitehead_moves(rank: int):
    """Whitehead automorphisms of the second kind: multiplier v, cut Y with
    v in Y, -v not in Y; g maps to v^-eps(-g in Y) g v^eps(g in Y), v fixed."""
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    moves = []
    for v in letters:
        others = [x for x in letters if abs(x) != abs(v)]
        for mask in range(1, 1 << len(others)):
            y = {others[i] for i in range(len(others)) if mask >> i & 1}
            y.add(v)
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
            moves.append(Endomorphism(rank, tuple(images)))
    return moves


def whitehead_graph(G: SubgroupGraph) -> dict:
    """Nodes are the signed letters; each vertex of the core graph contributes
    the complete graph on the letters readable from it."""
    nodes = [x for i in range(1, G.rank + 1) for x in (i, -i)]
    nbrs: dict = {x: set() for x in nodes}
    for v in range(G.num_vertices):
        germs = [l for (l, _) in G.adj[v]]
        for i, g1 in enumerate(germs):
            for g2 in germs[i + 1:]:
                nbrs[g1].add(g2)
                nbrs[g2].add(g1)
    return nbrs


def _connected_without(nbrs: dict, removed=None) -> bool:
    nodes = [x for x in nbrs if x != removed]
    if not nodes:
        return True
    seen = {nodes[0]}
    queue = [nodes[0]]
    while queue:
        v = queue.pop()
        for w in nbrs[v]:
            if w != removed and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(nodes)


def _connected_no_cut_vertex(nbrs: dict) -> bool:
    if not _connected_without(nbrs):
        return False
    return all(_connected_without(nbrs, x) for x in nbrs)


def _sub_basis_factor(used: set, rank: int) -> list:
    return [(i,) for i in sorted(used)]


def free_factor_containment(G: SubgroupGraph, depth: int = 8) -> FreeFactorResult:
    """Bounded test whether <G> lies in a proper free factor of F.

    Sound certificates only: "contained" comes with an explicit factor basis
    (membership-checkable), "not_contained" from a connected cut-vertex-free
    Whitehead graph (or finite index).  Search failure is honest "unknown".
    """
    rank = G.rank
    if rank < 2:
        return FreeFactorResult("not_contained", reason="rank one ambient group")
    if G.is_trivial():
        return FreeFactorResult("contained", [(1,)], "trivial subgroup")
    if G.index() is not None:
        return FreeFactorResult("not_contained",
                                reason="finite index subgroups meet every factor")
    used = G.used_letters()
    if len(used) < rank:
        return FreeFactorResult("contained", _sub_basis_factor(used, rank),
                                "core graph misses a generator")
    if _connected_no_cut_vertex(whitehead_graph(G)):
        return FreeFactorResult("not_contained",
                                reason="Whitehead graph is connected without cut vertex")

    moves = whitehead_moves(rank)
    chain: list = []           # automorphisms applied so far, in order
    gens = G.basis()
    size = G.num_edges
    budget = depth

    def conclude_contained(extra, letters_used):
        alpha = Endomorphism.identity(rank)
        for sigma in chain + extra:
            alpha = sigma.compose(alpha)
        inv = invert_automorphism(alpha)
        factor = [inv.apply((i,)) for i in sorted(letters_used)]
        return FreeFactorResult("contained", factor, "Whitehead descent")

    while budget > 0:
        budget -= 1
        best = None
        for sigma in moves:
            H = stallings(rank, [sigma.apply(w) for w in gens])
            if H.is_trivial():
                return FreeFactorResult("contained", [(1,)], "trivial after move")
            u = H.used_letters()
            if len(u) < rank:
                return conclude_contained([sigma], u)
            if H.num_edges < size and (best is None or H.num_edges < best[0]):
                best = (H.num_edges, sigma, H)
        if best is not None:
            size, sigma, H = best
            chain.append(sigma)
            gens = H.basis()
            continue
        # local minimum: explore the equal-size plateau for a letter-dropping
        # sequence, bounded; certify non-containment if some plateau form has
        # a cut-vertex-free Whitehead graph
        seen = {stallings(rank, gens).canonical_key()}
        frontier = [(gens, [])]
        plateau_cap = 64
        while frontier and len(seen) < plateau_cap:
            cur_gens, path = frontier.pop(0)
            for sigma in moves:
                H = stallings(rank, [sigma.apply(w) for w in cur_gens])
                u = H.used_letters()
                if len(u) < rank:
                    return conclude_contained(path + [sigma], u)
                if H.num_edges < size:
                    chain.extend(path + [sigma])
                    gens = H.basis()
                    size = H.num_edges
                    frontier = []
                    break
                if H.num_edges == size:
                    key = H.canonical_key()
                    if key not in seen:
                        seen.add(key)
                        frontier.append((H.basis(), path + [sigma]))
            else:
                continue
            break
        else:
            if _connected_no_cut_vertex(whitehead_graph(stallings(rank, gens))):
                return FreeFactorResult(
                    "not_contained",
                    reason="Whitehead graph is connected without cut vertex at a local minimum")
            return FreeFactorResult("unknown", reason="Whitehead search exhausted")
    return FreeFactorResult("unknown", reason="Whitehead depth exhausted")


def whitehead_minimize_classes(rank: int, words, depth: int = 16):
    """Greedy Whitehead descent on the total cyclic length of a tuple of
    conjugacy classes.  Returns (minimized representatives, composed
    automorphism alpha) with [alpha(words[i])] = [minimized[i]]."""
    cur = [cyclic_canonical(w, unoriented=True) for w in words]
    alpha = Endomorphism.identity(rank)
    moves = whitehead_moves(rank)
    for _ in range(depth):
        total = sum(len(w) for w in cur)
        best = None
        for sigma in moves:
            cand = [cyclic_canonical(sigma.apply(w), unoriented=True) for w in cur]
            t = sum(len(w) for w in cand)
            if t < total and (best is None or t < best[0]):
                best = (t, cand, sigma)
        if best is None:
            return cur, alpha
        cur = best[1]
        alpha = best[2].compose(alpha)
    return cur, alpha


def letter_system(rank: int, words, depth: int = 16):
    """When the classes form a simultaneous system of rank-one free factors
    (Whitehead minimization lands on distinct single letters), return
    (alpha, letters); else None.  The factors are alpha^-1 of the letters,
    a genuine joint system since they come from one automorphism."""
    cur, alpha = whitehead_minimize_classes(rank, words, depth)
    if any(len(w) != 1 for w in cur):
        return None
    letters = [abs(w[0]) for w in cur]
    if len(set(letters)) != len(letters):
        return None
    return alpha, letters

