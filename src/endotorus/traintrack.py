"""From a rose representative to an expanding irreducible train track map,
or a certified obstruction: a reduction witness (invariant proper free factor
system) or a finite-order certificate.

The folding loop never inverts the endomorphism; all moves (subdivide,
fold, collapse) make sense for injective non-surjective maps.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import cached_property
from typing import NamedTuple, Optional

from endotorus.words import (
    Endomorphism,
    InternalInconsistency,
    Word,
    _mat_mul,
    concat,
    conjugate,
    cyclic_reduce,
    find_conjugator,
    invert,
)
from endotorus.graphmap import (
    EdgeDigraph,
    GraphMap,
    TransitionData,
    edge_digraph,
    reach,
    transition_flags,
    transition_matrix,
    with_eigenmetric,
)
from endotorus import subgroups as sg


# ---------------------------------------------------------------------------
# gates and legality
# ---------------------------------------------------------------------------

def direction_map(gm: GraphMap) -> dict:
    """First edge of the image of each direction; images must be nontrivial."""
    dmap = {}
    for d in gm.graph.all_directions():
        img = gm.image_of_edge(d)
        if not img:
            raise ValueError("direction map undefined on a collapsed edge")
        dmap[d] = img[0]
    return dmap


def gates(gm: GraphMap, dmap: Optional[dict] = None) -> dict:
    """Partition of directions by iterated identification under the direction
    map; two directions in one gate make an illegal turn.  Returns a map
    direction -> gate id, numbered by first appearance in
    `all_directions()` order.  The kernels of Df^k grow until their first
    repeat and stay there, within D steps for D directions, so the kernel of
    Df^N for N >= D is the final partition; N = 2^bit_length(D), by
    repeated squaring.  A caller that holds `direction_map(gm)` passes it
    as `dmap`."""
    if dmap is None:
        dmap = direction_map(gm)
    dirs = gm.graph.all_directions()
    for _ in range(len(dirs).bit_length()):
        dmap = {d: dmap[dmap[d]] for d in dirs}
    ids: dict = {}
    return {d: ids.setdefault(dmap[d], len(ids)) for d in dirs}


def illegal_turns(gate_map: dict, path) -> list:
    """The indices of the illegal turns of an edge path, in increasing
    order: turn i, between path[i] and path[i + 1], is illegal when the
    directions -path[i] and path[i + 1] lie in one gate.  A path is legal
    when the list is empty."""
    return [i for i in range(len(path) - 1)
            if gate_map[-path[i]] == gate_map[path[i + 1]]]


def illegal_crossings(gm: GraphMap, gate_map: dict) -> list:
    """Illegal turns crossed by edge images: (edge, position, d1, d2), in
    edge order.  A one-edge image, as most are on a long fold loop, has no
    turn and is passed over."""
    return [(e, i, -p[i], p[i + 1]) for (e, p) in sorted(gm.eimg.items())
            if len(p) > 1 for i in illegal_turns(gate_map, p)]


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

class TrainTrack:
    def __init__(self, gm: GraphMap, gate_map: dict, data: TransitionData):
        self.gm = gm              # edge lengths are the eigenmetric, volume 1
        self.gate_map = gate_map
        self.data = data

    def __repr__(self) -> str:
        return (f"TrainTrack(gm={self.gm!r}, gate_map={self.gate_map!r}, "
                f"data={self.data!r})")

    @property
    def stretch(self) -> float:
        return self.data.lam

    @cached_property
    def radius(self) -> float:
        """Half-length bound for periodic Nielsen paths: 2 BCC / (lambda - 1)
        in the eigenmetric, with BCC the Lipschitz-style edge-count bound
        converted through the longest edge.  Generous is fine: it only
        widens the scan.  Computed once per representative."""
        gm = self.gm
        bcc_edges = sum(len(gm.eimg[e]) - 1 for e in gm.graph.edge_ids()) + 1
        bcc_metric = bcc_edges * max(gm.graph.lengths.values())
        return 2.0 * bcc_metric / (self.stretch - 1.0)


class InvariantFactor(NamedTuple):
    basis: list                 # words generating A_i
    conjugator: Word            # x_i with phi(A_i) <= x_i A_{i+1} x_i^{-1}
    # Stallings graph of A_i, folded by verify_reduction_witness
    graph: Optional[sg.SubgroupGraph] = None


class ReductionWitness(NamedTuple):
    factors: list               # [InvariantFactor, ...], indices cyclic
    provenance: str


class FiniteOrderCertificate(NamedTuple):
    power: int
    conjugator: Word       # phi^power = conjugation by this word


class Unknown(NamedTuple):
    reason: str
    iterations: int = 0


# ---------------------------------------------------------------------------
# finite order detection
# ---------------------------------------------------------------------------

def _order_mod_3(m) -> Optional[int]:
    """The order of the integer matrix m in GL(r, F_3), or None when m is
    singular mod 3 (its powers then repeat without reaching I)."""
    r = len(m)
    ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    p = m_k = tuple(tuple(x % 3 for x in row) for row in m)
    seen = set()
    for k in itertools.count(1):
        if m_k == ident:
            return k
        if m_k in seen:
            return None
        seen.add(m_k)
        m_k = tuple(tuple(x % 3 for x in row) for row in _mat_mul(p, m_k))


def is_finite_order(endo: Endomorphism) -> Optional[FiniteOrderCertificate]:
    """Certify that phi has finite order in Out(F), exactly: phi^k = i_x.

    The kernel of GL(r, Z) -> GL(r, F_3) is torsion-free (Minkowski), so a
    finite-order exponent-sum matrix M has the order m of M mod 3, and M has
    finite order iff M^m = I.  The kernel of Out(F) -> GL(r, Z) is
    torsion-free too (Baumslag-Taylor), so phi has finite order iff
    psi = phi^m is inner, and m is then the least such power.  An inner psi
    sends each generator g to a conjugate, which cyclically reduces to g;
    psi(a) = u a u^-1 (`find_conjugator`) leaves x = u a^j, with j read off
    u^-1 psi(b) u = a^j b a^-j, and x is checked on every generator."""
    m = endo.abelianized()
    k = _order_mod_3(m)
    if k is None:
        return None
    (m_k, psi) = (m, endo)
    for _ in range(k - 1):
        m_k = _mat_mul(m, m_k)
    if m_k != Endomorphism.identity(endo.rank).abelianized():
        return None
    for _ in range(k - 1):
        psi = endo.compose(psi)
    if any(cyclic_reduce(img) != (i,) for (i, img) in enumerate(psi.images, 1)):
        return None
    u = find_conjugator((1,), psi.images[0])
    if u is None:
        return None
    x = u
    if endo.rank > 1:
        w = concat(invert(u), psi.images[1], u)
        half = len(w) // 2
        x = concat(u, (1,) * half if w[:1] == (1,) else (-1,) * half)
    if all(conjugate((i,), x) == psi.images[i - 1]
           for i in range(1, endo.rank + 1)):
        return FiniteOrderCertificate(k, x)
    return None


# ---------------------------------------------------------------------------
# invariant subgraphs and reduction witnesses
# ---------------------------------------------------------------------------

def _subgraph_components(gm: GraphMap, edge_set) -> list:
    """Connected components of the subgraph spanned by edge_set, in order of
    their least vertex: [(tree, edges)], where tree sends each vertex of the
    component to its path from the least vertex, the FIFO breadth-first
    tree over `directions_at`, in visiting order, and edges is sorted."""
    g = gm.graph
    seen: set = set()
    comps = []
    for root in sorted({v for e in edge_set for v in g.edges[e]}):
        if root in seen:
            continue
        tree = {root: ()}
        edges = set()
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for d in g.directions_at(v):
                if abs(d) not in edge_set:
                    continue
                edges.add(abs(d))
                w = g.term_of(d)
                if w not in tree:
                    tree[w] = tree[v] + (d,)
                    queue.append(w)
        seen.update(tree)
        comps.append((tree, sorted(edges)))
    return comps


def invariant_sets(gm: GraphMap, digraph: EdgeDigraph) -> tuple:
    """(subgraph, forest) among the maximal proper f-invariant edge sets,
    each None when there is none: the largest that carries fundamental
    group (the first on a tie), and the first that is a forest.

    Those sets are the complements of the source components of `digraph`,
    `edge_digraph(gm)`.  The strong component of e is what e reaches and
    is reached from, and it is a source when nothing else reaches e.  The
    components are read in order of their least edge, one pair of `reach`
    per component, shared by its members."""
    edges = gm.graph.edge_ids()
    placed: set = set()
    subgraph = forest = None
    for i in range(len(edges)):
        if i in placed:
            continue
        behind = reach(digraph.pred, i)
        comp = behind & reach(digraph.succ, i)
        placed |= comp
        if comp != behind:
            continue
        rest = frozenset(edges) - {edges[j] for j in comp}
        if not rest:
            continue
        comps = _subgraph_components(gm, rest)
        if sum(len(es) - len(tree) + 1 for (tree, es) in comps) > 0:
            if subgraph is None or len(rest) > len(subgraph):
                subgraph = rest
        elif forest is None:
            forest = rest
    return (subgraph, forest)


def build_reduction_witness(gm: GraphMap, endo: Endomorphism, edge_set,
                            digraph: EdgeDigraph,
                            provenance: str) -> Optional[ReductionWitness]:
    """Convert an invariant subgraph into a verified free factor system via
    the edge labels and the map's twist; `digraph` is `edge_digraph(gm)`.
    Returns None when verification fails (never emits an unverified
    witness)."""
    comps = [(tree, es) for (tree, es) in _subgraph_components(gm, edge_set)
             if len(es) - len(tree) + 1 > 0]
    if not comps:
        return None
    # functional map on components: where does f send each one
    idx = {e: i for i, e in enumerate(gm.graph.edge_ids())}
    members = [{idx[e] for e in es} for (_, es) in comps]
    succ = []
    for own in members:
        crossed = set().union(*(digraph.succ[i] for i in own))
        target = next((j for j, other in enumerate(members)
                       if crossed <= other), None)
        if target is None:
            return None
        succ.append(target)
    # walk into a cycle
    seen: list = []
    i = 0
    while i not in seen:
        seen.append(i)
        i = succ[i]
    cycle = seen[seen.index(i):]

    g = gm.graph

    def component_data(ci):
        """(root, path from the base to it, tree paths, basis words)."""
        (tree_path, es) = comps[ci]
        root = next(iter(tree_path))
        gamma = g.shortest_path(g.base, root)
        tree_edges = {abs(p[-1]) for p in tree_path.values() if p}
        loops = []
        for e in es:
            if e in tree_edges:
                continue
            (a, b) = g.edges[e]
            loops.append(tree_path[a] + (e,) + invert(tree_path[b]))
        return (root, gamma, tree_path,
                [gm.path_to_word(gamma + lp + invert(gamma)) for lp in loops])

    data = {ci: component_data(ci) for ci in cycle}
    factors = []
    for k, ci in enumerate(cycle):
        (root_i, gamma_i, _, basis) = data[ci]
        (_, gamma_j, tree_j, _) = data[cycle[(k + 1) % len(cycle)]]
        delta = tree_j.get(gm.vimg[root_i])
        if delta is None:
            return None
        # f(gamma_i) . delta^-1 . gamma_j^-1 runs from f(base) to the base
        x = concat(gm.twist, gm.path_to_word(
            gm.map_path(gamma_i) + invert(delta) + invert(gamma_j)))
        factors.append(InvariantFactor(basis, x))
    return verify_reduction_witness(endo, ReductionWitness(factors, provenance))


def verify_reduction_witness(endo: Endomorphism,
                             witness: ReductionWitness) -> Optional[ReductionWitness]:
    """Properness of the system, plus the membership check: phi(basis of
    A_i) inside x_i A_{i+1} x_i^-1.  Proper means every basis nonempty,
    the basis sizes summing to at most the rank, and below it for a single
    factor.  Returns the witness with each factor carrying the Stallings
    graph folded for the check, so its views fold none again; None when a
    check fails."""
    k = len(witness.factors)
    ranks = [len(f.basis) for f in witness.factors]
    if k == 0 or min(ranks) == 0 or sum(ranks) > endo.rank \
            or (k == 1 and ranks[0] == endo.rank):
        return None
    factors = []
    for (j, f) in enumerate(witness.factors):
        graph = sg.stallings(endo.rank, f.basis)
        prev = witness.factors[j - 1]    # cyclically, A_{j-1} -> A_j
        x = prev.conjugator
        for w in prev.basis:
            if not graph.contains(concat(invert(x), endo.apply(w), x)):
                return None
        factors.append(f._replace(graph=graph))
    return witness._replace(factors=factors)


# ---------------------------------------------------------------------------
# the folding loop
# ---------------------------------------------------------------------------

def _common_prefix(p, q):
    n = 0
    while n < len(p) and n < len(q) and p[n] == q[n]:
        n += 1
    return p[:n]


def _subdivide_head(gm: GraphMap, d: int, k: int):
    """Split the edge under direction d so that the returned direction's
    image is the first k letters of image(d)."""
    e = abs(d)
    p = gm.eimg[e]
    top = max(gm.graph.edges)
    if d > 0:
        gm2 = gm.subdivide(e, k)
        return gm2, top + 1
    gm2 = gm.subdivide(e, len(p) - k)
    return gm2, -(top + 2)


def fold_at_pair(gm: GraphMap, d1: int, d2: int) -> GraphMap:
    """Fold two directions whose images share their first edge.  When their
    edges go to two vertices and their images agree once the edges are
    identified (`GraphMap.folds_whole`), the edges fold whole: edges with
    equal images, and also the two halves of a Nielsen path, with
    f(E1) = gamma . E1 and f(E2) = gamma . E2, which the fold removes as in
    Bestvina-Handel 1992, section 5.  Otherwise an edge whose image runs
    past the common prefix of the two images is split where its image
    leaves it, until the images coincide.  The result's `history` lists the
    push map of every subdivision and of the fold."""
    steps: tuple = ()
    for _ in range(8):
        if abs(d1) == abs(d2):
            # folding a loop edge onto its own reverse: split off the head,
            # then the generic branch trims the far end
            if d1 < 0:
                d1, d2 = d2, d1
            p = gm.image_of_edge(d1)
            c = _common_prefix(p, tuple(-x for x in reversed(p)))
            if not c or 2 * len(c) >= len(p):
                raise ValueError("degenerate self-fold")
            top = max(gm.graph.edges)
            gm = gm.subdivide(abs(d1), len(c))
            steps += gm.history
            d1, d2 = top + 1, -(top + 2)
            continue
        p1 = gm.image_of_edge(d1)
        p2 = gm.image_of_edge(d2)
        if not p1 or not p2 or p1[0] != p2[0]:
            raise ValueError("directions do not share an initial image edge")
        if p1 == p2 or gm.folds_whole(d1, d2):
            folded = gm.fold(d1, d2)
            folded.history = steps + folded.history
            return folded
        c = _common_prefix(p1, p2)
        if len(c) < len(p1):
            gm, d1 = _subdivide_head(gm, d1, len(c))
        else:
            gm, d2 = _subdivide_head(gm, d2, len(c))
        steps += gm.history
    raise InternalInconsistency("fold did not stabilize")


def _select_fold(gm: GraphMap, gate_map: dict, dmap: dict):
    """Deterministic fold choice: from each illegal turn crossed in an image,
    walk back along the direction map to a foldable pair; order candidates
    full-before-partial, then by vertex and edge indices.  Each crossing
    gives one: its two directions differ, the walk keeps them apart, and
    they meet within N steps, as `gate_map` is the kernel of Df^N (`gates`)."""
    crossings = illegal_crossings(gm, gate_map)
    if not crossings:
        return None
    candidates = []
    for (_, _, d1, d2) in crossings:
        # find minimal j with Df^j equalizing, fold the pair one step before
        a, b = d1, d2
        while dmap[a] != dmap[b]:
            a, b = dmap[a], dmap[b]
        full = gm.image_of_edge(a) == gm.image_of_edge(b)
        v = gm.graph.init_of(a)
        key = (0 if full else 1, v, min(abs(a), abs(b)), max(abs(a), abs(b)),
               min(a, b), max(a, b))
        candidates.append((key, a, b))
    (_, a, b) = min(candidates, key=lambda t: t[0])
    return (a, b)


def find_train_track(endo: Endomorphism, max_iterations: int = 500):
    """Run the folding loop: returns TrainTrack, ReductionWitness,
    FiniteOrderCertificate, or Unknown.

    Each iteration reads `transition_flags` off the edge digraph; only the
    train track returned gets `transition_matrix`, on that digraph.
    Reducible transition matrices are resolved into reduction witnesses when
    the invariant subgraph carries fundamental group, and collapsed when it
    is a forest.  Every witness is verified by membership before returning.
    """
    gm = GraphMap.rose(endo)
    for iteration in range(max_iterations):
        trivial = {e for e in gm.graph.edge_ids() if gm.eimg[e] == ()}
        if trivial:
            loops = {e for e in trivial
                     if gm.graph.edges[e][0] == gm.graph.edges[e][1]}
            if loops:
                return Unknown("a loop edge has trivial image "
                               "(map is not injective on homotopy)", iteration)
            gm = gm.collapse_forest(trivial)
            continue
        digraph = edge_digraph(gm)
        (irreducible, expanding) = transition_flags(digraph)
        if not irreducible:
            # a source component of a reducible M is proper, so its
            # complement carries fundamental group or is a forest
            (sub, forest) = invariant_sets(gm, digraph)
            if sub is None:
                gm = gm.collapse_forest(forest)
                continue
            witness = build_reduction_witness(gm, endo, sub, digraph,
                                              "invariant subgraph of the folded representative")
            if witness is not None:
                return witness
            return Unknown("invariant subgraph failed verification", iteration)
        if not expanding:
            cert = is_finite_order(endo)
            if cert is not None:
                return cert
            return Unknown("non-expanding irreducible representative without "
                           "finite-order certificate", iteration)
        dmap = direction_map(gm)
        gate_map = gates(gm, dmap)
        pick = _select_fold(gm, gate_map, dmap)
        if pick is None:
            # the eigenmetric changes only lengths; gates and the transition
            # data read only images
            data = transition_matrix(gm, digraph)
            return TrainTrack(with_eigenmetric(gm, data), gate_map, data)
        try:
            gm = fold_at_pair(gm, *pick)
        except ValueError as exc:
            return Unknown(f"fold failed: {exc}", iteration)
    return Unknown("iteration budget exhausted", max_iterations)
