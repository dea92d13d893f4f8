"""Periodic Nielsen paths on expanding irreducible train tracks.

A periodic indivisible Nielsen path rho splits as alpha . beta with both
halves legal and exactly one illegal turn at the junction.  Writing
rho = X . reverse(Y), invariance rel endpoints under F = f^per unpacks to the
prefix-closure equations F(X) = X.G, F(Y) = Y.G (oriented closure) or
F(X) = Y.G, F(Y) = X.G (orientation reversing) with a common overflow G.
Both X and Y are therefore prefixes of eigenrays shot from periodic
directions, of equal eigenmetric length.  The eigenray of a direction does
not depend on the power of f that grows it, so enumeration grows one ray per
direction, as the fixed point of the substitution e -> f^step(e), indexes
the ray vertices by the gate of their junction edge, and iterates each
candidate once, to its least return.  Only gates of two or more directions
are indexed: every junction edge in a one-direction gate is the same edge,
and two halves ending in the same edge meet in no turn.  The
bounded-cancellation radius caps the scan, and each ray is read lazily,
letter by letter, only up to it: no whole f^step image is ever built.

Stabilization folds at the illegal turns of these paths.  Folding at the
illegal turn of an indivisible Nielsen path sends the other Nielsen paths to
Nielsen paths (Bestvina-Handel 1992, section 5), so after each fold the
paths are carried instead of rescanned: each goes through the fold's push
maps and must pass the scan's own acceptance rule, `_admit`, on the folded
track, and if one fails the folded track is scanned.  Interior periodic
points become vertices only inside the scan.  A carry therefore cannot see
two kinds of path: one that no earlier path goes to, and one that ends at
an interior periodic point which the scan's refinement would have made a
vertex.  One guard covers both: whenever the paths of the representative
that `stabilize` returns were carried, that representative is prepared and
scanned once more, and if the lists differ the scanned orbits are returned
with stable=False.  The Nielsen data that leaves `stabilize` is always a
scan's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations
from typing import Optional

from endotorus.words import CyclicWord, cyclic_canonical, invert
from endotorus.graphmap import (
    POINT_TOL,
    GraphMap,
    refine_at_points,
    transition_matrix,
    transport_path,
)
from endotorus.traintrack import (
    TrainTrack,
    direction_map,
    fold_at_pair,
    gates,
    is_illegal_turn,
    legality,
)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NielsenPath:
    alpha: tuple          # legal half ending at the junction
    beta: tuple           # legal half leaving the junction
    period: int           # minimal per with f^per(rho) = rho or its reverse
    reversal: bool

    @property
    def path(self) -> tuple:
        return self.alpha + self.beta

    def canonical(self) -> tuple:
        p = self.path
        return min(p, invert(p))


@dataclass
class NielsenOrbit:
    paths: list            # edge paths rho_0 .. rho_m, rho_i = tight f(rho_{i-1})
    junctions: list        # index of the illegal turn in each path
    connectors: list       # tau_1 .. tau_m, tau_0 closing
    period: int            # per of the underlying periodic Nielsen paths
    orientation_reversal: bool

    def volume(self, gm: GraphMap) -> float:
        return sum(gm.graph.path_length(p) for p in self.paths)


@dataclass
class NielsenLoops:
    loops: list            # cyclically tight edge paths
    multiplicities: dict   # unoriented edge -> times covered
    classes: list          # CyclicWord per loop (ambient conjugacy classes)
    transitive: bool       # f permutes the loops in a single cycle


@dataclass
class StableRepresentative:
    tt: TrainTrack
    orbits: list
    radius: float          # cancellation radius of the scan that found the orbits
    fold_log: list = field(default_factory=list)
    stable: bool = True


@dataclass
class Atoroidal:
    period_bound: int
    radius: float          # bounded-cancellation scan radius used


@dataclass
class Toroidal:
    witness: CyclicWord
    period: int
    source: str            # "nielsen loops", or "both" with the word search


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

INTERIOR_BOUND = 3   # periods whose interior periodic points become vertices


def _ray(image: dict, lengths: dict, d: int, step: int, reach: float):
    """(eigenray, vertex positions) of direction d under F = f^step, up to
    its first vertex at or beyond `reach`.  Edge images on a train track
    never cancel and d's period under the direction map divides `step`, so
    F(d) starts with d and the eigenray is the fixed point
    x = F(x[0]) F(x[1]) ... of e -> F(e).  F is `step` lazy substitutions
    by `image` (direction -> f-image) stacked on the ray's own letters, so
    the ray is made only up to the reach.  The ray is (d,) when F(d) = d."""
    ray = [d]
    letters = iter(ray)
    for _ in range(step):
        letters = chain.from_iterable(map(image.__getitem__, letters))
    next(letters)            # F(d) starts with d
    positions = [lengths[abs(d)]]
    for e in letters:
        if positions[-1] >= reach:
            break
        ray.append(e)
        positions.append(positions[-1] + lengths[abs(e)])
    return tuple(ray), positions


def _point_image(gm: GraphMap, e: int, pos: float):
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


def interior_periodic_cuts(tt: TrainTrack, interior_bound: int) -> dict:
    """Interior fixed points of f^per for per up to the bound, closed under
    the map so the graph can be refined there.  Each crossing of an edge
    over itself contributes an affine fixed point; orientation-reversing
    crossings give flip points."""
    gm = tt.gm
    lam = tt.stretch
    cuts: dict = {e: [] for e in gm.graph.edge_ids()}

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
                (e2, p2) = _point_image(gm, e, p)
                if add(e2, p2):
                    new = True
        if not new:
            break
    return {e: sorted(ps) for (e, ps) in cuts.items() if ps}


def prepare_representative(tt: TrainTrack, interior_bound: int) -> TrainTrack:
    """Subdivide at interior periodic points so that every periodic Nielsen
    path of period up to the bound has vertex endpoints."""
    cuts = interior_periodic_cuts(tt, interior_bound)
    if not cuts:
        return tt
    gm2 = refine_at_points(tt.gm, cuts)
    data = transition_matrix(gm2)
    return TrainTrack(gm2, gates(gm2), data)


def scan_pinps(tt: TrainTrack, period_bound: int = 8) -> tuple:
    """Prepare the representative (interior periodic points of period up to
    INTERIOR_BOUND become vertices) and enumerate its periodic indivisible
    Nielsen paths.  Returns (prepared train track, list of NielsenPath).

    The cancellation radius is that of the incoming representative (the
    value `stabilize` records for it); the refinement preserves the map and
    the metric, so the bound carries over."""
    radius = tt.radius
    tt = prepare_representative(tt, min(INTERIOR_BOUND, period_bound))
    return tt, _enumerate_on(tt, period_bound, radius)


def _least_return(gm: GraphMap, rho, period_bound: int, radius: float):
    """(n, reversal) for the least n <= period_bound with f^n(rho) = rho or
    its reverse, else None.  Every path in the f-orbit of a genuine periodic
    Nielsen path obeys the same half-length bound, so any image outgrowing
    it disqualifies the candidate."""
    cap = 2 * radius + 1e-6
    back = invert(rho)
    img = rho
    for n in range(1, period_bound + 1):
        img = gm.map_path(img)
        if gm.graph.path_length(img) > cap:
            return None
        if img == rho or img == back:
            return (n, img == back)
    return None


def _admit(tt: TrainTrack, X: tuple, Y: tuple, at_x, at_y, period_bound: int,
           radius: float, found: dict) -> bool:
    """The one acceptance rule for a candidate rho = X . reverse(Y), with X
    and Y legal halves that start at the earlier and the later direction of
    their pair.  `at_x` and `at_y` hold the metric positions of the vertices
    along X and Y, as prefix sums of edge lengths (a longer list, such as
    the positions along the eigenray X starts, is fine).  X ends within the
    cut radius; Y ends within POINT_TOL of it, at the first vertex of Y at
    or after X's end less POINT_TOL; the halves end in two edges at one
    vertex, and rho has exactly one illegal turn; some f^n with n up to the
    bound returns rho or its reverse within the half-length bound.  An
    accepted rho goes into `found` under min(rho, reverse(rho)).  Returns
    whether `found` holds that key."""
    (i, j) = (len(X) - 1, len(Y) - 1)
    p = at_x[i]
    if p > radius + 1e-9 or abs(at_y[j] - p) > POINT_TOL \
            or (j and at_y[j - 1] >= p - POINT_TOL):
        return False
    g = tt.gm.graph
    if X[-1] == Y[-1] or g.term_of(X[-1]) != g.term_of(Y[-1]):
        return False
    rho = X + invert(Y)
    key = min(rho, invert(rho))
    if key in found:
        return True
    if sum(is_illegal_turn(tt.gate_map, -rho[k], rho[k + 1])
           for k in range(len(rho) - 1)) != 1:
        return False
    back = _least_return(tt.gm, rho, period_bound, radius)
    if back is None:
        return False
    (per, reversal) = back
    # orientation convention: a reversing path starts from the
    # numerically smaller direction, any other from the earlier one
    if reversal and X[0] > Y[0]:
        (X, Y) = (Y, X)
    found[key] = NielsenPath(X, invert(Y), per, reversal)
    return True


def _enumerate_on(tt: TrainTrack, period_bound: int, radius: float) -> list:
    """Scan the periodic direction pairs through one junction index.  A pair
    qualifies when some f^per with per up to the bound fixes both directions
    or swaps them.  Each direction grows its eigenray to the cut.  A junction
    of X . reverse(Y) needs an illegal turn between the reversed last edges
    of X and Y, so every ray vertex within the radius goes into a bucket
    keyed by the gate of that reversed edge; one sorted sweep per bucket
    finds the positions the rays share.  Only gates holding two or more
    directions get a bucket, and the sweep skips two entries with the same
    junction edge.  Both are exact: X and Y ending in one edge e meet in no
    turn, and a gate of one direction -e holds only entries with junction
    edge e.  Most gates are of that kind, since most vertices of a refined
    representative are valence-two periodic cuts with one direction per
    gate.  A hit (i on the first ray, j on the second) is kept when j is the
    first vertex of the second ray at or after the first ray's position less
    POINT_TOL, as in a two-pointer merge of the pair's rays.  Each candidate
    goes through `_admit`, in (pair, position) order."""
    if not tt.data.expanding:
        raise ValueError("periodic Nielsen path scan needs an expanding "
                         "irreducible train track")
    gm = tt.gm
    lengths = gm.graph.lengths
    dirs = gm.graph.all_directions()
    order = {d: i for i, d in enumerate(dirs)}
    # first letter of f^per(e_d) is the per-th iterate of the direction map
    # (edge images on a train track never cancel)
    dmap = direction_map(gm)

    pairs = set()          # unordered, kept in direction order
    first = {d: d for d in dirs}
    for _ in range(period_bound):
        first = {d: dmap[first[d]] for d in dirs}
        fixed = [d for d in dirs if first[d] == d]
        pairs.update(combinations(fixed, 2))
        pairs.update((d, first[d]) for d in dirs
                     if order[d] < order[first[d]] and first[first[d]] == d)

    cut = radius + 1e-9    # the first ray's side of a junction
    reach = cut + 2 * POINT_TOL
    image = {d: gm.image_of_edge(d) for d in dirs}
    rays: dict = {}        # direction -> (eigenray, vertex positions)
    buckets: dict = {}     # gate -> [(position, direction, index, edge)]
    # junction edge e -> gate of -e, for the gates of two or more directions
    # (a gate with one direction -e has only junction edge e: never a turn)
    size = Counter(tt.gate_map.values())
    junction = {-d: g for (d, g) in tt.gate_map.items() if size[g] > 1}
    for d in sorted({d for pair in pairs for d in pair}, key=order.get):
        step, x = 1, dmap[d]   # least period of d, for the ray's growth
        while x != d:
            step, x = step + 1, dmap[x]
        rays[d] = (r, pos) = _ray(image, lengths, d, step, reach)
        for i, e in enumerate(r[:bisect_right(pos, reach)]):
            if e in junction:
                buckets.setdefault(junction[e], []).append((pos[i], d, i, e))

    hits = []
    for bucket in buckets.values():
        bucket.sort()
        for k, (p, da, ia, ea) in enumerate(bucket):
            for m in range(k + 1, len(bucket)):
                (q, db, ib, eb) = bucket[m]
                if q - p > POINT_TOL:
                    break
                if ea == eb:          # one edge: no turn at the junction
                    continue
                for (d1, i, p1, d2, j) in ((da, ia, p, db, ib),
                                           (db, ib, q, da, ia)):
                    if (d1, d2) in pairs and p1 <= cut \
                            and j == bisect_left(rays[d2][1], p1 - POINT_TOL):
                        hits.append((order[d1], order[d2], i, j, d1, d2))
    hits.sort()

    found: dict = {}
    for (_, _, i, j, d1, d2) in hits:
        _admit(tt, rays[d1][0][:i + 1], rays[d2][0][:j + 1], rays[d1][1],
               rays[d2][1], period_bound, radius, found)
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def group_orbits(tt: TrainTrack, pinps: list) -> list:
    """Group periodic Nielsen paths into f-orbits with connector data."""
    gm = tt.gm
    by_canonical = {p.canonical(): p for p in pinps}
    orbits = []
    used = set()
    for p in pinps:
        if p.canonical() in used:
            continue
        paths = [p.path]
        junctions = [len(p.alpha) - 1]
        reversal = False
        cur = p.path
        for _ in range(len(pinps) + 1):
            img = gm.map_path(cur)
            if img == paths[0]:
                break
            if img == invert(paths[0]):
                reversal = True
                break
            key = min(img, invert(img))
            if key not in by_canonical:
                raise AssertionError("orbit left the enumerated set")
            illegal = [i for i in range(len(img) - 1)
                       if is_illegal_turn(tt.gate_map, -img[i], img[i + 1])]
            paths.append(img)
            junctions.append(illegal[0])
            cur = img
        for q in paths:
            used.add(min(q, invert(q)))
        connectors = []
        m = len(paths)
        for i in range(1, m):
            alpha_prev = paths[i - 1][:junctions[i - 1] + 1]
            alpha_cur = paths[i][:junctions[i] + 1]
            f_alpha = gm.map_path(alpha_prev)
            if f_alpha[:len(alpha_cur)] != alpha_cur:
                raise AssertionError("orbit relation failed on the alpha half")
            connectors.append(tuple(f_alpha[len(alpha_cur):]))
        # closing connector
        alpha_last = paths[-1][:junctions[-1] + 1]
        f_alpha = gm.map_path(alpha_last)
        if reversal:
            target = invert(paths[0][junctions[0] + 1:])   # beta_0 reversed
        else:
            target = paths[0][:junctions[0] + 1]
        if f_alpha[:len(target)] != target:
            raise AssertionError("orbit closing relation failed")
        connectors.insert(0, tuple(f_alpha[len(target):]))
        orbits.append(NielsenOrbit(paths, junctions, connectors, p.period, reversal))
    return orbits


# ---------------------------------------------------------------------------
# stabilization
# ---------------------------------------------------------------------------

def _fold_candidates(gm: GraphMap, orbits: list):
    """Foldable junctions across all orbits, full folds first."""
    candidates = []
    for oi, orbit in enumerate(orbits):
        m = len(orbit.paths)
        for i in range(m):
            tau = orbit.connectors[(i + 1) % m]
            if not tau:
                continue
            rho = orbit.paths[i]
            junction = orbit.junctions[i]
            d1, d2 = -rho[junction], rho[junction + 1]
            full = gm.image_of_edge(d1) == gm.image_of_edge(d2)
            candidates.append((0 if full else 1, oi, i, d1, d2))
    candidates.sort()
    return candidates


def _signature(tt: TrainTrack, orbits: list) -> tuple:
    gm = tt.gm
    vol = gm.graph.volume()
    lengths = tuple(sorted(round(l / vol, 6) for l in gm.graph.lengths.values()))
    images = tuple(sorted(len(p) for p in gm.eimg.values()))
    residuals = tuple(sorted(round(o.volume(gm) / vol, 6) for o in orbits))
    return (gm.graph.nv, len(gm.graph.edges), lengths, images,
            round(tt.stretch, 9), residuals)


STABILIZE_STEPS = 24   # fold budget before stabilization gives up


def _carry(tt: TrainTrack, pinps: list, period_bound: int,
           radius: float) -> Optional[list]:
    """The periodic Nielsen paths of a folded train track, as the images of
    those before the fold.  Each path goes through the fold's push maps
    (`transport_path`), splits at its first illegal turn into X . reverse(Y)
    with X from the earlier direction, and must pass `_admit` at the given
    radius, as a scan hit would.  Returns the paths in the scan's order, or
    None when the track is not expanding and irreducible or some path fails
    (the caller then scans)."""
    if not tt.data.expanding:
        return None
    gm = tt.gm
    lengths = gm.graph.lengths
    order = {d: i for i, d in enumerate(gm.graph.all_directions())}
    found: dict = {}
    for p in pinps:
        rho = transport_path(gm, p.path)
        (legal, k) = legality(tt.gate_map, rho)
        if legal:
            return None
        (X, Y) = (rho[:k + 1], invert(rho[k + 1:]))
        if X[0] == Y[0]:
            return None
        if order[X[0]] > order[Y[0]]:
            (X, Y) = (Y, X)
        if not _admit(tt, X, Y, list(accumulate(lengths[abs(e)] for e in X)),
                      list(accumulate(lengths[abs(e)] for e in Y)),
                      period_bound, radius, found):
            return None
    return [found[k] for k in sorted(found)]


def stabilize(tt: TrainTrack, period_bound: int = 8) -> StableRepresentative:
    """Fold periodic Nielsen path orbits of a train track representative
    until the representative repeats projectively.  Each step folds the
    first candidate junction (full folds first) whose connector is
    nontrivial and logs the volume bookkeeping: x is the eigenmetric length
    of the folded segment, and the folded orbit's paths are transported
    across the fold.  When the budget of STABILIZE_STEPS folds runs out, or
    a fold fails, a representative is returned with stable=False; its
    orbits and the fold log remain valid data.

    After each fold the paths are carried across it (`_carry`) instead of
    rescanned, and a failed carry means a scan.  A carry cannot see a path
    that no earlier path goes to, nor one that ends at an interior periodic
    point that only the scan's refinement makes a vertex.  So the paths of
    the returned representative always come from a scan: when they were
    carried, `scan_pinps` prepares and scans it once more, and if the lists
    differ the scanned orbits are returned with stable=False."""
    radius = tt.radius
    tt, pinps = scan_pinps(tt, period_bound)
    if not pinps:
        return StableRepresentative(tt, [], radius)
    log: list = []

    def returned(entry, stable: bool) -> StableRepresentative:
        (tt, orbits, radius, pinps, carried) = entry
        if carried:
            (tt, scanned) = scan_pinps(tt, period_bound)
            if scanned != pinps:
                return StableRepresentative(tt, group_orbits(tt, scanned),
                                            radius, log, stable=False)
        return StableRepresentative(tt, orbits, radius, log, stable)

    entry = (tt, group_orbits(tt, pinps), radius, pinps, False)
    seen: dict = {}        # signature -> (train track, orbits, scan radius,
                           #               paths, whether they were carried)
    for _ in range(STABILIZE_STEPS):
        (tt, orbits, radius, pinps, _) = entry
        sig = _signature(tt, orbits)
        if sig in seen:
            return returned(seen[sig], True)
        seen[sig] = entry
        if not orbits:
            return returned(entry, True)
        candidates = _fold_candidates(tt.gm, orbits)
        if not candidates:
            return returned(entry, False)
        (_, oi, _, d1, d2) = candidates[0]
        gm = tt.gm
        try:
            folded = fold_at_pair(gm, d1, d2).tighten()
            moved = [transport_path(folded, p) for p in orbits[oi].paths]
            tt2 = TrainTrack(folded, gates(folded), transition_matrix(folded))
            radius2 = tt2.radius
            pinps2 = _carry(tt2, pinps, period_bound, radius2)
            carried = pinps2 is not None
            if not carried:
                tt2, pinps2 = scan_pinps(tt2, period_bound)
            orbits2 = group_orbits(tt2, pinps2)
        except ValueError:
            return returned(entry, False)
        log.append({
            "x": gm.graph.volume() - folded.graph.volume(),
            "vol_before": gm.graph.volume(),
            "vol_after": tt2.gm.graph.volume(),
            "orbit_before": orbits[oi].volume(gm),
            "orbit_after": sum(folded.graph.path_length(p) for p in moved),
            "eigen_residual": tt2.data.residual,
        })
        entry = (tt2, orbits2, radius2, pinps2, carried)
    return returned(next(iter(seen.values())), False)


# ---------------------------------------------------------------------------
# critical equation and Nielsen loops
# ---------------------------------------------------------------------------

def critical_equation(tt: TrainTrack, orbits: list) -> float:
    """|vol(orbits) - 2 vol(graph)| with the metric scaled to volume one.
    Without orbits this is the full deficit 2."""
    if not orbits:
        return 2.0
    total = sum(o.volume(tt.gm) for o in orbits)
    return abs(total / tt.gm.graph.volume() - 2.0)


def _vertex_links(gm: GraphMap, loops) -> dict:
    """Link of each vertex: nodes are directions there, edges are the turns
    the loop system takes.  Every direction has degree two when each edge is
    covered twice, so links are disjoint circles; a surface point needs a
    single circle."""
    links: dict = {v: {} for v in range(gm.graph.nv)}
    for loop in loops:
        n = len(loop)
        for i in range(n):
            d_in, d_out = -loop[i], loop[(i + 1) % n]
            link = links.setdefault(gm.graph.init_of(d_in), {})
            link.setdefault(d_in, []).append(d_out)
            link.setdefault(d_out, []).append(d_in)
    return links


def _link_components(link: dict) -> int:
    seen = set()
    comps = 0
    for start in sorted(link):
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            d = stack.pop()
            for e in link[d]:
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
    return comps


def nielsen_loops(tt: TrainTrack, orbits: list) -> NielsenLoops:
    """Assemble the orbit paths into periodic Nielsen loops and count edge
    multiplicities; at a stable representative every edge is covered twice.
    Among closed tight assemblies, one whose vertex links are circles is
    preferred (that is the assembly the surface construction glues along)."""
    gm = tt.gm
    arcs = [p for o in orbits for p in o.paths]
    ends = []
    for idx, p in enumerate(arcs):
        ends.append((idx, 0, gm.graph.init_of(p[0])))
        ends.append((idx, 1, gm.graph.term_of(p[-1])))

    # match arc ends at common vertices into closed tight loops; orbits are
    # tiny, so backtracking over perfect matchings is fine
    n = len(ends)

    def compatible(i, j):
        (ai, si, vi) = ends[i]
        (aj, sj, vj) = ends[j]
        if vi != vj:
            return False
        pi = arcs[ai] if si == 1 else invert(arcs[ai])
        pj = invert(arcs[aj]) if sj == 1 else arcs[aj]
        return pi[-1] != -pj[0]  # junction stays tight

    def loops_of(matching):
        seen = set()
        loops = []
        for start in range(n):
            if start in seen or ends[start][1] == 1:
                continue
            loop: list = []
            i = start
            ok = True
            for _ in range(n + 1):
                (a, s, _) = ends[i]
                seen.add(i)
                other = i + 1 if s == 0 else i - 1
                seen.add(other)
                loop.extend(arcs[a] if s == 0 else invert(arcs[a]))
                j = matching[other]
                if j == start:
                    break
                i = j
            else:
                ok = False
            if ok:
                loops.append(tuple(loop))
        return loops if len(seen) == n else None

    def valid_loops(matching):
        lp = loops_of(matching)
        if lp is None:
            return None
        if all(len(l) > 0 and (len(l) == 1 or l[0] != -l[-1]) for l in lp):
            return lp
        return None

    assemblies: list = []

    def search(matching, free):
        if not free:
            lp = valid_loops(matching)
            if lp is not None:
                assemblies.append(lp)
            return
        i = free[0]
        for j in free[1:]:
            if compatible(i, j) and compatible(j, i):
                matching[i] = j
                matching[j] = i
                search(matching, [k for k in free if k not in (i, j)])
                del matching[i]
                del matching[j]
                if len(assemblies) >= 64:
                    return

    search({}, list(range(n)))
    if not assemblies:
        raise ValueError("orbit paths do not close into Nielsen loops")
    loops = next((lp for lp in assemblies
                  if all(_link_components(link) <= 1
                         for link in _vertex_links(gm, lp).values())),
                 assemblies[0])
    mult: dict = {e: 0 for e in gm.graph.edge_ids()}
    for l in loops:
        for e in l:
            mult[abs(e)] += 1
    # a closed path's word is conjugate to that of any base loop it closes into
    classes = [CyclicWord.of(gm.path_to_word(l)) for l in loops]

    # f permutes the loops up to rotation and reversal; transitivity = one cycle
    canon = {}
    for i, l in enumerate(loops):
        canon[cyclic_canonical(l, unoriented=True)] = i
    perm = []
    for l in loops:
        key = cyclic_canonical(gm.map_path(l), unoriented=True)
        perm.append(canon.get(key, -1))
    transitive = sorted(perm) == list(range(len(loops))) and _single_cycle(perm)
    return NielsenLoops(loops, mult, classes, transitive)


def _single_cycle(perm) -> bool:
    n = len(perm)
    if n == 0:
        return False
    seen = 1
    i = perm[0]
    while i != 0 and seen <= n:
        seen += 1
        i = perm[i]
    return seen == n
