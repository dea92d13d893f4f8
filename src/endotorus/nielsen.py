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

Stabilization folds at the illegal turns of these paths, on a lean
representative: a scan refines the train track at every interior periodic
point, and `_lean_scan` keeps only the cut points that end a path found, an
f-invariant set, and reads each path on the track refined there, merging
each run of consecutive pieces into its lean edge, exactly.  Folding at the
illegal turn of an indivisible Nielsen path sends the other Nielsen paths
to Nielsen paths (Bestvina-Handel 1992, section 5), so after each fold the
paths are carried instead of rescanned: each goes through the fold's push
maps and must pass the scan's own acceptance rule, `_admit`, on the folded
track, and if one fails the folded track is scanned.  `_admit` reads only a
candidate's two halves, so a scan hit, a coarsened path and a carried path
meet one rule.  A carry cannot see two kinds of path: one that no earlier
path goes to, and one that ends at an interior periodic point that is no
vertex of the lean representative.  One guard covers both: whenever the
paths of the representative that `stabilize` returns were carried, it is
scanned and coarsened once more, and if the lists differ the scanned orbits
are returned with stable=False.  The Nielsen data that leaves `stabilize`
is always a scan's.

The refinement and the Nielsen loops are read off directly, with no
search.  The scan cuts each edge e at the interior fixed points of f, f^2
and f^3 (up to INTERIOR_BOUND), one per occurrence of e or its reverse in
the f^per-image of e; f sends each of them to another or to a vertex, so
they need no closure under f.  The Nielsen loops pair the orbit paths'
ends vertex by vertex, since whether a junction is tight and whether a
vertex link is one circle are both decided at one vertex; the link counts
of the pairings taken are the surface test, which the surface layer reads.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, combinations, islice
from typing import NamedTuple, Optional

from endotorus.words import (
    CyclicWord,
    InternalInconsistency,
    cyclic_canonical,
    invert,
)
from endotorus.graphmap import (
    POINT_TOL,
    GraphMap,
    edge_digraph,
    reach,
    refine_at_points,
    transition_matrix,
    transport_path,
)
from endotorus.traintrack import (
    TrainTrack,
    direction_map,
    fold_at_pair,
    gates,
    illegal_turns,
)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

class NielsenPath(NamedTuple):
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


class NielsenOrbit(NamedTuple):
    paths: list            # edge paths rho_0 .. rho_m, rho_i = tight f(rho_{i-1})
    junctions: list        # index of the illegal turn in each path
    connectors: list       # tau_1 .. tau_m, tau_0 closing
    period: int            # per of the underlying periodic Nielsen paths
    orientation_reversal: bool

    def volume(self, gm: GraphMap) -> float:
        return sum(gm.graph.path_length(p) for p in self.paths)


class NielsenLoops(NamedTuple):
    loops: list            # cyclically tight edge paths
    multiplicities: dict   # unoriented edge -> times covered
    classes: list          # CyclicWord per loop (ambient conjugacy classes)
    transitive: bool       # f permutes the loops in a single cycle
    link_components: list  # per vertex: components of its link (1: a circle)


class StableRepresentative(NamedTuple):
    tt: TrainTrack
    orbits: list
    radius: float          # radius of the scan that found the orbits: that of
                           # the track it refined, not of the lean tt
    fold_log: list         # each fold's volume bookkeeping
    stable: bool = True


class Atoroidal(NamedTuple):
    period_bound: int
    radius: float          # bounded-cancellation scan radius used

    @property
    def interior_endpoint_period_bound(self) -> int:
        """The greatest period of an interior path end the scan can see."""
        return min(INTERIOR_BOUND, self.period_bound)


class Toroidal(NamedTuple):
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


def interior_periodic_cuts(tt: TrainTrack, interior_bound: int) -> dict:
    """Interior fixed points of f^per for per up to the bound, where the
    graph is refined.  The metric is the eigenmetric and f^per(e) is a
    legal path, so f^per maps e onto each letter of f^per(e) affinely,
    stretched by lambda^per.  Each occurrence of +e or -e in f^per(e),
    after `acc` of the image's length, therefore holds exactly one fixed
    point of f^per in e: at acc / (lambda^per - 1) from e's initial vertex
    for +e, and at (acc + l(e)) / (lambda^per + 1) for -e (a flip point).
    f sends a fixed point of f^per to another one or to a vertex, so the
    points found form an f-invariant set and need no closure.  A point
    within POINT_TOL of a vertex or of a point already found is dropped."""
    gm = tt.gm
    lengths = gm.graph.lengths
    cuts: dict = {e: [] for e in gm.graph.edge_ids()}
    paths = {e: (e,) for e in cuts}   # f^per(e)
    for per in range(1, interior_bound + 1):
        stretch = tt.stretch ** per
        for e in cuts:
            paths[e] = gm.map_path(paths[e])
            le = lengths[e]
            acc = 0.0
            for x in paths[e]:
                if abs(x) == e:
                    p = acc / (stretch - 1.0) if x > 0 \
                        else (acc + le) / (stretch + 1.0)
                    if POINT_TOL <= p <= le - POINT_TOL \
                            and all(abs(q - p) >= POINT_TOL for q in cuts[e]):
                        cuts[e].append(p)
                acc += lengths[abs(x)]
    return {e: sorted(ps) for (e, ps) in cuts.items() if ps}


def prepare_representative(tt: TrainTrack, interior_bound: int) -> TrainTrack:
    """Subdivide at interior periodic points so that every periodic Nielsen
    path of period up to the bound has vertex endpoints."""
    cuts = interior_periodic_cuts(tt, interior_bound)
    if not cuts:
        return tt
    gm2 = refine_at_points(tt.gm, cuts)
    data = transition_matrix(gm2, edge_digraph(gm2))
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


def _admit(tt: TrainTrack, X: tuple, Y: tuple, period_bound: int,
           radius: float, found: dict) -> bool:
    """The one acceptance rule for a candidate rho = X . reverse(Y), given
    its two legal halves in either order; halves from one direction fail.
    The half from the earlier direction of `all_directions()`, by
    (|d|, d < 0), becomes X.  Where a half ends is its `path_length`, up
    to Python 3.11 the same float additions as the eigenray's positions.
    X ends within the radius; Y ends within POINT_TOL of X's end, at the
    first vertex of Y at or after X's end less POINT_TOL; the halves end
    in two edges at one vertex, and rho has exactly one illegal turn; some
    f^n with n up to the bound returns rho or its reverse within the
    half-length bound.  An accepted rho goes into `found` under
    min(rho, reverse(rho)).  Returns whether `found` holds that key."""
    if X[0] == Y[0]:
        return False
    if (abs(Y[0]), Y[0] < 0) < (abs(X[0]), X[0] < 0):
        (X, Y) = (Y, X)
    g = tt.gm.graph
    (p, q) = (g.path_length(X), g.path_length(Y[:-1]))
    if p > radius + 1e-9 or abs(q + g.lengths[abs(Y[-1])] - p) > POINT_TOL \
            or (len(Y) > 1 and q >= p - POINT_TOL):
        return False
    if X[-1] == Y[-1] or g.term_of(X[-1]) != g.term_of(Y[-1]):
        return False
    rho = X + invert(Y)
    key = min(rho, invert(rho))
    if key in found:
        return True
    if len(illegal_turns(tt.gate_map, rho)) != 1:
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
    of X and Y, so every ray vertex within reach goes into a bucket keyed
    by the gate of that reversed edge.  One sorted sweep per bucket
    pairs the entries within POINT_TOL, and each ray then keeps only its
    letters.  Only gates holding two or more directions get a bucket, and
    the sweep skips two entries with the same junction edge.  Both are
    exact: X and Y ending in one edge e meet in no turn, and a gate of one
    direction -e holds only entries with junction edge e.  Most gates are
    of that kind, since most vertices of a refined representative are
    valence-two periodic cuts with one direction per gate.  An entry pair
    of a qualifying direction pair, taken in direction order, gives the
    halves of a candidate, and `_admit` decides, in (pair, position) order,
    where they may end and whether the candidate is a Nielsen path."""
    if not tt.data.expanding:
        raise ValueError("periodic Nielsen path scan needs an expanding "
                         "irreducible train track")
    gm = tt.gm
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

    # X ends within radius + 1e-9, and Y up to POINT_TOL past X's end
    reach = radius + 1e-9 + 2 * POINT_TOL
    image = {d: gm.image_of_edge(d) for d in dirs}
    rays: dict = {}        # direction -> eigenray
    buckets: dict = {}     # gate -> [(position, direction, index, edge)]
    # junction edge e -> gate of -e, for the gates of two or more directions
    # (a gate with one direction -e has only junction edge e: never a turn)
    size = Counter(tt.gate_map.values())
    junction = {-d: g for (d, g) in tt.gate_map.items() if size[g] > 1}
    for d in sorted({d for pair in pairs for d in pair}, key=order.get):
        step, x = 1, dmap[d]   # least period of d, for the ray's growth
        while x != d:
            step, x = step + 1, dmap[x]
        (rays[d], pos) = _ray(image, gm.graph.lengths, d, step, reach)
        for i, (e, p) in enumerate(zip(rays[d], pos)):
            if e in junction and p <= reach:
                buckets.setdefault(junction[e], []).append((p, d, i, e))
        del pos

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
                (d1, i, d2, j) = (da, ia, db, ib) if order[da] < order[db] \
                    else (db, ib, da, ia)
                if (d1, d2) in pairs:
                    hits.append((order[d1], order[d2], i, j, d1, d2))
    hits.sort()

    found: dict = {}
    for (_, _, i, j, d1, d2) in hits:
        _admit(tt, rays[d1][:i + 1], rays[d2][:j + 1], period_bound, radius,
               found)
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
                raise InternalInconsistency("orbit left the enumerated set")
            paths.append(img)
            junctions.append(illegal_turns(tt.gate_map, img)[0])
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
                raise InternalInconsistency("orbit relation failed on the alpha half")
            connectors.append(tuple(f_alpha[len(alpha_cur):]))
        # closing connector
        alpha_last = paths[-1][:junctions[-1] + 1]
        f_alpha = gm.map_path(alpha_last)
        if reversal:
            target = invert(paths[0][junctions[0] + 1:])   # beta_0 reversed
        else:
            target = paths[0][:junctions[0] + 1]
        if f_alpha[:len(target)] != target:
            raise InternalInconsistency("orbit closing relation failed")
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


def _readmit(tt: TrainTrack, paths, period_bound: int,
             radius: float) -> Optional[list]:
    """The periodic Nielsen paths of `tt` that `paths` are, in the scan's
    order: each path splits at its first illegal turn into two halves and
    must pass `_admit` at the given radius, as a scan hit would.  None when
    some path fails."""
    found: dict = {}
    for rho in paths:
        turns = illegal_turns(tt.gate_map, rho)
        if not turns:
            return None
        k = turns[0]
        if not _admit(tt, rho[:k + 1], invert(rho[k + 1:]), period_bound,
                      radius, found):
            return None
    return [found[k] for k in sorted(found)]


def _carry(tt: TrainTrack, pinps: list, period_bound: int,
           radius: float) -> Optional[list]:
    """The periodic Nielsen paths of a folded train track, as the images of
    those before the fold: each path goes through the fold's push maps
    (`transport_path`) and is read back by `_readmit`.  None when the track
    is not expanding and irreducible or some path fails (the caller then
    scans)."""
    if not tt.data.expanding:
        return None
    return _readmit(tt, [transport_path(tt.gm, p.path) for p in pinps],
                    period_bound, radius)


def _lean_scan(tt: TrainTrack, period_bound: int) -> tuple:
    """Scan, then coarsen: (representative, periodic Nielsen paths).  The
    representative is `tt` refined only at the cut points of the scan's
    refinement that end a path found, or that refinement when none is
    found.  The refinement's push map (`history`) sends each cut edge of
    `tt` to its pieces in order, cut i being the end of piece i, so each
    lean edge is a run of consecutive pieces, and a path is read on the
    lean track run by run, exactly.  Each path read must pass `_admit` at
    the scan's radius, as a carried path does; a path that does not, or
    one that ends inside a lean edge, or an end set that is not
    f-invariant (`refine_at_points` checks), fails a certified invariant."""
    radius = tt.radius
    (prepared, pinps) = scan_pinps(tt, period_bound)
    if not pinps:
        return prepared, []
    push = {} if prepared is tt else prepared.gm.history[0]
    g = prepared.gm.graph
    ends = {v for p in pinps
            for v in (g.init_of(p.path[0]), g.term_of(p.path[-1]))}
    kept: dict = {}                  # edge of tt -> indices of the cuts kept
    for (e, pieces) in push.items():
        idx = [i for (i, x) in enumerate(pieces[:-1]) if g.term_of(x) in ends]
        if idx:
            kept[e] = idx
    lean = tt
    if kept:
        at = {e: list(accumulate(g.lengths[x] for x in push[e])) for e in kept}
        try:
            gm = refine_at_points(tt.gm, {e: [at[e][i] for i in idx]
                                          for (e, idx) in kept.items()})
        except ValueError as exc:
            raise InternalInconsistency(
                f"the Nielsen paths' ends are not invariant: {exc}") from None
        lean = TrainTrack(gm, gates(gm), transition_matrix(gm, edge_digraph(gm)))
    lean_pieces = lean.gm.history[0] if kept else {}
    runs: dict = {}                  # lean edge -> its pieces in `prepared`
    owner: dict = {}                 # piece -> its lean edge
    for e in tt.gm.graph.edge_ids():
        pieces = push.get(e, (e,))
        bounds = [0, *(i + 1 for i in kept.get(e, ())), len(pieces)]
        for (edge, a, b) in zip(lean_pieces.get(e, (e,)), bounds, bounds[1:]):
            runs[edge] = pieces[a:b]
            owner.update(dict.fromkeys(pieces[a:b], edge))

    def read(path) -> tuple:
        (out, i) = ([], 0)
        while i < len(path):
            edge = owner[abs(path[i])]
            run = runs[edge] if path[i] > 0 else invert(runs[edge])
            if path[i:i + len(run)] != run:
                raise InternalInconsistency(
                    "a Nielsen path ends inside an edge of the lean track")
            out.append(edge if path[i] > 0 else -edge)
            i += len(run)
        return tuple(out)

    read_back = _readmit(lean, [read(p.path) for p in pinps], period_bound,
                         radius)
    if read_back is None:
        raise InternalInconsistency(
            "a coarsened Nielsen path fails the acceptance rule")
    return lean, read_back


def stabilize(tt: TrainTrack, period_bound: int = 8) -> StableRepresentative:
    """Fold periodic Nielsen path orbits of a train track representative
    until the representative repeats projectively.  Each step folds the
    first candidate junction (full folds first) whose connector is
    nontrivial and logs the volume bookkeeping: x is the eigenmetric length
    of the folded segment, and the folded orbit's paths are transported
    across the fold.  When the budget of STABILIZE_STEPS folds runs out, or
    a fold fails, a representative is returned with stable=False; its
    orbits and the fold log remain valid data.

    The folds work on a lean representative: `_lean_scan` scans the
    refinement at every interior periodic point and keeps only the cut
    points that end a path found: the folds are made only at the paths'
    illegal turns (Bestvina-Handel 1992, section 5), so no other cut point
    does any work there.  A scan that finds no path returns the scanned
    refinement.
    After each fold the paths are carried across it (`_carry`) instead of
    rescanned, and a failed carry means a scan.  A carry cannot see a path
    that no earlier path goes to, nor one that ends at an interior periodic
    point that is no vertex of the lean representative.  So the paths of
    the returned representative always come from a scan: when they were
    carried, `_lean_scan` runs on it once more, and if the lists differ the
    scanned orbits are returned with stable=False."""
    radius = tt.radius
    (tt, pinps) = _lean_scan(tt, period_bound)
    if not pinps:
        return StableRepresentative(tt, [], radius, [])
    log: list = []

    def returned(entry, stable: bool) -> StableRepresentative:
        (tt, orbits, radius, pinps, carried) = entry
        if carried:
            (tt, scanned) = _lean_scan(tt, period_bound)
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
            folded = fold_at_pair(gm, d1, d2)
            moved = [transport_path(folded, p) for p in orbits[oi].paths]
            tt2 = TrainTrack(folded, gates(folded),
                             transition_matrix(folded, edge_digraph(folded)))
            radius2 = tt2.radius
            pinps2 = _carry(tt2, pinps, period_bound, radius2)
            carried = pinps2 is not None
            if not carried:
                (tt2, pinps2) = _lean_scan(tt2, period_bound)
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


def _link_components(turns) -> int:
    """Number of components of the link whose edges are `turns`."""
    link: dict = {}
    for (d, e) in turns:
        link.setdefault(d, []).append(e)
        link.setdefault(e, []).append(d)
    seen: set = set()
    comps = 0
    for d in link:
        if d not in seen:
            seen |= reach(link, d)
            comps += 1
    return comps


def _pairings(ends: list, away: list):
    """The perfect matchings of `ends` into tight junctions, pairs of ends
    that leave their vertex by distinct directions (`away[i]` for end i):
    the least end is paired with each later end in turn, and the rest are
    matched by the same rule."""
    if not ends:
        yield ()
        return
    for k in range(1, len(ends)):
        if away[ends[0]] != away[ends[k]]:
            for rest in _pairings(ends[1:k] + ends[k + 1:], away):
                yield ((ends[0], ends[k]),) + rest


def nielsen_loops(tt: TrainTrack, orbits: list) -> NielsenLoops:
    """Close the orbit paths into periodic Nielsen loops and count edge
    multiplicities; at a stable representative every edge is covered twice.

    The arc ends are paired vertex by vertex, since both whether a
    junction is tight and whether a vertex link is a circle are decided at
    one vertex.  `_pairings` lists up to 64 tight pairings of each vertex's
    ends.  When every vertex has a pairing whose link (the turns inside the
    arcs plus the pairing's junctions) is one circle, the first such
    pairing is taken at each vertex: that is the system the surface
    construction glues along.  Otherwise the first tight pairing is taken
    at each vertex.  The choices at different vertices do not interact, so
    among the matchings of all the ends, listed by the same rule with the
    least end of all paired first, this is the first one with the same
    property.  A perfect matching of tight junctions closes every walk into
    a tight loop, since each loop's closing junction is one of them; a
    vertex without a tight perfect matching of its ends raises ValueError.
    `link_components` keeps the count made for the pairing taken at each
    vertex: the surface construction's vertex-link test, decided once."""
    gm = tt.gm
    g = gm.graph
    arcs = [p for o in orbits for p in o.paths]
    # end 2a is the start of arc a and end 2a + 1 its end; away[i] is the
    # direction by which end i leaves its vertex into the arc
    away = [d for p in arcs for d in (p[0], -p[-1])]
    ends: dict = {v: [] for v in range(g.nv)}
    for i, d in enumerate(away):
        ends[g.init_of(d)].append(i)
    inner: dict = {v: [] for v in range(g.nv)}   # the turns inside the arcs
    for p in arcs:
        for (x, y) in zip(p, p[1:]):
            inner[g.term_of(x)].append((-x, y))
    (tight, circles) = ([], [])   # per vertex: (pairing, link components)
    for v in range(g.nv):
        counted = ((pairing, _link_components(
            inner[v] + [(away[i], away[j]) for (i, j) in pairing]))
            for pairing in islice(_pairings(ends[v], away), 64))
        first = next(counted, None)
        if first is None:
            raise ValueError("orbit paths do not close into Nielsen loops")
        tight.append(first)
        circles.append(next((pc for pc in chain([first], counted)
                             if pc[1] <= 1), None))
    chosen = circles if None not in circles else tight
    partner: dict = {}
    for (pairing, _) in chosen:
        for (i, j) in pairing:
            (partner[i], partner[j]) = (j, i)
    loops = []
    walked: set = set()
    for a in range(len(arcs)):
        if a in walked:
            continue
        (loop, i) = ([], 2 * a)
        while not loop or i != 2 * a:
            (b, s) = divmod(i, 2)
            walked.add(b)
            loop.extend(invert(arcs[b]) if s else arcs[b])
            i = partner[i ^ 1]
        loops.append(tuple(loop))
    mult: dict = {e: 0 for e in g.edge_ids()}
    for l in loops:
        for e in l:
            mult[abs(e)] += 1
    # a closed path's word is conjugate to that of any base loop it closes into
    classes = [CyclicWord.of(gm.path_to_word(l)) for l in loops]

    # f permutes the loops up to rotation and reversal; transitivity = one cycle
    canon = {cyclic_canonical(l, unoriented=True): i
             for i, l in enumerate(loops)}
    perm = [canon.get(cyclic_canonical(gm.map_path(l), unoriented=True), -1)
            for l in loops]
    transitive = sorted(perm) == list(range(len(loops))) and _single_cycle(perm)
    return NielsenLoops(loops, mult, classes, transitive,
                        [count for (_, count) in chosen])


def _single_cycle(perm) -> bool:
    """Whether the permutation `perm` of range(len(perm)) is one cycle."""
    return bool(perm) and len(reach([(j,) for j in perm], 0)) == len(perm)
