"""Periodic Nielsen paths on expanding irreducible train tracks.

A periodic indivisible Nielsen path rho of period p has exactly one
illegal turn, at a vertex v, between two directions d1 and d2 of one gate.
Writing rho = reverse(alpha) . beta with alpha and beta legal paths from v
that start with d1 and d2, invariance rel endpoints under F = f^p reads
F(alpha) = gamma . alpha and F(beta) = gamma . beta, or, when F reverses
rho, F(alpha) = gamma . beta and F(beta) = gamma . alpha, with gamma the
common prefix of F(alpha) and F(beta) (Bestvina-Handel 1992, section 5;
E. C. Turner, "Finding indivisible Nielsen paths for a train track map",
1995).  So both halves end at L = |gamma| / (lambda^p - 1), in general
inside an edge.  The scan grows the halves from every illegal turn of the
train track, for every period up to the bound: it reads F(alpha) and F(beta)
as stacked lazy substitutions until they part, and then lets each image
spell its half up to L, trying the legal continuations of a half depth
first wherever the images do not decide it.  The bounded-cancellation
radius caps L.  Only the ends found become vertices: the train track is
refined at the paths' interior ends, an f-invariant set, and each path
must pass the acceptance rule, `_admit`, on the refined track.

Stabilization folds at the illegal turns of these paths.  When both halves
of a path are whole edges E1 and E2 to two vertices, with f(E1) = gamma . E1
and f(E2) = gamma . E2, their images agree once the edges are identified,
and the fold identifies them whole (`traintrack.fold_at_pair`): the path
goes to the empty path, as in Bestvina-Handel 1992, section 5, where a fold
of the segments that map onto gamma alone would leave the same two halves,
shorter, to fold again.  Folding at the illegal turn of an indivisible
Nielsen path sends the other Nielsen paths to Nielsen paths (same
section), so after each fold the paths are carried instead of rescanned:
each goes through the fold's push maps, a path sent to the empty path is
gone, and every other one must pass `_admit` on the folded track; if one
fails the folded track is scanned.  `_admit` reads only a candidate's two
halves, so a grown path and a carried path meet one rule.  A carry cannot
see a path that no earlier path goes to, so whenever the paths of the
representative that `stabilize` returns were carried, it is scanned once
more, and if the lists differ the scanned orbits are returned with
stable=False.  The Nielsen data that leaves `stabilize` is always a
scan's.

The Nielsen loops pair the orbit paths' ends vertex by vertex, with no
search, since whether a junction is tight and whether a vertex link is one
circle are both decided at one vertex; the link counts of the pairings
taken are the surface test, which the surface layer reads.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import chain, combinations, islice
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
    push_path,
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
                           # the track it scanned, not of the refined tt
    fold_log: list         # each fold's volume bookkeeping
    stable: bool = True


class Atoroidal(NamedTuple):
    period_bound: int
    radius: float          # bounded-cancellation scan radius used


class Toroidal(NamedTuple):
    witness: CyclicWord
    period: int
    source: str            # "nielsen loops", or "both" with the word search


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

END_TOL = 1e-12    # two ends closer than END_TOL * radius are one point


def scan_pinps(tt: TrainTrack, period_bound: int = 8) -> tuple:
    """The periodic indivisible Nielsen paths of period up to the bound:
    (train track, list of NielsenPath).  The train track is `tt` refined
    at the interior ends of the paths, or `tt` itself when every end is a
    vertex.  Each path is grown from its illegal turn (`_grown_halves`),
    read on that track and handed to `_readmit`, the acceptance rule that
    a carried path meets too; a grown path that fails it, or ends that are
    not f-invariant (`refine_at_points` checks), fail a certified
    invariant.  The cancellation radius is that of `tt`: the refinement
    preserves the map and the metric, so the bound carries over.
    ValueError when `tt` is not expanding and irreducible, or when f kills
    a loop."""
    if not tt.data.expanding:
        raise ValueError("periodic Nielsen path scan needs an expanding "
                         "irreducible train track")
    radius = tt.radius
    tol = END_TOL * radius
    g = tt.gm.graph
    grown = list(_grown_halves(tt, period_bound, radius, tol))

    def interior(half, L):
        """(edge, position from its initial vertex) of the half's end, or
        None when the end is the last edge's terminal vertex."""
        (d, s) = (half[-1], L - g.path_length(half[:-1]))
        e = abs(d)
        if s >= g.lengths[e] - tol:
            return None
        return (e, s if d > 0 else g.lengths[e] - s)

    points = [(interior(A, L), interior(B, L)) for (A, B, L) in grown]
    cuts: dict = {}
    for (e, x) in sorted(pt for pair in points for pt in pair if pt):
        if not cuts.get(e) or x > cuts[e][-1] + tol:
            cuts.setdefault(e, []).append(x)
    (lean, push) = (tt, {})
    if cuts:
        try:
            gm = refine_at_points(tt.gm, cuts)
        except ValueError as exc:
            raise InternalInconsistency(
                f"the Nielsen paths' ends are not invariant: {exc}") from None
        lean = TrainTrack(gm, gates(gm), transition_matrix(gm, edge_digraph(gm)))
        push = gm.history[0]

    def read(half, point) -> tuple:
        """The half as a path of `lean`, which has a vertex at its end."""
        if point is None:
            return push_path(half, push)
        (e, x) = point
        i = bisect_left(cuts[e], x - tol)
        pieces = push[e]
        return push_path(half[:-1], push) + (
            pieces[:i + 1] if half[-1] > 0 else invert(pieces[i + 1:]))

    paths = _readmit(lean, [invert(read(A, pa)) + read(B, pb) for
                            ((A, B, _), (pa, pb)) in zip(grown, points)],
                     period_bound, radius)
    if paths is None:
        raise InternalInconsistency(
            "a grown Nielsen path fails the acceptance rule")
    return lean, paths


def _grown_halves(tt: TrainTrack, period_bound: int, radius: float,
                  tol: float):
    """(alpha, beta, L) for every pair of legal halves, grown from an
    illegal turn {d1, d2} of `tt`, that solve the Nielsen equations of
    some F = f^p, p up to the bound: F(alpha) = gamma alpha and F(beta) =
    gamma beta, or F(alpha) = gamma beta and F(beta) = gamma alpha
    (reversing), gamma the common prefix of F(alpha) and F(beta).  alpha
    starts with d1 and beta with d2; both run to L = |gamma| / (lambda^p -
    1) <= radius, inside their last edges or at their ends (within `tol`).
    A path of least period q is found at every multiple of q, and every
    q up to the bound has one above half the bound, so only those p are
    tried.

    F(alpha) and F(beta) are stacks of items (k, d), each standing for
    f^k(d), of length lambda^k l(d): equal items at the tops of both are
    dropped whole, so no F-image is built.  A half is not known ahead of
    its image (F expands, so each letter of a half is spelled by the image
    of a later one): a half whose stack runs dry takes each legal next
    edge in turn, depth first, whose image can go on as the other stack
    or the half demands.  Until the stacks part they agree (gamma); where
    they part, their letters are d1 and d2 or, reversing, d2 and d1; from
    there each stack spells a half, letter by letter, to L.  Two halves
    with equal images that end at one vertex close a loop that f kills:
    ValueError."""
    gm = tt.gm
    g = gm.graph
    gate = tt.gate_map
    dmap = direction_map(gm)
    onward = {d: [c for c in g.directions_at(g.term_of(d))
                  if gate[c] != gate[-d]] for d in dmap}
    power = [tt.stretch ** k for k in range(period_bound + 1)]
    lead: dict = {}      # item -> the first letter of its image
    size: dict = {}      # item -> the length of its image
    below: dict = {}     # item -> its items one level down, last first
    for d in dmap:
        (x, image) = (d, gm.image_of_edge(d)[::-1])
        for k in range(period_bound + 1):
            (lead[k, d], size[k, d]) = (x, power[k] * g.lengths[abs(d)])
            below[k + 1, d] = tuple((k, c) for c in image)
            x = dmap[x]

    def grow(p, cap, state):
        """Run one branch of the search, state = [halves, stacks, letters
        of each half stacked, length of gamma read, (swap, L, letters
        spelt, their length) once the stacks part], until it ends.  The
        halves when they are found, (i, letters) when half i must take an
        edge whose image starts with one of the letters (any when None),
        or None when the branch fails."""
        (halves, stacks, taken, common, parted) = state
        (d1, d2) = (halves[0][0], halves[1][0])
        (sa, sb) = stacks
        while parted is None:             # reading gamma
            if not sa or not sb:          # stack the halves' next letters
                for (i, stack) in enumerate(stacks):
                    if not stack and taken[i] < len(halves[i]):
                        stack.append((p, halves[i][taken[i]]))
                        taken[i] += 1
            if not sa or not sb:
                state[3] = common
                if sa or sb:              # the image goes on, or parts
                    x = lead[(sa or sb)[-1]]
                    return (int(not sb), {d1, d2} if x in (d1, d2) else {x})
                if g.term_of(halves[0][-1]) == g.term_of(halves[1][-1]):
                    raise ValueError(
                        "two legal paths with equal images close a loop "
                        "that the map kills: it is not injective")
                return (0, None)
            (x, y) = (sa[-1], sb[-1])
            if x == y:
                sa.pop()
                sb.pop()
                common += size[x]
                if common > cap:
                    return None
            elif lead[x] != lead[y]:
                if {lead[x], lead[y]} != {d1, d2}:
                    return None
                parted = state[4] = (int(lead[x] != d1),
                                     common / (power[p] - 1.0),
                                     [0, 0], [0.0, 0.0])
            else:                         # expand the higher item, or both
                if x[0] >= y[0]:
                    sa.extend(below[sa.pop()])
                if y[0] >= x[0]:
                    sb.extend(below[sb.pop()])
        (swap, L, spelt, at) = parted
        while True:                       # spelling the halves
            (dry, moved) = (None, False)
            for (i, stack) in enumerate(stacks):
                target = halves[i ^ swap]
                while at[i] < L - tol:
                    if not stack:
                        if taken[i] == len(halves[i]):
                            dry = i if dry is None else dry
                            break
                        stack.append((p, halves[i][taken[i]]))
                        taken[i] += 1
                    while stack[-1][0]:
                        stack.extend(below[stack.pop()])
                    e = stack.pop()[1]
                    if spelt[i] == len(target):
                        target.append(e)
                    elif target[spelt[i]] != e:
                        return None
                    spelt[i] += 1
                    at[i] += g.lengths[abs(e)]
                    moved = True
            if dry is None:
                return (tuple(halves[0][:spelt[swap]]),
                        tuple(halves[1][:spelt[1 ^ swap]]), L)
            if not moved:
                target = halves[dry ^ swap]
                return (dry, {target[spelt[dry]]}
                        if spelt[dry] < len(target) else None)

    for v in range(g.nv):
        for (d1, d2) in combinations(g.directions_at(v), 2):
            for p in range(period_bound // 2 + 1, period_bound + 1):
                if gate[d1] != gate[d2] or lead[p, d1] != lead[p, d2]:
                    continue              # no illegal turn, or no gamma
                cap = (radius + tol) * (power[p] - 1.0)
                todo = [[[[d1], [d2]], [[], []], [0, 0], 0.0, None]]
                while todo:
                    state = todo.pop()
                    out = grow(p, cap, state)
                    if out is None or len(out) == 3:
                        if out:
                            yield out
                        continue
                    (i, want) = out
                    (halves, stacks, taken, common, parted) = state
                    for c in onward[halves[i][-1]]:
                        if want is None or lead[p, c] in want:
                            copy = [list(h) for h in halves]
                            copy[i].append(c)
                            todo.append([copy, [list(s) for s in stacks],
                                         list(taken), common, parted and (
                                             *parted[:2], list(parted[2]),
                                             list(parted[3]))])


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
    (|d|, d < 0), becomes X.  Where a half ends is its `path_length`.
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
    (`transport_path`) and is read back by `_readmit`.  A path the fold
    sends to the empty path, as a whole fold of its two halves does, is
    gone.  None when the track is not expanding and irreducible or some
    path fails (the caller then scans)."""
    if not tt.data.expanding:
        return None
    moved = (transport_path(tt.gm, p.path) for p in pinps)
    return _readmit(tt, [rho for rho in moved if rho], period_bound, radius)


def stabilize(tt: TrainTrack, period_bound: int = 8) -> StableRepresentative:
    """Fold periodic Nielsen path orbits of a train track representative
    until the representative repeats projectively.  Each step folds the
    first candidate junction (full folds first) whose connector is
    nontrivial, whole when its edges' images agree once they are identified
    (`fold_at_pair`), and logs the volume bookkeeping: x is the eigenmetric
    length of the folded segment, and the folded orbit's paths are
    transported across the fold.  When the budget of STABILIZE_STEPS folds
    runs out, or a fold fails, a representative is returned with
    stable=False; its orbits and the fold log remain valid data.

    The folds work on the train track refined at the paths' interior ends
    only (`scan_pinps`): they are made at the paths' illegal turns
    (Bestvina-Handel 1992, section 5), so no other point needs to be a
    vertex.  A scan that finds no path returns `tt` itself.
    After each fold the paths are carried across it (`_carry`) instead of
    rescanned, and a failed carry means a scan.  A carry cannot see a path
    that no earlier path goes to.  So the paths of the returned
    representative always come from a scan: when they were carried, the
    scan runs on it once more, and if the lists differ the scanned orbits
    are returned with stable=False."""
    radius = tt.radius
    (tt, pinps) = scan_pinps(tt, period_bound)
    if not pinps:
        return StableRepresentative(tt, [], radius, [])
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
            folded = fold_at_pair(gm, d1, d2)
            moved = [transport_path(folded, p) for p in orbits[oi].paths]
            tt2 = TrainTrack(folded, gates(folded),
                             transition_matrix(folded, edge_digraph(folded)))
            radius2 = tt2.radius
            pinps2 = _carry(tt2, pinps, period_bound, radius2)
            carried = pinps2 is not None
            if not carried:
                (tt2, pinps2) = scan_pinps(tt2, period_bound)
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
