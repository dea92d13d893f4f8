"""Digest of every command's report, every stabilization step's periodic
Nielsen paths, the power-iteration work, every graph move and the
periodic-class word search on the corpus.

    PYTHONPATH=src python3 tools/corpus_digest.py > digest.txt

The first line is `bounds <json>`, the default `Bounds` as JSON, read off
the `bounds` entry of a `classify` report at the default flags.  Then,
for each command and each input in `corpus/`, at the default flags, it
prints one line `command input sha256`, the hash of the input's
`report_json` bytes with the report's `bounds` objects (the top-level one
and the verdict's) removed, so a change to `Bounds` shows on the one
`bounds` line and leaves every per-input line comparable.  After the
`classify` line of an input come its scan lines `scan input k sha256`,
one for the k-th stabilization step inside that `classify` (k from 0):
the hash covers the step's representative's vertex and edge counts and
its list of periodic indivisible Nielsen paths, the list that
`nielsen.group_orbits` receives, whether a scan found it or a fold carried
it.  A representative without such paths ends stabilization at once and
is hashed with its empty list.  So a change in the paths that
does not reach the report bytes still shows.  The last line of that block
is `steps input n`: the `TransitionData.steps` of every
`transition_matrix` call inside that `classify`, summed, so a change in
how much power iteration the pipeline does shows (the count is
deterministic; it reads 0 on a tree whose `TransitionData` has no
`steps`).  Then comes
`moves input sha256`: after every subdivision, fold, forest collapse and
refinement inside its `classify` and `tt`, in call order, the hash takes
the ambient word `path_to_word` of every edge e of the new graph, closed
into a base loop along `shortest_path` from the base to e and from e back
to the base, so a change in how the edge labels are carried through the
moves shows even where no report reads them.  Next comes
`maps input sha256`: the hash of the full state of each map those same
moves make, in the same order: vertex count, edge ends, the lengths in
insertion order (the order `MarkedGraph.volume` sums them in), base, edge
and vertex images, labels and the move's push maps, so a change in any of
them shows even between moves where no report reads it.  Then come two
lines `search input max_period,max_len result`: what
`periodic_conjugacy_search` returns at the default bounds (6, 12) and at
(3, 8), as `witness,period,orientation` or `none`, so a change in the
search's witnesses shows even where no report byte reads them.  An
input whose search at the default bounds generates balanced words only
then prints `words input sha256`: the hash of the candidate lists that
`_canonical_cyclic_words` returns for lengths 1 to 12 under that search's
first filter, on its map restricted to the eventual alphabet, so a change
in the generator's prunes that keeps the witnesses still shows.

After the corpus come maps outside it, with larger stretch factors, longer
stabilizations or paths that the corpus lacks: the square of each corpus
input whose square's images have at most 40 letters in all, named
`input^2`, then `a -> a^k b, b -> a` for k = 3..6, 12 and 16, named
`a->a^kb,b->a`, then `a -> b, b -> a B` (`TWO_PATH_ORBIT`), whose
stabilization ends with an orbit of two periodic Nielsen paths where each
corpus orbit has one, then `a -> A A A B A A A A B, b -> A A A A B`
(`LONG_PERIOD`), whose f^8 images run to millions of letters, then
`a -> b b A b, b -> b b A b b A b b b A b b b A b b b A b`
(`WIDE_REFINEMENT`, lambda about 12.9), whose refinement at every interior
periodic point of period up to 3 would have 2,312 edges, then five rank-3
maps (`ENDPOINT_MAPS`) with periodic Nielsen paths whose ends are interior
points of period 4 or more, then two nonsurjective rank-2 maps
(`FOLDED_AWAY`) whose periodic Nielsen paths the stabilizing folds remove,
so that they classify `irreducible_atoroidal`.  These ten are named by
their images without spaces, as `a->b,b->aB` and `a->ac,b->a,c->b`.  Each
prints `derived name sha256`, the hash of its `classify` report without
bounds, followed by its `scan` lines as above and by `torus name sha256`,
the hash of its `torus` report without bounds.  Three more maps
(`TORUS_MAPS`) print only their `torus` line: `a->a,b->1`, a trivial
image whose preimage chain ends in F;
`a->CAAB,b->1,c->bCBB`, whose chain fails with "generator image must be
nontrivial"; and `a->baab,b->cc,c->c`, whose chain fails on the
non-injective preimage.  They reach the witness subgroup and the chain
where the corpus does not.

Last come 13 maps on which the folding loop runs out its iteration budget
or fails to verify an invariant subgraph (`FOLD_LOOP_MAPS`), each named by
its images without spaces, as `a->Ab,b->ba`.  Each prints
`tt name sha256`, the hash of its `tt` report without bounds, and then
`maps name sha256`, the hash of the state of every map that the moves
inside that `tt` make, as above.  Up to 500 folds each, they hold the
folding loop to thousands of graphs that the corpus never reaches.  Their
edge words are not hashed: on graphs that large they take minutes a map.

Run it with PYTHONPATH set to each of two source trees and `diff` the
outputs to check that a change leaves every report, step, move and search
result identical.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack, contextmanager
from pathlib import Path

from endotorus import graphmap, nielsen, surface, traintrack
from endotorus.cli import COMMANDS, EndoSpec, parse, report_json, run
from endotorus.graphmap import GraphMap
from endotorus.words import (
    _canonical_cyclic_words,
    _on_eventual_alphabet,
    _PeriodFilter,
    periodic_conjugacy_search,
    show_word,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
MOVE_COMMANDS = ("classify", "tt")
SEARCH_BOUNDS = ((6, 12), (3, 8))   # (max_period, max_len)
FOLD_LOOP_MAPS = (
    "rank 2; a -> A b; b -> b a;",
    "rank 2; a -> A b a; b -> b a;",
    "rank 2; a -> a b A; b -> a b;",
    "rank 2; a -> b a; b -> b b a B;",
    "rank 2; a -> B A; b -> a b b;",
    "rank 3; a -> b; b -> b c B; c -> b a;",
    "rank 2; a -> b a b a B; b -> b a;",
    "rank 2; a -> B A b A A; b -> B A b;",
    "rank 2; a -> A b b A b A b; b -> A b;",
    "rank 3; a -> b C; b -> C a a; c -> c a B C;",
    "rank 2; a -> A B; b -> b A B;",
    "rank 2; a -> B; b -> a b b b;",
    "rank 2; a -> A B a; b -> A B A B B a;",
)
# maps whose torus report reaches paths of the preimage chain that the
# corpus does not: a trivial image with a chain that ends in F, a witness
# whose chain fails on a trivial image, and the non-injective preimage
TORUS_MAPS = (
    "rank 2; a -> a; b -> 1;",
    "rank 3; a -> C A A B; b -> 1; c -> b C B B;",
    "rank 3; a -> b a a b; b -> c c; c -> c;",
)
TWO_PATH_ORBIT = "rank 2; a -> b; b -> a B;"
LONG_PERIOD = "rank 2; a -> A A A B A A A A B; b -> A A A A B;"
WIDE_REFINEMENT = "rank 2; a -> b b A b; b -> b b A b b A b b b A b b b A b b b A b;"
ENDPOINT_MAPS = (
    "rank 3; a -> a c; b -> a; c -> b;",
    "rank 3; a -> c c; b -> a; c -> b c;",
    "rank 3; a -> c; b -> a; c -> b c;",
    "rank 3; a -> C B A; b -> C; c -> A;",
    "rank 3; a -> b c a; b -> a; c -> b;",
)
# nonsurjective rank-2 maps whose stabilizing folds leave no periodic
# Nielsen path, one of them a whole fold of a path's two halves
FOLDED_AWAY = (
    "rank 2; a -> b a b a b a; b -> a;",
    "rank 2; a -> a a a b; b -> a a;",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_bounds(report: dict) -> dict:
    """The report without its top-level `bounds` and `verdict.bounds`."""
    report = {k: v for k, v in report.items() if k != "bounds"}
    if "verdict" in report:
        report["verdict"] = {k: v for k, v in report["verdict"].items()
                             if k != "bounds"}
    return report


def _step_digest(step) -> str:
    (tt, pinps) = step
    paths = [(p.alpha, p.beta, p.period, p.reversal) for p in pinps]
    return _sha(repr((tt.gm.graph.nv, len(tt.gm.graph.edges), paths)).encode())


def _edge_words(gm) -> list:
    """The word of each edge's base loop: the edge between the BFS paths
    from the base to its initial vertex and from its terminal vertex
    back."""
    g = gm.graph
    return [gm.path_to_word(g.shortest_path(g.base, g.init_of(e)) + (e,)
                            + g.shortest_path(g.term_of(e), g.base))
            for e in g.edge_ids()]


def _map_state(gm) -> bytes:
    """Every part of a graph map, through public attributes only; dicts are
    sorted, except the lengths, whose order reaches the volume sums."""
    g = gm.graph
    state = (g.nv, sorted(g.edges.items()), list(g.lengths.items()), g.base,
             sorted(gm.eimg.items()), sorted(gm.vimg.items()),
             sorted(gm.labels.items()), [sorted(p.items()) for p in gm.history])
    return repr(state).encode()


@contextmanager
def _recording(owner, name: str, record):
    """Wrap `owner.name` so that `record(args, result)` sees each call; the
    callers look the name up at call time, so the wrapper is what they
    run."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        record(args, result)
        return result

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, real)


def _record_moves(stack: ExitStack, move) -> None:
    """Record every subdivision, fold, forest collapse and refinement as
    `move(args, new map)` until `stack` closes."""
    stack.enter_context(_recording(nielsen, "refine_at_points", move))
    for name in ("subdivide", "fold", "collapse_forest"):
        stack.enter_context(_recording(GraphMap, name, move))


def _run_recording(command: str, spec, states) -> tuple:
    """(report, stabilization steps, edge words after each move, power
    iteration steps) of one command; a step is a (representative, paths)
    pair, the moves are recorded only for MOVE_COMMANDS when `states` is
    a hash, each moved map's state going into it, and the power-iteration
    steps are summed over every `transition_matrix` call."""
    steps: list = []
    moves: list = []
    power = [0]

    def step(args, _):
        steps.append(args[:2])

    def unfolded(_, stable):
        # stabilization stopped at its first scan, before any grouping
        if not stable.orbits and not stable.fold_log:
            steps.append((stable.tt, []))

    def move(_, gm):
        moves.append(_edge_words(gm))
        states.update(_map_state(gm))

    def iterated(_, data):
        power[0] += getattr(data, "steps", 0)

    with ExitStack() as stack:
        stack.enter_context(_recording(nielsen, "group_orbits", step))
        stack.enter_context(_recording(surface, "stabilize", unfolded))
        for module in (graphmap, traintrack, nielsen):
            stack.enter_context(_recording(module, "transition_matrix", iterated))
        if command in MOVE_COMMANDS and states is not None:
            _record_moves(stack, move)
        return run(command, spec), steps, moves, power[0]


def _print_words(name: str, endo) -> None:
    """The `words` line of an input whose default search generates
    balanced words only; nothing for any other input."""
    restricted = _on_eventual_alphabet(endo)
    if restricted is None:
        return
    (max_period, max_len) = SEARCH_BOUNDS[0]
    filt = _PeriodFilter(restricted[0], max_period, max_len)
    if filt.balanced_only:
        lists = [_canonical_cyclic_words(filt.rank, length, True, filt)
                 for length in range(1, max_len + 1)]
        print(f"words {name} {_sha(repr(lists).encode())}", flush=True)


def _print_torus(name: str, spec) -> None:
    """The `torus` line of a map outside the corpus."""
    digest = _sha(report_json(_without_bounds(run("torus", spec))).encode())
    print(f"torus {name} {digest}", flush=True)


def _print_classify(name: str, spec) -> None:
    """The `derived` line of a map outside the corpus, its scan lines and
    its `torus` line."""
    (report, steps, _, _) = _run_recording("classify", spec, None)
    digest = _sha(report_json(_without_bounds(report)).encode())
    print(f"derived {name} {digest}", flush=True)
    for k, step in enumerate(steps):
        print(f"scan {name} {k} {_step_digest(step)}", flush=True)
    _print_torus(name, spec)


def _name(source: str) -> str:
    """A map's images without spaces, as `a->Ab,b->ba`."""
    return ",".join(part.replace(" ", "") for part in source.split(";")[1:-1])


def _print_tt(source: str) -> None:
    """The `tt` line of a map outside the corpus and the `maps` line of the
    moves inside it."""
    name = _name(source)
    states = hashlib.sha256()
    with ExitStack() as stack:
        _record_moves(stack, lambda _, gm: states.update(_map_state(gm)))
        report = run("tt", parse(source))
    print(f"tt {name} {_sha(report_json(_without_bounds(report)).encode())}",
          flush=True)
    print(f"maps {name} {states.hexdigest()}", flush=True)


def main() -> None:
    paths = sorted(CORPUS.glob("*.endo"))
    bounds = run("classify", parse(paths[0].read_text()))["bounds"]
    print(f"bounds {json.dumps(bounds, sort_keys=True)}", flush=True)
    for path in paths:
        spec = parse(path.read_text())
        moves: list = []
        states = hashlib.sha256()
        for command in COMMANDS:
            (report, steps, command_moves, power) = \
                _run_recording(command, spec, states)
            digest = _sha(report_json(_without_bounds(report)).encode())
            print(f"{command} {path.stem} {digest}", flush=True)
            if command == "classify":
                for k, step in enumerate(steps):
                    print(f"scan {path.stem} {k} {_step_digest(step)}", flush=True)
                print(f"steps {path.stem} {power}", flush=True)
            if command in MOVE_COMMANDS:
                moves.append((command, command_moves))
        print(f"moves {path.stem} {_sha(repr(moves).encode())}", flush=True)
        print(f"maps {path.stem} {states.hexdigest()}", flush=True)
        for (max_period, max_len) in SEARCH_BOUNDS:
            hit = periodic_conjugacy_search(spec.endo, max_period, max_len)
            result = "none" if hit is None else \
                f"{show_word(hit[0])},{hit[1]},{hit[2]:+d}"
            print(f"search {path.stem} {max_period},{max_len} {result}", flush=True)
        _print_words(path.stem, spec.endo)
    for path in paths:
        spec = parse(path.read_text())
        square = spec.endo.power(2)
        if sum(map(len, square.images)) <= 40:
            _print_classify(f"{path.stem}^2", EndoSpec(spec.rank, square, []))
    for k in (3, 4, 5, 6, 12, 16):
        _print_classify(f"a->a^{k}b,b->a",
                        parse(f"rank 2; a -> {'a ' * k}b; b -> a;"))
    for source in (TWO_PATH_ORBIT, LONG_PERIOD, WIDE_REFINEMENT):
        _print_classify(_name(source), parse(source))
    for source in ENDPOINT_MAPS + FOLDED_AWAY:
        _print_classify(_name(source), parse(source))
    for source in TORUS_MAPS:
        _print_torus(_name(source), parse(source))
    for source in FOLD_LOOP_MAPS:
        _print_tt(source)


if __name__ == "__main__":
    main()
