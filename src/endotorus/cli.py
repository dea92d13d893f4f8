"""Command-line front end: a small DSL for endomorphisms, pipeline commands,
JSON reports, and a batch mode for corpora.

Grammar:  rank N; a -> a b; b -> b a;
Inverses are uppercase letters or ^-1; whitespace is free; '#' starts a
comment until end of line.  An image written as a lone 1 is the empty
word: the generator maps to the identity.  A corpus file may carry
'# expect: <verdict>'.

Exit codes: 0 success, 1 parse error, 2 usage error (a bound or `--jobs`
below 1, a batch with no input, or an input that cannot be read), 3
internal inconsistency.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

from endotorus.words import Endomorphism, reduce_word, show_word
from endotorus.traintrack import (
    FiniteOrderCertificate,
    ReductionWitness,
    TrainTrack,
    Unknown,
)
from endotorus.nielsen import NielsenLoops, StableRepresentative, critical_equation
from endotorus.surface import (
    Analysis,
    Bounds,
    InternalInconsistency,
    SurfaceRealization,
    Verdict,
)
from endotorus.torus import chi_zero_report, subgroup_report

SCHEMA_VERSION = 1
COMMANDS = ("classify", "tt", "nielsen", "surface", "torus", "report")


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at offset {position}: {message}")
        self.position = position


class EndoSpec(NamedTuple):
    rank: int
    endo: Endomorphism
    warnings: list
    expect: Optional[str] = None

    def render(self) -> str:
        parts = [f"rank {self.rank};"]
        for i, im in enumerate(self.endo.images):
            letters = " ".join(show_word((x,)) for x in im) if im else show_word(im)
            parts.append(f"{chr(ord('a') + i)} -> {letters};")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _strip_comments(text: str):
    """Replace comments by spaces (offsets preserved); collect expectations."""
    out = []
    expect = None
    i = 0
    while i < len(text):
        if text[i] == "#":
            j = text.find("\n", i)
            if j == -1:
                j = len(text)
            comment = text[i:j]
            if "expect:" in comment:
                expect = comment.split("expect:", 1)[1].strip()
            out.append(" " * (j - i))
            i = j
        else:
            out.append(text[i])
            i += 1
    return "".join(out), expect


def parse(text: str) -> EndoSpec:
    """Parse the DSL into a validated endomorphism."""
    clean, expect = _strip_comments(text)
    pos = 0
    n = len(clean)

    def skip_ws():
        nonlocal pos
        while pos < n and clean[pos].isspace():
            pos += 1

    def expect_str(s: str):
        nonlocal pos
        skip_ws()
        if not clean.startswith(s, pos):
            raise ParseError(f"expected {s!r}", pos)
        pos += len(s)

    skip_ws()
    expect_str("rank")
    skip_ws()
    start = pos
    while pos < n and "0" <= clean[pos] <= "9":
        pos += 1
    if start == pos:
        raise ParseError("expected a rank integer", pos)
    rank = int(clean[start:pos])
    if rank < 2:
        raise ParseError("rank must be at least 2", start)
    if rank > 26:
        raise ParseError("rank must be at most 26, one generator for each "
                         "letter a-z", start)
    expect_str(";")

    images: dict = {}
    warnings: list = []
    while True:
        skip_ws()
        if pos >= n:
            break
        ch = clean[pos]
        if not "a" <= ch <= "z":
            raise ParseError("expected a generator name", pos)
        gen = ord(ch) - ord("a") + 1
        if gen > rank:
            raise ParseError(f"generator {ch!r} is outside rank {rank}", pos)
        if gen in images:
            raise ParseError(f"duplicate image for {ch!r}", pos)
        pos += 1
        expect_str("->")
        skip_ws()
        trivial = clean.startswith("1", pos)   # a lone '1' is the empty image
        if trivial:
            pos += 1
            expect_str(";")
        letters = []
        while not trivial:
            skip_ws()
            if pos >= n:
                raise ParseError("unterminated image (missing ';')", pos)
            c = clean[pos]
            if c == ";":
                pos += 1
                break
            if not (c.isascii() and c.isalpha()):
                raise ParseError(f"unexpected character {c!r} in image", pos)
            letter = (ord(c.lower()) - ord("a") + 1) * (1 if c.islower() else -1)
            if abs(letter) > rank:
                raise ParseError(f"undeclared generator {c!r}", pos)
            pos += 1
            # optional ^-1
            save = pos
            skip_ws()
            if pos < n and clean[pos] == "^":
                pos += 1
                skip_ws()
                if clean.startswith("-1", pos):
                    pos += 2
                    letter = -letter
                else:
                    raise ParseError("only ^-1 is supported", pos)
            else:
                pos = save
            letters.append(letter)
        if not letters and not trivial:
            raise ParseError("empty image", pos)
        reduced = reduce_word(letters)
        if tuple(letters) != reduced:
            warnings.append(f"image of {ch!r} was not reduced; reduced form used")
        images[gen] = reduced
    missing = [chr(ord("a") + i) for i in range(rank) if i + 1 not in images]
    if missing:
        raise ParseError(f"missing image for {', '.join(missing)}", pos)
    endo = Endomorphism(rank, tuple(images[g] for g in range(1, rank + 1)))
    return EndoSpec(rank, endo, warnings, expect)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _round_floats(obj, digits: int = 10):
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _train_track_dict(tt: TrainTrack) -> dict:
    gm = tt.gm
    return {
        "vertices": gm.graph.nv,
        "edges": len(gm.graph.edges),
        "matrix": tt.data.as_lists(),
        "lambda": tt.data.lam,
        "eigenmetric": list(tt.data.eigenmetric) if tt.data.eigenmetric else None,
        "irreducible": tt.data.irreducible,
        "expanding": tt.data.expanding,
        "eigen_residual": tt.data.residual,
        "edge_images": {str(e): list(p) for e, p in sorted(gm.eimg.items())},
    }


def _finite_order_dict(cert: FiniteOrderCertificate) -> dict:
    return {"power": cert.power, "conjugator": show_word(cert.conjugator)}


def _loops_dict(loops: NielsenLoops) -> dict:
    return {
        "loops": [list(l) for l in loops.loops],
        "multiplicities": {str(k): c for k, c in sorted(loops.multiplicities.items())},
        "classes": [show_word(c.letters) for c in loops.classes],
        "transitive": loops.transitive,
    }


def _witness_dict(w: ReductionWitness) -> dict:
    """A witness reaches a report only as `verify_reduction_witness`
    returned it."""
    return {
        "factors": [[show_word(b) for b in f.basis] for f in w.factors],
        "conjugators": [show_word(f.conjugator) for f in w.factors],
        "provenance": w.provenance,
        "verified": True,
    }


def _obstruction_dict(result) -> dict:
    """The train track stage ended in a witness, a certificate or Unknown."""
    if isinstance(result, ReductionWitness):
        return {"reduction_witness": _witness_dict(result)}
    if isinstance(result, FiniteOrderCertificate):
        return {"finite_order": _finite_order_dict(result)}
    return {"unknown": {"reason": result.reason,
                        "iterations": result.iterations}}


def _stable_dict(stable: StableRepresentative) -> dict:
    out = {
        "train_track": _train_track_dict(stable.tt),
        "stable": stable.stable,
        "fold_log": stable.fold_log,
        "has_orbit": bool(stable.orbits),
    }
    if stable.orbits:
        out["orbits"] = [{
            "paths": [list(p) for p in o.paths],
            "connectors": [list(t) for t in o.connectors],
            "period": o.period,
            "orientation_reversal": o.orientation_reversal,
        } for o in stable.orbits]
        out["critical_residual"] = critical_equation(stable.tt, stable.orbits)
    return out


def _verdict_dict(v: Verdict) -> dict:
    out = {
        "kind": v.kind,
        "injective": v.injective,
        "irreducibility": v.irreducibility,
        "notes": v.notes,
        "bounds": v.bounds,
    }
    if v.witness is not None:
        out["reduction_witness"] = _witness_dict(v.witness)
    if v.finite_order is not None:
        out["finite_order"] = _finite_order_dict(v.finite_order)
    if v.surface is not None:
        out["surface"] = v.surface.as_dict()
    if v.toroidal is not None:
        out["toroidal"] = {"witness": show_word(v.toroidal.witness.letters),
                           "period": v.toroidal.period,
                           "source": v.toroidal.source}
    if v.atoroidal is not None:
        out["atoroidal"] = {"period_bound": v.atoroidal.period_bound,
                            "radius": v.atoroidal.radius}
    if v.loops is not None:
        out["nielsen_loops"] = _loops_dict(v.loops)
    if v.stable is not None:
        out["stabilization"] = _stable_dict(v.stable)
    return out


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

_NOT_INJECTIVE = ("endomorphism is not injective: no stable representative "
                  "(stabilization needs an injective map)")


def _command_view(command: str, analysis: Analysis) -> dict:
    """The report entries of one command, read from the analysis."""
    if command == "classify":
        return {"verdict": _verdict_dict(analysis.verdict)}
    if command == "tt":
        tt = analysis.train_track
        if isinstance(tt, TrainTrack):
            return {"train_track": _train_track_dict(tt)}
        return _obstruction_dict(tt)
    if command == "nielsen":
        stable = analysis.stable
        if stable is None and not analysis.injective \
                and isinstance(analysis.train_track, TrainTrack):
            return {"unknown": {"reason": _NOT_INJECTIVE}}
        if stable is None:
            out = _obstruction_dict(analysis.train_track)
            if "unknown" in out:   # this view reports no fold count
                del out["unknown"]["iterations"]
            return out
        out = {"stabilization": _stable_dict(stable)}
        loops = analysis.loops
        if isinstance(loops, Unknown):
            out["unknown"] = {"reason": loops.reason}
        elif loops is not None:
            out["nielsen_loops"] = _loops_dict(loops)
        return out
    if command == "surface":
        surf = analysis.surface
        if surf is None and not analysis.injective:
            return {"not_surface": {"reason": _NOT_INJECTIVE}}
        if surf is None:
            return {"not_surface": {
                "reason": "no stable representative with a Nielsen path "
                          "orbit (nothing to realize)"}}
        if isinstance(surf, SurfaceRealization):
            return {"surface": surf.as_dict()}
        return {"not_surface": {"reason": surf.reason, "vertex": surf.vertex}}
    if command == "report":
        return {"characterization": chi_zero_report(analysis)}
    if command == "torus":
        return subgroup_report(analysis)
    raise ValueError(f"unknown command {command!r}")


def run(command: str, spec: EndoSpec, flags: Optional[dict] = None) -> dict:
    """Execute one pipeline command; `flags` are `Bounds` fields.  Module
    errors are serialized, never raised (except internal inconsistencies,
    which `main` maps to exit code 3)."""
    bounds = Bounds(**(flags or {}))
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "input": {
            "rank": spec.rank,
            "images": [show_word(im) for im in spec.endo.images],
            "text": spec.render(),
        },
        "bounds": bounds.as_dict(),
        "warnings": spec.warnings,
    }
    if spec.expect:
        report["input"]["expect"] = spec.expect
    try:
        report.update(_command_view(command, Analysis(spec.endo, bounds)))
    except InternalInconsistency:
        raise
    except Exception as exc:  # propagated module errors, serialized
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return _round_floats(report)


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


# entries that `_render_text` shows in lines of their own, or not at all
_NOT_AN_ENTRY_LINE = frozenset({"schema", "command", "input", "bounds", "warnings",
                                "verdict", "timing_seconds"})


def _render_text(report: dict) -> str:
    """The report as text lines: every top-level entry but `schema`,
    `command` and `bounds` shows, the command's entries in report order."""
    source = report["input"]
    name = f"{source['name']}: " if "name" in source else ""
    lines = [f"input: {name}{source['text']}"]
    lines.extend(f"warning: {w}" for w in report["warnings"])
    if "verdict" in report:
        v = report["verdict"]
        lines.append(f"verdict: {v['kind']}  (injective: {v['injective']})")
        if "surface" in v:
            s = v["surface"]
            lines.append(f"surface: genus {s['g']}, boundary {s['b']}, "
                         f"lambda {s['lambda']:.10f}, "
                         f"fully irreducible: {s['fully_irreducible']}")
        if "reduction_witness" in v:
            w = v["reduction_witness"]
            lines.append(f"reduction witness: factors {w['factors']} "
                         f"conjugators {w['conjugators']}")
        if "finite_order" in v:
            lines.append(f"finite order: power {v['finite_order']['power']}")
        if "toroidal" in v:
            lines.append(f"periodic class: {v['toroidal']['witness']} "
                         f"(period {v['toroidal']['period']})")
        if "atoroidal" in v:
            a = v["atoroidal"]
            lines.append(f"atoroidal within bounds: period <= "
                         f"{a['period_bound']}")
        for note in v.get("notes", []):
            lines.append(f"note: {note}")
    for (key, value) in report.items():
        if key not in _NOT_AN_ENTRY_LINE:
            lines.append(f"{key}: {json.dumps(value, sort_keys=True, default=str)}")
    if "timing_seconds" in report:
        lines.append(f"timing: {report['timing_seconds']} s")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _run_single(args_tuple):
    """Run one parsed input.  `parse_s` is the wall time of its parse, or
    None without timing; with it, the report records the wall time of
    parse and run (this breaks byte determinism)."""
    (command, spec, name, flags, parse_s) = args_tuple
    t0 = time.monotonic()
    rep = run(command, spec, flags)
    if name is not None:
        rep["input"]["name"] = name
    if parse_s is not None:
        rep["timing_seconds"] = round(parse_s + time.monotonic() - t0, 3)
    return rep


_FLAG_SPELLING = {"max_iterations": "max-iter"}   # flags not named after their field


def main(argv=None) -> int:
    import argparse   # here, so that `import endotorus.cli` does not load it
    ap = argparse.ArgumentParser(
        prog="endotorus",
        description="train tracks, Nielsen paths and mapping-torus "
                    "invariants of free group endomorphisms")
    ap.add_argument("command", choices=COMMANDS + ("batch",))
    ap.add_argument("inputs", nargs="*",
                    help="a DSL file ('-' for stdin); batch mode takes many")
    ap.add_argument("--cmd", default="classify", choices=COMMANDS,
                    help="pipeline command for batch mode")
    defaults = Bounds().as_dict()
    for (name, default) in defaults.items():
        flag = _FLAG_SPELLING.get(name, name.replace("_", "-"))
        ap.add_argument(f"--{flag}", dest=name, type=int, default=default)
    ap.add_argument("--jobs", type=int, default=1,
                    help="batch worker processes, at most one per input")
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--timing", action="store_true",
                    help="include wall-clock timing (breaks byte determinism)")
    args = ap.parse_intermixed_args(argv)
    if args.command != "batch" and len(args.inputs) > 1:
        ap.error(f"{args.command} takes one input; for several, use "
                 f"'batch --cmd {args.command}'")

    flags = {name: getattr(args, name) for name in defaults}
    try:
        Bounds(**flags)
    except ValueError as exc:
        ap.error(str(exc))
    if args.jobs < 1:
        ap.error(f"jobs must be at least 1, not {args.jobs}")

    if args.command == "batch":
        paths = []
        for item in args.inputs:
            p = Path(item)
            paths.extend(sorted(p.glob("*.endo")) if p.is_dir() else [p])
        if not paths:
            ap.error("batch needs an input: a file, '-' or a directory that "
                     "holds .endo files")
    else:
        paths = [args.inputs[0] if args.inputs else "-"]
    texts = []
    for path in paths:
        try:
            texts.append(sys.stdin.read() if str(path) == "-" else Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {path}: "
                  f"{getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
            return 2

    # every input is parsed before any runs, so a batch that holds a parse
    # error prints no report; it names the input that failed
    batch = args.command == "batch"
    tasks = []
    for (path, text) in zip(paths, texts):
        t0 = time.monotonic()
        try:
            spec = parse(text)
        except ParseError as exc:
            print(f"error: {f'{path}: ' if batch else ''}{exc}", file=sys.stderr)
            return 1
        parse_s = time.monotonic() - t0 if args.timing else None
        tasks.append((args.cmd if batch else args.command, spec,
                      path.name if batch else None, flags, parse_s))

    try:
        if batch:
            workers = min(args.jobs, len(tasks))
            if workers > 1:
                # imported here: only a parallel batch pays for it
                from multiprocessing import Pool
                with Pool(workers) as pool:
                    reports = pool.map(_run_single, tasks)
            else:
                reports = [_run_single(t) for t in tasks]
            for rep in reports:
                print(report_json(rep) if args.json else _render_text(rep))
            return 0
        rep = _run_single(tasks[0])
        print(report_json(rep) if args.json else _render_text(rep))
        return 0
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


# The imports are done.  Move every object they made to the permanent
# generation, so that no later collection scans the start-up heap: left
# young, it is scanned by a generation-1 collection that falls inside the
# first `run` or before it, depending only on how much the imports
# allocated.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
