import inspect
import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

import pytest

from endotorus import cli, graphmap, nielsen, surface, torus, traintrack, words
from endotorus import subgroups as sg
from endotorus.cli import COMMANDS, ParseError, main, parse, report_json, run
from endotorus.surface import Bounds, InternalInconsistency
from endotorus.words import Endomorphism, parse_word, periodic_conjugacy_search

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# rank-3 maps with periodic Nielsen paths whose ends are interior points of
# period 4 or more
ENDPOINT_MAPS = (
    "rank 3; a -> a c; b -> a; c -> b;",
    "rank 3; a -> c c; b -> a; c -> b c;",
    "rank 3; a -> c; b -> a; c -> b c;",
    "rank 3; a -> C B A; b -> C; c -> A;",
    "rank 3; a -> b c a; b -> a; c -> b;",
)


class TestParse:
    def test_remark_map(self):
        spec = parse("rank 2; a -> a b; b -> b a;")
        assert spec.rank == 2
        assert spec.endo.images == (parse_word("ab"), parse_word("ba"))

    def test_extension(self):
        spec = parse("rank 3; a -> a b; b -> b a; c -> a;")
        assert spec.endo.images[2] == parse_word("a")

    def test_missing_image(self):
        with pytest.raises(ParseError) as err:
            parse("rank 2; a -> a;")
        assert "missing image for b" in str(err.value)

    def test_undeclared_generator(self):
        with pytest.raises(ParseError):
            parse("rank 2; a -> a c; b -> b;")

    def test_caret_inverse(self):
        spec = parse("rank 2; a -> a b^-1; b -> b;")
        assert spec.endo.images[0] == parse_word("aB")

    def test_uppercase_inverse(self):
        spec = parse("rank 2; a -> a B; b -> b;")
        assert spec.endo.images[0] == parse_word("aB")

    def test_whitespace_insensitive(self):
        a = parse("rank 2;a->ab;b->ba;")
        b = parse("rank 2 ;  a ->  a   b ; b -> b a ;")
        c = parse("rank 2;\u3000a ->\u00a0a b;\u2029b -> b a;")   # Unicode spaces
        assert a.endo == b.endo == c.endo

    def test_unreduced_image_warns(self):
        spec = parse("rank 2; a -> a b B a; b -> b;")
        assert spec.endo.images[0] == parse_word("aa")
        assert spec.warnings

    @pytest.mark.parametrize("text,offset", [
        ("rank \u00b2; a -> a; b -> b;", 5),      # superscript two
        ("rank \u0662; a -> a; b -> b;", 5),      # Arabic-Indic two
        ("rank 2; a -> \u0130; b -> a;", 13),     # dotted capital I
        ("rank 2; \u00aa -> a; b -> a;", 8),      # feminine ordinal
        ("rank 2; a -> a; b -> \u01c5;", 21),     # title-case DZ caron
    ])
    def test_non_ascii_letters_and_digits_are_rejected(self, text, offset):
        # rank digits, generator names and image letters are ASCII only
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == offset

    def test_comments_and_expect(self):
        spec = parse("# expect: geometric\nrank 2; a -> a b; b -> a;")
        assert spec.expect == "geometric"

    def test_roundtrip(self):
        # a trivial image renders as 1 and parses back
        for text in ("rank 2; a -> a b; b -> b a;", "rank 2; a -> b B; b -> a b;",
                     "rank 3; a -> a A; b -> c; c -> b a;"):
            spec = parse(text)
            again = parse(spec.render())
            assert again.endo == spec.endo and again.rank == spec.rank

    def test_rank_one_rejected(self):
        with pytest.raises(ParseError):
            parse("rank 1; a -> a;")

    def test_empty_image_needs_the_one(self):
        assert parse("rank 2; a -> 1; b -> a;").endo.images == ((), (1,))
        for text in ("rank 2; a -> ; b -> a;", "rank 2; a -> 1 b; b -> a;"):
            with pytest.raises(ParseError):
                parse(text)


class TestRun:
    def test_classify_remark(self):
        rep = run("classify", parse("rank 2; a -> a b; b -> b a;"))
        assert rep["verdict"]["kind"] == "irreducible_atoroidal"

    def test_surface_golden(self):
        rep = run("surface", parse("rank 2; a -> a b; b -> a;"))
        s = rep["surface"]
        assert s["g"] == 1 and s["b"] == 1 and s["fully_irreducible"]
        assert abs(s["lambda"] - 1.6180339887) < 1e-9

    def test_torus_swap(self):
        rep = run("torus", parse("rank 2; a -> b; b -> a;"))
        assert rep["witness_subgroup"]["power"] == 2
        assert rep["fiber_chain"]["conclusion"] == "infinite index (stable chain)"

    def test_tt_golden(self):
        rep = run("tt", parse("rank 2; a -> a b; b -> a;"))
        assert rep["train_track"]["matrix"] == [[1, 1], [1, 0]]

    def test_report_extension(self):
        rep = run("report", parse("rank 3; a -> a b; b -> b a; c -> a;"))
        assert not rep["characterization"]["applicable"]

    def test_errors_serialized(self):
        # a module error lands in the report instead of escaping
        spec = parse("rank 2; a -> a; b -> b;")
        rep = run("nonsense-command", spec)
        assert rep["error"]["type"] == "ValueError"
        assert "nonsense-command" in rep["error"]["message"]

    def test_toroidal_period_is_oriented(self):
        # phi reverses [a, b]; the Z^2 witness <c, t^n z> needs n = 2
        spec = parse((CORPUS / "golden_geometric.endo").read_text())
        rep = run("classify", spec)
        (_, n, orientation) = periodic_conjugacy_search(spec.endo, 6, 12)
        assert orientation == +1
        assert rep["verdict"]["toroidal"]["period"] == n == 2

    def test_json_deterministic(self):
        spec = parse("rank 2; a -> a b; b -> a;")
        a = report_json(run("surface", spec))
        b = report_json(run("surface", spec))
        assert a == b


class TestCorpus:
    def test_corpus_exists_and_parses(self):
        files = sorted(CORPUS.glob("*.endo"))
        assert len(files) >= 20
        for f in files:
            spec = parse(f.read_text())
            assert spec.rank >= 2

    def test_expectations_present(self):
        files = sorted(CORPUS.glob("*.endo"))
        expects = [parse(f.read_text()).expect for f in files]
        assert all(e in {"reducible", "geometric", "irreducible_atoroidal",
                         "finite_order", "unknown"} for e in expects)


# generator images that reduce to 1
TRIVIAL_IMAGE = ("rank 2; a -> b B; b -> a b;",
                 "rank 3; a -> a A; b -> c; c -> b a;")


class TestCommandLine:
    def test_exit_zero_and_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "endotorus.cli", "classify", "-", "--json"],
            input="rank 2; a -> b; b -> a;", capture_output=True, text=True,
            cwd=ROOT)
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["verdict"]["kind"] == "finite_order"

    def test_flag_defaults_are_the_bounds(self, capsys):
        assert main(["tt", str(CORPUS / "swap_finite_order.endo"), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["bounds"] == Bounds().as_dict()

    def test_one_input_per_single_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(CORPUS / "golden_geometric.endo"),
                  str(CORPUS / "dehn_twist.endo")])
        assert exc.value.code == 2
        assert "batch --cmd classify" in capsys.readouterr().err

    def test_whitehead_depth_is_not_a_flag(self, capsys):
        # the free-factor test is exact and takes no bound
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(CORPUS / "golden_geometric.endo"),
                  "--whitehead-depth", "3"])
        assert exc.value.code == 2

    def test_seed_is_not_a_flag(self, capsys):
        # fold ties break by edge id; there is no other order to choose
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(CORPUS / "golden_geometric.endo"),
                  "--seed", "1"])
        assert exc.value.code == 2

    def test_exit_three_when_a_whitehead_move_does_not_shrink(self, monkeypatch,
                                                              capsys):
        # the image <ab> has a disconnected Whitehead graph, so the test
        # makes a move; the identity in its place leaves the core as it is
        monkeypatch.setattr(sg, "_cut_vertex_move",
                            lambda rank, nbrs: Endomorphism.identity(rank))
        path = CORPUS / "noninjective_equal_images.endo"
        assert main(["classify", str(path)]) == 3
        assert "did not shrink the core" in capsys.readouterr().err

    def test_exit_three_on_internal_inconsistency(self, monkeypatch, capsys):
        def failing_search(*args):
            raise InternalInconsistency("cross-check failed")

        monkeypatch.setattr(surface, "periodic_conjugacy_search", failing_search)
        assert main(["classify", str(CORPUS / "golden_geometric.endo")]) == 3
        assert "internal inconsistency: cross-check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("text", TRIVIAL_IMAGE)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_trivial_image_reports_without_error(self, command, text, tmp_path,
                                                 capsys):
        # a generator sent to 1 makes the map non-injective; no stage fails
        path = tmp_path / "trivial.endo"
        path.write_text(text)
        assert main([command, str(path), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "error" not in rep
        if command == "classify":
            assert rep["verdict"]["kind"] == "reducible"
            assert rep["verdict"]["injective"] is False
        if command in ("tt", "nielsen"):
            assert rep["unknown"]["reason"].startswith(
                "a loop edge has trivial image")

    def test_unclosed_orbit_paths_report_unknown(self, monkeypatch):
        # the orbit paths of this map do not close into Nielsen loops; each
        # command reports an unknown that names the stage, not an error
        spec = parse("rank 3; a -> a c; b -> a; c -> b;")
        analysis = surface.Analysis(spec.endo, Bounds())
        monkeypatch.setattr(cli, "Analysis", lambda endo, bounds: analysis)
        reason = "nielsen loops: orbit paths do not close into Nielsen loops"
        reports = {command: run(command, spec) for command in COMMANDS}
        for rep in reports.values():
            assert "error" not in rep
        assert reports["classify"]["verdict"]["kind"] == "unknown"
        assert reason in reports["classify"]["verdict"]["notes"]
        assert reports["nielsen"]["unknown"]["reason"] == reason
        assert reports["surface"]["not_surface"]["reason"] == reason
        assert reports["report"]["characterization"]["verdict"] == "unknown"
        assert reason in reports["report"]["characterization"]["notes"]

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("name", list(Bounds().as_dict()))
    def test_bound_below_one_is_a_usage_error(self, name, value, capsys):
        # a search cut at 0 finds nothing, and the pipeline would read that
        # as a bounded negative (or a cross-check failure, exit 3)
        flag = cli._FLAG_SPELLING.get(name, name.replace("_", "-"))
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(CORPUS / "golden_geometric.endo"),
                  f"--{flag}", value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{name} must be at least 1, not {value}" in err
        with pytest.raises(ValueError):
            Bounds(**{name: int(value)})

    def test_unreadable_input_is_a_usage_error(self, tmp_path, capsys):
        # a missing file, a directory where a single command reads a file,
        # and bytes that are not UTF-8
        binary = tmp_path / "binary.endo"
        binary.write_bytes(b"rank 2; a -> \xff;")
        for path in (tmp_path / "missing.endo", tmp_path, binary):
            assert main(["classify", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith(f"error: cannot read {path}: ")

    def test_unreadable_batch_input_is_a_usage_error(self, tmp_path, capsys):
        # every input is read before any runs, so nothing reaches stdout
        missing = tmp_path / "missing.endo"
        assert main(["batch", str(CORPUS / "swap_finite_order.endo"),
                     str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: cannot read {missing}: No such file or directory"]

    def test_rank_above_26_is_rejected_at_the_integer(self, tmp_path, capsys):
        # generators are the letters a-z; a 27th could never be named
        text = "rank 27; " + " ".join(f"{c} -> {c};"
                                      for c in "abcdefghijklmnopqrstuvwxyz")
        path = tmp_path / "rank27.endo"
        path.write_text(text)
        assert main(["classify", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            f"error: parse error at offset {text.index('27')}: ")
        assert "a-z" in err
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == text.index("27")

    @pytest.mark.parametrize("flags,bounds", [([], (8,)),
                                              (["--period-bound", "2"], (2,))])
    def test_atoroidal_names_the_endpoint_period_it_covered(
            self, flags, bounds, tmp_path, capsys):
        # the scan grows every Nielsen path of period up to the bound from
        # its illegal turn, wherever its ends lie, so the period bound is
        # the one bound the atoroidal entry names
        path = tmp_path / "remark.endo"
        path.write_text("rank 2; a -> a b; b -> b a;")
        assert main(["classify", str(path), "--json", *flags]) == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["kind"] == "irreducible_atoroidal"
        assert verdict["atoroidal"] == {"period_bound": bounds[0],
                                        "radius": 3.0}
        assert main(["classify", str(path), *flags]) == 0
        assert f"atoroidal within bounds: period <= {bounds[0]}\n" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("source", ENDPOINT_MAPS)
    def test_no_endpoint_map_is_atoroidal(self, source):
        # each has periodic Nielsen paths whose ends are interior points of
        # period 4 or more; none closes into Nielsen loops
        verdict = run("classify", parse(source))["verdict"]
        assert verdict["kind"] != "irreducible_atoroidal"
        assert verdict["kind"] == "unknown"
        assert verdict["notes"][-1] == \
            "nielsen loops: orbit paths do not close into Nielsen loops"
        assert verdict["stabilization"]["has_orbit"]

    def test_torus_text_shows_its_conclusions(self, tmp_path, capsys):
        assert main(["torus", str(CORPUS / "golden_geometric.endo")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == [
            'minimality: {"factor": null, "status": "minimal"}',
            "applicable: true"]
        assert lines[3].startswith('z2_witness: {"chi": 0')
        path = tmp_path / "trivial_image.endo"
        path.write_text("rank 3; a -> C A A B; b -> 1; c -> b C B B;\n")
        assert main(["torus", str(path)]) == 0
        assert 'witness_error: "generator image must be nontrivial"' in \
            capsys.readouterr().out.splitlines()

    def test_non_ascii_rank_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "superscript.endo"
        path.write_text("rank \u00b2; a -> a; b -> b;", encoding="utf-8")
        assert main(["classify", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: parse error at offset 5: expected a rank integer\n"

    def test_exit_one_on_parse_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "endotorus.cli", "classify", "-"],
            input="rank 2; a -> a;", capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 1
        assert "parse error" in proc.stderr


class TestStartUp:
    def test_cli_import_loads_no_fractions_or_multiprocessing(self):
        # every CLI process pays for what `import endotorus.cli` loads;
        # `dataclasses` alone brings `inspect`, and only `main` needs
        # `argparse`
        code = ("import sys; before = set(sys.modules); import endotorus.cli; "
                "print(sorted({'fractions', 'decimal', 'multiprocessing', "
                "'dataclasses', 'inspect', 'argparse'} "
                "& (set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_freezes_the_start_up_heap(self):
        # no collection during a command scans what the imports made
        code = "import gc, endotorus.cli; print(gc.get_freeze_count())"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0


PLAIN = (dict, list, tuple, str, int, float, bool, type(None))


def _plain(obj) -> bool:
    """Whether `obj` is built of plain JSON-like values only; a record
    that is a NamedTuple is a tuple subclass and fails."""
    if type(obj) not in PLAIN:
        return False
    if type(obj) is dict:
        return all(map(_plain, obj.values()))
    if type(obj) in (list, tuple):
        return all(map(_plain, obj))
    return True


class TestRecords:
    def test_bounds_by_name(self):
        assert Bounds().as_dict() == {"max_period": 6, "max_len": 12,
                                      "period_bound": 8,
                                      "max_iterations": 500, "kmax": 6}
        assert list(Bounds(kmax=2).as_dict().values()) == [6, 12, 8, 500, 2]
        assert repr(Bounds(kmax=2)) == ("Bounds(max_period=6, max_len=12, "
                                        "period_bound=8, max_iterations=500, "
                                        "kmax=2)")

    def test_bounds_equal_and_hash_by_value(self):
        assert Bounds() == Bounds(max_len=12)
        assert hash(Bounds()) == hash(Bounds(max_len=12))
        assert Bounds() != Bounds(kmax=2)

    def test_stage_defaults_are_the_bounds(self):
        # a stage called without its bound uses the `Bounds()` field it
        # stands for
        defaults = Bounds().as_dict()
        for (function, parameter, field) in (
                (traintrack.find_train_track, "max_iterations", "max_iterations"),
                (nielsen.scan_pinps, "period_bound", "period_bound"),
                (nielsen.stabilize, "period_bound", "period_bound"),
                (words.periodic_conjugacy_search, "max_period", "max_period"),
                (words.periodic_conjugacy_search, "max_len", "max_len"),
                (torus.fiber_chain, "k_max", "kmax")):
            default = inspect.signature(function).parameters[parameter].default
            assert default == defaults[field], (function.__name__, parameter)

    def test_no_record_shares_a_mutable_default(self):
        for module in (words, graphmap, sg, traintrack, nielsen, surface,
                       torus, cli):
            for value in vars(module).values():
                defaults = getattr(value, "_field_defaults", {})
                if isinstance(value, type):
                    assert not [d for d in defaults.values()
                                if isinstance(d, (list, dict, set))], value

    def test_no_record_reaches_the_rendering(self, monkeypatch):
        # `_round_floats` and the text rendering's json.dumps would show a
        # NamedTuple record as a list
        seen = []
        real = cli._round_floats

        def recording(obj, digits=10):
            seen.append(obj)
            return real(obj, digits)

        monkeypatch.setattr(cli, "_round_floats", recording)
        for path in sorted(CORPUS.glob("*.endo")):
            spec = parse(path.read_text())
            for command in COMMANDS:
                seen.clear()
                run(command, spec)
                assert _plain(seen[0]), (command, path.stem)


# entries the text view leaves out, and the label of each entry whose text
# line is not named after its key
NOT_IN_TEXT = {"schema", "command", "bounds"}
TEXT_LABEL = {"warnings": "warning", "timing_seconds": "timing"}


def assert_text_shows_every_entry(report: dict, text: str) -> None:
    """Every top-level entry of the report but `NOT_IN_TEXT` starts a line
    of the text; an empty list has nothing to show."""
    labels = {line.split(":", 1)[0] for line in text.splitlines()}
    for key in report.keys() - NOT_IN_TEXT:
        if report[key] != []:
            assert TEXT_LABEL.get(key, key) in labels, key


class TestTextView:
    @pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.endo")))
    def test_every_entry_reaches_the_text(self, name, monkeypatch):
        spec = parse((CORPUS / f"{name}.endo").read_text())
        analysis = surface.Analysis(spec.endo, Bounds())
        monkeypatch.setattr(cli, "Analysis", lambda endo, bounds: analysis)
        for command in COMMANDS:
            report = run(command, spec)
            assert_text_shows_every_entry(report, cli._render_text(report))

    def test_warnings_reach_the_text(self, tmp_path, capsys):
        path = tmp_path / "unreduced.endo"
        path.write_text("rank 2; a -> a b B; b -> b a;")
        assert main(["classify", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["warnings"]
        assert main(["classify", str(path)]) == 0
        text = capsys.readouterr().out
        assert_text_shows_every_entry(report, text)
        assert text.splitlines()[:2] == [
            "input: rank 2; a -> a; b -> b a;",
            "warning: image of 'a' was not reduced; reduced form used"]

    def test_batch_timing_and_names_reach_the_text(self, capsys):
        files = [str(CORPUS / n) for n in ("swap_finite_order.endo",
                                           "dehn_twist.endo")]
        assert main(["batch", "--cmd", "tt", "--timing", "--json", *files]) == 0
        reports = list(map(json.loads, capsys.readouterr().out.splitlines()))
        assert main(["batch", "--cmd", "tt", "--timing", *files]) == 0
        # one block of lines per input, each starting at its input line
        blocks: list = []
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("input: "):
                blocks.append([])
            blocks[-1].append(line)
        assert len(blocks) == len(reports) == 2
        for (report, block) in zip(reports, blocks):
            assert "timing_seconds" in report
            assert_text_shows_every_entry(report, "\n".join(block))
            source = report["input"]
            assert block[0] == f"input: {source['name']}: {source['text']}"


class TestBatch:
    def test_batch_order_stable_under_jobs(self, tmp_path):
        names = ["swap_finite_order.endo", "identity_rank2.endo",
                 "dehn_twist.endo", "conjugation_twist.endo"]
        args_common = ["-m", "endotorus.cli", "batch", "--cmd", "classify",
                       "--json"]
        files = [str(CORPUS / n) for n in names]
        seq = subprocess.run([sys.executable] + args_common + files,
                             capture_output=True, text=True, cwd=ROOT)
        par = subprocess.run([sys.executable] + args_common + ["--jobs", "2"] + files,
                             capture_output=True, text=True, cwd=ROOT)
        assert seq.returncode == 0 and par.returncode == 0
        assert seq.stdout == par.stdout
        got_names = [json.loads(line)["input"]["name"]
                     for line in seq.stdout.strip().splitlines()]
        assert got_names == names

    def test_batch_reads_stdin(self):
        proc = subprocess.run(
            [sys.executable, "-m", "endotorus.cli", "batch", "-", "--json"],
            input=(CORPUS / "golden_geometric.endo").read_text(),
            capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stdout.splitlines()
        assert json.loads(line)["verdict"]["kind"] == "geometric"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(CORPUS / "swap_finite_order.endo"),
                  "--jobs", value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"jobs must be at least 1, not {value}" in err

    @pytest.mark.parametrize("inputs", [[], ["empty"]], ids=["none", "empty"])
    def test_a_batch_with_no_input_is_a_usage_error(self, inputs, tmp_path,
                                                    capsys):
        # no path at all, or a directory without a .endo file in it
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / "notes.txt").write_text("rank 2; a -> b; b -> a;")
        with pytest.raises(SystemExit) as exc:
            main(["batch", *(str(tmp_path / item) for item in inputs)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: endotorus ")
        assert "batch needs an input" in err

    def test_jobs_start_at_most_one_worker_per_input(self, monkeypatch, capsys):
        # a recorder in place of the pool: no process is started
        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, function, tasks):
                return list(map(function, tasks))

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        files = [str(CORPUS / n) for n in ("swap_finite_order.endo",
                                           "identity_rank2.endo",
                                           "dehn_twist.endo")]
        for (count, jobs) in ((3, "64"), (3, "2"), (1, "64")):
            assert main(["batch", "--cmd", "tt", "--jobs", jobs,
                         *files[:count]]) == 0
        assert started == [3, 2]
        out = capsys.readouterr().out
        assert sum(line.startswith("input: ") for line in out.splitlines()) == 7

    def test_a_parse_error_names_its_input_before_any_run(self, tmp_path,
                                                          monkeypatch, capsys):
        # the bad input sits between two good ones; none of them runs
        (tmp_path / "a_good.endo").write_text("rank 2; a -> b; b -> a;")
        (tmp_path / "b_bad.endo").write_text("rank 2; a -> a b")
        (tmp_path / "c_good.endo").write_text("rank 2; a -> a b; b -> a;")
        calls = []
        real = cli.run
        monkeypatch.setattr(cli, "run",
                            lambda *args: calls.append(args) or real(*args))
        assert main(["batch", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and calls == []
        assert err == (f"error: {tmp_path / 'b_bad.endo'}: parse error at "
                       f"offset 16: unterminated image (missing ';')\n")

    def test_batch_timing(self):
        proc = subprocess.run(
            [sys.executable, "-m", "endotorus.cli", "batch", "--cmd", "tt",
             "--json", "--timing", str(CORPUS / "swap_finite_order.endo")],
            capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert "timing" not in rep
        assert isinstance(rep["timing_seconds"], (int, float))
        assert rep["timing_seconds"] >= 0
