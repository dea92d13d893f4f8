import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from endotorus import surface
from endotorus.cli import COMMANDS, ParseError, main, parse, report_json, run
from endotorus.surface import Bounds, InternalInconsistency
from endotorus.words import parse_word, periodic_conjugacy_search

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


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
        assert a.endo == b.endo

    def test_unreduced_image_warns(self):
        spec = parse("rank 2; a -> a b B a; b -> b;")
        assert spec.endo.images[0] == parse_word("aa")
        assert spec.warnings

    def test_comments_and_expect(self):
        spec = parse("# expect: geometric\nrank 2; a -> a b; b -> a;")
        assert spec.expect == "geometric"

    def test_roundtrip(self):
        spec = parse("rank 2; a -> a b; b -> b a;")
        again = parse(spec.render())
        assert again.endo == spec.endo and again.rank == spec.rank

    def test_rank_one_rejected(self):
        with pytest.raises(ParseError):
            parse("rank 1; a -> a;")


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
        assert rep["bounds"] == asdict(Bounds())

    def test_one_input_per_single_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(CORPUS / "golden_geometric.endo"),
                  str(CORPUS / "dehn_twist.endo")])
        assert exc.value.code == 2
        assert "batch --cmd classify" in capsys.readouterr().err

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

    def test_exit_one_on_parse_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "endotorus.cli", "classify", "-"],
            input="rank 2; a -> a;", capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 1
        assert "parse error" in proc.stderr


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
