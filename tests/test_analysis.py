"""One analysis per input: every command runs each stage once and hands it
the bounds it was given."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from endotorus.cli import COMMANDS, parse, run
from endotorus.surface import Analysis, Bounds
from endotorus.torus import subgroup_report
from endotorus.words import Endomorphism

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

SEARCH_COMMANDS = ("classify", "torus", "report")
FLAGS = {"max_period": 2, "max_len": 5, "max_iterations": 400}


def _recording(fn, log):
    signature = inspect.signature(fn)

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        log.append(dict(bound.arguments))
        return fn(*args, **kwargs)

    return recorded


def spy_on(monkeypatch, *targets):
    """Replace each (module, function) of endotorus by a recording wrapper,
    in every endotorus module that holds it.  Returns, per function name,
    the list of the bound arguments of each call."""
    calls = {}
    modules = [m for (name, m) in list(sys.modules.items())
               if name.startswith("endotorus") and m is not None]
    for (module, name) in targets:
        original = getattr(importlib.import_module(f"endotorus.{module}"), name)
        calls[name] = []
        spy = _recording(original, calls[name])
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    return calls


def _spec(name: str):
    return parse((CORPUS / f"{name}.endo").read_text())


@pytest.mark.parametrize("name", ["golden_geometric", "plastic_rank3"])
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_honours_every_bound(monkeypatch, command, name):
    calls = spy_on(monkeypatch, ("words", "periodic_conjugacy_search"),
                   ("traintrack", "find_train_track"))
    rep = run(command, _spec(name), FLAGS)
    assert "error" not in rep
    assert calls["find_train_track"]
    assert bool(calls["periodic_conjugacy_search"]) == (command in SEARCH_COMMANDS)
    for call in calls["periodic_conjugacy_search"]:
        assert (call["max_period"], call["max_len"]) == (2, 5)
    for call in calls["find_train_track"]:
        assert call["max_iterations"] == 400


def test_each_stage_runs_once_per_command(monkeypatch):
    calls = spy_on(monkeypatch, ("words", "periodic_conjugacy_search"),
                   ("traintrack", "find_train_track"),
                   ("subgroups", "is_injective"),
                   ("subgroups", "free_factor_containment"))
    rep = run("report", _spec("golden_geometric"))
    assert rep["characterization"]["verdict"] == "geometric"
    assert {name: len(log) for (name, log) in calls.items()} == dict.fromkeys(calls, 1)
    # a search restricted to a smaller eventual alphabet is still one call;
    # this input is decided before the train-track stage
    for log in calls.values():
        log.clear()
    rep = run("report", _spec("remark_extension_reducible"))
    assert rep["characterization"]["verdict"] == "reducible"
    assert len(calls["periodic_conjugacy_search"]) == 1
    assert all(len(log) <= 1 for log in calls.values())


def test_torus_reads_no_verdict(monkeypatch):
    """The torus view needs injectivity, the image factor, the reduction
    witness and the word search, never stabilization."""
    calls = spy_on(monkeypatch, ("nielsen", "stabilize"))
    rep = run("torus", _spec("golden_geometric"))
    assert "error" not in rep and rep["applicable"]
    assert calls["stabilize"] == []
    run("report", _spec("golden_geometric"))
    assert len(calls["stabilize"]) == 1


# each stage hands on what it computed, and no later stage builds it again

@pytest.mark.parametrize("name,vertices", [
    ("composite_geometric", 1), ("double_cover_geometric", 1),
    ("golden_geometric", 1), ("golden_mirror", 1), ("golden_transpose", 1)])
def test_vertex_links_are_counted_once(monkeypatch, name, vertices):
    """The surface reads the link counts that the Nielsen loops made for
    the pairings they took; on these inputs the first pairing at each
    vertex is a circle, so there is one count per vertex."""
    calls = spy_on(monkeypatch, ("nielsen", "_link_components"))
    verdict = run("classify", _spec(name))["verdict"]
    assert verdict["kind"] == "geometric"
    assert verdict["stabilization"]["train_track"]["vertices"] == vertices
    assert len(calls["_link_components"]) == vertices


TRAIN_TRACK_INPUTS = (
    "composite_geometric", "double_cover_geometric", "expanding_double",
    "golden_geometric", "golden_mirror", "golden_transpose",
    "noninjective_equal_images", "nonsurjective_mixed", "plastic_rank3",
    "remark_irreducible_atoroidal")


@pytest.mark.parametrize("name", TRAIN_TRACK_INPUTS)
def test_the_train_track_keeps_the_fold_loops_digraph(monkeypatch, name):
    """`transition_matrix` reads the edge digraph of the fold loop's last
    iteration instead of building it again."""
    calls = spy_on(monkeypatch, ("graphmap", "edge_digraph"))
    images = run("tt", _spec(name))["train_track"]["edge_images"]
    final = [call for call in calls["edge_digraph"]
             if {str(e): list(p) for (e, p) in call["gm"].eimg.items()} == images]
    assert len(final) == 1


WITNESS_INPUTS = (
    "conjugation_twist", "cycle3_finite_order", "dehn_twist",
    "expanding_double", "identity_rank2", "inner_rank2",
    "noninjective_equal_images", "noninjective_extension",
    "nonsurjective_mixed", "rank3_invariant_subrose", "rank3_swap_twist",
    "remark_extension_reducible", "squares_reducible", "swap_finite_order")


def _analysed(name: str) -> Analysis:
    """The analysis of a corpus input with the stages the subgroup report
    reads already run, so that only the report's own work is counted."""
    analysis = Analysis(_spec(name).endo, Bounds())
    (analysis.verdict, analysis.reduction_witness, analysis.word_hit)
    return analysis


@pytest.mark.parametrize("name", WITNESS_INPUTS)
def test_the_fiber_chain_takes_the_witness_graph(monkeypatch, name):
    """Past the stages of the analysis, the subgroup report folds no
    Stallings graph: the witness subgroup reads A's graph off the verified
    witness, and the chain starts from it."""
    analysis = _analysed(name)
    calls = spy_on(monkeypatch, ("subgroups", "stallings"))
    report = subgroup_report(analysis)
    assert "witness_subgroup" in report and "fiber_chain" in report
    assert calls["stallings"] == []


@pytest.mark.parametrize("name", WITNESS_INPUTS)
def test_the_torus_layer_composes_phi_to_the_n_once(monkeypatch, name):
    """The witness subgroup composes psi = i_{x^-1} . phi^n and the chain
    takes it from there."""
    analysis = _analysed(name)
    log: list = []
    monkeypatch.setattr(Endomorphism, "power",
                        _recording(Endomorphism.power, log))
    report = subgroup_report(analysis)
    assert "fiber_chain" in report
    assert [call["n"] for call in log] == [report["fiber_chain"]["power"]]


def test_report_of_conjugation_twist_folds_two_graphs(monkeypatch):
    # the image, and A for the witness's verification, which the witness
    # subgroup reads
    calls = spy_on(monkeypatch, ("subgroups", "stallings"))
    run("report", _spec("conjugation_twist"))
    assert len(calls["stallings"]) == 2


def test_traced_layers_exist():
    """The benchmark's tracer wraps these names; a missing one would crash
    its traced pass."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for (module, name, _, _) in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(f"endotorus.{module}"),
                                name, None)), f"{module}.{name}"
