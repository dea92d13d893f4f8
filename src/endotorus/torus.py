"""Mapping-torus layer: witness subgroups, preimage chains and the
characterization report.

Elements of the extension appear only through the subgroup constructions
below (a fiber basis, a power of the stable letter and a conjugator), so no
normal-form engine is needed.  Conjugator convention: a witness records
phi^n(A) <= x A x^-1, so the self-map of A is i_{x^-1} . phi^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from endotorus.words import (
    Endomorphism,
    Word,
    concat,
    conjugacy_period,
    invert,
    reduce_word,
)
from endotorus import subgroups as sg
from endotorus.subgroups import SubgroupGraph
from endotorus.traintrack import ReductionWitness
from endotorus.surface import Analysis, Bounds


# ---------------------------------------------------------------------------
# witness subgroups and preimage chains
# ---------------------------------------------------------------------------

@dataclass
class WitnessSubgroup:
    """<A, t^n x> inside the mapping torus, carrying chi = 0."""
    fiber_basis: list          # basis of A
    power: int                 # n
    conjugator: Word           # x
    chi: int
    cyclic_fiber: bool
    provenance: str
    graph: SubgroupGraph       # Stallings graph of A; as_dict leaves it out

    def as_dict(self) -> dict:
        return {
            "fiber_basis": [list(w) for w in self.fiber_basis],
            "power": self.power,
            "conjugator": list(self.conjugator),
            "chi": self.chi,
            "cyclic_fiber": self.cyclic_fiber,
            "provenance": self.provenance,
        }


def witness_subgroup(endo: Endomorphism, a_basis: Sequence[Word], x: Word,
                     n: int, provenance: str = "") -> WitnessSubgroup:
    """Verified construction of <A, t^n x>: requires phi^n(A) <= x A x^-1 by
    membership and A proper.  chi = 0 because the presentation is an
    ascending extension of A over itself.  The Stallings graph of A built
    for the membership test is kept, for the preimage chain."""
    graph = sg.stallings(endo.rank, list(a_basis))
    if graph.index() == 1:
        raise ValueError("witness fiber must be a proper subgroup")
    power = endo.power(n)
    for w in a_basis:
        if not graph.contains(concat(invert(x), power.apply(w), x)):
            raise ValueError("invariance phi^n(A) <= x A x^-1 failed on a "
                             "basis element")
    rank = len(graph.basis())
    return WitnessSubgroup([reduce_word(w) for w in a_basis], n,
                           reduce_word(x), 0, rank <= 1, provenance, graph)


def fiber_chain(endo: Endomorphism, a_graph: SubgroupGraph, x: Word, n: int,
                k_max: int = 6) -> dict:
    """Iterated preimages of A under i_{x^-1} phi^n, with indices and a
    stabilization check.  A finite-index term certifies finite index of the
    witness subgroup in the mapping torus; a stabilized infinite-index chain
    certifies infinite index."""
    if a_graph.index() == 1:
        raise ValueError("the fiber of a witness subgroup must be proper")
    psi = Endomorphism.inner(endo.rank, invert(x)).compose(endo.power(n))
    for w in a_graph.basis():
        if not a_graph.contains(psi.apply(w)):
            raise ValueError("the twisted endomorphism does not keep A "
                             "inside itself")
    terms = [a_graph]
    report_terms = []
    stabilized_at = None
    ascending_ok = True
    for k in range(k_max):
        nxt = sg.preimage(psi, terms[-1])
        for w in terms[-1].basis():
            if not nxt.contains(w):
                ascending_ok = False
        if nxt == terms[-1]:
            stabilized_at = k
            break
        terms.append(nxt)
    for t in terms:
        report_terms.append({
            "vertices": t.num_vertices,
            "edges": t.num_edges,
            "rank": t.graph_rank(),
            "index": t.index() if t.index() is not None else "infinite",
        })
    finite_at = next((i for i, t in enumerate(terms) if t.index() is not None), None)
    if finite_at is not None:
        conclusion = "finite index"
        certified = True
    elif stabilized_at is not None:
        conclusion = "infinite index (stable chain)"
        certified = True   # the stable term is a non-covering graph
    else:
        conclusion = f"undetermined at k_max={k_max}"
        certified = False
    return {
        "power": n,
        "conjugator": list(reduce_word(x)),
        "terms": report_terms,
        "ascending": ascending_ok,
        "stabilized_at": stabilized_at,
        "finite_index_at": finite_at,
        "conclusion": conclusion,
        "certified": certified,
    }


_MINIMALITY = {"not_contained": "minimal", "contained": "not_minimal"}


def minimality_check(endo: Endomorphism) -> tuple:
    """("minimal" | "not_minimal", factor basis or None): whether the image
    lies in no proper free factor."""
    ffc = Analysis(endo, Bounds()).image_factor
    return (_MINIMALITY[ffc.status], ffc.factor)


# ---------------------------------------------------------------------------
# the characterization report
# ---------------------------------------------------------------------------

def _accumulated_conjugator(endo: Endomorphism, witness: ReductionWitness) -> Word:
    """phi^k(A_1) <= X A_1 X^-1 where X = phi^{k-1}(x_1) phi^{k-2}(x_2) ... x_k
    telescopes the one-step conjugators through the iterates, in Horner
    form: X <- phi(X) x_i, one factor at a time."""
    X: Word = ()
    for f in witness.factors:
        X = concat(endo.apply(X), f.conjugator)
    return X


def _z2_witness(endo: Endomorphism, cls: Word, max_power: int) -> Optional[dict]:
    """A commuting pair <c, t^n z> from a periodic conjugacy class."""
    found = conjugacy_period(endo, cls, max_power)
    if found is None:
        return None
    (n, z) = found
    return {
        "fiber": list(cls),
        "power": n,
        "conjugator": list(z),
        "chi": 0,
        "commutes": True,
        "note": "free abelian of rank two; infinite index because "
                "the fiber is nonabelian",
    }


def subgroup_report(analysis: Analysis) -> dict:
    """The entries of the characterization report that need no verdict:
    whether the characterization applies, and the chi = 0 subgroups built
    from a reduction witness (with their preimage chain) or from a periodic
    class."""
    endo = analysis.endo
    bounds = analysis.bounds
    minimality = _MINIMALITY[analysis.image_factor.status]
    factor = analysis.image_factor.factor
    injective = analysis.injective
    applicable = injective and minimality == "minimal"
    report: dict = {
        "minimality": {"status": minimality,
                       "factor": [list(w) for w in factor] if factor else None},
        "applicable": applicable,
    }
    if not applicable:
        reasons = []
        if not injective:
            reasons.append("the monodromy is not injective")
        if minimality == "not_minimal":
            reasons.append("the image lies in a proper free factor, so the "
                           "characterization's hypothesis fails")
        report["inapplicable_reason"] = "; ".join(reasons)

    witness = analysis.reduction_witness
    if witness is not None:
        a_basis = witness.factors[0].basis
        n = len(witness.factors)
        X = _accumulated_conjugator(endo, witness)
        try:
            ws = witness_subgroup(endo, a_basis, X, n,
                                  provenance=witness.provenance)
            chain = fiber_chain(endo, ws.graph, X, n, k_max=bounds.kmax)
            report["witness_subgroup"] = ws.as_dict()
            report["fiber_chain"] = chain
        except ValueError as exc:
            report["witness_error"] = str(exc)

    hit = analysis.word_hit
    if hit is not None:
        (w, _, _) = hit
        z2 = _z2_witness(endo, w, max_power=2 * bounds.max_period)
        if z2 is not None:
            report["z2_witness"] = z2
    return report


def chi_zero_report(endo) -> dict:
    """Everything the zero-Euler-characteristic characterization says about
    this mapping torus, constructively where the reverse direction applies:
    a reducible minimal monodromy yields an explicit chi = 0 noncyclic
    witness subgroup of infinite index, a periodic class yields a rank-two
    free abelian subgroup, and in the irreducible atoroidal case the forward
    direction is reported as a cited conclusion.  It is the verdict's
    entries and the `subgroup_report`.

    `endo` is an `Analysis`, and the report is a view of it under its own
    bounds, or an Endomorphism, analysed at the default bounds."""
    analysis = endo if isinstance(endo, Analysis) else Analysis(endo, Bounds())
    verdict = analysis.verdict
    report: dict = {"verdict": verdict.kind, "injective": verdict.injective,
                    **subgroup_report(analysis)}
    if verdict.kind == "unknown":
        report["notes"] = verdict.notes   # which stage or bound stopped it
    if verdict.kind == "irreducible_atoroidal":
        report["forward_direction"] = (
            "cited conclusion: every finitely generated noncyclic subgroup "
            "of the mapping torus with zero Euler characteristic has finite "
            "index; an exhaustive subgroup search is impossible, so this is "
            "asserted from the characterization, not searched")
    return report
