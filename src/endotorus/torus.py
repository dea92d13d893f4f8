"""Mapping-torus layer: witness subgroups, preimage chains and the
characterization report.

Elements of the extension appear only through the subgroup constructions
below (a fiber basis, a power of the stable letter and a conjugator), so no
normal-form engine is needed.  Conjugator convention: a witness records
phi^n(A) <= x A x^-1, so the self-map of A is i_{x^-1} . phi^n.

The witness subgroup is a view of a verified reduction witness, and the
preimage chain a view of the witness subgroup: A is folded once, by the
witness's verification, and the self-map is composed and checked once.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

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

class WitnessSubgroup(NamedTuple):
    """<A, t^n x> inside the mapping torus, carrying chi = 0."""
    fiber_basis: list          # basis of A
    power: int                 # n
    conjugator: Word           # x
    chi: int
    cyclic_fiber: bool
    provenance: str
    graph: SubgroupGraph       # Stallings graph of A; as_dict leaves it out
    psi: Endomorphism          # i_{x^-1} . phi^n, A's self-map; left out too

    def as_dict(self) -> dict:
        return {
            "fiber_basis": [list(w) for w in self.fiber_basis],
            "power": self.power,
            "conjugator": list(self.conjugator),
            "chi": self.chi,
            "cyclic_fiber": self.cyclic_fiber,
            "provenance": self.provenance,
        }


def witness_subgroup(endo: Endomorphism,
                     witness: ReductionWitness) -> WitnessSubgroup:
    """<A, t^n x> from a verified witness A_1 -> ... -> A_n -> A_1, with A
    = A_1 and its graph as verified; x = phi^{n-1}(x_1) ... x_n telescopes
    the one-step conjugators (Horner: x <- phi(x) x_i).  Checks A proper and
    psi(A) <= A by membership for psi = i_{x^-1} . phi^n, which the chain
    reuses.  chi = 0: the presentation ascends from A to itself."""
    first = witness.factors[0]
    graph = first.graph
    if graph is None:
        raise ValueError("the reduction witness is not verified")
    if graph.index() == 1:
        raise ValueError("witness fiber must be a proper subgroup")
    n = len(witness.factors)
    x: Word = ()
    for f in witness.factors:
        x = concat(endo.apply(x), f.conjugator)
    psi = Endomorphism.inner(endo.rank, invert(x)).compose(endo.power(n))
    for w in first.basis:
        if not graph.contains(psi.apply(w)):
            raise ValueError("invariance phi^n(A) <= x A x^-1 failed on a "
                             "basis element")
    return WitnessSubgroup([reduce_word(w) for w in first.basis], n,
                           reduce_word(x), 0, graph.graph_rank() <= 1,
                           witness.provenance, graph, psi)


def fiber_chain(ws: WitnessSubgroup, k_max: int = 6) -> dict:
    """Iterated preimages of A under the witness subgroup's psi, with
    indices and a stabilization check.  A finite-index term certifies
    finite index of the witness subgroup in the mapping torus; a
    stabilized infinite-index chain certifies infinite index.  `ws` has
    checked A proper and psi(A) <= A."""
    terms = [ws.graph]
    stabilized_at = None
    ascending_ok = True
    for k in range(k_max):
        nxt = sg.preimage(ws.psi, terms[-1])
        ascending_ok &= all(nxt.contains(w) for w in terms[-1].basis())
        if nxt == terms[-1]:
            stabilized_at = k
            break
        terms.append(nxt)
    indices = [t.index() for t in terms]
    report_terms = [{"vertices": t.num_vertices,
                     "edges": t.num_edges,
                     "rank": t.graph_rank(),
                     "index": "infinite" if index is None else index}
                    for (t, index) in zip(terms, indices)]
    finite_at = next((i for i, index in enumerate(indices)
                      if index is not None), None)
    if finite_at is not None:
        conclusion = "finite index"
    elif stabilized_at is not None:
        conclusion = "infinite index (stable chain)"   # a non-covering term
    else:
        conclusion = f"undetermined at k_max={k_max}"
    return {
        "power": ws.power,
        "conjugator": list(ws.conjugator),
        "terms": report_terms,
        "ascending": ascending_ok,
        "stabilized_at": stabilized_at,
        "finite_index_at": finite_at,
        "conclusion": conclusion,
        "certified": finite_at is not None or stabilized_at is not None,
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
        try:
            ws = witness_subgroup(endo, witness)
            report.update(witness_subgroup=ws.as_dict(),
                          fiber_chain=fiber_chain(ws, k_max=bounds.kmax))
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
