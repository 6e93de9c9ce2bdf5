"""Relation-type classifier driven by the generator-sharing graph.

The ladder, applied in order:

1. Every component is a forest or carries a unique odd cycle: the ideal is
   of linear type, componentwise and jointly.
2. At most five generators: the relation type is at most max(n-2, 1); the
   exhaustive irredundancy-witness search then certifies a genuinely
   nonlinear generator or, finding none, upgrades the verdict to linear type.
3. Every component has at most five vertices: relation type at most 3.
4. Otherwise unknown, with a suggested oracle invocation attached.

Every reported witness is confirmed by the exact membership oracle; the
witness search draws each candidate from one component C, s = 2..|C|-2.
cross_validate runs the layered oracle next to the classifier and raises
Inconsistency when the two disagree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .graphs import (
    ComponentClass,
    WalkWitness,
    build_graph,
    classify_component,
    components,
    even_closed_walk,
)
from .monomials import SquareFreeIdeal
from .oracle import (
    RtReport,
    default_s_max,
    member_lower,
    relation_type_estimate,
)
from .reduction import IrredundancyWitness, irredundancy_witness
from .taylor import ReesBinomial, taylor_binomial


@dataclass(frozen=True)
class NonlinearEvidence:
    binomial: ReesBinomial
    witness: IrredundancyWitness
    walk: WalkWitness


@dataclass
class ClassificationReport:
    verdict_kind: str  # "linear_type" | "rt_at_most" | "unknown"
    rt_bound: Optional[int]
    justification: tuple[tuple[str, str], ...]
    component_classes: tuple[ComponentClass, ...]
    witnesses: tuple[NonlinearEvidence, ...] = ()
    oracle_hint: str = ""

    @property
    def verdict(self) -> str:
        if self.verdict_kind == "linear_type":
            return "LinearType"
        if self.verdict_kind == "rt_at_most":
            return f"RtAtMost({self.rt_bound})"
        return "Unknown"


class Inconsistency(Exception):
    """Classifier verdict contradicted by the membership oracle."""

    def __init__(self, message: str, classification: ClassificationReport,
                 rt_report: RtReport):
        super().__init__(message)
        self.classification = classification
        self.rt_report = rt_report


def nonlinear_witnesses(ideal: SquareFreeIdeal) -> tuple[NonlinearEvidence, ...]:
    """Exhaustive irredundancy-witness search inside each component C.

    Candidates put s = 2..|C|-2 pairwise-distinct indices of C against a
    row (b1^{s-1}, b2) of two other indices of C, ordered by (s, avec, b1,
    b2).  None spanning two components can match: a pattern's separator
    variables join its generators, so they lie in one component.
    """
    comps = components(build_graph(ideal))
    if ideal.n > 5 and any(len(c) > 5 for c in comps):
        raise ValueError("witness search requires at most five generators "
                         "or small components")
    found = {}
    for comp in comps:
        for s in range(2, len(comp) - 1):
            for avec in itertools.combinations(comp, s):
                rest = [i for i in comp if i not in avec]
                for b1, b2 in itertools.permutations(rest, 2):
                    # at s = 2 the four orderings of {avec, beta} name one
                    # generator up to sign; keep the first one the loop meets
                    if s == 2 and not (b1 < b2 and avec < (b1, b2)):
                        continue
                    beta = tuple(sorted((b1,) * (s - 1) + (b2,)))
                    alo, bhi = sorted((avec, beta))
                    if w := irredundancy_witness(ideal, alo, bhi):
                        found[s, avec, b1, b2] = NonlinearEvidence(
                            taylor_binomial(ideal, alo, bhi), w,
                            even_closed_walk(ideal, w))
    return tuple(found[key] for key in sorted(found))


def classify(ideal: SquareFreeIdeal) -> ClassificationReport:
    graph = build_graph(ideal)
    classes = tuple(classify_component(graph, c) for c in components(graph))
    n = ideal.n

    if all(c.kind in ("forest", "unique_odd_cycle") for c in classes):
        just = (
            ("component-structure",
             "every connected component of the generator-sharing graph is a "
             "tree or carries exactly one cycle, and that cycle has odd "
             "length; each such component only contributes linear relations"),
            ("disjoint-components",
             "components share no variables, so their relations do not "
             "interact and linearity is preserved under the union"),
        )
        return ClassificationReport("linear_type", None, just, classes)

    if n <= 5:
        bound = max(n - 2, 1)
        witnesses = nonlinear_witnesses(ideal)
        space = (f"all pairs of s pairwise-distinct indices against a "
                 f"disjoint row (b1^(s-1), b2), s = 2..{bound}, "
                 f"both role assignments")
        just = (("five-generator-bound",
                 f"with n = {n} <= 5 generators every relation reduces to "
                 f"degree at most {bound}"),)
        if not witnesses:
            just += (("no-irredundancy-witness",
                      f"exhaustive witness search ({space}) found no "
                      f"genuinely nonlinear generator, which for n <= 5 "
                      f"forces linear type"),)
            return ClassificationReport("linear_type", None, just, classes)
        just += (("irredundancy-witness",
                  f"witness search ({space}) certified {len(witnesses)} "
                  f"genuinely nonlinear generator pair(s)"),)
        return ClassificationReport("rt_at_most", bound, just, classes,
                                    witnesses)

    if all(len(c.vertices) <= 5 for c in classes):
        witnesses = nonlinear_witnesses(ideal)
        just = (
            ("small-components-bound",
             "every component of the generator-sharing graph has at most "
             "five vertices, so every relation reduces to degree at most 3"),
            ("witness-search",
             f"irredundancy-witness search over degrees 2..3 found "
             f"{len(witnesses)} certified nonlinear pair(s)"),
        )
        return ClassificationReport("rt_at_most", 3, just, classes, witnesses)

    just = (
        ("out-of-scope",
         "some component has more than five vertices and carries an even "
         "or repeated cycle; no implemented bound applies"),
    )
    return ClassificationReport(
        "unknown", None, just, classes,
        oracle_hint=f"reeskit rt <idealfile> --s-max {default_s_max(n)}")


@dataclass
class CrossReport:
    classification: ClassificationReport
    rt_report: RtReport


def cross_validate(ideal: SquareFreeIdeal,
                   s_max: Optional[int] = None) -> CrossReport:
    """Run the classifier and the layered oracle side by side; raise
    Inconsistency when a verdict contradicts a certified lower bound or a
    reported witness reduces modulo lower layers."""
    report = classify(ideal)
    if s_max is None:
        s_max = default_s_max(ideal.n)
    rt = relation_type_estimate(ideal, s_max)
    for ev in report.witnesses:
        b = ev.binomial
        if member_lower(ideal, b, b.degree - 1).is_yes:
            raise Inconsistency(
                f"reported witness {b.alpha}|{b.beta} reduces modulo lower "
                f"layers", report, rt)
    if report.verdict_kind == "linear_type" and rt.certified_lower > 1:
        raise Inconsistency(
            f"classified linear type but the oracle certified a degree-"
            f"{rt.certified_lower} generator", report, rt)
    if report.verdict_kind == "rt_at_most" and rt.certified_lower > report.rt_bound:
        raise Inconsistency(
            f"classified relation type <= {report.rt_bound} but the oracle "
            f"certified a degree-{rt.certified_lower} generator", report, rt)
    return CrossReport(report, rt)
