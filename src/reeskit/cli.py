"""Command-line interface.

Subcommands:
  classify  graph-driven verdict, optional oracle cross-check, JSON/DOT out
  taylor    enumerate one layer of relation binomials
  reduce    certificate chain (or stuck report) for a single pair
  rt        layered membership sweep with certified bounds
  demo      built-in worked examples: villarreal, pentagon, family --n
  random    seed-deterministic random ideal in the file format

Exit codes: 0 success, 2 unreadable or invalid input (one line on stderr,
never a traceback), 3 classifier verdict contradicted by the oracle.  Every
oracle answer is exact, so no search limit can be set.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .classify import ClassificationReport, Inconsistency, classify, cross_validate
from .demos import (
    family_corrected_g,
    family_f_binomial,
    family_ideal,
    pentagon_ideal,
    random_shape_ideal,
    villarreal_ideal,
)
from .graphs import (
    build_graph,
    classify_component,
    components,
    even_closed_walk,
    to_dot,
)
from .ideal_io import IdealParseError, load_ideal, render_ideal
from .monomials import IdealValidationError, SquareFreeIdeal, render_monomial
from .oracle import (
    RtReport,
    default_s_max,
    fiber_witness,
    member_lower,
    minimal_linear_generators,
    relation_type_estimate,
)
from .reduction import (
    Certificate,
    IrredundancyWitness,
    irredundancy_witness,
    reduce_to_normal,
)
from .taylor import (
    render_binomial,
    render_tpart,
    substitute_check,
    swap_binomial,
    taylor_binomial,
    taylor_layer,
)


class BadInput(Exception):
    """Malformed input: main prints it as one line and exits 2."""


def _load(path: str) -> SquareFreeIdeal:
    try:
        return load_ideal(path)
    except (IdealParseError, IdealValidationError, OSError) as exc:
        raise BadInput(exc) from None


def _s_max(args, ideal: SquareFreeIdeal) -> int:
    if args.s_max is None:
        return default_s_max(ideal.n)
    if args.s_max < 2:
        raise BadInput(f"--s-max must be at least 2, got {args.s_max}")
    return args.s_max


def _parse_row(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted(int(p) for p in text.split(",") if p.strip()))
    except ValueError:
        raise BadInput(
            f"cannot parse index row {text!r}; expected e.g. 1,1,4") from None


def _json_report(ideal: SquareFreeIdeal, report: ClassificationReport,
                 rt: Optional[RtReport]) -> dict:
    graph = build_graph(ideal)
    comps = components(graph)
    out = {
        "ideal": {
            "vars": list(ideal.table.names),
            "gens": [render_monomial(g, ideal.table) for g in ideal.gens],
        },
        "graph": {
            "edges": [list(e) for e in graph.edges],
            "components": [list(c) for c in comps],
            "classes": [
                {
                    "vertices": list(c.vertices),
                    "kind": c.kind,
                    "cycle": list(c.cycle) if c.cycle else None,
                    "independent_cycles": c.independent_cycles,
                }
                for c in report.component_classes
            ],
        },
        "verdict": report.verdict,
        "justification": [
            {"tag": tag, "condition": cond} for tag, cond in report.justification
        ],
        "witnesses": [
            {
                "alpha": list(ev.binomial.alpha),
                "beta": list(ev.binomial.beta),
                "binomial": render_binomial(ideal, ev.binomial),
                "walk": list(ev.walk.vertices),
            }
            for ev in report.witnesses
        ],
        "oracle": None,
        "versions": {"format": 2},
    }
    if rt is not None:
        out["oracle"] = {
            "certified_lower": rt.certified_lower,
            "witness": (render_binomial(ideal, rt.witness)
                        if rt.witness else None),
            "verified_upper_through": rt.verified_upper_through,
            "layers": {
                str(s): {"yes": y, "no": no}
                for s, (y, no) in sorted(rt.layer_tallies.items())
            },
        }
    if report.oracle_hint:
        out["oracle_hint"] = report.oracle_hint
    return out


def _print_rt(ideal: SquareFreeIdeal, rt: RtReport) -> None:
    for s, (y, no) in sorted(rt.layer_tallies.items()):
        print(f"layer {s}: {y} reduce, {no} new")
    print(f"certified lower bound: {rt.certified_lower}")
    if rt.witness is not None:
        print(f"witness: {render_binomial(ideal, rt.witness)}")
    print(f"verified upper through: {rt.verified_upper_through}")


def _print_witness(ideal: SquareFreeIdeal, w: IrredundancyWitness) -> None:
    names = ideal.table.names
    print(f"irredundancy witness: distinct row ({','.join(map(str, w.avec))}), "
          f"b1={w.b1}, b2={w.b2}")
    print("  separating x-vars: " + " ".join(names[v] for v in w.xvars))
    print("  separating z-vars: " + " ".join(names[v] for v in w.zvars))
    walk = even_closed_walk(ideal, w)
    print(f"  closed even walk (length {walk.length}): "
          + "-".join(map(str, walk.vertices)))


def cmd_classify(args) -> int:
    ideal = _load(args.ideal)
    rt = None
    if args.oracle:
        try:
            cross = cross_validate(ideal, _s_max(args, ideal))
        except Inconsistency as exc:
            print(f"INCONSISTENT: {exc}", file=sys.stderr)
            print(f"verdict: {exc.classification.verdict}", file=sys.stderr)
            print(f"oracle lower bound: {exc.rt_report.certified_lower}",
                  file=sys.stderr)
            return 3
        report, rt = cross.classification, cross.rt_report
    else:
        report = classify(ideal)
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(to_dot(build_graph(ideal)))
        except OSError as exc:
            raise BadInput(exc) from None
    if args.json:
        print(json.dumps(_json_report(ideal, report, rt), indent=2))
        return 0
    print(f"verdict: {report.verdict}")
    for c in report.component_classes:
        cyc = f", cycle {'-'.join(map(str, c.cycle))}" if c.cycle else ""
        extra = (f", {c.independent_cycles} independent cycles"
                 if c.kind == "multi_cycle" else "")
        print(f"component {'-'.join(map(str, c.vertices))}: {c.kind}{cyc}{extra}")
    print("justification:")
    for tag, cond in report.justification:
        print(f"  - {tag}: {cond}")
    for ev in report.witnesses:
        print(f"witness: {render_binomial(ideal, ev.binomial)}")
        print(f"  closed even walk (length {ev.walk.length}): "
              + "-".join(map(str, ev.walk.vertices)))
    if report.oracle_hint:
        print(f"suggested oracle run: {report.oracle_hint}")
    if rt is not None:
        print("oracle cross-check:")
        _print_rt(ideal, rt)
    return 0


def cmd_taylor(args) -> int:
    ideal = _load(args.ideal)
    try:
        layer = taylor_layer(ideal, args.degree)
    except ValueError as exc:
        raise BadInput(exc) from None
    if args.json:
        print(json.dumps([
            {"alpha": list(b.alpha), "beta": list(b.beta),
             "binomial": render_binomial(ideal, b)}
            for b in layer
        ], indent=2))
        return 0
    for b in layer:
        alpha = ",".join(map(str, b.alpha))
        beta = ",".join(map(str, b.beta))
        print(f"({alpha})|({beta}): {render_binomial(ideal, b)}")
    return 0


def _print_certificate(ideal: SquareFreeIdeal, idx: int, cert: Certificate) -> None:
    t = cert.target
    print(f"[{idx}] {cert.rule_name} ({cert.orientation}) on "
          f"({','.join(map(str, t.alpha))})|({','.join(map(str, t.beta))})"
          + (f": {cert.note}" if cert.note else ""))
    print(f"    target = {render_binomial(ideal, t)}")
    for term in cert.terms:
        coef = render_monomial(term.coef, ideal.table)
        tpart = render_tpart(term.tfactor)
        factors = " * ".join(p for p in (coef if coef != "1" else "", tpart) if p)
        lead = f"{factors} * " if factors else ""
        print(f"    + {lead}[{render_binomial(ideal, term.sub)}]")


def cmd_reduce(args) -> int:
    ideal = _load(args.ideal)
    alpha = _parse_row(args.alpha)
    beta = _parse_row(args.beta)
    try:
        outcome = reduce_to_normal(ideal, alpha, beta)
    except ValueError as exc:
        raise BadInput(exc) from None
    if outcome.status == "reduced":
        print(f"reduced in {len(outcome.chain)} step(s); "
              f"terminal degree {outcome.terminal_degree}")
        for i, cert in enumerate(outcome.chain, start=1):
            _print_certificate(ideal, i, cert)
        return 0
    pa, pb = outcome.stuck_pair
    print(f"stuck at ({','.join(map(str, pa))})|({','.join(map(str, pb))}): "
          "no rule applies")
    if outcome.witness is None:
        k = len(pa) - 1
        verdict = member_lower(ideal, taylor_binomial(ideal, pa, pb), k)
        print(f"no irredundancy witness found; reduces modulo layers <= {k}: "
              f"{verdict.status}")
        return 0
    _print_witness(ideal, outcome.witness)
    return 0


def cmd_rt(args) -> int:
    ideal = _load(args.ideal)
    s_max = _s_max(args, ideal)
    rt = relation_type_estimate(ideal, s_max)
    print(f"layers tested: 2..{s_max}")
    _print_rt(ideal, rt)
    return 0


def cmd_demo(args) -> int:
    if args.name == "villarreal":
        ideal = villarreal_ideal()
        print(render_ideal(ideal), end="")
        graph = build_graph(ideal)
        for comp in components(graph):
            c = classify_component(graph, comp)
            cyc = f", cycle {'-'.join(map(str, c.cycle))}" if c.cycle else ""
            print(f"component {'-'.join(map(str, c.vertices))}: {c.kind}{cyc}")
        mins = minimal_linear_generators(ideal)
        print(f"minimal linear generators ({len(mins)}):")
        for b in mins:
            print(f"  {render_binomial(ideal, b)}")
        rt = relation_type_estimate(ideal, 3)
        if rt.witness is not None:
            print(f"degree-{rt.witness.degree} generator: "
                  f"{render_binomial(ideal, rt.witness)}")
        print(f"certified relation type lower bound: {rt.certified_lower}; "
              f"verified upper through: {rt.verified_upper_through}")
        return 0
    if args.name == "pentagon":
        ideal = pentagon_ideal()
        print(render_ideal(ideal), end="")
        alpha, beta = (1, 1, 4), (2, 3, 5)
        b = taylor_binomial(ideal, alpha, beta)
        print(f"distinguished pair: {render_binomial(ideal, b)}")
        print(f"  (negated: {render_binomial(ideal, swap_binomial(b))})")
        _print_witness(ideal, irredundancy_witness(ideal, alpha, beta))
        verdict = member_lower(ideal, b, 2)
        print(f"reduces modulo layers <= 2: {verdict.status}")
        rt = relation_type_estimate(ideal, 3)
        print(f"certified relation type lower bound: {rt.certified_lower}; "
              f"verified upper through: {rt.verified_upper_through}")
        return 0
    # family
    n = args.n
    if n < 5:
        raise BadInput("the family needs --n at least 5")
    ideal = family_ideal(n)
    print(render_ideal(ideal), end="")
    f_binom = family_f_binomial(n)
    print(f"F (degree {f_binom.degree}): {render_binomial(ideal, f_binom)}")
    print(f"  substitutes to zero: {substitute_check(ideal, f_binom)}")
    k = 2 * n - 8
    verdict = member_lower(ideal, f_binom, k)
    print(f"  reduces modulo layers <= {k}: {verdict.status}")
    g_binom, audit = family_corrected_g(n)
    lo, hi = audit["naive_tdegrees"]
    e1, e2, e3 = audit["naive_exponents"]
    print(f"companion shape audit: naive exponents ({e1},{e2},{e3}) are not "
          f"T-homogeneous (T-degrees {lo} vs {hi}); substitution audit "
          f"recovered exponents {audit['corrected_exponents']}")
    print(f"G (degree {g_binom.degree}): {render_binomial(ideal, g_binom)}")
    print(f"  fiber witness (new generator with non-unit coefficients): "
          f"{fiber_witness(ideal, g_binom)}")
    return 0


def cmd_random(args) -> int:
    try:
        ideal = random_shape_ideal(args.graph_shape, args.n, args.vars,
                                   args.seed)
    except ValueError as exc:
        raise BadInput(exc) from None
    print(f"# {args.graph_shape} ideal, n={args.n}, seed={args.seed}")
    print(render_ideal(ideal), end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reeskit",
        description="exact tools for Rees algebra defining equations of "
                    "square-free monomial ideals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify an ideal file")
    p.add_argument("ideal")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the verdict with the membership oracle")
    p.add_argument("--s-max", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="PATH",
                   help="write the generator graph in DOT format")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("taylor", help="list one layer of relation binomials")
    p.add_argument("ideal")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_taylor)

    p = sub.add_parser("reduce", help="reduce one pair to a certificate chain")
    p.add_argument("ideal")
    p.add_argument("--alpha", required=True, help="comma-separated indices")
    p.add_argument("--beta", required=True, help="comma-separated indices")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("rt", help="layered relation-type estimate")
    p.add_argument("ideal")
    p.add_argument("--s-max", type=int, default=None)
    p.set_defaults(func=cmd_rt)

    p = sub.add_parser("demo", help="built-in worked examples")
    p.add_argument("name", choices=["villarreal", "pentagon", "family"])
    p.add_argument("--n", type=int, default=5, help="family size (>= 5)")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("random", help="emit a random ideal file")
    p.add_argument("--graph-shape", required=True,
                   choices=["forest", "odd-cycle", "even-cycle"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vars", type=int, default=0,
                   help="extra private variables to sprinkle")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_random)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
