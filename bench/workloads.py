"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Each workload has an inputs function, which makes the seeded input set
through reeskit and is timed as set-up, and a plan function, which returns
the ordered operations of one pass over that input set and the pass-level
facts to check.  An Op has
  run        the timed call into reeskit, nothing else;
  summarize  a canonical, hashable answer read from the result (untimed);
  pairs      how many Taylor pairs the answer decided;
  check      exact checks of the answer, run once per run outside the
             timed op: returns the reasons the op's claims are refuted and
             records any pinned fact that does not hold in the Report.
Checks use only reference.py and pinned facts, never reeskit itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from reference import (
    FiberOracle,
    certificate_holds,
    is_taylor_binomial,
    layer_pairs,
    rt_tallies,
    supports_of,
)

PINNED = json.loads((Path(__file__).parent / "pinned_seed0.json").read_text())
DEFAULT_SEED = 0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    summarize: Callable[[object], tuple]
    pairs: Callable[[tuple], int]
    check: Callable[[object, tuple, "Report"], list[str]]


@dataclass
class Report:
    violations: list[str] = field(default_factory=list)
    refuted_witnesses: int = 0


@dataclass
class Plan:
    ops: list[Op]
    finish: Callable[[Report], None] = lambda report: None


def _seeded_random_ideals(rk, rng: random.Random, count: int):
    """random_ideal(Random(k), 5, 8) for sub-seeds k drawn from rng, so any
    reported ideal can be rebuilt from its label alone."""
    out = []
    for _ in range(count):
        k = rng.randrange(2 ** 32)
        out.append((f"random_ideal(Random({k}), 5, 8)",
                    rk.demos.random_ideal(random.Random(k), 5, 8)))
    return out


def _cli(rk, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rk.cli.main(argv)
    return code, buf.getvalue()


# --- rt_sweep ----------------------------------------------------------------

_RT_LAYERS = re.compile(r"^layers tested: (\d+)\.\.(\d+)$", re.M)
_RT_TALLY = re.compile(r"^layer (\d+): (\d+) reduce, (\d+) new(?:, (\d+) unknown)?$",
                       re.M)
_RT_LOWER = re.compile(r"^certified lower bound: (\d+)$", re.M)
_RT_UPPER = re.compile(r"^verified upper through: (\d+)$", re.M)
_RT_WITNESS = re.compile(r"^witness: (.+)$", re.M)

PAPER_LOWER = {"villarreal_ideal()": 2, "pentagon_ideal()": 3}


def _rt_summary(result) -> tuple:
    code, text = result
    layers = _RT_LAYERS.search(text)
    lower = _RT_LOWER.search(text)
    upper = _RT_UPPER.search(text)
    witness = _RT_WITNESS.search(text)
    tallies = tuple((int(s), int(y), int(n), int(u or 0))
                    for s, y, n, u in _RT_TALLY.findall(text))
    return (code,
            (int(layers.group(1)), int(layers.group(2))) if layers else None,
            tallies,
            int(lower.group(1)) if lower else None,
            int(upper.group(1)) if upper else None,
            witness.group(1) if witness else None)


def rt_sweep_inputs(rk, seed: int, size: str, work_dir: Path) -> list:
    """Seeded random ideals plus the pentagon and the square, each written
    to an ideal file and loaded back."""
    rng = random.Random(seed)
    named = [("pentagon_ideal()", rk.demos.pentagon_ideal()),
             ("villarreal_ideal()", rk.demos.villarreal_ideal())]
    if size == "full":
        ideals = _seeded_random_ideals(rk, rng, 8) + named
    else:
        ideals = _seeded_random_ideals(rk, rng, 1) + named[1:]
    out = []
    for idx, (label, ideal) in enumerate(ideals):
        path = work_dir / f"rt_{idx:02d}.ideal"
        path.write_text(rk.ideal_io.render_ideal(ideal))
        out.append((label, ideal, path, rk.ideal_io.load_ideal(path)))
    return out


def rt_sweep_plan(rk, inputs: list, seed: int, size: str) -> Plan:
    plan = Plan([])
    for label, ideal, path, loaded in inputs:
        supports = supports_of(ideal)
        round_trip = (supports_of(loaded) == supports
                      and loaded.table.names == ideal.table.names)
        plan.ops.append(Op(
            label=f"rt {label}",
            run=lambda p=str(path): _cli(rk, ["rt", p]),
            summarize=_rt_summary,
            pairs=lambda answer: sum(y + n + u for _, y, n, u in answer[2]),
            check=_rt_check(label, supports, round_trip, seed, size)))
    return plan


def _rt_check(label, supports, round_trip, seed, size):
    s_max = max(2, min(len(supports) - 1, 6))  # the default of reeskit rt

    def check(result, answer, report: Report) -> list[str]:
        code, layers, tallies, lower, upper, witness = answer
        if not round_trip:
            report.violations.append(f"{label} changes through its ideal file")
        if code != 0 or layers != (2, s_max) or lower is None or upper is None:
            report.violations.append(
                f"rt {label}: exit {code}, layers {layers}, unparsed output")
            return ["no parsable report for the default layers"]
        expected = rt_tallies(supports, s_max)
        got = {s: (y, no) for s, y, no, _ in tallies}
        reasons = []
        if got != expected:
            reasons.append(f"tallies {got} but the fiber decision gives {expected}")
        if any(u for *_, u in tallies):
            reasons.append("unknown verdicts from an exact oracle")
        true_lower = max([s for s, (_, no) in expected.items() if no] or [1])
        if lower != true_lower:
            reasons.append(f"lower bound {lower}, exact {true_lower}")
        if upper != s_max:
            reasons.append(f"verified upper {upper}, exact {s_max}")
        if (witness is None) != (true_lower == 1):
            reasons.append("witness line disagrees with the lower bound")
        if label in PAPER_LOWER and lower != PAPER_LOWER[label]:
            report.violations.append(
                f"rt {label}: lower bound {lower}, the paper's is "
                f"{PAPER_LOWER[label]}")
        if size == "full" and seed == DEFAULT_SEED:
            pinned = PINNED["rt_sweep"].get(label)
            if pinned is None or pinned["gens"] != [sorted(s) for s in supports]:
                report.violations.append(f"rt {label}: not the pinned input")
            elif ([[s, y, no] for s, y, no, _ in tallies] != pinned["tallies"]
                  or lower != pinned["lower"]):
                report.violations.append(f"rt {label}: differs from pinned")
        return reasons
    return check


# --- family_deep -------------------------------------------------------------

_FAM_F = re.compile(r"^F \(degree (\d+)\): (.+)$", re.M)
_FAM_SUB = re.compile(r"^  substitutes to zero: (\w+)$", re.M)
_FAM_RED = re.compile(r"^  reduces modulo layers <= (\d+): (\w+)$", re.M)
_FAM_EXP = re.compile(r"recovered exponents \((\d+), (\d+), (\d+)\)")
_FAM_G = re.compile(r"^G \(degree (\d+)\): (.+)$", re.M)
_FAM_WIT = re.compile(r"^  fiber witness [^:]*: (\w+)$", re.M)


def _tpart(parts: list[tuple[int, int]]) -> str:
    return "*".join(f"T{i}" if e == 1 else f"T{i}^{e}" for i, e in parts if e)


def family_facts(n: int) -> dict:
    """The paper's F and G for family_ideal(n), rendered as reeskit prints
    them: F = T1^(n-4) T2..T(n-2) - T(n-1)^(n-3) Tn^(n-4) is a new generator
    of degree 2n-7, and G = z T1^(n-5) T2..T(n-2) - y T(n-1)^(n-4) Tn^(n-4)
    is a fiber witness of degree 2n-8."""
    mid = [(i, 1) for i in range(2, n - 1)]
    return {
        "F": (2 * n - 7, _tpart([(1, n - 4)] + mid) + " - "
              + _tpart([(n - 1, n - 3), (n, n - 4)])),
        "k": 2 * n - 8,
        "exponents": (n - 5, n - 4, n - 4),
        "G": (2 * n - 8, "z*" + _tpart([(1, n - 5)] + mid) + " - y*"
              + _tpart([(n - 1, n - 4), (n, n - 4)])),
    }


def _family_summary(result) -> tuple:
    code, text = result
    f, sub, red = _FAM_F.search(text), _FAM_SUB.search(text), _FAM_RED.search(text)
    exp, g, wit = _FAM_EXP.search(text), _FAM_G.search(text), _FAM_WIT.search(text)
    return (code,
            (int(f.group(1)), f.group(2)) if f else None,
            sub.group(1) if sub else None,
            (int(red.group(1)), red.group(2)) if red else None,
            tuple(map(int, exp.groups())) if exp else None,
            (int(g.group(1)), g.group(2)) if g else None,
            wit.group(1) if wit else None,
            text)


def family_deep_inputs(rk, seed: int, size: str, work_dir: Path) -> list:
    """The family sizes.  The family has no random input, so the seed
    changes nothing here."""
    return list(range(6, 10) if size == "full" else range(6, 8))


def family_deep_plan(rk, inputs: list, seed: int, size: str) -> Plan:
    plan = Plan([])
    for n in inputs:
        plan.ops.append(Op(
            label=f"demo family --n {n}",
            run=lambda n=n: _cli(rk, ["demo", "family", "--n", str(n)]),
            summarize=_family_summary,
            pairs=lambda answer: 2,
            check=_family_check(n)))
    return plan


def _family_check(n: int):
    facts = family_facts(n)

    def check(result, answer, report: Report) -> list[str]:
        code, f, sub, red, exps, g, wit, _ = answer
        found = {"exit": code, "F": f, "substitutes": sub,
                 "reduces": red, "exponents": exps, "G": g, "witness": wit}
        want = {"exit": 0, "F": facts["F"], "substitutes": "True",
                "reduces": (facts["k"], "no"), "exponents": facts["exponents"],
                "G": facts["G"], "witness": "True"}
        for key, value in want.items():
            if found[key] != value:
                report.violations.append(
                    f"demo family --n {n}: {key} is {found[key]!r}, "
                    f"expected {value!r}")
        return []
    return check


# --- certify -----------------------------------------------------------------

LINEAR_SHAPES = ("forest", "odd-cycle")
# known reproducers of the unsound irredundancy witness; they keep the
# defect visible on every seed
REGRESSION_SEEDS = (1063, 1113)
# stuck pairs carrying an irredundancy witness, layers 2..4
NAMED_STUCK = {"villarreal_ideal()": 1, "pentagon_ideal()": 7,
               "triangle_ideal()": 0, "path_ideal(4)": 0}


def _reduce_and_verify(rk, ideal, a, b):
    outcome = rk.reduction.reduce_to_normal(ideal, a, b)
    verified = tuple(rk.reduction.verify_certificate(ideal, cert)
                     for cert in outcome.chain)
    return outcome, verified


def _cert_key(cert) -> tuple:
    return (cert.rule_name, cert.orientation, cert.target.alpha,
            cert.target.beta,
            tuple((t.coef.exps, t.tfactor, t.sub.alpha, t.sub.beta)
                  for t in cert.terms))


def _reduce_summary(result) -> tuple:
    outcome, verified = result
    w = outcome.witness
    return (outcome.status, outcome.terminal_degree, outcome.stuck_pair,
            None if w is None else (w.avec, w.b1, w.b2, w.xvars, w.zvars),
            verified, tuple(_cert_key(c) for c in outcome.chain))


def _classify_summary(report) -> tuple:
    return (report.verdict,
            tuple((ev.binomial.alpha, ev.binomial.beta)
                  for ev in report.witnesses))


def certify_inputs(rk, seed: int, size: str, work_dir: Path) -> list:
    """(label, kind, ideal, layers) for the named, regression, seeded shape
    and seeded random ideals."""
    rng = random.Random(seed)
    demos = rk.demos
    full = size == "full"
    inputs = []  # (label, kind, ideal, layers)
    named = [("villarreal_ideal()", "named", demos.villarreal_ideal()),
             ("pentagon_ideal()", "named", demos.pentagon_ideal()),
             ("triangle_ideal()", "odd-cycle", demos.triangle_ideal()),
             ("path_ideal(4)", "forest", demos.path_ideal(4))]
    for label, kind, ideal in (named if full else named[2:3]):
        inputs.append((label, kind, ideal, (2, 3, 4) if full else (2, 3)))
    if full:
        for k in REGRESSION_SEEDS:
            inputs.append((f"random_ideal(Random({k}), 5, 8)", "random",
                           demos.random_ideal(random.Random(k), 5, 8), (2, 3)))
    for shape in ("forest", "odd-cycle", "even-cycle"):
        for n in ((4, 5, 6) if full else (4,)):
            k = rng.randrange(2 ** 32)
            inputs.append((f"random_shape_ideal({shape!r}, {n}, seed={k})",
                           shape, demos.random_shape_ideal(shape, n, seed=k),
                           (2, 3)))
    for label, ideal in _seeded_random_ideals(rk, rng, 2 if full else 1):
        inputs.append((label, "random", ideal, (2, 3)))
    return inputs


def certify_plan(rk, inputs: list, seed: int, size: str) -> Plan:
    full = size == "full"
    plan = Plan([])
    stuck_with_witness: dict[str, int] = {}
    for label, kind, ideal, layers in inputs:
        supports = supports_of(ideal)
        oracle = FiberOracle(supports)
        plan.ops.append(Op(
            label=f"classify {label}",
            run=lambda i=ideal: rk.classify.classify(i),
            summarize=_classify_summary,
            pairs=lambda answer: 0,
            check=_classify_check(label, kind, supports, oracle)))
        if label in NAMED_STUCK:
            stuck_with_witness[label] = 0
        for s in layers:
            for a, b in layer_pairs(ideal.n, s):
                plan.ops.append(Op(
                    label=f"reduce {label} {a}|{b}",
                    run=lambda i=ideal, a=a, b=b: _reduce_and_verify(rk, i, a, b),
                    summarize=_reduce_summary,
                    pairs=lambda answer: 1,
                    check=_reduce_check(label, a, b, supports, oracle,
                                        stuck_with_witness)))

    def finish(report: Report) -> None:
        if full and stuck_with_witness != NAMED_STUCK:
            report.violations.append(
                f"stuck pairs with witnesses {stuck_with_witness}, "
                f"expected {NAMED_STUCK}")
    plan.finish = finish
    return plan


def _classify_check(label, kind, supports, oracle):
    def check(result, answer, report: Report) -> list[str]:
        verdict = answer[0]
        if kind in LINEAR_SHAPES and verdict != "LinearType":
            report.violations.append(
                f"classify {label}: {verdict}, but a {kind} ideal is of "
                "linear type")
        reasons = []
        for ev in result.witnesses:
            b = ev.binomial
            if not is_taylor_binomial(supports, b):
                reasons.append(f"witness {b.alpha}|{b.beta} is not a Taylor "
                               "binomial of the ideal")
            elif oracle.reduces_below(b.alpha, b.beta):
                reasons.append(f"witness {b.alpha}|{b.beta} reduces modulo "
                               "lower layers")
        report.refuted_witnesses += len(reasons)
        return reasons
    return check


def _reduce_check(label, a, b, supports, oracle, stuck_with_witness):
    s = len(a)

    def check(result, answer, report: Report) -> list[str]:
        outcome, verified = result
        if outcome.status == "stuck":
            if outcome.witness is None:
                return []
            if label in stuck_with_witness:
                stuck_with_witness[label] += 1
            if oracle.reduces_below(*outcome.stuck_pair):
                return ["stuck with an irredundancy witness, but the pair "
                        "reduces modulo lower layers"]
            return []
        if outcome.status != "reduced" or not outcome.chain:
            return [f"status {outcome.status!r} with {len(outcome.chain)} "
                    "certificates"]
        reasons = []
        top = outcome.chain[0]
        if {top.target.alpha, top.target.beta} != {a, b}:
            reasons.append("first certificate is not for the pair")
        if any(t.sub.degree >= s for t in top.terms):
            reasons.append("first certificate does not lower the degree")
        for i, (cert, ok) in enumerate(zip(outcome.chain, verified), 1):
            holds = certificate_holds(supports, cert)
            if not holds:
                reasons.append(f"certificate {i} ({cert.rule_name}) fails "
                               "exact replay")
            if ok != holds:
                reasons.append(f"verify_certificate says {ok} on "
                               f"certificate {i}, exact replay says {holds}")
        return reasons
    return check


# name -> (inputs, plan): inputs makes the workload's input set through
# reeskit and is timed as set-up; plan wraps it in operations and checks
WORKLOADS = {
    "rt_sweep": (rt_sweep_inputs, rt_sweep_plan),
    "family_deep": (family_deep_inputs, family_deep_plan),
    "certify": (certify_inputs, certify_plan),
}
