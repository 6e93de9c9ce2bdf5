"""Reduction rules, fiber-walk certificates, and irredundancy witnesses.

A Certificate expresses a target binomial T_{alpha,beta} as an exact sum

    T_{alpha,beta} = sum_i  coef_i * T_{tfactor_i} * T_{alpha_i,beta_i}

over lower-degree sub-binomials, every coefficient a monomial in the
ideal's variables; verify_certificate replays that identity exactly.

Map: every certificate is a walk through the lcm fiber (_walk), along an
oracle path (fiber_certificate) or through aligned blocks (_split).  The
eight named rules are sufficient conditions; each reads its rows once and
returns a Certificate or None.  rule_block_disjoint and the four shape
rules, guards over it, share one entry (_guarded); reduce_to_normal chains
the other four bodies (_dispatch) and asks the oracle when none applies,
so a pair it leaves stuck is a new generator in its degree.  An
IrredundancyWitness, confirmed by the oracle (_confirmed), certifies that.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .graphs import (
    ComponentClass,
    classify_component,
    components,
    induced_subgraph,
)
from .monomials import (
    Monomial,
    SquareFreeIdeal,
    _monomial,
)
from .oracle import _capacity, _in_fiber, member_lower
from .taylor import (
    ReesBinomial,
    Sequence,
    _binomial,
    check_rows,
    check_sequence,
    run_lengths,
    seq_intersection,
    seq_remove,
    taylor_binomial,
)


@dataclass(frozen=True)
class CertTerm:
    coef: Monomial
    tfactor: Sequence
    sub: ReesBinomial


@dataclass(frozen=True)
class Certificate:
    target: ReesBinomial
    terms: tuple[CertTerm, ...]
    rule_name: str
    orientation: str = "as-given"  # or "swapped"
    note: str = ""


def verify_certificate(ideal: SquareFreeIdeal, cert: Certificate) -> bool:
    """Exact check that the target and each sub-binomial are genuine Taylor
    binomials and that the identity holds in S[T].  Anything malformed gives
    False, never an exception: a T-factor that is not a sorted tuple over
    1..n, a coefficient variable outside the ideal's table, or a coefficient
    that is not a monomial (a Laurent one lets any pair telescope through
    nodes outside its fiber).  No sub-binomial is re-derived: it is genuine
    when its rows check and its coefficients are coprime with lhs f_alpha =
    rhs f_beta, as f_beta/g, f_alpha/g is the only such pair.  One scan
    checks every item and finds top (largest exponent) and L (longest
    T-factor plus row); each term is then one int key per side in
    ideal.layout at width (top + max(top, L)).bit_length(), so no sum
    carries: fields for the table variables, then T_1..T_n, each exponent
    counted in its field's unit from the layout.  The keys of the terms
    minus the target must cancel.  Coprimality reads a field as non-zero,
    which is sound as no exponent is negative."""
    try:
        items = [(Monomial.one(), (), cert.target, -1),
                 *((t.coef, t.tfactor, t.sub, 1) for t in cert.terms)]
        n, nvars = ideal.n, len(ideal.table)
        top = length = 0
        for coef, tf, sub, _ in items:
            if not (isinstance(sub, ReesBinomial) and isinstance(tf, tuple)
                    and type(coef) is type(sub.lhs_coef) is type(sub.rhs_coef)
                    is Monomial and (not tf or check_sequence(tf, n))
                    and check_rows(ideal, sub.alpha, sub.beta)
                    == (sub.alpha, sub.beta)):
                return False
            for m in (coef, sub.lhs_coef, sub.rhs_coef):
                # Monomial.__post_init__'s rule, inline: a helper call
                # shared with it slowed this replay by 5-15%
                last = -1
                for v, e in m.exps:  # refuses bool too
                    if (type(v) is not int or type(e) is not int
                            or v <= last or e < 1):
                        return False
                    last = v
                    if e > top:
                        top = e
                if last >= nvars:  # outside the table
                    return False
            length = max(length, len(tf) + len(sub.alpha))
        w = (top + max(top, length)).bit_length()
        gen, tunit, xunit, high = ideal.layout(w)  # high: x-fields' top bits
        low = high - (high >> (w - 1))  # + low sets that bit iff the field > 0
        total: dict[int, int] = {}
        for coef, tf, sub, sign in items:  # loops: no comprehension frames
            lhs, rhs, x = 0, 0, sum(map(tunit.__getitem__, tf))
            for v, e in sub.lhs_coef.exps:
                lhs += e * xunit[v]
            for v, e in sub.rhs_coef.exps:
                rhs += e * xunit[v]
            if (lhs + sum(map(gen.__getitem__, sub.alpha))
                    != rhs + sum(map(gen.__getitem__, sub.beta))
                    or (lhs + low) & (rhs + low) & high):  # not coprime
                return False
            for v, e in coef.exps:
                x += e * xunit[v]
            k = x + lhs + sum(map(tunit.__getitem__, sub.alpha))
            total[k] = total.get(k, 0) + sign
            k = x + rhs + sum(map(tunit.__getitem__, sub.beta))
            total[k] = total.get(k, 0) - sign
        return not any(total.values())
    except (AttributeError, TypeError, ValueError):  # malformed input
        return False


def _walk(target: ReesBinomial, steps: Iterable[tuple[Sequence, ReesBinomial]]
          ) -> tuple[CertTerm, ...]:
    """The terms of a walk from target.alpha through the lcm fiber.

    Each step (c, T_{d,d'}) moves the node c+d to c+d'.  u = M / f_delta
    starts at target.lhs_coef; a step's term is (u / lhs) * T_c * T_{d,d'},
    where T_{d,d'} = lhs T_d - rhs T_d', and the next node's u is that
    cofactor times rhs, so the terms telescope to the target (Diaconis &
    Sturmfels, Ann. Statist. 26 (1998), Thm 3.1).  u is one exponent dict
    for the whole walk.  A step's cofactor M / (f_c lcm(f_d, f_d')) is a
    monomial exactly when both its nodes lie in the fiber (oracle._in_fiber).
    The walk only computes, one term per step, so the caller makes sure of
    every node: fiber_certificate tests each, rule_block_disjoint its one
    inner node, and the other rules' walks stay in by construction.  A step
    whose lhs does not divide u raises ValueError."""
    u = dict(target.lhs_coef.exps)
    terms = []
    for c, sub in steps:
        for v, e in sub.lhs_coef.exps:
            left = u.pop(v, 0) - e
            if left < 0:
                raise ValueError(f"inexact step at node {c!r}")
            if left:
                u[v] = left
        terms.append(CertTerm(_monomial(tuple(sorted(u.items()))), c, sub))
        for v, e in sub.rhs_coef.exps:
            u[v] = u.get(v, 0) + e
    return tuple(terms)


def _split(ideal: SquareFreeIdeal, target: ReesBinomial,
           blocks: tuple[tuple[Sequence, Sequence], ...]) -> tuple[CertTerm, ...]:
    """The terms of the split of target's checked rows into sorted aligned
    blocks, a walk that swaps block i's alpha part for its beta part, one
    block at a time; equal parts add no term.  With P = f(alpha_{<i}),
    Q = f(beta_{>i}), g_i = gcd(f_{alpha_i}, f_{beta_i}) and
    g = gcd(f_alpha, f_beta), block i's cofactor is P*Q*g_i/g, and the split
    lemma's gcd hypothesis g | gcd(P, f_beta) * gcd(f(alpha_{>=i}), Q) * g_i
    holds exactly when g | P*Q*g_i, that is, exactly when the node after
    swap i lies in the fiber, as the caller has made sure."""
    return _walk(target, [(tuple(sorted([c for _, b in blocks[:i] for c in b]
                                        + [c for a, _ in blocks[i + 1:]
                                           for c in a])),
                           _binomial(ideal, a, b))
                          for i, (a, b) in enumerate(blocks) if a != b])


def fiber_certificate(ideal: SquareFreeIdeal, b: ReesBinomial,
                      path: tuple[Sequence, ...]) -> Certificate:
    """The certificate of a fiber path alpha = delta_0, ..., delta_m = beta:
    a walk whose step delta -> delta' keeps the common part c and swaps
    delta - c for delta' - c.  Raises ValueError, naming the fault, if b
    is not the Taylor binomial of its rows, if the path does not run from
    b.alpha to b.beta, if a node is not a sorted length-s sequence over 1..n
    or repeats the node before it, or if step j leaves the fiber."""
    if taylor_binomial(ideal, b.alpha, b.beta) != b:
        raise ValueError(f"{b!r} is not the Taylor binomial of its rows")
    if len(path) < 2 or path[0] != b.alpha or path[-1] != b.beta:
        raise ValueError(f"path does not run from {b.alpha!r} to {b.beta!r}")
    for node in path:
        if len(check_sequence(node, ideal.n)) != b.degree:
            raise ValueError(f"node {node!r} is not of length {b.degree}")
    capacity = _capacity(ideal, b.alpha, b.beta)
    steps = []
    for j, (delta, delta2) in enumerate(zip(path, path[1:]), start=1):
        if delta2 == delta:
            raise ValueError(f"node {delta2!r} repeats the node before it")
        if not _in_fiber(capacity, delta2):
            raise ValueError(f"step {j} leaves the lcm fiber")
        common = seq_intersection(delta, delta2)
        steps.append((common, _binomial(
            ideal, seq_remove(delta, common), seq_remove(delta2, common))))
    return Certificate(b, _walk(b, steps), "fiber_path", "as-given",
                       note=f"{len(steps)}-step path in the lcm fiber")


# --- the named rules -------------------------------------------------------

def rule_shared_index(ideal: SquareFreeIdeal, alpha: Sequence,
                      beta: Sequence) -> Optional[Certificate]:
    """Factor the common T-part out of a pair sharing indices: a one-step
    walk, so the binomial equals T_{shared} times the binomial of the
    disjoint remainders (cofactor 1)."""
    return _shared_index(ideal, taylor_binomial(ideal, alpha, beta))


def _shared_index(ideal: SquareFreeIdeal,
                  target: ReesBinomial) -> Optional[Certificate]:
    shared = seq_intersection(target.alpha, target.beta)
    if not shared:
        return None
    # f_shared cancels in f_alpha / f_beta, so the sub keeps the coefficients
    sub = ReesBinomial(seq_remove(target.alpha, shared),
                       seq_remove(target.beta, shared),
                       target.lhs_coef, target.rhs_coef)
    return Certificate(target, _walk(target, [(shared, sub)]),
                       "shared_index", "as-given",
                       note=f"common T-factor {list(shared)}")


def rule_power_factor(ideal: SquareFreeIdeal, alpha: Sequence,
                      beta: Sequence) -> Optional[Certificate]:
    """When both rows are l-th multiples of a base pair (l >= 2), the
    binomial is a difference of l-th powers: an l-step walk through
    base_a^(l-1-j) base_b^j, whose j-th cofactor is ca^(l-1-j) cb^j for
    T_{base} = ca T_{base_a} - cb T_{base_b}."""
    return _power_factor(ideal, taylor_binomial(ideal, alpha, beta))


def _power_factor(ideal: SquareFreeIdeal,
                  target: ReesBinomial) -> Optional[Certificate]:
    for row in (target.alpha, target.beta):
        if 2 * len(set(row)) > len(row):  # an index occurs once: l = 1
            return None
    runs = (run_lengths(target.alpha), run_lengths(target.beta))
    l = math.gcd(*(m for row in runs for _, m in row))
    if l < 2:
        return None
    base_a, base_b = (tuple(idx for idx, m in row for _ in range(m // l))
                      for row in runs)
    base = _binomial(ideal, base_a, base_b)
    steps = [(tuple(sorted(base_a * (l - 1 - j) + base_b * j)), base)
             for j in range(l)]
    return Certificate(target, _walk(target, steps),
                       "power_factor", "as-given",
                       note=f"difference of {l}-th powers of the base pair")


def rule_constant_row(ideal: SquareFreeIdeal, alpha: Sequence,
                      beta: Sequence) -> Optional[Certificate]:
    """One row constant, alpha's tried first: peel a single (a1, b1) pair,
    b1 the other row's first index != a1.  Its node needs no fiber test: it
    counts a variable of f_{a1} at most s times, as f_const does, and any
    other v [v in f_{b1}] times, at most as often as f_other.  A constant
    beta is peeled by the reversed split: the peel's blocks reversed, parts
    exchanged, its terms listed back in the peel's order."""
    return _constant_row(ideal, taylor_binomial(ideal, alpha, beta))


def _constant_row(ideal: SquareFreeIdeal,
                  target: ReesBinomial) -> Optional[Certificate]:
    for const, other, orientation in ((target.alpha, target.beta, "as-given"),
                                      (target.beta, target.alpha, "swapped")):
        if len(const) < 2 or len(set(const)) != 1:
            continue
        a1 = const[0]
        pick = next(c for c in other if c != a1)  # the rows differ
        blocks = (((a1,), (pick,)), (const[1:], seq_remove(other, (pick,))))
        if orientation == "as-given":
            terms = _split(ideal, target, blocks)
        else:  # same inner node and cofactors as the peel of (beta, alpha)
            terms = _split(ideal, target, tuple(
                (b, a) for a, b in reversed(blocks)))[::-1]
        return Certificate(target, terms, "constant_row", orientation,
                           note=f"peel ({a1},{pick}) off the constant row")
    return None


def rule_block_disjoint(ideal: SquareFreeIdeal, alpha: Sequence,
                        beta: Sequence) -> Optional[Certificate]:
    """Exhaustive aligned-partition search for disjoint rows.

    Tries every aligned two-block partition ((sub_a, sub_b), (rest_a,
    rest_b)), both block orders (so the pair with alpha and beta exchanged
    needs no search of its own), by the first block's size, then sub_a, then
    sub_b, and keeps the first whose gcd hypothesis holds: its walk has one
    inner node, sub_b + rest_a, so only that node is tested and only the
    kept partition is split.  Longer splits add nothing: a swap c+d -> c+d'
    stays in the fiber exactly when f_c * lcm(f_d, f_d') | M, so when an
    m-block split stays in, its swaps 2 and m give f_{beta_1}
    f_{alpha_{>1}} | M and f_{beta_1} f_{beta_{>1}} | M, and the two-block
    coarsening that merges blocks 2..m (same first swap) stays in too.  The
    separation conditions in the theory are strictly stronger than the
    mechanical hypothesis, so gating on the hypothesis itself both covers
    them and stays sound.  The target and the capacity are built once.
    """
    return _guarded(ideal, alpha, beta, "block_disjoint", lambda a, b: True)


def _guarded(ideal: SquareFreeIdeal, alpha: Sequence, beta: Sequence,
             rule_name: str, guard: Callable[[Sequence, Sequence], bool]
             ) -> Optional[Certificate]:
    """The entry of rule_block_disjoint and the shape rules: the rows are
    checked and tested for a shared index once, then guard(alpha, beta) on
    the checked rows; _block_disjoint runs on the target under rule_name."""
    alpha, beta = check_rows(ideal, alpha, beta)
    if seq_intersection(alpha, beta) or not guard(alpha, beta):
        return None
    return _block_disjoint(ideal, _binomial(ideal, alpha, beta), rule_name)


def _block_disjoint(ideal: SquareFreeIdeal, target: ReesBinomial,
                    rule_name: str = "block_disjoint") -> Optional[Certificate]:
    alpha, beta = target.alpha, target.beta
    capacity = _capacity(ideal, alpha, beta)
    for t in range(1, len(alpha)):
        subs_b = sorted(set(itertools.combinations(beta, t)))
        for sub_a in sorted(set(itertools.combinations(alpha, t))):
            rest_a = seq_remove(alpha, sub_a)
            for sub_b in subs_b:
                if _in_fiber(capacity, sub_b + rest_a):
                    blocks = ((sub_a, sub_b), (rest_a, seq_remove(beta, sub_b)))
                    return Certificate(target, _split(ideal, target, blocks),
                                       rule_name, "as-given",
                                       "two aligned blocks")
    return None


def rule_two_by_two(ideal: SquareFreeIdeal, alpha: Sequence,
                    beta: Sequence) -> Optional[Certificate]:
    """Two distinct indices on each side, disjoint, degree >= 3: a guard
    over rule_block_disjoint, whose search contains the peel of one copy of
    each row's heaviest index."""
    return _guarded(ideal, alpha, beta, "two_by_two", lambda a, b: (
        len(a) >= 3 and len(set(a)) == 2 and len(set(b)) == 2))


def rule_three_by_two(ideal: SquareFreeIdeal, alpha: Sequence,
                      beta: Sequence) -> Optional[Certificate]:
    """Three distinct indices against two, disjoint, degree >= 4: a guard
    over rule_block_disjoint, whose search contains the single and double
    peels of the heaviest indices."""
    return _guarded(ideal, alpha, beta, "three_by_two", lambda a, b: (
        len(a) >= 4 and {len(set(a)), len(set(b))} == {3, 2}))


def _induced_class(ideal: SquareFreeIdeal, alpha: Sequence,
                   beta: Sequence) -> Optional[ComponentClass]:
    """The class of the induced generator graph of checked disjoint rows,
    if the graph is connected."""
    sub = induced_subgraph(ideal, alpha, beta)
    comps = components(sub)
    return classify_component(sub, comps[0]) if len(comps) == 1 else None


def rule_tree_leaf(ideal: SquareFreeIdeal, alpha: Sequence,
                   beta: Sequence) -> Optional[Certificate]:
    """Disjoint rows whose induced generator graph is a tree: a guard over
    rule_block_disjoint, whose search contains the split at a leaf."""
    def guard(a: Sequence, b: Sequence) -> bool:
        cls = _induced_class(ideal, a, b)
        return cls is not None and cls.kind == "forest"
    return _guarded(ideal, alpha, beta, "tree_leaf", guard)


def rule_odd_cycle_step(ideal: SquareFreeIdeal, alpha: Sequence,
                        beta: Sequence) -> Optional[Certificate]:
    """Disjoint rows, degree >= 4, whose induced generator graph is exactly
    one odd cycle of length >= 5: a guard over rule_block_disjoint, whose
    search contains the split at a cycle segment b1 - a1 - a2 - b2."""
    def guard(a: Sequence, b: Sequence) -> bool:
        cls = _induced_class(ideal, a, b) if len(a) >= 4 else None
        return (cls is not None and cls.kind == "unique_odd_cycle"
                and len(cls.cycle) == len(cls.vertices) >= 5)
    return _guarded(ideal, alpha, beta, "odd_cycle_step", guard)


# --- irredundancy witnesses ------------------------------------------------

@dataclass(frozen=True)
class IrredundancyWitness:
    """Certifies that T_{alpha,beta} is a new generator in its degree.

    One row (avec, sorted) has pairwise distinct indices; the other is
    (b1^{s-1}, b2).  For the i-th entry of avec, xvars[i] is a variable
    dividing every other avec generator and f_{b1} but neither f_{avec[i]}
    nor f_{b2}; zvars[i] divides f_{avec[i]} and f_{b2} and nothing else in
    the pattern.  The pattern alone is not sufficient (other generators
    can route around it), so a witness is only valid when the exact oracle
    confirms the pair does not reduce modulo all lower layers."""

    alpha: Sequence
    beta: Sequence
    avec: Sequence
    b1: int
    b2: int
    xvars: tuple[int, ...]
    zvars: tuple[int, ...]
    role_swapped: bool = False

    def check(self, ideal: SquareFreeIdeal) -> bool:
        """The pattern on rows over 1..n, confirmed by the oracle."""
        s = len(self.avec)
        if (len(self.xvars) != s or len(self.zvars) != s
                or not _shape(self.alpha, self.beta, self.avec, self.b1,
                              self.b2, self.role_swapped)):
            return False
        try:
            alpha, beta = check_rows(ideal, self.alpha, self.beta)
        except ValueError:
            return False
        seps = _separators(ideal, self.avec, self.b1, self.b2)
        if not all(x in xs and z in zs for (xs, zs), x, z
                   in zip(seps, self.xvars, self.zvars)):
            return False
        return _confirmed(ideal, alpha, beta)


def _shape(alpha: Sequence, beta: Sequence, avec: Sequence, b1: int, b2: int,
           swapped: bool) -> bool:
    """The pattern's row conditions, for IrredundancyWitness.check and each
    of _pattern's candidates: the distinct row (beta when swapped)
    sorts to avec, s >= 2 pairwise distinct indices; the other row is
    (b1^{s-1}, b2) with b1 != b2; the two rows share no index."""
    distinct, special = (beta, alpha) if swapped else (alpha, beta)
    s = len(avec)
    return (s >= 2 and tuple(sorted(distinct)) == avec and len(set(avec)) == s
            and b1 != b2 and not set(avec) & {b1, b2}
            and sorted(special) == sorted((b1,) * (s - 1) + (b2,)))


def _separators(ideal: SquareFreeIdeal, avec: Sequence, b1: int,
                b2: int) -> list[tuple[list[int], list[int]]]:
    """For each entry of avec, the variables in table order that may serve
    as its x-var and as its z-var (see IrredundancyWitness)."""
    sup = {i: ideal.supports[i - 1] for i in set(avec) | {b1, b2}}
    out = []
    for ai in avec:
        others = [sup[a] for a in avec if a != ai]
        xs = sorted(sup[b1].intersection(*others) - sup[ai] - sup[b2])
        zs = sorted((sup[ai] & sup[b2]).difference(sup[b1], *others))
        out.append((xs, zs))
    return out


def _confirmed(ideal: SquareFreeIdeal, alpha: Sequence, beta: Sequence) -> bool:
    """The exact oracle: the checked pair is new modulo lower layers."""
    b = _binomial(ideal, alpha, beta)
    return member_lower(ideal, b, b.degree - 1).is_no


def _pattern(ideal: SquareFreeIdeal, alpha: Sequence,
             beta: Sequence) -> Optional[IrredundancyWitness]:
    """The irredundancy pattern of the checked rows, without the oracle:
    both row roles, with the other row's two indices as (b1, b2) in both
    orders (smaller first), are tried against _shape, and per entry the
    first separating variable in table order is taken."""
    for a_row, b_row, swapped in ((alpha, beta, False), (beta, alpha, True)):
        if len(set(b_row)) != 2:
            continue
        avec = tuple(sorted(a_row))
        lo, hi = sorted(set(b_row))
        for b1, b2 in ((lo, hi), (hi, lo)):
            if not _shape(alpha, beta, avec, b1, b2, swapped):
                continue
            seps = _separators(ideal, avec, b1, b2)
            if all(xs and zs for xs, zs in seps):
                return IrredundancyWitness(
                    alpha, beta, avec, b1, b2, tuple(xs[0] for xs, _ in seps),
                    tuple(zs[0] for _, zs in seps), swapped)
    return None


def irredundancy_witness(ideal: SquareFreeIdeal, alpha: Sequence,
                         beta: Sequence) -> Optional[IrredundancyWitness]:
    """The pair's _pattern, returned only when the oracle confirms the pair
    (see _confirmed); rows are checked as the rules check them."""
    w = _pattern(ideal, *check_rows(ideal, alpha, beta))
    return w if w is not None and _confirmed(ideal, w.alpha, w.beta) else None


# --- the reduction driver --------------------------------------------------

@dataclass
class ReductionOutcome:
    """status "reduced": chain rewrites the pair down to terminal_degree.
    status "stuck": no rule applies to the top pair and the oracle says it
    does not reduce modulo lower layers, so it is a new generator; witness,
    when present, is an irredundancy pattern for it."""

    status: str
    chain: tuple[Certificate, ...]
    terminal_degree: Optional[int] = None
    stuck_pair: Optional[tuple[Sequence, Sequence]] = None
    witness: Optional[IrredundancyWitness] = None


def _pair_key(a: Sequence, b: Sequence):
    return (a, b) if a <= b else (b, a)


def _dispatch(ideal: SquareFreeIdeal,
              target: ReesBinomial) -> Optional[Certificate]:
    """The first of the shared-index, power-factor, constant-row and
    block-disjoint bodies, in that priority order, that applies to a checked
    target; all four take (ideal, target).  Only the first compares the
    rows, and a shared index always fires.  The shape rules are not chained:
    they cannot fire after rule_block_disjoint."""
    return (_shared_index(ideal, target) or _power_factor(ideal, target)
            or _constant_row(ideal, target) or _block_disjoint(ideal, target))


def reduce_to_normal(ideal: SquareFreeIdeal, alpha: Sequence,
                     beta: Sequence) -> ReductionOutcome:
    """Drive the rules in priority order (_dispatch), recursing into every
    sub-binomial of degree at least 2.  When no rule applies to the top
    pair, the oracle decides it modulo all lower layers: a yes gives its
    fiber_certificate, a no makes it stuck, a genuinely new generator in its
    degree, and the outcome carries the pair's irredundancy _pattern when
    one fits.  Inner pairs that no rule touches simply stay as terminal
    leaves; only the top rows are checked."""
    a, b = check_rows(ideal, alpha, beta)
    if len(a) == 1:
        return ReductionOutcome("reduced", (), terminal_degree=1)
    chain: list[Certificate] = []
    queue = [_binomial(ideal, a, b)]
    queued = {_pair_key(a, b)}
    terminal = 1  # the largest degree of a queued pair no rule expresses
    for target in queue:  # grows while it is read
        cert = _dispatch(ideal, target)
        if cert is None and not chain:  # the top pair
            verdict = member_lower(ideal, target, target.degree - 1)
            if verdict.is_no:
                # the verdict is the witness's confirmation already
                return ReductionOutcome(
                    "stuck", (), stuck_pair=(a, b),
                    witness=_pattern(ideal, a, b))
            cert = fiber_certificate(ideal, target, verdict.path)
        if cert is None:
            terminal = max(terminal, target.degree)
            continue
        chain.append(cert)
        for term in cert.terms:
            if term.sub.degree < 2:
                continue
            sub_key = _pair_key(term.sub.alpha, term.sub.beta)
            if sub_key not in queued:
                queued.add(sub_key)
                queue.append(term.sub)
    return ReductionOutcome("reduced", tuple(chain), terminal_degree=terminal)
