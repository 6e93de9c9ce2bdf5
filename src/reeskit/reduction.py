"""Reduction rules, split certificates, and irredundancy witnesses.

A Certificate expresses a target binomial T_{alpha,beta} as an exact sum

    T_{alpha,beta} = sum_i  coef_i * T_{tfactor_i} * T_{alpha_i,beta_i}

over lower-degree sub-binomials; verify_certificate replays the identity in
exact polynomial arithmetic.  The workhorse is split_certificate: given an
aligned block partition of the pair it checks the gcd hypothesis

    gcd(f_alpha, f_beta)  divides
    gcd(prod_{j<i} f_{alpha_j}, f_beta)
      * gcd(prod_{k>=i} f_{alpha_k}, prod_{k>i} f_{beta_k})
      * gcd(f_{alpha_i}, f_{beta_i})

for every non-trivial block and emits the telescoping certificate with
cofactors A_i = prod_{j<i} f_{alpha_j} * prod_{k>i} f_{beta_k}
* gcd(f_{alpha_i}, f_{beta_i}) / gcd(f_alpha, f_beta).

The named rules are sufficient conditions with documented search spaces;
most try the pair as given and with the roles of alpha and beta exchanged
(a swapped match flips the orientation of every sub-binomial, which absorbs
the sign), while rule_block_disjoint's two-block search already covers the
exchanged pair.  reduce_to_normal drives five of the eight rules in a fixed
priority order (_dispatch says why the other three would never fire) and,
when nothing applies to the top pair, searches for an irredundancy witness
certifying that the pair is a genuinely new generator in its degree.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

from .graphs import GeneratorGraph, components, induced_subgraph
from .monomials import (
    Monomial,
    SquareFreeIdeal,
    mono_div_exact,
    mono_divides,
    mono_gcd,
    mono_mul,
    mono_pow,
)
from .oracle import member_lower
from .taylor import (
    ReesBinomial,
    Sequence,
    check_sequence,
    expand,
    poly_add,
    poly_scale_by,
    product_of,
    run_lengths,
    seq_intersection,
    seq_remove,
    swap_binomial,
    taylor_binomial,
)


class HypothesisFails(Exception):
    """The split-lemma gcd hypothesis fails; index is the first bad block."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class InternalCaseError(Exception):
    """A case analysis reached a shape it proves impossible."""


@dataclass(frozen=True)
class BlockPartition:
    """Aligned blocks ((alpha_1, beta_1), ..., (alpha_m, beta_m)); the target
    pair is the sorted concatenation of the two columns."""

    blocks: tuple[tuple[Sequence, Sequence], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("empty partition")
        for a, b in self.blocks:
            if not (a and b and len(a) == len(b)):
                raise ValueError(f"bad block {(a, b)!r}")

    @property
    def alpha(self) -> Sequence:
        return tuple(sorted(c for a, _ in self.blocks for c in a))

    @property
    def beta(self) -> Sequence:
        return tuple(sorted(c for _, b in self.blocks for c in b))


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


def swap_certificate(cert: Certificate) -> Certificate:
    """Convert a certificate for (beta, alpha) into one for (alpha, beta).

    Negating both the target and every sub-binomial preserves the identity,
    and negation of a binomial is exactly the role swap."""
    return Certificate(
        swap_binomial(cert.target),
        tuple(CertTerm(t.coef, t.tfactor, swap_binomial(t.sub))
              for t in cert.terms),
        cert.rule_name,
        "swapped" if cert.orientation == "as-given" else "as-given",
        cert.note)


def verify_certificate(ideal: SquareFreeIdeal, cert: Certificate) -> bool:
    """Exact check: the target and every sub-binomial are genuine Taylor
    binomials of the ideal and the certificate identity holds in S."""
    try:
        if taylor_binomial(ideal, cert.target.alpha, cert.target.beta) != cert.target:
            return False
        total: dict = {}
        for term in cert.terms:
            if taylor_binomial(ideal, term.sub.alpha, term.sub.beta) != term.sub:
                return False
            total = poly_add(
                total, poly_scale_by(expand(term.sub), 1, term.coef, term.tfactor))
        return poly_add(total, poly_scale_by(expand(cert.target), -1,
                                             Monomial.one())) == {}
    except ValueError:
        return False


def split_certificate(ideal: SquareFreeIdeal, partition: BlockPartition,
                      rule_name: str = "split", note: str = "") -> Certificate:
    """The telescoping certificate of an aligned block partition.

    Raises HypothesisFails with the 1-based index of the first block whose
    gcd hypothesis fails.  Blocks with alpha_i == beta_i contribute nothing
    and are skipped, hypothesis included.
    """
    blocks = partition.blocks
    target = taylor_binomial(ideal, partition.alpha, partition.beta)
    m = len(blocks)
    fa = [product_of(ideal, a) for a, _ in blocks]
    fb = [product_of(ideal, b) for _, b in blocks]
    full_beta = product_of(ideal, target.beta)
    g = mono_gcd(product_of(ideal, target.alpha), full_beta)

    one = Monomial.one()
    prefix_a = [one]
    for i in range(m):
        prefix_a.append(mono_mul(prefix_a[-1], fa[i]))
    suffix_a = [one] * (m + 1)
    suffix_b = [one] * (m + 1)
    for i in reversed(range(m)):
        suffix_a[i] = mono_mul(suffix_a[i + 1], fa[i])
        suffix_b[i] = mono_mul(suffix_b[i + 1], fb[i])

    terms = []
    for i in range(m):
        a_i, b_i = blocks[i]
        if a_i == b_i:
            continue
        g_i = mono_gcd(fa[i], fb[i])
        hyp = mono_mul(mono_mul(mono_gcd(prefix_a[i], full_beta),
                                mono_gcd(suffix_a[i], suffix_b[i + 1])), g_i)
        if not mono_divides(g, hyp):
            raise HypothesisFails(
                i + 1, f"gcd hypothesis fails at block {i + 1} of {m}")
        coef = mono_div_exact(
            mono_mul(mono_mul(prefix_a[i], suffix_b[i + 1]), g_i), g)
        tfactor = tuple(sorted(
            [c for j in range(i + 1, m) for c in blocks[j][0]]
            + [c for j in range(i) for c in blocks[j][1]]))
        terms.append(CertTerm(coef, tfactor, taylor_binomial(ideal, a_i, b_i)))
    return Certificate(target, tuple(terms), rule_name, "as-given", note)


# --- the named rules -------------------------------------------------------

def rule_shared_index(ideal: SquareFreeIdeal, alpha: Sequence,
                      beta: Sequence) -> Optional[Certificate]:
    """Factor the common T-part out of a pair sharing indices: the binomial
    equals T_{shared} times the binomial of the disjoint remainders."""
    shared = seq_intersection(alpha, beta)
    if not shared:
        return None
    sub = taylor_binomial(ideal, seq_remove(alpha, shared),
                          seq_remove(beta, shared))
    target = taylor_binomial(ideal, alpha, beta)
    return Certificate(target, (CertTerm(Monomial.one(), shared, sub),),
                       "shared_index", "as-given",
                       note=f"common T-factor {list(shared)}")


def rule_power_factor(ideal: SquareFreeIdeal, alpha: Sequence,
                      beta: Sequence) -> Optional[Certificate]:
    """When both rows are l-th multiples of a base pair (l >= 2), the
    binomial is a difference of l-th powers and factors through the base."""
    mults = [m for _, m in run_lengths(alpha)] + [m for _, m in run_lengths(beta)]
    l = 0
    for m in mults:
        l = math.gcd(l, m)
    if l < 2:
        return None
    base_a = tuple(sorted(c for idx, m in run_lengths(alpha)
                          for c in [idx] * (m // l)))
    base_b = tuple(sorted(c for idx, m in run_lengths(beta)
                          for c in [idx] * (m // l)))
    sub = taylor_binomial(ideal, base_a, base_b)
    ca, cb = sub.lhs_coef, sub.rhs_coef
    terms = []
    for j in range(l):
        coef = mono_mul(mono_pow(ca, l - 1 - j), mono_pow(cb, j))
        tfactor = tuple(sorted(base_a * (l - 1 - j) + base_b * j))
        terms.append(CertTerm(coef, tfactor, sub))
    target = taylor_binomial(ideal, alpha, beta)
    return Certificate(target, tuple(terms), "power_factor", "as-given",
                       note=f"difference of {l}-th powers of the base pair")


def _constant_row_impl(ideal: SquareFreeIdeal, alpha: Sequence,
                       beta: Sequence) -> Optional[Certificate]:
    if len(set(alpha)) != 1 or len(alpha) < 2:
        return None
    a1 = alpha[0]
    pick = next((b for b in beta if b != a1), None)
    if pick is None:
        return None
    rest = seq_remove(beta, (pick,))
    blocks = BlockPartition((((a1,), (pick,)),
                             ((a1,) * (len(alpha) - 1), rest)))
    return split_certificate(
        ideal, blocks, rule_name="constant_row",
        note=f"peel ({a1},{pick}) off the constant row")


def rule_constant_row(ideal: SquareFreeIdeal, alpha: Sequence,
                      beta: Sequence) -> Optional[Certificate]:
    """One row constant: peel a single (a1, b1) pair; the gcd hypothesis of
    this split holds unconditionally for square-free generators."""
    cert = _constant_row_impl(ideal, alpha, beta)
    if cert is not None:
        return cert
    cert = _constant_row_impl(ideal, beta, alpha)
    return swap_certificate(cert) if cert is not None else None


def _distinct_submultisets(seq: Sequence, t: int) -> list[Sequence]:
    return sorted(set(itertools.combinations(seq, t)))


def rule_block_disjoint(ideal: SquareFreeIdeal, alpha: Sequence,
                        beta: Sequence) -> Optional[Certificate]:
    """Exhaustive aligned-partition search for disjoint rows.

    Tries every aligned two-block partition (both block orders) and, for
    degree at most 6, every aligned three-block partition, keeping the first
    one whose gcd hypothesis verifies.  The separation conditions in the
    underlying theory are strictly stronger than the mechanical hypothesis,
    so gating on the hypothesis itself both covers them and stays sound.
    """
    if seq_intersection(alpha, beta):
        return None
    s = len(alpha)
    if s < 2:
        return None
    for t in range(1, s):
        for sub_a in _distinct_submultisets(alpha, t):
            rest_a = seq_remove(alpha, sub_a)
            for sub_b in _distinct_submultisets(beta, t):
                rest_b = seq_remove(beta, sub_b)
                try:
                    return split_certificate(
                        ideal,
                        BlockPartition(((sub_a, sub_b), (rest_a, rest_b))),
                        rule_name="block_disjoint",
                        note="two aligned blocks")
                except HypothesisFails:
                    continue
    if s <= 6:
        for t1 in range(1, s - 1):
            for a1 in _distinct_submultisets(alpha, t1):
                ra1 = seq_remove(alpha, a1)
                for b1 in _distinct_submultisets(beta, t1):
                    rb1 = seq_remove(beta, b1)
                    for t2 in range(1, s - t1):
                        for a2 in _distinct_submultisets(ra1, t2):
                            ra2 = seq_remove(ra1, a2)
                            for b2 in _distinct_submultisets(rb1, t2):
                                rb2 = seq_remove(rb1, b2)
                                try:
                                    return split_certificate(
                                        ideal,
                                        BlockPartition(
                                            ((a1, b1), (a2, b2), (ra2, rb2))),
                                        rule_name="block_disjoint",
                                        note="three aligned blocks")
                                except HypothesisFails:
                                    continue
    return None


def _sorted_runs(seq: Sequence) -> list[tuple[int, int]]:
    return sorted(run_lengths(seq), key=lambda p: (-p[1], p[0]))


def _two_by_two_peel(ideal: SquareFreeIdeal, alpha: Sequence,
                     beta: Sequence) -> Certificate:
    (a1, l1), (a2, l2) = _sorted_runs(alpha)
    (b1, k1), (b2, k2) = _sorted_runs(beta)
    if k1 > k2:
        rest_a = tuple(sorted((a1,) * (l1 - 1) + (a2,) * l2))
        rest_b = tuple(sorted((b1,) * (k1 - 1) + (b2,) * k2))
        blocks = BlockPartition(((rest_a, rest_b), ((a1,), (b1,))))
        return split_certificate(ideal, blocks, rule_name="two_by_two",
                                 note=f"peel ({a1},{b1}) after the remainder")
    if l1 > l2:
        return swap_certificate(_two_by_two_peel(ideal, beta, alpha))
    raise InternalCaseError(
        "both rows have flat multiplicities; the power rule covers this")


def _three_by_two_step(ideal: SquareFreeIdeal, alpha: Sequence,
                       beta: Sequence) -> Certificate:
    if len(set(alpha)) != 3:
        return swap_certificate(_three_by_two_step(ideal, beta, alpha))
    (a1, l1), (a2, l2), (a3, l3) = _sorted_runs(alpha)
    (b1, k1), (b2, k2) = _sorted_runs(beta)
    s = len(alpha)
    if l1 + l2 > k1:
        rest_a = tuple(sorted(
            (a1,) * (l1 - 1) + (a2,) * (l2 - 1) + (a3,) * l3))
        rest_b = tuple(sorted((b1,) * (k1 - 1) + (b2,) * (k2 - 1)))
        peel = (tuple(sorted((a1, a2))), tuple(sorted((b1, b2))))
        blocks = BlockPartition(((rest_a, rest_b), peel))
        return split_certificate(ideal, blocks, rule_name="three_by_two",
                                 note="double peel (heavy pair case)")
    if l1 > k2:
        rest_a = tuple(sorted((a1,) * (l1 - 1) + (a2,) * l2 + (a3,) * l3))
        rest_b = tuple(sorted((b1,) * (k1 - 1) + (b2,) * k2))
        blocks = BlockPartition(((rest_a, rest_b), ((a1,), (b1,))))
        return split_certificate(ideal, blocks, rule_name="three_by_two",
                                 note="single peel (dominant row case)")
    # forced balanced shape: multiplicities (t,t,t) against (2t,t)
    t, r = divmod(s, 3)
    if r != 0 or not (l1 == l2 == l3 == t and k1 == 2 * t and k2 == t):
        raise InternalCaseError(
            f"balanced case with s = {s} violates its own constraints")
    cert = rule_power_factor(ideal, alpha, beta)
    if cert is None:
        raise InternalCaseError("balanced case is not a power, s = %d" % s)
    return replace(cert, rule_name="three_by_two",
                   note="balanced case via the power factorization")


def _family_step(ideal: SquareFreeIdeal, alpha: Sequence,
                 beta: Sequence) -> Optional[Certificate]:
    cert = rule_power_factor(ideal, alpha, beta)
    if cert is not None:
        return cert
    cert = rule_constant_row(ideal, alpha, beta)
    if cert is not None:
        return cert
    da, db = len(set(alpha)), len(set(beta))
    if da == 2 and db == 2:
        return _two_by_two_peel(ideal, alpha, beta)
    if {da, db} == {3, 2}:
        return _three_by_two_step(ideal, alpha, beta)
    return None


def _family_reduce(ideal: SquareFreeIdeal, alpha: Sequence, beta: Sequence,
                   stop_degree: int) -> list[Certificate]:
    """Drive the closed shape family {constant row, 2x2, 3x2, powers} down
    to stop_degree.  Every remainder stays inside the family, so a miss is
    an internal error rather than a NotApplicable."""
    certs: list[Certificate] = []
    queue = [(alpha, beta)]
    seen = {(alpha, beta)}
    while queue:
        a, b = queue.pop(0)
        if len(a) <= stop_degree:
            continue
        cert = _family_step(ideal, a, b)
        if cert is None:
            raise InternalCaseError(f"pair {a} vs {b} left the shape family")
        certs.append(cert)
        for term in cert.terms:
            key = (term.sub.alpha, term.sub.beta)
            if term.sub.degree > stop_degree and key not in seen:
                seen.add(key)
                queue.append(key)
    return certs


def rule_two_by_two(ideal: SquareFreeIdeal, alpha: Sequence,
                    beta: Sequence) -> Optional[list[Certificate]]:
    """Two distinct indices on each side, disjoint, degree >= 3: peel
    (heaviest of one row, strictly heavier of the other) and recurse down to
    degree 2.  Flat multiplicities on both sides reduce to the power rule."""
    if seq_intersection(alpha, beta) or len(alpha) < 3:
        return None
    if len(set(alpha)) != 2 or len(set(beta)) != 2:
        return None
    return _family_reduce(ideal, alpha, beta, stop_degree=2)


def rule_three_by_two(ideal: SquareFreeIdeal, alpha: Sequence,
                      beta: Sequence) -> Optional[list[Certificate]]:
    """Three distinct indices against two, disjoint, degree >= 4: case split
    on the multiplicities, recursing inside the closed shape family down to
    degree 3."""
    if seq_intersection(alpha, beta) or len(alpha) < 4:
        return None
    if {len(set(alpha)), len(set(beta))} != {3, 2}:
        return None
    return _family_reduce(ideal, alpha, beta, stop_degree=3)


def _is_connected(g: GeneratorGraph) -> bool:
    return len(components(g)) == 1


def rule_tree_leaf(ideal: SquareFreeIdeal, alpha: Sequence,
                   beta: Sequence) -> Optional[Certificate]:
    """Disjoint rows whose induced generator graph is a tree: peel at a leaf
    of one row whose unique neighbor lies in the other row.

    When the leaf multiplicity already covers the neighbor multiplicity the
    aligned-block search settles the pair; otherwise split off the matched
    (leaf^l, neighbor^l) block and push the surplus neighbor copies into the
    remainder."""
    if seq_intersection(alpha, beta):
        return None
    sub = induced_subgraph(ideal, alpha, beta)
    if len(sub.edges) != len(sub.vertices) - 1 or not _is_connected(sub):
        return None
    for a_row, b_row, swapped in ((alpha, beta, False), (beta, alpha, True)):
        a_set, b_set = set(a_row), set(b_row)
        for v in sub.vertices:
            if v not in a_set:
                continue
            nbrs = sub.neighbors(v)
            if len(nbrs) != 1 or nbrs[0] not in b_set:
                continue
            u = nbrs[0]
            l1 = a_row.count(v)
            r1 = b_row.count(u)
            if l1 >= r1:
                cert = rule_block_disjoint(ideal, a_row, b_row)
                if cert is None:
                    continue
                cert = replace(cert, rule_name="tree_leaf",
                               note="leaf covers its neighbor; aligned blocks")
            else:
                big_a = seq_remove(a_row, (v,) * l1)
                big_b = tuple(sorted(
                    (u,) * (r1 - l1) + seq_remove(b_row, (u,) * r1)))
                blocks = BlockPartition(
                    ((big_a, big_b), ((v,) * l1, (u,) * l1)))
                try:
                    cert = split_certificate(
                        ideal, blocks, rule_name="tree_leaf",
                        note=f"match leaf {v} against neighbor {u}")
                except HypothesisFails:
                    continue
            return swap_certificate(cert) if swapped else cert
    return None


def rule_odd_cycle_step(ideal: SquareFreeIdeal, alpha: Sequence,
                        beta: Sequence) -> Optional[Certificate]:
    """Disjoint rows inducing a single odd cycle of length >= 5, degree >= 4:
    find consecutive cycle vertices b1 - a1 - a2 - b2 with the a's in one row,
    the b's in the other, and both a-multiplicities strictly below the
    multiplicities of their b-neighbors; match the a-block against equally
    many copies of the b's and push the surplus into the remainder."""
    if seq_intersection(alpha, beta) or len(alpha) < 4:
        return None
    sub = induced_subgraph(ideal, alpha, beta)
    nv = len(sub.vertices)
    if nv < 5 or nv % 2 == 0 or len(sub.edges) != nv:
        return None
    if any(len(sub.neighbors(v)) != 2 for v in sub.vertices):
        return None
    if not _is_connected(sub):
        return None
    for a_row, b_row, swapped in ((alpha, beta, False), (beta, alpha, True)):
        a_set, b_set = set(a_row), set(b_row)
        for ei, ej in sub.edges:
            for a1, a2 in ((ei, ej), (ej, ei)):
                if a1 not in a_set or a2 not in a_set:
                    continue
                b1 = next(x for x in sub.neighbors(a1) if x != a2)
                b2 = next(x for x in sub.neighbors(a2) if x != a1)
                if b1 not in b_set or b2 not in b_set or b1 == b2:
                    continue
                l1, l2 = a_row.count(a1), a_row.count(a2)
                r1, r2 = b_row.count(b1), b_row.count(b2)
                if l1 >= r1 or l2 >= r2:
                    continue
                big_a = seq_remove(a_row, tuple(sorted((a1,) * l1 + (a2,) * l2)))
                big_b = tuple(sorted(
                    (b1,) * (r1 - l1) + (b2,) * (r2 - l2)
                    + seq_remove(b_row, tuple(sorted((b1,) * r1 + (b2,) * r2)))))
                peel = (tuple(sorted((a1,) * l1 + (a2,) * l2)),
                        tuple(sorted((b1,) * l1 + (b2,) * l2)))
                try:
                    cert = split_certificate(
                        ideal, BlockPartition(((big_a, big_b), peel)),
                        rule_name="odd_cycle_step",
                        note=f"cycle segment {b1}-{a1}-{a2}-{b2}")
                except HypothesisFails:
                    continue
                return swap_certificate(cert) if swapped else cert
    return None


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
        s = len(self.avec)
        if s < 2 or len(self.xvars) != s or len(self.zvars) != s:
            return False
        distinct = self.beta if self.role_swapped else self.alpha
        special = self.alpha if self.role_swapped else self.beta
        if tuple(sorted(distinct)) != self.avec:
            return False
        if len(set(self.avec)) != s:
            return False
        if tuple(sorted(special)) != tuple(sorted((self.b1,) * (s - 1) + (self.b2,))):
            return False
        if self.b1 == self.b2 or set(self.avec) & {self.b1, self.b2}:
            return False
        sup = {i: ideal.generator(i).support for i in set(self.avec) | {self.b1, self.b2}}
        for i, ai in enumerate(self.avec):
            x, z = self.xvars[i], self.zvars[i]
            others = [a for a in self.avec if a != ai]
            if not (all(x in sup[a] for a in others) and x in sup[self.b1]
                    and x not in sup[ai] and x not in sup[self.b2]):
                return False
            if not (z in sup[ai] and z in sup[self.b2] and z not in sup[self.b1]
                    and all(z not in sup[a] for a in others)):
                return False
        return _confirmed(ideal, self.alpha, self.beta)


def _confirmed(ideal: SquareFreeIdeal, alpha: Sequence, beta: Sequence) -> bool:
    """The exact oracle: the pair does not reduce modulo lower layers."""
    b = taylor_binomial(ideal, alpha, beta)
    return member_lower(ideal, b, b.degree - 1).is_no


def irredundancy_witness(ideal: SquareFreeIdeal, alpha: Sequence,
                         beta: Sequence) -> Optional[IrredundancyWitness]:
    """Search both role assignments for an irredundancy witness; per entry
    the first suitable variable in table order is taken.  A pattern is
    returned only when the oracle confirms the pair (see _confirmed)."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    num_vars = len(ideal.table)
    for a_row, b_row, swapped in ((alpha, beta, False), (beta, alpha, True)):
        s = len(a_row)
        if s < 2 or len(set(a_row)) != s:
            continue
        if set(a_row) & set(b_row):
            continue
        counts = Counter(b_row)
        if len(counts) != 2:
            continue
        if s == 2:
            candidates = [(b_row[0], b_row[1]), (b_row[1], b_row[0])]
        else:
            by_mult = {m: idx for idx, m in counts.items()}
            if sorted(counts.values()) != [1, s - 1]:
                continue
            candidates = [(by_mult[s - 1], by_mult[1])]
        sup = {i: ideal.generator(i).support for i in set(a_row) | set(b_row)}
        avec = tuple(sorted(a_row))
        for b1, b2 in candidates:
            xv, zv = [], []
            for ai in avec:
                others = [a for a in avec if a != ai]
                x = next((v for v in range(num_vars)
                          if all(v in sup[a] for a in others)
                          and v in sup[b1] and v not in sup[ai]
                          and v not in sup[b2]), None)
                z = next((v for v in range(num_vars)
                          if v in sup[ai] and v in sup[b2]
                          and v not in sup[b1]
                          and all(v not in sup[a] for a in others)), None)
                if x is None or z is None:
                    break
                xv.append(x)
                zv.append(z)
            else:
                if not _confirmed(ideal, alpha, beta):
                    return None
                return IrredundancyWitness(alpha, beta, avec, b1, b2,
                                           tuple(xv), tuple(zv), swapped)
    return None


# --- the reduction driver --------------------------------------------------

@dataclass
class ReductionOutcome:
    """status "reduced": chain rewrites the pair down to terminal_degree.
    status "stuck": no rule applies to the top pair; witness, when present,
    certifies the pair as a genuinely new generator."""

    status: str
    chain: tuple[Certificate, ...]
    terminal_degree: Optional[int] = None
    stuck_pair: Optional[tuple[Sequence, Sequence]] = None
    witness: Optional[IrredundancyWitness] = None


def _pair_key(a: Sequence, b: Sequence):
    return (a, b) if a <= b else (b, a)


def _dispatch(ideal: SquareFreeIdeal, a: Sequence,
              b: Sequence) -> Optional[list[Certificate]]:
    # Built per call, so every rule name resolves at call time and module
    # level wrappers (bench/tracer.py) see each attempt.  Left out:
    # rule_two_by_two, rule_three_by_two and rule_odd_cycle_step, which on a
    # pair past block_disjoint try only two-block splits it has tried (the
    # split ((B1, A1), (B2, A2)) of (beta, alpha) checks the gcd conditions
    # of ((A2, B2), (A1, B1)) for (alpha, beta)).  rule_tree_leaf stays: its
    # swapped branch reaches three-block splits of (beta, alpha), which no
    # proof covers, though random probes never saw it fire.
    for rule in (rule_shared_index, rule_power_factor, rule_constant_row,
                 rule_block_disjoint, rule_tree_leaf):
        res = rule(ideal, a, b)
        if res is not None:
            return [res]
    return None


def reduce_to_normal(ideal: SquareFreeIdeal, alpha: Sequence,
                     beta: Sequence) -> ReductionOutcome:
    """Drive the rules in priority order, recursing into every sub-binomial
    of degree at least 2.  Only the top pair can come back stuck; inner
    pairs that no rule touches simply stay as terminal leaves."""
    a = check_sequence(alpha, ideal.n)
    b = check_sequence(beta, ideal.n)
    if len(a) != len(b):
        raise ValueError("rows must have equal length")
    if a == b:
        raise ValueError("equal rows give the zero binomial")
    if len(a) == 1:
        return ReductionOutcome("reduced", (), terminal_degree=1)
    chain: list[Certificate] = []
    expressed: set = set()
    queue: list[tuple[Sequence, Sequence]] = [(a, b)]
    queued = {_pair_key(a, b)}
    is_top = True
    while queue:
        pa, pb = queue.pop(0)
        res = _dispatch(ideal, pa, pb)
        if res is None:
            if is_top:
                return ReductionOutcome(
                    "stuck", (), stuck_pair=(pa, pb),
                    witness=irredundancy_witness(ideal, pa, pb))
            is_top = False
            continue
        is_top = False
        for cert in res:
            key = _pair_key(cert.target.alpha, cert.target.beta)
            if key in expressed:
                continue
            expressed.add(key)
            chain.append(cert)
            for term in cert.terms:
                if term.sub.degree < 2:
                    continue
                sub_key = _pair_key(term.sub.alpha, term.sub.beta)
                if sub_key not in expressed and sub_key not in queued:
                    queued.add(sub_key)
                    queue.append((term.sub.alpha, term.sub.beta))
    terminal = 1
    for cert in chain:
        for term in cert.terms:
            if _pair_key(term.sub.alpha, term.sub.beta) not in expressed:
                terminal = max(terminal, term.sub.degree)
    return ReductionOutcome("reduced", tuple(chain), terminal_degree=terminal)
