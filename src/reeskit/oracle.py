"""Exact membership oracle for Taylor relations modulo lower layers.

A rewrite step replaces a whole-monomial occurrence of one term of a Taylor
binomial inside a monomial by the other term.  For pure binomial ideals the
difference of two monomials lies in the ideal of a set of binomials exactly
when a chain of such steps connects them.

member_lower decides whether a degree-s binomial pair reduces modulo all
relation layers up to k without materializing those layers: every monomial
reachable from (f_beta/g) T_alpha has the shape (M / f_delta) T_delta with
M = lcm(f_alpha, f_beta) and f_delta dividing M, and a move between fiber
nodes delta, delta' exists under some layer-<=k rule precisely when their
multiset distance is at most k.  The search therefore runs on the finite
fiber universe {delta : f_delta | M}, which stays small even where the raw
rule count is astronomical, and both answers are exact: no degree cap is
involved, because every rewrite keeps the substituted monomial M t^s.
minimal_linear_generators applies the same fiber argument to layer 1.

The fiber is enumerated directly, never by filtering the whole layer: a
depth-first search over non-decreasing index sequences tracks the capacity
of M still free, one packed integer field per variable of M.  Every
generator is square-free, so picking index a takes one unit from each
variable of supp(f_a); generators reaching outside supp(M) never fit, and a
prefix is cut as soon as the picks still possible cannot fill the slots
left.  The search yields the fiber in lex order, so paths are the same as a
filter over the layer would give.  A yes verdict keeps its fiber path and
builds the rewrite chain along it only when the chain is read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence as Seq

from .monomials import SquareFreeIdeal, mono_divides, mono_lcm
from .taylor import (
    ReesBinomial,
    RTMonomial,
    Sequence,
    multiset_distance,
    product_of,
    rt_div_exact,
    rt_divides,
    rt_mul,
    run_lengths,
    seq_intersection,
    seq_remove,
    taylor_binomial,
    taylor_layer,
    weighted_degree,
)


@dataclass(frozen=True)
class RewriteRule:
    """Unordered two-sided rewrite rule; sides are the terms of a binomial."""

    left: RTMonomial
    right: RTMonomial

    @staticmethod
    def from_binomial(b: ReesBinomial) -> "RewriteRule":
        u, v = b.terms()
        return RewriteRule(u, v)


class ChainStep(NamedTuple):
    rule: RewriteRule
    forward: bool  # True: left side matched and was replaced by right


@dataclass(frozen=True)
class Verdict:
    """An exact answer.  A yes carries the fiber path from alpha to beta;
    chain, the rewrite steps along that path, is built on first read."""

    status: str  # "yes" | "no"
    note: str = ""
    path: tuple[Sequence, ...] = ()
    ideal: Optional[SquareFreeIdeal] = field(default=None, repr=False)

    @cached_property
    def chain(self) -> tuple[ChainStep, ...]:
        return tuple(_fiber_step(self.ideal, a, b)
                     for a, b in zip(self.path, self.path[1:]))

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"

    @property
    def is_no(self) -> bool:
        return self.status == "no"

    @property
    def is_unknown(self) -> bool:
        """Always False: every verdict is exact."""
        return False


def apply_step(w: RTMonomial, step: ChainStep) -> RTMonomial:
    src = step.rule.left if step.forward else step.rule.right
    dst = step.rule.right if step.forward else step.rule.left
    if not rt_divides(src, w):
        raise ValueError("chain step does not apply")
    return rt_mul(rt_div_exact(w, src), dst)


def replay_chain(u: RTMonomial, chain: Iterable[ChainStep]) -> RTMonomial:
    w = u
    for step in chain:
        w = apply_step(w, step)
    return w


# --- fiber-based layered membership ---------------------------------------

def _fiber_step(ideal: SquareFreeIdeal, delta: Sequence,
                delta2: Sequence) -> ChainStep:
    common = seq_intersection(delta, delta2)
    d = seq_remove(delta, common)
    d2 = seq_remove(delta2, common)
    rule = RewriteRule.from_binomial(taylor_binomial(ideal, d, d2))
    return ChainStep(rule, True)


def _fiber(ideal: SquareFreeIdeal, alpha: Sequence,
           beta: Sequence) -> list[Sequence]:
    """{delta : f_delta | lcm(f_alpha, f_beta)} in lex order.

    The capacity still free is one integer with a field per variable of
    the lcm, each field topped by a guard bit; subtracting a generator's
    mask borrows a guard bit exactly when the generator does not fit."""
    big = mono_lcm(product_of(ideal, alpha), product_of(ideal, beta))
    s = len(alpha)
    width = s.bit_length() + 1
    guard = 1 << (width - 1)
    shift: dict[int, int] = {}
    full = guards = 0
    for pos, (v, e) in enumerate(big.exps):
        shift[v] = width * pos
        full |= (guard | e) << shift[v]
        guards |= guard << shift[v]
    index, masks = [], []
    for a, g in enumerate(ideal.gens, start=1):
        if all(v in shift for v, _ in g.exps):
            index.append(a)
            masks.append(sum(1 << shift[v] for v, _ in g.exps))
    out: list[Sequence] = []
    stack: list[tuple[Sequence, int, int]] = [((), full, 0)]
    while stack:
        prefix, free, first = stack.pop()
        left = s - len(prefix) - 1  # slots still open after the next pick
        kids = []
        for j in range(first, len(masks)):
            rest = free - masks[j]
            if rest & guards != guards:
                continue
            seq = prefix + (index[j],)
            if not left:
                out.append(seq)
            # with one slot left the bound only asks whether some generator
            # still fits, which the child's own scan answers
            elif left == 1 or _can_fill(rest, masks[j:], guards, left):
                kids.append((seq, rest, j))
        stack.extend(reversed(kids))
    return out


def _can_fill(free: int, masks: Seq[int], guards: int, slots: int) -> bool:
    """Do the generators in masks, each counted as often as it alone still
    fits in free, add up to slots picks?  That count bounds every way of
    filling the slots, so False means the prefix cannot be completed."""
    for mask in masks:
        rest = free - mask
        while rest & guards == guards:
            slots -= 1
            if not slots:
                return True
            rest -= mask
    return False


def _bfs_path(start: Sequence, goal: Sequence,
              neighbors) -> Optional[list[Sequence]]:
    parent: dict[Sequence, Optional[Sequence]] = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for other in neighbors(node):
                if other in parent:
                    continue
                parent[other] = node
                if other == goal:
                    path = [other]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                nxt.append(other)
        frontier = nxt
    return None


def member_lower(ideal: SquareFreeIdeal, b: ReesBinomial, k: int,
                 cap: Optional[int] = None) -> Verdict:
    """Does the layer-s pair of b rewrite into one another modulo all
    relation layers of degree at most k?  Exact yes/no on the lcm fiber.

    cap is kept for older callers and only validated: no fiber search is
    ever cut off by degree."""
    if k < 1:
        raise ValueError("layer bound k must be at least 1")
    if cap is not None:
        du = weighted_degree(ideal, b.terms()[0])
        if cap < du:
            raise ValueError(
                f"cap {cap} below the degree {du} of the start monomial")
    s = b.degree

    if multiset_distance(b.alpha, b.beta) <= k:
        return Verdict("yes", "single move", (b.alpha, b.beta), ideal)

    universe = _fiber(ideal, b.alpha, b.beta)
    note = f"fiber universe {len(universe)} nodes"

    if k >= s - 1:
        # Edges are exactly "supports intersect": connectivity first via
        # union-find over generator indices, path reconstruction only on yes.
        uf = list(range(ideal.n + 1))

        def find(a: int) -> int:
            while uf[a] != a:
                uf[a] = uf[uf[a]]
                a = uf[a]
            return a

        for delta in universe:
            sup = sorted(set(delta))
            for a in sup[1:]:
                uf[find(a)] = find(sup[0])
        if find(b.alpha[0]) != find(b.beta[0]):
            return Verdict("no", note)
        masks = {delta: _support_mask(delta) for delta in universe}

        def neighbors(node: Sequence):
            mask = masks[node]
            return [o for o in universe if o != node and masks[o] & mask]

        path = _bfs_path(b.alpha, b.beta, neighbors)
        assert path is not None
        return Verdict("yes", note, tuple(path), ideal)

    if k == 1:
        uni_set = set(universe)

        def neighbors(node: Sequence):
            out = []
            for a, _mult in run_lengths(node):
                rest = seq_remove(node, (a,))
                for c in range(1, ideal.n + 1):
                    if c == a:
                        continue
                    cand = tuple(sorted(rest + (c,)))
                    if cand in uni_set:
                        out.append(cand)
            return out
    else:
        counters = {delta: Counter(delta) for delta in universe}

        def neighbors(node: Sequence):
            cn = counters[node]
            out = []
            for o in universe:
                if o == node:
                    continue
                if s - sum((cn & counters[o]).values()) <= k:
                    out.append(o)
            return out

    path = _bfs_path(b.alpha, b.beta, neighbors)
    if path is None:
        return Verdict("no", note)
    return Verdict("yes", note, tuple(path), ideal)


def _support_mask(seq: Sequence) -> int:
    mask = 0
    for a in set(seq):
        mask |= 1 << a
    return mask


# --- layered relation-type estimation --------------------------------------

def default_s_max(n: int) -> int:
    """The top layer swept when none is given: n - 1, clamped to 2..6."""
    return max(2, min(n - 1, 6))


@dataclass
class RtReport:
    certified_lower: int
    witness: Optional[ReesBinomial]
    verified_upper_through: int
    layer_tallies: dict[int, tuple[int, int]] = field(default_factory=dict)


def relation_type_estimate(ideal: SquareFreeIdeal, s_max: int) -> RtReport:
    """Test every layer 2..s_max against all strictly lower layers.

    layer_tallies maps each layer to its (reducing, new) pair counts.
    certified_lower starts at the vacuous floor 1 and becomes the largest
    layer containing a pair that does not reduce (with a witness binomial).
    Every verdict is exact, so all layers through s_max are verified.
    """
    if s_max < 1:
        raise ValueError(f"s_max must be at least 1, got {s_max}")
    tallies: dict[int, tuple[int, int]] = {}
    certified_lower = 1
    witness: Optional[ReesBinomial] = None
    for s in range(2, s_max + 1):
        yes = no = 0
        first_no: Optional[ReesBinomial] = None
        for b in taylor_layer(ideal, s):
            if member_lower(ideal, b, s - 1).is_yes:
                yes += 1
            else:
                no += 1
                if first_no is None:
                    first_no = b
        tallies[s] = (yes, no)
        if no > 0:
            certified_lower = s
            witness = first_no
    return RtReport(certified_lower, witness, s_max, tallies)


def fiber_witness(ideal: SquareFreeIdeal, b: ReesBinomial) -> bool:
    """True when b both fails to reduce modulo all strictly lower layers and
    carries a non-unit coefficient on at least one side (so it witnesses a
    minimal generator outside the linear-plus-fiber part)."""
    if b.lhs_coef.is_one and b.rhs_coef.is_one:
        return False
    if b.degree == 1:
        return True
    return member_lower(ideal, b, b.degree - 1).is_no


def minimal_linear_generators(ideal: SquareFreeIdeal) -> list[ReesBinomial]:
    """Greedy pruning of the degree-1 layer: drop T_{i,j} whenever the
    others still kept rewrite one of its terms into the other.

    On the layer-1 fiber of M = lcm(f_i, f_j) a kept T_{k,l} moves
    (M/f_k) T_k to (M/f_l) T_l exactly when lcm(f_k, f_l) divides M, so
    T_{i,j} is dropped when such moves join i to j."""
    kept = list(taylor_layer(ideal, 1))
    lcm = {(b.alpha, b.beta): mono_lcm(product_of(ideal, b.alpha),
                                       product_of(ideal, b.beta))
           for b in kept}
    for b in list(kept):
        big = lcm[b.alpha, b.beta]
        moves = [x.alpha + x.beta for x in kept
                 if x is not b and mono_divides(lcm[x.alpha, x.beta], big)]
        reach = set(b.alpha)
        grew = True
        while grew:
            grew = False
            for k, l in moves:
                if (k in reach) != (l in reach):
                    reach |= {k, l}
                    grew = True
        if b.beta[0] in reach:
            kept.remove(b)
    return kept
