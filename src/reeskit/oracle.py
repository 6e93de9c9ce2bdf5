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
multiset distance is at most k, that is, when they share a sub-multiset of
size s - k.  One union-find over those sub-multisets decides connectivity
on the finite fiber universe {delta : f_delta | M}, which stays small even
where the raw rule count is astronomical, and both answers are exact: no
degree cap is involved, because every rewrite keeps the substituted
monomial M t^s.  minimal_linear_generators asks the same union-find about
layer 1.

The fiber is enumerated directly, never by filtering the whole layer: a
depth-first search over non-decreasing index sequences tracks the capacity
of M still free, one packed integer field per variable of M.  Every
generator is square-free, so picking index a takes one unit from each
variable of supp(f_a); generators reaching outside supp(M) never fit, and a
prefix is cut as soon as the picks still possible cannot fill the slots
left.  The search yields the fiber in lex order.  A yes verdict searches
for its fiber path, breadth first, and builds the rewrite chain along it
only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence as Seq

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
    """An exact answer about the pair of b modulo layers <= k.  A yes finds
    its fiber path from alpha to beta only when path is read, and chain,
    the rewrite steps along that path, only when chain is read."""

    status: str  # "yes" | "no"
    note: str = ""
    b: Optional[ReesBinomial] = None
    k: int = 0
    ideal: Optional[SquareFreeIdeal] = field(default=None, repr=False)

    @cached_property
    def path(self) -> tuple[Sequence, ...]:
        if not self.is_yes:
            return ()
        alpha, beta = self.b.alpha, self.b.beta
        if multiset_distance(alpha, beta) <= self.k:
            return (alpha, beta)
        universe = _fiber(self.ideal, alpha, beta)
        return tuple(_bfs_path(universe, alpha, beta, self.k))

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


def _joined(groups: Iterable[Iterable[Hashable]], a: Hashable,
            b: Hashable) -> bool:
    """Do a and b end in one class once the members of every group are
    united?  One union-find with path halving."""
    parent: dict[Hashable, Hashable] = {}

    def find(x: Hashable) -> Hashable:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for first, *rest in groups:
        for x in rest:
            parent[find(x)] = find(first)
    return find(a) == find(b)


def _bfs_path(universe: list[Sequence], start: Sequence, goal: Sequence,
              k: int) -> list[Sequence]:
    """A shortest path from start to goal, which must be reachable, in the
    fiber graph whose edges join nodes at multiset distance at most k."""
    parent = {start: start}
    frontier = [start]
    while goal not in parent:
        nxt = []
        for node in frontier:
            for other in universe:
                if other not in parent and multiset_distance(node, other) <= k:
                    parent[other] = node
                    nxt.append(other)
        frontier = nxt
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]


def member_lower(ideal: SquareFreeIdeal, b: ReesBinomial, k: int,
                 cap: Optional[int] = None) -> Verdict:
    """Does the layer-s pair of b rewrite into one another modulo all
    relation layers of degree at most k?  Exact yes/no on the lcm fiber:
    nodes one move apart share a sub-multiset of size t = s - k, so one
    union-find over the t-sub-multisets of every node decides it.

    cap is kept for older callers and only validated: no fiber search is
    ever cut off by degree."""
    if k < 1:
        raise ValueError("layer bound k must be at least 1")
    if cap is not None:
        du = weighted_degree(ideal, b.terms()[0])
        if cap < du:
            raise ValueError(
                f"cap {cap} below the degree {du} of the start monomial")

    if multiset_distance(b.alpha, b.beta) <= k:
        return Verdict("yes", "single move", b, k, ideal)

    universe = _fiber(ideal, b.alpha, b.beta)
    note = f"fiber universe {len(universe)} nodes"
    t = b.degree - k
    groups = (set(combinations(delta, t)) for delta in universe)
    status = "yes" if _joined(groups, b.alpha[:t], b.beta[:t]) else "no"
    return Verdict(status, note, b, k, ideal)


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
        if _joined(moves, b.alpha[0], b.beta[0]):
            kept.remove(b)
    return kept
