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
size s - k.  One breadth-first search (_path), which opens each of those
sub-multisets once, decides connectivity on the finite fiber universe
{delta : f_delta | M} and returns a shortest path, which stays small even
where the raw rule count is astronomical; the answer is exact: no degree
cap is involved, because every rewrite keeps the substituted monomial
M t^s.  relation_type_estimate and minimal_linear_generators need only a
yes or a no, so they join index classes (_joined) instead.

relation_type_estimate never builds a layer: modulo layer s - 1 a pair
whose rows share an index is a single move, so it is only counted.  A
disjoint pair reduces if a node alpha - {alpha_i} + {beta_j} divides M, as
it shares s - 1 >= 1 indices with alpha and one with beta (_one_swap); only
the pairs no swap settles draw their fiber, from the capacity the swaps
were tested on, only until the join, and only a layer's witness becomes a
binomial.

The fiber is enumerated directly, never by filtering the whole layer: a
depth-first search over non-decreasing index sequences tracks the capacity
of M still free, one packed integer field per table variable in the ideal's
layout at the pair's width (_capacity), which a whole sweep reuses.  Every
generator is square-free, so picking index a subtracts its mask, a unit in
each field of supp(f_a); generators reaching outside supp(M) never fit, and
a prefix is cut as soon as the picks still possible cannot fill the slots
left.  _fiber takes that capacity, not the pair, and yields the fiber
lazily, in lex order.  The same capacity decides a single node (_in_fiber),
the package's one fiber-membership test: a walk stays in the fiber exactly
when its nodes do, so reduction.py tests nodes with it and its walks only
compute, and minimal_linear_generators keeps a linear move when both its
nodes pass it; every caller has checked the node's shape.  A yes verdict
carries its path; reduction.fiber_certificate turns it into a Certificate,
the one proof format that verify_certificate replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Hashable, Iterable, Mapping, Optional, Sequence as Seq

from .monomials import SquareFreeIdeal
from .taylor import (
    ReesBinomial,
    Sequence,
    check_rows,
    enumerate_sequences,
    multiset_distance,
    taylor_binomial,
    taylor_layer,
    weighted_degree,
)


@dataclass(frozen=True)
class Verdict:
    """An exact answer about the pair of b modulo layers <= k.  A yes
    carries a shortest fiber path from alpha to beta ((alpha, beta) for a
    single move), a no the empty path; chain lists the path's steps as
    (delta, delta') pairs."""

    status: str  # "yes" | "no"
    note: str = ""
    b: Optional[ReesBinomial] = None
    k: int = 0
    path: tuple[Sequence, ...] = ()

    @property
    def chain(self) -> tuple[tuple[Sequence, Sequence], ...]:
        return tuple(zip(self.path, self.path[1:]))

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


# --- fiber-based layered membership ---------------------------------------

def _capacity(ideal: SquareFreeIdeal, alpha: Sequence, beta: Sequence
              ) -> tuple[int, int, int, list[int]]:
    """(s, full, guards, gen) for M = lcm(f_alpha, f_beta), s = len(alpha),
    rows unchecked, in ideal.layout at width s.bit_length() + 1: full holds
    each exponent of M (0 off supp(M)) under its guard bit (_lcm).  A field
    starts at guard + e, guard > s >= e, so up to s subtractions borrow
    across no field, and a guard bit stays set exactly while the picks fit."""
    s = len(alpha)
    w = s.bit_length() + 1
    gen, _, _, guards = ideal.layout(w)
    a = sum(map(gen.__getitem__, alpha))
    b = sum(map(gen.__getitem__, beta))
    return s, _lcm(a, b, w, guards), guards, gen


def _lcm(a: int, b: int, w: int, guards: int) -> int:
    """Guarded capacity of lcm(A, B) from packed mask sums a, b at width w:
    the fields where A >= B keep their guard bit in a | guards - b, which,
    less its units, selects a's fields."""
    ge = ((a | guards) - b) & guards
    sel = ge - (ge >> (w - 1))
    return (a & sel) | (b & ~sel) | guards


def _in_fiber(capacity: tuple, node: Seq[int]) -> bool:
    """Does f_node divide M?  node, in any order, must already be a length-s
    sequence over 1..n, as check_sequence and check_rows make sure at every
    caller; a generator reaching outside supp(M) borrows a guard bit."""
    _, free, guards, gen = capacity
    return (free - sum(map(gen.__getitem__, node))) & guards == guards


def _fiber(capacity: tuple) -> Iterable[Sequence]:
    """Yield {delta : f_delta | M} in lex order, lazily, for a pair's
    _capacity (s, full, guards, gen), by a depth-first search over it and
    the generators that fit in it once.  At every depth a child that picks
    the j-th of them is bounded by _can_fill on tails[j], the masks from
    j on; the suffix lists are built once per fiber, so no child copies a
    list.  It keeps its own stack: the search is s picks deep, and a
    recursive generator exceeds the default recursion limit at s = 1,200."""
    s, full, guards, gen = capacity
    index = [a for a in range(1, len(gen))
             if (full - gen[a]) & guards == guards]
    masks = [gen[a] for a in index]
    tails = [masks[j:] for j in range(len(masks))]
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
                yield seq
            elif _can_fill(rest, tails[j], guards, left):
                kids.append((seq, rest, j))
        stack.extend(reversed(kids))


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


def _path(groups: Mapping[Hashable, Iterable[Hashable]], a: Hashable,
          b: Hashable) -> Optional[list]:
    """A shortest path from a to b, or None, in the graph on the keys of
    groups where two items are adjacent when they share a group.

    Breadth first, and each group is opened once: a frontier item takes the
    items it reaches first in sorted order, so every node's parent is the
    first frontier item next to it.  The search stops once b has a parent."""
    members: dict[Hashable, list] = {}
    for x, keys in groups.items():
        for g in keys:
            members.setdefault(g, []).append(x)
    parent = {a: a}
    frontier = [a]
    while b not in parent:
        if not frontier:
            return None
        nxt = []
        for x in frontier:
            reached = sorted({y for g in groups.get(x, ())
                              for y in members.pop(g, ()) if y not in parent})
            parent.update((y, x) for y in reached)
            if b in parent:
                break
            nxt += reached
        frontier = nxt
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path[::-1]


def _joined(blocks: Iterable[Iterable[Hashable]], a: Hashable,
            b: Hashable) -> bool:
    """Do the blocks join a and b?  Each block merges its entries' classes;
    True once the merged class holds both, so no later block is read."""
    if a == b:
        return True
    cls: dict[Hashable, set] = {}
    for block in blocks:
        merged = set().union(*(cls.get(x, (x,)) for x in block))
        if a in merged and b in merged:
            return True
        cls.update(dict.fromkeys(merged, merged))
    return False


def _one_swap(full: int, guards: int, drops: Seq[int],
              adds: Iterable[int]) -> bool:
    """Does a node alpha - {alpha_i} + {beta_j} fit in full?  _in_fiber's
    test on packed sums: drops holds f_alpha less each distinct f_alpha_i,
    adds the distinct f_beta_j."""
    for g in adds:
        rest = full - g
        for d in drops:
            if (rest - d) & guards == guards:
                return True
    return False


def member_lower(ideal: SquareFreeIdeal, b: ReesBinomial, k: int,
                 cap: Optional[int] = None) -> Verdict:
    """Does the layer-s pair of b rewrite into one another modulo all
    relation layers of degree at most k?  Exact yes/no on the lcm fiber.

    b's rows are checked first.  cap only refuses, with ValueError, a value
    below the degree of the start monomial: no search is cut off by degree."""
    check_rows(ideal, b.alpha, b.beta)
    if k < 1:
        raise ValueError("layer bound k must be at least 1")
    if cap is not None:
        du = weighted_degree(ideal, b.terms()[0])
        if cap < du:
            raise ValueError(
                f"cap {cap} below the degree {du} of the start monomial")

    if multiset_distance(b.alpha, b.beta) <= k:
        return Verdict("yes", "single move", b, k, (b.alpha, b.beta))

    universe = list(_fiber(_capacity(ideal, b.alpha, b.beta)))
    note = f"fiber universe {len(universe)} nodes"
    t = b.degree - k
    path = _path({delta: set(combinations(delta, t)) for delta in universe},
                 b.alpha, b.beta)
    if path is None:
        return Verdict("no", note, b, k)
    return Verdict("yes", note, b, k, tuple(path))


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
    layer containing a pair that does not reduce (with a witness binomial,
    the first such pair in taylor_layer order).  A pair whose rows share an
    index is a single move modulo layer s - 1, so it reduces and is only
    counted.  Modulo layer s - 1 two fiber nodes are adjacent exactly when
    they share an index, and alpha and beta are nodes, so a pair with
    disjoint rows reduces exactly when its lcm fiber's nodes, as blocks,
    join alpha[0] and beta[0].  A node alpha - {alpha_i} + {beta_j} shares
    s - 1 >= 1 indices with alpha and beta_j with beta, so one that fits
    joins them; only when none fits is the fiber drawn, until the join.
    Every verdict is exact, so all layers through s_max are verified.
    """
    if s_max < 1:
        raise ValueError(f"s_max must be at least 1, got {s_max}")
    n = ideal.n
    tallies: dict[int, tuple[int, int]] = {}
    certified_lower = 1
    witness: Optional[ReesBinomial] = None
    for s in range(2, s_max + 1):
        w = s.bit_length() + 1
        gen, _, _, guards = ideal.layout(w)
        no = 0
        first_no: Optional[ReesBinomial] = None
        for alpha in enumerate_sequences(n, s):
            fa = sum(map(gen.__getitem__, alpha))  # f_alpha, packed
            drops = [fa - gen[i] for i in set(alpha)]
            # beta > alpha with rows disjoint from alpha's: beta[0] > alpha[0]
            rest = [a for a in range(alpha[0] + 1, n + 1) if a not in alpha]
            for beta in combinations_with_replacement(rest, s):
                full = _lcm(fa, sum(map(gen.__getitem__, beta)), w, guards)
                if _one_swap(full, guards, drops, {gen[j] for j in beta}):
                    continue
                if not _joined(_fiber((s, full, guards, gen)),
                               alpha[0], beta[0]):
                    no += 1
                    if first_no is None:
                        first_no = taylor_binomial(ideal, alpha, beta)
        tallies[s] = (comb(comb(n + s - 1, s), 2) - no, no)
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
    (M/f_k) T_k to (M/f_l) T_l exactly when lcm(f_k, f_l) divides M, that
    is, when f_k | M and f_l | M: when _in_fiber admits (k,) and (l,) on
    the pair's _capacity.  T_{i,j} is dropped when such moves join i to j
    (_joined)."""
    kept = list(taylor_layer(ideal, 1))
    for b in list(kept):
        capacity = _capacity(ideal, b.alpha, b.beta)
        moves = (x.alpha + x.beta for x in kept if x is not b
                 and _in_fiber(capacity, x.alpha)
                 and _in_fiber(capacity, x.beta))
        if _joined(moves, b.alpha[0], b.beta[0]):
            kept.remove(b)
    return kept
