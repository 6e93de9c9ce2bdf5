"""Exact membership oracle for Taylor relations modulo lower layers.

A rewrite step replaces a whole-monomial occurrence of one term of a Taylor
binomial inside a monomial by the other term.  For pure binomial ideals the
difference of two monomials lies in the ideal of a set of binomials exactly
when a chain of such steps connects them.  Every rewrite keeps the
substituted monomial M t^s, M = lcm(f_alpha, f_beta), so every monomial
reachable from (f_beta/g) T_alpha is (M / f_delta) T_delta for a node delta
of the lcm fiber {delta : f_delta | M}: each answer is decided on that finite
set, exactly, with no degree cap.

Map: member_lower decides one pair and returns its fiber path (_path);
relation_type_estimate sweeps whole layers for a yes or a no (_one_swap,
then _joined), growing each layer's packed rows from the layer below, each
row pointing to its generator set's record (_generator_set);
minimal_linear_generators prunes layer 1.  All three read the fiber
through a pair's packed _capacity: _fiber enumerates it and _in_fiber, the
package's one fiber-membership test, decides one node.  _fiber routes to
one of two exact searches: _index_fiber branches on generators in index
order, lazily; _tight_fiber branches on variables, and takes the fibers of
depth s >= _TIGHT_DEPTH whose waste budget (_waste) is at most 1, where the
first grows with s while the fiber stays small.
reduction.fiber_certificate turns a yes path into a Certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import or_
from typing import Hashable, Iterable, Mapping, Optional, Sequence as Seq

from .monomials import SquareFreeIdeal
from .taylor import (
    ReesBinomial,
    Sequence,
    check_bound,
    check_rows,
    check_size,
    multiset_distance,
    taylor_binomial,
    taylor_layer,
    weighted_degree,
)


@dataclass(frozen=True)
class Verdict:
    """member_lower's exact answer for the pair of b modulo layers <= k.  A
    yes carries a shortest fiber path from b.alpha to b.beta ((alpha, beta)
    for a single move), a no the empty path; chain lists the path's steps
    as (delta, delta') pairs."""

    status: str  # "yes" | "no"
    note: str = ""
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
    rows unchecked, in ideal.layout at width s.bit_length() + 1, the
    narrowest whose guard exceeds s; any wider width serves as well, as
    relation_type_estimate's one width for all its layers does: full holds
    each exponent of M (0 off supp(M)) under its guard bit (_lcm).  A field
    starts at guard + e, guard > s >= e, so up to s subtractions borrow
    across no field, and a guard bit stays set exactly while the picks fit.
    Every generator is square-free, so picking index a subtracts gen[a], a
    unit in each field of supp(f_a)."""
    s = len(alpha)
    w = s.bit_length() + 1
    gen, _, _, guards = ideal.layout(w)
    a = sum(map(gen.__getitem__, alpha))
    b = sum(map(gen.__getitem__, beta))
    return s, _lcm(a, b, w, guards, _ge(a, b, guards)), guards, gen


def _ge(a: int, b: int, guards: int) -> int:
    """The guard bits of the fields where packed mask sums A >= B: those
    keep their guard bit in a | guards - b."""
    return ((a | guards) - b) & guards


def _lcm(a: int, b: int, w: int, guards: int, ge: int) -> int:
    """Guarded capacity of lcm(A, B) from packed mask sums a, b at width w
    and ge = _ge(a, b, guards), which, less its units, selects a's fields."""
    sel = ge - (ge >> (w - 1))
    return (a & sel) | (b & ~sel) | guards


def _in_fiber(capacity: tuple, node: Seq[int]) -> bool:
    """Does f_node divide M?  The package's one fiber-membership test, for
    a pair's _capacity.  node, in any order, must already be a length-s
    sequence over 1..n, as check_sequence and check_rows make sure at every
    caller; a generator reaching outside supp(M) borrows a guard bit."""
    _, free, guards, gen = capacity
    return (free - sum(map(gen.__getitem__, node))) & guards == guards


def _fiber(capacity: tuple) -> Iterable[Sequence]:
    """{delta : f_delta | M} in lex order for a pair's _capacity (s, full,
    guards, gen), never by filtering the whole layer.  Generators reaching
    outside supp(M) never fit, so index holds those that fit in M once, and
    both searches pick only from it.  A fiber with waste budget _waste <= 1
    and depth s >= _TIGHT_DEPTH is drawn whole by _tight_fiber, any other
    lazily by _index_fiber.  Each search draws exactly the fiber, so the
    switch moves only the time.  On sigma <= 1 fibers (family_ideal's F
    and G, the odd and even edges of an even cycle, and random fibers of
    equal-degree generators) the index-order search about doubles with each
    step of s; the variable search was faster in each group from s = 8 on,
    and at s = 7 slower by about a fifth on the random fibers."""
    s, full, guards, gen = capacity
    index = [a for a in range(1, len(gen))
             if (full - gen[a]) & guards == guards]
    if s >= _TIGHT_DEPTH and _waste(capacity, index) <= 1:
        return _tight_fiber(capacity, index)
    return _index_fiber(capacity, index)


_TIGHT_DEPTH = 8  # the least s at which _fiber draws sigma <= 1 by variables


def _waste(capacity: tuple, index: Seq[int]) -> int:
    """sigma = deg M - s * (least deg f_a, a in index), deg f_a being
    gen[a].bit_count() and deg M the sum of full's fields: no node of the
    fiber leaves more of M unused."""
    s, full, guards, gen = capacity
    w = (guards & -guards).bit_length()
    low = (1 << (w - 1)) - 1
    degree = sum(full >> at & low for at in range(0, guards.bit_length(), w))
    return degree - s * min((gen[a].bit_count() for a in index), default=0)


def _index_fiber(capacity: tuple, index: Seq[int]) -> Iterable[Sequence]:
    """Yield the fiber in lex order, lazily: a depth-first search over
    non-decreasing sequences from index subtracts each pick from the
    capacity still free.  At every depth a child that picks the j-th of
    them is bounded by _can_fill on tails[j], the masks from j on, and cut
    when the picks still possible cannot fill the slots left; the suffix
    lists are built once per fiber, so no child copies a list.  It keeps
    its own stack: the search is s picks deep, and a recursive generator
    exceeds the default recursion limit at s = 1,200.  The tree it walks
    holds every prefix that _can_fill admits, so on a tight fiber it grows
    with s even when the fiber holds two nodes."""
    s, full, guards, gen = capacity
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


def _tight_fiber(capacity: tuple, index: Seq[int]) -> list[Sequence]:
    """The fiber in lex order, drawn by branching on variables: exact cover
    with multiplicities under the fewest-options rule (Knuth, TAOCP 4B,
    7.2.2.1, Algorithm M), for index the generators that fit in M once.

    A state holds the capacity still free, the generators whose count is
    settled, and the slots left.  A generator is live while it is unsettled
    and fits once; a variable is open while a live generator holds it.
    Every later pick takes a live generator: it uses one unit of each open
    variable it holds and none of any other, at least `least` in all.  So
    with room the free capacity on open variables, a state with slack =
    room - slots * least < 0 has no completion, and on each open variable,
    of free exponent c, the picks left take t units with c - slack <= t <=
    min(c, slots); a state where some open c exceeds slots + slack is cut.
    The search takes the open variable held by the fewest live generators,
    gives each of them a count whose total t lies in that range and fits,
    and settles them, which closes the variable.  A node is reached once,
    along its own counts.  Both stacks are explicit: the search closes a
    variable per level and settles a generator per inner step, so s sets
    no depth.  With sigma <= 1 each range is one or two wide."""
    s, full, guards, gen = capacity
    w = (guards & -guards).bit_length()
    low = (1 << (w - 1)) - 1
    masks = [gen[a] for a in index]
    degree = [mask.bit_count() for mask in masks]
    shifts = range(0, guards.bit_length(), w)
    # holders[k]: the generators holding the variable at shifts[k], as bits
    holders = [sum(1 << j for j, mask in enumerate(masks) if mask >> at & 1)
               for at in shifts]
    nodes = []
    stack = [(full, 0, s, ())]
    while stack:
        free, settled, slots, picks = stack.pop()
        if not slots:
            nodes.append(tuple(index[j] for j, x in sorted(picks)
                               for _ in range(x)))
            continue
        live, least = 0, guards.bit_count()  # no degree exceeds it
        for j, mask in enumerate(masks):
            if not settled >> j & 1 and (free - mask) & guards == guards:
                live |= 1 << j
                least = min(least, degree[j])
        room = top = 0  # the capacity on open variables, and its most
        fewest = None
        for at, bits in zip(shifts, holders):
            k = (bits & live).bit_count()
            if k:
                c = free >> at & low
                room += c
                top = max(top, c)
                if fewest is None or k < fewest[0]:
                    fewest = (k, bits & live, c)
        slack = room - slots * least
        if fewest is None or slack < 0 or top - slack > slots:
            continue
        _, on, c = fewest
        lo, hi = c - slack, min(c, slots)
        done = settled | on
        gens = [j for j in range(len(masks)) if on >> j & 1]
        last = len(gens) - 1
        # the counts of gens, one generator per step, totals within [lo, hi]
        counts = [(0, free, 0, picks)]
        while counts:
            i, rest, t, got = counts.pop()
            j = gens[i]
            mask = masks[j]
            x = 0
            while True:
                kid = got + ((j, x),) if x else got
                if i < last:
                    counts.append((i + 1, rest, t + x, kid))
                elif t + x >= lo:
                    stack.append((rest, done, slots - t - x, kid))
                x += 1
                rest -= mask
                if t + x > hi or rest & guards != guards:
                    break
    nodes.sort()
    return nodes


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


def _one_swap(z: int, outs: Iterable[int], ins: Iterable[int]) -> bool:
    """Does a node alpha - {alpha_i} + {beta_j} divide M?  z = _ge(f_alpha,
    f_beta); outs and ins hold the guard masks of the distinct f_alpha_i and
    f_beta_j, and no variable of f_beta_j outside f_alpha_i may be in z."""
    for t in ins:
        need = t & z
        for o in outs:
            if not need & ~o:
                return True
    return False


def member_lower(ideal: SquareFreeIdeal, b: ReesBinomial, k: int,
                 cap: Optional[int] = None) -> Verdict:
    """Does the layer-s pair of b rewrite into one another modulo all
    relation layers of degree at most k?  Exact yes/no on the lcm fiber.

    Under some layer-<=k rule two fiber nodes are one move apart exactly
    when their multiset distance is at most k, that is, when they share a
    sub-multiset of size s - k.  So one breadth-first search (_path), which
    opens each of those sub-multisets once, decides connectivity on the
    fiber and returns a shortest path, which stays small even where the raw
    rule count is astronomical.  b's rows are checked first, then k and
    cap, ints that are not bools: cap only refuses a value below the degree
    of the start monomial."""
    check_rows(ideal, b.alpha, b.beta)
    check_bound("layer bound k", k, 1)
    if cap is not None:
        check_bound("cap", cap, weighted_degree(ideal, b.terms()[0]))

    if multiset_distance(b.alpha, b.beta) <= k:
        return Verdict("yes", "single move", (b.alpha, b.beta))

    universe = list(_fiber(_capacity(ideal, b.alpha, b.beta)))
    note = f"fiber universe {len(universe)} nodes"
    t = b.degree - k
    path = _path({delta: set(combinations(delta, t)) for delta in universe},
                 b.alpha, b.beta)
    if path is None:
        return Verdict("no", note)
    return Verdict("yes", note, tuple(path))


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


def _generator_set(held: int, top: Seq[int]
                   ) -> tuple[int, list[int], list[int]]:
    """(held, outs, rest) for the rows whose distinct generators are the
    bits of held, top[j] being gen[j] on its guard bits.  outs holds their
    guard masks, and rest the generators of the betas after such a row
    alpha that share no index with it: those above alpha[0], the least bit
    of held, and outside held, less each j that settles every beta holding
    it.  A
    swap fits exactly when f_alpha < f_beta on each variable of f_beta_j
    outside f_alpha_i (_one_swap on the guard bits of _ge), as no other
    variable gains; so j settles them when its variables outside some
    f_alpha_i all lie off supp(f_alpha), the union of outs, as f_beta >= 1
    on f_j."""
    n = len(top) - 1
    members = [j for j in range(1, n + 1) if held >> j & 1]
    outs = [top[j] for j in members]
    ua = reduce(or_, outs)
    rest = [j for j in range(members[0] + 1, n + 1) if not held >> j & 1
            and not _one_swap(ua, outs, (top[j],))]
    return held, outs, rest


def relation_type_estimate(ideal: SquareFreeIdeal,
                           s_max: Optional[int] = None) -> RtReport:
    """Test every layer 2..s_max against all strictly lower layers.

    layer_tallies maps each layer to its (reducing, new) pair counts.
    certified_lower starts at the vacuous floor 1 and becomes the largest
    layer containing a pair that does not reduce, with a witness binomial:
    the first such pair in taylor_layer order, the only pair built as a
    binomial.  Every verdict is exact, so all layers through s_max are
    verified.  s_max defaults to default_s_max(n) and passes check_bound
    at 2; its top layer's comb(n + s_max - 1, s_max) sequences and the
    s_max - 1 layers to tally pass check_size before any layer is swept.

    Modulo layer s - 1 two fiber nodes are adjacent exactly when they share
    an index, and alpha and beta are nodes.  So a pair whose rows share an
    index is a single move: it reduces and is only counted.  A pair with
    disjoint rows reduces exactly when its fiber's nodes, as blocks, join
    alpha[0] and beta[0].  A node alpha - {alpha_i} + {beta_j} shares
    s - 1 >= 1 indices with alpha and beta_j with beta, so one that fits
    joins them: _one_swap decides it on the guard bits of _ge.

    Layer s's rows grow from layer s - 1's, in lex order: row seq + (j,),
    j >= seq[-1], packs f_seq + gen[j] at the one width s_max.bit_length()
    + 1, whose guard exceeds s_max >= s (see _capacity), and points to the
    record of its set of distinct generators, built once per set in a
    sweep: the set's guard masks and its betas, less the generators that
    settle every beta holding them (_generator_set).  Only if no swap fits
    is M's capacity built and the fiber drawn, until the join (_joined); a
    no pair draws it whole.
    """
    n = ideal.n
    if s_max is None:
        s_max = default_s_max(n)
    check_bound("s_max", s_max, 2)
    check_size("s_max", s_max, comb(n + s_max - 1, s_max),
               "sequences in its top layer")
    check_size("s_max", s_max, s_max - 1, "layers to tally")
    w = s_max.bit_length() + 1
    gen, _, _, guards = ideal.layout(w)
    top = [g << (w - 1) for g in gen]
    sets: dict[int, tuple[int, list[int], list[int]]] = {}
    rows = {(j,): (gen[j], _generator_set(1 << j, top))
            for j in range(1, n + 1)}
    tallies: dict[int, tuple[int, int]] = {}
    certified_lower = 1
    witness: Optional[ReesBinomial] = None
    for s in range(2, s_max + 1):
        grown = {}
        for seq, (f, record) in rows.items():
            last = seq[-1]
            grown[seq + (last,)] = (f + gen[last], record)
            held = record[0]
            for j in range(last + 1, n + 1):
                bits = held | 1 << j
                if bits not in sets:
                    sets[bits] = _generator_set(bits, top)
                grown[seq + (j,)] = (f + gen[j], sets[bits])
        rows = grown
        no = 0
        first_no: Optional[ReesBinomial] = None
        for alpha, (fa, (_, outs, rest)) in rows.items():
            for beta in combinations_with_replacement(rest, s):
                fb, (_, ins, _) = rows[beta]
                z = _ge(fa, fb, guards)
                if _one_swap(z, outs, ins):
                    continue
                full = _lcm(fa, fb, w, guards, z)
                if not _joined(_fiber((s, full, guards, gen)),
                               alpha[0], beta[0]):
                    no += 1
                    if first_no is None:
                        first_no = taylor_binomial(ideal, alpha, beta)
        tallies[s] = (comb(len(rows), 2) - no, no)
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
