import inspect
import itertools
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from reeskit import oracle, reduction
from reeskit.demos import (
    family_corrected_g,
    family_f_binomial,
    family_ideal,
    path_ideal,
    pentagon_ideal,
    random_ideal,
    random_shape_ideal,
    triangle_ideal,
    villarreal_ideal,
)
from reeskit.oracle import (
    default_s_max,
    fiber_witness,
    member_lower,
    minimal_linear_generators,
    relation_type_estimate,
)
from reeskit.monomials import (
    Monomial,
    make_ideal,
    mono_divides,
    mono_mul,
    mono_product,
)
from reeskit.reduction import fiber_certificate, verify_certificate
from reeskit.taylor import (
    ReesBinomial,
    RTMonomial,
    enumerate_sequences,
    multiset_distance,
    product_of,
    seq_remove,
    taylor_binomial,
    taylor_layer,
    weighted_degree,
)


def div_exact(a, b):
    """a / b, exponent by exponent; b must divide a."""
    q = a.as_dict()
    for v, e in b.exps:
        q[v] = q.get(v, 0) - e
    if min(q.values(), default=0) < 0:
        raise ValueError(f"inexact division: {a!r} / {b!r}")
    return Monomial.from_dict(q)


def mono_lcm(a, b):
    """lcm(a, b), exponent by exponent."""
    ea, eb = a.as_dict(), b.as_dict()
    return Monomial.from_dict({v: max(ea.get(v, 0), eb.get(v, 0))
                               for v in ea.keys() | eb.keys()})


def seq_union(a, b):
    """The multiset union of two index sequences, sorted."""
    return tuple(sorted(a + b))


def layer_rules(ideal, s):
    """Each binomial of layer s as a two-sided rule (left, right)."""
    return [b.terms() for b in taylor_layer(ideal, s)]


def apply_step(w, step):
    """Rewrite the monomial w by step = (rule, forward): the rule side
    (left when forward) must divide w and is replaced by the other side."""
    (left, right), forward = step
    src, dst = (left, right) if forward else (right, left)
    if Counter(src.tpart) - Counter(w.tpart) or \
            not mono_divides(src.coef, w.coef):
        raise ValueError("rewrite step does not apply")
    return RTMonomial(
        mono_mul(div_exact(w.coef, src.coef), dst.coef),
        seq_union(seq_remove(w.tpart, src.tpart), dst.tpart))


def replay_chain(u, chain):
    for step in chain:
        u = apply_step(u, step)
    return u


def certifies(ideal, b, verdict):
    """Does the yes verdict's fiber path for b replay as an exact
    certificate?"""
    cert = fiber_certificate(ideal, b, verdict.path)
    return verify_certificate(ideal, cert)


def reference_chain(rules, u, v):
    """Reference decision: breadth-first search over whole-monomial
    rewrites by the rules in both directions.  There is no degree cap;
    Taylor rules keep the substituted monomial, so the search is finite.
    Returns a chain from u to v, or None when v is unreachable."""
    parent = {u: None}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            if w == v:
                chain = []
                while parent[w] is not None:
                    w, step = parent[w]
                    chain.append(step)
                return tuple(reversed(chain))
            for rule in rules:
                for forward in (True, False):
                    step = (rule, forward)
                    try:
                        res = apply_step(w, step)
                    except ValueError:
                        continue
                    if res not in parent:
                        parent[res] = (w, step)
                        nxt.append(res)
        frontier = nxt
    return None


def filter_layer(seqs, prods, big):
    """Reference fiber: the layer's sequences delta, in the order given,
    whose product f_delta divides big."""
    return [delta for delta, f in zip(seqs, prods) if mono_divides(f, big)]


def f_of(ideal, seq):
    """f_seq by the Monomial formulas, independent of the support table."""
    return mono_product(ideal.generator(a) for a in seq)


def layer_products(ideal, s):
    seqs = list(enumerate_sequences(ideal.n, s))
    return seqs, [f_of(ideal, delta) for delta in seqs]


def reference_decision(ideal, b, k, seqs, prods):
    """Reference membership: breadth-first search on the filtered fiber,
    joining nodes at multiset distance at most k."""
    big = mono_lcm(f_of(ideal, b.alpha), f_of(ideal, b.beta))
    fiber = filter_layer(seqs, prods, big)
    seen = {b.alpha}
    frontier = [b.alpha]
    while frontier:
        nxt = []
        for node in frontier:
            for other in fiber:
                if other not in seen and multiset_distance(node, other) <= k:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return "yes" if b.beta in seen else "no"


def reference_relation_type(ideal, s_max):
    """The whole-layer sweep: every pair of taylor_layer asked of
    member_lower modulo the layers below it."""
    tallies, lower, witness = {}, 1, None
    for s in range(2, s_max + 1):
        verdicts = [(b, member_lower(ideal, b, s - 1).is_yes)
                    for b in taylor_layer(ideal, s)]
        new = [b for b, yes in verdicts if not yes]
        tallies[s] = (len(verdicts) - len(new), len(new))
        if new:
            lower, witness = s, new[0]
    return oracle.RtReport(lower, witness, s_max, tallies)


def reference_minimal_linear(ideal):
    kept = list(taylor_layer(ideal, 1))
    for b in list(kept):
        rules = [x.terms() for x in kept if x is not b]
        if reference_chain(rules, *b.terms()) is not None:
            kept.remove(b)
    return [(b.alpha, b.beta) for b in kept]


class TestCongruence:
    def test_one_step(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1,), (2,))
        verdict = member_lower(V, b, 1)
        assert verdict.is_yes
        assert len(verdict.chain) == 1
        assert certifies(V, b, verdict)

    def test_chain_replays_to_target(self):
        P = pentagon_ideal()
        multi_step = 0
        for b in taylor_layer(P, 3)[:60]:
            verdict = member_lower(P, b, 2)
            if verdict.is_yes:
                assert certifies(P, b, verdict)
                multi_step += len(verdict.chain) > 1
        assert multi_step > 0

    def test_not_congruent_without_the_needed_rule(self):
        V = villarreal_ideal()
        # the layer-2 cycle pair is not reachable from linear rules alone
        b = taylor_binomial(V, (1, 3), (2, 4))
        u, v = b.terms()
        assert member_lower(V, b, 1).is_no
        assert reference_chain(layer_rules(V, 1), u, v) is None
        chain = reference_chain(layer_rules(V, 1) + layer_rules(V, 2), u, v)
        assert chain is not None
        assert replay_chain(u, chain) == v

    def test_cap_below_start_degree_rejected(self):
        # the cap is only validated: no fiber search is cut off by degree
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 3), (2, 4))
        with pytest.raises(ValueError):
            member_lower(V, b, 1, cap=0)
        tight = weighted_degree(V, b.terms()[0])
        assert member_lower(V, b, 1, cap=tight) == member_lower(V, b, 1)

    def test_apply_step_forward_and_back(self):
        # the reference search's own rewrite step
        V = villarreal_ideal()
        b = taylor_binomial(V, (1,), (2,))
        rule = b.terms()
        u, v = rule
        assert apply_step(u, (rule, True)) == v
        assert apply_step(v, (rule, False)) == u
        with pytest.raises(ValueError):
            apply_step(u, (rule, False))


class TestMemberLower:
    def test_layer_bound_below_1_is_refused(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 3), (2, 4))
        with pytest.raises(ValueError, match="layer bound k must be at least 1"):
            member_lower(V, b, 0)

    @pytest.mark.parametrize("k", [True, 1.5, 2.0])
    def test_layer_bound_that_is_not_an_int_is_refused(self, k):
        # True would be answered as k = 1, 1.5 would reach combinations()
        b = taylor_binomial(pentagon_ideal(), (1, 1, 4), (2, 3, 5))
        with pytest.raises(ValueError, match="layer bound k must be an int"):
            member_lower(pentagon_ideal(), b, k)

    @pytest.mark.parametrize("cap", [True, 100.0, 4.5])
    def test_cap_that_is_not_an_int_is_refused(self, cap):
        b = taylor_binomial(pentagon_ideal(), (1, 1, 4), (2, 3, 5))
        with pytest.raises(ValueError, match="cap must be an int"):
            member_lower(pentagon_ideal(), b, 2, cap)

    def test_villarreal_quadratic_is_new(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 3), (2, 4))
        verdict = member_lower(V, b, 1)
        assert verdict.is_no

    def test_villarreal_reducible_pair(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 2), (1, 4))
        verdict = member_lower(V, b, 1)
        assert verdict.is_yes

    def test_yes_chain_replays(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 2), (3, 4))
        verdict = member_lower(V, b, 1)
        assert verdict.is_yes
        assert certifies(V, b, verdict)

    def test_pentagon_triple_is_new_mod_quadratics(self):
        P = pentagon_ideal()
        b = taylor_binomial(P, (1, 1, 4), (2, 3, 5))
        verdict = member_lower(P, b, 2)
        assert verdict.is_no

    def test_family_f_is_new(self):
        I5 = family_ideal(5)
        F = family_f_binomial(5)
        verdict = member_lower(I5, F, 2 * 5 - 8)
        assert verdict.is_no

    @pytest.mark.parametrize("cap", [None, 0])
    @pytest.mark.parametrize("alpha, beta, message", [
        ((0, 1), (2, 3), "index 0 outside 1..4"),
        ((2, 1), (3, 4), r"sequence \(2, 1\) is not non-decreasing"),
        ((1, 5), (2, 3), "index 5 outside 1..4"),
    ], ids=["index 0", "unsorted row", "index n+1"])
    def test_checks_the_rows_it_is_given(self, alpha, beta, message, cap):
        # a ReesBinomial built directly: unchecked, index 0 would read f_4,
        # (2, 1) would be decided as another pair and 5 would not exist
        V = villarreal_ideal()
        b = ReesBinomial(alpha, beta, V.generator(3), V.generator(1))
        with pytest.raises(ValueError, match=message):
            member_lower(V, b, 1, cap)

    def test_agrees_with_direct_congruence_search(self):
        # the fiber structure argument must match a plain BFS over rules
        rng = random.Random(91)
        for _ in range(25):
            I = random_ideal(rng, rng.randint(3, 4), 6)
            layer = taylor_layer(I, 2)
            b = rng.choice(layer)
            fiber = member_lower(I, b, 1)
            u, v = b.terms()
            direct = reference_chain(layer_rules(I, 1), u, v)
            assert fiber.is_yes == (direct is not None), (b.alpha, b.beta)
            assert fiber.is_yes != fiber.is_no
            assert not fiber.is_unknown


# ideals with n <= 5 for the node predicate, compared on layers 2..4
PREDICATE_IDEALS = {
    "villarreal": villarreal_ideal(),
    "pentagon": pentagon_ideal(),
    "triangle": triangle_ideal(),
    "path4": path_ideal(4),
    **{f"random{k}": random_ideal(random.Random(k), 5, 8)
       for k in range(0, 30, 6)},
    **{shape: random_shape_ideal(shape, 5, seed=1)
       for shape in ("forest", "odd-cycle", "even-cycle")},
    # the packed layout gives every table variable a field, also one off
    # supp(M) or in no generator at all (x3 and x6 of "unused")
    **{f"{shape}-vars3": random_shape_ideal(shape, 5, extra_vars=3, seed=2)
       for shape in ("forest", "odd-cycle", "even-cycle")},
    "unused": make_ideal([f"x{i}" for i in range(1, 7)],
                         [[0, 1], [1, 3], [3, 4], [0, 4], [1, 4]]),
}


def lcm_divisors(ideal, alpha, beta, nodes):
    """Reference membership: which nodes have f_node | lcm(f_alpha, f_beta),
    by exact division."""
    big = mono_lcm(product_of(ideal, alpha), product_of(ideal, beta))
    return [mono_divides(product_of(ideal, node), big) for node in nodes]


class TestInFiber:
    """oracle._in_fiber, the one node predicate, and the fiber it draws
    from the same capacity, against exact division."""

    @pytest.mark.parametrize("ideal", list(PREDICATE_IDEALS.values()),
                             ids=list(PREDICATE_IDEALS))
    def test_matches_exact_division(self, ideal):
        # every layer-s node against a stride of the layer's pairs
        for s in (2, 3, 4):
            seqs = list(enumerate_sequences(ideal.n, s))
            pairs = list(itertools.combinations(seqs, 2))
            for alpha, beta in pairs[::max(1, len(pairs) // 150)]:
                expected = lcm_divisors(ideal, alpha, beta, seqs)
                capacity = oracle._capacity(ideal, alpha, beta)
                got = [oracle._in_fiber(capacity, node) for node in seqs]
                assert got == expected, (alpha, beta)
                assert list(oracle._fiber(capacity)) == \
                    list(itertools.compress(seqs, expected)), (alpha, beta)

    @pytest.mark.parametrize("s", [3, 4, 7, 8])
    def test_field_boundaries(self, s):
        # s = 3, 7 fill a field's width, s = 4, 8 start a wider one; a
        # generator repeated s times meets its exponent exactly or passes it
        V = villarreal_ideal()
        pairs = [((1,) * s, (3,) * s), ((1,) * s, (2,) * s),
                 ((1,) * (s - 1) + (3,), (4,) * s)]
        for alpha, beta in pairs:
            capacity = oracle._capacity(V, alpha, beta)
            assert oracle._in_fiber(capacity, alpha)
            assert oracle._in_fiber(capacity, beta)
            nodes = list(enumerate_sequences(V.n, s))
            assert [oracle._in_fiber(capacity, node) for node in nodes] == \
                lcm_divisors(V, alpha, beta, nodes), (alpha, beta)
        capacity = oracle._capacity(V, (1,) * (s - 1) + (3,), (4,) * s)
        assert not oracle._in_fiber(capacity, (1,) * s)  # x1 only s - 1 times
        assert oracle._in_fiber(capacity, (4,) * s)

    @pytest.mark.parametrize("node", [(1, 2), (2, 3)])
    def test_a_generator_outside_supp_m_never_fits(self, node):
        # M = f1^2 f3^2: f2 = x2x4x5 reaches outside supp(M)
        V = villarreal_ideal()
        capacity = oracle._capacity(V, (1, 1), (3, 3))
        assert not oracle._in_fiber(capacity, node)
        assert oracle._in_fiber(capacity, (1, 3))


class TestFiber:
    def test_matches_layer_filter_on_random_ideals(self):
        # every 13th pair of layers 2..4 on thirty seeded ideals, 7,191
        # pairs; the layer products are computed once per layer
        checked = 0
        for k in range(30):
            I = random_ideal(random.Random(k), 5, 8)
            for s in (2, 3, 4):
                seqs, prods = layer_products(I, s)
                pairs = [(i, j) for i in range(len(seqs))
                         for j in range(i + 1, len(seqs))]
                for i, j in pairs[k % 13::13]:
                    expected = filter_layer(
                        seqs, prods, mono_lcm(prods[i], prods[j]))
                    fiber = oracle._fiber(
                        oracle._capacity(I, seqs[i], seqs[j]))
                    assert list(fiber) == expected, \
                        (k, seqs[i], seqs[j])
                    checked += 1
        assert checked == 7191

    @pytest.mark.parametrize("ideal", [path_ideal(4), pentagon_ideal()],
                             ids=["path4", "pentagon"])
    def test_matches_layer_filter_on_named_ideals(self, ideal):
        # every pair of layers 2..4: the lcm and the masks come from the
        # support table, the reference from Monomial products
        for s in (2, 3, 4):
            seqs, prods = layer_products(ideal, s)
            for i, j in itertools.combinations(range(len(seqs)), 2):
                expected = filter_layer(seqs, prods, mono_lcm(prods[i], prods[j]))
                fiber = oracle._fiber(
                    oracle._capacity(ideal, seqs[i], seqs[j]))
                assert list(fiber) == expected, \
                    (s, seqs[i], seqs[j])

    def test_matches_layer_filter_on_family(self):
        for n in (5, 6, 7, 8):
            I = family_ideal(n)
            for b in (family_f_binomial(n), family_corrected_g(n)[0]):
                seqs, prods = layer_products(I, b.degree)
                big = mono_lcm(f_of(I, b.alpha), f_of(I, b.beta))
                fiber = list(
                    oracle._fiber(oracle._capacity(I, b.alpha, b.beta)))
                assert fiber == filter_layer(seqs, prods, big)
                assert fiber == [b.alpha, b.beta]

    def test_a_deep_fiber_needs_no_recursion(self):
        # 300 picks deep, under a recursion limit 100 frames above this
        # test: the walk keeps its own stack
        I = make_ideal(["a", "b", "c"], [[0], [1], [2]])
        s = 300
        capacity = oracle._capacity(I, (1,) * s, (2,) * s)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            fiber = list(oracle._fiber(capacity))
        finally:
            sys.setrecursionlimit(limit)
        assert fiber == [(1,) * (s - k) + (2,) * k for k in range(s + 1)]


def sliced_fiber(capacity):
    """_fiber as it was before its suffix lists: the bound on each child
    slices masks[j:] anew."""
    s, full, guards, gen = capacity
    index = [a for a in range(1, len(gen))
             if (full - gen[a]) & guards == guards]
    masks = [gen[a] for a in index]
    stack = [((), full, 0)]
    while stack:
        prefix, free, first = stack.pop()
        left = s - len(prefix) - 1
        kids = []
        for j in range(first, len(masks)):
            rest = free - masks[j]
            if rest & guards != guards:
                continue
            seq = prefix + (index[j],)
            if not left:
                yield seq
            elif left == 1 or oracle._can_fill(rest, masks[j:], guards, left):
                kids.append((seq, rest, j))
        stack.extend(reversed(kids))


class TestSuffixLists:
    """_fiber against sliced_fiber, which slices its suffixes per child and
    skips the bound with one slot left: the same nodes, in the same order."""

    def test_family_fibers_match_the_sliced_search(self):
        for n in range(6, 13):
            I = family_ideal(n)
            for b in (family_f_binomial(n), family_corrected_g(n)[0]):
                capacity = oracle._capacity(I, b.alpha, b.beta)
                assert list(oracle._fiber(capacity)) == \
                    list(sliced_fiber(capacity)), (n, b)

    def test_random_fibers_match_the_sliced_search(self):
        # every pair of layers 3..5 with disjoint rows on five seeded
        # ideals, 6,550 pairs
        checked = 0
        for k in range(5):
            I = random_ideal(random.Random(k), 5, 8)
            for s in (3, 4, 5):
                seqs = list(enumerate_sequences(I.n, s))
                for alpha, beta in itertools.combinations(seqs, 2):
                    if set(alpha) & set(beta):
                        continue
                    capacity = oracle._capacity(I, alpha, beta)
                    assert list(oracle._fiber(capacity)) == \
                        list(sliced_fiber(capacity)), (k, alpha, beta)
                    checked += 1
        assert checked == 6550


class TestUnionFindDecision:
    def test_matches_reference_on_random_ideals(self):
        # every k in 1..s-1 on a stride through layers 2..4
        checked = 0
        for seed in range(10):
            I = random_ideal(random.Random(seed), 5, 8)
            for s in (2, 3, 4):
                seqs, prods = layer_products(I, s)
                for b in taylor_layer(I, s)[seed::71]:
                    for k in range(1, s):
                        expected = reference_decision(I, b, k, seqs, prods)
                        assert member_lower(I, b, k).status == expected, \
                            (seed, b.alpha, b.beta, k)
                        checked += 1
        assert checked == 1223

    def test_matches_reference_on_family(self):
        for n in (5, 6, 7):
            I = family_ideal(n)
            for b in (family_f_binomial(n), family_corrected_g(n)[0]):
                seqs, prods = layer_products(I, b.degree)
                for k in range(1, b.degree):
                    expected = reference_decision(I, b, k, seqs, prods)
                    assert member_lower(I, b, k).status == expected, (n, k)


def reference_joined(groups, a, b):
    """Union-find reference: do a and b end in one class once the members
    of every group are united?"""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for first, *rest in groups:
        for x in rest:
            parent[find(x)] = find(first)
    return find(a) == find(b)


def reference_fiber_joined(universe, alpha, beta, k):
    t = len(alpha) - k
    groups = (set(itertools.combinations(delta, t)) for delta in universe)
    return reference_joined(groups, alpha[:t], beta[:t])


def reference_bfs_path(universe, start, goal, k):
    """Quadratic reference path: each frontier node, in order, takes every
    unvisited node of universe within multiset distance k."""
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
    return tuple(path[::-1])


class TestPathSearch:
    def test_shortest_path_or_none(self):
        groups = {1: "ab", 2: "bc", 3: "cd", 4: "ad", 5: "e", 6: "e"}
        assert oracle._path(groups, 1, 3) == [1, 2, 3]
        assert oracle._path(groups, 2, 4) == [2, 1, 4]  # the sorted first
        assert oracle._path(groups, 1, 1) == [1]
        assert oracle._path(groups, 1, 6) is None
        assert oracle._path(groups, 1, 7) is None  # an item with no group

    def check(self, I, b, k):
        universe = list(oracle._fiber(oracle._capacity(I, b.alpha, b.beta)))
        verdict = member_lower(I, b, k)
        joined = reference_fiber_joined(universe, b.alpha, b.beta, k)
        assert verdict.is_yes == joined, (b.alpha, b.beta, k)
        expected = reference_bfs_path(universe, b.alpha, b.beta, k) \
            if joined else ()
        assert verdict.path == expected, (b.alpha, b.beta, k)
        return len(expected)

    def test_matches_union_find_and_quadratic_bfs_on_random_ideals(self):
        # every k < s that needs the fiber, on a stride through layers 2..4
        tally = Counter()
        for seed in range(12):
            I = random_ideal(random.Random(seed), 5, 8)
            for s in (2, 3, 4):
                for b in taylor_layer(I, s)[seed::29]:
                    for k in range(1, multiset_distance(b.alpha, b.beta)):
                        tally[self.check(I, b, k)] += 1
        # no, two-node and longer paths all occur
        assert tally[0] and tally[3] and tally[4], tally

    def test_matches_union_find_and_quadratic_bfs_on_family(self):
        for n in (5, 6, 7):
            I = family_ideal(n)
            for b in (family_f_binomial(n), family_corrected_g(n)[0]):
                for k in range(1, multiset_distance(b.alpha, b.beta)):
                    self.check(I, b, k)


class TestLazyChain:
    CASES = (  # (alpha, beta, k, status, note, chain length)
        ((1,), (2,), 1, "yes", "single move", 1),
        ((1, 2), (1, 4), 1, "yes", "single move", 1),
        ((1, 2), (3, 4), 1, "yes", "fiber universe 4 nodes", 2),
        ((1, 3), (2, 4), 1, "no", "fiber universe 2 nodes", 0),
    )

    @pytest.mark.parametrize("alpha,beta,k,status,note,steps", CASES)
    def test_status_note_and_chain(self, alpha, beta, k, status, note,
                                   steps):
        V = villarreal_ideal()
        b = taylor_binomial(V, alpha, beta)
        verdict = member_lower(V, b, k)
        assert (verdict.status, verdict.note) == (status, note)
        assert verdict == member_lower(V, b, k)
        assert len(verdict.chain) == steps
        assert verdict == member_lower(V, b, k)  # reading chain keeps ==
        if verdict.is_yes:
            assert certifies(V, b, verdict)

    def test_verdicts_with_different_answers_differ(self):
        V = villarreal_ideal()
        yes = member_lower(V, taylor_binomial(V, (1, 2), (3, 4)), 1)
        no = member_lower(V, taylor_binomial(V, (1, 3), (2, 4)), 1)
        assert yes != no

    def test_status_only_callers_build_no_chain(self, monkeypatch):
        calls = []
        original = reduction.fiber_certificate

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(reduction, "fiber_certificate", counting)
        P = pentagon_ideal()
        report = relation_type_estimate(P, 3)
        assert report.certified_lower == 3
        b = taylor_binomial(P, (1, 2, 3), (1, 4, 5))
        assert member_lower(P, b, 2).is_yes
        assert fiber_witness(family_ideal(5), family_corrected_g(5)[0])
        # a pair a rule reduces and a stuck pair build none either
        V = villarreal_ideal()
        assert reduction.reduce_to_normal(V, (1, 2), (1, 4)).status == \
            "reduced"
        assert reduction.reduce_to_normal(V, (1, 3), (2, 4)).status == \
            "stuck"
        assert calls == []
        # only a top pair that the oracle alone reduces needs its path
        I = random_ideal(random.Random(1063), 5, 8)
        out = reduction.reduce_to_normal(I, (2, 5), (3, 4))
        assert out.chain[0].rule_name == "fiber_path"
        assert len(calls) == 1

    def test_one_fiber_per_call(self, monkeypatch):
        calls = []
        original = oracle._fiber

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "_fiber", counting)
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 2), (3, 4))
        verdict = member_lower(V, b, 1)
        assert verdict.is_yes and verdict.note != "single move"
        assert len(verdict.path) == 3
        assert certifies(V, b, verdict)
        assert len(calls) == 1


class TestRelationTypeEstimate:
    def test_villarreal(self):
        V = villarreal_ideal()
        report = relation_type_estimate(V, 3)
        assert report.certified_lower == 2
        assert report.witness is not None
        assert (report.witness.alpha, report.witness.beta) == ((1, 3), (2, 4))
        assert report.verified_upper_through == 3
        assert report.layer_tallies[3] == (len(taylor_layer(V, 3)), 0)

    def test_pentagon(self):
        P = pentagon_ideal()
        report = relation_type_estimate(P, 3)
        assert report.certified_lower == 3
        assert report.verified_upper_through == 3

    def test_triangle_is_linear_through_3(self):
        T = triangle_ideal()
        report = relation_type_estimate(T, 3)
        assert report.certified_lower == 1
        assert report.verified_upper_through == 3

    def test_path_is_linear(self):
        P = path_ideal(4)
        report = relation_type_estimate(P, 3)
        assert report.certified_lower == 1
        assert report.verified_upper_through == 3

    def test_layer_tallies_cover_layers(self):
        V = villarreal_ideal()
        report = relation_type_estimate(V, 3)
        assert set(report.layer_tallies) == {2, 3}
        yes, no = report.layer_tallies[2]
        assert no >= 1  # the cycle quadratic
        assert yes + no == len(taylor_layer(V, 2))

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            relation_type_estimate(villarreal_ideal(), 0)

    @pytest.mark.parametrize("s_max", [True, False, 2.5, 1.5, 3.0, "3"])
    def test_refuses_a_bound_that_is_not_an_int(self, s_max):
        # True would sweep no layer and report verified_upper_through=True;
        # a float would reach range() and raise TypeError there
        with pytest.raises(ValueError, match="s_max must be an int"):
            relation_type_estimate(pentagon_ideal(), s_max)

    def test_refuses_a_top_layer_beyond_sys_maxsize(self):
        # comb(n + s_max - 1, s_max) sequences would have to be enumerated
        V = villarreal_ideal()
        with pytest.raises(ValueError, match="s_max 10+ is too large"):
            relation_type_estimate(V, 10**20)
        assert relation_type_estimate(V, 3).verified_upper_through == 3

    def test_top_layer_bound_is_exact(self, monkeypatch):
        # layer 3 of the square holds comb(6, 3) = 20 sequences, layer 4 35
        monkeypatch.setattr(oracle.sys, "maxsize", 20)
        V = villarreal_ideal()
        assert relation_type_estimate(V, 3).verified_upper_through == 3
        with pytest.raises(ValueError, match="more than 20 sequences"):
            relation_type_estimate(V, 4)

    def test_default_s_max(self):
        assert [default_s_max(n) for n in (1, 2, 3, 4, 7, 8, 20)] == \
            [2, 2, 2, 3, 6, 6, 6]

    def test_matches_whole_layer_sweep(self):

        cases = [(villarreal_ideal(), 3), (pentagon_ideal(), 5),
                 (triangle_ideal(), 3), (path_ideal(4), 3),
                 (make_ideal(["a", "b"], [[0, 1]]), 3),
                 (make_ideal(["a", "b", "c"], [[0, 1], [1, 2]]), 3)]
        cases += [(random_ideal(random.Random(k), 5, 8), 4) for k in range(4)]
        for I, s_max in cases:
            assert relation_type_estimate(I, s_max) == \
                reference_relation_type(I, s_max)

    def test_builds_only_the_witness_binomials(self, monkeypatch):
        built = []
        original = oracle.taylor_binomial

        def counting(*args):
            built.append(args)
            return original(*args)

        def no_layer(*args):
            raise AssertionError("taylor_layer called by the sweep")

        monkeypatch.setattr(oracle, "taylor_binomial", counting)
        monkeypatch.setattr(oracle, "taylor_layer", no_layer)
        report = relation_type_estimate(pentagon_ideal(), 4)
        assert report.certified_lower == 3
        assert [len(args[1]) for args in built] == [2, 3]
        assert report.witness == original(*built[-1])

    def test_family7_through_6(self):
        # the answer of the sweep that drew every disjoint pair's fiber
        report = relation_type_estimate(family_ideal(7), 6)
        assert report.layer_tallies == {
            2: (326, 52), 3: (3456, 30), 4: (21935, 10), 5: (106486, 5),
            6: (426425, 1)}
        assert report.certified_lower == report.verified_upper_through == 6
        assert (report.witness.alpha, report.witness.beta) == \
            ((1, 1, 2, 3, 4, 5), (6, 6, 6, 7, 7, 7))


SWAP_IDEALS = [villarreal_ideal(), pentagon_ideal(), triangle_ideal(),
               path_ideal(4), family_ideal(6)]
SWAP_IDEALS += [random_ideal(random.Random(k), 5, 8) for k in range(10)]


def one_swap(ideal, alpha, beta):
    """oracle._one_swap asked as the sweep asks it."""
    w = len(alpha).bit_length() + 1
    gen, _, _, guards = ideal.layout(w)
    fa, fb = sum(gen[i] for i in alpha), sum(gen[j] for j in beta)
    return oracle._one_swap(oracle._ge(fa, fb, guards),
                            {gen[i] << (w - 1) for i in alpha},
                            {gen[j] << (w - 1) for j in beta})


class TestOneSwap:
    def test_matches_exact_division_and_implies_the_join(self):
        fired = missed = 0
        for I in SWAP_IDEALS:
            for s in (2, 3, 4):
                seqs = list(enumerate_sequences(I.n, s))
                for alpha, beta in itertools.combinations(seqs, 2):
                    if set(alpha) & set(beta):
                        continue
                    swaps = {tuple(sorted(seq_remove(alpha, (i,)) + (j,)))
                             for i in alpha for j in beta}
                    expected = any(lcm_divisors(I, alpha, beta, swaps))
                    assert one_swap(I, alpha, beta) == expected, (alpha, beta)
                    fiber = oracle._fiber(oracle._capacity(I, alpha, beta))
                    joined = oracle._joined(fiber, alpha[0], beta[0])
                    assert joined or not expected, (alpha, beta)
                    fired += expected
                    missed += joined and not expected
        # the test fires, and some pairs that reduce still need the fiber
        assert fired > 1000 and missed > 0, (fired, missed)


def edge_ideal(vertices, edges):
    return make_ideal([f"x{v}" for v in range(vertices)],
                      [sorted(e) for e in edges])


K5 = edge_ideal(5, itertools.combinations(range(5), 2))
C8, C10 = (edge_ideal(n, [(v, (v + 1) % n) for v in range(n)])
           for n in (8, 10))


def capacity_lcm(a, b, w, guards):
    ge = ((a | guards) - b) & guards
    sel = ge - (ge >> (w - 1))
    return (a & sel) | (b & ~sel) | guards


def capacity_one_swap(full, guards, drops, adds):
    for g in adds:
        rest = full - g
        for d in drops:
            if (rest - d) & guards == guards:
                return True
    return False


def capacity_sweep(ideal, s_max):
    """The sweep as it was before its row table: f_alpha packed per alpha,
    f_beta per pair, and every swap tested on the pair's whole capacity
    (capacity_lcm, capacity_one_swap)."""
    n = ideal.n
    tallies, lower, witness = {}, 1, None
    for s in range(2, s_max + 1):
        w = s.bit_length() + 1
        gen, _, _, guards = ideal.layout(w)
        no, first_no = 0, None
        for alpha in enumerate_sequences(n, s):
            fa = sum(map(gen.__getitem__, alpha))
            drops = [fa - gen[i] for i in set(alpha)]
            rest = [a for a in range(alpha[0] + 1, n + 1) if a not in alpha]
            for beta in itertools.combinations_with_replacement(rest, s):
                full = capacity_lcm(fa, sum(map(gen.__getitem__, beta)), w,
                                    guards)
                if capacity_one_swap(full, guards, drops,
                                     {gen[j] for j in beta}):
                    continue
                if not oracle._joined(oracle._fiber((s, full, guards, gen)),
                                      alpha[0], beta[0]):
                    no += 1
                    if first_no is None:
                        first_no = taylor_binomial(ideal, alpha, beta)
        pairs = math.comb(math.comb(n + s - 1, s), 2)
        tallies[s] = (pairs - no, no)
        if no:
            lower, witness = s, first_no
    return oracle.RtReport(lower, witness, s_max, tallies)


class TestRowTable:
    def test_sweep_matches_the_capacity_sweep(self):
        cases = [(family_ideal(n), 4) for n in (6, 7, 8)]
        cases += [(C8, 4), (K5, 4), (K5, 5), (C10, 5)]
        cases += [(random_ideal(random.Random(k), 5, 8), 4)
                  for k in range(20)]
        lowers = set()
        for I, s_max in cases:
            report = relation_type_estimate(I, s_max)
            assert report == capacity_sweep(I, s_max), (I.supports, s_max)
            lowers.add(report.certified_lower)
        assert {1, 2, 5} <= lowers, lowers  # linear, K5 and C10 witnesses


def row_sweep(ideal, s_max):
    """The sweep as it was before a generator settled the betas holding
    it: the row table, and every disjoint pair through the per-pair swap
    test (oracle._ge, oracle._one_swap)."""
    n = ideal.n
    tallies, lower, witness = {}, 1, None
    for s in range(2, s_max + 1):
        w = s.bit_length() + 1
        gen, _, _, guards = ideal.layout(w)
        top = [g << (w - 1) for g in gen]
        rows = {seq: (sum(map(gen.__getitem__, seq)), {top[j] for j in seq})
                for seq in enumerate_sequences(n, s)}
        no, first_no = 0, None
        for alpha, (fa, outs) in rows.items():
            rest = [a for a in range(alpha[0] + 1, n + 1) if a not in alpha]
            for beta in itertools.combinations_with_replacement(rest, s):
                fb, ins = rows[beta]
                z = oracle._ge(fa, fb, guards)
                if oracle._one_swap(z, outs, ins):
                    continue
                full = oracle._lcm(fa, fb, w, guards, z)
                if not oracle._joined(oracle._fiber((s, full, guards, gen)),
                                      alpha[0], beta[0]):
                    no += 1
                    if first_no is None:
                        first_no = taylor_binomial(ideal, alpha, beta)
        tallies[s] = (math.comb(len(rows), 2) - no, no)
        if no:
            lower, witness = s, first_no
    return oracle.RtReport(lower, witness, s_max, tallies)


class TestSettledGenerators:
    def test_sweep_matches_the_row_sweep_on_wide_inputs(self):
        cases = [(random_shape_ideal(shape, 8, seed=0), 5)
                 for shape in ("forest", "odd-cycle", "even-cycle")]
        cases += [(random_ideal(random.Random(k), 8, 10), 4)
                  for k in range(3)]
        cases += [(K5, 5), (C10, 5)]
        lowers = set()
        for I, s_max in cases:
            report = relation_type_estimate(I, s_max)
            assert report == row_sweep(I, s_max), (I.supports, s_max)
            lowers.add(report.certified_lower)
        assert len(lowers) > 2, lowers  # linear and nonlinear answers

    @pytest.mark.parametrize("ideal, s_max, tested", [
        (pentagon_ideal(), 4, 246),
        (random_shape_ideal("forest", 10, seed=0), 5, 1_065),
        (C10, 5, 4_506),
    ], ids=["pentagon", "forest10", "C10"])
    def test_pairs_that_reach_the_per_pair_test(self, monkeypatch, ideal,
                                                s_max, tested):
        # a generator that swaps in off supp(f_alpha) settles every beta
        # holding it, so its pairs never reach the per-pair test; every
        # disjoint pair reached it before (615, 453,831 and 453,831)
        calls = []
        original = oracle._ge

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "_ge", counting)
        relation_type_estimate(ideal, s_max)
        assert len(calls) == tested


def path_sweep(ideal, s_max):
    """The sweep as it was before it stopped early: every disjoint pair
    draws its whole fiber and _path searches it, each node grouped by its
    indices."""
    n = ideal.n
    tallies, lower, witness = {}, 1, None
    for s in range(2, s_max + 1):
        no, first_no = 0, None
        for alpha in enumerate_sequences(n, s):
            rest = [a for a in range(alpha[0] + 1, n + 1) if a not in alpha]
            for beta in itertools.combinations_with_replacement(rest, s):
                universe = list(
                    oracle._fiber(oracle._capacity(ideal, alpha, beta)))
                if oracle._path({delta: set(delta) for delta in universe},
                                alpha, beta) is None:
                    no += 1
                    if first_no is None:
                        first_no = taylor_binomial(ideal, alpha, beta)
        tallies[s] = (len(taylor_layer(ideal, s)) - no, no)
        if no:
            lower, witness = s, first_no
    return oracle.RtReport(lower, witness, s_max, tallies)


class TestEarlyStop:
    def test_joined_on_hand_made_blocks(self):
        blocks = [(1, 2), (3, 4), (4, 4), (2, 3)]
        assert oracle._joined([], 5, 5)  # a == b
        assert not oracle._joined(blocks, 1, 5)  # 5 is in no block
        assert not oracle._joined(blocks[:3], 1, 4)
        assert oracle._joined(blocks, 1, 4)  # joined by the last block
        assert oracle._joined(blocks, 3, 4)

    def test_stops_at_the_joining_block(self):
        def blocks():
            yield (1, 2)
            yield (2, 3)
            raise AssertionError("a block after the join was read")

        assert oracle._joined(blocks(), 1, 3)
        assert oracle._joined(blocks(), 2, 2)

    def test_sweep_matches_the_path_sweep(self):
        ideals = [random_ideal(random.Random(k), 5, 8)
                  for k in range(0, 40, 8)]
        ideals += [random_shape_ideal(shape, 5, seed=3)
                   for shape in ("forest", "odd-cycle", "even-cycle")]
        lowers = []
        for I in ideals:
            s_max = default_s_max(I.n)
            report = relation_type_estimate(I, s_max)
            assert report == path_sweep(I, s_max)
            lowers.append(report.certified_lower)
        assert 1 in lowers and max(lowers) > 1, lowers  # yes and no pairs

    def test_draws_fewer_nodes_than_the_fibers_hold(self, monkeypatch):
        original = oracle._fiber
        drawn, held = [], []

        def counting(*args):
            held.append(len(list(original(*args))))
            for delta in original(*args):
                drawn.append(delta)
                yield delta

        monkeypatch.setattr(oracle, "_fiber", counting)
        counts = []
        for _ in range(2):
            drawn.clear()
            held.clear()
            report = relation_type_estimate(pentagon_ideal(), 4)
            assert report.certified_lower == 3
            counts.append((len(drawn), sum(held)))
        assert counts[0] == counts[1] == (38, 61)

    def test_hands_its_packed_capacity_to_the_fiber(self, monkeypatch):
        # the fibers above are drawn, but each from the capacity the swaps
        # were tested on, so no pair is packed a second time
        calls = []
        original = oracle._capacity

        def counting(*args):
            calls.append(args)
            return original(*args)

        lcms = []
        original_lcm = oracle._lcm

        def counting_lcm(*args):
            lcms.append(args)
            return original_lcm(*args)

        monkeypatch.setattr(oracle, "_capacity", counting)
        monkeypatch.setattr(oracle, "_lcm", counting_lcm)
        report = relation_type_estimate(pentagon_ideal(), 4)
        assert report.certified_lower == 3
        assert calls == []
        # the swaps are tested on guard bits: a capacity is built only for
        # the 16 pairs that no swap settles, one per fiber drawn
        assert len(lcms) == 16


class TestFiberWitness:
    def test_family_g(self):
        for n in (5, 6):
            I = family_ideal(n)
            G, _ = family_corrected_g(n)
            assert fiber_witness(I, G)

    def test_unit_coefficients_never_witness(self):
        I5 = family_ideal(5)
        F = family_f_binomial(5)  # unit coefficients on both sides
        assert not fiber_witness(I5, F)

    def test_reducible_non_unit_pair_not_witness(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 2), (1, 4))  # reduces modulo layer 1
        assert not fiber_witness(V, b)

    def test_linear_pair_with_a_non_unit_coefficient_witnesses(self):
        # degree 1: there is no lower layer to reduce modulo
        V = villarreal_ideal()
        assert fiber_witness(V, taylor_binomial(V, (1,), (2,)))


class TestMinimalLinearGenerators:
    def test_villarreal_keeps_cycle_edges(self):
        V = villarreal_ideal()
        kept = minimal_linear_generators(V)
        pairs = {(b.alpha, b.beta) for b in kept}
        assert pairs == {((1,), (2,)), ((1,), (4,)), ((2,), (3,)),
                         ((3,), (4,))}

    def test_disjoint_generators_all_kept(self):
        # pairwise coprime generators admit no reductions at all

        I = make_ideal(["a", "b", "c", "d"], [[0], [1], [2], [3]])
        kept = minimal_linear_generators(I)
        assert len(kept) == len(taylor_layer(I, 1)) == 6

    def test_matches_reference_rewrite_search(self):
        named = [villarreal_ideal(), pentagon_ideal(), triangle_ideal(),
                 path_ideal(4), family_ideal(5)]
        rng = random.Random(17)
        seeded = [random_ideal(rng, rng.randint(3, 5), 7) for _ in range(40)]
        dropped = 0
        for I in named + seeded:
            kept = [(b.alpha, b.beta) for b in minimal_linear_generators(I)]
            assert kept == reference_minimal_linear(I)
            dropped += len(taylor_layer(I, 1)) - len(kept)
        assert dropped > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_member_lower_yes_chains_always_replay(seed):
    rng = random.Random(seed)
    I = random_ideal(rng, rng.randint(3, 5), 7)
    layer = taylor_layer(I, 2)
    b = rng.choice(layer)
    verdict = member_lower(I, b, 1)
    if verdict.is_yes:
        assert certifies(I, b, verdict)
