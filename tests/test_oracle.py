import random

import pytest
from hypothesis import given, settings, strategies as st

from reeskit import oracle
from reeskit.demos import (
    family_corrected_g,
    family_f_binomial,
    family_ideal,
    path_ideal,
    pentagon_ideal,
    random_ideal,
    triangle_ideal,
    villarreal_ideal,
)
from reeskit.oracle import (
    ChainStep,
    RewriteRule,
    apply_step,
    default_s_max,
    fiber_witness,
    member_lower,
    minimal_linear_generators,
    relation_type_estimate,
    replay_chain,
)
from reeskit.monomials import mono_divides, mono_lcm
from reeskit.taylor import (
    enumerate_sequences,
    multiset_distance,
    product_of,
    taylor_binomial,
    taylor_layer,
    weighted_degree,
)


def layer_rules(ideal, s):
    return [RewriteRule.from_binomial(b) for b in taylor_layer(ideal, s)]


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
                    step = ChainStep(rule, forward)
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


def layer_products(ideal, s):
    seqs = list(enumerate_sequences(ideal.n, s))
    return seqs, [product_of(ideal, delta) for delta in seqs]


def reference_decision(ideal, b, k, seqs, prods):
    """Reference membership: breadth-first search on the filtered fiber,
    joining nodes at multiset distance at most k."""
    big = mono_lcm(product_of(ideal, b.alpha), product_of(ideal, b.beta))
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


def reference_minimal_linear(ideal):
    kept = list(taylor_layer(ideal, 1))
    for b in list(kept):
        rules = [RewriteRule.from_binomial(x) for x in kept if x is not b]
        if reference_chain(rules, *b.terms()) is not None:
            kept.remove(b)
    return [(b.alpha, b.beta) for b in kept]


class TestCongruence:
    def test_one_step(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1,), (2,))
        u, v = b.terms()
        verdict = member_lower(V, b, 1)
        assert verdict.is_yes
        assert len(verdict.chain) == 1
        assert replay_chain(u, verdict.chain) == v

    def test_chain_replays_to_target(self):
        P = pentagon_ideal()
        multi_step = 0
        for b in taylor_layer(P, 3)[:60]:
            verdict = member_lower(P, b, 2)
            if verdict.is_yes:
                u, v = b.terms()
                assert replay_chain(u, verdict.chain) == v
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
        V = villarreal_ideal()
        b = taylor_binomial(V, (1,), (2,))
        rule = RewriteRule.from_binomial(b)
        u, v = b.terms()
        assert apply_step(u, ChainStep(rule, True)) == v
        assert apply_step(v, ChainStep(rule, False)) == u


class TestMemberLower:
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
        u, v = b.terms()
        assert replay_chain(u, verdict.chain) == v

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
                    assert oracle._fiber(I, seqs[i], seqs[j]) == expected, \
                        (k, seqs[i], seqs[j])
                    checked += 1
        assert checked == 7191

    def test_matches_layer_filter_on_family(self):
        for n in (5, 6, 7, 8):
            I = family_ideal(n)
            for b in (family_f_binomial(n), family_corrected_g(n)[0]):
                seqs, prods = layer_products(I, b.degree)
                big = mono_lcm(product_of(I, b.alpha), product_of(I, b.beta))
                fiber = oracle._fiber(I, b.alpha, b.beta)
                assert fiber == filter_layer(seqs, prods, big)
                assert fiber == [b.alpha, b.beta]


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
            u, v = b.terms()
            assert replay_chain(u, verdict.chain) == v

    def test_verdicts_with_different_answers_differ(self):
        V = villarreal_ideal()
        yes = member_lower(V, taylor_binomial(V, (1, 2), (3, 4)), 1)
        no = member_lower(V, taylor_binomial(V, (1, 3), (2, 4)), 1)
        assert yes != no

    def test_status_only_callers_build_no_chain(self, monkeypatch):
        calls = []
        original = oracle.taylor_binomial

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "taylor_binomial", counting)
        P = pentagon_ideal()
        report = relation_type_estimate(P, 3)
        assert report.certified_lower == 3
        assert calls == []
        b = taylor_binomial(P, (1, 2, 3), (1, 4, 5))
        verdict = member_lower(P, b, 2)
        assert verdict.is_yes and calls == []
        u, v = b.terms()
        assert replay_chain(u, verdict.chain) == v
        assert len(calls) == len(verdict.chain) > 0

    def test_path_is_searched_only_when_read(self, monkeypatch):
        calls = []
        original = oracle._bfs_path

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "_bfs_path", counting)
        assert relation_type_estimate(pentagon_ideal(), 3).certified_lower == 3
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 2), (3, 4))
        verdict = member_lower(V, b, 1)
        assert verdict.is_yes and verdict.note != "single move"
        assert calls == []
        u, v = b.terms()
        assert replay_chain(u, verdict.chain) == v
        assert len(calls) == 1
        verdict.chain, verdict.path  # both cached after the first read
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

    def test_default_s_max(self):
        assert [default_s_max(n) for n in (1, 2, 3, 4, 7, 8, 20)] == \
            [2, 2, 2, 3, 6, 6, 6]


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


class TestMinimalLinearGenerators:
    def test_villarreal_keeps_cycle_edges(self):
        V = villarreal_ideal()
        kept = minimal_linear_generators(V)
        pairs = {(b.alpha, b.beta) for b in kept}
        assert pairs == {((1,), (2,)), ((1,), (4,)), ((2,), (3,)),
                         ((3,), (4,))}

    def test_disjoint_generators_all_kept(self):
        # pairwise coprime generators admit no reductions at all
        from reeskit.monomials import make_ideal

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
        u, v = b.terms()
        assert replay_chain(u, verdict.chain) == v
