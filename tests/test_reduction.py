import dataclasses
import functools
import random

import pytest

from reeskit.demos import (
    path_ideal,
    pentagon_ideal,
    random_ideal,
    triangle_ideal,
    villarreal_ideal,
)
from reeskit import reduction
from reeskit.monomials import Monomial, make_ideal, mono_mul
from reeskit.reduction import (
    BlockPartition,
    Certificate,
    CertTerm,
    HypothesisFails,
    IrredundancyWitness,
    irredundancy_witness,
    reduce_to_normal,
    rule_block_disjoint,
    rule_constant_row,
    rule_odd_cycle_step,
    rule_power_factor,
    rule_shared_index,
    rule_three_by_two,
    rule_tree_leaf,
    rule_two_by_two,
    split_certificate,
    swap_certificate,
    verify_certificate,
)
from reeskit.oracle import member_lower
from reeskit.taylor import taylor_binomial, taylor_layer


def cycle_ideal(n):
    """Edge ideal of the n-cycle: f_i = x_i x_{i+1 mod n}."""
    supports = [sorted((i, (i + 1) % n)) for i in range(n)]
    return make_ideal([f"x{i + 1}" for i in range(n)], supports)


def as_chain(result):
    if result is None:
        return None
    return result if isinstance(result, list) else [result]


class TestSplitCertificate:
    def test_two_blocks_on_a_path(self):
        P = path_ideal(4)  # f_i = x_i x_{i+1}, i = 1..4
        part = BlockPartition((((2,), (3,)), ((1,), (4,))))
        cert = split_certificate(P, part)
        assert cert.target.alpha == (1, 2)
        assert cert.target.beta == (3, 4)
        assert len(cert.terms) == 2
        assert verify_certificate(P, cert)

    def test_zero_block_skipped(self):
        P = path_ideal(4)
        part = BlockPartition((((1,), (1,)), ((2,), (4,))))
        cert = split_certificate(P, part)
        assert len(cert.terms) == 1
        assert verify_certificate(P, cert)

    def test_hypothesis_failure_carries_block_index(self):
        # the same path pair with the wrong alignment: the shared variable
        # of the full products sits across the blocks, not inside one
        P = path_ideal(4)
        part = BlockPartition((((1,), (3,)), ((2,), (4,))))
        with pytest.raises(HypothesisFails) as err:
            split_certificate(P, part)
        assert err.value.index == 1
        assert "block 1" in str(err.value)

    def test_malformed_partition_rejected(self):
        with pytest.raises(ValueError):
            BlockPartition(())
        with pytest.raises(ValueError):
            BlockPartition((((1, 2), (3,)),))


class TestSharedIndex:
    def test_factors_whole_intersection(self):
        V = villarreal_ideal()
        cert = rule_shared_index(V, (1, 2), (1, 4))
        assert cert is not None
        assert cert.rule_name == "shared_index"
        (term,) = cert.terms
        assert term.tfactor == (1,)
        assert term.sub.alpha == (2,) and term.sub.beta == (4,)
        assert verify_certificate(V, cert)

    def test_multiplicity_aware(self):
        V = villarreal_ideal()
        cert = rule_shared_index(V, (1, 1, 2), (1, 2, 2))
        (term,) = cert.terms
        assert term.tfactor == (1, 2)
        assert term.sub.alpha == (1,) and term.sub.beta == (2,)
        assert verify_certificate(V, cert)

    def test_disjoint_pair_not_applicable(self):
        V = villarreal_ideal()
        assert rule_shared_index(V, (1,), (2,)) is None


class TestPowerFactor:
    def test_square_pair(self):
        V = villarreal_ideal()
        cert = rule_power_factor(V, (3, 3), (4, 4))
        assert cert is not None
        assert cert.rule_name == "power_factor"
        assert len(cert.terms) == 2
        for term in cert.terms:
            assert term.sub.alpha == (3,) and term.sub.beta == (4,)
        assert verify_certificate(V, cert)

    def test_cube_pair(self):
        V = villarreal_ideal()
        cert = rule_power_factor(V, (1, 1, 1), (2, 2, 2))
        assert len(cert.terms) == 3
        assert verify_certificate(V, cert)

    def test_mixed_run_multiplicities(self):
        # gcd of run multiplicities 2: (1,1,2,2) vs (3,3,4,4) factors as
        # squares of the base pair (1,2)|(3,4)
        V = villarreal_ideal()
        cert = rule_power_factor(V, (1, 1, 2, 2), (3, 3, 4, 4))
        assert cert is not None
        assert len(cert.terms) == 2
        for term in cert.terms:
            assert term.sub.alpha == (1, 2) and term.sub.beta == (3, 4)
        assert verify_certificate(V, cert)

    def test_coprime_multiplicities_not_applicable(self):
        V = villarreal_ideal()
        assert rule_power_factor(V, (1, 1, 2), (3, 3, 3)) is None
        assert rule_power_factor(V, (1,), (2,)) is None


class TestConstantRow:
    def test_peels_first_differing_index(self):
        V = villarreal_ideal()
        cert = rule_constant_row(V, (1, 1, 1), (2, 3, 4))
        assert cert is not None
        assert cert.rule_name == "constant_row"
        assert verify_certificate(V, cert)

    def test_constant_row_on_either_side(self):
        V = villarreal_ideal()
        cert = rule_constant_row(V, (1, 2, 3), (4, 4, 4))
        assert cert is not None
        assert verify_certificate(V, cert)

    def test_shared_indices_allowed(self):
        V = villarreal_ideal()
        cert = rule_constant_row(V, (1, 1), (1, 2))
        assert cert is not None
        assert verify_certificate(V, cert)

    def test_no_constant_row(self):
        V = villarreal_ideal()
        assert rule_constant_row(V, (1, 2), (3, 4)) is None


class TestBlockDisjoint:
    def test_path_pair_splits(self):
        P = path_ideal(4)
        cert = rule_block_disjoint(P, (1, 2), (3, 4))
        assert cert is not None
        assert cert.rule_name == "block_disjoint"
        assert verify_certificate(P, cert)

    def test_villarreal_cycle_pair_has_no_split(self):
        # the quadratic generator of the 4-cycle: no aligned block
        # partition satisfies the gcd hypothesis
        V = villarreal_ideal()
        assert rule_block_disjoint(V, (1, 3), (2, 4)) is None

    def test_three_block_fallback(self):
        P = path_ideal(6)  # 6 generators on a path
        cert = rule_block_disjoint(P, (1, 3, 5), (2, 4, 6))
        if cert is not None:
            assert verify_certificate(P, cert)

    def test_shared_index_not_applicable(self):
        V = villarreal_ideal()
        assert rule_block_disjoint(V, (1, 2), (1, 4)) is None


class TestTwoByTwo:
    def test_reduces_to_degree_two(self):
        C = cycle_ideal(8)
        certs = as_chain(rule_two_by_two(C, (1, 1, 5), (3, 3, 7)))
        assert certs is not None
        for cert in certs:
            assert verify_certificate(C, cert)

    def test_flat_multiplicities_delegate_to_power(self):
        V = villarreal_ideal()
        certs = as_chain(rule_two_by_two(V, (1, 1, 3, 3), (2, 2, 4, 4)))
        assert certs is not None
        for cert in certs:
            assert verify_certificate(V, cert)

    def test_not_applicable_below_degree_three(self):
        V = villarreal_ideal()
        assert rule_two_by_two(V, (1, 3), (2, 4)) is None

    def test_not_applicable_with_shared_index(self):
        V = villarreal_ideal()
        assert rule_two_by_two(V, (1, 1, 2), (1, 3, 3)) is None


class TestThreeByTwo:
    def test_five_distinct_indices(self):
        C = cycle_ideal(10)
        certs = as_chain(rule_three_by_two(C, (1, 4, 7, 7), (3, 3, 9, 9)))
        if certs is None:
            # the gcd hypotheses depend on the geometry; at least the
            # flat case below must work
            pytest.skip("no certificate for this geometry")
        for cert in certs:
            assert verify_certificate(C, cert)

    def test_balanced_case(self):
        C = cycle_ideal(10)
        # multiplicities (2,2,2) against (3,3): the forced balanced case
        certs = as_chain(rule_three_by_two(C, (1, 1, 4, 4, 7, 7),
                                           (3, 3, 3, 9, 9, 9)))
        assert certs is not None
        for cert in certs:
            assert verify_certificate(C, cert)

    def test_not_applicable_on_two_distinct(self):
        C = cycle_ideal(10)
        assert rule_three_by_two(C, (1, 1, 4), (3, 3, 3)) is None


class TestTreeLeaf:
    def test_path_instance(self):
        P = path_ideal(5)
        cert = rule_tree_leaf(P, (1, 3, 5), (2, 2, 4))
        assert cert is not None
        assert cert.rule_name == "tree_leaf"
        assert verify_certificate(P, cert)

    def test_star_instance(self):
        # star: center shares a variable with every leaf
        I = make_ideal(["c", "l1", "l2", "l3", "p0", "p1", "p2", "p3"],
                       [[0, 1, 2, 3, 4], [0, 5], [1, 6], [2, 7]])
        cert = rule_tree_leaf(I, (1, 1), (2, 3))
        if cert is not None:
            assert verify_certificate(I, cert)

    def test_cycle_not_applicable(self):
        V = villarreal_ideal()
        assert rule_tree_leaf(V, (1, 3), (2, 4)) is None


class TestOddCycleStep:
    def test_seven_cycle_instance(self):
        C = cycle_ideal(7)
        cert = rule_odd_cycle_step(C, (2, 3, 6, 6, 6, 6), (1, 1, 4, 4, 5, 7))
        assert cert is not None
        assert cert.rule_name == "odd_cycle_step"
        assert verify_certificate(C, cert)

    def test_even_cycle_not_applicable(self):
        C = cycle_ideal(8)
        assert rule_odd_cycle_step(C, (2, 3, 6, 6, 6, 6, 8),
                                   (1, 1, 4, 4, 5, 7, 7)) is None

    def test_triangle_too_short(self):
        T = triangle_ideal()
        assert rule_odd_cycle_step(T, (1, 1), (2, 3)) is None


class TestSwapCertificate:
    def test_round_trip(self):
        V = villarreal_ideal()
        cert = rule_shared_index(V, (1, 2), (1, 4))
        swapped = swap_certificate(cert)
        assert swapped.target.alpha == (1, 4)
        assert swapped.orientation != cert.orientation
        assert verify_certificate(V, swapped)
        assert swap_certificate(swapped).target == cert.target


class TestVerifyCertificate:
    def test_accepts_valid(self):
        V = villarreal_ideal()
        cert = rule_shared_index(V, (1, 2), (1, 4))
        assert verify_certificate(V, cert)

    def test_rejects_corrupted_coefficient(self):
        V = villarreal_ideal()
        cert = rule_shared_index(V, (1, 2), (1, 4))
        term = cert.terms[0]
        bad = dataclasses.replace(
            cert,
            terms=(dataclasses.replace(
                term, coef=mono_mul(term.coef, Monomial.from_dict({0: 1}))),))
        assert not verify_certificate(V, bad)

    def test_rejects_corrupted_tfactor(self):
        V = villarreal_ideal()
        cert = rule_shared_index(V, (1, 2), (1, 4))
        term = cert.terms[0]
        bad = dataclasses.replace(
            cert, terms=(dataclasses.replace(term, tfactor=(2,)),))
        assert not verify_certificate(V, bad)

    def test_rejects_dropped_term(self):
        P = path_ideal(4)
        cert = rule_block_disjoint(P, (1, 2), (3, 4))
        assert len(cert.terms) == 2
        bad = dataclasses.replace(cert, terms=cert.terms[:1])
        assert not verify_certificate(P, bad)

    def test_rejects_tampered_sub_target(self):
        V = villarreal_ideal()
        cert = rule_shared_index(V, (1, 2), (1, 4))
        term = cert.terms[0]
        fake_sub = taylor_binomial(V, (2,), (3,))
        bad = dataclasses.replace(
            cert, terms=(dataclasses.replace(term, sub=fake_sub),))
        assert not verify_certificate(V, bad)


class TestIrredundancyWitness:
    def test_pentagon_witness(self):
        P = pentagon_ideal()
        w = irredundancy_witness(P, (1, 1, 4), (2, 3, 5))
        assert w is not None
        assert w.avec == (2, 3, 5)
        assert w.b1 == 1 and w.b2 == 4
        assert w.role_swapped
        assert w.check(P)

    def test_villarreal_quadratic_witness(self):
        V = villarreal_ideal()
        w = irredundancy_witness(V, (1, 3), (2, 4))
        assert w is not None
        assert w.check(V)

    def test_no_witness_on_reducible_pair(self):
        P = path_ideal(4)
        assert irredundancy_witness(P, (1, 2), (3, 4)) is None

    def test_witness_check_rejects_wrong_variables(self):
        P = pentagon_ideal()
        w = irredundancy_witness(P, (1, 1, 4), (2, 3, 5))
        broken = dataclasses.replace(w, xvars=(w.xvars[1], w.xvars[0],
                                               w.xvars[2]))
        assert not broken.check(P)

    @pytest.mark.parametrize("seed, alpha, beta", [
        (1063, (2, 5), (3, 4)),
        (1113, (1, 4), (2, 5)),
    ])
    def test_pattern_on_reducible_pair_is_refused(self, seed, alpha, beta,
                                                  monkeypatch):
        # the separating-variable pattern fits, but other generators route
        # around it: the pair reduces modulo the linear layer
        I = random_ideal(random.Random(seed), 5, 8)
        assert member_lower(I, taylor_binomial(I, alpha, beta), 1).is_yes
        assert irredundancy_witness(I, alpha, beta) is None
        out = reduce_to_normal(I, alpha, beta)
        assert out.status == "stuck" and out.witness is None
        with monkeypatch.context() as m:
            m.setattr("reeskit.reduction._confirmed", lambda *args: True)
            pattern = irredundancy_witness(I, alpha, beta)
        assert pattern is not None
        assert not pattern.check(I)


class TestReduceToNormal:
    def test_linear_pair_is_terminal(self):
        V = villarreal_ideal()
        out = reduce_to_normal(V, (1,), (2,))
        assert out.status == "reduced"
        assert out.chain == ()
        assert out.terminal_degree == 1

    def test_shared_pair_one_step(self):
        V = villarreal_ideal()
        out = reduce_to_normal(V, (1, 2), (1, 4))
        assert out.status == "reduced"
        assert [c.rule_name for c in out.chain] == ["shared_index"]
        assert out.terminal_degree == 1

    def test_power_pair(self):
        V = villarreal_ideal()
        out = reduce_to_normal(V, (3, 3), (4, 4))
        assert out.status == "reduced"
        assert out.chain[0].rule_name == "power_factor"
        assert out.terminal_degree == 1

    def test_villarreal_cycle_pair_stuck_with_witness(self):
        V = villarreal_ideal()
        out = reduce_to_normal(V, (1, 3), (2, 4))
        assert out.status == "stuck"
        assert out.stuck_pair == ((1, 3), (2, 4))
        assert out.witness is not None
        assert out.witness.check(V)

    def test_pentagon_triple_stuck_with_witness(self):
        P = pentagon_ideal()
        out = reduce_to_normal(P, (1, 1, 4), (2, 3, 5))
        assert out.status == "stuck"
        assert out.witness is not None

    def test_every_chain_certificate_verifies(self):
        rng = random.Random(17)
        for _ in range(40):
            I = random_ideal(rng, rng.randint(3, 5), 8)
            layer = taylor_layer(I, 2)
            b = rng.choice(layer)
            out = reduce_to_normal(I, b.alpha, b.beta)
            for cert in out.chain:
                assert verify_certificate(I, cert)

    def test_triangle_layer_two_fully_reduces(self):
        T = triangle_ideal()
        for b in taylor_layer(T, 2):
            out = reduce_to_normal(T, b.alpha, b.beta)
            assert out.status == "reduced", (b.alpha, b.beta)
            assert out.terminal_degree == 1

    def test_path_layer_three_fully_reduces(self):
        P = path_ideal(4)
        for b in taylor_layer(P, 3):
            out = reduce_to_normal(P, b.alpha, b.beta)
            assert out.status == "reduced", (b.alpha, b.beta)
            assert out.terminal_degree == 1

    def test_rejects_malformed_rows(self):
        V = villarreal_ideal()
        with pytest.raises(ValueError):
            reduce_to_normal(V, (2, 1), (3, 4))
        with pytest.raises(ValueError):
            reduce_to_normal(V, (1, 2), (1, 2))


EIGHT_RULES = ("rule_shared_index", "rule_power_factor", "rule_constant_row",
               "rule_block_disjoint", "rule_two_by_two", "rule_three_by_two",
               "rule_tree_leaf", "rule_odd_cycle_step")


def eight_rule_dispatch(ideal, a, b):
    """reduce_to_normal's rule table before the three rules that cannot
    fire there were dropped from it."""
    for name in EIGHT_RULES:
        res = getattr(reduction, name)(ideal, a, b)
        if res is not None:
            return as_chain(res)
    return None


def outcome_summary(out):
    return (out.status, out.terminal_degree, out.stuck_pair,
            [(c.rule_name, c.target) for c in out.chain])


def test_five_rule_table_matches_eight_rule_table(monkeypatch):
    # the witness depends on the stuck pair alone, so it is not searched;
    # rule results are shared between the two tables, which ask the same
    # rules about the same pairs (one cache per ideal keeps memory small)
    monkeypatch.setattr(reduction, "irredundancy_witness", lambda *a: None)
    cached = [functools.cache(getattr(reduction, name))
              for name in EIGHT_RULES]
    for name, rule in zip(EIGHT_RULES, cached):
        monkeypatch.setattr(reduction, name, rule)
    ideals = [villarreal_ideal(), pentagon_ideal(), triangle_ideal(),
              path_ideal(4)]
    ideals += [random_ideal(random.Random(k), 5, 8) for k in range(10)]
    checked = 0
    for I in ideals:
        for rule in cached:
            rule.cache_clear()
        for s in (2, 3, 4):
            for b in taylor_layer(I, s):
                five = reduce_to_normal(I, b.alpha, b.beta)
                with monkeypatch.context() as m:
                    m.setattr(reduction, "_dispatch", eight_rule_dispatch)
                    eight = reduce_to_normal(I, b.alpha, b.beta)
                assert outcome_summary(five) == outcome_summary(eight), \
                    (b.alpha, b.beta)
                checked += 1
    assert checked == 36090
