import random

import pytest
from hypothesis import given, settings, strategies as st

from reeskit.demos import random_ideal, villarreal_ideal
from reeskit.monomials import Monomial, make_ideal
from reeskit.taylor import (
    RTMonomial,
    check_sequence,
    enumerate_sequences,
    expand,
    multiset_distance,
    poly_add,
    poly_is_zero,
    product_of,
    render_binomial,
    render_rtmonomial,
    render_tpart,
    rt_div_exact,
    rt_divides,
    rt_mul,
    run_lengths,
    seq_contains,
    seq_intersection,
    seq_remove,
    seq_union,
    substitute_check,
    swap_binomial,
    taylor_binomial,
    taylor_layer,
    weighted_degree,
)


def test_check_sequence_accepts_sorted_in_range():
    check_sequence((1, 1, 3), 4)
    with pytest.raises(ValueError):
        check_sequence((2, 1), 4)
    with pytest.raises(ValueError):
        check_sequence((1, 5), 4)
    with pytest.raises(ValueError):
        check_sequence((0,), 4)


def test_run_lengths():
    assert run_lengths((1, 1, 2, 4, 4, 4)) == ((1, 2), (2, 1), (4, 3))


def test_multiset_helpers():
    assert seq_union((1, 2), (2, 3)) == (1, 2, 2, 3)
    assert seq_remove((1, 2, 2, 3), (2, 3)) == (1, 2)
    assert seq_contains((1, 2, 2, 3), (2, 2))
    assert not seq_contains((1, 2), (2, 2))
    assert seq_intersection((1, 2, 2), (2, 2, 3)) == (2, 2)
    assert multiset_distance((1, 2, 2), (2, 2, 3)) == 1


def test_enumerate_sequences_count():
    # multisets of size s from n symbols: C(n+s-1, s)
    assert len(list(enumerate_sequences(3, 2))) == 6
    assert len(list(enumerate_sequences(4, 3))) == 20
    for seq in enumerate_sequences(3, 2):
        check_sequence(seq, 3)


def test_product_of():
    V = villarreal_ideal()
    prod = product_of(V, (1, 2))
    assert prod.exponent(1) == 2  # x2 appears in both f1 and f2


class TestRTMonomialArithmetic:
    def test_mul(self):
        a = RTMonomial(Monomial.from_dict({0: 1}), (1,))
        b = RTMonomial(Monomial.from_dict({1: 1}), (1, 2))
        c = rt_mul(a, b)
        assert c.tpart == (1, 1, 2)
        assert c.coef == Monomial.from_dict({0: 1, 1: 1})

    def test_divides_and_div_exact(self):
        big = RTMonomial(Monomial.from_dict({0: 2}), (1, 1, 2))
        small = RTMonomial(Monomial.from_dict({0: 1}), (1, 2))
        assert rt_divides(small, big)
        quot = rt_div_exact(big, small)
        assert quot.tpart == (1,)
        assert quot.coef == Monomial.from_dict({0: 1})
        assert not rt_divides(big, small)

    def test_tpart_must_be_sorted(self):
        with pytest.raises(Exception):
            RTMonomial(Monomial.one(), (2, 1))


class TestTaylorBinomial:
    def test_villarreal_linear_pair(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1,), (2,))
        # gcd(f1, f2) = x2; cofactors are the complements
        assert render_binomial(V, b) == "x4*x5*T1 - x1*x3*T2"
        assert substitute_check(V, b)

    def test_alpha_term_carries_beta_cofactor(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1,), (3,))
        # disjoint supports: coefficient on T1 is all of f3
        assert b.lhs_coef == V.generator(3)
        assert b.rhs_coef == V.generator(1)

    def test_rejects_equal_rows(self):
        V = villarreal_ideal()
        with pytest.raises(ValueError):
            taylor_binomial(V, (1, 2), (1, 2))

    def test_rejects_length_mismatch(self):
        V = villarreal_ideal()
        with pytest.raises(ValueError):
            taylor_binomial(V, (1,), (2, 3))

    def test_degree(self):
        V = villarreal_ideal()
        assert taylor_binomial(V, (1, 2), (3, 4)).degree == 2

    def test_swap(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1,), (2,))
        s = swap_binomial(b)
        assert s.alpha == b.beta and s.beta == b.alpha
        assert s.lhs_coef == b.rhs_coef
        assert substitute_check(V, s)


def test_taylor_layer_sizes():
    V = villarreal_ideal()
    assert len(taylor_layer(V, 1)) == 6  # C(4,2) unordered pairs
    # layer 2: C(10,2) unordered pairs of 2-multisets
    assert len(taylor_layer(V, 2)) == 45


def test_weighted_degree():
    V = villarreal_ideal()
    u, v = taylor_binomial(V, (1,), (2,)).terms()
    # both sides of a relation have the same weighted degree
    assert weighted_degree(V, u) == weighted_degree(V, v)


class TestExpandAndPolyOps:
    def test_expand_two_terms(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1,), (2,))
        p = expand(b)
        assert len(p) == 2
        assert set(p.values()) == {1, -1}

    def test_poly_add_cancels(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1,), (2,))
        p = poly_add(expand(b), expand(swap_binomial(b)))
        assert poly_is_zero(p)


def test_render_tpart():
    assert render_tpart((1, 1, 4)) == "T1^2*T4"
    assert render_tpart(()) == ""


def test_render_rtmonomial():
    V = villarreal_ideal()
    m = RTMonomial(Monomial.from_dict({3: 1}), (1, 3))
    assert render_rtmonomial(V, m) == "x4*T1*T3"
    unit = RTMonomial(Monomial.one(), ())
    assert render_rtmonomial(V, unit) == "1"


# every enumerated relation substitutes to zero: the defining property
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=5),
       st.integers(min_value=1, max_value=3))
def test_taylor_binomials_vanish_under_substitution(seed, n, s):
    rng = random.Random(seed)
    ideal = random_ideal(rng, n, n + 3)
    layer = taylor_layer(ideal, s)
    sample = rng.sample(layer, min(6, len(layer)))
    for b in sample:
        assert substitute_check(ideal, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_layer_pairs_are_canonically_ordered(seed):
    rng = random.Random(seed)
    ideal = random_ideal(rng, 4, 7)
    for b in taylor_layer(ideal, 2):
        assert b.alpha < b.beta
