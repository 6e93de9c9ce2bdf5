import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from reeskit import taylor
from reeskit.classify import cross_validate
from reeskit.demos import (
    family_ideal,
    path_ideal,
    pentagon_ideal,
    random_ideal,
    random_shape_ideal,
    villarreal_ideal,
)
from reeskit.monomials import (
    Monomial,
    make_ideal,
    mono_gcd,
    mono_product,
)
from reeskit.oracle import member_lower, relation_type_estimate
from reeskit.taylor import (
    ReesBinomial,
    RTMonomial,
    check_sequence,
    enumerate_sequences,
    multiset_distance,
    product_of,
    render_binomial,
    render_rtmonomial,
    render_tpart,
    run_lengths,
    seq_intersection,
    seq_remove,
    substitute_check,
    swap_binomial,
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


def test_check_sequence_accepts_sorted_in_range():
    check_sequence((1, 1, 3), 4)
    with pytest.raises(ValueError):
        check_sequence((2, 1), 4)
    with pytest.raises(ValueError):
        check_sequence((1, 5), 4)
    with pytest.raises(ValueError):
        check_sequence((0,), 4)


@pytest.mark.parametrize("row", [(True, 2), (1, 2.0)], ids=["True", "float"])
def test_a_row_holds_ints_only(row):
    # True == 1 and 2.0 == 2, but neither is an index
    with pytest.raises(ValueError, match="outside 1..4"):
        check_sequence(row, 4)
    with pytest.raises(ValueError, match="outside 1..4"):
        taylor_binomial(villarreal_ideal(), row, (3, 3))


@pytest.mark.parametrize("row, message", [
    ((0,), "index 0 outside 1..4"),
    ((1, 5), "index 5 outside 1..4"),
    ((1.0,), "index 1.0 outside 1..4"),
    ((True, 2), "index True outside 1..4"),
    ((1, 3, 2), "sequence (1, 3, 2) is not non-decreasing"),
    ((), "empty index sequence"),
    ((3, 0), "index 0 outside 1..4"),  # the first fault is named
    ((5, 1), "index 5 outside 1..4"),
    ((2, 1, 9), "sequence (2, 1, 9) is not non-decreasing"),
], ids=["0", "n+1", "1.0", "True", "decreasing", "empty", "range after",
        "range before", "order before"])
def test_check_sequence_names_each_fault(row, message):
    with pytest.raises(ValueError) as err:
        check_sequence(row, 4)
    assert str(err.value) == message


def two_pass_check_sequence(seq, n):
    """check_sequence as two loops: a fast pass, then a re-scan that names
    the first fault; the one-loop version must answer the same."""
    out = tuple(seq)
    last = 1
    for a in out:
        if type(a) is not int or a < last:
            break
        last = a
    else:
        if out and last <= n:
            return out
    if not out:
        raise ValueError("empty index sequence")
    last = 0
    for a in out:
        if type(a) is not int or a < 1 or a > n:
            raise ValueError(f"index {a!r} outside 1..{n}")
        if a < last:
            break
        last = a
    raise ValueError(f"sequence {out!r} is not non-decreasing")


def outcome(check, row, n):
    try:
        return check(row, n)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_check_sequence_matches_the_two_pass_check_on_every_short_row():
    n = 3
    entries = [-1, 0, 1, 2, 3, n + 1, True, 1.0, "a"]
    rows = [row for length in range(5)
            for row in itertools.product(entries, repeat=length)]
    assert len(rows) == 1 + 9 + 9 ** 2 + 9 ** 3 + 9 ** 4
    for row in rows:
        assert outcome(check_sequence, row, n) == \
            outcome(two_pass_check_sequence, row, n), row


def test_run_lengths():
    assert run_lengths((1, 1, 2, 4, 4, 4)) == ((1, 2), (2, 1), (4, 3))


def test_multiset_helpers():
    assert seq_remove((1, 2, 2, 3), (2, 3)) == (1, 2)
    assert seq_intersection((1, 2, 2), (2, 2, 3)) == (2, 2)
    assert multiset_distance((1, 2, 2), (2, 2, 3)) == 1
    with pytest.raises(ValueError, match="not a sub-multiset"):
        seq_remove((1, 2, 3), (2, 2))
    with pytest.raises(ValueError, match="equal length"):
        multiset_distance((1, 2), (1, 2, 3))


def test_enumerate_sequences_count():
    # multisets of size s from n symbols: C(n+s-1, s)
    assert len(list(enumerate_sequences(3, 2))) == 6
    assert len(list(enumerate_sequences(4, 3))) == 20
    for seq in enumerate_sequences(3, 2):
        check_sequence(seq, 3)
    for n, s, message in ((3, 0, "layer s must be at least 1, got 0"),
                          (0, 2, "generator count n must be at least 1, got 0")):
        with pytest.raises(ValueError, match=message):
            enumerate_sequences(n, s)


def _square_pair():
    return taylor_binomial(villarreal_ideal(), (1, 3), (2, 4))


# (function, parameter name, call with the bound under test): every integer
# bound goes through check_bound, so each refuses a bool and a float by name
BOUNDS = [
    ("enumerate_sequences", "generator count n",
     lambda v: enumerate_sequences(v, 2)),
    ("enumerate_sequences", "layer s", lambda v: enumerate_sequences(3, v)),
    ("taylor_layer", "layer s", lambda v: taylor_layer(villarreal_ideal(), v)),
    ("family_ideal", "the family's n", family_ideal),
    ("path_ideal", "a path's edges", path_ideal),
    ("random_ideal", "generator count n",
     lambda v: random_ideal(random.Random(0), v, 5)),
    ("random_ideal", "num_vars",
     lambda v: random_ideal(random.Random(0), 2, v)),
    ("random_shape_ideal", "forest generator count n",
     lambda v: random_shape_ideal("forest", v)),
    ("random_shape_ideal", "even-cycle generator count n",
     lambda v: random_shape_ideal("even-cycle", v)),
    ("random_shape_ideal", "extra_vars",
     lambda v: random_shape_ideal("forest", 3, v)),
    ("member_lower", "layer bound k",
     lambda v: member_lower(villarreal_ideal(), _square_pair(), v)),
    ("member_lower", "cap",
     lambda v: member_lower(villarreal_ideal(), _square_pair(), 1, v)),
    ("relation_type_estimate", "s_max",
     lambda v: relation_type_estimate(villarreal_ideal(), v)),
    ("cross_validate", "s_max",
     lambda v: cross_validate(villarreal_ideal(), v)),
]


@pytest.mark.parametrize("value", [True, 2.0])
@pytest.mark.parametrize("name, call", [b[1:] for b in BOUNDS],
                         ids=[f"{f} {name}" for f, name, _ in BOUNDS])
def test_every_bound_refuses_a_bool_or_a_float_by_name(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an int, "
                                         f"got {re.escape(repr(value))}$"):
        call(value)


def test_taylor_layer_size_bound_is_exact(monkeypatch):
    # layer 1 of the square: 4 sequences, comb(4, 2) = 6 pairs
    monkeypatch.setattr(taylor.sys, "maxsize", 6)
    V = villarreal_ideal()
    assert len(taylor_layer(V, 1)) == 6
    monkeypatch.setattr(taylor.sys, "maxsize", 5)
    with pytest.raises(ValueError,
                       match="^layer s 1 is too large: more than 5 binomials$"):
        taylor_layer(V, 1)


def test_product_of():
    V = villarreal_ideal()
    prod = product_of(V, (1, 2))
    assert prod.as_dict()[1] == 2  # x2 appears in both f1 and f2


@pytest.mark.parametrize("name", ["villarreal", "pentagon", "path4", "random8"])
def test_product_of_matches_the_generator_product(name):
    # product_of counts exponents from the support table
    ideal = FORMULA_IDEALS[name]
    for s in (1, 2, 3):
        for seq in enumerate_sequences(ideal.n, s):
            assert product_of(ideal, seq) == mono_product(
                ideal.generator(a) for a in seq)
    assert product_of(ideal, ()) == Monomial.one()


@pytest.mark.parametrize("seq", [(0,), (1, 5)])
def test_product_of_rejects_an_index_outside_the_ideal(seq):
    with pytest.raises(IndexError):
        product_of(villarreal_ideal(), seq)


class TestRTMonomialArithmetic:
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


def reference_binomial(ideal, alpha, beta):
    """T_{alpha,beta} by the textbook formula: two products, their gcd and
    two exact divisions."""
    a = check_sequence(alpha, ideal.n)
    b = check_sequence(beta, ideal.n)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {a!r} vs {b!r}")
    if a == b:
        raise ValueError(f"equal sequences give the zero binomial: {a!r}")
    fa = product_of(ideal, a)
    fb = product_of(ideal, b)
    g = mono_gcd(fa, fb)
    return ReesBinomial(a, b, div_exact(fb, g), div_exact(fa, g))


FORMULA_IDEALS = {"villarreal": villarreal_ideal(), "pentagon": pentagon_ideal(),
                  "path4": path_ideal(4),
                  **{f"random{k}": random_ideal(random.Random(k), 5, 8)
                     for k in range(0, 40, 8)}}
on_formula_ideals = pytest.mark.parametrize(
    "ideal", list(FORMULA_IDEALS.values()), ids=list(FORMULA_IDEALS))


class TestOneExponentDifference:
    @on_formula_ideals
    def test_every_pair_matches_the_reference(self, ideal):
        for s in (1, 2, 3):
            seqs = list(enumerate_sequences(ideal.n, s))
            for a, b in itertools.permutations(seqs, 2):
                assert taylor_binomial(ideal, a, b) == \
                    reference_binomial(ideal, a, b)

    @on_formula_ideals
    def test_layer_matches_the_reference_in_lex_order(self, ideal):
        for s in (1, 2, 3):
            seqs = sorted(itertools.combinations_with_replacement(
                range(1, ideal.n + 1), s))
            assert taylor_layer(ideal, s) == [
                reference_binomial(ideal, a, b)
                for a, b in itertools.combinations(seqs, 2)]

    @pytest.mark.parametrize("alpha, beta", [((1,), (2, 3)), ((1, 2), (1, 2)),
                                             ((1, 5), (2, 3)), ((0, 1), (2, 3)),
                                             ((1, 2), (4, 3)), ((), ())],
                             ids=["length mismatch", "equal rows",
                                  "index out of range", "index zero",
                                  "unsorted row", "empty rows"])
    def test_errors_match_the_reference(self, alpha, beta):
        V = villarreal_ideal()
        with pytest.raises(ValueError) as expected:
            reference_binomial(V, alpha, beta)
        with pytest.raises(ValueError) as got:
            taylor_binomial(V, alpha, beta)
        assert str(got.value) == str(expected.value)


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
