"""verify_certificate, the exact replay of a certificate on packed ints,
against reference_verify, the same replay written out in Monomial
arithmetic: every binomial re-derived with taylor_binomial, and the terms
minus the target tallied by (x-part, sorted T-part)."""

import itertools
import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from reeskit.demos import (
    path_ideal,
    pentagon_ideal,
    random_ideal,
    triangle_ideal,
    villarreal_ideal,
)
from reeskit.monomials import Monomial, _monomial, make_ideal, mono_mul
from reeskit.reduction import (
    Certificate,
    CertTerm,
    reduce_to_normal,
    rule_shared_index,
    verify_certificate,
)
from reeskit.taylor import (
    ReesBinomial,
    enumerate_sequences,
    swap_binomial,
    taylor_binomial,
)


def reference_verify(ideal, cert):
    """The replay in Monomial arithmetic; it raises on what it cannot
    read, where verify_certificate returns False.  Every coefficient must
    be what the Monomial constructor accepts, over the ideal's table."""
    try:
        total = Counter()
        for coef, tfactor, sub, sign in (
                (Monomial.one(), (), cert.target, -1),
                *((t.coef, t.tfactor, t.sub, 1) for t in cert.terms)):
            for m in (coef, sub.lhs_coef, sub.rhs_coef):
                Monomial(m.exps)  # ValueError unless a monomial
                if any(v >= len(ideal.table) for v, _ in m.exps):
                    return False
            if taylor_binomial(ideal, sub.alpha, sub.beta) != sub:
                return False
            total[mono_mul(coef, sub.lhs_coef),
                  tuple(sorted(tfactor + sub.alpha))] += sign
            total[mono_mul(coef, sub.rhs_coef),
                  tuple(sorted(tfactor + sub.beta))] -= sign
        return not any(total.values())
    except ValueError:
        return False


def mono(*pairs):
    return Monomial(tuple(pairs))


def scaled(b, m):
    return replace(b, lhs_coef=mono_mul(b.lhs_coef, m),
                   rhs_coef=mono_mul(b.rhs_coef, m))


def with_pair(cert, first, second):
    """cert plus the terms (coef, tfactor, sub) and (coef', tfactor',
    swap(sub)): they cancel exactly when coef == coef' and the T-factors
    are one multiset."""
    (c1, tf1, sub), (c2, tf2) = first, second
    return replace(cert, terms=cert.terms + (
        CertTerm(c1, tf1, sub), CertTerm(c2, tf2, swap_binomial(sub))))


def square_certificate():
    """T_{(1,2),(1,3)} = T_1 * T_{2,3} on the square, and T_{1,2}."""
    V = villarreal_ideal()
    return (V, rule_shared_index(V, (1, 2), (1, 3)),
            taylor_binomial(V, (1,), (2,)))


# --- differential replay ---------------------------------------------------

IDEALS = {"square": villarreal_ideal, "pentagon": pentagon_ideal,
          "triangle": triangle_ideal, "path4": lambda: path_ideal(4),
          **{f"random{k}": (lambda k=k: random_ideal(random.Random(k), 5, 8))
             for k in (0, 3, 6)}}


def mutations(ideal, cert):
    """(kind, certificate) for each mutation of each term of cert."""
    x1 = mono((0, 1))
    terms = cert.terms

    def with_term(i, **changes):
        return replace(cert, terms=terms[:i] + (replace(terms[i], **changes),)
                       + terms[i + 1:])
    for i, t in enumerate(terms):
        v = t.coef.exps[0][0] if t.coef.exps else 0
        yield "bump coef", with_term(i, coef=mono_mul(t.coef, mono((v, 1))))
        yield "bump sub coef", with_term(
            i, sub=replace(t.sub, rhs_coef=mono_mul(t.sub.rhs_coef,
                                                     mono((v, 1)))))
        yield "swap rows", with_term(
            i, sub=replace(t.sub, alpha=t.sub.beta, beta=t.sub.alpha))
        yield "drop", replace(cert, terms=terms[:i] + terms[i + 1:])
        for row in ("alpha", "beta"):
            old = getattr(t.sub, row)
            new = (old[0] % ideal.n + 1,) + old[1:]
            yield "rename", with_term(i, sub=replace(t.sub, **{row: new}))
        yield "scale", replace(with_term(i, sub=scaled(t.sub, x1)),
                               target=scaled(cert.target, x1))


@pytest.mark.parametrize("name", list(IDEALS))
def test_agrees_with_the_reference_on_every_mutation(name):
    ideal = IDEALS[name]()
    certs = mutated = 0
    for s in (2, 3):
        for a, b in itertools.combinations(enumerate_sequences(ideal.n, s), 2):
            for cert in reduce_to_normal(ideal, a, b).chain:
                assert verify_certificate(ideal, cert)
                assert reference_verify(ideal, cert)
                certs += 1
                for kind, bad in mutations(ideal, cert):
                    assert verify_certificate(ideal, bad) == \
                        reference_verify(ideal, bad), (kind, bad)
                    mutated += 1
    assert certs > 0 and mutated >= 7 * certs


# --- field boundaries ------------------------------------------------------

@pytest.mark.parametrize("top", [1, 2, 3, 4, 7, 8, 15, 16, 2 ** 20 - 1,
                                 2 ** 20, 10 ** 6 - 1, 10 ** 6, 10 ** 6 + 1])
def test_largest_exponent(top):
    # 2 * top crosses a bit length at each power of two
    V, cert, sub = square_certificate()
    big = mono((0, top), (3, 1))
    for other, holds in ((big, True), (mono((0, top + 1), (3, 1)), False),
                         (mono((0, top), (4, 1)), False),
                         (mono(*[(0, top - 1)][:top > 1], (3, 1)), False)):
        bad = with_pair(cert, (big, (2,), sub), (other, (2,)))
        assert verify_certificate(V, bad) is reference_verify(V, bad) is holds


def test_one_ideal_across_widths():
    # the layout is cached per field width on the ideal: a wide replay
    # between two narrow ones must not leak its fields into either
    V, cert, sub = square_certificate()
    for top in (1, 2 ** 20, 1, 2 ** 20):
        big = mono((0, top), (3, 1))
        for other in (big, mono((0, top + 1), (3, 1)), mono((3, top))):
            bad = with_pair(cert, (big, (2,), sub), (other, (2,)))
            assert verify_certificate(V, bad) is reference_verify(V, bad) \
                is (other == big), (top, other)
    # top 1 (and 2); top 2^20's width, 22, is built per call and not kept
    assert sorted(V.packed) == [2, 3]


def test_only_narrow_layouts_are_kept():
    # the fiber and the package's own certificates ask for widths 2 to 4 on
    # layers 2 to 4, and they stay cached; a certificate whose cancelling
    # terms carry x1^(2^4000) asks for width 4002, which is built per call
    V = villarreal_ideal()
    for s in (2, 3, 4):
        for a, b in itertools.combinations(enumerate_sequences(V.n, s), 2):
            for cert in reduce_to_normal(V, a, b).chain:
                assert verify_certificate(V, cert)
    assert sorted(V.packed) == [2, 3, 4]
    _, cert, sub = square_certificate()
    big = mono((0, 2 ** 4000))
    wide = with_pair(cert, (big, (2,), sub), (big, (2,)))
    assert verify_certificate(V, wide) is reference_verify(V, wide) is True
    assert sorted(V.packed) == [2, 3, 4]


@pytest.mark.parametrize("var", [6, 7, 99, 10 ** 9])
def test_coefficient_variable_outside_the_table(var):
    # the square has x1..x7, variable indices 0..6; x_var beyond them is
    # refused even in terms that cancel, as validate_ideal refuses such a
    # generator variable
    V, cert, sub = square_certificate()
    c = mono((2, 1), (var, 3))
    for other, holds in ((c, var < len(V.table)),
                         (mono((2, 1), (var + 1, 3)), False),
                         (mono((2, 1)), False)):
        bad = with_pair(cert, (c, (3,), sub), (other, (3,)))
        assert verify_certificate(V, bad) is reference_verify(V, bad) is holds
    # x_var is not T_1
    bad = with_pair(cert, (mono((var, 1)), (3,), sub), (Monomial.one(), (1, 3)))
    assert verify_certificate(V, bad) is reference_verify(V, bad) is False
    # a sub-binomial's coefficient is never outside the table
    bad = replace(cert, terms=(replace(cert.terms[0], sub=scaled(
        cert.terms[0].sub, mono((var, 1)))),),
        target=scaled(cert.target, mono((var, 1))))
    assert verify_certificate(V, bad) is reference_verify(V, bad) is False


@pytest.mark.parametrize("length", [2, 3, 4, 7, 8, 15, 16])
def test_t_factor_plus_row_on_a_power_of_two(length):
    V, cert, sub = square_certificate()
    tf = (1,) * (length - 1)
    for other, holds in ((tf, True), (tf[1:] + (2,), False),
                         (tf[1:], False), (tf + (1,), False)):
        bad = with_pair(cert, (Monomial.one(), tf, sub),
                        (Monomial.one(), other))
        assert verify_certificate(V, bad) is reference_verify(V, bad) is holds


def test_a_carry_out_of_an_x_field_is_refused():
    # f1 = x1 x3, f2 = x2 x4.  With lhs = x1^2 x2 x4^2 and rhs = x3^2,
    # lhs f1^2 = x1^4 x2 x3^2 x4^2 and rhs f2^2 = x2^2 x3^2 x4^2 differ
    # only by x1^4 against x2: in 2-bit fields the x1 field carries into
    # the x2 field and the two pack to one int.  The coefficients' top
    # exponent 2 and row length 2 call for 3-bit fields.
    ideal = make_ideal(["x1", "x2", "x3", "x4"], [[0, 2], [1, 3]])
    fake = ReesBinomial((1, 1), (2, 2), mono((0, 2), (1, 1), (3, 2)),
                        mono((2, 2)))
    cert = Certificate(fake, (CertTerm(Monomial.one(), (), fake),), "fake")
    assert verify_certificate(ideal, cert) is reference_verify(ideal, cert) \
        is False


def test_a_carry_out_of_a_t_field_is_refused():
    # f1 f2 = f3 f4, so T_{(1,2),(3,4)} has both coefficients 1: the only
    # width the layout needs is that of the T-counts.  T_1^4 and T_2 pack
    # to one int in 2-bit T-fields; T_1^4 * T_1 T_2 calls for 3 bits.
    ideal = make_ideal(["x1", "x2", "x3", "x4"],
                       [[0, 1], [2, 3], [0, 2], [1, 3]])
    b = taylor_binomial(ideal, (1, 2), (3, 4))
    assert b.lhs_coef.is_one and b.rhs_coef.is_one
    cert = Certificate(b, (CertTerm(Monomial.one(), (), b),), "trivial")
    assert verify_certificate(ideal, cert)
    bad = with_pair(cert, (Monomial.one(), (1,) * 4, b),
                    (Monomial.one(), (2,)))
    assert verify_certificate(ideal, bad) is reference_verify(ideal, bad) \
        is False


# --- malformed input -------------------------------------------------------

@pytest.mark.parametrize("tfactor", [(99,), (0,), (1.0,), (3, 1), [1], "1"],
                         ids=["99", "0", "1.0", "unsorted", "list", "str"])
def test_a_t_factor_must_be_a_sorted_tuple_over_1_to_n(tfactor):
    V, cert, sub = square_certificate()
    good = with_pair(cert, (Monomial.one(), (1, 3), sub),
                     (Monomial.one(), (1, 3)))
    assert verify_certificate(V, good) is True
    bad = with_pair(cert, (Monomial.one(), tfactor, sub),
                    (Monomial.one(), tfactor))
    assert verify_certificate(V, bad) is False


@pytest.mark.parametrize("coef", [None, {0: 1}, ((0, 1),), 1,
                                  SimpleNamespace(exps=((0, 1),)),
                                  _monomial(((0, 1.5),)),
                                  _monomial(((0, 2.0),)),
                                  _monomial(((0.5, 1),)),
                                  _monomial(((7.5, 1),)),
                                  _monomial(((0, 1), (4, -1))),
                                  _monomial(((0, 1), (4, 0))),
                                  _monomial(((0, True),)),
                                  _monomial(((4, 1), (0, 1))),
                                  _monomial(((0, 1), (0, 1)))],
                         ids=["None", "dict", "tuple", "int", "look-alike",
                              "exponent 1.5", "exponent 2.0", "variable 0.5",
                              "variable 7.5", "exponent -1", "exponent 0",
                              "exponent True", "unsorted", "repeated variable"])
def test_a_coefficient_must_be_a_monomial_with_int_exponents(coef):
    # the Monomial constructor refuses the last nine, so they are built
    # unchecked, as a caller bypassing it could; the two terms of the pair
    # would cancel even in Laurent arithmetic
    V, cert, sub = square_certificate()
    bad = with_pair(cert, (coef, (), sub), (coef, ()))
    assert verify_certificate(V, bad) is False


# One exponent rule in two copies: Monomial's constructor and the inline
# loop of verify_certificate, kept apart for the replay's speed.
MALFORMED_EXPONENTS = {
    "exponent True": ((0, True),),
    "exponent 2.0": ((0, 2.0),),
    "exponent 0": ((0, 1), (4, 0)),
    "exponent -1": ((0, 1), (4, -1)),
    "variable -1": ((-1, 1),),
    "descending variables": ((4, 1), (0, 1)),
    "repeated variable": ((0, 1), (0, 1)),
}


@pytest.mark.parametrize("exps", list(MALFORMED_EXPONENTS.values()),
                         ids=list(MALFORMED_EXPONENTS))
def test_monomial_and_the_replay_refuse_the_same_exponent_tuples(exps):
    with pytest.raises(ValueError):
        Monomial(exps)
    V, cert, sub = square_certificate()
    good = mono((0, 1), (4, 2))
    assert verify_certificate(
        V, with_pair(cert, (good, (), sub), (good, ()))) is True
    bad = _monomial(exps)
    assert verify_certificate(
        V, with_pair(cert, (bad, (), sub), (bad, ()))) is False


# --- coefficients must be monomials ------------------------------------------

def laurent_tally(cert):
    """The replay with coefficient exponents of any sign: the terms minus
    the target, tallied by (x-exponents, sorted T-part)."""
    total = Counter()
    for coef, tfactor, sub, sign in (
            (Monomial.one(), (), cert.target, -1),
            *((t.coef, t.tfactor, t.sub, 1) for t in cert.terms)):
        for side, row, s in ((sub.lhs_coef, sub.alpha, sign),
                             (sub.rhs_coef, sub.beta, -sign)):
            x = Counter()
            for v, e in coef.exps + side.exps:
                x[v] += e
            key = (frozenset((v, e) for v, e in x.items() if e),
                   tuple(sorted(tfactor + row)))
            total[key] += s
    return {key: c for key, c in total.items() if c}


@pytest.mark.parametrize("make, rows, first, second", [
    (villarreal_ideal, ((1, 3), (2, 4)), ((4, -1),), ((0, 1), (4, -1))),
    (pentagon_ideal, ((1, 4), (2, 3)), ((1, 1), (3, -1)), ((3, -1),)),
], ids=["square", "pentagon"])
def test_a_laurent_certificate_of_a_stuck_pair_is_refused(make, rows,
                                                          first, second):
    # T_{(a1,a2),(b1,b2)} = c1 T_{a2} T_{a1,b1} + c2 T_{b1} T_{a2,b2} holds
    # with x^-1 in the coefficients, yet the pair is a new generator: a
    # Laurent coefficient telescopes through nodes outside the fiber
    ideal = make()
    (a1, a2), (b1, b2) = rows
    assert reduce_to_normal(ideal, *rows).status == "stuck"
    fake = Certificate(taylor_binomial(ideal, *rows), (
        CertTerm(_monomial(first), (a2,), taylor_binomial(ideal, (a1,), (b1,))),
        CertTerm(_monomial(second), (b1,),
                 taylor_binomial(ideal, (a2,), (b2,)))), "fake")
    assert laurent_tally(fake) == {}
    assert verify_certificate(ideal, fake) is reference_verify(ideal, fake) \
        is False


# T_{(1,1),(2,2)} on the square is x4^2 x5^2 T_1^2 - x1^2 x3^2 T_2^2 and
# T_{1,2} is x4 x5 T_1 - x1 x3 T_2; each fault but x2^-1 keeps the value of
# lhs_coef, and x2^-1 on both sides keeps lhs f_alpha = rhs f_beta
SUB_MALFORMED = {
    "exponent -1": ((1, 1), (2, 2), ((1, -1), (3, 2), (4, 2)),
                    ((0, 2), (1, -1), (2, 2))),
    "exponent 0": ((1, 1), (2, 2), ((1, 0), (3, 2), (4, 2)), ((0, 2), (2, 2))),
    "exponent True": ((1,), (2,), ((3, True), (4, 1)), ((0, 1), (2, 1))),
    "unsorted": ((1, 1), (2, 2), ((4, 2), (3, 2)), ((0, 2), (2, 2))),
    "repeated variable": ((1, 1), (2, 2), ((3, 1), (3, 1), (4, 2)),
                          ((0, 2), (2, 2))),
}


@pytest.mark.parametrize("alpha, beta, lhs, rhs", list(SUB_MALFORMED.values()),
                         ids=list(SUB_MALFORMED))
def test_a_sub_coefficient_must_be_a_monomial(alpha, beta, lhs, rhs):
    V, cert, _ = square_certificate()
    good = taylor_binomial(V, alpha, beta)
    bad_sub = ReesBinomial(alpha, beta, _monomial(lhs), _monomial(rhs))
    one = Monomial.one()
    assert verify_certificate(V, with_pair(cert, (one, (), good), (one, ())))
    # with_pair adds the sub and its swap: the fault sits on both sides
    bad = with_pair(cert, (one, (), bad_sub), (one, ()))
    assert verify_certificate(V, bad) is reference_verify(V, bad) is False
    target = Certificate(bad_sub, (CertTerm(one, (), good),), "x")
    assert verify_certificate(V, target) is reference_verify(V, target) \
        is False


@pytest.mark.parametrize("make", [
    lambda sub: None,
    lambda sub: (sub.alpha, sub.beta, sub.lhs_coef, sub.rhs_coef),
    lambda sub: replace(sub, lhs_coef=None),
    lambda sub: replace(sub, rhs_coef=sub.rhs_coef.exps),
    lambda sub: replace(sub, alpha=list(sub.alpha)),
    lambda sub: replace(sub, alpha=7),
    lambda sub: SimpleNamespace(**vars(sub)),
    lambda sub: replace(sub, lhs_coef=SimpleNamespace(**vars(sub.lhs_coef))),
], ids=["None", "tuple", "lhs None", "rhs exps", "list row", "int row",
        "look-alike", "look-alike lhs"])
def test_a_sub_binomial_must_be_a_rees_binomial(make):
    V, cert, sub = square_certificate()
    extra = CertTerm(Monomial.one(), (), make(sub))
    assert verify_certificate(V, replace(cert, terms=cert.terms + (extra,))) \
        is False
    term = replace(cert.terms[0], sub=make(cert.terms[0].sub))
    assert verify_certificate(V, replace(cert, terms=(term,))) is False
    assert verify_certificate(V, replace(cert, target=make(cert.target))) \
        is False


@pytest.mark.parametrize("cert", [
    None, (), "cert", Certificate(None, (), "x"),
    Certificate(taylor_binomial(villarreal_ideal(), (1,), (2,)), None, "x"),
    Certificate(taylor_binomial(villarreal_ideal(), (1,), (2,)), (None,), "x"),
], ids=["None", "tuple", "str", "no target", "terms None", "term None"])
def test_not_a_certificate(cert):
    assert verify_certificate(villarreal_ideal(), cert) is False
