import random

import pytest
from hypothesis import given, strategies as st

from reeskit.demos import (
    family_ideal,
    path_ideal,
    pentagon_ideal,
    random_ideal,
    triangle_ideal,
    villarreal_ideal,
)
from reeskit.monomials import (
    IdealValidationError,
    Monomial,
    SquareFreeIdeal,
    VariableTable,
    make_ideal,
    mono_coprime,
    mono_divides,
    mono_gcd,
    mono_mul,
    mono_product,
    render_monomial,
    validate_ideal,
)


def default_table(num_vars):
    return VariableTable(tuple(f"x{i}" for i in range(1, num_vars + 1)))


def div_exact(a, b):
    """a / b, exponent by exponent; b must divide a."""
    q = a.as_dict()
    for v, e in b.exps:
        q[v] = q.get(v, 0) - e
    if min(q.values(), default=0) < 0:
        raise ValueError(f"inexact division: {a!r} / {b!r}")
    return Monomial.from_dict(q)


def m(**exps):
    """Monomial from keyword exponents over variable indices v0, v1, ..."""
    return Monomial.from_dict({int(k[1:]): e for k, e in exps.items()})


class TestMonomialBasics:
    def test_one(self):
        assert Monomial.one().is_one
        assert Monomial.one().degree == 0
        assert m().is_one

    def test_normalization_drops_zero_exponents(self):
        assert m(v0=1, v1=0) == m(v0=1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial(((0, -1),))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            Monomial(((2, 1), (0, 1)))

    @pytest.mark.parametrize("exps", [((0, -1),), ((2, 1), (0, 1)),
                                      ((1, 1), (1, 2)), ((-1, 1),),
                                      ((0, 0),)])
    def test_malformed_message(self, exps):
        # the constructor keeps its check; arithmetic results skip it
        with pytest.raises(ValueError) as err:
            Monomial(exps)
        assert str(err.value) == f"malformed exponent tuple {exps!r}"

    @pytest.mark.parametrize("exps", [((0, 1.5),), ((0.5, 1),), ((0, 2.0),),
                                      ((True, 1),), ((0, True),),
                                      ((1, 1), ("2", 1))])
    def test_non_int_variable_or_exponent_rejected(self, exps):
        # a float exponent gave degree 1.5 and a float variable broke
        # render_monomial; a bool is refused though it is an int
        with pytest.raises(ValueError) as err:
            Monomial(exps)
        assert str(err.value) == f"malformed exponent tuple {exps!r}"

    @pytest.mark.parametrize("exps", [{0: 2.0}, {1.0: 1}, {0: True}])
    def test_from_dict_rejects_non_int(self, exps):
        with pytest.raises(ValueError, match="malformed exponent tuple"):
            Monomial.from_dict(exps)

    def test_degree_and_support(self):
        a = m(v0=2, v3=1)
        assert a.degree == 3
        assert a.support == frozenset({0, 3})

    def test_squarefree_flag(self):
        assert m(v0=1, v2=1).is_squarefree
        assert not m(v0=2).is_squarefree

    def test_from_support(self):
        assert Monomial.from_support([3, 1]) == m(v1=1, v3=1)


class TestArithmetic:
    def test_mul(self):
        assert mono_mul(m(v0=1), m(v0=1, v1=2)) == m(v0=2, v1=2)

    def test_gcd(self):
        a, b = m(v0=2, v1=1), m(v0=1, v2=3)
        assert mono_gcd(a, b) == m(v0=1)

    def test_divides(self):
        assert mono_divides(m(v0=1), m(v0=2, v1=1))
        assert not mono_divides(m(v0=3), m(v0=2))

    def test_coprime(self):
        assert mono_coprime(m(v0=1), m(v1=1))
        assert not mono_coprime(m(v0=1), m(v0=1, v1=1))

    def test_product(self):
        assert mono_product([m(v0=1), m(v0=1, v1=1), m(v2=2)]) == m(
            v0=2, v1=1, v2=2)
        assert mono_product([]).is_one


# small random monomials for algebraic identities
monomials = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=4),
    max_size=4,
).map(Monomial.from_dict)


@given(monomials, monomials)
def test_gcd_divides_both(a, b):
    g = mono_gcd(a, b)
    assert mono_divides(g, a) and mono_divides(g, b)


@given(monomials, monomials)
def test_cofactors_are_coprime(a, b):
    g = mono_gcd(a, b)
    assert mono_coprime(div_exact(a, g), div_exact(b, g))


@given(monomials, monomials, monomials)
def test_gcd_is_associative(a, b, c):
    assert mono_gcd(mono_gcd(a, b), c) == mono_gcd(a, mono_gcd(b, c))


@given(monomials, monomials)
def test_unchecked_results_pass_the_constructor_check(a, b):
    # arithmetic builds its results without the check; each one must be a
    # tuple the checked constructor accepts, and equal to what it builds
    ab = mono_mul(a, b)
    for r in (ab, mono_gcd(a, b), mono_product([a, b, a])):
        assert Monomial(r.exps) == r


@given(monomials, monomials, monomials)
def test_mul_distributes_over_gcd(a, b, c):
    assert mono_mul(a, mono_gcd(b, c)) == mono_gcd(mono_mul(a, b),
                                                   mono_mul(a, c))


class TestVariableTable:
    def test_names(self):
        t = VariableTable(("x", "y"))
        assert len(t) == 2
        assert t.index("y") == 1

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            VariableTable(("x", "x"))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            VariableTable(("x",)).index("y")


class TestRender:
    def test_unit(self):
        assert render_monomial(Monomial.one(), default_table(2)) == "1"

    def test_powers_and_sep(self):
        t = default_table(3)
        assert render_monomial(m(v0=2, v2=1), t) == "x1^2*x3"


class TestIdealValidation:
    def test_make_ideal(self):
        ideal = make_ideal(["a", "b", "c"], [[0, 1], [1, 2]])
        assert ideal.n == 2
        assert ideal.generator(1) == m(v0=1, v1=1)

    def test_empty(self):
        with pytest.raises(IdealValidationError) as err:
            make_ideal(["a"], [])
        assert err.value.reason == "empty"
        with pytest.raises(IdealValidationError) as err:
            VariableTable(())
        assert err.value.reason == "empty"

    def test_duplicate_generator(self):
        with pytest.raises(IdealValidationError) as err:
            make_ideal(["a", "b"], [[0, 1], [0, 1]])
        assert err.value.reason == "duplicate"

    def test_divisibility(self):
        with pytest.raises(IdealValidationError) as err:
            make_ideal(["a", "b"], [[0], [0, 1]])
        assert err.value.reason == "divisibility"
        with pytest.raises(IdealValidationError) as err:
            validate_ideal(default_table(2), (Monomial.one(),))
        assert err.value.reason == "divisibility"

    def test_non_squarefree(self):
        table = default_table(2)
        with pytest.raises(IdealValidationError) as err:
            validate_ideal(table, (m(v0=2),))
        assert err.value.reason == "non-square-free"

    def test_bad_variable(self):
        table = default_table(2)
        with pytest.raises(IdealValidationError) as err:
            validate_ideal(table, (m(v5=1),))
        assert err.value.reason == "bad-variable"

    def test_comment_sign_in_variable_name(self):
        # '#' would start a comment in the rendered ideal file
        with pytest.raises(IdealValidationError) as err:
            make_ideal(["a#1", "b", "c"], [[0, 1], [1, 2]])
        assert err.value.reason == "bad-variable"

    def test_generator_index_is_one_based(self):
        ideal = make_ideal(["a", "b", "c"], [[0, 1], [1, 2]])
        with pytest.raises(IndexError):
            ideal.generator(0)


SUPPORT_IDEALS = {"villarreal": villarreal_ideal(), "pentagon": pentagon_ideal(),
                  "triangle": triangle_ideal(), "path4": path_ideal(4),
                  "family6": family_ideal(6),
                  **{f"random{k}": random_ideal(random.Random(k), 5, 8)
                     for k in range(0, 60, 6)}}


class TestSupportTable:
    @pytest.mark.parametrize("ideal", list(SUPPORT_IDEALS.values()),
                             ids=list(SUPPORT_IDEALS))
    def test_matches_the_generators(self, ideal):
        assert len(ideal.supports) == ideal.n
        for i in range(1, ideal.n + 1):
            assert ideal.supports[i - 1] == ideal.generator(i).support

    def test_not_part_of_equality_or_repr(self):
        a = make_ideal(["a", "b", "c"], [[0, 1], [1, 2]])
        b = make_ideal(["a", "b", "c"], [[0, 1], [1, 2]])
        assert a == b and hash(a) == hash(b)
        assert "supports" not in repr(a)

    def test_a_warmed_layout_is_not_part_of_equality_or_repr(self):
        a = make_ideal(["a", "b", "c"], [[0, 1], [1, 2]])
        b = make_ideal(["a", "b", "c"], [[0, 1], [1, 2]])
        a.layout(3)
        a.layout(5)
        assert sorted(a.packed) == [3, 5] and not b.packed
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_n_is_not_part_of_equality_hash_or_repr(self):
        a = make_ideal(["a", "b", "c"], [[0, 1], [1, 2]])
        b = make_ideal(["a", "b", "c"], [[0, 1], [1, 2]])
        assert a.n == b.n == 2
        object.__setattr__(b, "n", 7)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert ", n=" not in repr(a)
        with pytest.raises(TypeError):
            SquareFreeIdeal(a.table, a.gens, n=2)

    @pytest.mark.parametrize("w", [2, 3, 5])
    def test_layout_fields(self, w):
        # table variables a, b, c, then T_1, T_2, each in w bits
        ideal = make_ideal(["a", "b", "c"], [[0, 1], [1, 2]])
        gen, tunit, xunit, guards = ideal.layout(w)
        assert gen == [0, 1 + (1 << w), (1 << w) + (1 << 2 * w)]
        assert tunit == [0, 1 << 3 * w, 1 << 4 * w]
        assert xunit == [1 << w * v for v in range(3)]
        assert guards == sum(1 << (w * v + w - 1) for v in range(3))
        assert ideal.layout(w) is ideal.layout(w)

    def test_validate_ideal_returns_the_supports(self):
        ideal = make_ideal(["a", "b", "c"], [[0, 1], [1, 2]])
        assert validate_ideal(ideal.table, ideal.gens) == (
            frozenset({0, 1}), frozenset({1, 2}))
