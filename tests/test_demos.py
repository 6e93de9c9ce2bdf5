import random

import pytest

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
from reeskit.monomials import Monomial, mono_mul, validate_ideal
from reeskit.taylor import (
    product_of,
    substitute_check,
    taylor_binomial,
    weighted_degree,
)


def test_villarreal_generators():
    V = villarreal_ideal()
    assert V.n == 4
    assert [g.degree for g in V.gens] == [3, 3, 3, 3]


def test_pentagon_generators():
    P = pentagon_ideal()
    assert P.n == 5
    assert P.generator(2).degree == 4


def test_triangle_and_path():
    assert triangle_ideal().n == 3
    assert path_ideal(6).n == 6
    assert path_ideal(2).n == 2
    with pytest.raises(ValueError, match="at least 2 edges"):
        path_ideal(1)


def power(m, k):
    return Monomial.from_dict({v: e * k for v, e in m.exps})


def monomial_grid_scan(n):
    """The exponent triples of family_corrected_g's audit, scanned on
    Monomial products over the same grid, as its packed scan replaced."""
    ideal = family_ideal(n)
    z = Monomial.from_support([ideal.table.index("z")])
    y = Monomial.from_support([ideal.table.index("y")])
    base = tuple(range(2, n - 1))
    z_base = mono_mul(z, product_of(ideal, base))
    pow_1, pow_prev, pow_last = (
        [power(ideal.generator(i), e) for e in range(3 * n)]
        for i in (1, n - 1, n))
    solutions = []
    for e1 in range(0, 2 * n):
        lhs = mono_mul(z_base, pow_1[e1])
        for e2 in range(0, 2 * n):
            e3 = e1 + len(base) - e2
            if e3 < 0:
                continue
            rhs = mono_mul(y, mono_mul(pow_prev[e2], pow_last[e3]))
            if lhs == rhs:
                solutions.append((e1, e2, e3))
    return solutions


class TestFamily:
    def test_ideal_shape(self):
        for n in (5, 6, 7, 8):
            I = family_ideal(n)
            assert I.n == n
            validate_ideal(I.table, I.gens)

    def test_rejects_small_n(self):
        with pytest.raises(Exception):
            family_ideal(4)

    def test_f_binomial_degree_and_units(self):
        for n in (5, 6, 7):
            F = family_f_binomial(n)
            assert F.degree == 2 * n - 7
            assert F.lhs_coef.is_one and F.rhs_coef.is_one
            assert substitute_check(family_ideal(n), F)

    def test_f_is_weighted_homogeneous(self):
        I = family_ideal(6)
        u, v = family_f_binomial(6).terms()
        assert weighted_degree(I, u) == weighted_degree(I, v)

    def test_corrected_g_audit(self):
        for n in (5, 6, 7):
            I = family_ideal(n)
            G, audit = family_corrected_g(n)
            assert substitute_check(I, G)
            # the naive exponent triple is not T-homogeneous
            assert not audit["naive_substitution_equal"]
            lo, hi = audit["naive_tdegrees"]
            assert lo != hi
            # the corrected triple is the unique homogeneous solution
            assert audit["corrected_exponents"] == (n - 5, n - 4, n - 4)
            assert audit["solutions"] == [(n - 5, n - 4, n - 4)]

    def test_corrected_g_matches_the_monomial_grid_scan(self):
        # the packed scan's field width is (3n).bit_length(); a width too
        # narrow for some n would carry between fields and change the
        # solutions, so n runs well past the demo sizes
        for n in range(5, 31):
            G, audit = family_corrected_g(n)
            solutions = monomial_grid_scan(n)
            assert audit["solutions"] == solutions
            assert audit["corrected_exponents"] == solutions[0]
            e1, e2, e3 = solutions[0]
            base = tuple(range(2, n - 1))
            assert audit["corrected_tdegree"] == e1 + len(base)
            assert G == taylor_binomial(
                family_ideal(n), tuple(sorted((1,) * e1 + base)),
                (n - 1,) * e2 + (n,) * e3)

    def test_corrected_g_coefficients(self):
        I = family_ideal(5)
        G, _ = family_corrected_g(5)
        z = I.table.index("z")
        y = I.table.index("y")
        assert G.lhs_coef.as_dict().get(z) == 1
        assert G.rhs_coef.as_dict().get(y) == 1


class TestRandomGenerators:
    def test_random_ideal_always_valid(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 5)
            I = random_ideal(rng, n, n + 3)
            validate_ideal(I.table, I.gens)

    def test_random_ideal_infeasible_corner_raises(self):
        rng = random.Random(0)
        with pytest.raises(RuntimeError):
            # 11 pairwise-incomparable supports of size 2..3 over 4
            # variables do not exist
            random_ideal(rng, 11, 4)

    @pytest.mark.parametrize("n, num_vars", [(0, 5), (3, 2)])
    def test_random_ideal_rejects_no_generators_or_few_variables(
            self, n, num_vars):
        with pytest.raises(ValueError, match="need n >= 1 and num_vars >= 3"):
            random_ideal(random.Random(0), n, num_vars)

    def test_shape_ideals_valid_and_deterministic(self):
        for shape in ("forest", "odd-cycle", "even-cycle"):
            a = random_shape_ideal(shape, 6, seed=2)
            b = random_shape_ideal(shape, 6, seed=2)
            assert a == b
            validate_ideal(a.table, a.gens)

    def test_extra_vars_sprinkle(self):
        lean = random_shape_ideal("forest", 5, seed=4)
        fat = random_shape_ideal("forest", 5, extra_vars=3, seed=4)
        assert len(fat.table) == len(lean.table) + 3

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            random_shape_ideal("clique", 5, seed=0)
