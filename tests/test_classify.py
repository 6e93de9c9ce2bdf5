import collections
import functools
import itertools
import random
import time

import pytest

from reeskit.classify import (
    Inconsistency,
    NonlinearEvidence,
    classify,
    cross_validate,
    nonlinear_witnesses,
)
from reeskit.demos import (
    family_ideal,
    path_ideal,
    pentagon_ideal,
    random_ideal,
    random_shape_ideal,
    triangle_ideal,
    villarreal_ideal,
)
from reeskit.graphs import build_graph, components, even_closed_walk
from reeskit.monomials import make_ideal
from reeskit.oracle import default_s_max, member_lower
from reeskit.reduction import irredundancy_witness
from reeskit.taylor import substitute_check, taylor_binomial


class TestClassify:
    def test_path_is_linear_type(self):
        report = classify(path_ideal(4))
        assert report.verdict == "LinearType"
        assert report.rt_bound is None
        tags = [tag for tag, _ in report.justification]
        assert "component-structure" in tags

    def test_triangle_is_linear_type(self):
        report = classify(triangle_ideal())
        assert report.verdict == "LinearType"

    def test_villarreal_bound_two_with_witness(self):
        report = classify(villarreal_ideal())
        assert report.verdict == "RtAtMost(2)"
        assert len(report.witnesses) >= 1
        ev = report.witnesses[0]
        assert (ev.binomial.alpha, ev.binomial.beta) == ((1, 3), (2, 4))
        assert ev.walk.length % 2 == 0

    def test_pentagon_bound_three(self):
        report = classify(pentagon_ideal())
        assert report.verdict == "RtAtMost(3)"

    def test_disjoint_small_components(self):
        # two 4-cycles glued disjointly: 8 generators, every component <= 5
        names = [f"a{i}" for i in range(7)] + [f"b{i}" for i in range(7)]
        cyc = [[0, 1, 2], [1, 3, 4], [4, 5, 6], [2, 5, 6]]
        supports = cyc + [[v + 7 for v in s] for s in cyc]
        I = make_ideal(names, supports)
        report = classify(I)
        assert report.verdict == "RtAtMost(3)"
        tags = [tag for tag, _ in report.justification]
        assert "small-components-bound" in tags

    def test_large_even_cycle_is_unknown(self):
        supports = [sorted((i, (i + 1) % 6)) for i in range(6)]
        I = make_ideal([f"x{i}" for i in range(1, 7)], supports)
        report = classify(I)
        assert report.verdict == "Unknown"
        assert report.oracle_hint

    def test_family_is_out_of_scope_of_graph_rules(self):
        report = classify(family_ideal(6))
        # n = 6 with one big component of 6 vertices: no ladder rung fits
        assert report.verdict == "Unknown"
        assert report.oracle_hint.endswith(f"--s-max {default_s_max(6)}")

    def test_witness_search_rejects_large_components(self):
        with pytest.raises(ValueError):
            nonlinear_witnesses(family_ideal(6))

    def test_linear_type_when_witness_search_empty(self):
        # a diamond-free chordal-ish example: 4 generators sharing one hub
        # variable pairwise has many cycles, but n <= 5 still bounds rt;
        # the verdict only upgrades to LinearType when no witness exists
        I = make_ideal(["h", "p1", "p2", "p3"],
                       [[0, 1], [0, 2], [0, 3], [1, 2, 3]])
        report = classify(I)
        if report.verdict == "LinearType":
            assert not report.witnesses
        else:
            assert report.verdict.startswith("RtAtMost")


class TestNonlinearWitnesses:
    def test_villarreal_unique_quadratic(self):
        V = villarreal_ideal()
        evs = nonlinear_witnesses(V)
        assert len(evs) == 1
        ev = evs[0]
        assert substitute_check(V, ev.binomial)
        assert ev.witness.check(V)

    def test_pentagon_has_the_cubic(self):
        P = pentagon_ideal()
        evs = nonlinear_witnesses(P)
        pairs = {(e.binomial.alpha, e.binomial.beta) for e in evs}
        assert ((1, 1, 4), (2, 3, 5)) in pairs

    def test_forest_has_none(self):
        assert nonlinear_witnesses(path_ideal(4)) == ()

    def test_walks_are_even_and_closed(self):
        P = pentagon_ideal()
        for ev in nonlinear_witnesses(P):
            assert ev.walk.length % 2 == 0
            assert ev.walk.vertices[0] == ev.walk.vertices[-1]
            recomputed = even_closed_walk(P, ev.witness)
            assert recomputed.vertices == ev.walk.vertices


def _seen_set_witnesses(ideal):
    """A reference witness search that draws candidates from all n
    generators, whatever their components, remembers every pair it has
    tried and skips a pair met before."""
    n = ideal.n
    comps = components(build_graph(ideal))
    if n > 5 and any(len(c) > 5 for c in comps):
        raise ValueError("witness search requires at most five generators "
                         "or small components")
    top = n - 2 if n <= 5 else min(3, n - 2)
    found = []
    seen = set()
    for s in range(2, top + 1):
        for avec in itertools.combinations(range(1, n + 1), s):
            rest = [i for i in range(1, n + 1) if i not in avec]
            for b1, b2 in itertools.permutations(rest, 2):
                beta = tuple(sorted((b1,) * (s - 1) + (b2,)))
                alo, bhi = sorted((avec, beta))
                if (alo, bhi) in seen:
                    continue
                seen.add((alo, bhi))
                w = irredundancy_witness(ideal, alo, bhi)
                if w is None:
                    continue
                found.append(NonlinearEvidence(
                    taylor_binomial(ideal, alo, bhi), w,
                    even_closed_walk(ideal, w)))
    return tuple(found)


def _disjoint_union(first, second):
    """first's generators beside second's, on disjoint variables."""
    k = len(first.table)
    return make_ideal(
        [f"a{v}" for v in range(k)]
        + [f"b{v}" for v in range(len(second.table))],
        [sorted(g) for g in first.supports]
        + [sorted(k + v for v in g) for g in second.supports])


def _outcome(search, ideal):
    try:
        return search(ideal)
    except ValueError as exc:
        return str(exc)


def test_witness_search_meets_each_candidate_once_in_the_old_order():
    # the search, which remembers no pair and stays inside each component,
    # returns the same evidence in the same order as the reference that
    # remembers every pair and draws from all generators
    V, P = villarreal_ideal(), pentagon_ideal()
    ideals = [V, P, triangle_ideal(), path_ideal(4),
              _disjoint_union(V, P), _disjoint_union(V, V),
              _disjoint_union(P, P), _disjoint_union(_disjoint_union(V, P), V),
              _disjoint_union(_disjoint_union(P, V), P)]
    ideals += [random_ideal(random.Random(k), 3 + k % 3, 8)
               for k in range(300)]
    ideals += [_disjoint_union(random_ideal(random.Random(k), 3 + k % 3, 8),
                               random_ideal(random.Random(k + 1), 5, 8))
               for k in range(1000, 1020)]
    ideals += [random_shape_ideal(shape, n, seed=seed)
               for shape in ("forest", "odd-cycle", "even-cycle")
               for n in range(4, 9) for seed in range(12)]
    outcomes = [_outcome(nonlinear_witnesses, ideal) for ideal in ideals]
    for ideal, got in zip(ideals, outcomes):
        assert got == _outcome(_seen_set_witnesses, ideal), ideal
    # 79 of the 509 have witnesses; 92 are refused as out of scope
    assert sum(isinstance(got, tuple) and got != () for got in outcomes) >= 75


def _shifted(evidence, offset):
    return [tuple(tuple(i + offset for i in row)
                  for row in (e.binomial.alpha, e.binomial.beta))
            for e in evidence]


def test_six_small_components_classify_fast_with_each_ones_witnesses():
    # three squares and three pentagons, alternating (n = 27): every
    # witness row is the square's or the pentagon's, shifted onto its
    # component
    parts = [villarreal_ideal(), pentagon_ideal()] * 3
    ideal = functools.reduce(_disjoint_union, parts)
    start = time.perf_counter()
    report = classify(ideal)
    elapsed = time.perf_counter() - start
    assert report.verdict == "RtAtMost(3)"
    expected, offset = [], 0
    for part in parts:
        expected += _shifted(nonlinear_witnesses(part), offset)
        offset += part.n
    assert len(expected) == 24
    assert sorted(_shifted(report.witnesses, 0)) == sorted(expected)
    assert elapsed < 2.0, elapsed


class TestShapeFamilies:
    def test_forests_are_linear(self):
        for seed in range(15):
            I = random_shape_ideal("forest", 4 + seed % 3, seed=seed)
            assert classify(I).verdict == "LinearType", seed

    def test_odd_cycles_are_linear(self):
        for seed in range(15):
            I = random_shape_ideal("odd-cycle", 4 + seed % 3, seed=seed)
            assert classify(I).verdict == "LinearType", seed


class TestOracleConfirmedWitnesses:
    def test_refuted_pattern_leaves_linear_type(self):
        # seed 1113 carried only a pattern whose pair reduces; the oracle's
        # lower bound is 1
        I = random_ideal(random.Random(1113), 5, 8)
        report = classify(I)
        assert report.verdict == "LinearType"
        assert not report.witnesses
        assert cross_validate(I).rt_report.certified_lower == 1

    def test_refuted_pattern_dropped_genuine_kept(self):
        I = random_ideal(random.Random(1063), 5, 8)
        report = classify(I)
        pairs = [(ev.binomial.alpha, ev.binomial.beta)
                 for ev in report.witnesses]
        assert ((2, 5), (3, 4)) not in pairs
        assert pairs == [((1, 5), (2, 4))]
        assert cross_validate(I).rt_report.certified_lower == 2

    def test_every_reported_witness_is_oracle_confirmed(self):
        confirmed = 0
        for seed in range(400):
            I = random_ideal(random.Random(seed), 5, 8)
            for ev in classify(I).witnesses:
                b = ev.binomial
                assert member_lower(I, b, b.degree - 1).is_no, \
                    (seed, b.alpha, b.beta)
                confirmed += 1
        assert confirmed > 100


class TestCrossValidate:
    def test_villarreal_consistent(self):
        cross = cross_validate(villarreal_ideal(), s_max=3)
        assert cross.rt_report.certified_lower == 2
        assert cross.classification.verdict == "RtAtMost(2)"

    def test_pentagon_consistent(self):
        cross = cross_validate(pentagon_ideal(), s_max=3)
        assert cross.rt_report.certified_lower == 3

    def test_linear_shapes_consistent(self):
        for seed in (0, 1, 2):
            I = random_shape_ideal("forest", 4, seed=seed)
            cross = cross_validate(I, s_max=3)
            assert cross.rt_report.certified_lower == 1

    @pytest.mark.parametrize("s_max", [True, 2.5])
    def test_refuses_a_bound_that_is_not_an_int(self, s_max):
        # True would cross-check no layer and report no error
        with pytest.raises(ValueError, match="s_max must be an int"):
            cross_validate(pentagon_ideal(), s_max)

    def test_refuses_a_top_layer_beyond_sys_maxsize(self):
        with pytest.raises(ValueError, match="s_max 10+ is too large"):
            cross_validate(villarreal_ideal(), 10**20)
        cross = cross_validate(villarreal_ideal(), 3)
        assert cross.rt_report.verified_upper_through == 3

    def test_wide_inputs_cross_validate_fast(self):
        # shapes with n = 10 and square + pentagon + square (n = 13) at
        # s_max 5: each layer's wide sweep settles most betas per alpha
        cases = [(random_shape_ideal(shape, 10, seed=seed), expected)
                 for shape, results in [
                     ("forest", [("LinearType", 1)] * 2),
                     ("odd-cycle", [("LinearType", 1)] * 2),
                     ("even-cycle", [("Unknown", 5), ("Unknown", 3)])]
                 for seed, expected in enumerate(results)]
        cases.append((functools.reduce(_disjoint_union, [
            villarreal_ideal(), pentagon_ideal(), villarreal_ideal()]),
            ("RtAtMost(3)", 3)))
        start = time.perf_counter()
        for ideal, expected in cases:
            cross = cross_validate(ideal, s_max=5)
            assert (cross.classification.verdict,
                    cross.rt_report.certified_lower) == expected
        assert time.perf_counter() - start < 2.0

    def test_inconsistency_raises(self, monkeypatch):
        # feed cross_validate a cooked LinearType verdict for an ideal whose
        # oracle lower bound is 2: the contradiction must raise
        import dataclasses

        V = villarreal_ideal()
        lied = dataclasses.replace(classify(V), verdict_kind="linear_type",
                                   rt_bound=None)
        monkeypatch.setattr("reeskit.classify.classify", lambda ideal: lied)
        with pytest.raises(Inconsistency) as err:
            cross_validate(V, s_max=3)
        assert err.value.rt_report.certified_lower == 2
        assert err.value.classification.verdict == "LinearType"

    def test_reported_witness_that_reduces_raises(self, monkeypatch):
        # a cooked witness list naming a pair the oracle reduces
        import dataclasses

        P = path_ideal(4)
        real = classify(villarreal_ideal())
        cooked = dataclasses.replace(
            real, verdict_kind="rt_at_most", rt_bound=2,
            witnesses=(dataclasses.replace(
                real.witnesses[0],
                binomial=taylor_binomial(P, (1, 2), (3, 4))),))
        monkeypatch.setattr("reeskit.classify.classify", lambda ideal: cooked)
        with pytest.raises(Inconsistency) as err:
            cross_validate(P, s_max=3)
        assert "reduces" in str(err.value)


def column_type_classes(n):
    """Every ideal with n generators up to isomorphism, as its sorted column
    types: the bitmask of the generators containing each variable.  A fiber
    depends only on the set of column types.  The types are proper nonempty
    subsets that separate every ordered pair (no generator divides another);
    the canonical form is the least image under S_n, found by brute force."""
    images = [[sum(1 << p[i] for i in range(n) if t >> i & 1)
               for t in range(1 << n)]
              for p in itertools.permutations(range(n))]
    pairs = [(1 << i, 1 << j) for i in range(n) for j in range(n) if i != j]
    types = range(1, (1 << n) - 1)
    classes = set()
    for k in range(len(types) + 1):
        for combo in itertools.combinations(types, k):
            if all(any(t & i and not t & j for t in combo) for i, j in pairs):
                classes.add(min(tuple(sorted(map(image.__getitem__, combo)))
                                for image in images))
    return sorted(classes)


def column_type_ideal(n, types):
    """One variable per column type; the single class at n = 1 has no
    type, so its generator gets one variable of the full type [1]."""
    types = types or ((1 << n) - 1,)
    return make_ideal([f"x{v}" for v in range(len(types))],
                      [[v for v, t in enumerate(types) if t >> i & 1]
                       for i in range(n)])


@pytest.mark.parametrize("n, count, tally", [
    (1, 1, {("LinearType", 1): 1}),
    (2, 1, {("LinearType", 1): 1}),
    (3, 8, {("LinearType", 1): 8}),
    (4, 606, {("LinearType", 1): 416, ("RtAtMost(2)", 2): 190}),
])
def test_every_small_ideal_cross_validates(n, count, tally):
    # exhaustive up to isomorphism: an Inconsistency would raise here
    classes = column_type_classes(n)
    assert len(classes) == count
    verdicts = collections.Counter()
    for types in classes:
        cross = cross_validate(column_type_ideal(n, types))
        verdicts[cross.classification.verdict,
                 cross.rt_report.certified_lower] += 1
    assert verdicts == tally
