import random

import pytest

from reeskit.classify import (
    Inconsistency,
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
from reeskit.graphs import even_closed_walk
from reeskit.monomials import make_ideal
from reeskit.oracle import default_s_max, member_lower
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
