import collections
import dataclasses
import itertools
import math
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
from reeskit.monomials import (
    Monomial,
    make_ideal,
    mono_divides,
    mono_gcd,
    mono_mul,
    mono_product,
)
from reeskit.reduction import (
    Certificate,
    CertTerm,
    IrredundancyWitness,
    fiber_certificate,
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
    verify_certificate,
)
from reeskit.graphs import components, induced_subgraph
from reeskit.oracle import member_lower, relation_type_estimate
from reeskit.taylor import (
    ReesBinomial,
    enumerate_sequences,
    product_of,
    run_lengths,
    seq_intersection,
    seq_remove,
    taylor_binomial,
    taylor_layer,
)


def div_exact(a, b):
    """a / b, exponent by exponent; b must divide a."""
    q = a.as_dict()
    for v, e in b.exps:
        q[v] = q.get(v, 0) - e
    if min(q.values(), default=0) < 0:
        raise ValueError(f"inexact division: {a!r} / {b!r}")
    return Monomial.from_dict(q)


def seq_union(a, b):
    """The multiset union of two index sequences, sorted."""
    return tuple(sorted(a + b))


def cycle_ideal(n):
    """Edge ideal of the n-cycle: f_i = x_i x_{i+1 mod n}."""
    supports = [sorted((i, (i + 1) % n)) for i in range(n)]
    return make_ideal([f"x{i + 1}" for i in range(n)], supports)


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

    @pytest.mark.parametrize("ideal, top", [(villarreal_ideal(), 6),
                                            (pentagon_ideal(), 4)],
                             ids=["square", "pentagon"])
    def test_matches_the_gcd_of_all_run_lengths(self, ideal, top):
        # the early exit for an index that occurs once changes no answer
        hits = 0
        for s in range(2, top + 1):
            for alpha, beta in itertools.permutations(
                    enumerate_sequences(ideal.n, s), 2):
                target = taylor_binomial(ideal, alpha, beta)
                cert = reduction._power_factor(ideal, target)
                assert cert == power_factor_by_runs(ideal, target)
                hits += cert is not None
        assert hits > 0


def power_factor_by_runs(ideal, target):
    """The power-factor body without the early exit: l is the gcd of every
    run length of both rows."""
    runs = (run_lengths(target.alpha), run_lengths(target.beta))
    l = math.gcd(*(m for row in runs for _, m in row))
    if l < 2:
        return None
    base_a, base_b = (tuple(idx for idx, m in row for _ in range(m // l))
                      for row in runs)
    base = taylor_binomial(ideal, base_a, base_b)
    steps = [(tuple(sorted(base_a * (l - 1 - j) + base_b * j)), base)
             for j in range(l)]
    return Certificate(target, reduction._walk(target, steps),
                       "power_factor", "as-given",
                       note=f"difference of {l}-th powers of the base pair")


class HypothesisFails(Exception):
    """The split lemma's gcd hypothesis fails; index is the first bad block."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


def gcd_hypothesis_split(ideal, blocks, rule_name="split", note=""):
    """The certificate of a split of aligned blocks ((alpha_1, beta_1), ...,
    (alpha_m, beta_m)), written with the split lemma's gcd hypothesis and
    prefix/suffix products, as a reference for the fiber walk; the target
    pair is the sorted concatenation of the two columns.  Raises
    HypothesisFails at the first block whose hypothesis fails; a block
    with alpha_i == beta_i is skipped."""
    target = taylor_binomial(ideal, sorted(c for a, _ in blocks for c in a),
                             sorted(c for _, b in blocks for c in b))
    m = len(blocks)
    fa = [product_of(ideal, a) for a, _ in blocks]
    fb = [product_of(ideal, b) for _, b in blocks]
    full_beta = product_of(ideal, target.beta)
    g = mono_gcd(product_of(ideal, target.alpha), full_beta)
    one = Monomial.one()
    prefix_a = [one]
    for i in range(m):
        prefix_a.append(mono_mul(prefix_a[-1], fa[i]))
    suffix_a = [one] * (m + 1)
    suffix_b = [one] * (m + 1)
    for i in reversed(range(m)):
        suffix_a[i] = mono_mul(suffix_a[i + 1], fa[i])
        suffix_b[i] = mono_mul(suffix_b[i + 1], fb[i])
    terms = []
    for i in range(m):
        a_i, b_i = blocks[i]
        if a_i == b_i:
            continue
        g_i = mono_gcd(fa[i], fb[i])
        hyp = mono_mul(mono_mul(mono_gcd(prefix_a[i], full_beta),
                                mono_gcd(suffix_a[i], suffix_b[i + 1])), g_i)
        if not mono_divides(g, hyp):
            raise HypothesisFails(i + 1,
                                  f"gcd hypothesis fails at block {i + 1}")
        coef = div_exact(
            mono_mul(mono_mul(prefix_a[i], suffix_b[i + 1]), g_i), g)
        tfactor = tuple(sorted(
            [c for j in range(i + 1, m) for c in blocks[j][0]]
            + [c for j in range(i) for c in blocks[j][1]]))
        terms.append(CertTerm(coef, tfactor, taylor_binomial(ideal, a_i, b_i)))
    return Certificate(target, tuple(terms), rule_name, "as-given", note)


def walk_split(ideal, blocks):
    """The split the rules build with reduction._split, on the target pair
    of the sorted concatenation of the two columns.  The walk raises
    ValueError at the first swap whose node leaves the fiber."""
    target = taylor_binomial(ideal, sorted(c for a, _ in blocks for c in a),
                             sorted(c for _, b in blocks for c in b))
    return Certificate(target, reduction._split(ideal, target, blocks),
                       "split", "as-given")


def block_node(blocks, index):
    """The common part c of the swap of 1-based block index."""
    i = index - 1
    return tuple(sorted([c for _, b in blocks[:i] for c in b]
                        + [c for a, _ in blocks[i + 1:] for c in a]))


class TestSplitCertificate:
    def test_two_blocks_on_a_path(self):
        P = path_ideal(4)  # f_i = x_i x_{i+1}, i = 1..4
        cert = walk_split(P, (((2,), (3,)), ((1,), (4,))))
        assert cert.target.alpha == (1, 2)
        assert cert.target.beta == (3, 4)
        assert len(cert.terms) == 2
        assert verify_certificate(P, cert)

    def test_zero_block_skipped(self):
        P = path_ideal(4)
        cert = walk_split(P, (((1,), (1,)), ((2,), (4,))))
        assert len(cert.terms) == 1
        assert verify_certificate(P, cert)

    def test_hypothesis_failure_carries_block_index(self):
        # the same path pair with the wrong alignment: the shared variable
        # of the full products sits across the blocks, not inside one
        P = path_ideal(4)
        blocks = (((1,), (3,)), ((2,), (4,)))
        with pytest.raises(HypothesisFails) as err:
            gcd_hypothesis_split(P, blocks)
        assert err.value.index == 1
        assert "block 1" in str(err.value)
        with pytest.raises(ValueError, match=r"inexact step at node \(2,\)"):
            walk_split(P, blocks)


def random_partition(rng, n):
    """1-3 aligned blocks of size 1-2 over 1..n; about one block in five
    has alpha_i == beta_i, and indices repeat across the rows freely."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        t = rng.randint(1, 2)
        a = tuple(sorted(rng.choices(range(1, n + 1), k=t)))
        b = a if rng.random() < 0.2 else tuple(
            sorted(rng.choices(range(1, n + 1), k=t)))
        blocks.append((a, b))
    return tuple(blocks)


def test_walk_matches_the_gcd_hypothesis_split():
    # the hypothesis fails at block i exactly when swap i leaves the fiber,
    # where the walk finds no cofactor
    rng = random.Random(2012)
    outcomes = {"cert": 0, "fails": 0, "trivial": 0, "shared": 0}
    for k in range(40):
        ideal = random_ideal(random.Random(k), 5, 8)
        for _ in range(60):
            blocks = random_partition(rng, ideal.n)
            alpha = sorted(c for a, _ in blocks for c in a)
            beta = sorted(c for _, b in blocks for c in b)
            if alpha == beta:
                continue
            try:
                want = gcd_hypothesis_split(ideal, blocks)
            except HypothesisFails as exc:
                node = block_node(blocks, exc.index)
                with pytest.raises(ValueError) as err:
                    walk_split(ideal, blocks)
                assert str(err.value) == f"inexact step at node {node!r}"
                outcomes["fails"] += 1
            else:
                assert walk_split(ideal, blocks) == want
                outcomes["cert"] += 1
            outcomes["trivial"] += any(a == b for a, b in blocks)
            outcomes["shared"] += bool(set(alpha) & set(beta))
    assert min(outcomes.values()) > 200, outcomes


def test_walk_matches_the_power_and_shared_index_closed_forms():
    rng = random.Random(2013)
    checked = 0
    for k in range(20):
        ideal = random_ideal(random.Random(k), 5, 8)
        for _ in range(20):
            t, l = rng.randint(1, 2), rng.randint(2, 3)
            base_a, base_b = (tuple(sorted(rng.sample(range(1, ideal.n + 1), t)))
                              for _ in range(2))
            if set(base_a) & set(base_b):
                continue
            cert = rule_power_factor(ideal, tuple(sorted(base_a * l)),
                                     tuple(sorted(base_b * l)))
            base = taylor_binomial(ideal, base_a, base_b)
            ca, cb = base.lhs_coef, base.rhs_coef
            assert [(t.coef, t.tfactor, t.sub) for t in cert.terms] == [
                (mono_product([ca] * (l - 1 - j) + [cb] * j),
                 tuple(sorted(base_a * (l - 1 - j) + base_b * j)), base)
                for j in range(l)]
            shared = tuple(sorted(rng.choices(range(1, ideal.n + 1), k=t)))
            alpha = tuple(sorted(base_a + shared))
            beta = tuple(sorted(base_b + shared))
            (term,) = rule_shared_index(ideal, alpha, beta).terms
            assert term.coef == Monomial.one()
            assert term.tfactor == shared and term.sub == base
            checked += 1
    assert checked > 150


def test_walk_refuses_a_step_that_leaves_the_fiber():
    # on the square, x1 x2 x3^2 x6 x7 = f1 f4 does not divide
    # M = lcm(f1 f2, f3 f4), so the step from (1,2) to (1,4) has no cofactor
    V = villarreal_ideal()
    target = taylor_binomial(V, (1, 2), (3, 4))
    with pytest.raises(ValueError, match="inexact step"):
        reduction._walk(target, [((1,), taylor_binomial(V, (2,), (4,)))])


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


def swap_back(cert):
    """A certificate for (beta, alpha) as one for (alpha, beta): negating the
    target and every sub-binomial, which is the role swap, keeps the
    identity."""
    def neg(b):
        return ReesBinomial(b.beta, b.alpha, b.rhs_coef, b.lhs_coef)
    return dataclasses.replace(
        cert, target=neg(cert.target), orientation="swapped",
        terms=tuple(CertTerm(t.coef, t.tfactor, neg(t.sub))
                    for t in cert.terms))


def constant_row_by_partition(ideal, alpha, beta):
    """rule_constant_row written as the gcd-hypothesis split of its two
    blocks, swapped back when the constant row is beta."""
    for const, other, swapped in ((alpha, beta, False), (beta, alpha, True)):
        if len(set(const)) != 1 or len(const) < 2:
            continue
        a1 = const[0]
        pick = next((b for b in other if b != a1), None)
        if pick is None:
            continue
        cert = gcd_hypothesis_split(
            ideal, (((a1,), (pick,)),
                    ((a1,) * (len(const) - 1), seq_remove(other, (pick,)))),
            rule_name="constant_row",
            note=f"peel ({a1},{pick}) off the constant row")
        return swap_back(cert) if swapped else cert
    return None


# named ideals and a stride of random ones, compared on layers 2..3
PATTERN_IDEALS = {
    "villarreal": villarreal_ideal(),
    "pentagon": pentagon_ideal(),
    "triangle": triangle_ideal(),
    "path4": path_ideal(4),
    **{f"random{k}": random_ideal(random.Random(k), 5, 8)
       for k in range(0, 40, 7)},
}


def ordered_layer_pairs(ideal):
    for s in (2, 3):
        yield from itertools.permutations(enumerate_sequences(ideal.n, s), 2)


@pytest.mark.parametrize("ideal", list(PATTERN_IDEALS.values()),
                         ids=list(PATTERN_IDEALS))
def test_constant_row_matches_the_partition_split(ideal):
    hits = 0
    for alpha, beta in ordered_layer_pairs(ideal):
        cert = rule_constant_row(ideal, alpha, beta)
        assert cert == constant_row_by_partition(ideal, alpha, beta)
        hits += cert is not None
    assert hits > 0


def three_block_partitions(alpha, beta):
    """Every aligned three-block partition of (alpha, beta): blocks are
    pairs of equal-size sub-multisets, listed once per distinct choice."""
    def subs(seq, t):
        return sorted(set(itertools.combinations(seq, t)))

    s = len(alpha)
    for t1 in range(1, s - 1):
        for a1, b1 in itertools.product(subs(alpha, t1), subs(beta, t1)):
            rest_a, rest_b = seq_remove(alpha, a1), seq_remove(beta, b1)
            for t2 in range(1, s - t1):
                for a2, b2 in itertools.product(subs(rest_a, t2),
                                                subs(rest_b, t2)):
                    yield ((a1, b1), (a2, b2),
                           (seq_remove(rest_a, a2), seq_remove(rest_b, b2)))


def splits(ideal, blocks):
    try:
        gcd_hypothesis_split(ideal, blocks)
    except HypothesisFails:
        return False
    return True


# (ideal, layers): a stride of random ideals keeps the sweep near 4 s
COARSENING_CASES = {
    "villarreal": (villarreal_ideal(), (3, 4)),
    "pentagon": (pentagon_ideal(), (3, 4)),
    "path4": (path_ideal(4), (3, 4)),
    **{f"random{k}": (random_ideal(random.Random(k), 5, 8), (3,))
       for k in range(0, 30, 5)},
}


def block_disjoint_by_trial(ideal, alpha, beta):
    """rule_block_disjoint as a search that splits every aligned two-block
    partition with the gcd hypothesis and keeps the first that holds."""
    alpha, beta = tuple(alpha), tuple(beta)
    if seq_intersection(alpha, beta):
        return None
    for t in range(1, len(alpha)):
        for sub_a in sorted(set(itertools.combinations(alpha, t))):
            for sub_b in sorted(set(itertools.combinations(beta, t))):
                blocks = ((sub_a, sub_b), (seq_remove(alpha, sub_a),
                                           seq_remove(beta, sub_b)))
                try:
                    return gcd_hypothesis_split(ideal, blocks, "block_disjoint",
                                                "two aligned blocks")
                except HypothesisFails:
                    continue
    return None


@pytest.mark.parametrize("ideal", list(PATTERN_IDEALS.values()),
                         ids=list(PATTERN_IDEALS))
def test_block_disjoint_matches_the_split_of_every_partition(ideal):
    # testing each partition's inner node decides as splitting it would
    hits = 0
    for alpha, beta in ordered_layer_pairs(ideal):
        cert = rule_block_disjoint(ideal, alpha, beta)
        assert cert == block_disjoint_by_trial(ideal, alpha, beta)
        hits += cert is not None
    assert hits > 0


class TestBlockDisjoint:
    @pytest.mark.parametrize("ideal, layers", list(COARSENING_CASES.values()),
                             ids=list(COARSENING_CASES))
    def test_every_three_block_split_coarsens_to_two(self, ideal, layers):
        # rule_block_disjoint searches two-block splits only: a three-block
        # split that stays in the fiber must have a two-block coarsening,
        # merging its last two blocks, that stays in too
        accepted = 0
        for s in layers:
            for a, b in itertools.combinations(
                    enumerate_sequences(ideal.n, s), 2):
                if seq_intersection(a, b):
                    continue
                for first, (a2, b2), (a3, b3) in three_block_partitions(a, b):
                    if splits(ideal, (first, (a2, b2), (a3, b3))):
                        accepted += 1
                        assert splits(ideal, (first, (seq_union(a2, a3),
                                                      seq_union(b2, b3))))
        assert accepted > 0

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

    @pytest.mark.parametrize("ideal, alpha, beta", [
        (villarreal_ideal(), (1, 3), (2, 4)),
        (pentagon_ideal(), (1, 1, 4), (2, 3, 5)),
        (path_ideal(4), (1, 2), (3, 4))], ids=["villarreal", "pentagon", "path4"])
    def test_one_target_per_pair(self, monkeypatch, ideal, alpha, beta):
        # every aligned partition shares the pair's target binomial; the
        # blocks' binomials are shorter than the target
        built = []
        original = reduction._binomial

        def counting(ideal, a, b):
            if len(a) == len(alpha):
                built.append((a, b))
            return original(ideal, a, b)
        monkeypatch.setattr(reduction, "_binomial", counting)
        cert = rule_block_disjoint(ideal, alpha, beta)
        assert built == [(alpha, beta)]
        assert cert is None or verify_certificate(ideal, cert)

    def test_path_pair_split_verifies(self):
        P = path_ideal(6)  # 6 generators on a path
        cert = rule_block_disjoint(P, (1, 3, 5), (2, 4, 6))
        if cert is not None:
            assert verify_certificate(P, cert)

    def test_shared_index_not_applicable(self):
        V = villarreal_ideal()
        assert rule_block_disjoint(V, (1, 2), (1, 4)) is None


class TestTwoByTwo:
    def test_reduces_a_degree_three_pair(self):
        C = cycle_ideal(8)
        cert = rule_two_by_two(C, (1, 1, 5), (3, 3, 7))
        assert cert is not None and cert.rule_name == "two_by_two"
        assert verify_certificate(C, cert)

    def test_flat_multiplicities(self):
        V = villarreal_ideal()
        cert = rule_two_by_two(V, (1, 1, 3, 3), (2, 2, 4, 4))
        assert cert is not None
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
        cert = rule_three_by_two(C, (1, 4, 7, 7), (3, 3, 9, 9))
        if cert is None:
            # the gcd hypotheses depend on the geometry; at least the
            # flat case below must work
            pytest.skip("no certificate for this geometry")
        assert verify_certificate(C, cert)

    def test_balanced_case(self):
        C = cycle_ideal(10)
        # multiplicities (2,2,2) against (3,3): the forced balanced case
        cert = rule_three_by_two(C, (1, 1, 4, 4, 7, 7), (3, 3, 3, 9, 9, 9))
        assert cert is not None and cert.rule_name == "three_by_two"
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

    def test_leaf_whose_neighbour_is_in_its_own_row(self):
        # both leaves of the path 1-2-3-4 sit next to a vertex of their own
        # row; the aligned-block search still finds a split
        P = path_ideal(4)
        cert = rule_tree_leaf(P, (1, 2), (3, 4))
        assert cert is not None and cert.rule_name == "tree_leaf"
        assert verify_certificate(P, cert)


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


SHAPE_RULE_CASES = [
    (rule_two_by_two, cycle_ideal(8), (1, 1, 5), (3, 3, 7)),
    (rule_two_by_two, villarreal_ideal(), (1, 1, 3, 3), (2, 2, 4, 4)),
    (rule_two_by_two, villarreal_ideal(), (1, 3), (2, 4)),
    (rule_two_by_two, villarreal_ideal(), (1, 1, 2), (1, 3, 3)),
    (rule_three_by_two, cycle_ideal(10), (1, 4, 7, 7), (3, 3, 9, 9)),
    (rule_three_by_two, cycle_ideal(10), (1, 1, 4, 4, 7, 7),
     (3, 3, 3, 9, 9, 9)),
    (rule_three_by_two, cycle_ideal(10), (1, 1, 4), (3, 3, 3)),
    (rule_tree_leaf, path_ideal(5), (1, 3, 5), (2, 2, 4)),
    (rule_tree_leaf, make_ideal(
        ["c", "l1", "l2", "l3", "p0", "p1", "p2", "p3"],
        [[0, 1, 2, 3, 4], [0, 5], [1, 6], [2, 7]]), (1, 1), (2, 3)),
    (rule_tree_leaf, villarreal_ideal(), (1, 3), (2, 4)),
    (rule_tree_leaf, path_ideal(4), (1, 2), (3, 4)),
    (rule_odd_cycle_step, cycle_ideal(7), (2, 3, 6, 6, 6, 6),
     (1, 1, 4, 4, 5, 7)),
    (rule_odd_cycle_step, cycle_ideal(8), (2, 3, 6, 6, 6, 6, 8),
     (1, 1, 4, 4, 5, 7, 7)),
    (rule_odd_cycle_step, triangle_ideal(), (1, 1), (2, 3)),
]


def shape_guard(rule, ideal, alpha, beta):
    """The documented guard of a shape rule, written out independently."""
    if set(alpha) & set(beta):
        return False
    sub = induced_subgraph(ideal, alpha, beta)
    nv, ne = len(sub.vertices), len(sub.edges)
    connected = len(components(sub)) == 1
    if rule is rule_two_by_two:
        return len(alpha) >= 3 and len(set(alpha)) == len(set(beta)) == 2
    if rule is rule_three_by_two:
        return len(alpha) >= 4 and {len(set(alpha)), len(set(beta))} == {3, 2}
    if rule is rule_tree_leaf:
        return connected and ne == nv - 1
    return (len(alpha) >= 4 and connected and ne == nv and nv >= 5
            and nv % 2 == 1
            and all(len(sub.neighbors(v)) == 2 for v in sub.vertices))


@pytest.mark.parametrize("rule, ideal, alpha, beta", SHAPE_RULE_CASES)
def test_shape_rule_is_a_guard_over_block_disjoint(rule, ideal, alpha, beta):
    cert = rule(ideal, alpha, beta)
    block = rule_block_disjoint(ideal, alpha, beta)
    if not shape_guard(rule, ideal, alpha, beta) or block is None:
        assert cert is None
        return
    assert cert is not None
    assert cert.rule_name == rule.__name__.removeprefix("rule_")
    assert cert.target == block.target and cert.terms == block.terms


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


class TestChecksAtTheBoundary:
    """The engine builds sub-binomials without re-checking their rows; every
    public entry point still checks what it is given."""

    @pytest.mark.parametrize("bad", [0, 5], ids=["index 0", "index n+1"])
    def test_verify_rejects_a_row_outside_the_ideal(self, bad):
        # T_{(1,4),(1,2)} = T_1 * T_{4,2}, with 4 renamed: index 0 would read
        # f_4 (the last generator) if the row went unchecked, so this
        # certificate is consistent apart from the index itself
        V = villarreal_ideal()
        cert = rule_shared_index(V, (1, 4), (1, 2))
        (term,) = cert.terms
        assert term.sub.alpha == (4,)
        rename = {4: bad}
        target = dataclasses.replace(
            cert.target, alpha=tuple(sorted(rename.get(a, a)
                                            for a in cert.target.alpha)))
        sub = dataclasses.replace(term.sub, alpha=(bad,))
        bad_cert = dataclasses.replace(
            cert, target=target,
            terms=(dataclasses.replace(term, sub=sub),))
        assert verify_certificate(V, bad_cert) is False

    def test_verify_rejects_a_scaled_binomial(self):
        # target and sub-binomial both times x1: the identity still holds,
        # but neither is the Taylor binomial of its rows
        V = villarreal_ideal()
        cert = rule_shared_index(V, (1, 2), (1, 4))
        x1 = Monomial.from_dict({0: 1})

        def scaled(b):
            return dataclasses.replace(b, lhs_coef=mono_mul(b.lhs_coef, x1),
                                       rhs_coef=mono_mul(b.rhs_coef, x1))
        (term,) = cert.terms
        bad_cert = dataclasses.replace(
            cert, target=scaled(cert.target),
            terms=(dataclasses.replace(term, sub=scaled(term.sub)),))
        assert verify_certificate(V, bad_cert) is False
        only_sub = dataclasses.replace(
            cert, terms=(dataclasses.replace(term, sub=scaled(term.sub)),))
        assert verify_certificate(V, only_sub) is False

    @pytest.mark.parametrize("alpha, beta, message", [
        ((0, 1), (2, 3), "index 0 outside 1..4"),
        ((1, 5), (2, 3), "index 5 outside 1..4"),
        ((2, 1), (3, 4), "sequence (2, 1) is not non-decreasing"),
        ((1,), (2, 3), "length mismatch: (1,) vs (2, 3)"),
        ((1, 2), (1, 2), "equal sequences give the zero binomial: (1, 2)"),
    ])
    def test_reduce_to_normal_messages(self, alpha, beta, message):
        with pytest.raises(ValueError) as err:
            reduce_to_normal(villarreal_ideal(), alpha, beta)
        assert str(err.value) == message

    @pytest.mark.parametrize("rule", [
        rule_shared_index, rule_power_factor, rule_block_disjoint,
        rule_constant_row, rule_two_by_two, rule_three_by_two,
        rule_tree_leaf, rule_odd_cycle_step], ids=lambda r: r.__name__)
    @pytest.mark.parametrize("bad", [0, 5], ids=["index 0", "index n+1"])
    def test_rules_check_the_rows_they_build_on(self, rule, bad):
        # each pair passes the rule's guard, so the rule builds on its rows
        rows = {rule_shared_index: ((1, bad), (1, 2)),
                rule_power_factor: ((bad, bad), (2, 2)),
                rule_block_disjoint: ((1, bad), (2, 3)),
                rule_constant_row: ((bad, bad), (2, 3)),
                rule_two_by_two: ((1, 1, bad), (2, 3, 3)),
                rule_three_by_two: ((1, 1, 2, bad), (3, 3, 4, 4)),
                rule_tree_leaf: ((1, bad), (2, 3)),
                rule_odd_cycle_step: ((1, 1, 2, bad), (3, 3, 4, 4))}[rule]
        with pytest.raises(ValueError, match=f"index {bad} outside 1..4"):
            rule(villarreal_ideal(), *rows)

    @pytest.mark.parametrize("rule", [
        rule_shared_index, rule_power_factor, rule_block_disjoint,
        rule_constant_row, rule_two_by_two, rule_three_by_two,
        rule_tree_leaf, rule_odd_cycle_step], ids=lambda r: r.__name__)
    @pytest.mark.parametrize("alpha, beta, message", [
        ((1, 9), (2, 3), "index 9 outside 1..4"),
        ((2, 1), (3, 4), r"\(2, 1\) is not non-decreasing"),
        ((1,), (2, 3), "length mismatch"),
    ], ids=["index 9", "unsorted row", "length mismatch"])
    def test_rules_check_the_rows_whatever_their_guard(self, rule, alpha,
                                                       beta, message):
        # most of these pairs fail the rule's guard; the rows are checked
        # before it
        with pytest.raises(ValueError, match=message):
            rule(villarreal_ideal(), alpha, beta)

    def test_a_bool_index_is_refused(self):
        # True == 1, but a bool is not an index
        V = villarreal_ideal()
        for rule in (rule_shared_index, rule_power_factor, rule_constant_row,
                     rule_block_disjoint):
            with pytest.raises(ValueError, match="index True outside 1..4"):
                rule(V, (True, 2), (3, 3))
        with pytest.raises(ValueError, match="index True outside 1..4"):
            reduce_to_normal(V, (True, 2), (3, 3))
        cert = reduce_to_normal(V, (1, 2), (3, 3)).chain[0]
        assert verify_certificate(V, cert)
        bad = dataclasses.replace(cert, target=dataclasses.replace(
            cert.target, alpha=(True, 2)))
        assert verify_certificate(V, bad) is False

    @pytest.mark.parametrize("alpha, beta", [((2, 2), (3, 1)),
                                             ((3, 1), (2, 2))])
    def test_constant_row_checks_the_other_row(self, alpha, beta):
        # sorting the other row would certify (2,2)|(1,3) instead
        with pytest.raises(ValueError, match=r"\(3, 1\) is not non-decreasing"):
            rule_constant_row(villarreal_ideal(), alpha, beta)

    @pytest.mark.parametrize("bad", [0, 5], ids=["index 0", "index n+1"])
    def test_fiber_path_node_outside_the_ideal(self, bad):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 2), (3, 4))
        with pytest.raises(ValueError, match=f"index {bad} outside 1..4"):
            fiber_certificate(V, b, ((1, 2), (1, bad), (3, 4)))

    @pytest.mark.parametrize("middle, message", [
        ((2, 1), r"sequence \(2, 1\) is not non-decreasing"),
        ((1, 2), r"node \(1, 2\) repeats the node before it"),
        ((1, 2, 3), r"node \(1, 2, 3\) is not of length 2"),
        ((1, 4), "step 1 leaves the lcm fiber"),
    ], ids=["unsorted", "repeated", "too long", "outside the fiber"])
    def test_fiber_path_nodes_are_checked_by_name(self, middle, message):
        # f1 f4 = x1 x2 x3^2 x6 x7 does not divide lcm(f1 f2, f3 f4)
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 2), (3, 4))
        with pytest.raises(ValueError, match=message):
            fiber_certificate(V, b, ((1, 2), middle, (3, 4)))

    def test_fiber_path_node_inside_the_fiber_but_unsorted(self):
        # the reversed middle node still lies in the fiber, and its walk
        # would replay with an unsorted T-factor
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 2), (3, 4))
        start, middle, end = member_lower(V, b, 1).path
        assert middle[::-1] != middle
        with pytest.raises(ValueError, match="is not non-decreasing"):
            fiber_certificate(V, b, (start, middle[::-1], end))

    @pytest.mark.parametrize("alpha, beta, message", [
        ((1, 3), (2,), "length mismatch"),
        ((1, 2), (1, 2), "equal sequences give the zero binomial"),
    ])
    def test_witness_checks_the_rows_as_the_rules_do(self, alpha, beta,
                                                     message):
        V = villarreal_ideal()
        for search in (irredundancy_witness, rule_shared_index,
                       rule_block_disjoint):
            with pytest.raises(ValueError, match=message):
                search(V, alpha, beta)


def _found(result):
    """What an entry returned: None, a reduction's status, or a type name."""
    if result is None:
        return None
    return getattr(result, "status", type(result).__name__)


ITERATOR_ROW_CASES = [
    (rule_shared_index, villarreal_ideal(), ((1, 2), (1, 4)), "Certificate"),
    (rule_shared_index, villarreal_ideal(), ((1, 2), (3, 4)), None),
    (rule_power_factor, villarreal_ideal(), ((1, 1), (2, 2)), "Certificate"),
    (rule_power_factor, villarreal_ideal(), ((1, 2), (3, 4)), None),
    (rule_constant_row, villarreal_ideal(), ((1, 1), (2, 3)), "Certificate"),
    (rule_constant_row, villarreal_ideal(), ((1, 2), (3, 4)), None),
    (rule_block_disjoint, pentagon_ideal(), ((1, 2), (3, 4)), "Certificate"),
    (rule_block_disjoint, villarreal_ideal(), ((1, 3), (2, 4)), None),
    (rule_two_by_two, cycle_ideal(8), ((1, 1, 5), (3, 3, 7)), "Certificate"),
    (rule_two_by_two, villarreal_ideal(), ((1, 3), (2, 4)), None),
    (rule_three_by_two, cycle_ideal(10), ((1, 4, 7, 7), (3, 3, 9, 9)),
     "Certificate"),
    (rule_three_by_two, cycle_ideal(10), ((1, 1, 4), (3, 3, 3)), None),
    (rule_tree_leaf, path_ideal(4), ((1, 2), (3, 4)), "Certificate"),
    (rule_tree_leaf, villarreal_ideal(), ((1, 3), (2, 4)), None),
    (rule_odd_cycle_step, cycle_ideal(7),
     ((2, 3, 6, 6, 6, 6), (1, 1, 4, 4, 5, 7)), "Certificate"),
    (rule_odd_cycle_step, triangle_ideal(), ((1, 1), (2, 3)), None),
    (irredundancy_witness, pentagon_ideal(), ((1, 1, 4), (2, 3, 5)),
     "IrredundancyWitness"),
    (irredundancy_witness, villarreal_ideal(), ((1, 2), (3, 4)), None),
    (reduce_to_normal, villarreal_ideal(), ((1, 2), (3, 4)), "reduced"),
    (reduce_to_normal, villarreal_ideal(), ((1, 3), (2, 4)), "stuck"),
    (taylor_binomial, villarreal_ideal(), ((1, 2), (3, 4)), "ReesBinomial"),
    (product_of, villarreal_ideal(), ((1, 2),), "Monomial"),
]


@pytest.mark.parametrize("entry, ideal, rows, found", ITERATOR_ROW_CASES,
                         ids=[f"{e.__name__}-{f}"
                              for e, _, _, f in ITERATOR_ROW_CASES])
def test_entries_read_their_rows_once(entry, ideal, rows, found):
    # one-shot iterators give what tuples give, certificate or None
    expected = entry(ideal, *rows)
    assert _found(expected) == found
    assert entry(ideal, *map(iter, rows)) == expected


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

    @pytest.mark.parametrize("bad", [0, 9], ids=["index 0", "index 9"])
    def test_rows_outside_the_ideal(self, bad):
        V = villarreal_ideal()
        w = IrredundancyWitness((1, 2), (3, bad), (1, 2), 3, bad, (0, 0),
                                (0, 0))
        assert w.check(V) is False
        with pytest.raises(ValueError, match=f"index {bad} outside 1..4"):
            irredundancy_witness(V, (1, 2), (3, bad))

    @pytest.mark.parametrize("seed, alpha, beta", [
        (1063, (2, 5), (3, 4)),
        (1113, (1, 4), (2, 5)),
    ])
    def test_pattern_on_reducible_pair_is_refused(self, seed, alpha, beta,
                                                  monkeypatch):
        # the separating-variable pattern fits, but other generators route
        # around it: the pair reduces modulo the linear layer, along its
        # fiber path, since no rule applies
        I = random_ideal(random.Random(seed), 5, 8)
        assert member_lower(I, taylor_binomial(I, alpha, beta), 1).is_yes
        assert irredundancy_witness(I, alpha, beta) is None
        out = reduce_to_normal(I, alpha, beta)
        assert out.status == "reduced" and out.terminal_degree == 1
        assert out.chain[0].rule_name == "fiber_path"
        assert (out.chain[0].target.alpha, out.chain[0].target.beta) == \
            (alpha, beta)
        assert all(verify_certificate(I, cert) for cert in out.chain)
        with monkeypatch.context() as m:
            m.setattr("reeskit.reduction._confirmed", lambda *args: True)
            pattern = irredundancy_witness(I, alpha, beta)
        assert pattern is not None
        assert not pattern.check(I)

    def test_stuck_pair_asks_the_oracle_once(self, monkeypatch):
        # the driver's own "no" confirms the witness of a stuck pair
        P = pentagon_ideal()
        calls = []

        def counted(*args):
            calls.append(args)
            return member_lower(*args)

        monkeypatch.setattr(reduction, "member_lower", counted)
        out = reduce_to_normal(P, (1, 1, 4), (2, 3, 5))
        assert len(calls) == 1
        assert out.status == "stuck"
        assert out.witness == irredundancy_witness(P, (1, 1, 4), (2, 3, 5))


def pattern_by_counting(ideal, alpha, beta):
    """_pattern written with the other row's multiplicities counted."""
    for a_row, b_row, swapped in ((alpha, beta, False), (beta, alpha, True)):
        s = len(a_row)
        if s < 2 or len(set(a_row)) != s or set(a_row) & set(b_row):
            continue
        counts = collections.Counter(b_row)
        if len(counts) != 2:
            continue
        if s == 2:
            candidates = [(b_row[0], b_row[1]), (b_row[1], b_row[0])]
        else:
            by_mult = {m: idx for idx, m in counts.items()}
            if sorted(counts.values()) != [1, s - 1]:
                continue
            candidates = [(by_mult[s - 1], by_mult[1])]
        avec = tuple(sorted(a_row))
        for b1, b2 in candidates:
            seps = reduction._separators(ideal, avec, b1, b2)
            if all(xs and zs for xs, zs in seps):
                return IrredundancyWitness(
                    alpha, beta, avec, b1, b2, tuple(xs[0] for xs, _ in seps),
                    tuple(zs[0] for _, zs in seps), swapped)
    return None


def check_by_rows(w, ideal):
    """IrredundancyWitness.check with each row condition written out."""
    s = len(w.avec)
    if s < 2 or len(w.xvars) != s or len(w.zvars) != s:
        return False
    distinct = w.beta if w.role_swapped else w.alpha
    special = w.alpha if w.role_swapped else w.beta
    if tuple(sorted(distinct)) != w.avec or len(set(w.avec)) != s:
        return False
    if tuple(sorted(special)) != tuple(sorted((w.b1,) * (s - 1) + (w.b2,))):
        return False
    if w.b1 == w.b2 or set(w.avec) & {w.b1, w.b2}:
        return False
    seps = reduction._separators(ideal, w.avec, w.b1, w.b2)
    if not all(x in xs and z in zs
               for (xs, zs), x, z in zip(seps, w.xvars, w.zvars)):
        return False
    return reduction._confirmed(ideal, w.alpha, w.beta)


@pytest.mark.parametrize("ideal", list(PATTERN_IDEALS.values()),
                         ids=list(PATTERN_IDEALS))
def test_pattern_and_check_match_the_written_out_rows(ideal, monkeypatch):
    # both sides ask the same oracle, so it is left out: only the row
    # conditions are compared, on the pattern's candidates and on every
    # (b1, b2) drawn from the other row, each with its first separators
    monkeypatch.setattr(reduction, "_confirmed", lambda *args: True)
    found, accepted, refused = 0, 0, 0
    for alpha, beta in ordered_layer_pairs(ideal):
        w = reduction._pattern(ideal, alpha, beta)
        assert w == pattern_by_counting(ideal, alpha, beta)
        found += w is not None
        for swapped in (False, True):
            avec, other = (beta, alpha) if swapped else (alpha, beta)
            for b1, b2 in itertools.product(sorted(set(other)), repeat=2):
                seps = reduction._separators(ideal, avec, b1, b2)
                cand = IrredundancyWitness(
                    alpha, beta, avec, b1, b2,
                    tuple(xs[0] if xs else 0 for xs, _ in seps),
                    tuple(zs[0] if zs else 0 for _, zs in seps), swapped)
                ok = cand.check(ideal)
                assert ok == check_by_rows(cand, ideal), cand
                accepted += ok
                refused += not ok
    # a pair with a pattern has an accepted candidate and vice versa
    assert refused and (found > 0) == (accepted > 0)


class TestFiberCertificate:
    def test_single_move_is_one_term(self):
        V = villarreal_ideal()
        b = taylor_binomial(V, (1,), (2,))
        cert = fiber_certificate(V, b, (b.alpha, b.beta))
        assert cert.rule_name == "fiber_path"
        assert [(t.coef, t.tfactor, t.sub) for t in cert.terms] == \
            [(Monomial.one(), (), b)]
        assert verify_certificate(V, cert)

    def test_yes_paths_verify_for_every_layer_bound(self):
        # every k in 1..s-1 on a stride through layers 2..4; each step of
        # a path at distance <= k leaves a sub-binomial of degree <= k
        checked = 0
        for seed in range(4):
            I = random_ideal(random.Random(seed), 5, 8)
            for s in (2, 3, 4):
                for b in taylor_layer(I, s)[seed::53]:
                    for k in range(1, s):
                        verdict = member_lower(I, b, k)
                        if not verdict.is_yes:
                            continue
                        cert = fiber_certificate(I, b, verdict.path)
                        assert verify_certificate(I, cert), (b, k)
                        assert len(cert.terms) == len(verdict.chain)
                        assert all(t.sub.degree <= k for t in cert.terms)
                        checked += 1
        assert checked > 500

    def test_broken_path_fails_verification(self):
        # a truncated path is refused when the certificate is built
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 2), (3, 4))
        verdict = member_lower(V, b, 1)
        assert len(verdict.path) == 3
        with pytest.raises(ValueError, match="does not run from"):
            fiber_certificate(V, b, verdict.path[:2])

    @pytest.mark.parametrize("fake", [
        lambda b: ReesBinomial(b.alpha, b.beta, 1, 1),
        lambda b: dataclasses.replace(
            b, lhs_coef=mono_mul(b.lhs_coef, Monomial.from_dict({0: 1})),
            rhs_coef=mono_mul(b.rhs_coef, Monomial.from_dict({0: 1})))],
        ids=["int coefficients", "scaled by x1"])
    def test_b_must_be_the_taylor_binomial_of_its_rows(self, fake):
        # the path is the oracle's, for b's rows; b's coefficients are not
        # those of its rows
        V = villarreal_ideal()
        b = taylor_binomial(V, (1, 2), (3, 4))
        path = member_lower(V, b, 1).path
        assert path == ((1, 2), (1, 3), (3, 4))
        with pytest.raises(ValueError,
                           match="is not the Taylor binomial of its rows"):
            fiber_certificate(V, fake(b), path)

    @pytest.mark.parametrize("path", [
        ((1, 2), (1, 4)), ((1, 2),), (), ((1, 4), (3, 4)),
        ((1, 4), (1, 2), (3, 4))])
    def test_path_must_run_from_alpha_to_beta(self, path):
        P = pentagon_ideal()
        b = taylor_binomial(P, (1, 2), (3, 4))
        with pytest.raises(ValueError, match="does not run from"):
            fiber_certificate(P, b, path)


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


def eight_rule_dispatch(ideal, t):
    """reduce_to_normal's rule table before the four rules that never fire
    there were dropped from it, asked through the public rules."""
    for name in EIGHT_RULES:
        cert = getattr(reduction, name)(ideal, t.alpha, t.beta)
        if cert is not None:
            return cert
    return None


@pytest.mark.parametrize("ideal", list(PATTERN_IDEALS.values()),
                         ids=list(PATTERN_IDEALS))
def test_dispatch_is_the_first_public_rule_that_fires(ideal):
    # _dispatch runs the rule bodies on a checked target; asked through the
    # public rules in reduce_to_normal's order, the first answer is the same
    rules = (rule_shared_index, rule_power_factor, rule_constant_row,
             rule_block_disjoint)
    for s in (2, 3):
        for a, b in itertools.permutations(enumerate_sequences(ideal.n, s), 2):
            first = next((c for c in (r(ideal, a, b) for r in rules)
                          if c is not None), None)
            assert reduction._dispatch(ideal, taylor_binomial(ideal, a, b)) \
                == first, (a, b)


def outcome_summary(out):
    return (out.status, out.terminal_degree, out.stuck_pair,
            [(c.rule_name, c.target) for c in out.chain])


def test_five_rule_table_matches_eight_rule_table(monkeypatch):
    # the witness depends on the stuck pair alone, so it is not searched;
    # each table's answer is kept per ideal and rows, as sub-pairs recur
    # across the pairs of a layer
    monkeypatch.setattr(reduction, "_pattern", lambda *a: None)

    def table(dispatch):
        answers = {}

        def lookup(ideal, t):
            if (t.alpha, t.beta) not in answers:
                answers[t.alpha, t.beta] = dispatch(ideal, t)
            return answers[t.alpha, t.beta]
        return lookup
    engine = reduction._dispatch
    ideals = [villarreal_ideal(), pentagon_ideal(), triangle_ideal(),
              path_ideal(4)]
    ideals += [random_ideal(random.Random(k), 5, 8) for k in range(10)]
    checked = 0
    for I in ideals:
        monkeypatch.setattr(reduction, "_dispatch", table(engine))
        eight_table = table(eight_rule_dispatch)
        tallies = relation_type_estimate(I, 4).layer_tallies
        for s in (2, 3, 4):
            reduced = 0
            for b in taylor_layer(I, s):
                five = reduce_to_normal(I, b.alpha, b.beta)
                reduced += five.status == "reduced"
                with monkeypatch.context() as m:
                    m.setattr(reduction, "_dispatch", eight_table)
                    eight = reduce_to_normal(I, b.alpha, b.beta)
                assert outcome_summary(five) == outcome_summary(eight), \
                    (b.alpha, b.beta)
                checked += 1
            # stuck exactly when the oracle says the pair is new
            assert reduced == tallies[s][0], s
    assert checked == 36090
