"""Release gate: eight numbered end-to-end checks.

Each check is one test so the -v listing gives one pass/fail line per
criterion.  The first three cover the worked demos (the square, the
pentagon, the growing family) with wall-clock limits; the middle three are
randomized suites (top-layer collapse, linear-type classification,
certificate soundness under mutation); the last two pin the gcd toolbox
and the agreement between the reduction rules and the membership oracle.
"""

import json
import random
import time
from dataclasses import replace

from reeskit.classify import classify, nonlinear_witnesses
from reeskit.cli import main as cli_main
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
from reeskit.graphs import build_graph, components, even_closed_walk
from reeskit.ideal_io import render_ideal
from reeskit.monomials import (
    Monomial,
    make_ideal,
    mono_coprime,
    mono_divides,
    mono_gcd,
    mono_mul,
    mono_product,
)
from reeskit.oracle import (
    fiber_witness,
    member_lower,
    minimal_linear_generators,
    relation_type_estimate,
)
from reeskit.reduction import (
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
from reeskit.taylor import (
    enumerate_sequences,
    render_binomial,
    substitute_check,
    taylor_binomial,
    taylor_layer,
    weighted_degree,
)


def test_criterion_1_square_demo(tmp_path, capsys):
    """4-cycle ideal: exactly 4 linear generators plus one quadratic,
    relation type certified 2 through layer 3, component class recognized,
    and the same facts through the command surface.  Under one second."""
    t0 = time.monotonic()
    V = villarreal_ideal()

    linear = minimal_linear_generators(V)
    assert len(linear) == 4
    assert {(b.alpha, b.beta) for b in linear} == {
        ((1,), (2,)), ((1,), (4,)), ((2,), (3,)), ((3,), (4,))}

    evidence = nonlinear_witnesses(V)
    assert len(evidence) == 1
    quad = evidence[0].binomial
    assert (quad.alpha, quad.beta) == ((1, 3), (2, 4))
    # orientation fixed by the sorted-pair convention; the global sign flip
    # is the same generator
    assert render_binomial(V, quad) == "x4*T1*T3 - x1*T2*T4"

    rt = relation_type_estimate(V, 3)
    assert rt.certified_lower == 2
    assert rt.verified_upper_through == 3
    assert rt.witness is not None
    assert tuple(sorted((rt.witness.alpha, rt.witness.beta))) == (
        (1, 3), (2, 4))

    report = classify(V)
    assert report.verdict_kind == "rt_at_most"
    assert report.rt_bound == 2
    assert [c.kind for c in report.component_classes] == ["unique_even_cycle"]
    assert report.component_classes[0].cycle == (1, 2, 3, 4)

    path = tmp_path / "square.ideal"
    path.write_text(render_ideal(V))
    assert cli_main(["taylor", str(path), "--degree", "1", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    assert {(tuple(r["alpha"]), tuple(r["beta"])) for r in rows} >= {
        (b.alpha, b.beta) for b in linear}

    assert cli_main(["rt", str(path), "--s-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "certified lower bound: 2" in out
    assert "verified upper through: 3" in out

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"square demo took {elapsed:.2f}s"
    print("criterion 1: PASS")


def test_criterion_2_pentagon_cubic():
    """Pentagon ideal: the cubic pair carries an irredundancy witness and a
    closed even walk of length 6, resists rewriting below its own layer,
    and the relation type is 3 exactly.  Under five seconds."""
    t0 = time.monotonic()
    P = pentagon_ideal()

    w = irredundancy_witness(P, (2, 3, 5), (1, 1, 4))
    assert w is not None
    assert w.check(P)
    assert w.avec == (2, 3, 5)
    assert (w.b1, w.b2) == (1, 4)
    assert not w.role_swapped

    walk = even_closed_walk(P, w)
    assert walk.length == 6
    assert walk.vertices == (1, 2, 1, 3, 4, 5, 1)

    cubic = taylor_binomial(P, (1, 1, 4), (2, 3, 5))
    assert not member_lower(P, cubic, 2).is_yes

    rt = relation_type_estimate(P, 3)
    assert rt.certified_lower == 3

    report = classify(P)
    assert report.verdict_kind == "rt_at_most"
    assert report.rt_bound == 3

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"pentagon demo took {elapsed:.2f}s"
    print("criterion 2: PASS")


def test_criterion_3_family_growth():
    """Growing family, n in 5..7: the distinguished relation F of layer
    2n-7 substitutes to zero and resists all strictly lower layers at cap
    slack 8, so the relation type is at least 2n-7; the repaired companion
    G is flagged as a witness against fiber type.  Under a minute at n=7."""
    elapsed_at_7 = None
    for n in (5, 6, 7):
        t0 = time.monotonic()
        I = family_ideal(n)

        F = family_f_binomial(n)
        assert F.degree == 2 * n - 7
        assert substitute_check(I, F)
        u, _ = F.terms()
        cap = weighted_degree(I, u) + 8
        verdict = member_lower(I, F, 2 * n - 8, cap=cap)
        assert verdict.is_no

        G, audit = family_corrected_g(n)
        assert not audit["naive_substitution_equal"]
        assert audit["corrected_exponents"] == (n - 5, n - 4, n - 4)
        assert substitute_check(I, G)
        assert fiber_witness(I, G)

        if n == 7:
            elapsed_at_7 = time.monotonic() - t0
    assert elapsed_at_7 is not None
    assert elapsed_at_7 < 60.0, f"family demo took {elapsed_at_7:.2f}s at n=7"
    print("criterion 3: PASS")


def test_criterion_4_top_layer_collapse():
    """200 seed-deterministic random ideals with up to 5 generators over at
    most 8 variables: every top-layer pair (layer n-1) rewrites into place
    modulo layers up to n-2.  No counterexamples, unknowns under 5%."""
    unknown = total = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = 3 + seed % 3
        num_vars = min(8, max(n + 2, 5 + seed % 4))
        I = random_ideal(rng, n, num_vars)
        for b in taylor_layer(I, n - 1):
            verdict = member_lower(I, b, n - 2)
            total += 1
            assert not verdict.is_no, (seed, b.alpha, b.beta)
            if verdict.is_unknown:
                unknown += 1
    assert total > 0
    assert unknown / total < 0.05, f"{unknown} unknown of {total}"
    print("criterion 4: PASS")


def test_criterion_5_linear_type_suites():
    """200 forest-graph ideals and 200 unique-odd-cycle ideals: classified
    linear type, and every layer-2 and layer-3 pair rewrites into place
    modulo the linear layer alone.  No counterexamples."""
    for shape, base_seed in (("forest", 0), ("odd-cycle", 10_000)):
        for k in range(200):
            n = 3 + k % 3
            I = random_shape_ideal(shape, n, extra_vars=k % 2,
                                   seed=base_seed + k)
            report = classify(I)
            assert report.verdict_kind == "linear_type", (shape, k)
            for s in (2, 3):
                for b in taylor_layer(I, s):
                    assert member_lower(I, b, 1).is_yes, \
                        (shape, k, b.alpha, b.beta)
    print("criterion 5: PASS")


# --- criterion 6: per-rule instance generators -----------------------------

def _row(rng, n, s):
    return tuple(sorted(rng.randint(1, n) for _ in range(s)))


def _cycle_edge_ideal(m):
    return make_ideal([f"e{i}" for i in range(m)],
                      [sorted((i, (i + 1) % m)) for i in range(m)])


def _gen_shared_index(rng):
    n = rng.randint(4, 6)
    I = random_ideal(rng, n, n + rng.randint(2, 3))
    s = rng.randint(2, 4)
    a = _row(rng, n, s)
    b = tuple(sorted((a[rng.randrange(s)],)
                     + tuple(rng.randint(1, n) for _ in range(s - 1))))
    if a == b:
        return None
    return I, rule_shared_index(I, a, b)


def _gen_power_factor(rng):
    n = rng.randint(4, 6)
    I = random_ideal(rng, n, n + rng.randint(2, 3))
    base_s = rng.randint(1, 2)
    power = rng.randint(2, 3)
    a_base = _row(rng, n, base_s)
    b_base = _row(rng, n, base_s)
    if a_base == b_base:
        return None
    a = tuple(sorted(a_base * power))
    b = tuple(sorted(b_base * power))
    return I, rule_power_factor(I, a, b)


def _gen_constant_row(rng):
    n = rng.randint(4, 6)
    I = random_ideal(rng, n, n + rng.randint(2, 3))
    s = rng.randint(2, 4)
    a = (rng.randint(1, n),) * s
    b = _row(rng, n, s)
    if a == b:
        return None
    return I, rule_constant_row(I, a, b)


def _gen_block_disjoint(rng):
    n1 = rng.randint(2, 3)
    n2 = rng.randint(2, 3)
    I1 = random_ideal(rng, n1, n1 + 2)
    I2 = random_ideal(rng, n2, n2 + 2)
    names = [f"a{v}" for v in range(len(I1.table.names))] + \
            [f"b{v}" for v in range(len(I2.table.names))]
    offset = len(I1.table.names)
    supports = [sorted(g.support) for g in I1.gens] + \
               [sorted(v + offset for v in g.support) for g in I2.gens]
    I = make_ideal(names, supports)
    s1 = rng.randint(1, 2)
    s2 = rng.randint(1, 2)
    a1, b1 = _row(rng, n1, s1), _row(rng, n1, s1)
    a2 = tuple(sorted(rng.randint(n1 + 1, n1 + n2) for _ in range(s2)))
    b2 = tuple(sorted(rng.randint(n1 + 1, n1 + n2) for _ in range(s2)))
    a = tuple(sorted(a1 + a2))
    b = tuple(sorted(b1 + b2))
    if a == b:
        return None
    return I, rule_block_disjoint(I, a, b)


def _gen_two_by_two(rng):
    m = rng.choice((8, 10, 12))
    I = _cycle_edge_ideal(m)
    idx = rng.sample(range(1, m + 1), 4)
    s = rng.randint(3, 5)
    p = rng.randint(1, s - 1)
    r = rng.randint(1, s - 1)
    a = tuple(sorted((idx[0],) * p + (idx[1],) * (s - p)))
    b = tuple(sorted((idx[2],) * r + (idx[3],) * (s - r)))
    return I, rule_two_by_two(I, a, b)


def _gen_three_by_two(rng):
    m = rng.choice((9, 10, 12))
    I = _cycle_edge_ideal(m)
    idx = rng.sample(range(1, m + 1), 5)
    k = rng.randint(1, 3)
    a = tuple(sorted((idx[0],) * k + (idx[1],) * k + (idx[2],) * k))
    r = rng.randint(1, 3 * k - 1)
    b = tuple(sorted((idx[3],) * r + (idx[4],) * (3 * k - r)))
    return I, rule_three_by_two(I, a, b)


def _gen_tree_leaf(rng):
    n = rng.randint(3, 6)
    I = random_shape_ideal("forest", n, seed=rng.randrange(10 ** 6))
    graph = build_graph(I)
    comps = [c for c in components(graph) if len(c) >= 2]
    if not comps:
        return None
    comp = list(rng.choice(comps))
    rng.shuffle(comp)
    cut = rng.randint(1, len(comp) - 1)
    left, right = comp[:cut], comp[cut:]
    while len(left) < len(right):
        left.append(rng.choice(left))
    while len(right) < len(left):
        right.append(rng.choice(right))
    a, b = tuple(sorted(left)), tuple(sorted(right))
    if a == b:
        return None
    return I, rule_tree_leaf(I, a, b)


def _gen_odd_cycle_step(rng):
    m = rng.choice((5, 7, 9))
    I = make_ideal([f"e{i}" for i in range(m)] + [f"p{i}" for i in range(m)],
                   [sorted((i, (i + 1) % m)) + [m + i] for i in range(m)])
    start = rng.randrange(m)
    v0, v1, v2, v3 = ((start + i) % m + 1 for i in range(4))
    a_verts = {v1, v2}
    b_verts = {v0, v3}
    for v in range(1, m + 1):
        if v not in a_verts | b_verts:
            (a_verts if rng.random() < 0.5 else b_verts).add(v)
    mult = {v: rng.randint(1, 2) for v in range(1, m + 1)}
    mult[v0] = mult[v1] + rng.randint(1, 2)
    mult[v3] = mult[v2] + rng.randint(1, 2)
    total_a = sum(mult[v] for v in a_verts)
    total_b = sum(mult[v] for v in b_verts)
    if total_a != total_b:
        slack_pool = (a_verts - {v1, v2}) if total_a < total_b \
            else (b_verts - {v0, v3})
        if not slack_pool:
            return None
        mult[min(slack_pool)] += abs(total_a - total_b)
    a = tuple(sorted(v for v in a_verts for _ in range(mult[v])))
    b = tuple(sorted(v for v in b_verts for _ in range(mult[v])))
    if len(a) < 4:
        return None
    return I, rule_odd_cycle_step(I, a, b)


_RULE_GENERATORS = (
    ("shared_index", _gen_shared_index),
    ("power_factor", _gen_power_factor),
    ("constant_row", _gen_constant_row),
    ("block_disjoint", _gen_block_disjoint),
    ("two_by_two", _gen_two_by_two),
    ("three_by_two", _gen_three_by_two),
    ("tree_leaf", _gen_tree_leaf),
    ("odd_cycle_step", _gen_odd_cycle_step),
)


def _corrupted(ideal, cert):
    """The same certificate with one cofactor multiplied by a variable."""
    first = cert.terms[0]
    extra = Monomial.from_support([min(ideal.gens[0].support)])
    return replace(cert, terms=(replace(first, coef=mono_mul(first.coef, extra)),)
                   + cert.terms[1:])


def test_criterion_6_certificate_soundness():
    """At least 1000 applicable random instances per reduction rule: every
    emitted certificate passes exact verification, and corrupting one
    cofactor makes verification fail.  Zero false passes either way."""
    per_rule = 1000
    for rule_name, generate in _RULE_GENERATORS:
        rng = random.Random(11)
        hits = tried = 0
        while hits < per_rule:
            tried += 1
            assert tried <= 40 * per_rule, \
                f"{rule_name}: applicable instances too rare"
            drawn = generate(rng)
            if drawn is None:
                continue
            ideal, result = drawn
            if result is None:
                continue
            chain = result if isinstance(result, list) else [result]
            assert chain, rule_name
            for cert in chain:
                assert cert.terms, rule_name
                assert verify_certificate(ideal, cert), \
                    (rule_name, cert.target.alpha, cert.target.beta)
            assert not verify_certificate(ideal, _corrupted(ideal, chain[0])), \
                (rule_name, chain[0].target.alpha, chain[0].target.beta)
            hits += 1
    print("criterion 6: PASS")


# --- criterion 7: gcd toolbox ----------------------------------------------

def _square_free(rng, pool=10):
    return Monomial.from_support(rng.sample(range(pool), rng.randint(1, 4)))


def _pow(a, k):
    return mono_product([a] * k)


def test_criterion_7_gcd_identities():
    """Five gcd facts about square-free monomials and their powers, each on
    2000 random tuples (10^4 tuples in total), checked exactly."""
    rng = random.Random(29)
    per_suite = 2000

    # the gcd of pure powers is the matching power of the gcd
    for _ in range(per_suite):
        a, b = _square_free(rng), _square_free(rng)
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        assert mono_gcd(_pow(a, n), _pow(b, m)) == \
            _pow(mono_gcd(a, b), min(n, m))

    # against a product of s square-free factors, any exponent past s
    # behaves like s itself
    for _ in range(per_suite):
        a = _square_free(rng)
        s = rng.randint(1, 4)
        product = mono_product(_square_free(rng) for _ in range(s))
        n = s + rng.randint(0, 3)
        assert mono_gcd(_pow(a, n), product) == \
            mono_gcd(_pow(a, s), product)

    # against a two-factor power product, the gcd divides the product of
    # the matching pairwise gcd powers
    for _ in range(per_suite):
        a, b, c = (_square_free(rng) for _ in range(3))
        n, m, l = (rng.randint(1, 4) for _ in range(3))
        lhs = mono_gcd(_pow(a, n), mono_mul(_pow(b, m), _pow(c, l)))
        rhs = mono_mul(_pow(mono_gcd(a, b), min(n, m)),
                       _pow(mono_gcd(a, c), min(n, l)))
        assert mono_divides(lhs, rhs)

    # the gcd against a product divides the product of the gcds
    for _ in range(per_suite):
        a, b, c = (_square_free(rng) for _ in range(3))
        assert mono_divides(mono_gcd(a, mono_mul(b, c)),
                            mono_mul(mono_gcd(a, b), mono_gcd(a, c)))

    # a factor coprime to the other side drops out of the gcd
    for _ in range(per_suite):
        pool = list(range(10))
        rng.shuffle(pool)
        cut = rng.randint(1, 9)
        left, right = pool[:cut], pool[cut:]
        a = Monomial.from_support(
            rng.sample(left, rng.randint(1, min(4, len(left)))))
        c = Monomial.from_support(
            rng.sample(right, rng.randint(1, min(4, len(right)))))
        b = _square_free(rng)
        assert mono_coprime(a, c)
        assert mono_gcd(mono_mul(a, b), c) == mono_gcd(b, c)

    print("criterion 7: PASS")


def test_criterion_8_rules_vs_oracle():
    """All pairs of layer 2..4 over the four named ideals: whenever the
    rule engine reduces a pair to terminal degree r the oracle agrees at
    bound r, and every stuck pair carries a witness that the oracle
    confirms at escalating caps."""
    cases = (("square", villarreal_ideal()), ("pentagon", pentagon_ideal()),
             ("triangle", triangle_ideal()), ("path", path_ideal(4)))
    stuck_with_witness = 0
    for name, I in cases:
        for s in range(2, 5):
            seqs = list(enumerate_sequences(I.n, s))
            for i, a in enumerate(seqs):
                for b in seqs[i + 1:]:
                    outcome = reduce_to_normal(I, a, b)
                    binom = taylor_binomial(I, a, b)
                    if outcome.status == "reduced":
                        assert member_lower(
                            I, binom, outcome.terminal_degree).is_yes, \
                            (name, a, b)
                        continue
                    assert outcome.status == "stuck", (name, a, b)
                    assert outcome.witness is not None, (name, a, b)
                    stuck_with_witness += 1
                    u, _ = binom.terms()
                    slack = weighted_degree(I, u) + 8
                    for cap in (None, slack, slack + 8):
                        assert not member_lower(I, binom, s - 1,
                                                cap=cap).is_yes, \
                            (name, a, b, cap)
    # one quadratic on the square, six quadratics and the cubic on the
    # pentagon
    assert stuck_with_witness == 8
    print("criterion 8: PASS")
