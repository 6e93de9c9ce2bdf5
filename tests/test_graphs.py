import random
from dataclasses import replace

import pytest

from reeskit.demos import (
    path_ideal,
    pentagon_ideal,
    random_ideal,
    random_shape_ideal,
    triangle_ideal,
    villarreal_ideal,
)
from reeskit.graphs import (
    build_graph,
    classify_component,
    components,
    even_closed_walk,
    induced_subgraph,
    to_dot,
)
from reeskit.monomials import make_ideal, mono_gcd
from reeskit.reduction import irredundancy_witness


def has_edge(g, i, j):
    return j in g.neighbors(i)


def test_villarreal_graph_is_a_four_cycle():
    V = villarreal_ideal()
    g = build_graph(V)
    assert g.vertices == (1, 2, 3, 4)
    assert set(g.edges) == {(1, 2), (2, 3), (3, 4), (1, 4)}
    assert has_edge(g, 2, 1)
    assert not has_edge(g, 1, 3)
    assert g.neighbors(1) == [2, 4]


def test_pentagon_graph_misses_exactly_one_edge():
    P = pentagon_ideal()
    g = build_graph(P)
    assert len(g.edges) == 9
    assert not has_edge(g, 1, 4)


def test_components_of_disjoint_union():
    I = make_ideal(["a", "b", "c", "d", "e"],
                   [[0, 1], [1, 2], [3, 4]])
    g = build_graph(I)
    assert components(g) == [(1, 2), (3,)]


class TestComponentClassification:
    def test_path_is_forest(self):
        g = build_graph(path_ideal(4))
        (comp,) = components(g)
        c = classify_component(g, comp)
        assert c.kind == "forest"
        assert c.cycle is None
        assert c.independent_cycles == 0

    def test_triangle_is_unique_odd_cycle(self):
        g = build_graph(triangle_ideal())
        (comp,) = components(g)
        c = classify_component(g, comp)
        assert c.kind == "unique_odd_cycle"
        assert c.cycle == (1, 2, 3)

    def test_villarreal_is_unique_even_cycle(self):
        g = build_graph(villarreal_ideal())
        (comp,) = components(g)
        c = classify_component(g, comp)
        assert c.kind == "unique_even_cycle"
        assert c.cycle == (1, 2, 3, 4)
        assert c.independent_cycles == 1

    def test_pentagon_is_multi_cycle(self):
        g = build_graph(pentagon_ideal())
        (comp,) = components(g)
        c = classify_component(g, comp)
        assert c.kind == "multi_cycle"
        assert c.independent_cycles == 9 - 5 + 1

    def test_isolated_vertex_is_forest(self):
        I = make_ideal(["a", "b"], [[0], [1]])
        g = build_graph(I)
        for comp in components(g):
            assert classify_component(g, comp).kind == "forest"

    def test_cycle_with_tree_hair(self):
        # 5-cycle plus a pendant vertex stays unique_odd_cycle
        I = random_shape_ideal("odd-cycle", 6, seed=5)
        g = build_graph(I)
        (comp,) = components(g)
        c = classify_component(g, comp)
        assert c.kind in ("unique_odd_cycle", "unique_even_cycle")
        assert len(c.cycle) % 2 == 1 if c.kind == "unique_odd_cycle" else True

    def test_cycle_direction_with_a_hanging_tree(self):
        # 4-cycle 1-4-2-5 plus a leaf 3 on vertex 2: one shared variable per
        # edge, one private variable per generator
        edges = [(1, 4), (4, 2), (2, 5), (5, 1), (2, 3)]
        supports = {v: [] for v in range(1, 6)}
        for var, (i, j) in enumerate(edges):
            supports[i].append(var)
            supports[j].append(var)
        for v in range(1, 6):
            supports[v].append(len(edges) + v - 1)
        I = make_ideal([f"x{k}" for k in range(10)],
                       [supports[v] for v in range(1, 6)])
        g = build_graph(I)
        (comp,) = components(g)
        assert classify_component(g, comp).cycle == (1, 4, 2, 5)

    def test_shape_ideal_cycle_is_the_built_one(self):
        # random_shape_ideal builds its cycle on 1..c and hangs the other
        # vertices off it, so none of them may join the cycle
        hanging = 0
        for shape in ("odd-cycle", "even-cycle"):
            for n in (6, 7, 8):
                for seed in range(10):
                    g = build_graph(random_shape_ideal(shape, n, seed=seed))
                    (comp,) = components(g)
                    cycle = classify_component(g, comp).cycle
                    assert cycle == tuple(range(1, len(cycle) + 1))
                    hanging += n > len(cycle)
        assert hanging > 0


def test_shape_generator_matches_requested_shape():
    for seed in range(12):
        g = build_graph(random_shape_ideal("forest", 5, seed=seed))
        for comp in components(g):
            assert classify_component(g, comp).kind == "forest"
        g = build_graph(random_shape_ideal("odd-cycle", 5, seed=seed))
        kinds = [classify_component(g, c).kind for c in components(g)]
        assert "unique_odd_cycle" in kinds
        assert all(k in ("unique_odd_cycle", "forest") for k in kinds)
        g = build_graph(random_shape_ideal("even-cycle", 5, seed=seed))
        kinds = [classify_component(g, c).kind for c in components(g)]
        assert "unique_even_cycle" in kinds


def test_induced_subgraph_restricts_to_pair_support():
    P = pentagon_ideal()
    sub = induced_subgraph(P, (1, 1, 4), (2, 3, 5))
    assert sub.vertices == (1, 2, 3, 4, 5)
    g = build_graph(P)
    assert set(sub.edges) <= set(g.edges)
    sub2 = induced_subgraph(P, (1, 2), (1, 3))
    assert sub2.vertices == (1, 2, 3)


def test_edges_are_the_pairs_whose_generators_share_a_variable():
    # the graph reads the support table; gcd(f_i, f_j) != 1 is the definition
    for k in range(20):
        ideal = random_ideal(random.Random(k), 5, 8)
        assert build_graph(ideal).edges == tuple(
            (i, j) for i in range(1, ideal.n + 1)
            for j in range(i + 1, ideal.n + 1)
            if not mono_gcd(ideal.generator(i), ideal.generator(j)).is_one)


@pytest.mark.parametrize("bad", [0, 6], ids=["index 0", "index n+1"])
def test_an_index_outside_the_ideal_is_refused(bad):
    # supports[i - 1] would read f_n for index 0
    P = pentagon_ideal()
    with pytest.raises(IndexError, match=r"not in range 1\.\.5"):
        induced_subgraph(P, (1, bad), (2, 3))
    w = replace(irredundancy_witness(P, (1, 1, 4), (2, 3, 5)), b2=bad)
    with pytest.raises(IndexError, match=r"not in range 1\.\.5"):
        even_closed_walk(P, w)


def test_to_dot_mentions_every_edge_and_label():
    V = villarreal_ideal()
    dot = to_dot(V, build_graph(V))
    assert dot.startswith("graph generators {")
    assert dot.rstrip().endswith("}")
    assert "y1 -- y2" in dot
    assert "x1*x2*x3" in dot


class TestEvenClosedWalk:
    def test_pentagon_walk(self):
        P = pentagon_ideal()
        w = irredundancy_witness(P, (1, 1, 4), (2, 3, 5))
        assert w is not None
        walk = even_closed_walk(P, w)
        assert walk.vertices == (1, 2, 1, 3, 4, 5, 1)
        assert walk.length == 6
        assert walk.length % 2 == 0

    def test_walk_is_closed(self):
        P = pentagon_ideal()
        w = irredundancy_witness(P, (1, 1, 4), (2, 3, 5))
        walk = even_closed_walk(P, w)
        assert walk.vertices[0] == walk.vertices[-1]

    def test_every_step_shares_a_variable(self):
        P = pentagon_ideal()
        w = irredundancy_witness(P, (1, 1, 4), (2, 3, 5))
        walk = even_closed_walk(P, w)
        for a, b in zip(walk.vertices, walk.vertices[1:]):
            assert not mono_gcd(P.generator(a), P.generator(b)).is_one
        # f1 and f4 share no variable, so a walk stepping 1-4 is refused
        with pytest.raises(ValueError, match="walk step 1-4 is not an edge"):
            even_closed_walk(P, replace(w, avec=(4, 3, 5)))
