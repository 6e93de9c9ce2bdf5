"""Generator-sharing graph of a square-free monomial ideal.

Vertices are the generator indices 1..n; an edge joins i and j exactly when
gcd(f_i, f_j) != 1.  Components are classified by their cycle content, which
is what the relation-type classifier keys on: a connected component is a
tree, carries a unique cycle (odd or even), or carries several independent
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .monomials import SquareFreeIdeal, render_monomial
from .taylor import Sequence


@dataclass(frozen=True)
class GeneratorGraph:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's sorted neighbours, built once per graph."""
        adj: dict[int, list[int]] = {}
        for i, j in self.edges:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
        return {v: tuple(sorted(nbs)) for v, nbs in adj.items()}

    def neighbors(self, v: int) -> list[int]:
        return list(self._adjacency.get(v, ()))


def _graph_on(ideal: SquareFreeIdeal, vertices: Iterable[int]) -> GeneratorGraph:
    verts = tuple(sorted(set(vertices)))
    if verts and not 1 <= verts[0] <= verts[-1] <= ideal.n:
        raise IndexError(f"vertices {verts!r} not in range 1..{ideal.n}")
    edges = []
    for pos, i in enumerate(verts):
        for j in verts[pos + 1:]:
            if ideal.supports[i - 1] & ideal.supports[j - 1]:
                edges.append((i, j))
    return GeneratorGraph(verts, tuple(edges))


def build_graph(ideal: SquareFreeIdeal) -> GeneratorGraph:
    return _graph_on(ideal, range(1, ideal.n + 1))


def induced_subgraph(ideal: SquareFreeIdeal, alpha: Sequence,
                     beta: Sequence) -> GeneratorGraph:
    """Subgraph on the distinct indices appearing in alpha or beta."""
    return _graph_on(ideal, set(alpha) | set(beta))


def components(g: GeneratorGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    seen: set[int] = set()
    out = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = []
        stack = [v]
        seen.add(v)
        while stack:
            node = stack.pop()
            comp.append(node)
            for nb in g.neighbors(node):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        out.append(tuple(sorted(comp)))
    return out


@dataclass(frozen=True)
class ComponentClass:
    """Cycle content of one connected component.

    kind is "forest", "unique_odd_cycle", "unique_even_cycle", or
    "multi_cycle"; cycle lists the vertices of the unique cycle when there
    is one; independent_cycles counts |E| - |V| + 1.
    """

    vertices: tuple[int, ...]
    kind: str
    cycle: Optional[tuple[int, ...]]
    independent_cycles: int


def classify_component(g: GeneratorGraph, comp: tuple[int, ...]) -> ComponentClass:
    comp_set = set(comp)
    extra = sum(i in comp_set for i, _ in g.edges) - len(comp) + 1
    if extra == 0:
        return ComponentClass(comp, "forest", None, 0)
    if extra > 1:
        return ComponentClass(comp, "multi_cycle", None, extra)
    cycle = _unique_cycle(g, comp)
    kind = "unique_odd_cycle" if len(cycle) % 2 == 1 else "unique_even_cycle"
    return ComponentClass(comp, kind, cycle, 1)


def _unique_cycle(g: GeneratorGraph, comp: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle of a connected component with |E| = |V|, in canonical form.

    Stripping leaves until none is left leaves exactly the cycle (the
    component's 2-core).  The walk round it starts at its least vertex and
    heads for the smaller of that vertex's two cycle neighbours, so the
    tuple comes out already rotated and oriented."""
    ring = set(comp)
    while leaves := {v for v in ring
                     if len(ring.intersection(g.neighbors(v))) < 2}:
        ring -= leaves
    cycle: list[int] = []
    prev, v = None, min(ring)
    while v not in cycle:
        cycle.append(v)
        prev, v = v, next(nb for nb in g.neighbors(v)
                          if nb in ring and nb != prev)
    return tuple(cycle)


def to_dot(ideal: SquareFreeIdeal, g: GeneratorGraph) -> str:
    lines = ["graph generators {"]
    for v in g.vertices:
        label = render_monomial(ideal.generator(v), ideal.table)
        lines.append(f'  y{v} [label="y{v}: {label}"];')
    for i, j in g.edges:
        lines.append(f"  y{i} -- y{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class WalkWitness:
    """A closed even walk in the generator graph, recorded as the vertex
    itinerary (first == last)."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def even_closed_walk(ideal: SquareFreeIdeal, witness) -> WalkWitness:
    """The closed walk carried by an irredundancy witness.

    For a witness with distinct row (a_1..a_s) against (b_1^{s-1}, b_2) the
    itinerary is b_1, a_1, b_1, ..., a_{s-2}, b_1, a_{s-1}, b_2, a_s, b_1,
    which has even length 2s.  Every step is checked to be a genuine edge.
    """
    avec, b1, b2 = witness.avec, witness.b1, witness.b2
    s = len(avec)
    itinerary = [b1]
    for i in range(s - 2):
        itinerary.extend([avec[i], b1])
    itinerary.extend([avec[s - 2], b2, avec[s - 1], b1])
    if not 1 <= min(itinerary) <= max(itinerary) <= ideal.n:
        raise IndexError(f"walk {itinerary!r} not in range 1..{ideal.n}")
    for u, v in zip(itinerary, itinerary[1:]):
        if not ideal.supports[u - 1] & ideal.supports[v - 1]:
            raise ValueError(f"walk step {u}-{v} is not an edge")
    return WalkWitness(tuple(itinerary))
