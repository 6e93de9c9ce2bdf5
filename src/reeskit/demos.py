"""Built-in example ideals and seed-deterministic random generators.

villarreal_ideal is the classical square example whose generator graph is a
4-cycle and whose defining ideal needs one genuinely quadratic generator.
pentagon_ideal has five generators, a pentagon-shaped generator graph, and a
minimal relation in degree 3.  family_ideal(n) is an n-generator family
whose relation type grows linearly with n; its distinguished binomials F and
G are derived here, G by an exponent audit because the obvious candidate
shape has to be repaired to be T-homogeneous (see family_corrected_g); the
audit scans its exponent grid on packed sums in the ideal's layout, not on
Monomial objects.

random_ideal draws arbitrary valid square-free ideals; random_shape_ideal
draws ideals whose generator graph has a prescribed shape (forest, or a
single component with one odd or even cycle) by dedicating one fresh shared
variable to each graph edge plus one private variable per generator.
"""

from __future__ import annotations

import random

from .monomials import (
    IdealValidationError,
    Monomial,
    SquareFreeIdeal,
    make_ideal,
)
from .taylor import ReesBinomial, substitute_check, taylor_binomial


def villarreal_ideal() -> SquareFreeIdeal:
    """f1 = x1x2x3, f2 = x2x4x5, f3 = x5x6x7, f4 = x3x6x7."""
    return make_ideal(
        [f"x{i}" for i in range(1, 8)],
        [[0, 1, 2], [1, 3, 4], [4, 5, 6], [2, 5, 6]])


def pentagon_ideal() -> SquareFreeIdeal:
    """f1 = x1x2x3, f2 = x1x2x4x7, f3 = x2x3x6, f4 = x4x5x6, f5 = x1x3x5."""
    return make_ideal(
        [f"x{i}" for i in range(1, 8)],
        [[0, 1, 2], [0, 1, 3, 6], [1, 2, 5], [3, 4, 5], [0, 2, 4]])


def triangle_ideal() -> SquareFreeIdeal:
    """Edge ideal of a triangle: x1x2, x2x3, x1x3."""
    return make_ideal(["x1", "x2", "x3"], [[0, 1], [1, 2], [0, 2]])


def path_ideal(edges: int = 4) -> SquareFreeIdeal:
    """Edge ideal of a path: f_i = x_i x_{i+1}."""
    if edges < 2:
        raise ValueError(f"a path needs at least 2 edges, got {edges}")
    return make_ideal(
        [f"x{i}" for i in range(1, edges + 2)],
        [[i, i + 1] for i in range(edges)])


def family_ideal(n: int) -> SquareFreeIdeal:
    """n generators over y, x_2..x_{n-2}, z, u_2..u_{n-2}:

        f_1     = x_2 ... x_{n-2} z
        f_i     = x_i y (prod of u_j for j != i),   i = 2..n-2
        f_{n-1} = x_2 ... x_{n-2} y
        f_n     = u_2 ... u_{n-2} z
    """
    if n < 5:
        raise ValueError(f"the family needs n >= 5, got {n}")
    mid = list(range(2, n - 1))
    names = ["y"] + [f"x{i}" for i in mid] + ["z"] + [f"u{i}" for i in mid]
    table = {name: pos for pos, name in enumerate(names)}
    x = {i: table[f"x{i}"] for i in mid}
    u = {i: table[f"u{i}"] for i in mid}
    y, z = table["y"], table["z"]
    gens = [[x[i] for i in mid] + [z]]
    for i in mid:
        gens.append([x[i], y] + [u[j] for j in mid if j != i])
    gens.append([x[i] for i in mid] + [y])
    gens.append([u[i] for i in mid] + [z])
    return make_ideal(names, gens)


def family_f_binomial(n: int) -> ReesBinomial:
    """The distinguished degree-(2n-7) relation of family_ideal(n):
    alpha = (1^{n-4}, 2, ..., n-2) against beta = ((n-1)^{n-3}, n^{n-4})."""
    alpha = (1,) * (n - 4) + tuple(range(2, n - 1))
    beta = (n - 1,) * (n - 3) + (n,) * (n - 4)
    return taylor_binomial(family_ideal(n), tuple(sorted(alpha)),
                           tuple(sorted(beta)))


def family_corrected_g(n: int) -> tuple[ReesBinomial, dict]:
    """Derive the homogeneous companion relation G of family_ideal(n).

    The candidate shape is z T1^e1 T2...T_{n-2} minus y T_{n-1}^e2 T_n^e3.
    The naive exponent guess (n-5, n-5, 1) is not T-homogeneous (T-degrees
    2n-8 versus n-4), so the exponents are recovered by brute force: scan
    the grid and keep the triples where both sides substitute to the same
    monomial under T_i -> f_i t.  Both sides are packed sums in
    ideal.layout at width (3n).bit_length(), z and y taken from its xunit:
    no exponent on either side reaches 3n (the largest, e3 on the u and z
    fields, is at most (2n - 1) + (n - 3)), so no sum carries across a
    field and packed equality is monomial equality.  The audit dict
    reports the rejected guess, the mismatch and the surviving triple.
    """
    ideal = family_ideal(n)
    z_var = ideal.table.index("z")
    y_var = ideal.table.index("y")
    z = Monomial.from_support([z_var])
    y = Monomial.from_support([y_var])
    base = tuple(range(2, n - 1))

    w = (3 * n).bit_length()
    gen, _, xunit, _ = ideal.layout(w)
    z_base = xunit[z_var] + sum(map(gen.__getitem__, base))
    solutions = []
    for e1 in range(0, 2 * n):
        lhs = z_base + e1 * gen[1]
        for e2 in range(0, 2 * n):
            e3 = e1 + len(base) - e2
            if e3 < 0:
                continue
            if lhs == xunit[y_var] + e2 * gen[n - 1] + e3 * gen[n]:
                solutions.append((e1, e2, e3))
    if len(solutions) != 1:
        raise RuntimeError(f"exponent audit found {solutions!r}")
    e1, e2, e3 = solutions[0]
    binom = taylor_binomial(
        ideal, tuple(sorted((1,) * e1 + base)), (n - 1,) * e2 + (n,) * e3)
    if binom.lhs_coef != z or binom.rhs_coef != y:
        raise RuntimeError(f"G has coefficients other than z and y: {binom!r}")

    naive = (n - 5, n - 5, 1)
    naive_binom = ReesBinomial(tuple(sorted((1,) * naive[0] + base)),
                               (n - 1,) * naive[1] + (n,) * naive[2], z, y)
    audit = {
        "shape": "z*T1^e1*T2*...*T%d - y*T%d^e2*T%d^e3" % (n - 2, n - 1, n),
        "naive_exponents": naive,
        "naive_tdegrees": (naive[0] + len(base), naive[1] + naive[2]),
        "naive_substitution_equal": substitute_check(ideal, naive_binom),
        "corrected_exponents": solutions[0],
        "corrected_tdegree": e1 + len(base),
        "solutions": solutions,
    }
    return binom, audit


# --- random generators -----------------------------------------------------

_MAX_DRAWS = 2000


def random_ideal(rng: random.Random, n: int, num_vars: int) -> SquareFreeIdeal:
    """A random valid square-free ideal with n generators over num_vars
    variables, generator supports of size 2..4."""
    if n < 1 or num_vars < 3:
        raise ValueError(f"need n >= 1 and num_vars >= 3, got {n}, {num_vars}")
    names = [f"x{i}" for i in range(1, num_vars + 1)]
    for _ in range(_MAX_DRAWS):
        supports = []
        for _ in range(n):
            size = rng.randint(2, min(4, num_vars - 1))
            supports.append(sorted(rng.sample(range(num_vars), size)))
        try:
            return make_ideal(names, supports)
        except IdealValidationError:
            continue
    raise RuntimeError(f"no valid ideal found in {_MAX_DRAWS} draws")


def random_shape_ideal(shape: str, n: int, extra_vars: int = 0,
                       seed: int = 0) -> SquareFreeIdeal:
    """A random ideal whose generator graph has the prescribed shape.

    "forest": random forest on n vertices.  "odd-cycle" / "even-cycle": one
    connected component built from a cycle of random odd / even length with
    the remaining vertices attached by tree edges.  Each edge contributes a
    dedicated shared variable, each generator a private one, so the graph
    shape is exact by construction.  extra_vars private variables are
    sprinkled over random generators on top.
    """
    if extra_vars < 0:
        raise ValueError(f"extra_vars must be at least 0, got {extra_vars}")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    if shape == "forest":
        if n < 1:
            raise ValueError(f"a forest needs at least 1 generator, got {n}")
        for v in range(2, n + 1):
            if rng.random() < 0.8:
                edges.append((rng.randint(1, v - 1), v))
    elif shape in ("odd-cycle", "even-cycle"):
        low = 3 if shape == "odd-cycle" else 4
        if n < low:
            raise ValueError(f"{shape} needs at least {low} generators")
        choices = [c for c in range(low, n + 1) if c % 2 == low % 2]
        c = rng.choice(choices)
        for v in range(1, c):
            edges.append((v, v + 1))
        edges.append((1, c))
        for v in range(c + 1, n + 1):
            edges.append((rng.randint(1, v - 1), v))
    else:
        raise ValueError(f"unknown shape {shape!r}")

    supports: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    var = 0
    for i, j in edges:
        supports[i].append(var)
        supports[j].append(var)
        var += 1
    for i in range(1, n + 1):
        supports[i].append(var)
        var += 1
    for _ in range(extra_vars):
        supports[rng.randint(1, n)].append(var)
        var += 1
    names = [f"x{k}" for k in range(1, var + 1)]
    return make_ideal(names, [supports[i] for i in range(1, n + 1)])
