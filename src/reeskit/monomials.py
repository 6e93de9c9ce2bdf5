"""Exact arithmetic for monomials over a fixed variable table.

A monomial is a sorted tuple of (variable index, exponent) pairs with
strictly positive exponents.  Everything is integer arithmetic on exponent
vectors, so equality and hashing are structural and gcd/lcm/divisibility are
exact.  Variable indices are 0-based positions into a VariableTable; ideal
generators are 1-indexed in every user-facing signature, matching the
T_1..T_n convention used by the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class IdealValidationError(ValueError):
    """Raised when a list of generators is not a valid square-free ideal.

    ``reason`` is one of "empty", "duplicate", "divisibility",
    "non-square-free", "bad-variable".
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class VariableTable:
    """Ordered variable names for rendering and parsing."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise IdealValidationError("empty", "variable table is empty")
        if len(set(self.names)) != len(self.names):
            raise IdealValidationError("duplicate", "duplicate variable name")
        for name in self.names:
            if not name or any(ch.isspace() for ch in name):
                raise IdealValidationError(
                    "bad-variable", f"bad variable name {name!r}")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


def default_table(num_vars: int, prefix: str = "x") -> VariableTable:
    return VariableTable(tuple(f"{prefix}{i}" for i in range(1, num_vars + 1)))


@dataclass(frozen=True)
class Monomial:
    """A monomial as a sorted sparse exponent vector."""

    exps: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = -1
        for var, exp in self.exps:
            if var <= last or exp <= 0 or var < 0:
                raise ValueError(f"malformed exponent tuple {self.exps!r}")
            last = var

    @staticmethod
    def one() -> "Monomial":
        return Monomial(())

    @staticmethod
    def from_dict(exps: dict[int, int]) -> "Monomial":
        return Monomial(tuple(sorted((v, e) for v, e in exps.items() if e > 0)))

    @staticmethod
    def from_support(variables: Iterable[int]) -> "Monomial":
        """Square-free monomial on the given 0-based variable indices."""
        return Monomial(tuple((v, 1) for v in sorted(set(variables))))

    def as_dict(self) -> dict[int, int]:
        return dict(self.exps)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.exps)

    @property
    def is_one(self) -> bool:
        return not self.exps

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def exponent(self, var: int) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    out = a.as_dict()
    for v, e in b.exps:
        out[v] = out.get(v, 0) + e
    return Monomial.from_dict(out)


def mono_pow(a: Monomial, k: int) -> Monomial:
    if k < 0:
        raise ValueError(f"negative exponent {k}")
    if k == 0:
        return Monomial.one()
    return Monomial(tuple((v, e * k) for v, e in a.exps))


def mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    bd = b.as_dict()
    return Monomial(tuple(
        (v, min(e, bd[v])) for v, e in a.exps if v in bd))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    out = a.as_dict()
    for v, e in b.exps:
        out[v] = max(out.get(v, 0), e)
    return Monomial.from_dict(out)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b."""
    bd = b.as_dict()
    return all(bd.get(v, 0) >= e for v, e in a.exps)


def mono_div_exact(a: Monomial, b: Monomial) -> Monomial:
    """a / b, raising ValueError unless b | a."""
    out = a.as_dict()
    for v, e in b.exps:
        have = out.get(v, 0)
        if have < e:
            raise ValueError(f"inexact division: {a!r} / {b!r}")
        if have == e:
            del out[v]
        else:
            out[v] = have - e
    return Monomial.from_dict(out)


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    return not (a.support & b.support)


def mono_product(monos: Iterable[Monomial]) -> Monomial:
    out: dict[int, int] = {}
    for m in monos:
        for v, e in m.exps:
            out[v] = out.get(v, 0) + e
    return Monomial.from_dict(out)


def render_monomial(m: Monomial, table: VariableTable, sep: str = "*") -> str:
    if m.is_one:
        return "1"
    parts = []
    for v, e in m.exps:
        name = table.names[v]
        parts.append(name if e == 1 else f"{name}^{e}")
    return sep.join(parts)


@dataclass(frozen=True)
class SquareFreeIdeal:
    """A square-free monomial ideal given by a minimal generating set.

    Generators are validated at construction: nonempty, square-free,
    pairwise distinct, and none divides another (so the listed set is the
    unique minimal monomial generating set).
    """

    table: VariableTable
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        validate_ideal(self.table, self.gens)

    @property
    def n(self) -> int:
        return len(self.gens)

    def generator(self, i: int) -> Monomial:
        """1-indexed generator access: generator(i) is f_i."""
        if not 1 <= i <= self.n:
            raise IndexError(f"generator index {i} out of range 1..{self.n}")
        return self.gens[i - 1]

    def gen_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.gens)


def validate_ideal(table: VariableTable, gens: tuple[Monomial, ...]) -> None:
    if not gens:
        raise IdealValidationError("empty", "no generators given")
    seen = set()
    for k, g in enumerate(gens, start=1):
        if g.is_one:
            raise IdealValidationError(
                "divisibility", f"generator f{k} is the unit monomial")
        if not g.is_squarefree:
            raise IdealValidationError(
                "non-square-free", f"generator f{k} is not square-free")
        for v, _ in g.exps:
            if v >= len(table):
                raise IdealValidationError(
                    "bad-variable",
                    f"generator f{k} uses variable index {v} outside the table")
        if g in seen:
            raise IdealValidationError(
                "duplicate", f"generator f{k} repeats an earlier generator")
        seen.add(g)
    for i, a in enumerate(gens, start=1):
        for j, b in enumerate(gens, start=1):
            if i != j and mono_divides(a, b):
                raise IdealValidationError(
                    "divisibility", f"generator f{i} divides f{j}")


def make_ideal(var_names: Iterable[str],
               gen_supports: Iterable[Iterable[int]]) -> SquareFreeIdeal:
    """Build an ideal from variable names and 0-based support lists."""
    table = VariableTable(tuple(var_names))
    gens = tuple(Monomial.from_support(s) for s in gen_supports)
    return SquareFreeIdeal(table, gens)
