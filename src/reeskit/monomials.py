"""Exact arithmetic for monomials over a fixed variable table.

A monomial is a sorted tuple of (variable index, exponent) pairs with
strictly positive exponents.  Everything is integer arithmetic on exponent
vectors, so equality and hashing are structural and gcd and divisibility are
exact.  Variable indices are 0-based positions into a VariableTable; ideal
generators are 1-indexed in every user-facing signature, matching the
T_1..T_n convention used by the rest of the package.
Only the Monomial constructor, Monomial.from_dict and SquareFreeIdeal check
their input; arithmetic results are built unchecked by _monomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
            # '#' starts a comment in ideal files
            if not name or "#" in name or any(ch.isspace() for ch in name):
                raise IdealValidationError(
                    "bad-variable", f"bad variable name {name!r}")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class Monomial:
    """A monomial as a sorted sparse exponent vector of ints (no bools)."""

    exps: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = -1
        for var, exp in self.exps:
            if (type(var) is not int or type(exp) is not int  # refuses bool too
                    or var <= last or exp <= 0):
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


def _monomial(exps: tuple[tuple[int, int], ...]) -> Monomial:
    """A Monomial from pairs already sorted and positive, unchecked."""
    m = object.__new__(Monomial)
    object.__setattr__(m, "exps", exps)
    return m


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return mono_product((a, b))


def mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    bd = b.as_dict()
    return _monomial(tuple(
        (v, min(e, bd[v])) for v, e in a.exps if v in bd))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b."""
    bd = b.as_dict()
    return all(bd.get(v, 0) >= e for v, e in a.exps)


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    return not (a.support & b.support)


def mono_product(monos: Iterable[Monomial]) -> Monomial:
    out: dict[int, int] = {}
    for m in monos:
        for v, e in m.exps:
            out[v] = out.get(v, 0) + e
    return _monomial(tuple(sorted(out.items())))


def render_monomial(m: Monomial, table: VariableTable) -> str:
    if m.is_one:
        return "1"
    parts = []
    for v, e in m.exps:
        name = table.names[v]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


_CACHED_WIDTH = 16  # the widest layout kept; the fiber's is s.bit_length() + 1


@dataclass(frozen=True)
class SquareFreeIdeal:
    """A square-free monomial ideal given by a minimal generating set.

    Generators are validated at construction: nonempty, square-free,
    pairwise distinct, and none divides another (so the listed set is the
    unique minimal monomial generating set).  Then supports[i - 1] is the
    support of f_i, the table the Taylor and fiber layers count f_seq from.
    """

    table: VariableTable
    gens: tuple[Monomial, ...]
    supports: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)  # len(gens)
    packed: dict[int, tuple[list[int], list[int], list[int], int]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "supports", validate_ideal(self.table, self.gens))
        object.__setattr__(self, "n", len(self.gens))
        object.__setattr__(self, "packed", {})

    def layout(self, w: int) -> tuple[list[int], list[int], list[int], int]:
        """(gen, tunit, xunit, guards) at field width w: table variable v
        owns bits [w v, w v + w) and T_a the field after them; gen[a] has a
        unit in each field of supp(f_a), tunit[a] is T_a's unit (both 0 at
        a = 0), xunit[v] is v's unit, and guards holds each table field's
        top bit.  Every field position comes from here.  Widths up to
        _CACHED_WIDTH are cached in packed, filled on first use; a wider
        one, asked for only by a certificate with huge exponents, is built
        per call."""
        if w in self.packed:
            return self.packed[w]
        nvars = len(self.table)
        unit = [1 << b for b in range(0, w * (nvars + self.n), w)]
        xunit = unit[:nvars]
        out = ([0, *[sum(map(unit.__getitem__, g)) for g in self.supports]],
               [0, *unit[nvars:]], xunit, sum(xunit) << (w - 1))
        if w <= _CACHED_WIDTH:
            self.packed[w] = out
        return out

    def generator(self, i: int) -> Monomial:
        """1-indexed generator access: generator(i) is f_i."""
        if not 1 <= i <= self.n:
            raise IndexError(f"generator index {i} out of range 1..{self.n}")
        return self.gens[i - 1]


def validate_ideal(table: VariableTable,
                   gens: tuple[Monomial, ...]) -> tuple[frozenset[int], ...]:
    """Check the generators; return their supports, in order.  They are
    square-free, so f_i | f_j exactly when supp(f_i) <= supp(f_j)."""
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
    supports = tuple(g.support for g in gens)
    for i, a in enumerate(supports, start=1):
        for j, b in enumerate(supports, start=1):
            if i != j and a <= b:
                raise IdealValidationError(
                    "divisibility", f"generator f{i} divides f{j}")
    return supports


def make_ideal(var_names: Iterable[str],
               gen_supports: Iterable[Iterable[int]]) -> SquareFreeIdeal:
    """Build an ideal from variable names and 0-based support lists."""
    table = VariableTable(tuple(var_names))
    gens = tuple(Monomial.from_support(s) for s in gen_supports)
    return SquareFreeIdeal(table, gens)
