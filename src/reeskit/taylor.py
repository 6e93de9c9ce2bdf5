"""Taylor-type generators of the Rees defining ideal.

Index sequences are non-decreasing tuples of 1-based generator indices with
repetition.  For a pair (alpha, beta) of distinct sequences of equal length
the associated binomial is

    T_{alpha,beta} = (f_beta / g) T_alpha - (f_alpha / g) T_beta,

where f_gamma is the product of the generators indexed by gamma and
g = gcd(f_alpha, f_beta), so f_alpha / g and f_beta / g are the positive
and negative parts of one exponent difference, f_alpha / f_beta.  The
first term always carries alpha.

An RTMonomial couples an x-coefficient with a T-multiset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .monomials import (
    Monomial,
    SquareFreeIdeal,
    _monomial,
    mono_mul,
    render_monomial,
)

Sequence = tuple[int, ...]


def check_sequence(seq: Iterable[int], n: int) -> Sequence:
    """Validate a non-decreasing 1-based index sequence; return it as a tuple.

    One pass, one chained comparison per entry; the first entry that fails
    names the fault: a non-int (bool included) or an index outside 1..n,
    else a descent."""
    out = tuple(seq)
    if not out:
        raise ValueError("empty index sequence")
    last = 1
    for a in out:
        if not (type(a) is int and last <= a <= n):
            if type(a) is int and 1 <= a <= n:
                raise ValueError(f"sequence {out!r} is not non-decreasing")
            raise ValueError(f"index {a!r} outside 1..{n}")
        last = a
    return out


def run_lengths(seq: Sequence) -> tuple[tuple[int, int], ...]:
    """Multiplicities of a sorted sequence as ((index, count), ...)."""
    return tuple((a, len(list(g))) for a, g in itertools.groupby(seq))


def seq_remove(a: Sequence, sub: Sequence) -> Sequence:
    """Multiset difference a minus sub; sub must be contained in a."""
    out = list(a)
    for x in sub:
        if x not in out:
            raise ValueError(f"{sub!r} is not a sub-multiset of {a!r}")
        out.remove(x)
    return tuple(out)


def seq_intersection(a: Sequence, b: Sequence) -> Sequence:
    """Multiset intersection, in the order of a."""
    rest = list(b)
    return tuple(rest.pop(rest.index(x)) for x in a if x in rest)


def multiset_distance(a: Sequence, b: Sequence) -> int:
    """For equal-length sequences: how many entries of a are not matched in b."""
    if len(a) != len(b):
        raise ValueError("rows must have equal length")
    return len(a) - len(seq_intersection(a, b))


def enumerate_sequences(n: int, s: int) -> Iterator[Sequence]:
    """All non-decreasing sequences of length s over 1..n, lex order."""
    if s < 1 or n < 1:
        raise ValueError(f"need s >= 1 and n >= 1, got s = {s}, n = {n}")
    return itertools.combinations_with_replacement(range(1, n + 1), s)


def _exponents(ideal: SquareFreeIdeal, seq: Sequence,
               minus: Sequence = ()) -> list[int]:
    """The exponent of each table variable in f_seq / f_minus, counted from
    the support table in one list; the rows are not checked."""
    out = [0] * len(ideal.table)
    supports = ideal.supports
    for row, sign in ((seq, 1), (minus, -1)):
        for a in row:
            for v in supports[a - 1]:
                out[v] += sign
    return out


def product_of(ideal: SquareFreeIdeal, seq: Sequence) -> Monomial:
    """f_seq: the product of the generators indexed by seq (with repetition)."""
    seq = tuple(seq)
    for a in seq:
        ideal.generator(a)  # IndexError outside 1..n
    return _monomial(tuple([(v, e) for v, e
                            in enumerate(_exponents(ideal, seq)) if e]))


@dataclass(frozen=True)
class RTMonomial:
    """coef * T_{t_1} ... T_{t_s} with the T-multiset stored sorted."""

    coef: Monomial
    tpart: Sequence

    def __post_init__(self):
        if tuple(sorted(self.tpart)) != self.tpart:
            raise ValueError(f"T-part {self.tpart!r} is not sorted")


def weighted_degree(ideal: SquareFreeIdeal, w: RTMonomial) -> int:
    """Total degree after substituting T_i -> f_i t: x-degree plus the sum of
    the degrees of the generators in the T-part."""
    return w.coef.degree + sum(ideal.generator(a).degree for a in w.tpart)


@dataclass(frozen=True)
class ReesBinomial:
    """T_{alpha,beta} = lhs_coef T_alpha - rhs_coef T_beta."""

    alpha: Sequence
    beta: Sequence
    lhs_coef: Monomial
    rhs_coef: Monomial

    @property
    def degree(self) -> int:
        return len(self.alpha)

    def terms(self) -> tuple[RTMonomial, RTMonomial]:
        return (RTMonomial(self.lhs_coef, self.alpha),
                RTMonomial(self.rhs_coef, self.beta))


def check_rows(ideal: SquareFreeIdeal, alpha: Iterable[int],
               beta: Iterable[int]) -> tuple[Sequence, Sequence]:
    """Rows from outside the engine, checked to be distinct non-decreasing
    sequences over 1..n of one length; returned as tuples."""
    a = check_sequence(alpha, ideal.n)
    b = check_sequence(beta, ideal.n)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {a!r} vs {b!r}")
    if a == b:
        raise ValueError(f"equal sequences give the zero binomial: {a!r}")
    return a, b


def taylor_binomial(ideal: SquareFreeIdeal, alpha: Iterable[int],
                    beta: Iterable[int]) -> ReesBinomial:
    """T_{alpha,beta} for rows from outside the engine (see check_rows)."""
    return _binomial(ideal, *check_rows(ideal, alpha, beta))


def _binomial(ideal: SquareFreeIdeal, a: Sequence, b: Sequence) -> ReesBinomial:
    """T_{a,b} of rows already checked: the exponents of f_a / f_b, counted
    once, split by sign into both coefficients in one pass."""
    lhs, rhs = [], []
    for v, e in enumerate(_exponents(ideal, a, b)):
        if e > 0:
            rhs.append((v, e))
        elif e:
            lhs.append((v, -e))
    return ReesBinomial(a, b, _monomial(tuple(lhs)), _monomial(tuple(rhs)))


def swap_binomial(b: ReesBinomial) -> ReesBinomial:
    """T_{beta,alpha}, the negation of T_{alpha,beta}."""
    return ReesBinomial(b.beta, b.alpha, b.rhs_coef, b.lhs_coef)


def substitute_check(ideal: SquareFreeIdeal, b: ReesBinomial) -> bool:
    """True when the binomial maps to zero under T_i -> f_i t."""
    lhs = mono_mul(b.lhs_coef, product_of(ideal, b.alpha))
    rhs = mono_mul(b.rhs_coef, product_of(ideal, b.beta))
    return lhs == rhs


def taylor_layer(ideal: SquareFreeIdeal, s: int) -> list[ReesBinomial]:
    """All T_{alpha,beta} with alpha < beta lexicographically in layer s."""
    if s < 1:
        raise ValueError(f"layer must be at least 1, got {s}")
    return [_binomial(ideal, a, b) for a, b
            in itertools.combinations(enumerate_sequences(ideal.n, s), 2)]


# --- rendering ------------------------------------------------------------

def render_tpart(seq: Sequence) -> str:
    if not seq:
        return ""
    return "*".join(f"T{a}" if mult == 1 else f"T{a}^{mult}"
                    for a, mult in run_lengths(seq))


def render_rtmonomial(ideal: SquareFreeIdeal, m: RTMonomial) -> str:
    tpart = render_tpart(m.tpart)
    if m.coef.is_one:
        return tpart if tpart else "1"
    coef = render_monomial(m.coef, ideal.table)
    return f"{coef}*{tpart}" if tpart else coef


def render_binomial(ideal: SquareFreeIdeal, b: ReesBinomial) -> str:
    u, v = b.terms()
    return f"{render_rtmonomial(ideal, u)} - {render_rtmonomial(ideal, v)}"
