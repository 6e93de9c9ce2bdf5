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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .monomials import (
    Monomial,
    SquareFreeIdeal,
    mono_mul,
    mono_product,
    render_monomial,
)

Sequence = tuple[int, ...]


def check_sequence(seq: Iterable[int], n: int) -> Sequence:
    """Validate a non-decreasing 1-based index sequence; return it as a tuple."""
    out = tuple(seq)
    if not out:
        raise ValueError("empty index sequence")
    last = 0
    for a in out:
        if not isinstance(a, int) or a < 1 or a > n:
            raise ValueError(f"index {a!r} outside 1..{n}")
        if a < last:
            raise ValueError(f"sequence {out!r} is not non-decreasing")
        last = a
    return out


def run_lengths(seq: Sequence) -> tuple[tuple[int, int], ...]:
    """Multiplicities of a sorted sequence as ((index, count), ...)."""
    return tuple((a, len(list(g))) for a, g in itertools.groupby(seq))


def seq_union(a: Sequence, b: Sequence) -> Sequence:
    return tuple(sorted(a + b))


def seq_remove(a: Sequence, sub: Sequence) -> Sequence:
    """Multiset difference a minus sub; sub must be contained in a."""
    count = Counter(a)
    count.subtract(Counter(sub))
    if any(c < 0 for c in count.values()):
        raise ValueError(f"{sub!r} is not a sub-multiset of {a!r}")
    return tuple(sorted(count.elements()))


def seq_intersection(a: Sequence, b: Sequence) -> Sequence:
    return tuple(sorted((Counter(a) & Counter(b)).elements()))


def multiset_distance(a: Sequence, b: Sequence) -> int:
    """For equal-length sequences: how many entries of a are not matched in b."""
    if len(a) != len(b):
        raise ValueError("rows must have equal length")
    return len(a) - sum((Counter(a) & Counter(b)).values())


def enumerate_sequences(n: int, s: int) -> Iterator[Sequence]:
    """All non-decreasing sequences of length s over 1..n, lex order."""
    if s < 1 or n < 1:
        raise ValueError(f"need s >= 1 and n >= 1, got s = {s}, n = {n}")
    return itertools.combinations_with_replacement(range(1, n + 1), s)


def product_of(ideal: SquareFreeIdeal, seq: Sequence) -> Monomial:
    """f_seq: the product of the generators indexed by seq (with repetition)."""
    return mono_product(ideal.generator(a) for a in seq)


@dataclass(frozen=True)
class RTMonomial:
    """coef * T_{t_1} ... T_{t_s} with the T-multiset stored sorted."""

    coef: Monomial
    tpart: Sequence

    def __post_init__(self):
        if tuple(sorted(self.tpart)) != self.tpart:
            raise ValueError(f"T-part {self.tpart!r} is not sorted")


def rt_mul(a: RTMonomial, b: RTMonomial) -> RTMonomial:
    return RTMonomial(mono_mul(a.coef, b.coef), seq_union(a.tpart, b.tpart))


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


def taylor_binomial(ideal: SquareFreeIdeal, alpha: Iterable[int],
                    beta: Iterable[int]) -> ReesBinomial:
    """One pass over f_alpha / f_beta's exponents gives both coefficients."""
    a = check_sequence(alpha, ideal.n)
    b = check_sequence(beta, ideal.n)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {a!r} vs {b!r}")
    if a == b:
        raise ValueError(f"equal sequences give the zero binomial: {a!r}")
    diff: dict[int, int] = {}
    for seq, sign in ((a, 1), (b, -1)):
        for i in seq:
            for v, e in ideal.generator(i).exps:
                diff[v] = diff.get(v, 0) + sign * e
    return ReesBinomial(
        a, b, Monomial.from_dict({v: -e for v, e in diff.items()}),
        Monomial.from_dict(diff))


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
    return [taylor_binomial(ideal, a, b) for a, b
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
