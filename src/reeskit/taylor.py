"""Taylor-type generators of the Rees defining ideal.

Index sequences are non-decreasing tuples of 1-based generator indices with
repetition.  For a pair (alpha, beta) of distinct sequences of equal length
the associated binomial is

    T_{alpha,beta} = (f_beta / g) T_alpha - (f_alpha / g) T_beta,

where f_gamma is the product of the generators indexed by gamma and
g = gcd(f_alpha, f_beta).  The first term always carries alpha.

An RTMonomial couples an x-coefficient with a T-multiset; RTPolynomial is a
plain dict mapping RTMonomial to a nonzero integer coefficient.  All
polynomial identities in the package are verified with these exact types.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .monomials import (
    Monomial,
    SquareFreeIdeal,
    mono_div_exact,
    mono_divides,
    mono_gcd,
    mono_mul,
    mono_product,
    render_monomial,
)

Sequence = tuple[int, ...]
RTPolynomial = dict["RTMonomial", int]


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


def seq_contains(a: Sequence, sub: Sequence) -> bool:
    count = Counter(a)
    count.subtract(Counter(sub))
    return all(c >= 0 for c in count.values())


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


def rt_divides(a: RTMonomial, b: RTMonomial) -> bool:
    return seq_contains(b.tpart, a.tpart) and mono_divides(a.coef, b.coef)


def rt_div_exact(a: RTMonomial, b: RTMonomial) -> RTMonomial:
    return RTMonomial(mono_div_exact(a.coef, b.coef),
                      seq_remove(a.tpart, b.tpart))


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
    a = check_sequence(alpha, ideal.n)
    b = check_sequence(beta, ideal.n)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {a!r} vs {b!r}")
    if a == b:
        raise ValueError(f"equal sequences give the zero binomial: {a!r}")
    fa = product_of(ideal, a)
    fb = product_of(ideal, b)
    g = mono_gcd(fa, fb)
    return ReesBinomial(a, b, mono_div_exact(fb, g), mono_div_exact(fa, g))


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
    seqs = list(enumerate_sequences(ideal.n, s))
    prods = [product_of(ideal, a) for a in seqs]
    out = []
    for i, (a, fa) in enumerate(zip(seqs, prods)):
        for b, fb in zip(seqs[i + 1:], prods[i + 1:]):
            g = mono_gcd(fa, fb)
            out.append(ReesBinomial(a, b, mono_div_exact(fb, g),
                                    mono_div_exact(fa, g)))
    return out


# --- exact polynomial bookkeeping -----------------------------------------

def expand(b: ReesBinomial) -> RTPolynomial:
    u, v = b.terms()
    poly: RTPolynomial = {u: 1}
    poly[v] = poly.get(v, 0) - 1
    return {m: c for m, c in poly.items() if c != 0}


def poly_add(p: RTPolynomial, q: RTPolynomial) -> RTPolynomial:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
        if out[m] == 0:
            del out[m]
    return out


def poly_scale_by(p: RTPolynomial, k: int, coef: Monomial,
                  tfactor: Sequence = ()) -> RTPolynomial:
    """k * coef * T_tfactor * p."""
    if k == 0:
        return {}
    factor = RTMonomial(coef, tuple(sorted(tfactor)))
    return {rt_mul(factor, m): k * c for m, c in p.items()}


def poly_is_zero(p: RTPolynomial) -> bool:
    return not p


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
