"""Independent exact checks used by the benchmark's output check.

Nothing here imports reeskit.  An ideal is a tuple of generator supports
(frozensets of 0-based variable indices, generator i at position i - 1), and
binomials and certificates are read only through their plain fields, so a
defect in the package cannot hide behind the same defect in its checker.

reduces_below decides whether T_{alpha,beta} of layer s lies in the ideal
generated by all relation layers of degree < s.  Every monomial reachable
from (f_beta/g) T_alpha is (M / f_delta) T_delta with M = lcm(f_alpha,
f_beta) and f_delta | M, and a move between two such nodes exists under the
lower layers exactly when the two sequences share an index (multiset
distance at most s - 1).  So the answer is whether alpha and beta meet in
one class when the indices of every fiber node are merged.  The fiber is
built directly, by a depth-first search over generator multiplicities
bounded by the exponents of M.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable


def supports_of(ideal) -> tuple[frozenset, ...]:
    return tuple(frozenset(v for v, _ in g.exps) for g in ideal.gens)


def f_of(supports, seq: Iterable[int]) -> Counter:
    """Exponent vector of f_seq, the product of the indexed generators."""
    out: Counter = Counter()
    for i in seq:
        out.update(supports[i - 1])
    return out


def layer_pairs(n: int, s: int):
    """All pairs alpha < beta (lex) of non-decreasing length-s sequences."""
    seqs = list(itertools.combinations_with_replacement(range(1, n + 1), s))
    for i, a in enumerate(seqs):
        for b in seqs[i + 1:]:
            yield a, b


def fiber(supports, cap: dict, s: int) -> list[tuple[int, ...]]:
    """Every length-s sequence delta with f_delta dividing the monomial
    whose exponent vector is cap."""
    n = len(supports)
    out: list[tuple[int, ...]] = []
    room = dict(cap)

    def rec(i: int, left: int, prefix: tuple[int, ...]) -> None:
        if left == 0:
            out.append(prefix)
            return
        if i > n:
            return
        sup = supports[i - 1]
        most = min(min((room.get(v, 0) for v in sup), default=0), left)
        for m in range(most, 0, -1):
            for v in sup:
                room[v] -= m
            rec(i + 1, left - m, prefix + (i,) * m)
            for v in sup:
                room[v] += m
        rec(i + 1, left, prefix)

    rec(1, s, ())
    return out


class FiberOracle:
    """reduces_below for one ideal, caching the index classes per fiber."""

    def __init__(self, supports):
        self.supports = supports
        self.num_vars = 1 + max(max(sup) for sup in supports)
        self._f: dict = {}
        self._classes: dict = {}

    def _f_vec(self, seq: tuple[int, ...]) -> tuple[int, ...]:
        vec = self._f.get(seq)
        if vec is None:
            counts = f_of(self.supports, seq)
            vec = tuple(counts[v] for v in range(self.num_vars))
            self._f[seq] = vec
        return vec

    def reduces_below(self, alpha, beta) -> bool:
        alpha, beta = tuple(alpha), tuple(beta)
        if set(alpha) & set(beta):
            return True
        cap = tuple(map(max, self._f_vec(alpha), self._f_vec(beta)))
        key = (len(alpha), cap)
        root = self._classes.get(key)
        if root is None:
            root = self._index_classes(dict(enumerate(cap)), len(alpha))
            self._classes[key] = root
        return root[alpha[0]] == root[beta[0]]

    def _index_classes(self, cap: dict, s: int) -> dict:
        parent = {i: i for i in range(1, len(self.supports) + 1)}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for delta in fiber(self.supports, cap, s):
            first = find(delta[0])
            for i in delta[1:]:
                parent[find(i)] = first
        return {i: find(i) for i in parent}


def rt_tallies(supports, s_max: int) -> dict[int, tuple[int, int]]:
    """Per layer 2..s_max: (pairs that reduce below, pairs that do not)."""
    oracle = FiberOracle(supports)
    out = {}
    for s in range(2, s_max + 1):
        yes = no = 0
        for a, b in layer_pairs(len(supports), s):
            if oracle.reduces_below(a, b):
                yes += 1
            else:
                no += 1
        out[s] = (yes, no)
    return out


# --- binomials and certificates ----------------------------------------------

def _exps(counter: Counter) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((v, e) for v, e in counter.items() if e > 0))


def is_taylor_binomial(supports, b) -> bool:
    """b has the coefficients (f_beta/g, f_alpha/g) of its own pair."""
    alpha, beta = tuple(b.alpha), tuple(b.beta)
    n = len(supports)
    if not alpha or len(alpha) != len(beta) or alpha == beta:
        return False
    if any(not 1 <= i <= n for i in alpha + beta):
        return False
    if list(alpha) != sorted(alpha) or list(beta) != sorted(beta):
        return False
    fa, fb = f_of(supports, alpha), f_of(supports, beta)
    g = fa & fb
    return (tuple(b.lhs_coef.exps) == _exps(fb - g)
            and tuple(b.rhs_coef.exps) == _exps(fa - g))


def _mul(coef, tfactor, term):
    x = Counter(dict(coef))
    x.update(dict(term[0]))
    return (_exps(x), tuple(sorted(tuple(tfactor) + term[1])))


def _binomial_terms(b):
    return ((tuple(b.lhs_coef.exps), tuple(b.alpha)),
            (tuple(b.rhs_coef.exps), tuple(b.beta)))


def certificate_holds(supports, cert) -> bool:
    """The target and every sub-binomial are genuine Taylor binomials and
    target = sum coef * T_tfactor * sub holds as a polynomial identity."""
    if not is_taylor_binomial(supports, cert.target):
        return False
    total: Counter = Counter()
    for term in cert.terms:
        if not is_taylor_binomial(supports, term.sub):
            return False
        u, v = _binomial_terms(term.sub)
        coef = tuple(term.coef.exps)
        total[_mul(coef, term.tfactor, u)] += 1
        total[_mul(coef, term.tfactor, v)] -= 1
    u, v = _binomial_terms(cert.target)
    total[u] -= 1
    total[v] += 1
    return not any(total.values())
