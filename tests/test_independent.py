"""The package's answers against bench/reference.py, which shares no code
with reeskit: Counter products, a plain recursive fiber and a union-find
per pair.  Ideals are drawn by hypothesis, so a disagreement shrinks to a
small counterexample."""

import itertools
import sys
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from reference import (  # noqa: E402
    FiberOracle,
    is_taylor_binomial,
    layer_pairs,
    rt_tallies,
    supports_of,
)

from reeskit.demos import pentagon_ideal, villarreal_ideal  # noqa: E402
from reeskit.monomials import make_ideal  # noqa: E402
from reeskit.oracle import relation_type_estimate  # noqa: E402


def _antichain(supports) -> bool:
    return not any(a <= b for a, b in itertools.permutations(supports, 2))


# five distinct supports of 2 to 4 of 8 variables, as random_ideal draws
# them, none inside another; a new pair shows in about 40% of the examples
IDEALS = st.lists(
    st.frozensets(st.integers(0, 7), min_size=2, max_size=4),
    min_size=5, max_size=5, unique=True).filter(_antichain).map(
        lambda supports: make_ideal([f"x{i}" for i in range(1, 9)],
                                    [sorted(s) for s in supports]))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(IDEALS, st.integers(min_value=2, max_value=4))
@example(villarreal_ideal(), 3)  # a new pair in layer 2
@example(pentagon_ideal(), 4)  # a new pair in layer 3
def test_rt_report_matches_the_reference(ideal, s_max):
    # the tallies, the bounds they imply, and the witness: the lex-first
    # pair of the top new layer that the reference does not reduce, as
    # the Taylor binomial of its rows
    supports = supports_of(ideal)
    report = relation_type_estimate(ideal, s_max)
    tallies = rt_tallies(supports, s_max)
    assert report.layer_tallies == tallies
    lower = max((s for s, (_, no) in tallies.items() if no), default=1)
    assert report.certified_lower == lower
    assert report.verified_upper_through == s_max
    if lower == 1:
        assert report.witness is None
        return
    oracle = FiberOracle(supports)
    first = next((a, b) for a, b in layer_pairs(len(supports), lower)
                 if not oracle.reduces_below(a, b))
    assert (report.witness.alpha, report.witness.beta) == first
    assert is_taylor_binomial(supports, report.witness)
