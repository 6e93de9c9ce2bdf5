"""Per-layer tracing by wrapping the public functions of reeskit's modules.

A layer is one module of the package.  install() replaces every public
function of every module with a wrapper, including the copies other modules
bind with ``from .x import y``, and remove() puts the originals back.  Only
the traced pass runs with the wrappers in place.

Spans are aggregated as they close rather than stored: monomial arithmetic
alone opens millions of them per pass.  Each function keeps its call count,
its self time (the span minus its child spans) and how often it raised.
A few functions also feed counters from their arguments and results; those
hooks read plain fields and never call back into the package.
"""

from __future__ import annotations

import inspect
import math
import re
import time
from collections import Counter

from reference import f_of, supports_of

LAYERS = ("monomials", "taylor", "oracle", "reduction", "graphs", "classify",
          "demos", "ideal_io", "cli")

RULES = ("shared_index", "power_factor", "constant_row", "block_disjoint",
         "two_by_two", "three_by_two", "tree_leaf", "odd_cycle_step")

_FIBER_NOTE = re.compile(r"fiber universe (\d+) nodes")

# name -> unit, in the order the traced run reports them
PER_LAYER = {
    "oracle.member_lower.calls": "count",
    "oracle.member_lower.self_s": "s",
    "oracle.single_move_frac": "frac",
    "oracle.seqs_enumerated": "count",
    "oracle.fiber_nodes": "count",
    "oracle.fiber_yield": "frac",
    "oracle.fiber_reuse_frac": "frac",
    "oracle.yes_frac": "frac",
    "oracle.chain_steps": "count",
    "oracle.rt.self_s": "s",
    "taylor.product_of.calls": "count",
    "taylor.binomial.calls": "count",
    "taylor.layer.self_s": "s",
    "taylor.self_s": "s",
    "monomials.calls": "count",
    "monomials.self_s": "s",
    "reduction.reduce.calls": "count",
    "reduction.reduce.self_s": "s",
    "reduction.split.calls": "count",
    "reduction.hypothesis_fail_frac": "frac",
    **{f"reduction.rule.{r}.{k}": "count" for r in RULES
       for k in ("attempts", "hits")},
    "reduction.certs": "count",
    "reduction.verify.self_s": "s",
    "reduction.stuck": "count",
    "reduction.witness.calls": "count",
    "graphs.build_graph.calls": "count",
    "graphs.self_s": "s",
    "classify.calls": "count",
    "classify.self_s": "s",
    "classify.witness_candidates": "count",
    "classify.witnesses_refuted": "count",
    "demos.self_s": "s",
    "ideal_io.load.calls": "count",
    "ideal_io.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self, rk):
        self.rk = rk
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, raised]
        self.counters: Counter = Counter()
        self._frames: list[list] = [[0.0, None]]  # [child_s, key] per span
        self._patched: list[tuple] = []
        self._fibers_seen: set = set()
        self._supports: dict = {}
        self._hooks = {
            "oracle.member_lower": self._member_lower,
            "reduction.reduce_to_normal": self._reduce,
            "reduction.irredundancy_witness": self._witness,
            **{f"reduction.rule_{r}": self._rule_hook(r) for r in RULES},
        }

    # --- installing and removing the wrappers --------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(self.rk, layer)
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    key = f"{layer}.{name}"
                    wrappers[fn] = self._wrap(key, fn, self._hooks.get(key))
        for layer in LAYERS:
            mod = getattr(self.rk, layer)
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrappers[value])

    def remove(self) -> bool:
        """Restore every original; True when no wrapper is left behind."""
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        clean = all(getattr(mod, name) is original
                    for mod, name, original in self._patched)
        self._patched.clear()
        return clean

    def begin_op(self) -> None:
        self._fibers_seen.clear()

    def _wrap(self, key, fn, hook):
        stat = self.stats.setdefault(key, [0, 0.0, 0])
        frames = self._frames
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, key]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                t1 = clock()
                if hook is not None:
                    hook(args, kwargs, result, frames[-2][1])
                return result
            except BaseException:
                t1 = clock()
                stat[2] += 1
                raise
            finally:
                frames.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                frames[-1][0] += clock() - t0

        return wrapper

    # --- counters fed by hooks -----------------------------------------------

    def _member_lower(self, args, kwargs, verdict, parent) -> None:
        ideal = args[0]
        b = args[1] if len(args) > 1 else kwargs["b"]
        k = args[2] if len(args) > 2 else kwargs["k"]
        c = self.counters
        c["ml_yes"] += verdict.status == "yes"
        c["ml_chain_steps"] += len(verdict.chain)
        s = len(b.alpha)
        common = sum((Counter(b.alpha) & Counter(b.beta)).values())
        if s - common <= k:
            c["ml_single_move"] += 1
            return
        c["ml_fiber_calls"] += 1
        c["ml_seqs"] += math.comb(ideal.n + s - 1, s)
        m = _FIBER_NOTE.search(verdict.note)
        if m:
            c["ml_fiber_nodes"] += int(m.group(1))
        sup = self._supports.get(id(ideal))
        if sup is None:
            sup = self._supports[id(ideal)] = (ideal, supports_of(ideal))
        fa, fb = f_of(sup[1], b.alpha), f_of(sup[1], b.beta)
        lcm = tuple(sorted((fa | fb).items()))
        if (s, lcm) in self._fibers_seen:
            c["ml_fiber_reused"] += 1
        else:
            self._fibers_seen.add((s, lcm))

    def _reduce(self, args, kwargs, outcome, parent) -> None:
        self.counters["certs"] += len(outcome.chain)
        self.counters["stuck"] += outcome.status == "stuck"

    def _witness(self, args, kwargs, result, parent) -> None:
        if parent == "classify.nonlinear_witnesses":
            self.counters["witness_candidates"] += 1

    def _rule_hook(self, rule):
        def hook(args, kwargs, result, parent):
            self.counters[f"hits.{rule}"] += result is not None
        return hook

    # --- the per-layer metrics -----------------------------------------------

    def metrics(self, refuted_witnesses: int, overhead_s: float) -> dict:
        st, c = self.stats, self.counters

        def calls(key):
            return st.get(key, (0, 0.0, 0))[0]

        def self_s(key):
            return st.get(key, (0, 0.0, 0))[1]

        def layer(name, field):
            return sum(v[field] for k, v in st.items()
                       if k.split(".", 1)[0] == name)

        def frac(num, den):
            return num / den if den else 0.0

        ml_calls = calls("oracle.member_lower")
        splits = calls("reduction.split_certificate")
        out = {
            "oracle.member_lower.calls": ml_calls,
            "oracle.member_lower.self_s": self_s("oracle.member_lower"),
            "oracle.single_move_frac": frac(c["ml_single_move"], ml_calls),
            "oracle.seqs_enumerated": c["ml_seqs"],
            "oracle.fiber_nodes": c["ml_fiber_nodes"],
            "oracle.fiber_yield": frac(c["ml_fiber_nodes"], c["ml_seqs"]),
            "oracle.fiber_reuse_frac": frac(c["ml_fiber_reused"],
                                            c["ml_fiber_calls"]),
            "oracle.yes_frac": frac(c["ml_yes"], ml_calls),
            "oracle.chain_steps": c["ml_chain_steps"],
            "oracle.rt.self_s": self_s("oracle.relation_type_estimate"),
            "taylor.product_of.calls": calls("taylor.product_of"),
            "taylor.binomial.calls": calls("taylor.taylor_binomial"),
            "taylor.layer.self_s": self_s("taylor.taylor_layer"),
            "taylor.self_s": layer("taylor", 1),
            "monomials.calls": layer("monomials", 0),
            "monomials.self_s": layer("monomials", 1),
            "reduction.reduce.calls": calls("reduction.reduce_to_normal"),
            "reduction.reduce.self_s": self_s("reduction.reduce_to_normal"),
            "reduction.split.calls": splits,
            "reduction.hypothesis_fail_frac": frac(
                st.get("reduction.split_certificate", (0, 0.0, 0))[2], splits),
        }
        for r in RULES:
            out[f"reduction.rule.{r}.attempts"] = calls(f"reduction.rule_{r}")
            out[f"reduction.rule.{r}.hits"] = c[f"hits.{r}"]
        out.update({
            "reduction.certs": c["certs"],
            "reduction.verify.self_s": self_s("reduction.verify_certificate"),
            "reduction.stuck": c["stuck"],
            "reduction.witness.calls": calls("reduction.irredundancy_witness"),
            "graphs.build_graph.calls": calls("graphs.build_graph"),
            "graphs.self_s": layer("graphs", 1),
            "classify.calls": calls("classify.classify"),
            "classify.self_s": layer("classify", 1),
            "classify.witness_candidates": c["witness_candidates"],
            "classify.witnesses_refuted": refuted_witnesses,
            "demos.self_s": layer("demos", 1),
            "ideal_io.load.calls": calls("ideal_io.load_ideal"),
            "ideal_io.self_s": layer("ideal_io", 1),
            "cli.self_s": layer("cli", 1),
            "trace.overhead_s": overhead_s,
        })
        return out

    def top_functions(self, limit: int = 12) -> list[tuple[str, int, float]]:
        rows = [(k, v[0], v[1]) for k, v in self.stats.items() if v[0]]
        rows.sort(key=lambda r: -r[2])
        return rows[:limit]
