"""reeskit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload rt_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  One client issues operations back to back from a single
thread (a closed loop).  A pass is one round over the workload's fixed
input set.  With --trace 0, timed passes repeat until --seconds have
elapsed since the first one began, one more pass is checked, and the
end-to-end metrics are printed.  Their times are in reference seconds (see
refclock.py): wall time scaled by the machine's speed, which a timer signal
samples with a fixed kernel.  With --trace 1, one checked untraced pass is
followed by one traced pass, and the per-layer metrics are printed together
with the tracing overhead.  `attempted` and `failed` count the ops of the
checked pass, so they depend on the seed alone; every other pass must give
the same answers as the checked one.  The last
line of standard output is the result as one JSON object; the lines before
it describe the machine, the run, the raw wall-clock figures and every
operation whose claims the exact checks refuted.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

from refclock import SpeedSampler
from tracer import LAYERS, PER_LAYER, Tracer
from workloads import WORKLOADS, Report

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_s.p50": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 15
P90_MIN_OPS = 100


def import_fresh() -> SimpleNamespace:
    """Import every reeskit module anew, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "reeskit" or m.startswith("reeskit.")]:
        del sys.modules[name]
    return SimpleNamespace(**{layer: importlib.import_module(f"reeskit.{layer}")
                              for layer in LAYERS})


def setup(workload: str, seed: int, size: str, work_dir: Path):
    """Time the import and the making of the input set; return the wall
    spans of the timed repetitions and the plan built on the last one.  The
    first, untimed repetition compiles the sources and fills the import
    caches."""
    make_inputs, make_plan = WORKLOADS[workload]
    spans = []
    for rep in range(SETUP_REPEATS + 1):
        gc.collect()  # start each repetition from the same heap
        t0 = time.perf_counter()
        rk = import_fresh()
        inputs = make_inputs(rk, seed, size, work_dir)
        if rep:
            spans.append((t0, time.perf_counter()))
    return spans, rk, make_plan(rk, inputs, seed, size)


class Pass:
    """The timings and answers of one pass over the plan: the wall-clock
    span of every op, in order.  The spans are kept in a flat array, so that
    the memory they take does not move the peak the run reports."""

    def __init__(self, plan, tracer=None, report: Report | None = None):
        self._bounds = array("d")  # each op's start and end, in turn
        self.pairs = 0
        self.failed: list[tuple[str, list[str]]] = []
        digest = hashlib.blake2b(digest_size=16)
        clock = time.perf_counter
        for op in plan.ops:
            if tracer is not None:
                tracer.begin_op()
            t0 = clock()
            try:
                result = op.run()
            except Exception as exc:  # a crashing op is a failed op
                self._bounds.extend((t0, clock()))
                answer = ("raised", type(exc).__name__, str(exc))
                self.failed.append((op.label, [f"raised {exc!r}"]))
                digest.update(repr(answer).encode())
                continue
            self._bounds.extend((t0, clock()))
            answer = op.summarize(result)
            digest.update(repr(answer).encode())
            self.pairs += op.pairs(answer)
            if report is not None:
                reasons = op.check(result, answer, report)
                if reasons:
                    self.failed.append((op.label, reasons))
        if report is not None:
            plan.finish(report)
        self.digest = digest.hexdigest()

    @property
    def spans(self) -> list[tuple[float, float]]:
        return list(zip(self._bounds[::2], self._bounds[1::2]))

    @property
    def run_s(self) -> float:
        """Wall seconds of the pass's ops."""
        return sum(t1 - t0 for t0, t1 in self.spans)


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"cpu={cpu}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny input set for the smoke test")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "reeskit" / "__init__.py").is_file():
        print(f"error: no reeskit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work_dir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when other runs share it
            work_dir.parent.rmdir()


def run(args, work_dir: Path) -> int:
    report = Report()
    if args.trace:
        setup_spans, rk, plan = setup(args.workload, args.seed, args.size,
                                      work_dir)
        checked = Pass(plan, report=report)
        tracer = Tracer(rk)
        tracer.install()
        try:
            traced = Pass(plan, tracer=tracer)
        finally:
            if not tracer.remove():
                report.violations.append("tracing wrappers left behind")
        passes = [checked, traced]
        metrics = tracer.metrics(report.refuted_witnesses,
                                 traced.run_s - checked.run_s)
        op_times = [t1 - t0 for p in passes for t0, t1 in p.spans]
    else:
        with SpeedSampler() as sampler:
            setup_spans, rk, plan = setup(args.workload, args.seed, args.size,
                                          work_dir)
            deadline = time.perf_counter() + args.seconds
            passes = [Pass(plan)]
            while time.perf_counter() < deadline:
                passes.append(Pass(plan))
        # read before the checked pass, whose reference checker holds
        # memory of its own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pass_times = [[sampler.ref_seconds(*span) for span in p.spans]
                      for p in passes]
        op_times = [t for times in pass_times for t in times]
        metrics = {
            "setup_s": statistics.median(sampler.ref_seconds(*span)
                                         for span in setup_spans),
            "run_s": statistics.fmean(sum(times) for times in pass_times),
            # the median of the passes' median ops: a pass of a few ops of
            # very different sizes has no steady median of all its ops
            "op_s.p50": statistics.median(statistics.median(times)
                                          for times in pass_times),
            "pairs_per_s": sum(p.pairs for p in passes) / sum(op_times),
            "peak_rss_mb": peak_rss_mb,
        }
        checked = Pass(plan, report=report)
        passes.append(checked)

    digests = {p.digest for p in passes}
    if len(digests) != 1:
        report.violations.append(
            "answers differ between passes"
            + (" (traced versus untraced)" if args.trace else ""))
    # one pass is checked; the others give the same answers (or the run is
    # not correct), so the counts are those of the checked pass
    attempted = len(checked.spans)
    failed = len(checked.failed)

    print(f"machine: {machine()}")
    print(f"run: workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(passes)} "
          f"ops={len(op_times)} ops_per_pass={len(plan.ops)}")
    setup_wall_s = statistics.median(t1 - t0 for t0, t1 in setup_spans)
    print(f"wall setup_s: {setup_wall_s:.6g}")
    print("wall pass run_s: " + " ".join(f"{p.run_s:.4g}" for p in passes)
          + ("" if args.trace else " (the last is the checked pass)"))
    if not args.trace:
        print("reference pass run_s: "
              + " ".join(f"{sum(times):.4g}" for times in pass_times))
        print(f"machine speed / reference: {sampler.speed():.3g} over "
              f"{len(sampler.rounds)} kernel rounds")
    op_times.sort()
    if len(op_times) >= P90_MIN_OPS:
        p90 = statistics.quantiles(op_times, n=10)[-1]
        print(f"op_s.p90: {p90:.6g} s over {len(op_times)} ops")
    else:
        print(f"op_s.p90: not reported, {len(op_times)} ops "
              f"(needs {P90_MIN_OPS})")
    print(f"ops_failed_frac: {failed / attempted:.6g} "
          f"({failed} of {attempted})")
    for label, reasons in checked.failed:
        for reason in reasons:
            print(f"refuted: seed={args.seed} {label}: {reason}")
    for violation in report.violations:
        print(f"check failed: {violation}")
    if args.trace:
        print(f"trace: untraced run_s={checked.run_s:.6g} "
              f"traced run_s={traced.run_s:.6g}")
        for key, calls, self_s in tracer.top_functions():
            print(f"trace: {key} calls={calls} self_s={self_s:.6g}")

    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not report.violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
