"""pentaset benchmark: one workload as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Each run is one fresh process with no threads or worker processes.  After
set-up, ops run back to back for S seconds and every op's output is checked
against references.json.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced and
untraced ops, and reports the per-layer split from the traced ones together
with per-call times of the cyclotomic kernels.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"

SETUP_REPS = 3
TAIL_MIN_BEYOND = 10
# Reference seconds of one calibration pass: an interval that takes t wall
# seconds while a pass takes c is reported as t * CALIBRATION_REF_S / c.
CALIBRATION_REF_S = 0.005

LAYER_SELF = {  # span name -> per-op self-time metric
    "modelset.enumerate_points": "modelset.enumerate_s",
    "modelset.analyze": "modelset.analyze_s",
    "verify.separation": "verify.separation_s",
    "verify.rotation": "verify.rotation_s",
    "verify.unit-lemma": "verify.unit_lemma_s",
    "verify.two-distance": "verify.two_distance_s",
    "verify.step-existence": "verify.step_existence_s",
    "io_render.read_snapshot": "io_render.read_s",
    "io_render.write_snapshot": "io_render.write_s",
    "io_render.render_svg": "io_render.render_s",
    "cli.run_cli": "cli.self_s",
    "op": "bench.self_s",
}
PER_POINT = {  # span name -> microseconds per point, over every such span
    "modelset.enumerate_points": "modelset.enumerate_us_per_point",
    "modelset.analyze": "modelset.analyze_us_per_point",
    "io_render.read_snapshot": "io_render.read_us_per_point",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _tail(times: list[float], pct: int) -> tuple[float, int]:
    """The pct-th percentile (nearest rank) and the number of ops beyond it."""
    ordered = sorted(times)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def _kernel_ns(seed: int) -> dict[str, float]:
    """Per-call nanoseconds of the cyclotomic kernels on a seeded batch of
    coordinate vectors (the size of pair differences in these workloads),
    loop overhead included; the median of several passes."""
    from pentaset import cyclotomic as cy

    rng = random.Random(seed)
    vecs = [tuple(rng.randint(-12, 12) for _ in range(4)) for _ in range(2000)]
    cyc = [cy.CycInt(*v) for v in vecs]
    gold = [(cy.GoldenInt(a, b), cy.GoldenInt(c, d)) for a, b, c, d in vecs]
    calls = {
        "abs_sq_coords": lambda f: [f(*v) for v in vecs],
        "quad_form": lambda f: [f(*v) for v in vecs],
        "field_norm": lambda f: [f(z) for z in cyc],
        "golden_cmp_golden": lambda f: [f(g, h) for g, h in gold],
        "sqrt5_sign": lambda f: [f(a, b) for a, b, _c, _d in vecs],
        "embed_approx": lambda f: [f(z) for z in cyc],
    }
    out = {}
    for name, call in calls.items():
        fn = getattr(cy, name, None)  # a kernel may be folded into another
        passes = []
        for _ in range(7 if fn is not None else 0):
            t = time.perf_counter()
            call(fn)
            passes.append((time.perf_counter() - t) / len(vecs))
        out[f"cyclotomic.{name}_ns"] = statistics.median(passes) * 1e9 if passes else 0.0
    return out


def _form(a, b, c, d):
    s = a + b + c + d
    return (5 * (a * a + b * b + c * c + d * d) - s * s) // 2, a * b - c * d


def _calibrate() -> float:
    """Wall seconds of one pass of a fixed pure-Python loop doing the same
    kind of work as the package (small-integer arithmetic, calls, tuples).
    It uses nothing from the package, so only the machine changes it."""
    t = time.perf_counter()
    acc = 0
    for a in range(-12, 13):
        for b in range(-12, 13):
            for c in range(-12, 13):
                q, r = _form(a, b, c, a - b)
                acc += q * r
    return time.perf_counter() - t


class SpeedClock:
    """Converts wall seconds to reference seconds.

    On a shared 2-core VM the speed drifted by up to 3x over tens of seconds,
    which moved a plain wall-clock median by up to 37% between runs.  A
    calibration pass runs before and after every timed interval, and the
    interval is scaled by the mean of the two, so a drift that slows the
    program and the calibration alike cancels.
    """

    def __init__(self):
        self._last = _calibrate()

    def scale(self, wall_s: float) -> float:
        after = _calibrate()
        ref = wall_s * CALIBRATION_REF_S * 2 / (self._last + after)
        self._last = after
        return ref


class Loop:
    """Runs ops, checks each one's output and records its wall time."""

    def __init__(self, workload, check, inputs):
        self.workload, self.check, self.inputs = workload, check, inputs
        self.attempted = self.failed = 0
        self.first_failure = None

    def run_op(self, state, radius_sq, tracer=None, op_id=None) -> float:
        """One checked op; returns its wall seconds (checking excluded)."""
        failures = []
        t = time.perf_counter()
        try:
            with tracer.op(op_id) if tracer is not None else nullcontext():
                out = self.workload.op(state, radius_sq)
        except Exception as e:  # the op failed; count it and keep measuring
            failures.append(f"{type(e).__name__}: {e}")
        dt = time.perf_counter() - t
        if not failures:
            try:
                failures = self.check(radius_sq, out)
            except Exception as e:  # malformed output the gate cannot parse
                failures = [f"unparseable output: {type(e).__name__}: {e}"]
        if failures:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"radius_sq={radius_sq}: " + "; ".join(failures)
        return dt


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "pentaset" / "__init__.py").is_file():
        print(f"error: no package at {SRC}/pentaset; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # imports pentaset
    import_s = time.perf_counter() - _T0

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    WORKDIR.mkdir(exist_ok=True)
    clock = SpeedClock()
    import_s = clock.scale(import_s)
    loop = Loop(workload, partial(workloads.gate, workload, references),
                workloads.input_sequence(workload.pool, args.seed))
    try:
        # Set-up: build the inputs and run one untimed warm-up op, several
        # times; the first time also pays for the import.
        setup_reps = []
        for k in range(SETUP_REPS):
            t = time.perf_counter()
            with tracer.op(f"setup-{k}") if tracer is not None else nullcontext():
                state = workload.setup(WORKDIR)
            build_s = time.perf_counter() - t
            setup_reps.append(clock.scale(build_s + loop.run_op(state, next(loop.inputs))))
        warmup_failed, loop.failed = loop.failed, 0

        plain, traced, wall = [], [], []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or not plain:
            i = loop.attempted
            loop.attempted += 1
            use_tracer = tracer if tracer is not None and i % 2 == 0 else None
            wall.append(loop.run_op(state, next(loop.inputs), use_tracer, i))
            (traced if use_tracer else plain).append(clock.scale(wall[-1]))
    finally:
        for path in WORKDIR.glob("snapshot-*.jsonl"):
            path.unlink()

    if tracer is not None:
        tracer.write(WORKDIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
        metrics = _layer_metrics(tracer, traced, plain, args.seed)
    else:
        print(f"{workload.name} median wall seconds per op (not scaled) = "
              f"{statistics.median(wall):.6g} s")
        metrics = _end_to_end(workload, plain, import_s, setup_reps)
    if loop.first_failure:
        print(f"first failure: {loop.first_failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} fail_ratio = {loop.failed / loop.attempted:.6g} "
          f"({loop.failed} of {loop.attempted} ops; warm-up failures {warmup_failed})")
    print(json.dumps({"correct": loop.failed == 0 and warmup_failed == 0,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


def _end_to_end(workload, times, import_s, setup_reps) -> dict:
    tail, beyond = _tail(times, workload.tail_pct)
    print(f"{workload.name} op_s_tail is p{workload.tail_pct} of {len(times)} ops, "
          f"{beyond} ops beyond it"
          + ("" if beyond >= TAIL_MIN_BEYOND else f" (fewer than {TAIL_MIN_BEYOND})"))
    print(f"{workload.name} setup_s = import {import_s:.4f} s + median of "
          f"{len(setup_reps)} set-ups {[round(s, 4) for s in setup_reps]}")
    return {
        "op_s": {"value": statistics.median(times), "unit": "s"},
        "op_s_tail": {"value": tail, "unit": "s"},
        "setup_s": {"value": import_s + statistics.median(setup_reps), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def _layer_metrics(tracer, traced, plain, seed) -> dict:
    """Per-op means of each layer's self time over the traced ops, per-point
    times over every span (set-up included), and the counts of op 0, whose
    input depends only on the seed."""
    self_s = dict.fromkeys(LAYER_SELF.values(), 0.0)
    per_point = {name: [0.0, 0] for name in PER_POINT}
    first = {}
    for span, own in tracer.self_times():
        name, attrs = span["name"], span["attrs"]
        if isinstance(span["op"], int) and name in LAYER_SELF:
            self_s[LAYER_SELF[name]] += own / len(traced)
        if name in PER_POINT and attrs.get("points"):
            per_point[name][0] += span["end"] - span["start"]
            per_point[name][1] += attrs["points"]
        if span["op"] == 0:
            first[name] = attrs

    def count(span_name, key):
        return {"value": first.get(span_name, {}).get(key, 0), "unit": "count"}

    m = {k: {"value": v, "unit": "s"} for k, v in self_s.items()}
    for span_name, metric in PER_POINT.items():
        t, n = per_point[span_name]
        m[metric] = {"value": t / n * 1e6 if n else 0.0, "unit": "us"}
    source = next((n for n in ("modelset.analyze", "modelset.enumerate_points",
                               "io_render.read_snapshot") if n in first), None)
    m["modelset.points"] = count(source, "points")
    m["modelset.inner_points"] = count("modelset.analyze", "inner_points")
    for check in ("separation", "rotation", "unit-lemma", "two-distance", "step-existence"):
        m[f"verify.{check.replace('-', '_')}.tested"] = count(f"verify.{check}", "tested")
    m["verify.unit_lemma.close_pairs"] = count("verify.unit-lemma", "close_pairs")
    m["io_render.bytes_out"] = {"value": sum(
        first.get(n, {}).get("bytes_out", 0)
        for n in ("io_render.write_snapshot", "io_render.render_svg")), "unit": "count"}
    root = [s["end"] - s["start"] for s in tracer.spans
            if s["name"] == "op" and isinstance(s["op"], int)]
    m["trace.op_s"] = {"value": statistics.fmean(root), "unit": "s"}
    m["trace.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(plain) - 1, "unit": "ratio"}
    m.update({k: {"value": v, "unit": "ns"} for k, v in _kernel_ns(seed).items()})
    return m


if __name__ == "__main__":
    sys.exit(main())
