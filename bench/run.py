"""Benchmark for equichi: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload subdiv-ladder --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, so nothing needs installing.  One process runs one
workload, single-threaded: it sets the inputs up (several times, to time
set-up), then runs passes over the workload's ops, checking every outcome
against a known answer, until `--seconds` have passed.  The first
MIN_PASSES passes (one when traced) always run whole; a later pass stops
at the deadline.

Untraced (`--trace 0`) the result holds the end-to-end metrics of
BENCHMARK.json.  Traced (`--trace 1`) every op runs untraced and then
traced; the result holds the per-layer metrics, medians over the passes,
and the tracing overhead measured against the untraced runs.  Spans, counts,
per-op times and provenance are written to `.bench_out/` in the checkout.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10
# ops above the tail: enough that their samples over MIN_PASSES passes
# number at least TAIL_BEYOND
TAIL_OPS_BEYOND = math.ceil(TAIL_BEYOND / MIN_PASSES)

# Host speed.  On a shared host the same code runs up to 1.8 times slower
# for a fraction of a second to minutes at a time, with CPU time equal to
# wall time, and the slowdown moves run medians by more than any bound worth
# setting.  So every end-to-end time is taken in reference seconds: each
# stretch of a timed call, between two measurements of a fixed reference
# kernel taken every SAMPLE_EVERY_S, counts its measured time divided by the
# kernel's mean time at its two ends, times REF_NOMINAL_S, the kernel's time
# in the slow state of the host the baseline was taken on.  The kernel calls
# nothing in the package, so a change to the package moves reference seconds
# as it moves seconds.  The measured seconds are reported beside them in
# `detail`.
REF_NOMINAL_S = 0.0014
SAMPLE_EVERY_S = 0.1


def reference_kernel() -> frozenset:
    """Plain Python work of the package's kind: small sorted tuples, dict and
    set building."""
    counts: dict[tuple[int, ...], int] = {}
    for i in range(1500):
        key = tuple(sorted(((i * 7919) % 1009, (i * 31) % 97, i % 13)))
        counts[key] = counts.get(key, 0) + i
    return frozenset(k for k in counts if k[0] % 2)


def host_speed() -> float:
    """Seconds the reference kernel takes now: the best of two runs."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Times one call in seconds and reference seconds.  A timer signal
    measures host speed every SAMPLE_EVERY_S while the call runs; each part
    between two measurements is scaled by the host speed at its two ends, and
    the time spent measuring is left out."""

    def __init__(self):
        self.elapsed = self.ref_elapsed = 0.0

    def run(self, fn):
        previous = signal.signal(signal.SIGALRM, lambda *_: self.step())
        self.speed = host_speed()
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.step()
        return result

    def step(self) -> None:
        part = time.perf_counter() - self.start
        speed = host_speed()
        self.elapsed += part
        self.ref_elapsed += part * REF_NOMINAL_S / ((self.speed + speed) / 2)
        self.speed = speed
        self.start = time.perf_counter()


class TracedClock(Clock):
    """A Clock that hands each stretch it times to the tracer, so that spans
    are read in reference seconds too."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def step(self) -> None:
        start, elapsed, ref_elapsed = self.start, self.elapsed, self.ref_elapsed
        super().step()
        part = self.elapsed - elapsed
        if part > 0:
            self.tracer.add_stretch(start, start + part, (self.ref_elapsed - ref_elapsed) / part)


LAYER_SPANS = [
    "cli.args",
    "groups.build",
    "characters.table",
    "characters.attach",
    "gcomplex.build",
    "gcomplex.regularize",
    "complexes.euler",
    "gcomplex.stratify",
    "gcomplex.orbit_space",
    "gcomplex.orientation",
    "lefschetz.multiplicities",
    "strataformula.per_rho",
    "finedecomp.decompose",
    "assembler.assemble",
    "jsonio.parse",
    "jsonio.digest",
    "jsonio.report",
]
LAYER_COUNTS = [
    "characters.classes",
    "characters.conductor",
    "characters.certify_pairs",
    "gcomplex.simplices_in",
    "gcomplex.simplices",
    "gcomplex.subdivisions",
    "gcomplex.strata",
    "gcomplex.components",
    "lefschetz.evaluations",
    "strataformula.rho_calls",
]


def import_package():
    """Import equichi from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "equichi" / "__init__.py").is_file():
        raise SystemExit(f"error: no equichi sources under {src}")
    sys.path.insert(0, str(src))
    import equichi

    if Path(equichi.__file__).resolve().parent != (src / "equichi").resolve():
        raise SystemExit(f"error: imported equichi from {equichi.__file__}, not {src}")


def provenance(seed: int, load_start: tuple[float, ...]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "load_avg_start": load_start,
        "load_avg_end": os.getloadavg(),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: float) -> float:
    """The q-quantile of values, interpolated linearly between ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    i = min(int(pos), len(xs) - 2)
    return xs[i] + (pos - i) * (xs[i + 1] - xs[i])


def layer_unit(name: str) -> str:
    if name in LAYER_COUNTS:
        return "count"
    return "s" if name.endswith("_s") else "frac"


class Runner:
    """Runs passes over the ops and keeps per-op samples and failures."""

    def __init__(self, ops, check):
        self.ops = ops
        self.check = check
        # per-op times in reference seconds; measured seconds in raw_samples
        self.samples: dict[str, list[float]] = {op.id: [] for op in ops}
        self.raw_samples: dict[str, list[float]] = {op.id: [] for op in ops}
        self.traced_samples: dict[str, list[float]] = {op.id: [] for op in ops}  # less probe spans
        self.attempted = 0
        self.passes = 0  # started, whole or cut
        self.failures: list[str] = []
        self.first: dict = {}  # one passing (op, outcome) per command, kind and variant

    def run_op(self, op, tracer=None):
        """Run and check one op; returns (seconds, reference seconds,
        outcome), with outcome None when the op raised."""
        gc.collect()
        self.attempted += 1
        clock = Clock() if tracer is None else TracedClock(tracer)
        try:
            if tracer is None:
                raw = clock.run(op.run)
            else:
                tracer.op = op.id

                def traced():
                    with tracer.span("op"):
                        return op.traced(tracer)

                raw = clock.run(traced)
            outcome = op.outcome(raw)
            reason = self.check(op, outcome)
        except Exception:  # an op that raises is a failed op, not a crash
            self.failures.append(f"{op.id}: {traceback.format_exc(limit=3)}")
            return 0.0, 0.0, None
        if reason is not None:
            self.failures.append(f"{op.id}: {reason}")
        else:
            variant = (op.id.split(":")[0], op.kind, op.expected is None)
            self.first.setdefault(variant, (op, outcome))
        return clock.elapsed, clock.ref_elapsed, outcome

    def run_pass(self, tracer=None, deadline=None) -> bool:
        """One pass over the ops; returns False if it stopped at the deadline.
        With a tracer each op also runs traced back to back with its untraced
        run, so host drift between the two is small; which of the two goes
        first alternates from op to op and from pass to pass.  The traced
        outcome must equal the untraced one."""
        self.passes += 1
        for i, op in enumerate(self.ops):
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            if tracer is None:
                elapsed, ref_elapsed, _ = self.run_op(op)
            elif (self.passes + i) % 2:
                elapsed, ref_elapsed, outcome = self.run_op(op)
                traced_elapsed, traced = self.run_traced(op, tracer)
            else:
                traced_elapsed, traced = self.run_traced(op, tracer)
                elapsed, ref_elapsed, outcome = self.run_op(op)
            self.raw_samples[op.id].append(elapsed)
            self.samples[op.id].append(ref_elapsed)
            if tracer is None:
                continue
            self.traced_samples[op.id].append(traced_elapsed)
            if outcome is not None and traced is not None and not same_outcome(outcome, traced):
                self.failures.append(f"{op.id}: the traced route's outcome differs from the command's")
        return True

    def run_traced(self, op, tracer):
        """run_op traced; returns (reference seconds less the time in probe
        spans, outcome)."""
        first = len(tracer.spans)
        _, ref_elapsed, outcome = self.run_op(op, tracer)
        probes = sum(tracer.duration(s) for s in tracer.spans[first:] if s["probe"])
        return ref_elapsed - probes, outcome


def same_outcome(a, b) -> bool:
    """Exit code, report text and parsed payload agree (stderr carries a
    wall time, so it is left out)."""
    return (a.code, a.text, a.payload) == (b.code, b.text, b.payload)


def layer_metrics(tracer) -> dict[str, float]:
    metrics = {f"{name}_s": tracer.seconds(name) for name in LAYER_SPANS}
    # the geometry probes of each verify op count once, at their median repeat
    geometry: dict[str, float] = {}
    for (op, name), seconds in tracer.probe_medians().items():
        metrics[f"{name}_s"] += seconds
        geometry[op] = geometry.get(op, 0.0) + seconds
    for name in LAYER_COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    # k x (geometry of one complex) / (time in its k per-rho calls), summed
    # over the ops that probe the geometry: the verify ops
    per_rho: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in tracer.spans:
        if s["name"] == "strataformula.per_rho":
            per_rho[s["op"]] = per_rho.get(s["op"], 0.0) + tracer.duration(s)
            calls[s["op"]] = calls.get(s["op"], 0) + 1
    wasted = sum(calls.get(op, 0) * g for op, g in geometry.items())
    rho_time = sum(per_rho.get(op, 0.0) for op in geometry)
    metrics["strataformula.geometry_share"] = wasted / rho_time if rho_time else 0.0
    return metrics


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_start = os.getloadavg()

    import_package()
    import workloads

    raw_import_s = time.perf_counter() - t0
    import_s = raw_import_s * REF_NOMINAL_S / host_speed()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times, raw_setup_times = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            clock = Clock()
            ops = clock.run(lambda: setup(workdir, args.seed))
            raw_setup_times.append(clock.elapsed)
            setup_times.append(clock.ref_elapsed)
        runner = Runner(ops, workloads.check)
        passes, tracers = 0, []
        deadline = time.perf_counter() + args.seconds
        min_passes = 1 if args.trace else MIN_PASSES
        while passes < min_passes or time.perf_counter() < deadline:
            if args.trace:
                tracers.append(Tracer())
            # once the minimum is done, a pass may stop at the deadline
            if runner.run_pass(tracers[-1] if args.trace else None, deadline if passes >= min_passes else None):
                passes += 1
            elif args.trace:
                tracers.pop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tried, missed = workloads.self_check(runner.first)
    if args.trace:  # a traced report that drifts from the command's must show
        for op, o in runner.first.values():
            tried += 1
            if same_outcome(o, workloads.Outcome(o.code, o.payload, o.text + " ", o.err)):
                missed.append(f"{op.id}: drifted traced report")
    selfcheck_ok = tried > 0 and not missed

    # Beyond what the reference kernel corrects, host speed still wavers both
    # ways from op to op, so every timing uses each op's median over its
    # samples: one per pass, and one more for the ops reached by a pass cut at
    # the deadline.
    typical = {op: statistics.median(ts) for op, ts in runner.samples.items()}
    raw_typical = {op: statistics.median(ts) for op, ts in runner.raw_samples.items()}
    # The tail is the percentile of the ops' median times that leaves
    # TAIL_OPS_BEYOND ops above it, interpolated between the two ops around
    # it, so that one op's noise weighs less.
    tail_q = 1 - TAIL_OPS_BEYOND / len(ops)
    ranked = sorted(typical, key=typical.get)
    failed = len(runner.failures)
    if args.trace:
        per_pass = [layer_metrics(tr) for tr in tracers]
        metrics = {
            name: {"value": statistics.median(p[name] for p in per_pass), "unit": layer_unit(name)}
            for name in per_pass[0]
        }
        for name in LAYER_COUNTS:  # the same every pass
            metrics[name]["value"] = per_pass[0][name]
        traced = sum(statistics.median(ts) for ts in runner.traced_samples.values())
        metrics["trace.overhead_frac"] = {"value": traced / sum(typical.values()) - 1, "unit": "frac"}
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": sum(typical.values()), "unit": "s"},
            "op_p50_s": {"value": statistics.median(typical.values()), "unit": "s"},
            "op_tail_s": {"value": percentile(typical.values(), tail_q), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "ok_frac": {"value": 1 - failed / runner.attempted, "unit": "frac"},
        }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(ops),
        "op_tail_percentile": 100 * tail_q,
        "op_tail_samples": sum(len(ts) for ts in runner.samples.values()),
        "op_tail_samples_beyond": sum(len(runner.samples[op]) for op in ranked[-TAIL_OPS_BEYOND:]),
        "import_s": import_s,
        "setup_runs_s": setup_times,
        # the same end-to-end times in measured seconds
        "measured_s": {
            "setup_s": raw_import_s + statistics.median(raw_setup_times),
            "wall_s": sum(raw_typical.values()),
            "op_p50_s": statistics.median(raw_typical.values()),
            "op_tail_s": percentile(raw_typical.values(), tail_q),
        },
        "ref_nominal_s": REF_NOMINAL_S,
        "failures": runner.failures[:20],
        "self_check": {"mutants": tried, "missed": missed},
        "provenance": provenance(args.seed, load_start),
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record = dict(detail, metrics=metrics, op_samples_s=runner.samples, measured_op_samples_s=runner.raw_samples)
    if args.trace:
        record["traced_op_samples_s"] = runner.traced_samples
        record["spans"] = [[dict(s, ref_s=tr.duration(s)) for s in tr.spans] for tr in tracers]
        record["counts"] = [tr.counts for tr in tracers]
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("detail " + json.dumps(detail))
    result = {
        "correct": failed == 0 and selfcheck_ok,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
