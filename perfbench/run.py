"""The polychrome benchmark: one closed-loop caller, one instance at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 0 --seconds 20 --trace 0

Inputs are built from --seed, then the workload's instances run in order,
pass after pass, until their summed wall time reaches --seconds (whole
passes only). Each answer is checked outside the timed region. The last
line of standard output is one JSON object: with --trace 0 it carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.

Instance times are also scaled by a speed probe timed around each instance
(see measure). The traced run spends half of --seconds untraced and half
traced, reports per-pass layer times from the traced half, and the ratio of
the two halves' median scaled pass times as the tracing overhead. Its work counts must repeat
exactly in every traced pass. Spans are written to .perfbench-out/.
"""

import time

_START = time.perf_counter()  # set-up time runs from here: imports, then inputs

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 9  # set-up samples per untraced run: this process plus eight children
# Instance times are scaled to the speed at which the probe kernel takes this
# long (about a fast stretch of the two-core machine the benchmark was sized on)
PROBE_REFERENCE_S = 0.001


def _import_library():
    """Import polychrome from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import polychrome
    except ImportError as exc:
        sys.exit(f"error: cannot import polychrome from {src}: {exc}")
    if Path(polychrome.__file__).resolve().parent != src / "polychrome":
        sys.exit(f"error: polychrome was imported from {polychrome.__file__}, not {src}")


def _probe_kernel() -> int:
    """Fixed pure-Python work of the kind the library does: ints, tuples, sets, dicts."""
    counts: dict = {}
    seen = set()
    acc = 0
    for i in range(2600):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
        seen.add((k, i & 15))
        acc ^= k << (i & 7)
    return len(seen) ^ acc


def probe_seconds() -> float:
    """How fast the machine runs Python right now: the best of three probe kernels."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Measured(NamedTuple):
    durations: list  # wall seconds, one per attempted instance
    scaled: list  # the same, scaled to the probe's reference speed
    failed: int
    pass_times: list  # wall seconds of instance time per pass
    pass_counts: list  # traced runs only: the tracer's work counts per pass


def measure(instances, seconds: float, tracer=None, min_passes: int = 1) -> Measured:
    """Run whole passes until their instance time reaches `seconds`.

    The machine this was sized on alternates between fast and slow stretches
    10 to 30 s long, 1.4 to 2 times apart, which no run length affordable here
    averages out. So a probe kernel is timed just before and just after each
    instance, and the instance time is also reported scaled by
    PROBE_REFERENCE_S over the mean of those two probe times.
    """
    durations, scaled, pass_times, pass_counts = [], [], [], []
    failed = 0
    while sum(pass_times) < seconds or len(pass_times) < min_passes:
        pass_time = 0.0
        for k, inst in enumerate(instances):
            probe = probe_seconds()
            if tracer is not None:
                tracer.open_instance(f"{len(pass_times)}.{k}:{inst.name}")
            t0 = time.perf_counter()
            try:
                answer, problems = inst.run(), []
            except Exception:
                answer, problems = None, [traceback.format_exc()]
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close_instance()
            probe = (probe + probe_seconds()) / 2
            if not problems:
                try:
                    problems = inst.check(answer)
                except Exception:
                    problems = ["checker raised:\n" + traceback.format_exc()]
            if problems:
                failed += 1
                print(f"FAILED {inst.name}: " + "; ".join(problems[:5]), file=sys.stderr)
            durations.append(dt)
            scaled.append(dt * PROBE_REFERENCE_S / probe)
            pass_time += dt
        pass_times.append(pass_time)
        if tracer is not None:
            pass_counts.append(Counter(tracer.counts))
            tracer.counts.clear()
    return Measured(durations, scaled, failed, pass_times, pass_counts)


def setup_seconds(args, first: float) -> list[float]:
    """Scaled set-up time of this process plus that of fresh child processes."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Measured, setups: list[float]) -> dict:
    attempted = len(run.durations)
    verified = attempted - run.failed
    ms = [d * 1000 for d in run.scaled]
    return {
        "instances_per_s": (verified / sum(run.scaled), "1/s"),
        "instance_ms.p50": (percentile(ms, 50), "ms"),
        "instance_ms.p90": (percentile(ms, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "verified_rate": (verified / attempted, "ratio"),
    }


def scaled_pass_times(run: Measured) -> list[float]:
    kinds = len(run.durations) // len(run.pass_times)
    return [sum(run.scaled[i:i + kinds]) for i in range(0, len(run.scaled), kinds)]


def per_layer(untraced: Measured, traced: Measured, tracer, span_names) -> dict:
    passes = len(traced.pass_times)
    untraced_pass = statistics.median(scaled_pass_times(untraced))
    traced_pass = statistics.median(scaled_pass_times(traced))
    counts = traced.pass_counts[0]
    times = tracer.layer_times()
    out = {}
    for name in span_names:
        total, self_total = times.get(name, (0.0, 0.0))
        out[f"{name}.s"] = (total / passes, "s")
        out[f"{name}.self_s"] = (self_total / passes, "s")
        out[f"{name}.calls"] = (counts[f"{name}.calls"], "count")

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    out.update({
        "polytope.validate.fresh_vertex_ratio": (
            ratio("polytope.validate.fresh_vertices", "polytope.validate.vertices_checked"),
            "ratio"),
        "charmap.bad_faces.vertices_scanned": (
            counts["charmap.bad_faces.vertices_scanned"], "count"),
        "charmap.bad_faces.fresh_vertex_ratio": (
            ratio("charmap.bad_faces.fresh_vertices", "charmap.bad_faces.vertices_scanned"),
            "ratio"),
        "charmap.bad_faces.calls_per_step": (
            ratio("charmap.bad_faces.calls", "resolution.resolve.steps"), "ratio"),
        "resolution.resolve.steps": (counts["resolution.resolve.steps"], "count"),
        "resolution.resolution_vector.candidates_per_call": (
            ratio("resolution.resolution_vector.candidates", "resolution.resolution_vector.calls"),
            "ratio"),
        "chromatic.bnb_ratio": (ratio("chromatic.certify.bnb", "chromatic.certify.calls"), "ratio"),
        "generators.dual_cyclic.yield_ratio": (
            ratio("generators.dual_cyclic.vertices", "generators.dual_cyclic.subsets_tested"),
            "ratio"),
        "serialize.bytes": (counts["serialize.bytes"], "bytes"),
        "trace.untraced_pass_s": (untraced_pass, "s"),
        "trace.traced_pass_s": (traced_pass, "s"),
        "trace.overhead_ratio": (traced_pass / untraced_pass - 1, "ratio"),
        "trace.spans_per_pass": (len(tracer.spans) / passes, "count"),
    })
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the scaled set-up seconds and exit")
    args = parser.parse_args(argv)

    _import_library()
    import tracer as tracing
    import workloads

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        instances = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        setup_first = time.perf_counter() - _START
        setup_first *= PROBE_REFERENCE_S / statistics.median(probe_seconds() for _ in range(3))
        if args.setup_only:
            print(setup_first)
            return 0

        problems = []
        if args.trace:
            untraced = measure(instances, args.seconds / 2)
            with tracing.Tracer() as tracer:
                traced = measure(instances, args.seconds / 2, tracer, min_passes=2)
            drift = [i for i, c in enumerate(traced.pass_counts) if c != traced.pass_counts[0]]
            if drift:
                problems.append(f"work counts of traced passes {drift} differ from pass 0")
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            runs = (untraced, traced)
            metrics = per_layer(untraced, traced, tracer, tracing.SPAN_NAMES)
            declared = [m["name"] for m in spec["per_layer"]]
        else:
            run = measure(instances, args.seconds)
            runs = (run,)
            metrics = end_to_end(run, setup_seconds(args, setup_first))
            declared = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if sorted(metrics) != sorted(declared):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    attempted = sum(len(r.durations) for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"{args.workload} seed {args.seed}: {attempted} instances in "
          f"{sum(len(r.pass_times) for r in runs)} passes of {len(instances)}, {failed} failed")
    wall = [d * 1000 for r in runs for d in r.durations]
    speed = sum(r.durations[i] / r.scaled[i] for r in runs for i in range(len(r.durations)))
    print(f"unscaled wall time: {len(wall) / sum(wall) * 1000:.3f} instances/s, "
          f"p50 {percentile(wall, 50):.1f} ms, p90 {percentile(wall, 90):.1f} ms; "
          f"mean slowdown against the probe reference {speed / len(wall):.3f}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
