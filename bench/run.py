"""Closed-loop benchmark of polaris's verification checks.

Run from the repository root:

    python3 bench/run.py --workload sampled-theorem1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the first
calls under the span tracer and reports per-layer metrics.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every
metric with its unit and the run's stamp.  The exit code is 0 only when
every call passed every correctness check; a checkout without
`src/polaris` fails at import.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

sys.path.insert(0, str(SRC))   # polaris is measured from this checkout's sources

import polaris  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("applicable_per_ref_s", "1/ref_s"),
    ("call_p50_ref_ms", "ref_ms"),
    ("call_p90_ref_ms", "ref_ms"),
    ("peak_rss_mb", "MiB"),
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_untraced(workload, seed: int, seconds: float):
    presets = workload.presets()
    first, setup = wl.timed_setup(presets)
    setup_times, setup_at = [first], [0]
    expected = wl.expected_counts(workload, setup)
    kernel_times = []
    gap = seconds / wl.SETUP_REPEATS

    def after_call(i, elapsed):
        kernel_times.append(refclock.time_kernel())
        if len(setup_times) < wl.SETUP_REPEATS and elapsed >= len(setup_times) * gap:
            setup_times.append(wl.timed_setup(presets)[0])
            setup_at.append(i)

    seeds = wl.CallSeeds(seed)
    phase = wl.run_phase(workload, setup, seeds, expected, seconds, wl.MIN_CALLS,
                         after_call=after_call)
    while len(setup_times) < wl.SETUP_REPEATS:
        setup_times.append(wl.timed_setup(presets)[0])
        setup_at.append(len(kernel_times) - 1)
    replayed = range(0, wl.DIGEST_CALLS, wl.REPLAY_STRIDE)
    wl.replay(workload, setup, seeds, expected, phase, replayed)

    lat = [o.latency for o in phase.outcomes]
    ref = refclock.to_ref(lat, kernel_times, range(len(lat)))
    applicable = sum(o.applicable for o in phase.outcomes)
    metrics = {
        "setup_s": statistics.median(refclock.to_ref(setup_times, kernel_times, setup_at)),
        "applicable_per_ref_s": applicable / sum(ref),
        "call_p50_ref_ms": statistics.median(ref) * 1000,
        "call_p90_ref_ms": statistics.quantiles(ref, n=10)[8] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    p90 = statistics.quantiles(lat, n=10)[8]
    notes = [
        f"set-ups timed: {len(setup_times)}, replayed calls: {len(replayed)}",
        f"reference kernel: median {statistics.median(kernel_times) * 1000:.4f} ms "
        f"over {len(kernel_times)} runs, reference {refclock.REF_KERNEL_S * 1000} ms",
        f"wall clock: setup_s {statistics.median(setup_times):.6f}, "
        f"applicable_per_s {applicable / sum(lat):.2f}, "
        f"call_p50_ms {statistics.median(lat) * 1000:.3f}, call_p90_ms {p90 * 1000:.3f}",
        f"latency samples: {len(lat)}, beyond p90: "
        f"{sum(x * 1000 > metrics['call_p90_ref_ms'] for x in ref)}",
    ]
    return phase, metrics, list(END_TO_END), notes


def run_traced(workload, seed: int):
    setup_tracer = tracing.Tracer()
    start = time.perf_counter()
    with setup_tracer:
        setup = wl.build_setup(workload.presets())
    setup_wall = time.perf_counter() - start
    expected = wl.expected_counts(workload, setup)
    seeds = wl.CallSeeds(seed)
    traced_kernel, untraced_kernel = [], []
    tracer = tracing.Tracer()
    with tracer:
        phase = wl.run_phase(
            workload, setup, seeds, expected, 0, 0, max_calls=wl.DIGEST_CALLS,
            tracer=tracer, after_call=lambda *_: traced_kernel.append(refclock.time_kernel()))
    calls = range(len(phase.outcomes))
    untraced = wl.replay(
        workload, setup, seeds, expected, phase, calls,
        after_call=lambda _: untraced_kernel.append(refclock.time_kernel()))
    traced = [o.latency for o in phase.outcomes]
    overhead = (sum(refclock.to_ref(traced, traced_kernel, calls))
                / sum(refclock.to_ref(untraced, untraced_kernel, calls)))
    metrics = tracing.layer_metrics(setup_tracer, setup_wall, tracer, phase.outcomes, overhead)
    OUT.mkdir(parents=True, exist_ok=True)
    paths = []
    for part, t in (("setup", setup_tracer), ("calls", tracer)):
        path = OUT / f"{workload.name}-{part}.spans.tsv.gz"
        t.write(path)
        paths.append(str(path.relative_to(ROOT)))
    notes = [f"traced calls: {len(phase.outcomes)}, all replayed untraced",
             "spans: " + ", ".join(paths)]
    return phase, metrics, [(n, u) for n, u, _ in tracing.per_layer_spec()], notes


def run_one(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    if args.trace:
        phase, metrics, spec, notes = run_traced(workload, args.seed)
    else:
        phase, metrics, spec, notes = run_untraced(workload, args.seed, args.seconds)

    failed = [(i, o.error) for i, o in enumerate(phase.outcomes) if o.error]
    for i, error in failed[:10]:
        call = workload.mix[i % len(workload.mix)]
        print(f"bench: call {i} ({call.label()}): {error}", file=sys.stderr)
    attempted = len(phase.outcomes)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"cpu {cpu_model()}")
    print("mix: " + " | ".join(c.label() for c in workload.mix))
    print(f"calls {attempted}  failed {len(failed)}  "
          f"failed_frac {len(failed) / attempted}  timed phase {phase.wall:.3f} s")
    print(f"records_sha256 {wl.records_digest(phase)} "
          f"(first {min(attempted, wl.DIGEST_CALLS)} calls)")
    for note in notes:
        print(note)
    for name, unit in spec:
        print(f"  {name:48s} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, so peak RSS is its own."""
    worst = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the untraced timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    if Path(polaris.__file__).resolve().parent != SRC / "polaris":
        print(f"bench: imported polaris from {polaris.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(wl.WORKLOADS)}, all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
