"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scale-compile --seed 1 --seconds 15 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See ``perfbench/README.md`` for the workloads, the
metrics and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import subprocess
import sys
import time

STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REQUIRED = (
    "BENCHMARK.json",
    os.path.join("src", "repro", "__init__.py"),
    os.path.join("tests", "differential", "reference.py"),
)
WORKLOADS = ("scale-compile", "paper-compare", "reprice-sweep", "serve-mixed")

# The harness needs only the standard library; the workload modules import
# repro, so they load after the checkout has been checked.
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
from perfbench.harness import (  # noqa: E402
    SETUP_REPEATS,
    Tracer,
    keep_going,
    median,
    own_peak_rss_mb,
    percentile_with_tail,
)

#: Layers and counters the traced run reports, besides the serve ones.
SPAN_LAYERS = (
    "pipeline.validate", "core.trivial_placement", "core.sabre_forward",
    "core.sabre_reverse", "core.schedule", "baselines.compile",
    "sim.replay", "sim.price_cold", "sim.price_warm", "sim.verify",
)
COUNTERS = ("core.ops", "baselines.shuttles", "sim.events")


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)[section]
    return {metric["name"]: metric["unit"] for metric in metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes (the benchmark's own tests)"
    )
    return parser.parse_args(argv)


def build_workload(args, tracer):
    from perfbench import workloads
    from perfbench.checks import load_reference_execute

    reference_execute = load_reference_execute(ROOT)
    if args.workload == "serve-mixed":
        from perfbench.serve import ServeWorkload

        return ServeWorkload(ROOT, args.seed, reference_execute, tracer, tiny=args.tiny)
    if args.workload == "reprice-sweep":
        cells = workloads.TINY_REPRICE_SCHEDULES if args.tiny else workloads.REPRICE_SCHEDULES
        return workloads.RepriceWorkload(cells, args.seed, reference_execute, tracer)
    if args.workload == "scale-compile":
        cells = workloads.TINY_SCALE_CELLS if args.tiny else workloads.SCALE_CELLS
    else:
        cells = workloads.TINY_PAPER_CELLS if args.tiny else workloads.PAPER_CELLS
    return workloads.CompileWorkload(cells, args.seed, reference_execute, tracer)


def layer_metrics(workload, setups, traced, untraced) -> dict[str, float]:
    """Per-layer values: set-up layers as the median over set-ups, pass
    layers as the median over traced passes, counters as reported."""

    def med(passes, name):
        return median(p.layers.get(name, 0.0) for p in passes)

    values = {name: 0.0 for name in declared_units("per_layer")}
    for name in ("workloads.generate", "hardware.resolve"):
        values[name + "_s"] = median(layers.get(name, 0.0) for layers in setups)
    for name in ("compile_s", "execute_s"):
        values[name] = med(untraced, name)
    values["pass_s"] = median(p.seconds for p in untraced)
    values["probe_ms"] = median(p.probe_s for p in untraced) * 1000.0
    for name in SPAN_LAYERS:
        values[name + "_s"] = med(traced, name)
    for name in COUNTERS:
        values[name] = med(traced, name)
    scheduling = sum(
        values[f"core.{step}_s"] for step in ("sabre_forward", "sabre_reverse", "schedule")
    )
    values["core.ops_per_s"] = values["core.ops"] / scheduling if scheduling else 0.0
    # Rescaled pass times, so a host speed swing between the traced and
    # untraced passes is not read as overhead.
    values["trace.overhead_s"] = median(p.reference_seconds for p in traced) - median(
        p.reference_seconds for p in untraced
    )
    spans = getattr(workload, "spans", None)
    if spans is not None:
        for name in ("parse", "cache_lookup", "encode", "transport"):
            values[f"serve.{name}_ms"] = median(spans.get(f"hit.{name}", ()))
        for name in ("queue_wait", "execute"):
            values[f"serve.{name}_ms"] = median(spans.get(f"miss.{name}", ()))
        values["serve.hits"] = workload.served["hits"]
        values["serve.misses"] = workload.served["misses"]
        values["serve.hit_p50_ms.small"] = median(workload.hit_ms["small"])
        values["serve.hit_p50_ms.large"] = median(workload.hit_ms["large"])
        hits = workload.hit_ms["small"] + workload.hit_ms["large"]
        values["serve.hit_p99_ms"] = percentile_with_tail(hits, 0.99)
        values["serve.miss_p50_ms"] = median(workload.miss_ms)
    return values


#: What ``build_workload`` imports and loads, timed in a fresh interpreter.
IMPORT_PROBE = """
import sys, time
started = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
__import__(sys.argv[3])
from perfbench.checks import load_reference_execute
load_reference_execute(sys.argv[2])
print(time.perf_counter() - started)
"""


def import_seconds(module: str) -> float:
    """Seconds a fresh interpreter takes to import ``module`` (and with
    it ``repro``) and load the reference executor."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src"), ROOT, module],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def run(args) -> dict:
    tracer = Tracer(enabled=bool(args.trace))
    workload = build_workload(args, tracer)
    # Interpreter-side set-up: imports and loading the reference executor.
    # This process pays it once; fresh interpreters time it again so that
    # it, too, is a median of SETUP_REPEATS.
    import_times = [time.perf_counter() - STARTED]
    module = "perfbench.serve" if args.workload == "serve-mixed" else "perfbench.workloads"
    import_times += [import_seconds(module) for _ in range(SETUP_REPEATS - 1)]
    passes, setups, setup_times, problems = [], [], [], []
    try:
        for _ in range(SETUP_REPEATS):
            mark = tracer.mark()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
            setups.append(tracer.layer_totals(mark))
            gc.collect()
        problems += workload.setup_problems()
        gc.collect()
        # Set-up objects live for the whole run; frozen, they are not
        # re-traversed by every collection a pass triggers.
        gc.freeze()
        # The traced run alternates untraced and traced passes; the
        # difference of their medians is the tracing overhead.
        min_passes = 4 if args.trace else 0
        while len(passes) < min_passes or keep_going(
            [p.seconds for p in passes], args.seconds
        ):
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer.enabled = traced
            mark = tracer.mark()
            result = workload.run_pass(traced)
            for name, seconds in tracer.layer_totals(mark).items():
                result.add(name, seconds)
            passes.append(result)
            problems += result.problems
            gc.collect()
        if args.workload == "serve-mixed":
            problems += workload.stats_problems()
            peak_rss_mb = workload.server.peak_rss_mb()
        else:
            peak_rss_mb = own_peak_rss_mb()
    finally:
        if args.workload == "serve-mixed":
            workload.close()

    for result in passes:
        for problem in result.op_problems[:5]:
            print(f"FAILED: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(
        f"{args.workload}: seed {args.seed}, {len(passes)} passes "
        f"({len(traced)} traced), {attempted} operations, {failed} failed, "
        f"set-ups {', '.join(f'{s:.3f}' for s in setup_times)} s, wall-clock median "
        f"pass {median(p.seconds for p in untraced):.4f} s, median probe "
        f"{median(p.probe_s for p in untraced) * 1000:.2f} ms",
        file=sys.stderr,
    )
    if args.trace:
        tracer.write(os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.json"))
        values = layer_metrics(workload, setups, traced, untraced)
        units = declared_units("per_layer")
    else:
        values = {
            "setup_s": median(import_times) + median(setup_times),
            "pass_ref_s": median(p.reference_seconds for p in untraced),
            "peak_rss_mb": peak_rss_mb,
            "shuttles": median(p.shuttles for p in untraced),
            "makespan_us": median(p.makespan_us for p in untraced),
        }
        units = declared_units("end_to_end")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"error: not a repository checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so a booted server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
