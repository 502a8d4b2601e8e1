#!/usr/bin/env python3
"""End-to-end reproduction benchmark of the uFLIP simulator.

Runs one workload (see ``workloads.py``) from the source tree next to
this directory, repeating whole passes until ``--seconds`` have
elapsed, checks the outputs, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
  measured with tracing off;
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics: each layer's time (from spans around its public
  entry points, see ``spans.py``), work counts, simulated counters and
  ``trace.overhead`` (traced over untraced wall time).  The spans are
  written to ``.perfbench/spans-<workload>-seed<seed>.json``.

Host times are reported in reference seconds: raw times corrected by
the host's speed, sampled throughout the run (see ``speed.py``).

Usage::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 20 --trace 0

The run fails (exit 1, no result line) when the program cannot be
imported from ``src/``, or when it leaves a child process, a
shared-memory snapshot segment, the multiprocessing resource tracker
or a temporary run-cache directory behind.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".perfbench"
#: this run's run caches; one directory per process, so runs can overlap
SCRATCH = OUTPUT / f"tmp-{os.getpid()}"
#: a run sets up at least SETUP_REPEATS times and until SETUP_SECONDS
#: of set-up have elapsed; ``setup_s`` is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: fewest untraced passes a ``--trace 0`` run measures, however long
#: they take, so each median has a middle value
MIN_PASSES = 3
SHM = Path("/dev/shm")


def import_program() -> None:
    """Put ``src/`` of this checkout first on the path and import it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {error}")
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported {repro.__file__}, not the one in {src}")


def snapshot_segments() -> set[str]:
    """Shared-memory segments named like the program's snapshot store."""
    if not SHM.is_dir():
        return set()
    return {name for name in os.listdir(SHM) if name.startswith("ufsnp-")}


def hygiene_problems(segments_before: set[str], leftovers: list[Path]) -> list[str]:
    problems = [f"temporary directory left behind: {path}" for path in leftovers]
    children = multiprocessing.active_children()
    if children:
        problems.append(f"child processes still running: {children}")
    leaked = snapshot_segments() - segments_before
    if leaked:
        problems.append(f"shared-memory segments left behind: {sorted(leaked)}")
    if getattr(resource_tracker._resource_tracker, "_pid", None) is not None:
        problems.append("the multiprocessing resource tracker was started")
    return problems


def measure(workload, seconds: float, trace: bool):
    """Whole passes until ``seconds`` have elapsed; the pass in progress
    completes, and at least :data:`MIN_PASSES` run.  With ``trace``,
    untraced and traced passes alternate and at least one of each runs."""
    from spans import SpanRecorder, layer_times

    recorder = SpanRecorder() if trace else None
    untraced, traced, layers, spans = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        if recorder is not None and len(untraced) > len(traced):
            recorder.reset()
            with recorder:
                result = workload.run_pass()
            traced.append(result)
            layers.append({**layer_times(recorder.spans, result.wall_s), **recorder.counts})
            spans.append(recorder.spans)
        else:
            result = workload.run_pass()
            untraced.append(result)
        if len(untraced) + len(traced) > 1:
            result.outputs = []  # the digest stands for them; keeps memory flat
        enough = traced if recorder is not None else len(untraced) >= MIN_PASSES
        if perf_counter() >= deadline and enough:
            return untraced, traced, layers, spans


def percentile(samples: list[float], fraction: float) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(fraction * 100) - 1]


def end_to_end(speed, setup_spans, passes) -> dict[str, float]:
    """Medians over the passes; every time in reference seconds."""
    median = statistics.median
    ref = speed.convert
    walls = [ref(p.start, p.end) for p in passes]
    cpus = [ref(p.start, p.end, p.cpu_s) for p in passes]
    # each unit's median over the passes, then percentiles across units
    cells = [
        median(ref(start, end) for start, end in spans)
        for spans in zip(*(p.cell_spans for p in passes))
    ]
    return {
        "setup_s": median(ref(start, end) for start, end in setup_spans),
        "wall_s": median(walls),
        "cpu_s": median(cpus),
        "sim_ios_per_s": median(
            (p.sim["device.reads"] + p.sim["device.writes"]) / cpu
            for p, cpu in zip(passes, cpus)
        ),
        "sim_s_per_wall_s": median(
            p.sim["device.busy_usec"] / 1e6 / wall for p, wall in zip(passes, walls)
        ),
        "cell_p50_ms": 1e3 * percentile(cells, 0.5),
        "cell_p90_ms": 1e3 * percentile(cells, 0.9),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(speed, untraced, traced, layers) -> dict[str, float]:
    """Layer times are medians over the traced passes, each pass's
    scaled to reference seconds as its wall time is; counts are exact
    and equal in every pass, so they come from the first."""
    first = traced[0]
    untraced_walls = [speed.convert(p.start, p.end) for p in untraced]
    traced_walls = [speed.convert(p.start, p.end) for p in traced]
    scales = [wall / p.wall_s for p, wall in zip(traced, traced_walls)]
    metrics = {
        name: statistics.median(
            layer.get(name, 0.0) * scale for layer, scale in zip(layers, scales)
        )
        for name in layers[0]
        if name.endswith("_s") or name.endswith(".s")
    }
    counts = {name: layers[0].get(name, 0) for name in (
        "snapshot.restore_calls", "generator.ios", "host.ios", "host.queued_ios",
    )}
    served = sum(
        first.analytic.get(f"core.analytic.{kind}", 0)
        for kind in ("write_ios", "read_ios", "queued_ios")
    )
    submitted = counts["host.ios"] + first.enforce_ios
    lookups = first.cache_hits + first.cache_misses
    metrics.update({
        "methodology.enforce_ios": first.enforce_ios,
        "executor.cells_run": first.cells_run,
        "executor.cells_cached": first.cells_cached,
        "executor.cells_failed": len(first.failures),
        "executor.failed_frac": len(first.failures) / first.attempted,
        "cache.hit_ratio": first.cache_hits / lookups if lookups else 0.0,
        "cache.bytes_written": first.cache_bytes,
        **counts,
        "analytic.served_ios": served,
        "analytic.served_ratio": served / submitted if submitted else 0.0,
        "analytic.declines": sum(
            value for name, value in first.analytic.items() if ".decline." in name
        ),
        "analysis.table3_err": first.table3_err,
        "trace.overhead": statistics.median(traced_walls) / statistics.median(untraced_walls),
    })
    for name in (
        "chip.page_reads", "chip.page_programs", "chip.block_erases",
        "ftl.merge_copy_programs", "ftl.full_merges", "ftl.gc_collections",
        "ftl.gc_copy_reads", "ftl.gc_copy_programs",
    ):
        metrics[name] = first.sim.get(name, 0.0)
    return metrics


def report(workload, args, speed, setup_spans, prepare_s, untraced, traced, problems) -> None:
    """Human-readable lines ahead of the result line."""
    from speed import REFERENCE_S

    first = untraced[0]
    setup_raw = statistics.median(end - start for start, end in setup_spans)
    print(
        f"perfbench {workload.name} seed={args.seed}: {len(setup_spans)} set-ups "
        f"(median {setup_raw:.3f} host s), prepare {prepare_s:.3f} host s, "
        f"{len(untraced)} untraced + {len(traced)} traced pass(es); cell percentiles "
        f"over {len(first.cell_spans)} units, each timed as its median over the untraced passes"
    )
    passes = untraced + traced
    print("  pass wall, host s: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print(
        "  pass wall, reference s: "
        + " ".join(f"{speed.convert(p.start, p.end):.3f}" for p in passes)
    )
    print(
        "  pass mean reference round, ms: "
        + " ".join(f"{1e3 * speed.rounds_near(p.start, p.end)[1]:.4f}" for p in passes)
    )
    print(
        f"  host speed: {speed.rounds()} reference rounds, mean "
        f"{1e3 * sum(speed.durations) / speed.rounds():.3f} ms (reference "
        f"{1e3 * REFERENCE_S:.3f} ms)"
    )
    print(
        f"  per pass: {first.attempted} units, {len(first.failures)} failed, "
        f"{first.enforce_ios} enforcement IOs, "
        f"{int(first.sim['device.reads'] + first.sim['device.writes'])} simulated IOs"
    )
    if first.table3_err:
        print(f"  table3_err {first.table3_err:.6f} (mean |ln(measured/paper)|)")
    for index, message in sorted(first.failures.items()):
        cell = workload.cells[index] if hasattr(workload, "cells") else None
        where = f"{cell.profile}/{cell.experiment}@{cell.io_size >> 10}KiB" if cell else index
        print(f"  failed: {where}: {message}")
    for name, count in sorted(first.analytic.items()):
        if ".decline." in name:
            print(f"  {name} {count}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="tiny inputs (the benchmark's smoke test)"
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    from speed import HostSpeed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    segments_before = snapshot_segments()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.toy, SCRATCH)
    speed = HostSpeed()
    try:
        with speed:
            setup_spans = []
            while (
                len(setup_spans) < SETUP_REPEATS
                or sum(end - start for start, end in setup_spans) < SETUP_SECONDS
            ):
                start = perf_counter()
                workload.setup()
                setup_spans.append((start, perf_counter()))
            start = perf_counter()
            workload.prepare()
            prepare_s = perf_counter() - start
            untraced, traced, layers, spans = measure(workload, args.seconds, bool(args.trace))
        problems = workload.check(untraced)
        reference = untraced[0].simulated()
        for result in untraced[1:] + traced:
            if result.simulated() != reference:
                problems.append("a pass's simulated counters or outputs differ from the first")
                break
    finally:
        workload.close()
        leftovers = sorted(SCRATCH.iterdir())
        shutil.rmtree(SCRATCH)

    hygiene = hygiene_problems(segments_before, leftovers)
    if hygiene:
        for problem in hygiene:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(speed, untraced, traced, layers)
        declared = spec["per_layer"]
        path = OUTPUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"], "passes": spans}))
    else:
        metrics = end_to_end(speed, setup_spans, untraced)
        declared = spec["end_to_end"]
    if set(metrics) != {entry["name"] for entry in declared}:
        raise SystemExit(
            f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {declared}"
        )
    report(workload, args, speed, setup_spans, prepare_s, untraced, traced, problems)
    all_passes = untraced + traced
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in all_passes),
        "failed": sum(len(p.failures) for p in all_passes),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
