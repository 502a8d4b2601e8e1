"""Command-line interface: ``uflip`` / ``python -m repro``.

Subcommands mirror the benchmarking workflow:

* ``devices`` — list the Table 2 device profiles;
* ``run`` — execute one pattern against a device and print its stats;
* ``microbench`` — run one of the nine micro-benchmarks plus the
  queue-depth sweep;
* ``phases`` — measure start-up/running phases of the four baselines;
* ``pause`` — run the Figure 5 interference probe;
* ``table3`` — derive the Table 3 summary for one or more devices;
* ``hints`` — evaluate the seven design hints against a device.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import (
    campaign_report,
    classify,
    evaluate_hints,
    plot_trace,
    render_table3,
    summarize_device,
)
from repro.core import (
    BenchContext,
    autotune_run,
    baselines,
    build_microbenchmark,
    determine_pause,
    enforce_random_state,
    execute,
    measure_phases,
    rest_device,
    run_experiment,
)
from repro.core.microbench import MICROBENCHMARKS
from repro.core.patterns import LocationKind, PatternSpec
from repro.core.report import format_table, render_experiment
from repro.flashsim import ALL_PROFILES, build_device, get_profile
from repro.flashsim.power import MLC_POWER, SLC_POWER, measure_run_energy
from repro.flashsim.wear import project_lifetime, wear_report
from repro.iotypes import Mode
from repro.obs.progress import ProgressReporter, configure_logging, get_logger
from repro.units import MIB, SEC, fmt_size, parse_size

_log = get_logger("repro.cli")


def _add_device_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--device",
        default="memoright",
        help="device profile name (see `uflip devices`); the campaign "
             "subcommand also accepts a comma-separated list of profiles",
    )
    parser.add_argument(
        "--capacity",
        default=None,
        help="override the scaled capacity (e.g. 32M)",
    )
    parser.add_argument(
        "--skip-state",
        action="store_true",
        help="skip random-state enforcement (out-of-the-box device)",
    )


def _build_ready_device(args: argparse.Namespace):
    capacity = parse_size(args.capacity) if args.capacity else None
    device = build_device(args.device, logical_bytes=capacity)
    if not args.skip_state:
        _log.info("enforcing random state on %s ...", device.name)
        report = enforce_random_state(device)
        _log.info(
            "  %d IOs, %s written (%.0fs simulated)",
            report.io_count,
            fmt_size(report.bytes_written),
            report.elapsed_usec / SEC,
        )
        rest_device(device, 30 * SEC)
    return device


def _cmd_devices(_args: argparse.Namespace) -> int:
    rows = []
    for profile in ALL_PROFILES:
        rows.append(
            (
                profile.name,
                profile.brand,
                profile.model,
                profile.kind,
                fmt_size(profile.real_capacity),
                f"${profile.price_usd}" if profile.price_usd else "-",
                fmt_size(profile.sim_logical_bytes),
                profile.ftl_kind,
                "yes" if profile.highlighted else "",
            )
        )
    print(
        format_table(
            (
                "profile",
                "brand",
                "model",
                "type",
                "size",
                "price",
                "sim size",
                "ftl",
                "in paper figs",
            ),
            rows,
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    device = _build_ready_device(args)
    location = LocationKind(args.location)
    mode = Mode(args.mode)
    io_size = parse_size(args.io_size)
    area = (device.capacity // io_size) * io_size
    spec = PatternSpec(
        mode=mode,
        location=location,
        io_size=io_size,
        io_count=args.count,
        io_ignore=args.ignore,
        target_size=area if location is LocationKind.RANDOM else min(
            args.count * io_size, area
        ),
        incr=args.incr,
        partitions=args.partitions,
        seed=args.seed,
    )
    run = execute(device, spec)
    print(f"{spec.label} on {device.name}: {run.stats.summary()}")
    if args.plot:
        print(plot_trace(run.trace.response_times(), title=f"{spec.label} trace"))
    return 0


def _cmd_microbench(args: argparse.Namespace) -> int:
    device = _build_ready_device(args)
    ctx = BenchContext(
        capacity=device.capacity,
        io_size=parse_size(args.io_size),
        io_count=args.count,
        io_ignore=args.ignore,
    )
    bench = build_microbenchmark(args.name, ctx)
    for experiment in bench.experiments:
        if args.pattern and not experiment.name.endswith(f"/{args.pattern}"):
            continue
        result = run_experiment(device, experiment, pause_usec=args.pause * SEC)
        print(render_experiment(result))
        print()
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    device = _build_ready_device(args)
    specs = baselines(
        io_size=parse_size(args.io_size),
        io_count=args.count,
        random_target_size=device.capacity // MIB * MIB,
        sequential_target_size=device.capacity // MIB * MIB,
    )
    profile = measure_phases(device, specs)
    rows = [
        (label, analysis.summary())
        for label, analysis in profile.analyses.items()
    ]
    print(format_table(("pattern", "phases"), rows))
    print(
        f"bounds: startup={profile.startup_bound} period={profile.period_bound}"
    )
    return 0


def _cmd_pause(args: argparse.Namespace) -> int:
    device = _build_ready_device(args)
    result = determine_pause(device, reads_after=args.reads_after)
    print(f"{device.name}: {result.summary()}")
    if args.plot:
        combined = result.reads_before + result.writes + result.reads_after
        print(plot_trace(combined, title="SR / RW / SR probe (Figure 5)"))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    summaries = []
    names = args.names or [
        "memoright",
        "mtron",
        "samsung",
        "transcend_module",
        "transcend32",
        "kingston_dthx",
        "kingston_dti",
    ]
    for name in names:
        get_profile(name)  # fail fast on typos
        device = build_device(name)
        _log.info("measuring %s ...", name)
        enforce_random_state(device)
        summary = summarize_device(device, name)
        summaries.append(summary)
    print(render_table3(summaries, with_paper=not args.no_paper))
    if args.classify:
        print()
        for summary in summaries:
            result = classify(summary)
            print(f"{summary.name}: {result.tier.value} ({'; '.join(result.reasons)})")
    return 0


def _cmd_hints(args: argparse.Namespace) -> int:
    device = _build_ready_device(args)
    rows = []
    for result in evaluate_hints(device):
        rows.append(
            (
                result.hint,
                result.statement,
                "HOLDS" if result.holds else "differs",
                result.evidence,
            )
        )
    print(format_table(("#", "hint", "verdict", "evidence"), rows))
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    device = _build_ready_device(args)
    specs = baselines(
        io_size=parse_size(args.io_size),
        io_count=1,
        random_target_size=device.capacity,
    )
    rows = []
    for label in ("SR", "RR", "SW", "RW"):
        result = autotune_run(
            device, specs[label], relative_ci=args.ci, max_ios=args.max_ios
        )
        rows.append((label, result.summary()))
        rest_device(device, 30 * SEC)
    print(format_table(("pattern", "autotune"), rows))
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    device = _build_ready_device(args)
    power = SLC_POWER if get_profile(args.device).slc else MLC_POWER
    io_size = parse_size(args.io_size)
    specs = baselines(
        io_size=io_size,
        io_count=args.count,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )
    rows = []
    for label in ("SR", "RR", "SW", "RW"):
        run = execute(device, specs[label])
        meter = measure_run_energy(run.trace, power)
        rows.append(
            (
                label,
                f"{meter.mean_uj_per_io:.0f}",
                f"{meter.uj_per_mib(args.count * io_size) / 1000:.2f}",
            )
        )
        rest_device(device, 30 * SEC)
    print(format_table(("pattern", "uJ per IO", "mJ per MiB"), rows))
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    device = _build_ready_device(args)
    io_size = parse_size(args.io_size)
    spec = baselines(
        io_size=io_size,
        io_count=args.count,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )[args.pattern]
    before = wear_report(device)
    run = execute(device, spec)
    after = wear_report(device)
    elapsed = run.trace[-1].completed_at - run.trace[0].submitted_at
    projection = project_lifetime(
        device, before, after, elapsed, args.count * io_size
    )
    print(f"wear now: {after.summary()}")
    print(f"projection under sustained {args.pattern}: {projection.summary()}")
    if projection.projected_bytes != float("inf"):
        print(
            f"host data until worst-block exhaustion: "
            f"{projection.projected_bytes / (1 << 40):.1f} TiB"
        )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.profile is None:
        return _run_campaign(args)
    # Profile the whole campaign (planning, enforcement, execution,
    # archiving).  With --jobs > 1 only the parent process is profiled;
    # use --jobs 1 to see the simulator hot path itself.
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(_run_campaign, args)
    finally:
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(20)
        if args.profile:
            profiler.dump_stats(args.profile)
            print(f"profile stats written to {args.profile}")


def _run_campaign(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core import (
        Campaign,
        CampaignExecutor,
        plan_cells,
        results_by_experiment,
    )
    from repro.core.executor import merge_outcome_metrics
    from repro.obs import metrics as obs_metrics
    from repro.obs import tracing as obs_tracing
    from repro.obs.progress import histogram_table, metrics_table

    profiles = [name.strip() for name in args.device.split(",") if name.strip()]
    capacity = parse_size(args.capacity) if args.capacity else None
    executor = CampaignExecutor(
        jobs=args.jobs,
        cache=args.cache or None,
        enforce=not args.skip_state,
        enforce_seed=97,
        attribution=args.attribution,
    )
    registry = obs_metrics.install() if args.metrics else None
    tracer = obs_tracing.install() if args.trace else None
    all_outcomes = []
    try:
        # One cell list across every profile, executed in a single pass:
        # with jobs > 1 the executor then enforces each next profile
        # while the earlier profiles' cells run in the pool, instead of
        # serializing the campaign profile by profile.
        cells = []
        for profile in profiles:
            cells.extend(
                plan_cells(
                    profile,
                    capacity,
                    args.benchmarks,
                    io_size=parse_size(args.io_size),
                    io_count=args.count,
                    io_ignore=args.ignore,
                    pause_usec=args.pause * SEC,
                )
            )
        reporter = ProgressReporter(total=len(cells), label=",".join(profiles))
        outcomes = executor.execute(
            cells, status=reporter.status, progress=reporter.cell_done
        )
        all_outcomes.extend(outcomes)
        for profile in profiles:
            profile_outcomes = [
                outcome for outcome in outcomes if outcome.cell.profile == profile
            ]
            cached = sum(1 for outcome in profile_outcomes if outcome.cached)
            label = args.label if len(profiles) == 1 else f"{args.label}-{profile}"
            campaign = Campaign(
                device=profile,
                label=label,
                results=results_by_experiment(profile_outcomes),
                metadata={
                    "io_size": args.io_size,
                    "io_count": str(args.count),
                    "benchmarks": ",".join(args.benchmarks),
                    "jobs": str(args.jobs),
                    "cells_run": str(len(profile_outcomes) - cached),
                    "cells_cached": str(cached),
                },
            )
            path = campaign.save(Path(args.out))
            print(
                f"campaign archived to {path} "
                f"({len(profile_outcomes) - cached} cell(s) run, "
                f"{cached} from cache)"
            )
            if args.metrics:
                merged = merge_outcome_metrics(profile_outcomes)
                if merged:
                    print(metrics_table(merged, title=f"device metrics: {profile}"))
        if executor.cache is not None:
            cache = executor.cache
            total = cache.hits + cache.misses
            rate = cache.hits / total if total else 0.0
            print(
                f"run cache: {cache.hits} hit(s), {cache.misses} miss(es) "
                f"({rate:.0%} hit rate), {fmt_size(cache.bytes_saved)} of "
                f"simulated IO not re-measured"
            )
            if args.metrics and cache.profiles:
                rows = []
                for profile in sorted(cache.profiles):
                    stats = cache.profiles[profile]
                    looked = stats["hits"] + stats["misses"]
                    rows.append(
                        (
                            profile,
                            str(stats["hits"]),
                            str(stats["misses"]),
                            f"{stats['hits'] / looked:.0%}" if looked else "-",
                            fmt_size(stats["bytes_saved"]),
                            fmt_size(stats["payload_bytes"]),
                        )
                    )
                print(
                    format_table(
                        (
                            "profile",
                            "hits",
                            "misses",
                            "hit rate",
                            "sim IO saved",
                            "payload stored",
                        ),
                        rows,
                    )
                )
        if args.metrics and registry is not None:
            snapshot = registry.snapshot()
            core = snapshot.scoped("core.")
            if core.counters:
                print(metrics_table(core.counters, title="executor metrics"))
            if snapshot.histograms:
                print(
                    histogram_table(
                        snapshot.histograms, title="latency percentiles"
                    )
                )
        if args.attribution:
            from repro.analysis import render_attribution_report

            report = render_attribution_report(all_outcomes)
            print(report)
            if args.attribution_out:
                Path(args.attribution_out).write_text(report + "\n")
                print(f"attribution report written to {args.attribution_out}")
    finally:
        executor.close()
        if args.trace and tracer is not None:
            obs_tracing.uninstall()
            if args.attribution and all_outcomes:
                from repro.analysis import inject_device_lanes

                injected = inject_device_lanes(tracer, all_outcomes)
                _log.info("injected %d device-lane event(s)", injected)
            tracer.write(args.trace)
            _log.info("trace written to %s", args.trace)
        if args.metrics:
            obs_metrics.uninstall()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core import Campaign

    campaign = Campaign.load(Path(args.archive))
    compare_to = Campaign.load(Path(args.compare)) if args.compare else None
    text = campaign_report(campaign, compare_to=compare_to)
    if args.out:
        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.replay import ReplayMode, remap_rows, replay
    from repro.flashsim.trace import IOTrace

    device = _build_ready_device(args)
    trace = IOTrace.from_csv(Path(args.trace).read_text())
    if args.remap:
        trace = remap_rows(trace, device.capacity, device.geometry.block_size)
    mode = ReplayMode.TIMED if args.timed else ReplayMode.CLOSED_LOOP
    result = replay(device, trace, mode=mode, io_ignore=args.ignore)
    print(
        f"replayed {len(result.trace)} IOs on {device.name} "
        f"({result.mode.value}): {result.stats.summary()}"
    )
    print(
        f"span {result.replay_span_usec / SEC:.2f}s vs original "
        f"{result.original_span_usec / SEC:.2f}s "
        f"(speedup x{result.speedup:.1f})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the full argparse tree for the ``uflip`` command."""
    parser = argparse.ArgumentParser(
        prog="uflip",
        description="uFLIP flash IO pattern benchmark (CIDR 2009) on a "
        "simulated flash substrate",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more progress detail on stderr (repeatable)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="less progress detail on stderr (repeatable)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("devices", help="list device profiles").set_defaults(
        func=_cmd_devices
    )

    run_parser = subparsers.add_parser("run", help="run one IO pattern")
    _add_device_argument(run_parser)
    run_parser.add_argument("--mode", choices=("read", "write"), default="write")
    run_parser.add_argument(
        "--location",
        choices=tuple(kind.value for kind in LocationKind),
        default="random",
    )
    run_parser.add_argument("--io-size", default="32K")
    run_parser.add_argument("--count", type=int, default=256)
    run_parser.add_argument("--ignore", type=int, default=0)
    run_parser.add_argument("--incr", type=int, default=1)
    run_parser.add_argument("--partitions", type=int, default=1)
    run_parser.add_argument("--seed", type=int, default=42)
    run_parser.add_argument("--plot", action="store_true")
    run_parser.set_defaults(func=_cmd_run)

    micro_parser = subparsers.add_parser(
        "microbench",
        help="run one of the nine micro-benchmarks plus the queue-depth sweep",
    )
    _add_device_argument(micro_parser)
    micro_parser.add_argument("name", choices=tuple(MICROBENCHMARKS))
    micro_parser.add_argument("--pattern", default="", help="e.g. SW to filter")
    micro_parser.add_argument("--io-size", default="32K")
    micro_parser.add_argument("--count", type=int, default=128)
    micro_parser.add_argument("--ignore", type=int, default=0)
    micro_parser.add_argument("--pause", type=float, default=1.0, help="inter-run pause (s)")
    micro_parser.set_defaults(func=_cmd_microbench)

    phases_parser = subparsers.add_parser(
        "phases", help="measure start-up and running phases"
    )
    _add_device_argument(phases_parser)
    phases_parser.add_argument("--io-size", default="32K")
    phases_parser.add_argument("--count", type=int, default=1024)
    phases_parser.set_defaults(func=_cmd_phases)

    pause_parser = subparsers.add_parser(
        "pause", help="determine the inter-run pause (Figure 5 probe)"
    )
    _add_device_argument(pause_parser)
    pause_parser.add_argument("--reads-after", type=int, default=4096)
    pause_parser.add_argument("--plot", action="store_true")
    pause_parser.set_defaults(func=_cmd_pause)

    table3_parser = subparsers.add_parser(
        "table3", help="derive the Table 3 device summary"
    )
    table3_parser.add_argument("names", nargs="*", help="device profiles")
    table3_parser.add_argument("--no-paper", action="store_true")
    table3_parser.add_argument("--classify", action="store_true")
    table3_parser.set_defaults(func=_cmd_table3)

    hints_parser = subparsers.add_parser(
        "hints", help="evaluate the seven design hints"
    )
    _add_device_argument(hints_parser)
    hints_parser.set_defaults(func=_cmd_hints)

    autotune_parser = subparsers.add_parser(
        "autotune", help="adaptively tune IOIgnore/IOCount (Section 6)"
    )
    _add_device_argument(autotune_parser)
    autotune_parser.add_argument("--io-size", default="32K")
    autotune_parser.add_argument("--ci", type=float, default=0.10,
                                 help="target relative confidence interval")
    autotune_parser.add_argument("--max-ios", type=int, default=4096)
    autotune_parser.set_defaults(func=_cmd_autotune)

    energy_parser = subparsers.add_parser(
        "energy", help="energy per IO pattern (extension)"
    )
    _add_device_argument(energy_parser)
    energy_parser.add_argument("--io-size", default="32K")
    energy_parser.add_argument("--count", type=int, default=256)
    energy_parser.set_defaults(func=_cmd_energy)

    lifetime_parser = subparsers.add_parser(
        "lifetime", help="wear report + lifetime projection (extension)"
    )
    _add_device_argument(lifetime_parser)
    lifetime_parser.add_argument("--pattern", choices=("SR", "RR", "SW", "RW"),
                                 default="RW")
    lifetime_parser.add_argument("--io-size", default="32K")
    lifetime_parser.add_argument("--count", type=int, default=512)
    lifetime_parser.set_defaults(func=_cmd_lifetime)

    campaign_parser = subparsers.add_parser(
        "campaign", help="run micro-benchmarks under a plan and archive them"
    )
    _add_device_argument(campaign_parser)
    campaign_parser.add_argument(
        "benchmarks", nargs="+", choices=tuple(MICROBENCHMARKS),
        help="micro-benchmarks to include",
    )
    campaign_parser.add_argument("--label", default="campaign")
    campaign_parser.add_argument("--out", default="campaign_results")
    campaign_parser.add_argument("--io-size", default="32K")
    campaign_parser.add_argument("--count", type=int, default=128)
    campaign_parser.add_argument("--ignore", type=int, default=0)
    campaign_parser.add_argument("--pause", type=float, default=1.0)
    campaign_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for campaign cells (1 = run inline; "
             "results are identical either way)",
    )
    campaign_parser.add_argument(
        "--cache", default="",
        help="run-cache directory; already-measured cells are served "
             "from it instead of re-running",
    )
    campaign_parser.add_argument(
        "--metrics", action="store_true",
        help="collect device/executor metrics and print a campaign-end "
             "summary table",
    )
    campaign_parser.add_argument(
        "--trace", default="",
        help="record campaign/cell/run spans and write Chrome trace-event "
             "JSON to this path (load in Perfetto or chrome://tracing)",
    )
    campaign_parser.add_argument(
        "--attribution", action="store_true",
        help="attribute every cell's IO latencies: traces gain exact "
             "per-IO latency-attribution columns, a campaign-end "
             "attribution table is printed, and --trace gains simulated "
             "device-time lanes",
    )
    campaign_parser.add_argument(
        "--attribution-out", default="",
        help="also write the attribution report to this path",
    )
    campaign_parser.add_argument(
        "--profile", nargs="?", const="", default=None, metavar="STATS",
        help="run under cProfile and print the top 20 functions by "
             "cumulative time; with a path, also dump pstats data there "
             "(inspect with 'python -m pstats STATS')",
    )
    campaign_parser.set_defaults(func=_cmd_campaign)

    report_parser = subparsers.add_parser(
        "report", help="render an archived campaign as Markdown"
    )
    report_parser.add_argument("archive", help="campaign .json file")
    report_parser.add_argument("--compare", default="",
                               help="second campaign .json to diff against")
    report_parser.add_argument("--out", default="", help="output .md path")
    report_parser.set_defaults(func=_cmd_report)

    replay_parser = subparsers.add_parser(
        "replay", help="replay an archived IO trace against a device"
    )
    _add_device_argument(replay_parser)
    replay_parser.add_argument("trace", help="trace CSV (IOTrace.to_csv)")
    replay_parser.add_argument("--timed", action="store_true",
                               help="preserve recorded arrival times")
    replay_parser.add_argument("--remap", action="store_true",
                               help="fold LBAs into the target capacity")
    replay_parser.add_argument("--ignore", type=int, default=0)
    replay_parser.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
