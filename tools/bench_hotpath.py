#!/usr/bin/env python
"""Wall-clock benchmark of the controller→FTL→chip hot path.

Measures simulator throughput — not simulated device latency — for the
two phases that dominate real campaign time:

* **enforce**: random-state enforcement (random sector-aligned writes
  covering the whole device, Section 4.1 methodology), the workload the
  vectorized run kernel targets;
* **SR/RR/SW/RW**: the four baseline patterns of Section 3.1;
* **run_{SR,RR,SW,RW,mix,parallel,burst,pause,RW_qd32}**: measured
  runs through the engine (``run_burst`` is SW in bursts of 32 IOs,
  ``run_pause`` SW with a 1 ms pause before every IO, ``run_RW_qd32``
  RW with 32 IOs in flight), each with a
  ``/fallback`` twin whose programs skip the
  closed-form kernels and run the hosts' per-IO loops (no fast key the
  kernels served may be more than ``FALLBACK_LIMIT`` times slower than
  its twin);
* **run_RR_qd{1,4,32}**: a random-read sweep over NCQ queue depths
  through the engine's queued host; each entry also carries the
  *simulated* ``device_iops``, which should scale with depth up to the
  profile's channel count.
* **run_RW_gc / run_RR_qd32_analytic**: the closed-form kernel
  workloads — GC-crossing random writes on an enforced device (the
  GC-epoch kernel) and a depth-32 random-read run (the queued
  completion kernel), each with a ``/fallback`` twin forced through
  the hosts' per-IO loops.

Enforcement and the four baselines are timed twice per profile: once
on the default device and once on its ``/oracle`` twin, built with a
never-failing fault injector (:class:`~repro.flashsim.chip.NoFaults`),
which sends every layer below the controller — FTL batch reads and
runs, block copies, log appends, closed-form kernels — down its scalar
per-IO reference path, so the speedup is visible in one report.  Results are
written as ``{workload: {"usec_per_io": ..., "sim_ios_per_sec": ...}}``
where workload keys look like ``ideal_pagemap/enforce`` (default) and
``ideal_pagemap/enforce/oracle``.

Usage::

    python tools/bench_hotpath.py --quick --out BENCH_hotpath.json
    python tools/bench_hotpath.py --quick --baseline BENCH_hotpath.json

With ``--baseline``, the run fails (exit 1) if any shared workload's
``usec_per_io`` regresses more than 2x against the committed numbers,
if a profile's enforce-vs-oracle or GC-epoch *speedup* (the
slow-path/fast-path ratio, which is largely machine-independent) drops
below its gate's share of the committed ratio (``SPEEDUP_GATES``), or
if any workload is more than ``FALLBACK_LIMIT`` times slower than its
``/fallback`` or ``/oracle`` twin (a fast path losing to its own
fallback or to the scalar reference) — the CI perf-smoke gate.  A
twin is gated only where its two sides run different code; where they
run the same, only noise could trip the limit.  So a ``/fallback`` twin
is gated only where the kernels served the plain run (its
``kernel_ios`` is above 0), and the ``SR``/``RR`` ``/oracle`` twins
only on ``batch_read_capable`` families (a hybrid or FAST read runs
page by page on both sides).  ``enforce``, ``SW`` and ``RW`` are gated
against ``/oracle`` on every family: their log appends, destages and
block-range merge copies run the scalar per-page loops on the oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.engine import Engine, execute  # noqa: E402
from repro.flashsim import analytic  # noqa: E402
from repro.flashsim.chip import NoFaults  # noqa: E402
from repro.core.methodology import enforce_random_state  # noqa: E402
from repro.core.patterns import (  # noqa: E402
    LocationKind,
    MixSpec,
    ParallelSpec,
    PatternSpec,
    TimingKind,
    baselines,
)
from repro.flashsim.ftl.pagemap import PageMapConfig  # noqa: E402
from repro.flashsim.profiles import (  # noqa: E402
    build_device,
    get_profile,
    profile_names,
    scaled_profile,
)
from repro.iotypes import Mode  # noqa: E402
from repro.units import KIB, MIB  # noqa: E402

#: baseline-pattern order follows the paper's Table 3 columns
PATTERN_ORDER = ("SR", "RR", "SW", "RW")

#: regression gate used by --baseline (CI perf smoke)
REGRESSION_FACTOR = 2.0

#: fraction of the committed speedup (slow-path over fast-path
#: usec/io) a gated run must retain.  Unlike raw usec_per_io the ratio
#: cancels out machine speed, so a drop below this almost always means
#: the batch or analytic fast path stopped engaging, not a slow runner.
SPEEDUP_RETENTION = 0.5

#: speedup-gated workloads: (fast key stem, slow-twin suffix, share of
#: the committed ratio a run must retain by FTL family, "*" for the
#: rest).  The enforce/oracle ratio pins every fast path enforcement
#: takes: the closed-form write kernel on page-map profiles, block
#: copies and log appends on the merge-based families.  On the latter
#: it is only 1.4-2x at the quick config, so half of it would still
#: pass with the fast paths off (ratio 1.0) — their retention is set to
#: trip there.  The run_RW_gc ratio pins the GC-epoch kernel (its
#: fallback twin runs the per-IO loop with the batch controller paths
#: still on).
SPEEDUP_GATES = (
    ("enforce", "oracle", {"pagemap": SPEEDUP_RETENTION, "*": 0.85}),
    ("run_RW_gc", "fallback", {"*": SPEEDUP_RETENTION}),
)

#: how much slower than its ``/fallback`` or ``/oracle`` twin a
#: workload may run: a fast path that loses to its own fallback, or to
#: the scalar reference, is a bug (short mix stretches, where kernel
#: window setup can cost more than it saves, were the first case).
#: ``/fallback`` twins are checked only where the kernels served IOs,
#: ``READ_PATTERNS``' ``/oracle`` twins only on batch-read families.
FALLBACK_LIMIT = 1.25

#: baseline reads, whose ``/oracle`` twins run the same page-by-page
#: read on both sides unless the family is ``batch_read_capable``
READ_PATTERNS = ("SR", "RR")

DEFAULT_PROFILES = ("ideal_pagemap", "memoright", "kingston_dti")


def _build(profile: str, logical_bytes: int, oracle: bool = False):
    """A fresh device, or its scalar ``NoFaults`` oracle twin."""
    return build_device(
        profile,
        logical_bytes=logical_bytes,
        fault_injector=NoFaults() if oracle else None,
    )


def _paired(repeat: int, sides: tuple) -> list:
    """``repeat`` rounds over ``sides`` (a workload and its twin),
    flipping their order every round, so that neither side of a
    speedup ratio always runs first and a burst of machine noise lands
    on both alike."""
    rounds = []
    for round_ in range(max(repeat, 1)):
        rounds.extend(sides if round_ % 2 == 0 else reversed(sides))
    return rounds


def _decline_program(*args, **kwargs) -> None:
    return None


@contextlib.contextmanager
def _kernels_declined():
    """Make every program decline the closed-form kernels, so the hosts
    run their per-IO loops (the ``/fallback`` twins): the synchronous
    program check — which a parallel run's merged program goes through
    too — finds no stretch for a window, and the queued kernel returns
    no result.  The FTLs' and the chip's array
    paths below them stay on.  Enforcement runs its writes as a
    program through the same check, so the twins enforce outside this
    context."""
    names = ("program_stretches", "run_program_queued")
    saved = [getattr(analytic, name) for name in names]
    for name in names:
        setattr(analytic, name, _decline_program)
    try:
        yield
    finally:
        for name, kernel in zip(names, saved):
            setattr(analytic, name, kernel)


def _kernel_ios() -> int:
    """IOs the closed-form kernels have served in this process so far."""
    stats = analytic.STATS
    return stats.write_ios + stats.read_ios + stats.queued_ios


def _entry(elapsed_sec: float, io_count: int) -> dict[str, float]:
    elapsed_sec = max(elapsed_sec, 1e-9)
    return {
        "usec_per_io": round(elapsed_sec * 1e6 / max(io_count, 1), 3),
        "sim_ios_per_sec": round(max(io_count, 1) / elapsed_sec, 1),
    }


def _entries(
    best_sec: dict[str, float], served: dict[str, int], io_count: int
) -> dict[str, dict[str, float]]:
    """Timing entries, with ``kernel_ios`` on the keys that record it."""
    results = {key: _entry(sec, io_count) for key, sec in best_sec.items()}
    for key, ios in served.items():
        results[key]["kernel_ios"] = ios
    return results


def _warm_up(profile: str, logical_bytes: int) -> None:
    """Untimed work ahead of a profile's timed rounds: numpy's lazy
    submodule imports (np.ma via np.unique), code caches on a throwaway
    oracle twin, and one enforcement of the plain device at the timed
    capacity.  Without that last one a session's first timed
    enforcement can read well above every later one (31.7 against
    12.8 usec/io on ``ideal_pagemap``), and the absolute gate would
    time the host's state rather than the code."""
    import numpy as np

    np.unique(np.arange(4))
    enforce_random_state(_build(profile, MIB, True))
    enforce_random_state(_build(profile, logical_bytes, False))


def bench_profile(
    profile: str, logical_bytes: int, io_count: int, repeat: int, twins: bool
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` timings of enforcement and the four baselines.

    Each repetition runs the full workload sequence on a fresh device
    and, with ``twins``, on a fresh ``NoFaults`` oracle twin
    (``/oracle`` keys), in alternating order (:func:`_paired`).  The
    sequence is deterministic, so repetitions are identical work; the
    minimum elapsed time per workload is reported, which is robust
    against scheduler noise on shared machines.
    """
    best_sec: dict[str, float] = {}
    ios: dict[str, int] = {}
    specs = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes,
        sequential_target_size=logical_bytes,
    )
    for oracle in _paired(repeat, (False, True) if twins else (False,)):
        suffix = "/oracle" if oracle else ""
        device = _build(profile, logical_bytes, oracle)

        start = time.perf_counter()
        report = enforce_random_state(device)
        elapsed = time.perf_counter() - start
        key = f"{profile}/enforce{suffix}"
        best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
        ios[key] = report.io_count

        for name in PATTERN_ORDER:
            start = time.perf_counter()
            execute(device, specs[name])
            elapsed = time.perf_counter() - start
            key = f"{profile}/{name}{suffix}"
            best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
            ios[key] = io_count
    return {key: _entry(sec, ios[key]) for key, sec in best_sec.items()}


def _run_specs(logical_bytes: int, io_count: int) -> dict[str, object]:
    """The measured-run workloads: four baselines, a mix, a parallel,
    a burst, a pause and a queued run."""
    specs = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes // 2,
        sequential_target_size=logical_bytes // 2,
    )
    half = logical_bytes // 2
    primary = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=io_count,
        target_size=half,
    )
    secondary = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=io_count,
        target_offset=half,
        target_size=half,
    )
    workloads: dict[str, object] = {
        f"run_{name}": specs[name] for name in PATTERN_ORDER
    }
    workloads["run_mix"] = MixSpec(
        primary=primary, secondary=secondary, ratio=3, io_count=io_count
    )
    workloads["run_parallel"] = ParallelSpec(
        base=specs["SW"], parallel_degree=4
    )
    # paced writes take one write window, gaps and all
    workloads["run_burst"] = specs["SW"].with_(
        timing=TimingKind.BURST, pause_usec=1_000.0, burst=32
    )
    workloads["run_pause"] = specs["SW"].with_(
        timing=TimingKind.PAUSE, pause_usec=1_000.0
    )
    # zero-gap writes in flight take the queued kernel
    workloads["run_RW_qd32"] = specs["RW"].with_(queue_depth=32)
    return workloads


def bench_measured_runs(
    profile: str, logical_bytes: int, io_count: int, repeat: int, twins: bool
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` timings of the engine's measured runs.

    The same nine workloads run with the closed-form kernels on (the
    default, plain keys) and, with ``twins``, with every program
    declining them (``/fallback`` suffix — the hosts' per-IO loops),
    in alternating order (:func:`_paired`).  Both produce bit-identical
    traces, so the ratio is pure fast-path gain or loss.  Plain keys
    record the IOs the kernels served (``kernel_ios``).
    """
    best_sec: dict[str, float] = {}
    served: dict[str, int] = {}
    workloads = _run_specs(logical_bytes, io_count)
    for kernels in _paired(repeat, (True, False) if twins else (True,)):
        suffix = "" if kernels else "/fallback"
        engine = Engine(build_device(profile, logical_bytes=logical_bytes))
        with contextlib.nullcontext() if kernels else _kernels_declined():
            for name, spec in workloads.items():
                before = _kernel_ios()
                start = time.perf_counter()
                engine.run(spec)
                elapsed = time.perf_counter() - start
                key = f"{profile}/{name}{suffix}"
                best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
                if kernels:
                    served[key] = _kernel_ios() - before
    return _entries(best_sec, served, io_count)


#: queue depths of the NCQ sweep (1 = the synchronous reference)
QUEUE_DEPTHS = (1, 4, 32)


def bench_queue_depths(
    profile: str, logical_bytes: int, io_count: int, repeat: int
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` timings of a random-read run per queue depth.

    Each depth runs the same RR spec through the engine on a fresh
    device (``run_RR_qd1`` is the synchronous reference; deeper runs
    take the queued host).  Besides the usual host-side throughput
    numbers, each entry reports the *simulated* ``device_iops`` — IO
    count over the run's makespan — which is where channel-level overlap
    shows: on a multi-channel profile it should scale with depth up to
    the channel count.
    """
    spec = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes,
    )["RR"]
    best_sec: dict[str, float] = {}
    sim_iops: dict[str, float] = {}
    for _ in range(max(repeat, 1)):
        for depth in QUEUE_DEPTHS:
            device = build_device(profile, logical_bytes=logical_bytes)
            engine = Engine(device)
            start = time.perf_counter()
            run = engine.run(spec.with_(queue_depth=depth))
            elapsed = time.perf_counter() - start
            key = f"{profile}/run_RR_qd{depth}"
            best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
            trace = run.trace
            makespan = float(
                trace.column("completed_at").max()
                - trace.column("submitted_at").min()
            )
            sim_iops[key] = io_count / makespan * 1e6 if makespan > 0 else 0.0
    results = {}
    for key, sec in best_sec.items():
        entry = _entry(sec, io_count)
        entry["device_iops"] = round(sim_iops[key], 1)
        results[key] = entry
    return results


def bench_gc_epochs(
    profile: str, logical_bytes: int, io_count: int, repeat: int
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` timings of the closed-form kernel workloads.

    Both workloads start from an *enforced* device, whose free pool
    sits at the GC watermark.  ``run_RW_gc`` issues random 16 KiB
    writes re-covering the device, so the stream crosses a collection
    every few IOs and the GC-epoch kernel carries the whole run as
    closed-form appends between real relocation steps.
    ``run_RR_qd32_analytic`` drives the same enforced state with
    depth-32 random reads through the queued completion kernel's
    vectorized event schedule.

    Each workload is timed twice: kernels on (plain key) and with every
    program declining them (``/fallback`` suffix), which sends the
    hosts through their per-IO loops.  The batch controller paths stay
    on in both passes, so the ratio isolates the closed-form kernels
    rather than the older batch machinery, and enforcement itself
    always runs with kernels on — both passes measure the same device
    state bit-identically.

    Page-map profiles are rebuilt as a tight-spare, foreground-GC
    variant of the same timing profile: the stock spare area plus
    background reclamation would take tens of MiB of writes before the
    first collection, so on the stock device ``run_RW_gc`` would mostly
    time the GC-free fill.  The tight variant reaches the watermark
    during enforcement, so the timed run sits in GC steady state from
    its first window.
    """
    if get_profile(profile).ftl_kind == "pagemap":
        variant = scaled_profile(
            profile,
            name=f"{profile}-gc-bench",
            spare_blocks=8,
            pagemap=PageMapConfig(gc_low_blocks=4, bg_enabled=False),
        )
        build = lambda: variant.build(logical_bytes)  # noqa: E731
    else:
        build = lambda: build_device(  # noqa: E731
            profile, logical_bytes=logical_bytes
        )
    write_spec = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes,
    )["RW"]
    read_spec = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes,
    )["RR"].with_(queue_depth=32)
    workloads = (
        ("run_RW_gc", write_spec),
        ("run_RR_qd32_analytic", read_spec),
    )
    best_sec: dict[str, float] = {}
    served: dict[str, int] = {}
    for enabled in _paired(repeat, (True, False)):
        suffix = "" if enabled else "/fallback"
        for name, spec in workloads:
            device = build()
            enforce_random_state(device)
            engine = Engine(device)
            with contextlib.nullcontext() if enabled else _kernels_declined():
                before = _kernel_ios()
                start = time.perf_counter()
                engine.run(spec)
                elapsed = time.perf_counter() - start
            key = f"{profile}/{name}{suffix}"
            best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
            if enabled:
                served[key] = _kernel_ios() - before
    return _entries(best_sec, served, io_count)


def bench_attribution(
    profile: str, logical_bytes: int, io_count: int, repeat: int
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` timings of the RW run with attribution off/on.

    ``run_RW_recorder_off`` is the plain hot path on a device whose
    ``attribution`` switch was never set — committed to the baseline so
    the gate pins the disabled-attribution cost (one attribute check per
    dispatch) at parity.  ``run_RW_recorder_on`` measures the full
    attribution pipeline (provenance scopes, partition walk,
    apportionment, trace columns) for the report; attribution is an
    opt-in campaign mode, so its absolute cost is informational.  The
    key names predate the switch and are kept so committed baselines
    still match.
    """
    spec = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes // 2,
    )["RW"]
    best_sec: dict[str, float] = {}
    for _ in range(max(repeat, 1)):
        for attributed in (False, True):
            device = build_device(profile, logical_bytes=logical_bytes)
            device.attribution = attributed
            engine = Engine(device)
            start = time.perf_counter()
            engine.run(spec)
            elapsed = time.perf_counter() - start
            key = f"{profile}/run_RW_recorder_{'on' if attributed else 'off'}"
            best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
    return {key: _entry(sec, io_count) for key, sec in best_sec.items()}


def bench_snapshot_pack(
    profile: str, logical_bytes: int, repeat: int
) -> dict[str, dict[str, float]]:
    """Snapshot distribution stats (``{profile}/snapshot_pack``).

    Best-of-``repeat`` timings of the campaign executor's state-handoff
    primitives on an enforced device: flat-buffer packing
    (:func:`~repro.flashsim.snapshot.pack_snapshot`, what the publisher
    pays once per state), unpack-plus-restore (what a worker pays per
    shared-memory attach), and the legacy whole-snapshot pickle for
    comparison.  ``packed_bytes`` vs ``pickled_bytes`` shows the size of
    a shared segment against the per-cell pipe traffic it replaces.
    Stat-only entry: no ``usec_per_io``, so the --baseline gate skips it.
    """
    import pickle

    from repro.flashsim.snapshot import pack_snapshot, unpack_snapshot

    device = build_device(profile, logical_bytes=logical_bytes)
    enforce_random_state(device)
    snapshot = device.snapshot()
    target = build_device(profile, logical_bytes=logical_bytes)
    pack_sec = unpack_sec = pickle_sec = float("inf")
    packed_bytes = pickled_bytes = 0
    for _ in range(max(repeat, 1)):
        start = time.perf_counter()
        packed = pack_snapshot(snapshot)
        pack_sec = min(pack_sec, time.perf_counter() - start)
        packed_bytes = packed.nbytes

        start = time.perf_counter()
        target.restore(unpack_snapshot(packed))
        unpack_sec = min(unpack_sec, time.perf_counter() - start)

        start = time.perf_counter()
        blob = pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL)
        pickle_sec = min(pickle_sec, time.perf_counter() - start)
        pickled_bytes = len(blob)
    return {
        f"{profile}/snapshot_pack": {
            "pack_usec": round(pack_sec * 1e6, 1),
            "unpack_restore_usec": round(unpack_sec * 1e6, 1),
            "pickle_usec": round(pickle_sec * 1e6, 1),
            "packed_bytes": packed_bytes,
            "pickled_bytes": pickled_bytes,
        }
    }


def _workload_speedup(
    entries: dict[str, dict[str, float]],
    profile: str,
    name: str,
    slow_suffix: str,
) -> float | None:
    """Speedup (slow-twin over fast usec/io) for one workload, or None
    when either side is absent (e.g. --batch-only runs)."""
    fast = entries.get(f"{profile}/{name}")
    slow = entries.get(f"{profile}/{name}/{slow_suffix}")
    if not fast or not slow:
        return None
    return slow["usec_per_io"] / max(fast["usec_per_io"], 1e-9)


def _twinned(
    entries: dict[str, dict[str, float]], profile: str, suffix: str
) -> list[str]:
    """Workload names of ``profile`` that have both a plain key and a
    ``/<suffix>`` twin in ``entries``."""
    tail = f"/{suffix}"
    return [
        key[len(profile) + 1 : -len(tail)]
        for key in entries
        if key.startswith(f"{profile}/")
        and key.endswith(tail)
        and key[: -len(tail)] in entries
    ]


def check_baseline(
    results: dict[str, dict[str, float]], baseline_path: Path
) -> list[str]:
    """Workloads whose usec_per_io (or enforce speedup) regressed past
    the gate."""
    baseline = json.loads(baseline_path.read_text())
    regressions = []
    for workload, entry in results.items():
        old = baseline.get(workload)
        # stat-only entries (e.g. snapshot_pack sizes) carry no timing
        if not old or "usec_per_io" not in old or "usec_per_io" not in entry:
            continue
        if entry["usec_per_io"] > REGRESSION_FACTOR * old["usec_per_io"]:
            regressions.append(
                f"{workload}: {entry['usec_per_io']} usec/io vs "
                f"baseline {old['usec_per_io']} (> {REGRESSION_FACTOR}x)"
            )
    # the speedup gates: machine-independent, so far tighter than the
    # absolute-time factor — they trip when a fast path stops engaging
    profiles = {w.split("/", 1)[0] for w in results if "/" in w}
    for profile in sorted(profiles):
        family = get_profile(profile).ftl_kind
        for name, slow_suffix, shares in SPEEDUP_GATES:
            retention = shares.get(family, shares["*"])
            new_ratio = _workload_speedup(results, profile, name, slow_suffix)
            old_ratio = _workload_speedup(baseline, profile, name, slow_suffix)
            if new_ratio is None or old_ratio is None:
                continue
            if new_ratio < retention * old_ratio:
                regressions.append(
                    f"{profile}: {name}/{slow_suffix} speedup {new_ratio:.2f}x vs "
                    f"baseline {old_ratio:.2f}x (< {retention}x retention)"
                )
        batch_reads = _build(profile, MIB).ftl.batch_read_capable
        for suffix in ("fallback", "oracle"):
            for name in _twinned(results, profile, suffix):
                if suffix == "fallback" and not results[f"{profile}/{name}"].get(
                    "kernel_ios", 1
                ):
                    continue  # every program declined: same code both sides
                if suffix == "oracle" and name in READ_PATTERNS and not batch_reads:
                    continue  # page-by-page reads on both sides
                speedup = _workload_speedup(results, profile, name, suffix)
                if speedup * FALLBACK_LIMIT < 1.0:
                    regressions.append(
                        f"{profile}: {name} {1 / speedup:.2f}x slower than "
                        f"{name}/{suffix} (> {FALLBACK_LIMIT}x)"
                    )
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profiles",
        default=",".join(DEFAULT_PROFILES),
        help="comma-separated profile names, or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small device (4 MiB) and short sweeps for CI",
    )
    parser.add_argument(
        "--size-mib", type=int, default=0, help="logical capacity override (MiB)"
    )
    parser.add_argument(
        "--io-count", type=int, default=0, help="IOs per baseline pattern"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write results JSON here"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed BENCH_hotpath.json to gate against",
    )
    parser.add_argument(
        "--batch-only",
        action="store_true",
        help="skip the oracle and fallback twins",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="repetitions per workload; the minimum time is reported",
    )
    args = parser.parse_args(argv)

    if args.profiles == "all":
        profiles = profile_names()
    else:
        profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
    logical = (args.size_mib or (4 if args.quick else 16)) * MIB
    io_count = args.io_count or (128 if args.quick else 1024)

    results: dict[str, dict[str, float]] = {}
    for profile in profiles:
        twins = not args.batch_only
        print(f"benchmarking {profile} ...", flush=True)
        _warm_up(profile, logical)
        results.update(
            bench_profile(profile, logical, io_count, args.repeat, twins)
        )
        print(f"benchmarking {profile} runs ...", flush=True)
        results.update(
            bench_measured_runs(profile, logical, io_count, args.repeat, twins)
        )
        print(f"benchmarking {profile} queue depths ...", flush=True)
        results.update(
            bench_queue_depths(profile, logical, io_count, args.repeat)
        )
        print(f"benchmarking {profile} GC epochs ...", flush=True)
        results.update(
            bench_gc_epochs(profile, logical, io_count, args.repeat)
        )
        print(f"benchmarking {profile} latency attribution ...", flush=True)
        results.update(
            bench_attribution(profile, logical, io_count, args.repeat)
        )
        print(f"benchmarking {profile} snapshot packing ...", flush=True)
        results.update(
            bench_snapshot_pack(profile, logical, args.repeat)
        )

    print(json.dumps(results, indent=2))
    for profile in profiles:
        for name in ("enforce", *PATTERN_ORDER):
            speedup = _workload_speedup(results, profile, name, "oracle")
            if speedup is not None:
                print(f"{profile}: {name} speedup {speedup:.2f}x (oracle/fast)")
        for name in _twinned(results, profile, "fallback"):
            speedup = _workload_speedup(results, profile, name, "fallback")
            print(f"{profile}: {name} speedup {speedup:.2f}x (fallback/fast)")
        pack_key = f"{profile}/snapshot_pack"
        if pack_key in results:
            entry = results[pack_key]
            print(
                f"{profile}: snapshot pack {entry['pack_usec']:.0f} usec, "
                f"restore {entry['unpack_restore_usec']:.0f} usec "
                f"({entry['packed_bytes'] // 1024} KiB shared vs "
                f"{entry['pickled_bytes'] // 1024} KiB pickled per cell)"
            )
        rec_off = f"{profile}/run_RW_recorder_off"
        rec_on = f"{profile}/run_RW_recorder_on"
        if rec_off in results and rec_on in results:
            overhead = (
                results[rec_on]["usec_per_io"]
                / max(results[rec_off]["usec_per_io"], 1e-9)
            )
            print(
                f"{profile}: latency attribution costs "
                f"{overhead:.2f}x on RW (opt-in)"
            )
        qd_low = f"{profile}/run_RR_qd{QUEUE_DEPTHS[0]}"
        qd_high = f"{profile}/run_RR_qd{QUEUE_DEPTHS[-1]}"
        if qd_low in results and qd_high in results:
            channels = get_profile(profile).timing.channels
            scaling = (
                results[qd_high]["device_iops"]
                / max(results[qd_low]["device_iops"], 1e-9)
            )
            print(
                f"{profile}: queued RR scaling "
                f"{scaling:.2f}x at qd{QUEUE_DEPTHS[-1]} "
                f"({channels} channels)"
            )

    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")

    if args.baseline:
        if not args.baseline.exists():
            print(f"baseline {args.baseline} missing; skipping gate")
        else:
            regressions = check_baseline(results, args.baseline)
            if regressions:
                print("PERF REGRESSION:")
                for line in regressions:
                    print(f"  {line}")
                return 1
            print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
