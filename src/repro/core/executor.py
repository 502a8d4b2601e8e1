"""Parallel campaign execution with snapshot restore and memoization.

A campaign decomposes into independent *cells* — one (device profile,
experiment) pair each.  Cells share nothing but the enforced initial
state, which the executor builds **once per profile**, snapshots, and
hands to every cell; each cell restores the snapshot onto its own
device and runs with its own target-space allocator.  Because the
simulator is deterministic, the same cell always produces the same
measurements — which buys two things:

* **parallelism** — cells fan out across worker processes
  (``jobs > 1``) and the results are bit-identical to running them
  sequentially (``jobs == 1`` uses the identical per-cell code path,
  inline);
* **memoization** — a :class:`RunCache` stores finished cells on disk
  keyed by (cell, state fingerprint, spec, model); a repeated campaign
  re-runs zero already-measured cells.

Cells are described by picklable primitives only: experiments hold
pattern-builder closures that cannot cross a process boundary, so
workers rebuild them from the micro-benchmark registry
(:func:`~repro.core.microbench.build_microbenchmark`).  Results travel
as the archive's JSON payloads, which round-trip floats exactly.

Campaign throughput (see DESIGN.md §14)
---------------------------------------

One dispatch loop serves both modes.  It walks the cells' (profile,
capacity) groups in input order; for each group the parent prepares
the enforced state (through its :class:`StatePool`, the only enforcer),
resolves the group's cache keys and serves the hits, and only then
runs the misses — inline when ``jobs == 1`` or the campaign has one
cell, otherwise on a process pool created on the first dispatched miss.
A group's misses are submitted before the next group is prepared, so
enforcement overlaps the cells already in the pool.  Two mechanisms
keep the pooled handoff cheap:

* **zero-copy snapshot distribution** — a group with misses has its
  enforced snapshot packed once into a content-addressed shared-memory
  :class:`~repro.flashsim.snapshot.SnapshotStore` keyed by the state
  fingerprint; cells carry a segment *name* instead of a snapshot, and
  workers attach and restore from read-only views (per-cell snapshot
  bytes through the pipe drop to ~0);
* **warm-worker scheduling** — each worker keeps a small LRU of
  resident built devices per ``(profile, capacity)``; a group's cells
  are submitted contiguously, so consecutive cells on a worker reuse
  the resident instead of rebuilding it.

A fully cached campaign therefore starts no pool and publishes no
segment.  Scheduling effects are visible in :attr:`CampaignExecutor.sched`
(a :class:`SchedulerStats`) and, when metrics are installed, as
``core.executor.warm_hits`` / ``cold_builds`` / ``snapshot_segments`` /
``snapshot_bytes_shipped`` / ``snapshot_bytes_saved`` counters.
``tools/bench_campaign.py`` measures the end-to-end effect against the
sequential ``jobs=1`` reference.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.core.archive import (
    payload_has_attribution,
    payload_has_traces,
    result_from_payload,
    result_to_payload,
)
from repro.core.experiment import Experiment, ExperimentResult, run_experiment
from repro.core.methodology import StatePool
from repro.core.microbench import BenchContext, build_microbenchmark
from repro.core.plan import TargetAllocator, restoring_allocator
from repro.errors import ExperimentError
from repro.flashsim import analytic
from repro.flashsim.profiles import build_device, get_profile
from repro.flashsim.snapshot import (
    DeviceSnapshot,
    SnapshotStore,
    attach_segment,
    pack_snapshot,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsSnapshot, diff_counts
from repro.units import SEC


@dataclass(frozen=True)
class Observe:
    """Which observability channels worker processes should record.

    The executor derives this from the globals installed in the parent
    process; it must travel explicitly because a ``fork``-started worker
    *inherits* the parent's installed tracer/registry objects — recording
    into those copies would silently lose everything, so workers shadow
    them with fresh instances (or ``None``) based on these flags.

    ``traces`` asks the cell to keep and return its per-IO traces
    (columnar payloads inside the result) rather than statistics only.
    ``attribution`` additionally switches on the cell device's latency
    attribution so every trace carries per-IO latency-attribution columns
    (implies ``traces``).
    """

    metrics: bool = False
    tracing: bool = False
    traces: bool = False
    attribution: bool = False


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignCell:
    """One independent unit of campaign work, in picklable primitives."""

    profile: str
    capacity: int | None
    benchmark: str
    experiment: str
    io_size: int
    io_count: int
    io_ignore: int = 0
    seed: int = 42
    repetitions: int = 1
    pause_usec: float = 1.0 * SEC


@dataclass
class CellOutcome:
    """One executed (or cache-served) cell."""

    cell: CampaignCell
    payload: dict
    cached: bool = False
    #: per-cell device-counter delta (``None`` when metrics were off both
    #: when the cell ran and when its cache entry was written)
    metrics: dict | None = None
    #: host wall-clock time the cell took to execute (0 for cache hits)
    wall_usec: float = 0.0

    def result(self) -> ExperimentResult:
        """The cell's measurements as an :class:`ExperimentResult`."""
        return result_from_payload(self.cell.experiment, self.payload)


def plan_cells(
    profile: str,
    capacity: int | None,
    benchmarks: Sequence[str],
    *,
    io_size: int,
    io_count: int,
    io_ignore: int = 0,
    seed: int = 42,
    repetitions: int = 1,
    pause_usec: float = 1.0 * SEC,
) -> list[CampaignCell]:
    """Enumerate one profile's campaign as cells, one per experiment."""
    resolved = capacity if capacity is not None else get_profile(profile).sim_logical_bytes
    context = BenchContext(
        capacity=resolved,
        io_size=io_size,
        io_count=io_count,
        io_ignore=io_ignore,
        seed=seed,
    )
    cells = []
    for name in benchmarks:
        for experiment in build_microbenchmark(name, context).experiments:
            cells.append(
                CampaignCell(
                    profile=profile,
                    capacity=capacity,
                    benchmark=name,
                    experiment=experiment.name,
                    io_size=io_size,
                    io_count=io_count,
                    io_ignore=io_ignore,
                    seed=seed,
                    repetitions=repetitions,
                    pause_usec=pause_usec,
                )
            )
    return cells


def _cell_experiment(cell: CampaignCell, capacity: int) -> Experiment:
    """Rebuild a cell's experiment from the micro-benchmark registry."""
    context = BenchContext(
        capacity=capacity,
        io_size=cell.io_size,
        io_count=cell.io_count,
        io_ignore=cell.io_ignore,
        seed=cell.seed,
    )
    for experiment in build_microbenchmark(cell.benchmark, context).experiments:
        if experiment.name == cell.experiment:
            return experiment
    raise ExperimentError(
        f"micro-benchmark {cell.benchmark!r} has no experiment {cell.experiment!r}"
    )


def _run_cell_body(
    cell: CampaignCell,
    snapshot: DeviceSnapshot,
    keep_traces: bool = False,
    attribution: bool = False,
    *,
    device=None,
) -> dict:
    """Execute one cell; returns an envelope of payload + observability.

    The single per-cell code path: the executor calls it inline (under
    the parent's installed tracer/registry, if any), worker processes
    call it via :func:`_execute_cell_fast` under their own.
    Determinism makes all executions bit-identical.

    ``device`` lets a warm worker pass its resident built device instead
    of paying a rebuild; it is restored from ``snapshot`` like a fresh
    one.  Its attribution switch is set from ``attribution`` (device
    restores leave the switch alone), so a recycled device attributes if
    and only if this cell asks for it.

    The envelope maps ``payload`` (the measurements, with columnar
    per-IO traces included when ``keep_traces``), ``metrics`` (the
    cell's device-counter delta, ``None`` when metrics are off) and
    ``wall_usec`` (host wall-clock execution time).
    """
    registry = obs_metrics.current()
    analytic_baseline = (
        analytic.STATS.counters() if registry is not None else None
    )
    wall_start = time.perf_counter()
    with obs_tracing.span(
        "cell", cat="executor", profile=cell.profile, experiment=cell.experiment
    ):
        if device is None:
            device = build_device(cell.profile, logical_bytes=cell.capacity)
        device.restore(snapshot)
        device.attribution = attribution
        before = device.metrics() if registry is not None else None
        experiment = _cell_experiment(cell, device.capacity)
        allocate = restoring_allocator(
            device,
            snapshot,
            TargetAllocator(device.capacity, device.geometry.block_size),
        )
        result = run_experiment(
            device,
            experiment,
            pause_usec=cell.pause_usec,
            repetitions=cell.repetitions,
            allocate=allocate,
            keep_traces=keep_traces,
        )
    envelope = {
        "payload": result_to_payload(result, include_traces=keep_traces),
        "metrics": None,
        "wall_usec": (time.perf_counter() - wall_start) * 1e6,
    }
    if registry is not None:
        envelope["metrics"] = diff_counts(device.metrics(), before)
        registry.counter("core.executor.cells_executed").inc()
        analytic.publish_stats(registry, analytic_baseline)
    return envelope


# ----------------------------------------------------------------------
# warm workers: resident devices + shared-memory snapshot views
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _CellTask:
    """One dispatched cell plus how its worker reaches the base state.

    Exactly one of ``segment`` (a shared-memory name the worker attaches
    and restores from, zero bytes through the pipe) and ``snapshot``
    (a full pickled snapshot, the fallback when shared memory is
    unavailable) is set.
    """

    cell: CampaignCell
    segment: str | None = None
    snapshot: DeviceSnapshot | None = None


#: resident built devices per (profile, capacity), newest last
_WORKER_RESIDENT: "OrderedDict[tuple, object]" = OrderedDict()
#: shared-memory segments this worker has attached: name -> (shm, snapshot)
_WORKER_ATTACHED: dict = {}
#: residents kept per worker; devices beyond this are rebuilt on demand
_RESIDENT_CAP = 4


def _worker_device(cell: CampaignCell):
    """The worker's resident device for a cell's group, building on miss.

    Returns ``(device, warm)`` — ``warm`` is True when the resident
    existed (build skipped).  The resident table is a small LRU; evicted
    groups simply rebuild when they come back.
    """
    key = (cell.profile, cell.capacity)
    device = _WORKER_RESIDENT.get(key)
    if device is not None:
        _WORKER_RESIDENT.move_to_end(key)
        return device, True
    device = build_device(cell.profile, logical_bytes=cell.capacity)
    _WORKER_RESIDENT[key] = device
    while len(_WORKER_RESIDENT) > _RESIDENT_CAP:
        _WORKER_RESIDENT.popitem(last=False)
    return device, False


def _task_snapshot(task: _CellTask) -> DeviceSnapshot:
    """The base-state snapshot a cell task restores from.

    Segment-backed tasks attach to shared memory once per worker and
    reuse the zero-copy view snapshot for every later cell of the same
    state; inline tasks carry the snapshot themselves.
    """
    if task.segment is not None:
        cached = _WORKER_ATTACHED.get(task.segment)
        if cached is None:
            cached = attach_segment(task.segment)
            _WORKER_ATTACHED[task.segment] = cached
        return cached[1]
    if task.snapshot is None:  # defensive: dispatcher always sets one
        raise ExperimentError(
            f"cell task for {task.cell.experiment!r} carries neither a "
            "segment nor a snapshot"
        )
    return task.snapshot


def _execute_cell_fast(task: _CellTask, observe: Observe) -> dict:
    """Worker-process entry point for one cell.

    Always shadows the process-global tracer/registry: under the
    ``fork`` start method the worker inherits the parent's installed
    objects, and spans or counts recorded into those copies would be
    lost.  Fresh instances are installed when the parent observes the
    matching channel; their contents travel home in the envelope
    (``spans`` as picklable payload tuples, ``registry`` as a
    :class:`MetricsSnapshot`) for the parent to absorb.

    The device comes from the worker's resident LRU (rebuilt only on a
    cold miss) and the snapshot from the shared-memory store (zero-copy
    views).  The envelope's ``warm`` entry reports whether the resident
    was reused.
    """
    tracer = obs_tracing.Tracer() if observe.tracing else None
    registry = obs_metrics.MetricsRegistry() if observe.metrics else None
    with obs_tracing.installed(tracer), obs_metrics.installed(registry):
        device, warm = _worker_device(task.cell)
        envelope = _run_cell_body(
            task.cell,
            _task_snapshot(task),
            keep_traces=observe.traces,
            attribution=observe.attribution,
            device=device,
        )
    envelope["spans"] = (
        [span.to_payload() for span in tracer.spans] if tracer is not None else []
    )
    envelope["registry"] = registry.snapshot() if registry is not None else None
    envelope["warm"] = warm
    return envelope


# ----------------------------------------------------------------------
# run cache
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 over the ``repro`` package's Python sources (once per
    process): any simulator code change is a different model."""
    root = Path(__file__).resolve().parent.parent
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        hasher.update(path.relative_to(root).as_posix().encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def model_digest(profile: str) -> str:
    """What one profile's simulated device *is*: its parameters (the
    frozen :class:`~repro.flashsim.profiles.DeviceProfile` repr) and the
    simulator code.  Part of every run-cache key, so a calibration or
    code change that leaves the enforced state alone still misses."""
    hasher = hashlib.sha256(_source_digest().encode())
    hasher.update(repr(get_profile(profile)).encode())
    return hasher.hexdigest()


class RunCache:
    """On-disk memo of executed cells.

    Keys combine the cell description, the *spec digest* (the reprs of
    the actual pattern specs the experiment will run — so a code change
    that alters patterns invalidates entries), the device-state
    fingerprint and the *model digest* (:func:`model_digest`: profile
    parameters plus simulator sources).  Entries are JSON files; floats
    round-trip exactly, so a cache hit returns the same numbers the run
    produced.  An entry that does not parse, or carries no payload,
    misses.

    Besides the global ``hits`` / ``misses`` / ``bytes_saved`` accounts
    the cache keeps a per-profile breakdown in :attr:`profiles` (hits,
    misses, simulated bytes saved, stored payload bytes), which the CLI
    renders as the per-profile cache table under ``--metrics``.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: simulated IO volume the hits avoided re-measuring
        self.bytes_saved = 0
        #: serialized payload bytes written by :meth:`put` this session
        self.payload_bytes = 0
        #: per-profile account: hits, misses, bytes_saved, payload_bytes
        self.profiles: dict[str, dict[str, int]] = {}

    def _profile_stats(self, profile: str) -> dict[str, int]:
        """The mutable per-profile account row, created on first use."""
        return self.profiles.setdefault(
            profile,
            {"hits": 0, "misses": 0, "bytes_saved": 0, "payload_bytes": 0},
        )

    @staticmethod
    def key(
        cell: CampaignCell, fingerprint: str, spec_digest: str, model: str
    ) -> str:
        """Cache key of one cell under one device state and model."""
        blob = json.dumps(
            {
                "cell": dataclasses.asdict(cell),
                "fingerprint": fingerprint,
                "specs": spec_digest,
                "model": model,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:40]

    @staticmethod
    def spec_digest(cell: CampaignCell, capacity: int) -> str:
        """Hash of every spec the cell will execute."""
        experiment = _cell_experiment(cell, capacity)
        hasher = hashlib.sha256()
        hasher.update(experiment.name.encode())
        hasher.update(experiment.parameter.encode())
        for value in experiment.values:
            hasher.update(repr(value).encode())
            hasher.update(repr(experiment.spec_for(value)).encode())
        return hasher.hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _miss(self, cell: CampaignCell | None) -> None:
        """Account one miss, globally and per profile when known."""
        self.misses += 1
        if cell is not None:
            self._profile_stats(cell.profile)["misses"] += 1

    def get_entry(
        self,
        key: str,
        cell: CampaignCell | None = None,
        require_traces: bool = False,
        require_attribution: bool = False,
    ) -> dict | None:
        """The whole memoized entry for ``key``, or None on a miss.

        Passing the ``cell`` lets the cache credit its bytes-saved
        account on a hit: every hit avoids re-simulating the cell's IO
        volume (io_count x io_size per repetition).  With
        ``require_traces``, an entry stored without per-IO traces does
        not satisfy a trace-keeping campaign and counts as a miss;
        ``require_attribution`` further requires the traces to carry
        latency-attribution columns.
        """
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):  # unreadable, not UTF-8 or not JSON
            self._miss(cell)
            return None
        if not isinstance(entry, dict) or not isinstance(entry.get("payload"), dict):
            self._miss(cell)
            return None
        if require_traces and not payload_has_traces(entry["payload"]):
            self._miss(cell)
            return None
        if require_attribution and not payload_has_attribution(entry["payload"]):
            self._miss(cell)
            return None
        self.hits += 1
        if cell is not None:
            saved = cell.io_count * cell.io_size * max(1, cell.repetitions)
            self.bytes_saved += saved
            stats = self._profile_stats(cell.profile)
            stats["hits"] += 1
            stats["bytes_saved"] += saved
        return entry

    def get(self, key: str) -> dict | None:
        """The memoized payload for ``key``, or None on a miss."""
        entry = self.get_entry(key)
        return entry["payload"] if entry is not None else None

    def put(
        self,
        key: str,
        cell: CampaignCell,
        payload: dict,
        metrics: dict | None = None,
        wall_usec: float = 0.0,
    ) -> Path:
        """Store one executed cell's payload (and observability) under ``key``.

        The entry records its serialized payload size (``payload_bytes``
        — what a future hit reads instead of re-simulating), accumulated
        globally in :attr:`payload_bytes` and per profile.
        """
        payload_size = len(json.dumps(payload))
        entry = {
            "cell": dataclasses.asdict(cell),
            "payload": payload,
            "payload_bytes": payload_size,
            "metrics": metrics,
            "wall_usec": wall_usec,
        }
        self.payload_bytes += payload_size
        self._profile_stats(cell.profile)["payload_bytes"] += payload_size
        path = self._path(key)
        path.write_text(json.dumps(entry, indent=2))
        return path


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------

def _pool_context():
    """Prefer fork on platforms that have it: child processes inherit
    ``sys.path``, so the pool works under test runners that injected
    the package path at runtime."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class SchedulerStats:
    """What the campaign dispatcher did, accumulated per executor.

    ``warm_hits`` / ``cold_builds`` split pooled cells by whether the
    worker reused a resident device.  ``segments_published`` counts
    shared-memory snapshot segments created.  ``bytes_shipped`` is
    snapshot volume sent through the pool pipe with cells;
    ``bytes_saved`` the volume segment-backed dispatches avoided (one
    packed snapshot's worth per cell).  Inline cells touch none of
    them.  Mirrored into ``core.executor.*`` counters when metrics are
    installed.
    """

    warm_hits: int = 0
    cold_builds: int = 0
    segments_published: int = 0
    bytes_shipped: int = 0
    bytes_saved: int = 0

    def as_dict(self) -> dict[str, int]:
        """The stats as a plain dict (benchmark/report serialization)."""
        return dataclasses.asdict(self)


#: SchedulerStats field -> obs counter mirroring it
_SCHED_COUNTERS = {
    "warm_hits": "core.executor.warm_hits",
    "cold_builds": "core.executor.cold_builds",
    "segments_published": "core.executor.snapshot_segments",
    "bytes_shipped": "core.executor.snapshot_bytes_shipped",
    "bytes_saved": "core.executor.snapshot_bytes_saved",
}


@dataclass
class _PreparedGroup:
    """One (profile, capacity) group's enforced base state, held by the
    parent, with the profile's :func:`model_digest` for its cache keys.
    Its shared-memory segment, if published, is looked up in the store
    by ``fingerprint``; ``nbytes`` is the packed snapshot size (0 until
    first sized)."""

    capacity: int
    fingerprint: str
    snapshot: DeviceSnapshot
    model: str
    nbytes: int = 0


class CampaignExecutor:
    """Executes campaign cells, optionally in parallel and memoized.

    ``jobs == 1`` runs cells inline; ``jobs > 1`` fans cache misses out
    across a process pool.  Either way every cell starts from the same
    restored snapshot and runs the same code path, so the two modes
    produce identical results.

    One dispatch loop serves both (DESIGN.md §14): per (profile,
    capacity) group the parent enforces through its :class:`StatePool`,
    serves the cache hits, and runs or submits the misses; a pool and a
    shared-memory snapshot store exist only once a miss is dispatched
    to a worker.  :attr:`sched` reports what the dispatcher did.
    Executors that shared snapshots own shared-memory segments —
    release them with :meth:`close` (or use the executor as a context
    manager); a finalizer and the resource tracker back the explicit
    cleanup up.  The parent is the only process that creates or unlinks
    segments, and its prepared groups are the one memo of enforced
    states.

    ``keep_traces`` makes cells keep and return their per-IO traces
    (columnar payloads); cache entries stored without traces then no
    longer satisfy a hit and are re-run.  ``attribution`` switches on
    every cell device's latency attribution so the traces carry exact
    per-IO latency-attribution columns (implies ``keep_traces``; cache
    entries without attribution are likewise re-run).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: RunCache | str | Path | None = None,
        enforce: bool = True,
        enforce_seed: int = 97,
        state_pool: StatePool | None = None,
        keep_traces: bool = False,
        attribution: bool = False,
    ) -> None:
        if jobs < 1:
            raise ExperimentError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = RunCache(cache) if isinstance(cache, (str, Path)) else cache
        self.enforce = enforce
        self.enforce_seed = enforce_seed
        self.attribution = attribution
        self.keep_traces = keep_traces or attribution
        # an empty pool is falsy (StatePool defines __len__): test None
        self._pool = state_pool if state_pool is not None else StatePool()
        self._store: SnapshotStore | None = None
        self._prepared: dict[tuple, _PreparedGroup] = {}
        #: what the dispatcher did, accumulated across execute() calls
        self.sched = SchedulerStats()

    # ------------------------------------------------------------------
    # state preparation
    # ------------------------------------------------------------------

    def prepare(self, profile: str, capacity: int | None):
        """Build one profile's device in the enforced state.

        Returns ``(capacity, snapshot, fingerprint)``; the enforcement
        itself is memoized in the executor's :class:`StatePool`, so a
        profile is only ever filled once per executor.
        """
        device = build_device(profile, logical_bytes=capacity)
        if self.enforce:
            state = self._pool.ensure(device, seed=self.enforce_seed)
            return device.capacity, state.snapshot, state.fingerprint
        return device.capacity, device.snapshot(), device.fingerprint()

    def _prepared_group(self, cell: CampaignCell, report) -> _PreparedGroup:
        """The cell's group's enforced state, preparing it on first use."""
        group = (cell.profile, cell.capacity)
        prep = self._prepared.get(group)
        if prep is None:
            report(f"preparing enforced state for {cell.profile} ...")
            with obs_tracing.span("prepare", cat="executor", profile=cell.profile):
                capacity, snapshot, fingerprint = self.prepare(
                    cell.profile, cell.capacity
                )
            prep = _PreparedGroup(
                capacity=capacity,
                fingerprint=fingerprint,
                snapshot=snapshot,
                model=model_digest(cell.profile),
            )
            self._prepared[group] = prep
        return prep

    def _publish_group(self, prep: _PreparedGroup) -> str | None:
        """The group's segment name, publishing its snapshot on first use.

        Failure (no shared memory on this platform) is not an error: it
        returns None, and the group's cells fall back to inline
        snapshots.
        """
        if self._store is None:
            self._store = SnapshotStore()
        name = self._store.get(prep.fingerprint)
        if name is None:
            try:
                name, prep.nbytes = self._store.publish(prep.fingerprint, prep.snapshot)
            except (OSError, ValueError):
                return None
            self.sched.segments_published += 1
        return name

    def _cell_task(self, cell: CampaignCell, prep: _PreparedGroup) -> _CellTask:
        """A pooled cell's task: the group's segment name, or its whole
        snapshot where no segment can be published."""
        segment = self._publish_group(prep)
        if not prep.nbytes:  # no segment: size the snapshot once here
            prep.nbytes = pack_snapshot(prep.snapshot).nbytes
        if segment is None:
            self.sched.bytes_shipped += prep.nbytes
            return _CellTask(cell=cell, snapshot=prep.snapshot)
        self.sched.bytes_saved += prep.nbytes
        return _CellTask(cell=cell, segment=segment)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self,
        cells: Sequence[CampaignCell],
        status: Callable[[str], None] | None = None,
        progress: Callable[[CellOutcome, int, int], None] | None = None,
    ) -> list[CellOutcome]:
        """Run every cell; outcomes come back in the order given.

        Cells are handled group by group — (profile, capacity), in input
        order: the parent prepares the group's enforced state, serves
        its cache hits, then runs its misses inline (``jobs == 1``, or a
        single cell) or submits them to a process pool created on the
        first such miss.  A group's misses are submitted before the next
        group is prepared, so enforcement overlaps pooled cells.

        ``progress`` fires once per cell *as it lands* — cache hits and
        inline cells as they are served, pooled cells in completion
        order, so one slow cell cannot block reporting of the others.
        The returned list always follows the input order regardless.
        """
        report = status or (lambda message: None)
        registry = obs_metrics.current()
        tracer = obs_tracing.current()
        total = len(cells)
        inline = self.jobs == 1 or total <= 1
        done = 0
        outcomes: list[CellOutcome | None] = [None] * total
        groups: dict[tuple, list] = {}
        for index, cell in enumerate(cells):
            groups.setdefault((cell.profile, cell.capacity), []).append((index, cell))

        def land(index: int, outcome: CellOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            if progress is not None:
                progress(outcome, done, total)

        def finish(index: int, cell: CampaignCell, key: str | None, envelope: dict):
            if self.cache is not None:
                self.cache.put(
                    key,
                    cell,
                    envelope["payload"],
                    metrics=envelope["metrics"],
                    wall_usec=envelope["wall_usec"],
                )
            if registry is not None:
                registry.histogram("core.executor.cell_wall_usec").observe(
                    envelope["wall_usec"]
                )
            land(
                index,
                CellOutcome(
                    cell=cell,
                    payload=envelope["payload"],
                    metrics=envelope["metrics"],
                    wall_usec=envelope["wall_usec"],
                ),
            )

        def misses(prep: _PreparedGroup, members: list) -> list:
            """Serve the group's cache hits; the rest as (index, cell, key)."""
            if self.cache is None:
                return [(index, cell, None) for index, cell in members]
            pending = []
            for index, cell in members:
                digest = self.cache.spec_digest(cell, prep.capacity)
                key = self.cache.key(cell, prep.fingerprint, digest, prep.model)
                entry = self.cache.get_entry(
                    key,
                    cell,
                    require_traces=self.keep_traces,
                    require_attribution=self.attribution,
                )
                if entry is None:
                    pending.append((index, cell, key))
                    continue
                if registry is not None:
                    registry.counter("core.executor.cells_cached").inc()
                land(
                    index,
                    CellOutcome(
                        cell=cell,
                        payload=entry["payload"],
                        cached=True,
                        metrics=entry.get("metrics"),
                    ),
                )
            return pending

        sched_before = dataclasses.replace(self.sched)
        observe = Observe(
            metrics=registry is not None,
            tracing=tracer is not None,
            traces=self.keep_traces,
            attribution=self.attribution,
        )
        futures: dict = {}
        with ExitStack() as stack, obs_tracing.span(
            "campaign", cat="executor", cells=total
        ):
            pool = None
            for group, members in groups.items():
                prep = self._prepared_group(members[0][1], report)
                pending = misses(prep, members)
                if not pending:
                    continue
                report(
                    f"running {len(pending)} cell(s) for {group[0]} "
                    f"with jobs={self.jobs}"
                )
                for index, cell, key in pending:
                    if inline:
                        envelope = _run_cell_body(
                            cell,
                            prep.snapshot,
                            keep_traces=self.keep_traces,
                            attribution=self.attribution,
                        )
                        finish(index, cell, key, envelope)
                        continue
                    if pool is None:
                        pool = stack.enter_context(
                            ProcessPoolExecutor(
                                max_workers=min(self.jobs, total),
                                mp_context=_pool_context(),
                            )
                        )
                    task = self._cell_task(cell, prep)
                    future = pool.submit(_execute_cell_fast, task, observe)
                    futures[future] = (index, cell, key)
            for future in as_completed(futures):
                index, cell, key = futures[future]
                envelope = future.result()
                if tracer is not None and envelope["spans"]:
                    tracer.absorb(envelope["spans"])
                if registry is not None and envelope["registry"] is not None:
                    registry.absorb(envelope["registry"])
                if envelope["warm"]:
                    self.sched.warm_hits += 1
                else:
                    self.sched.cold_builds += 1
                finish(index, cell, key, envelope)
            if registry is not None:
                registry.counter("core.executor.cells_total").inc(total)
                for field_name, counter in _SCHED_COUNTERS.items():
                    delta = getattr(self.sched, field_name) - getattr(
                        sched_before, field_name
                    )
                    if delta:
                        registry.counter(counter).inc(delta)
        return [outcome for outcome in outcomes if outcome is not None]

    # ------------------------------------------------------------------
    # resource management
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release campaign resources: unlink every shared-memory
        snapshot segment this executor published.

        Idempotent; the executor stays usable: prepared groups keep
        their snapshots, and a later ``execute`` re-publishes what it
        needs.
        """
        if self._store is not None:
            self._store.close()
            self._store = None

    def __enter__(self) -> "CampaignExecutor":
        """Context-manager support: segments are released on exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Release shared-memory segments when the ``with`` block ends."""
        self.close()


def results_by_experiment(outcomes: Sequence[CellOutcome]) -> dict[str, ExperimentResult]:
    """Assemble executor outcomes into a campaign's results mapping."""
    return {outcome.cell.experiment: outcome.result() for outcome in outcomes}


def merge_outcome_metrics(outcomes: Sequence[CellOutcome]) -> dict[str, float]:
    """Campaign-wide metrics: the sum of every cell's counter delta.

    Cells without metrics (observability was off when they ran and when
    they were cached) contribute nothing.
    """
    from repro.obs.metrics import merge_counts

    return merge_counts(*(outcome.metrics for outcome in outcomes))


__all__ = [
    "CampaignCell",
    "CampaignExecutor",
    "CellOutcome",
    "Observe",
    "RunCache",
    "SchedulerStats",
    "merge_outcome_metrics",
    "model_digest",
    "plan_cells",
    "results_by_experiment",
]
