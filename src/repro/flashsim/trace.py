"""Per-IO trace recording, column-backed.

The paper's design principle 1 (Section 3.2): *for each run, we measure
and record the response time for individual IOs*.  :class:`IOTrace` is
that record — one row per IO with its four defining attributes, the
measured response time, the physical work performed and, on attributed
runs, the IO's latency decomposition — plus CSV round-tripping so
results can be archived and re-analysed (the authors published tens of
millions of data points this way).

Storage is columnar: one preallocated numpy array per field (geometric
growth), with cost notes in a sparse ``{row: [note, ...]}`` dict since
notes are rare.  The hot path writes scalars straight into the arrays
(:meth:`IOTrace.record`); analysis reads whole columns
(:meth:`IOTrace.response_times` returns a cached ndarray).  ``trace[i]``
and iteration build :class:`~repro.iotypes.CompletedIO` views on
demand, and a row view's ``cost.notes`` list is shared with the trace
so ``trace[i].cost.note(...)`` persists.  Traces cross process and
cache boundaries as :meth:`IOTrace.to_payload` JSON.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.flashsim.timing import CostAccumulator
from repro.iotypes import CompletedIO, IORequest, Mode

_FIELDS = (
    "index",
    "mode",
    "lba",
    "size",
    "submitted_at",
    "started_at",
    "completed_at",
    "response_usec",
    "page_reads",
    "page_programs",
    "copy_reads",
    "copy_programs",
    "block_erases",
    "notes",
)

#: column name -> dtype, in payload order
_COLUMNS = (
    ("index", np.int64),
    ("lba", np.int64),
    ("size", np.int64),
    ("write", np.bool_),
    ("scheduled_at", np.float64),
    ("submitted_at", np.float64),
    ("started_at", np.float64),
    ("completed_at", np.float64),
    ("page_reads", np.int64),
    ("page_programs", np.int64),
    ("copy_reads", np.int64),
    ("copy_programs", np.int64),
    ("block_erases", np.int64),
    ("bytes_transferred", np.int64),
    ("map_misses", np.int64),
    ("extra_usec", np.float64),
)

_INT_COLUMNS = frozenset(
    name for name, dtype in _COLUMNS if dtype is np.int64
)

#: lazily-allocated attribution columns (attributed runs only), in
#: :data:`repro.flashsim.recorder.COMPONENTS` order after ``channel``.
#: Integer microseconds; the ``attr_*`` columns sum to the rounded
#: response time of every row — the attribution's exactness invariant.
ATTRIBUTION_COLUMNS = (
    "channel",
    "attr_wait_usec",
    "attr_controller_usec",
    "attr_transfer_usec",
    "attr_read_usec",
    "attr_program_usec",
    "attr_gc_usec",
    "attr_merge_usec",
    "attr_wear_usec",
    "attr_cache_usec",
    "attr_interference_usec",
    "attr_noise_usec",
)

_ATTR_INDEX = {name: i for i, name in enumerate(ATTRIBUTION_COLUMNS)}


def _escape_notes(notes: Iterable[str]) -> str:
    r"""Join cost notes into one CSV field, ``;``-separated.

    ``\`` and ``;`` inside a note are backslash-escaped so a note
    containing the separator round-trips."""
    return ";".join(
        note.replace("\\", "\\\\").replace(";", "\\;") for note in notes
    )


def _split_notes(joined: str) -> tuple[str, ...]:
    """Inverse of :func:`_escape_notes` (backslash-aware split)."""
    if not joined:
        return ()
    notes: list[str] = []
    current: list[str] = []
    i = 0
    n = len(joined)
    while i < n:
        char = joined[i]
        if char == "\\" and i + 1 < n:
            current.append(joined[i + 1])
            i += 2
        elif char == ";":
            notes.append("".join(current))
            current = []
            i += 1
        else:
            current.append(char)
            i += 1
    notes.append("".join(current))
    return tuple(notes)


def _quote_csv_field(field: str) -> str:
    """Minimal CSV quoting, byte-compatible with ``csv.writer``."""
    if any(ch in field for ch in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


class IOTrace:
    """An append-only, column-backed sequence of completed IOs."""

    _MIN_CAPACITY = 64

    def __init__(self, capacity: int = 0) -> None:
        self._n = 0
        self._notes: dict[int, list[str]] = {}
        self._response_cache: np.ndarray | None = None
        #: (capacity, len(ATTRIBUTION_COLUMNS)) int64 matrix, allocated
        #: on the first attributed record — plain runs never pay for it
        self._attr: np.ndarray | None = None
        self._allocate(max(int(capacity), 0))

    def _allocate(self, capacity: int) -> None:
        for name, dtype in _COLUMNS:
            setattr(self, "_" + name, np.zeros(capacity, dtype=dtype))
        self._capacity = capacity

    def _grow(self, needed: int) -> None:
        capacity = max(self._capacity * 2, needed, self._MIN_CAPACITY)
        if self._capacity == 0:
            self._allocate(capacity)
            return
        for name, dtype in _COLUMNS:
            old = getattr(self, "_" + name)
            grown = np.zeros(capacity, dtype=dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, "_" + name, grown)
        if self._attr is not None:
            grown_attr = np.zeros(
                (capacity, len(ATTRIBUTION_COLUMNS)), dtype=np.int64
            )
            grown_attr[: self._n] = self._attr[: self._n]
            self._attr = grown_attr
        self._capacity = capacity

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(
        self,
        row: int,
        lba: int,
        size: int,
        write: bool,
        scheduled_at: float,
        submitted_at: float,
        started_at: float,
        completed_at: float,
        cost: CostAccumulator,
    ) -> None:
        """Record one completed IO as scalars at ``row`` (the hot path).

        ``row`` is the IO's submission index, which is also its
        ``index`` column.  The synchronous hosts write rows in order;
        the async host's completions arrive out of submission order, and
        writing each at its own row keeps the trace in submission order
        regardless of the completion interleaving.  The trace grows to
        cover ``row``.  Each row must be non-negative and recorded
        exactly once (columns are zero-initialised, not cleared on
        re-record).

        ``cost`` counters are copied into the columns; its ``notes``
        list (when non-empty) is stored *by reference*, so later
        ``cost.note(...)`` calls remain visible through row views.
        """
        if row >= self._capacity:
            self._grow(row + 1)
        self._index[row] = row
        self._lba[row] = lba
        self._size[row] = size
        if write:
            self._write[row] = True
        self._scheduled_at[row] = scheduled_at
        self._submitted_at[row] = submitted_at
        self._started_at[row] = started_at
        self._completed_at[row] = completed_at
        # cost columns are zero-initialised; only store non-zero tallies
        if cost.page_reads:
            self._page_reads[row] = cost.page_reads
        if cost.page_programs:
            self._page_programs[row] = cost.page_programs
        if cost.copy_reads:
            self._copy_reads[row] = cost.copy_reads
        if cost.copy_programs:
            self._copy_programs[row] = cost.copy_programs
        if cost.block_erases:
            self._block_erases[row] = cost.block_erases
        if cost.bytes_transferred:
            self._bytes_transferred[row] = cost.bytes_transferred
        if cost.map_misses:
            self._map_misses[row] = cost.map_misses
        if cost.extra_usec:
            self._extra_usec[row] = cost.extra_usec
        if cost.notes:
            self._notes[row] = cost.notes
        if cost.attribution is not None:
            if self._attr is None:  # first attributed row: allocate
                self._attr = np.zeros(
                    (self._capacity, len(ATTRIBUTION_COLUMNS)), dtype=np.int64
                )
            self._attr[row] = cost.attribution
        if row >= self._n:
            self._n = row + 1
        self._response_cache = None

    def record_run(
        self,
        row0: int,
        lbas: np.ndarray,
        sizes: np.ndarray,
        write: bool,
        scheduled_at: np.ndarray,
        submitted_at: np.ndarray,
        started_at: np.ndarray,
        completed_at: np.ndarray,
        *,
        page_reads: np.ndarray | None = None,
        page_programs: np.ndarray | None = None,
        copy_reads: np.ndarray | None = None,
        copy_programs: np.ndarray | None = None,
        block_erases: np.ndarray | None = None,
        bytes_transferred: np.ndarray | None = None,
        map_misses: np.ndarray | None = None,
        notes: "dict[int, list[str]] | None" = None,
    ) -> None:
        """Record a contiguous run of same-mode IOs from column arrays.

        The bulk counterpart of :meth:`record` used by the analytic
        run kernels (:mod:`repro.flashsim.analytic`): rows
        ``row0 .. row0+n-1`` are filled in one vectorized store per
        column, with ``index = row``.  Omitted cost columns stay zero;
        GC-epoch windows pass the reclamation columns
        (``copy_reads``/``copy_programs``/``block_erases``) and a sparse
        ``notes`` mapping of *relative* row to that IO's provenance notes
        (e.g. ``["gc"]`` per collection), stored exactly as the per-IO
        path would have.  Each row must be recorded exactly once, like
        :meth:`record`.
        """
        n = int(lbas.size)
        if n == 0:
            return
        if row0 < 0:
            raise IndexError("trace row must be non-negative")
        end = row0 + n
        if end > self._capacity:
            self._grow(end)
        if end > self._n:
            self._n = end
        rows = slice(row0, end)
        self._index[rows] = np.arange(row0, end, dtype=np.int64)
        self._lba[rows] = lbas
        self._size[rows] = sizes
        self._write[rows] = write
        self._scheduled_at[rows] = scheduled_at
        self._submitted_at[rows] = submitted_at
        self._started_at[rows] = started_at
        self._completed_at[rows] = completed_at
        if page_reads is not None:
            self._page_reads[rows] = page_reads
        if page_programs is not None:
            self._page_programs[rows] = page_programs
        if copy_reads is not None:
            self._copy_reads[rows] = copy_reads
        if copy_programs is not None:
            self._copy_programs[rows] = copy_programs
        if block_erases is not None:
            self._block_erases[rows] = block_erases
        if bytes_transferred is not None:
            self._bytes_transferred[rows] = bytes_transferred
        if map_misses is not None:
            self._map_misses[rows] = map_misses
        if notes:
            for rel, row_notes in notes.items():
                if row_notes:
                    self._notes[row0 + rel] = row_notes
        self._response_cache = None

    def take(self, rows: np.ndarray, submitted_at: np.ndarray) -> "IOTrace":
        """A new trace of this one's ``rows``, in that order and
        renumbered from 0, each scheduled and submitted at its
        ``submitted_at``; every other column and the notes carry over.

        :class:`~repro.flashsim.host.ParallelHost` splits a merged run
        back per process with it.
        """
        n = int(rows.size)
        trace = IOTrace()
        for name, _dtype in _COLUMNS:
            setattr(trace, "_" + name, getattr(self, "_" + name)[rows])
        trace._index = np.arange(n, dtype=np.int64)
        trace._scheduled_at = np.array(submitted_at, dtype=np.float64)
        trace._submitted_at = np.array(submitted_at, dtype=np.float64)
        trace._capacity = trace._n = n
        if self._notes:
            notes = self._notes
            trace._notes = {
                new: notes[old]
                for new, old in enumerate(rows.tolist())
                if notes.get(old)
            }
        if self._attr is not None:
            trace._attr = self._attr[rows]
        return trace

    def append(self, completed: CompletedIO) -> None:
        """Record one :class:`~repro.iotypes.CompletedIO` (what
        :meth:`~repro.flashsim.device.FlashDevice.submit` returns) as the
        next row."""
        request = completed.request
        self.record(
            self._n,
            request.lba,
            request.size,
            request.mode is Mode.WRITE,
            request.scheduled_at,
            completed.submitted_at,
            completed.started_at,
            completed.completed_at,
            completed.cost,
        )

    # ------------------------------------------------------------------
    # row views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def _row(self, i: int) -> CompletedIO:
        # the notes list is shared with the trace, so mutations through
        # the view (trace[i].cost.note(...)) persist across accesses
        cost = CostAccumulator(
            page_reads=int(self._page_reads[i]),
            page_programs=int(self._page_programs[i]),
            copy_reads=int(self._copy_reads[i]),
            copy_programs=int(self._copy_programs[i]),
            block_erases=int(self._block_erases[i]),
            bytes_transferred=int(self._bytes_transferred[i]),
            map_misses=int(self._map_misses[i]),
            extra_usec=float(self._extra_usec[i]),
            notes=self._notes.setdefault(i, []),
        )
        request = IORequest(
            index=int(self._index[i]),
            lba=int(self._lba[i]),
            size=int(self._size[i]),
            mode=Mode.WRITE if self._write[i] else Mode.READ,
            scheduled_at=float(self._scheduled_at[i]),
        )
        return CompletedIO(
            request=request,
            submitted_at=float(self._submitted_at[i]),
            started_at=float(self._started_at[i]),
            completed_at=float(self._completed_at[i]),
            cost=cost,
        )

    def __getitem__(self, item: int | slice) -> CompletedIO | list[CompletedIO]:
        if isinstance(item, slice):
            return [self._row(i) for i in range(*item.indices(self._n))]
        i = item
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("trace index out of range")
        return self._row(i)

    def __iter__(self) -> Iterator[CompletedIO]:
        for i in range(self._n):
            yield self._row(i)

    def response_times(self) -> np.ndarray:
        """Response times in microseconds, in submission order.

        Returns a cached read-only float64 ndarray (invalidated on
        append); index it directly instead of copying to a list.
        """
        if self._response_cache is None:
            cache = (
                self._completed_at[: self._n] - self._submitted_at[: self._n]
            )
            cache.flags.writeable = False
            self._response_cache = cache
        return self._response_cache

    def column(self, name: str) -> np.ndarray:
        """A read-only view of one raw column (length == len(self)).

        Column names are the :data:`_COLUMNS` entries, e.g. ``"lba"``,
        ``"completed_at"``, ``"write"`` (the mode as a bool), plus —
        on attributed traces — the :data:`ATTRIBUTION_COLUMNS`.
        """
        if name in _ATTR_INDEX:
            return self.attribution_column(name)
        arr = getattr(self, "_" + name)[: self._n]
        view = arr.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # attribution columns (attributed runs)
    # ------------------------------------------------------------------

    @property
    def has_attribution(self) -> bool:
        """Whether this trace carries per-IO latency attribution."""
        return self._attr is not None

    def attribution_matrix(self) -> np.ndarray:
        """Read-only ``(len(self), len(ATTRIBUTION_COLUMNS))`` int64
        matrix of the per-IO decomposition (column order is
        :data:`ATTRIBUTION_COLUMNS`).  Raises when the trace was
        recorded without attribution.
        """
        if self._attr is None:
            raise ValueError("trace carries no attribution columns")
        view = self._attr[: self._n].view()
        view.flags.writeable = False
        return view

    def attribution_column(self, name: str) -> np.ndarray:
        """One attribution column by name (read-only int64 view)."""
        return self.attribution_matrix()[:, _ATTR_INDEX[name]]

    def attribution_balance(self) -> np.ndarray:
        """Per-row residual: component sum − rounded response time.

        The attribution's invariant is that this is all-zero for
        every attributed trace; the attribution test suite pins it
        across all execution pipelines.
        """
        matrix = self.attribution_matrix()
        components = matrix[:, 1:].sum(axis=1)  # skip the channel column
        target = np.rint(self.response_times()).astype(np.int64)
        return components - target

    # ------------------------------------------------------------------
    # CSV round-trip
    # ------------------------------------------------------------------

    def to_csv(self, path: str | Path | None = None) -> str:
        """Serialise to CSV; write to ``path`` when given.

        Columns are formatted vectorised (whole-column number
        formatting, one join per row); the output is byte-identical to
        a row-by-row ``csv.writer`` for traces whose notes contain no
        CSV- or separator-special characters.
        """
        n = self._n
        lines = [",".join(_FIELDS)]
        if n:
            int_cols = [
                [str(v) for v in self._index[:n].tolist()],
                [str(v) for v in self._lba[:n].tolist()],
                [str(v) for v in self._size[:n].tolist()],
            ]
            modes = [
                "write" if w else "read" for w in self._write[:n].tolist()
            ]
            submitted = self._submitted_at[:n]
            completed = self._completed_at[:n]
            float_cols = [
                ["%.3f" % v for v in submitted.tolist()],
                ["%.3f" % v for v in self._started_at[:n].tolist()],
                ["%.3f" % v for v in completed.tolist()],
                ["%.3f" % v for v in (completed - submitted).tolist()],
            ]
            cost_cols = [
                [str(v) for v in self._page_reads[:n].tolist()],
                [str(v) for v in self._page_programs[:n].tolist()],
                [str(v) for v in self._copy_reads[:n].tolist()],
                [str(v) for v in self._copy_programs[:n].tolist()],
                [str(v) for v in self._block_erases[:n].tolist()],
            ]
            notes = [""] * n
            for row, tags in self._notes.items():
                if tags and row < n:
                    notes[row] = _quote_csv_field(_escape_notes(tags))
            for row_fields in zip(
                int_cols[0],
                modes,
                int_cols[1],
                int_cols[2],
                *float_cols,
                *cost_cols,
                notes,
            ):
                lines.append(",".join(row_fields))
        text = "\n".join(lines) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_csv(cls, text: str) -> "IOTrace":
        """Rebuild a columnar trace from :meth:`to_csv` output.

        The CSV schema is the archival one: it carries neither the
        scheduled time nor the transfer/map-miss/extra cost fields, so
        those columns come back as ``scheduled_at = submitted_at`` and
        zeros respectively.
        """
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != list(_FIELDS):
            raise ValueError("not an IOTrace CSV (unexpected header)")
        records = [row for row in reader if row]
        trace = cls(capacity=len(records))
        n = len(records)
        if not n:
            return trace
        columns = list(zip(*records))
        trace._index[:n] = np.array([int(v) for v in columns[0]], np.int64)
        trace._write[:n] = np.array(
            [v == "write" for v in columns[1]], np.bool_
        )
        trace._lba[:n] = np.array([int(v) for v in columns[2]], np.int64)
        trace._size[:n] = np.array([int(v) for v in columns[3]], np.int64)
        submitted = np.array([float(v) for v in columns[4]], np.float64)
        trace._submitted_at[:n] = submitted
        trace._scheduled_at[:n] = submitted
        trace._started_at[:n] = np.array(
            [float(v) for v in columns[5]], np.float64
        )
        trace._completed_at[:n] = np.array(
            [float(v) for v in columns[6]], np.float64
        )
        for position, name in enumerate(
            ("page_reads", "page_programs", "copy_reads",
             "copy_programs", "block_erases"),
            start=8,
        ):
            getattr(trace, "_" + name)[:n] = np.array(
                [int(v) for v in columns[position]], np.int64
            )
        for row, joined in enumerate(columns[13]):
            if joined:
                trace._notes[row] = list(_split_notes(joined))
        trace._n = n
        return trace

    # ------------------------------------------------------------------
    # columnar interchange (JSON payloads)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-safe columnar form: ``{column: [values...], notes: ...}``.

        Used by campaign archives and the run cache; ~10x smaller than a
        per-row object dump and rebuilt without per-IO Python work.
        """
        n = self._n
        payload: dict = {
            name: getattr(self, "_" + name)[:n].tolist()
            for name, _ in _COLUMNS
        }
        notes = {
            str(row): list(tags)
            for row, tags in self._notes.items()
            if tags and row < n
        }
        if notes:
            payload["notes"] = notes
        if self._attr is not None:
            payload["attribution"] = {
                name: self._attr[:n, i].tolist()
                for i, name in enumerate(ATTRIBUTION_COLUMNS)
            }
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "IOTrace":
        """Rebuild a trace from :meth:`to_payload` output.

        Payloads of unattributed runs carry no ``attribution`` key and
        load as unattributed traces.
        """
        n = len(payload["index"])
        trace = cls(capacity=n)
        for name, dtype in _COLUMNS:
            getattr(trace, "_" + name)[:n] = np.asarray(
                payload[name], dtype=dtype
            )
        for row, tags in payload.get("notes", {}).items():
            trace._notes[int(row)] = list(tags)
        attribution = payload.get("attribution")
        if attribution is not None:
            trace._attr = np.zeros(
                (max(n, trace._capacity), len(ATTRIBUTION_COLUMNS)),
                dtype=np.int64,
            )
            for i, name in enumerate(ATTRIBUTION_COLUMNS):
                trace._attr[:n, i] = np.asarray(
                    attribution[name], dtype=np.int64
                )
        trace._n = n
        return trace
