"""Campaign-level latency attribution: ground truth behind the curves.

uFLIP infers FTL mechanics from black-box response-time shapes; a
device with attribution on (:mod:`repro.flashsim.recorder`) records the
ground truth per IO in its traces' ``attr_*`` columns.  This module aggregates those per-IO decompositions over
a campaign's cells into:

* an **attribution table** — per (profile, experiment) component shares
  of device time, rendered with the standard report table;
* **observations** — derived statements of the paper's findings from
  ground truth instead of curve shape (e.g. *random-write cost is 97%
  merge copies*), worded against the Table 3 tier split that
  :mod:`repro.analysis.classify` applies to the measured curves;
* **device-time lanes** for the Chrome trace export — one synthetic
  lane per device channel, each cell's IOs drawn inside the wall-clock
  interval of the cell span that produced them, with reclamation work
  (GC/merge/wear/cache) as nested slices.

Everything here consumes executor outcomes whose payloads carry
attributed traces (campaign ``--attribution``); cells without
attribution are skipped silently, so the report composes with cache
hits from older, unattributed entries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.report import format_table
from repro.flashsim.recorder import COMPONENTS

#: synthetic Chrome-trace thread ids for device channels, far above any
#: plausible OS pid so they can never collide with a worker lane
DEVICE_LANE_BASE = 1 << 22

#: components that represent FTL-internal (non-host) work
INTERNAL_COMPONENTS = ("gc", "merge", "wear", "cache")

_ATTR_KEYS = tuple(f"attr_{name}_usec" for name in COMPONENTS)


def _iter_attributed_traces(outcome) -> Iterable[dict]:
    """The attributed trace payloads inside one executor outcome."""
    for row in outcome.payload.get("rows", ()):
        for trace_payload in row.get("traces", ()):
            if "attribution" in trace_payload:
                yield trace_payload


def outcome_component_totals(outcome) -> dict[str, int]:
    """Total integer µs per component across one cell's attributed IOs.

    Returns an empty dict when the outcome carries no attribution (the
    cell ran without attribution, e.g. an old cache entry).
    """
    totals = dict.fromkeys(COMPONENTS, 0)
    ios = 0
    for trace_payload in _iter_attributed_traces(outcome):
        attribution = trace_payload["attribution"]
        for name, key in zip(COMPONENTS, _ATTR_KEYS):
            totals[name] += sum(attribution[key])
        ios += len(attribution["channel"])
    if not ios:
        return {}
    totals["ios"] = ios
    return totals


def _share(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    -"


def attribution_table(outcomes: Sequence) -> str:
    """Per-cell component shares of device time, as a report table.

    One row per attributed cell plus a campaign-total row.  Shares are
    of the summed response time (which the components partition
    exactly); ``other`` folds controller, transfer, interference and
    noise together.
    """
    shown = ("wait", "read", "program", "gc", "merge", "wear", "cache")
    headers = ("profile", "experiment", "ios", "total ms") + shown + ("other",)
    rows = []
    grand = dict.fromkeys(COMPONENTS, 0)
    grand_ios = 0
    for outcome in outcomes:
        totals = outcome_component_totals(outcome)
        if not totals:
            continue
        ios = totals.pop("ios")
        whole = sum(totals.values())
        other = whole - sum(totals[name] for name in shown)
        rows.append(
            (
                outcome.cell.profile,
                outcome.cell.experiment,
                str(ios),
                f"{whole / 1000:.2f}",
                *(_share(totals[name], whole) for name in shown),
                _share(other, whole),
            )
        )
        for name in COMPONENTS:
            grand[name] += totals[name]
        grand_ios += ios
    if not rows:
        return "no attributed cells (run with --attribution)"
    whole = sum(grand.values())
    other = whole - sum(grand[name] for name in shown)
    rows.append(
        (
            "TOTAL",
            "",
            str(grand_ios),
            f"{whole / 1000:.2f}",
            *(_share(grand[name], whole) for name in shown),
            _share(other, whole),
        )
    )
    return format_table(headers, rows)


def attribution_observations(outcomes: Sequence) -> list[str]:
    """Ground-truth statements of the paper's observations, per profile.

    Where :func:`repro.analysis.classify.classify` infers a device tier
    from response-time *ratios* (random vs sequential writes), these
    lines state the *cause* directly from the recorded decomposition:
    the share of device time spent on FTL-internal reclamation, and the
    cell where it peaks.  A reclamation-dominated profile corroborates
    a low-end/mid-range classification; a profile whose internal share
    is negligible corroborates high-end.
    """
    by_profile: dict[str, list] = {}
    for outcome in outcomes:
        totals = outcome_component_totals(outcome)
        if totals:
            totals.pop("ios")
            by_profile.setdefault(outcome.cell.profile, []).append(
                (outcome.cell.experiment, totals)
            )
    lines = []
    for profile in sorted(by_profile):
        cells = by_profile[profile]
        whole = sum(sum(t.values()) for _, t in cells)
        internal = sum(
            sum(t[name] for name in INTERNAL_COMPONENTS) for _, t in cells
        )
        if not whole:
            continue
        internal_pct = 100.0 * internal / whole

        def cell_internal_share(item) -> float:
            _, totals = item
            cell_whole = sum(totals.values())
            if not cell_whole:
                return 0.0
            return sum(totals[name] for name in INTERNAL_COMPONENTS) / cell_whole

        peak_experiment, peak_totals = max(cells, key=cell_internal_share)
        peak_whole = sum(peak_totals.values())
        peak_name, peak_usec = max(
            ((name, peak_totals[name]) for name in INTERNAL_COMPONENTS),
            key=lambda pair: pair[1],
        )
        lines.append(
            f"{profile}: {internal_pct:.0f}% of device time is FTL-internal "
            f"work (gc/merge/wear/cache); peak cell {peak_experiment} is "
            f"{_share(peak_usec, peak_whole).strip()} {peak_name}"
        )
        if internal_pct >= 50.0:
            lines.append(
                f"  -> reclamation-dominated: corroborates a low-end "
                f"classification (classify's rw_penalty >= 50 regime)"
            )
        elif internal_pct <= 10.0:
            lines.append(
                f"  -> internal work negligible: corroborates a high-end "
                f"classification (classify's rw_penalty <= 20 regime)"
            )
    return lines


def render_attribution_report(outcomes: Sequence) -> str:
    """The full campaign-end attribution report (table + observations)."""
    sections = ["per-IO latency attribution (ground truth, exact to the µs)"]
    sections.append(attribution_table(outcomes))
    observations = attribution_observations(outcomes)
    if observations:
        sections.append("")
        sections.extend(observations)
    return "\n".join(sections)


# ----------------------------------------------------------------------
# Chrome-trace device lanes
# ----------------------------------------------------------------------

def _cell_spans(tracer) -> dict[tuple[str, str], object]:
    """Map (profile, experiment) to the recorded ``cell`` span."""
    spans = {}
    for span in tracer.spans:
        if span.name == "cell":
            key = (span.args.get("profile"), span.args.get("experiment"))
            spans[key] = span
    return spans


def inject_device_lanes(tracer, outcomes: Sequence, max_ios_per_cell: int = 5000) -> int:
    """Add simulated device-time lanes to a tracer's Chrome export.

    For every attributed cell that also has a recorded ``cell`` span,
    the cell's IOs are drawn on one synthetic lane per device channel,
    linearly mapped from simulated time onto the span's wall-clock
    interval — so in Perfetto each channel's activity appears nested
    under the cell that produced it, and FTL-internal work (gc, merge,
    wear, cache) shows as slices nested inside the owning IO.  Returns
    the number of events injected; cells whose IO count exceeds
    ``max_ios_per_cell`` are truncated to keep the document loadable.
    """
    spans = _cell_spans(tracer)
    events: list[dict] = []
    channels_seen: set[int] = set()
    for outcome in outcomes:
        span = spans.get((outcome.cell.profile, outcome.cell.experiment))
        if span is None:
            continue
        traces = list(_iter_attributed_traces(outcome))
        if not traces:
            continue
        sim_lo = min(min(t["submitted_at"]) for t in traces if t["submitted_at"])
        sim_hi = max(max(t["completed_at"]) for t in traces if t["completed_at"])
        extent = sim_hi - sim_lo
        scale = span.dur_usec / extent if extent > 0 else 1.0
        budget = max_ios_per_cell
        for trace_payload in traces:
            attribution = trace_payload["attribution"]
            submitted = trace_payload["submitted_at"]
            started = trace_payload["started_at"]
            completed = trace_payload["completed_at"]
            writes = trace_payload["write"]
            lbas = trace_payload["lba"]
            sizes = trace_payload["size"]
            channels = attribution["channel"]
            count = min(len(channels), budget)
            budget -= count
            for i in range(count):
                channel = int(channels[i])
                channels_seen.add(channel)
                tid = DEVICE_LANE_BASE + channel
                ts = span.start_usec + (started[i] - sim_lo) * scale
                dur = max(completed[i] - started[i], 0.0) * scale
                args = {
                    "lba": lbas[i],
                    "size": sizes[i],
                    "experiment": outcome.cell.experiment,
                }
                for name, key in zip(COMPONENTS, _ATTR_KEYS):
                    value = attribution[key][i]
                    if value:
                        args[name] = value
                events.append(
                    {
                        "name": "write" if writes[i] else "read",
                        "cat": "device",
                        "ph": "X",
                        "ts": ts,
                        "dur": dur,
                        "tid": tid,
                        "args": args,
                    }
                )
                # FTL-internal work as slices nested inside the IO
                offset = 0.0
                for name in INTERNAL_COMPONENTS:
                    value = attribution[f"attr_{name}_usec"][i]
                    if not value:
                        continue
                    nested_dur = min(value * scale, dur - offset)
                    if nested_dur <= 0:
                        break
                    events.append(
                        {
                            "name": name,
                            "cat": "device.internal",
                            "ph": "X",
                            "ts": ts + offset,
                            "dur": nested_dur,
                            "tid": tid,
                            "args": {"usec": value},
                        }
                    )
                    offset += nested_dur
            if budget <= 0:
                break
    for channel in channels_seen:
        tracer.add_lane(DEVICE_LANE_BASE + channel, f"device ch{channel}")
    tracer.add_events(events)
    return len(events)


__all__ = [
    "DEVICE_LANE_BASE",
    "INTERNAL_COMPONENTS",
    "attribution_observations",
    "attribution_table",
    "inject_device_lanes",
    "outcome_component_totals",
    "render_attribution_report",
]
