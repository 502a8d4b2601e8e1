"""Per-IO latency attribution.

uFLIP *infers* FTL mechanics — startup phases, merge costs, pause
absorption — from black-box response-time curves (Sections 3-5).  The
simulator knows the ground truth; this module keeps it.

While a :class:`~repro.flashsim.device.FlashDevice` has its
``attribution`` switch on, every dispatched IO is decomposed into named
latency components, stamped on the IO's cost accumulator and kept by
the trace as its ``attr_*`` columns
(:data:`~repro.flashsim.trace.ATTRIBUTION_COLUMNS`):

========================  ============================================
``wait``                  queue wait (start − submission): device or
                          channel contention
``controller``            fixed controller overhead + map-miss
                          penalties + miscellaneous extra charges
``transfer``              bus transfer of the host payload
``read``                  chip page reads serving host data
``program``               chip page programs serving host data
``gc``                    garbage-collection relocation (victim copies
                          + erases), plus any unscoped internal copies
``merge``                 log-block management: switch/partial/full
                          merges, replacement-block finalisation,
                          log reclamation, map flushes
``wear``                  wear-levelling relocations
``cache``                 write-back cache destage/flush work (net of
                          the nested FTL scopes it triggers)
``interference``          read slowdown while background reclamation
                          is pending (Figure 5's lingering effect)
``noise``                 measurement-jitter delta (can be negative)
========================  ============================================

The components are computed in float microseconds mirroring the
device's dispatch arithmetic — their sum differs from the recorded
response time only by float associativity — and then quantised to
integer microseconds by largest-remainder apportionment against
``round(response)``, so the hard invariant holds exactly:

    ``sum(components) == round(completed_at - submitted_at)``

for every IO, in every pipeline (sync/async, columnar trace or
per-IO ``submit``, scalar/batch).  Provenance comes from the
:meth:`~repro.flashsim.timing.CostAccumulator.begin_scope` ledger the
FTLs, controller and cache populate; work no scope claims falls into
the host-level components, so the invariant is structural — mislabeled
work can never unbalance it.

Attribution is observability, not device state: the switch is excluded
from snapshots and fingerprints, and a device with it on evolves
bit-identically to one with it off.
"""

from __future__ import annotations

import math

from repro.flashsim.timing import CostAccumulator, TimingSpec

#: attribution component names, in column order
COMPONENTS = (
    "wait",
    "controller",
    "transfer",
    "read",
    "program",
    "gc",
    "merge",
    "wear",
    "cache",
    "interference",
    "noise",
)

#: components fed by scope tags (everything else derives from host work)
SCOPE_COMPONENTS = frozenset(("gc", "merge", "wear", "cache"))

_COMPONENT_INDEX = {name: i for i, name in enumerate(COMPONENTS)}

# counter vector layout used by the partition walk
_COUNTERS = (
    "page_reads",
    "page_programs",
    "copy_reads",
    "copy_programs",
    "block_erases",
    "bytes_transferred",
    "map_misses",
    "extra_usec",
)


def _counter_vector(cost: CostAccumulator) -> list[float]:
    return [
        cost.page_reads,
        cost.page_programs,
        cost.copy_reads,
        cost.copy_programs,
        cost.block_erases,
        cost.bytes_transferred,
        cost.map_misses,
        cost.extra_usec,
    ]


def _partition(cost: CostAccumulator) -> tuple[list[float], dict[str, list[float]]]:
    """Split ``cost``'s counters into host-exclusive + per-tag scoped.

    A scope's counters include everything its nested scopes tallied
    (``end_scope`` folds children in), so each node's *exclusive* share
    is its vector minus its direct children's totals — every physical
    count is attributed exactly once.  Unknown tags conservatively land
    in ``gc`` rather than breaking the balance.
    """
    by_tag: dict[str, list[float]] = {
        name: [0.0] * len(_COUNTERS) for name in SCOPE_COMPONENTS
    }

    def walk(node: CostAccumulator) -> list[float]:
        exclusive = _counter_vector(node)
        for tag, sub in node.scopes or ():
            sub_total = _counter_vector(sub)
            sub_exclusive = walk(sub)
            bucket = by_tag[tag if tag in SCOPE_COMPONENTS else "gc"]
            for i in range(len(_COUNTERS)):
                bucket[i] += sub_exclusive[i]
                exclusive[i] -= sub_total[i]
        return exclusive

    host = walk(cost)
    return host, by_tag


def attribute_io(
    timing: TimingSpec,
    cost: CostAccumulator,
    *,
    wait: float,
    service_base: float,
    service_scaled: float,
    service_final: float,
    response: float,
    channel: int,
) -> tuple[int, ...]:
    """Decompose one IO's response time; returns ``(channel, *usec)``.

    ``service_base`` is the unscaled cost total, ``service_scaled`` the
    value after read interference, ``service_final`` after noise — the
    exact floats the device dispatched with, so the interference and
    noise deltas are reconstruction-free.  The integer components are
    apportioned (largest remainder) against ``round(response)`` and sum
    to it exactly.
    """
    host, by_tag = _partition(cost)
    components = [0.0] * len(COMPONENTS)
    components[_COMPONENT_INDEX["wait"]] = wait
    # host-level split of service_base
    reads, programs, c_reads, c_programs, erases, nbytes, misses, extra = host
    components[_COMPONENT_INDEX["controller"]] = (
        timing.controller_overhead + misses * timing.map_miss + extra
    )
    components[_COMPONENT_INDEX["transfer"]] = timing.transfer(nbytes)
    components[_COMPONENT_INDEX["read"]] = timing.read_pages(reads)
    components[_COMPONENT_INDEX["program"]] = timing.program_pages(programs)
    # unscoped internal copies/erases are reclamation work by definition
    components[_COMPONENT_INDEX["gc"]] = timing.copy_pages(
        c_reads, c_programs
    ) + timing.erase_blocks(erases)
    for tag, vec in by_tag.items():
        components[_COMPONENT_INDEX[tag]] += timing.service_usec(
            *vec, include_overhead=False
        )
    components[_COMPONENT_INDEX["interference"]] = service_scaled - service_base
    components[_COMPONENT_INDEX["noise"]] = service_final - service_scaled
    return (channel, *_apportion(components, round(response)))


def unattributed_usec(
    timing: TimingSpec,
    cost: CostAccumulator,
    *,
    wait: float,
    service_base: float,
    service_scaled: float,
    service_final: float,
    response: float,
) -> float:
    """Float residual of the decomposition before quantisation.

    The true exactness oracle: anything beyond float associativity here
    means a cost path escaped the component model.  Exposed for the
    attribution test suite; ~0 (sub-nanosecond) by construction.
    """
    host, by_tag = _partition(cost)
    total = (
        wait
        + timing.service_usec(*host, include_overhead=False)
        + timing.controller_overhead
    )
    for vec in by_tag.values():
        total += timing.service_usec(*vec, include_overhead=False)
    total += (service_scaled - service_base) + (service_final - service_scaled)
    return response - total


def _apportion(components: list[float], target: int) -> tuple[int, ...]:
    """Integer µs per component, summing exactly to ``target``.

    Largest-remainder: floor everything, then hand the deficit out one
    µs at a time to the largest fractional remainders (ties to the
    lower component index, so the result is deterministic).  Negative
    components (the noise delta) floor like any other.  A deficit
    outside ``[0, n]`` — impossible unless a float residual exceeds the
    component count — is dumped on the largest-magnitude component so
    the invariant still holds.
    """
    floors = [math.floor(c) for c in components]
    deficit = target - sum(floors)
    n = len(components)
    if 0 <= deficit <= n:
        order = sorted(
            range(n), key=lambda i: (floors[i] - components[i], i)
        )
        for i in order[:deficit]:
            floors[i] += 1
    else:  # pragma: no cover - defensive only
        bulk = max(range(n), key=lambda i: abs(components[i]))
        floors[bulk] += deficit
    return tuple(floors)


__all__ = [
    "COMPONENTS",
    "SCOPE_COMPONENTS",
    "attribute_io",
    "unattributed_usec",
]
