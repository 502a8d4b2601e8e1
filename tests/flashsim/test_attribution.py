"""Latency attribution's exactness invariant, in every pipeline.

The decomposition's contract (``repro.flashsim.recorder``) is that the
integer components of every IO sum *exactly* to the rounded response
time — not approximately, not on average.  This suite pins that across
the same equivalence axes the performance suites use: all four FTL
families, calibrated profiles (with measurement noise), the write-back
cache, sync vs queued hosts at depth 1, engine recording vs a per-IO
submit loop, and the fast paths vs the ``NoFaults`` oracle twin — plus
the float-residual oracle, the apportionment edge cases, trace
round-trips and attribution's pure-observability guarantee (a device
with attribution on must evolve bit-identically to one with it off).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.core.generator import PatternGenerator
from repro.core.patterns import baselines
from repro.flashsim import build_device
from repro.flashsim.host import AsyncHost, SyncHost
from repro.flashsim.recorder import (
    COMPONENTS,
    _apportion,
    attribute_io,
    unattributed_usec,
)
from repro.flashsim.timing import CostAccumulator, TimingSpec
from repro.flashsim.trace import IOTrace
from repro.iotypes import IORequest, Mode
from repro.units import KIB, MIB

from ..conftest import SMALL_GEOMETRY, make_device, oracle_device
from .test_batch_equivalence import _io_mix

FTL_KINDS = ("pagemap", "hybrid", "blockmap", "fast")

#: the internal-work component each FTL family must exercise under the
#: reclamation-heavy conftest IO mix
EXPECTED_INTERNAL = {
    "pagemap": "gc",
    "hybrid": "merge",
    "blockmap": "merge",
    "fast": "merge",
}


def _drive(device, ios):
    """Run ``ios`` one :meth:`FlashDevice.submit` at a time; returns the
    trace of the completed IOs."""
    trace = IOTrace()
    for mode, lba, size in ios:
        if mode == "r":
            trace.append(device.read(lba, size))
        else:
            trace.append(device.write(lba, size))
    return trace


def _component_totals(trace):
    """Total integer µs per component across an attributed trace."""
    totals = trace.attribution_matrix()[:, 1:].sum(axis=0)
    return dict(zip(COMPONENTS, totals.tolist()))


def _assert_trace_balanced(trace):
    assert trace.has_attribution
    balance = trace.attribution_balance()
    assert len(balance) == len(trace)
    assert not balance.any(), f"unbalanced rows: {np.nonzero(balance)[0]}"


# ----------------------------------------------------------------------
# apportionment and the float-residual oracle
# ----------------------------------------------------------------------

def test_apportion_sums_exactly():
    components = [12.4, 0.0, 7.9, 100.6, 0.2, 3.3, 0.0, 0.0, 0.0, 5.5, -1.9]
    target = round(sum(components))
    shares = _apportion(components, target)
    assert sum(shares) == target
    # integer components pass through; fractions round to a neighbour
    for share, value in zip(shares, components):
        assert abs(share - value) < 1.0


def test_apportion_handles_negative_components():
    # a noise delta below zero must floor like everything else
    components = [10.0] * 10 + [-3.7]
    target = round(sum(components))
    shares = _apportion(components, target)
    assert sum(shares) == target
    assert shares[-1] in (-4, -3)


def test_apportion_all_zero():
    assert _apportion([0.0] * len(COMPONENTS), 0) == (0,) * len(COMPONENTS)


def test_apportion_ties_are_deterministic():
    components = [1.5, 1.5, 1.5, 1.5]
    assert _apportion(components, 6) == _apportion(components, 6)
    assert sum(_apportion(components, 6)) == 6


def test_synthetic_decomposition_residual_is_float_noise():
    """The residual oracle: the component model covers every cost path."""
    timing = TimingSpec(map_miss=12.0, copy_page_extra=5.0)
    cost = CostAccumulator()
    cost.scopes = []
    cost.page_reads += 2
    cost.bytes_transferred += 8 * KIB
    cost.map_misses += 1
    cost.extra_usec += 7.25
    sub = cost.begin_scope()
    sub.copy_reads += 4
    sub.copy_programs += 4
    sub.block_erases += 1
    nested = sub.begin_scope()
    nested.copy_reads += 2
    nested.copy_programs += 2
    sub.end_scope("gc", nested)
    cost.end_scope("merge", sub)

    service_base = cost.total(timing)
    service_scaled = service_base * 1.15
    service_final = service_scaled * 0.97
    wait = 12.5
    response = wait + service_final
    residual = unattributed_usec(
        timing, cost, wait=wait, service_base=service_base,
        service_scaled=service_scaled, service_final=service_final,
        response=response,
    )
    assert abs(residual) < 1e-6

    attribution = attribute_io(
        timing, cost, wait=wait, service_base=service_base,
        service_scaled=service_scaled, service_final=service_final,
        response=response, channel=3,
    )
    assert attribution[0] == 3
    assert sum(attribution[1:]) == round(response)
    by_name = dict(zip(COMPONENTS, attribution[1:]))
    assert by_name["merge"] > 0 and by_name["gc"] > 0
    assert by_name["interference"] > 0 and by_name["noise"] < 0


# ----------------------------------------------------------------------
# the invariant across devices and pipelines
# ----------------------------------------------------------------------

@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
def test_ftl_families_balance_exactly(ftl_kind):
    device = make_device(ftl_kind=ftl_kind)
    device.attribution = True
    trace = _drive(device, _io_mix(SMALL_GEOMETRY, seed=11))
    _assert_trace_balanced(trace)
    assert _component_totals(trace)[EXPECTED_INTERNAL[ftl_kind]] > 0


def test_cache_device_attributes_destage_work():
    device = make_device(ftl_kind="hybrid", cache_bytes=64 * KIB)
    device.attribution = True
    trace = _drive(device, _io_mix(SMALL_GEOMETRY, seed=13))
    _assert_trace_balanced(trace)
    assert _component_totals(trace)["cache"] > 0


@pytest.mark.parametrize("profile", ("memoright", "kingston_dti", "mtron"))
def test_profiles_balance_exactly(profile):
    """Calibrated profiles bring interference and noise into play."""
    device = build_device(profile, logical_bytes=4 * MIB)
    device.attribution = True
    _assert_trace_balanced(_drive(device, _io_mix(device.geometry, seed=7)))


@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
@pytest.mark.parametrize("kind", ("SW", "RW"))
def test_sync_async_depth1_attribution_identical(ftl_kind, kind):
    spec = baselines(
        io_size=8 * KIB, io_count=64,
        random_target_size=1 * MIB, sequential_target_size=512 * KIB,
    )[kind]
    sync_device = make_device(ftl_kind=ftl_kind)
    async_device = make_device(ftl_kind=ftl_kind)
    sync_device.attribution = True
    async_device.attribution = True
    sync_trace = SyncHost(sync_device).run_program(
        PatternGenerator(spec).program()
    )
    async_trace = AsyncHost(async_device).run_program(
        PatternGenerator(spec).program(), queue_depth=1
    )
    _assert_trace_balanced(sync_trace)
    _assert_trace_balanced(async_trace)
    assert np.array_equal(
        sync_trace.attribution_matrix(), async_trace.attribution_matrix()
    )


@pytest.mark.parametrize("profile", ("memoright", "kingston_dti"))
def test_engine_attribution_matches_a_per_io_submit_loop(profile):
    """The engine's columnar recording carries the same attribution
    columns as per-IO :meth:`FlashDevice.submit` objects appended to a
    trace."""
    spec = baselines(io_size=16 * KIB, io_count=64)["RW"]
    device = build_device(profile, logical_bytes=4 * MIB)
    device.attribution = True
    columnar = Engine(device).run(spec).trace

    device = build_device(profile, logical_bytes=4 * MIB)
    device.attribution = True
    program = PatternGenerator(spec).program()
    per_io = IOTrace()
    clock = device.busy_until
    for index, (lba, size) in enumerate(
        zip(program.lbas.tolist(), program.sizes.tolist())
    ):
        request = IORequest(index, lba, size, Mode.WRITE, clock)
        completed = device.submit(request, clock)
        per_io.append(completed)
        clock = completed.completed_at

    for trace in (columnar, per_io):
        _assert_trace_balanced(trace)
    assert columnar.to_csv() == per_io.to_csv()
    assert np.array_equal(columnar.attribution_matrix(), per_io.attribution_matrix())


@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
def test_scalar_batch_attribution_identical(ftl_kind):
    scalar = oracle_device({"ftl_kind": ftl_kind})
    batch = make_device(ftl_kind=ftl_kind)
    scalar.attribution = True
    batch.attribution = True
    ios = _io_mix(SMALL_GEOMETRY, seed=11)
    scalar_trace = _drive(scalar, ios)
    batch_trace = _drive(batch, ios)
    _assert_trace_balanced(scalar_trace)
    _assert_trace_balanced(batch_trace)
    assert np.array_equal(
        scalar_trace.attribution_matrix(), batch_trace.attribution_matrix()
    )


def test_queued_contention_attributes_wait():
    """Channel contention adds wait; the invariant must absorb it.

    The queued hosts pace submissions so steady-state IOs rarely wait;
    filling the NCQ queue in one burst (more IOs than channels, all
    submitted at t=0) forces later IOs onto still-busy channels.
    """
    device = build_device("memoright", logical_bytes=4 * MIB)
    device.attribution = True
    size = 16 * KIB
    assert device.queue_depth > device.timing.channels
    for tag in range(device.queue_depth):
        device.submit_async(tag * size, size, False, now=0.0, tag=tag)
    completions = [
        device.pop_next_completion() for _ in range(device.queue_depth)
    ]
    wait = 0
    for entry in completions:
        components = entry.cost.attribution[1:]
        assert sum(components) == round(entry.completed_at - entry.submitted_at)
        wait += components[COMPONENTS.index("wait")]
    assert wait > 0


# ----------------------------------------------------------------------
# pure observability: attribution must not perturb the simulation
# ----------------------------------------------------------------------

def test_recorder_does_not_perturb_the_device():
    plain = make_device(ftl_kind="hybrid")
    observed = make_device(ftl_kind="hybrid")
    observed.attribution = True
    ios = _io_mix(SMALL_GEOMETRY, seed=19)
    plain_trace = _drive(plain, ios)
    observed_trace = _drive(observed, ios)
    assert plain_trace.to_csv() == observed_trace.to_csv()
    assert plain.fingerprint() == observed.fingerprint()
    assert plain.metrics() == observed.metrics()
    assert plain.stats == observed.stats


def test_recorder_excluded_from_snapshots():
    device = make_device(ftl_kind="pagemap")
    device.attribution = True
    ios = _io_mix(SMALL_GEOMETRY, seed=23)
    half = len(ios) // 2
    _drive(device, ios[:half])
    snapshot = device.snapshot()
    fresh = make_device(ftl_kind="pagemap")
    fresh.restore(snapshot)
    assert not fresh.attribution
    assert fresh.fingerprint() == device.fingerprint()


def test_detach_stops_recording():
    device = make_device()
    device.attribution = True
    assert device.write(0, 4 * KIB).cost.attribution is not None
    device.attribution = False
    assert device.write(0, 4 * KIB).cost.attribution is None


# ----------------------------------------------------------------------
# trace carriage: columns, payload, pickle, CSV stability
# ----------------------------------------------------------------------

def _traced_pair(spec):
    """The same spec with attribution off and on; returns both traces."""
    plain = make_device(ftl_kind="hybrid")
    observed = make_device(ftl_kind="hybrid")
    observed.attribution = True
    plain_trace = SyncHost(plain).run_program(PatternGenerator(spec).program())
    observed_trace = SyncHost(observed).run_program(
        PatternGenerator(spec).program()
    )
    return plain_trace, observed_trace


def _small_spec():
    return baselines(
        io_size=8 * KIB, io_count=48,
        random_target_size=1 * MIB, sequential_target_size=512 * KIB,
    )["RW"]


def test_recorder_off_trace_has_no_attribution():
    plain_trace, observed_trace = _traced_pair(_small_spec())
    assert not plain_trace.has_attribution
    assert "attribution" not in plain_trace.to_payload()
    assert observed_trace.has_attribution
    # attribution must not leak into the CSV format
    assert plain_trace.to_csv() == observed_trace.to_csv()


def test_trace_payload_round_trips_attribution():
    _, trace = _traced_pair(_small_spec())
    payload = trace.to_payload()
    assert "attribution" in payload
    rebuilt = IOTrace.from_payload(payload)
    assert rebuilt.has_attribution
    assert np.array_equal(
        rebuilt.attribution_matrix(), trace.attribution_matrix()
    )
    _assert_trace_balanced(rebuilt)


def test_trace_pickle_round_trips_attribution():
    _, trace = _traced_pair(_small_spec())
    rebuilt = pickle.loads(pickle.dumps(trace))
    assert rebuilt.has_attribution
    assert np.array_equal(
        rebuilt.attribution_matrix(), trace.attribution_matrix()
    )


def test_unattributed_trace_rejects_attribution_reads():
    plain_trace, _ = _traced_pair(_small_spec())
    with pytest.raises(ValueError):
        plain_trace.attribution_matrix()
    with pytest.raises(ValueError):
        plain_trace.attribution_balance()
