"""Shared-memory snapshot store: packing, attach round-trips, cleanup.

The :class:`~repro.flashsim.snapshot.SnapshotStore` underwrites the
campaign executor's zero-copy distribution (DESIGN.md §14), so these
tests pin its whole contract: flat-buffer pack/unpack fidelity, the
cross-process attach → restore → fingerprint-equality round-trip, and —
most load-bearing — that **no segment outlives its executor**, whether
the campaign ends normally, the store is garbage-collected, or a worker
process dies mid-campaign.
"""

import gc
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.methodology import enforce_random_state
from repro.flashsim.bitmap import PackedBits, pack_bits
from repro.flashsim.profiles import build_device
from repro.flashsim.snapshot import (
    SnapshotStore,
    attach_segment,
    pack_snapshot,
    unpack_snapshot,
)
from repro.units import MIB

PROFILE = "kingston_dti"
CAPACITY = 4 * MIB


def enforced_device():
    device = build_device(PROFILE, logical_bytes=CAPACITY)
    enforce_random_state(device, seed=97)
    return device


def segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        handle = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    handle.close()
    return True


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------

def test_pack_unpack_round_trip_preserves_fingerprint():
    device = enforced_device()
    snapshot = device.snapshot()
    packed = pack_snapshot(snapshot)
    assert packed.buffers  # arrays actually went out-of-band
    assert packed.nbytes > len(packed.meta)
    clone = unpack_snapshot(packed)
    other = build_device(PROFILE, logical_bytes=CAPACITY)
    other.restore(clone)
    assert other.fingerprint() == device.fingerprint()


def test_packed_meta_is_small_relative_to_buffers():
    # the point of packing: the metadata stream excludes the big arrays
    device = enforced_device()
    packed = pack_snapshot(device.snapshot())
    assert len(packed.meta) < packed.nbytes / 2


def test_packed_bits_protocol5_out_of_band():
    bits = pack_bits([True, False, True] * 100)
    buffers = []
    meta = pickle.dumps(bits, protocol=5, buffer_callback=buffers.append)
    assert len(buffers) == 1  # the payload traveled out-of-band
    clone = pickle.loads(meta, buffers=[b.raw() for b in buffers])
    assert clone == bits
    assert (clone.unpack() == bits.unpack()).all()


def test_packed_bits_in_band_protocols_still_work():
    bits = pack_bits([True] * 17)
    for protocol in (2, 4, 5):
        clone = pickle.loads(pickle.dumps(bits, protocol=protocol))
        assert clone == bits
    # a view-backed PackedBits (as restored from shared memory) must
    # also survive in-band pickling
    view_backed = PackedBits(data=memoryview(bits.data), size=bits.size)
    clone = pickle.loads(pickle.dumps(view_backed, protocol=4))
    assert clone == bits


# ----------------------------------------------------------------------
# store: publish / attach
# ----------------------------------------------------------------------

def test_store_publish_attach_restore_in_process():
    device = enforced_device()
    store = SnapshotStore()
    try:
        name, nbytes = store.publish(device.fingerprint(), device.snapshot())
        assert nbytes > 0
        assert store.get(device.fingerprint()) == name
        shm, snapshot = attach_segment(name)
        try:
            other = build_device(PROFILE, logical_bytes=CAPACITY)
            other.restore(snapshot)
            assert other.fingerprint() == device.fingerprint()
            # the views are read-only: accidental in-place mutation of
            # shared state must fail loudly, not corrupt siblings
            with pytest.raises((ValueError, TypeError)):
                snapshot.chip["tokens"][0] = 1
        finally:
            del snapshot
            shm.close()
    finally:
        store.close()


def test_store_publish_is_content_addressed():
    device = enforced_device()
    store = SnapshotStore()
    try:
        name, first = store.publish(device.fingerprint(), device.snapshot())
        again, second = store.publish(device.fingerprint(), device.snapshot())
        assert again == name
        assert second == 0  # reused, not re-packed
        assert len(store) == 1
    finally:
        store.close()


def _child_attach_and_fingerprint(name, queue):
    """Child-process body: attach, restore, report the fingerprint."""
    try:
        shm, snapshot = attach_segment(name)
        device = build_device(PROFILE, logical_bytes=CAPACITY)
        device.restore(snapshot)
        queue.put(device.fingerprint())
    except Exception as exc:  # pragma: no cover - failure reporting
        queue.put(f"error: {exc!r}")


def test_cross_process_attach_restore_fingerprint_equality():
    device = enforced_device()
    store = SnapshotStore()
    try:
        name, _ = store.publish(device.fingerprint(), device.snapshot())
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        queue = ctx.Queue()
        child = ctx.Process(target=_child_attach_and_fingerprint, args=(name, queue))
        child.start()
        result = queue.get(timeout=60)
        child.join(timeout=60)
        assert result == device.fingerprint()
        assert child.exitcode == 0
    finally:
        store.close()


# ----------------------------------------------------------------------
# cleanup guarantees
# ----------------------------------------------------------------------

def test_store_close_unlinks_every_segment():
    store = SnapshotStore()
    device = enforced_device()
    name, _ = store.publish(device.fingerprint(), device.snapshot())
    assert segment_exists(name)
    store.close()
    assert not segment_exists(name)
    store.close()  # idempotent


def test_store_finalizer_unlinks_on_garbage_collection():
    store = SnapshotStore()
    device = enforced_device()
    name, _ = store.publish(device.fingerprint(), device.snapshot())
    assert segment_exists(name)
    del store
    gc.collect()
    assert not segment_exists(name)


#: owner process for the kill test: publishes one segment, lets two
#: forked workers attach it one after the other, prints its name and
#: SIGKILLs itself, so only the resource tracker can still unlink it
_KILLED_OWNER = """
import multiprocessing, os, signal, sys
from repro.flashsim.profiles import build_device
from repro.flashsim.snapshot import SnapshotStore, attach_segment

device = build_device(sys.argv[1], logical_bytes=int(sys.argv[2]))
store = SnapshotStore()
name, _ = store.publish(device.fingerprint(), device.snapshot())
ctx = multiprocessing.get_context("fork")
for _ in range(2):
    worker = ctx.Process(target=attach_segment, args=(name,))
    worker.start()
    worker.join(60)
    if worker.exitcode != 0:
        sys.exit(3)
print(name, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_killed_owner_leaves_no_segment_after_workers_attached(tmp_path):
    # workers share the owner's resource tracker, which keeps one claim
    # per name (a set, not a count): an attach that dropped a claim
    # would leave a hard-killed owner's segment in /dev/shm for good
    from multiprocessing import shared_memory

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the owner forks its workers")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    with open(tmp_path / "owner.err", "w") as err:
        owner = subprocess.Popen(
            [sys.executable, "-c", _KILLED_OWNER, PROFILE, str(CAPACITY)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        # the tracker inherits stdout, so read the one line, not to EOF
        name = owner.stdout.readline().strip()
        owner.wait(timeout=120)
        owner.stdout.close()
    assert owner.returncode == -signal.SIGKILL, (tmp_path / "owner.err").read_text()
    assert name.startswith("ufsnp-")
    try:
        deadline = time.monotonic() + 10
        while segment_exists(name) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not segment_exists(name)
    finally:
        if segment_exists(name):  # leaked: do not leave it behind
            leaked = shared_memory.SharedMemory(name=name)
            leaked.unlink()
            leaked.close()


def test_executor_close_unlinks_segments_after_normal_campaign():
    from repro.core.executor import CampaignExecutor, plan_cells
    from repro.units import KIB, SEC

    cells = plan_cells(
        PROFILE, CAPACITY, ["order"], io_size=32 * KIB, io_count=8,
        pause_usec=0.1 * SEC,
    )
    executor = CampaignExecutor(jobs=2)
    executor.execute(cells)
    names = executor._store.segment_names()
    assert names and all(segment_exists(name) for name in names)
    executor.close()
    assert all(not segment_exists(name) for name in names)


def _crash_worker(task, observe):
    """Stand-in cell executor that kills the worker process outright."""
    os._exit(17)


def test_executor_close_unlinks_segments_after_worker_crash(monkeypatch):
    # a dying worker must not leak segments: the parent published them
    # when the prepare envelopes landed, so close() (or the finalizer /
    # resource tracker behind it) still unlinks everything
    from concurrent.futures.process import BrokenProcessPool

    import repro.core.executor as executor_mod
    from repro.core.executor import CampaignExecutor, plan_cells
    from repro.units import KIB, SEC

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("crash simulation relies on the fork start method")
    monkeypatch.setattr(executor_mod, "_execute_cell_fast", _crash_worker)
    cells = plan_cells(
        PROFILE, CAPACITY, ["order"], io_size=32 * KIB, io_count=8,
        pause_usec=0.1 * SEC,
    )
    executor = CampaignExecutor(jobs=2)
    with pytest.raises(BrokenProcessPool):
        executor.execute(cells)
    names = executor._store.segment_names()
    assert names  # the prepare phase did publish before the crash
    executor.close()
    assert all(not segment_exists(name) for name in names)
