"""Calibration sweep: measured vs paper baselines for every profile.

Development tool (not part of the library): prints SR/RR/SW/RW at
32 KiB for each Table 3 device after random-state enforcement, next to
the paper's numbers, plus the merge copy programs per IO (the pages
merges, gap fills and tail copies moved; 0 on page-mapped devices) and
the detected phases.

Usage: python tools/calibrate.py [profile ...]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core import baselines, detect_phases, enforce_random_state, execute, rest_device
from repro.flashsim import build_device
from repro.paperdata import TABLE3
from repro.units import KIB, SEC


def measure(name: str) -> None:
    t0 = time.time()
    device = build_device(name)
    enforce_random_state(device)
    rest_device(device, 60 * SEC)
    paper = TABLE3.get(name)
    specs = baselines(
        io_size=32 * KIB,
        io_count=1280,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )
    print(f"== {name} ({device.geometry.describe()})")
    for label in ("SR", "RR", "SW", "RW"):
        copies = device.metrics().get("ftl.merge_copy_programs", 0.0)
        run = execute(device, specs[label])
        copies = device.metrics().get("ftl.merge_copy_programs", 0.0) - copies
        responses = np.array(run.trace.response_times())
        phases = detect_phases(responses)
        steady = responses[phases.startup :].mean() / 1000.0
        expected = getattr(paper, label.lower()) if paper else None
        expected_text = f"paper {expected:7.1f}" if expected else "paper     n/a"
        print(
            f"  {label}: {steady:8.3f} ms  {expected_text}   "
            f"copies/IO {copies / len(responses):7.2f}   "
            f"startup={phases.startup:4d} period={phases.period}"
        )
        rest_device(device, 120 * SEC)
    print(f"  ({time.time() - t0:.1f}s wall)")


def main() -> None:
    names = sys.argv[1:] or list(TABLE3)
    for name in names:
        measure(name)


if __name__ == "__main__":
    main()
