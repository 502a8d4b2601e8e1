"""Pattern generators: specs -> precomputed IO programs.

The submit time of IO ``i`` depends on the *response time* of IO
``i-1`` (Table 1: ``t(IOi) = t(IOi-1) + rt(IOi-1) [+ pauses]``), so a
pattern cannot be fully materialised up front — the feedback step is
irreducibly per-IO and lives in the hosts' program runners
(:mod:`repro.flashsim.host`).  Everything *else* is not: the random
slot draws, the LBA formula and the inter-IO gaps depend only on the
index, so the generators pre-draw the whole run in one batch at
construction and expose the result as an :class:`IOProgram` of columns.

The RNG is ``random.Random(seed)``, drawn once per IO in index order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.core.patterns import LocationKind, MixSpec, PatternSpec
from repro.iotypes import Mode


@dataclass(frozen=True)
class IOProgram:
    """The precomputable columns of one run, index-aligned.

    ``lbas``/``sizes`` are int64, ``writes`` bool, ``gaps`` float64 (the
    pause inserted before each IO, after the previous completion);
    ``components`` is the issuing mix component per IO (int8) or
    ``None`` for basic patterns.  ``queue_depth`` carries the spec's
    requested in-flight depth to the host (1 = synchronous).  Submit
    times are *not* here — they depend on measured response times and
    are computed by the host loop.
    """

    lbas: np.ndarray
    sizes: np.ndarray
    writes: np.ndarray
    gaps: np.ndarray
    components: np.ndarray | None = None
    queue_depth: int = 1

    def __len__(self) -> int:
        return len(self.lbas)

    def slice(self, start: int, stop: int) -> "IOProgram":
        """IOs ``start`` up to ``stop`` as a program of their own."""
        components = self.components
        return IOProgram(
            lbas=self.lbas[start:stop],
            sizes=self.sizes[start:stop],
            writes=self.writes[start:stop],
            gaps=self.gaps[start:stop],
            components=None if components is None else components[start:stop],
            queue_depth=self.queue_depth,
        )


def _pre_draw(seed: int, slots: int, count: int) -> list[int]:
    """The first ``count`` values of the spec's random-slot stream."""
    rng = random.Random(seed)
    return [rng.randrange(slots) for _ in range(count)]


class PatternGenerator:
    """Compiles one basic pattern into its :class:`IOProgram`."""

    def __init__(self, spec: PatternSpec) -> None:
        self.spec = spec
        count = spec.io_count
        draws = None
        if spec.location is LocationKind.RANDOM:
            draws = np.array(
                _pre_draw(spec.seed, spec.slots, count), dtype=np.int64
            )
        lbas = spec.lba_array(np.arange(count, dtype=np.int64), draws)
        self._program = IOProgram(
            lbas=lbas,
            sizes=np.full(count, spec.io_size, dtype=np.int64),
            writes=np.full(count, spec.mode is Mode.WRITE, dtype=np.bool_),
            gaps=spec.gap_array(count),
            queue_depth=spec.queue_depth,
        )

    def program(self) -> IOProgram:
        """The precomputed columns of the whole run."""
        return self._program


class MixGenerator:
    """Interleaves two basic patterns with a Ratio (Mix micro-benchmark).

    The component schedule (whose turn each mix index is), the
    per-component inner indexes and the random draws are all precomputed
    at construction; the mix's timing is consecutive (component pauses
    would make the Ratio parameter no longer the single varying factor).
    """

    def __init__(self, spec: MixSpec) -> None:
        self.spec = spec
        count = spec.io_count
        indexes = np.arange(count, dtype=np.int64)
        which = (indexes % (spec.ratio + 1) == spec.ratio).astype(np.int8)
        lbas = np.empty(count, dtype=np.int64)
        sizes = np.empty(count, dtype=np.int64)
        writes = np.empty(count, dtype=np.bool_)
        for side, component in enumerate((spec.primary, spec.secondary)):
            mask = which == side
            occurrences = int(mask.sum())
            inner = (
                np.arange(occurrences, dtype=np.int64) % component.io_count
            )
            draws = None
            if component.location is LocationKind.RANDOM:
                # one draw per occurrence, whether or not the
                # component's inner index wrapped
                draws = np.array(
                    _pre_draw(component.seed, component.slots, occurrences),
                    dtype=np.int64,
                )
            lbas[mask] = component.lba_array(inner, draws)
            sizes[mask] = component.io_size
            writes[mask] = component.mode is Mode.WRITE
        self._program = IOProgram(
            lbas=lbas,
            sizes=sizes,
            writes=writes,
            gaps=np.zeros(count, dtype=np.float64),
            components=which,
            queue_depth=spec.queue_depth,
        )

    def program(self) -> IOProgram:
        """The precomputed columns of the whole mix run."""
        return self._program

    @property
    def components_array(self) -> np.ndarray:
        """Issuing component per mix index (0=primary, 1=secondary)."""
        assert self._program.components is not None
        return self._program.components
