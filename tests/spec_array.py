"""The PDM specification behind the run API, as a disk array.

:class:`SpecDiskArray` services ``write_stream`` / ``read_run`` through
``write_blocks`` / ``read_blocks``: the same placements, in the same order,
one ``parallel_io`` per batch and one Python iteration per block.  The
differential suites hold the bulk path to it — counters, batch widths,
stored bytes and whole engine runs — so the reference lane shares nothing
with the scatter/gather it checks.  :func:`spec_arrays` makes every EM
engine built inside it use these arrays.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.core.par_engine import ParEMEngine
from repro.pdm.block import Runs
from repro.pdm.disk_array import DiskArray, Segment, check_segments
from repro.util.validation import SimulationError


class SpecDiskArray(DiskArray):
    """A disk array whose run API is the per-op loop."""

    def write_stream(self, segments: Sequence[Segment]) -> int:
        check_segments(segments)
        placements: list[tuple[int, int, bytes]] = []
        for runs, run in segments:
            disks, tracks = runs.expand(self.D)
            placements.extend(zip(disks.tolist(), tracks.tolist(), run.to_blocks()))
        return self.write_blocks(placements)

    def read_run(self, runs: Runs, out: np.ndarray | None = None) -> np.ndarray:
        n, bb = runs.nblocks, self.block_bytes
        if out is None:
            out = np.empty(n * bb, dtype=np.uint8)
        elif out.size < n * bb:
            raise SimulationError(
                f"read_run: out buffer of {out.size} bytes cannot hold "
                f"{n} blocks of {bb} bytes"
            )
        flat = out[: n * bb]
        disks, tracks = runs.expand(self.D)
        pos = 0
        for block in self.read_blocks(list(zip(disks.tolist(), tracks.tolist()))):
            chunk = np.frombuffer(block, dtype=np.uint8)
            flat[pos : pos + chunk.size] = chunk
            if chunk.size < bb:
                flat[pos + chunk.size : pos + bb] = 0
            pos += bb
        return flat


@contextmanager
def spec_arrays() -> Iterator[None]:
    """Every EM engine built inside gives its real processors
    :class:`SpecDiskArray` disks (forked workers inherit the patch)."""

    def make(self: ParEMEngine, real: int) -> DiskArray:
        return SpecDiskArray(
            self.cfg.D, self.cfg.B, tracer=self.tracer, real=real, runtime=self._rt
        )

    saved = ParEMEngine._make_array
    ParEMEngine._make_array = make  # type: ignore[method-assign]
    try:
        yield
    finally:
        ParEMEngine._make_array = saved  # type: ignore[method-assign]
