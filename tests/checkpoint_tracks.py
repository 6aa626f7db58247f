"""Read a ``REPRO-CKPT v2`` checkpoint back as tracks, for tests that
compare what runs left on their disks."""

from __future__ import annotations

from repro.faults.checkpoint import CheckpointManager, open_section
from repro.pdm.arena import TrackArena


def checkpoint_tracks(directory: str, D: int, block_bytes: int) -> tuple:
    """The newest checkpoint in *directory* → ``(checkpoint, {real: [one
    {track: bytes} per disk]})``: each real's section loaded into a fresh
    RAM arena, the way a resume loads it, and read per track."""
    ckpt = CheckpointManager(directory).load()
    tracks = {}
    for real, section in enumerate(ckpt.sections):
        arena = TrackArena(D, block_bytes)
        with open_section(section) as (item, _nbytes, read):
            arena.load(item["rows"], item["lens"], item["side"], read)
        tracks[real] = [arena.snapshot(d) for d in range(D)]
    return ckpt, tracks
