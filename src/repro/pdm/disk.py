"""A single simulated disk: a direct-access sequence of tracks."""

from __future__ import annotations

from repro.pdm.arena import TrackArena
from repro.util.validation import SimulationError


class Disk:
    """One disk drive: tracks addressed by number, one block per track.

    A disk is the per-track view of one disk's rows in a
    :class:`~repro.pdm.arena.TrackArena`: the owning
    :class:`~repro.pdm.disk_array.DiskArray` shares one arena among its
    ``D`` disks, so bulk operations can bypass per-track Python entirely
    while single-track reads and writes here address the same bytes.  The
    arena's side dict keeps the track space sparse (far-away tracks and
    over-long blocks never allocate dense rows).

    Per-disk read/write counters feed the load-balance assertions in the
    tests: the paper's layouts are only correct if every disk services the
    same number of blocks (±1).
    """

    __slots__ = ("disk_id", "_arena", "blocks_read", "blocks_written")

    def __init__(self, disk_id: int, arena: TrackArena) -> None:
        self.disk_id = disk_id
        self._arena = arena
        self.blocks_read = 0
        self.blocks_written = 0

    def write(self, track: int, data: bytes) -> None:
        """Store one block at *track* (overwrites)."""
        if track < 0:
            raise SimulationError(f"negative track {track} on disk {self.disk_id}")
        self._arena.put(self.disk_id, track, data)
        self.blocks_written += 1

    def read(self, track: int) -> bytes:
        """Fetch the block at *track*; reading an unwritten track is a bug."""
        hit = self._arena.get(self.disk_id, track)
        if hit is None:
            raise SimulationError(
                f"read of unwritten track {track} on disk {self.disk_id}"
            )
        self.blocks_read += 1
        return hit

    def free(self, track: int) -> None:
        """Discard the block at *track* (space reuse between supersteps)."""
        self._arena.free(self.disk_id, track)

    @property
    def tracks_in_use(self) -> int:
        return self._arena.tracks_in_use(self.disk_id)

    def max_track(self) -> int:
        """Highest track currently holding data, -1 if empty."""
        return self._arena.max_track(self.disk_id)

    def snapshot_tracks(self) -> dict[int, bytes]:
        """Checkpoint view of the track store: ``{track: bytes}``."""
        return self._arena.snapshot(self.disk_id)

    def restore_tracks(self, tracks: dict[int, bytes]) -> None:
        """Replace the track store from a :meth:`snapshot_tracks` dict."""
        self._arena.restore(self.disk_id, tracks)
