"""Disk layouts: consecutive format, the staggered message matrix (Fig. 2).

Definitions from the paper's appendix (6.9):

* **Consecutive format** — block ``q`` of a run goes to disk
  ``(d + q) mod D`` on track ``T0 + (d + q) // D``.  Reading or writing a
  run of ``n`` blocks therefore costs ``ceil(n / D)`` fully parallel I/Os.

* **Staggered message matrix** — the messages of one communication
  superstep are stored in per-destination *bands* of parallel tracks.
  With ``b'`` blocks reserved per message slot, the message from virtual
  processor ``i`` to virtual processor ``j`` starts at linear offset
  ``i * b'`` inside band ``j``, whose disk offset is ``d_j = (j*b') mod D``
  and track base ``T_j = base + j * band_height``.  Block ``q`` of
  ``msg_ij`` lands on disk ``(d_j + i*b' + q) mod D`` at track
  ``T_j + (d_j + i*b' + q) // D``.  The stagger makes the *writes of one
  source across consecutive destinations* land on distinct disks, and the
  *reads of one destination across sources* consecutive — both fully
  parallel.

Two copies of the matrix alternate between supersteps (the engines' analog
of Observation 2's format alternation): messages of round r are written
into band-set ``r mod 2`` while the messages of round r-1 are read from
band-set ``(r-1) mod 2``.
"""

from __future__ import annotations

import bisect

from repro.pdm.block import Runs


def consecutive_addresses(
    nblocks: int, D: int, start_track: int, start_disk: int = 0
) -> list[tuple[int, int]]:
    """(disk, track) addresses of an ``nblocks``-run in consecutive format."""
    out = []
    for q in range(nblocks):
        lin = start_disk + q
        out.append((lin % D, start_track + lin // D))
    return out


def consecutive_addresses_np(
    nblocks: int, start_track: int, start_disk: int = 0
) -> Runs:
    """:func:`consecutive_addresses` as arithmetic: one linear run.

    The engines hand the value straight to
    :meth:`~repro.pdm.disk_array.DiskArray.write_run` / ``read_run``, whose
    ``D`` turns it into disks and tracks; ``Runs.expand(D)`` equals the
    per-q loop above.
    """
    return Runs(start_track, ((start_disk, nblocks),))


class MessageMatrix:
    """Address calculator for the staggered message layout.

    Pure geometry — it owns no disk; the engines combine its addresses
    with :meth:`repro.pdm.disk_array.DiskArray.write_blocks`, whose FIFO
    conflict rule reproduces the paper's DiskWrite procedure.
    """

    def __init__(
        self,
        n_src: int,
        n_dest: int,
        D: int,
        slot_blocks: int,
        base_track: int = 0,
    ) -> None:
        if slot_blocks < 1:
            raise ValueError("message slot must hold at least one block")
        self.n_src = n_src        #: sources with a slot in every band (v)
        self.n_dest = n_dest      #: destination bands (v, or v/p per real proc)
        self.D = D
        self.slot_blocks = slot_blocks
        self.base_track = base_track
        # highest linear index inside a band: (D-1) + n_src*b' - 1
        self.band_height = ((D - 1) + n_src * slot_blocks - 1) // D + 1

    @property
    def tracks_per_copy(self) -> int:
        """Track span of one full matrix (n_dest destination bands)."""
        return self.n_dest * self.band_height

    def copy_base(self, parity: int) -> int:
        """Track base of matrix copy 0 or 1 (alternating supersteps)."""
        return self.base_track + (parity % 2) * self.tracks_per_copy

    def message_addresses(
        self, src: int, dest: int, nblocks: int, parity: int
    ) -> list[tuple[int, int]]:
        """(disk, track) addresses for blocks 0..nblocks-1 of msg_{src,dest}."""
        if nblocks > self.slot_blocks:
            raise ValueError(
                f"message of {nblocks} blocks exceeds slot of {self.slot_blocks}"
            )
        d_j = (dest * self.slot_blocks) % self.D
        T_j = self.copy_base(parity) + dest * self.band_height
        out = []
        for q in range(nblocks):
            lin = d_j + src * self.slot_blocks + q
            out.append((lin % self.D, T_j + lin // self.D))
        return out

    def message_addresses_np(
        self, src: int, dest: int, nblocks: int, parity: int
    ) -> Runs:
        """:meth:`message_addresses` as arithmetic: a slot message is a
        consecutive run entered at its slot's offset in the band."""
        if nblocks > self.slot_blocks:
            raise ValueError(
                f"message of {nblocks} blocks exceeds slot of {self.slot_blocks}"
            )
        d_j = (dest * self.slot_blocks) % self.D
        T_j = self.copy_base(parity) + dest * self.band_height
        return Runs(T_j, ((d_j + src * self.slot_blocks, nblocks),))

    def inbox_addresses_np(
        self, dest: int, blocks_by_src: list[tuple[int, int]], parity: int
    ) -> Runs:
        """:meth:`inbox_addresses` as arithmetic: one run per source, in
        the order given, all counted from the band's base track."""
        slot = self.slot_blocks
        d_j = (dest * slot) % self.D
        T_j = self.copy_base(parity) + dest * self.band_height
        for _src, nblocks in blocks_by_src:
            if nblocks > slot:
                raise ValueError(f"message of {nblocks} blocks exceeds slot of {slot}")
        return Runs(T_j, tuple((d_j + src * slot, n) for src, n in blocks_by_src))

    def inbox_addresses(
        self, dest: int, blocks_by_src: list[tuple[int, int]], parity: int
    ) -> list[tuple[int, int]]:
        """Read addresses for a destination's whole inbox.

        *blocks_by_src* is a list of ``(src, nblocks)`` in the order the
        engine wants the blocks back (ascending src gives the consecutive,
        fully parallel read of the paper).
        """
        out: list[tuple[int, int]] = []
        for src, nblocks in blocks_by_src:
            out.extend(self.message_addresses(src, dest, nblocks, parity))
        return out

    def end_track(self) -> int:
        """First track above both matrix copies (for dynamic allocation)."""
        return self.base_track + 2 * self.tracks_per_copy


class RegionAllocator:
    """Track allocator for context regions and overflow runs, with reuse.

    Contexts change size between rounds; a virtual processor keeps its
    region until it outgrows it, then gets a fresh, larger one (the old
    tracks are freed on the simulated disks *and* returned here).
    Allocation is in whole track-rows (all D disks), so consecutive-format
    runs inside a region are always fully parallel.

    Freed regions go to a free list, adjacent free regions coalesce, and a
    free region touching the cursor retracts it — so long-running programs
    whose contexts grow (or that spill overflow runs every superstep) keep
    a bounded simulated-disk footprint instead of leaking rows forever.
    Allocation is deterministic best-fit: the smallest adequate free
    region, ties broken by lowest start track.
    """

    def __init__(self, D: int, first_track: int) -> None:
        self.D = D
        self._base = first_track
        self._cursor = first_track
        #: free regions as (start_track, rows), sorted by start, disjoint,
        #: coalesced, and never touching the cursor.
        self._free: list[tuple[int, int]] = []

    def rows_for(self, nblocks: int) -> int:
        """Track-rows needed to hold *nblocks* blocks over D disks."""
        return max(1, -(-nblocks // self.D))

    def alloc(self, nblocks: int) -> tuple[int, int]:
        """Reserve rows for *nblocks* blocks; returns (start_track, rows)."""
        rows = self.rows_for(nblocks)
        best = -1
        for i, (fstart, frows) in enumerate(self._free):
            if frows < rows:
                continue
            if best < 0 or (frows, fstart) < (
                self._free[best][1],
                self._free[best][0],
            ):
                best = i
        if best >= 0:
            fstart, frows = self._free[best]
            if frows > rows:
                self._free[best] = (fstart + rows, frows - rows)
            else:
                del self._free[best]
            return fstart, rows
        start = self._cursor
        self._cursor += rows
        return start, rows

    def free(self, start_track: int, rows: int) -> None:
        """Return a region obtained from :meth:`alloc` to the free list."""
        if rows <= 0:
            return
        regions = self._free
        i = bisect.bisect_left(regions, (start_track, rows))
        regions.insert(i, (start_track, rows))
        # coalesce with the right then the left neighbour
        if i + 1 < len(regions) and regions[i][0] + regions[i][1] == regions[i + 1][0]:
            regions[i] = (regions[i][0], regions[i][1] + regions[i + 1][1])
            del regions[i + 1]
        if i > 0 and regions[i - 1][0] + regions[i - 1][1] == regions[i][0]:
            regions[i - 1] = (regions[i - 1][0], regions[i - 1][1] + regions[i][1])
            del regions[i]
            i -= 1
        # a free region ending at the cursor retracts it
        if regions and regions[-1][0] + regions[-1][1] == self._cursor:
            self._cursor = regions[-1][0]
            regions.pop()

    @property
    def free_rows(self) -> int:
        """Rows currently on the free list (reusable without growing)."""
        return sum(rows for _start, rows in self._free)

    @property
    def high_water_track(self) -> int:
        return self._cursor
