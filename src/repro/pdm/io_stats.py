"""PDM cost counters and the disk service-time model.

:class:`IOStats` counts *parallel I/O operations* — the PDM cost measure.
One operation moves up to ``D*B`` items; per the model (paper, appendix
6.2) "an operation involving fewer elements incurs the same cost", so the
counter increments by one whether the op touches 1 disk or all ``D``.

:class:`DiskServiceModel` converts block counts into simulated seconds
using the classic seek + rotational-latency + transfer decomposition.  Its
default constants are late-1990s commodity-disk values, which is what makes
the Figure 8 (Stevens) throughput-vs-blocksize curve come out with the
paper's shape: throughput rises steeply with block size and saturates near
the raw transfer rate once the fixed positioning overhead is amortized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.util.items import ITEM_BYTES

if TYPE_CHECKING:
    from repro.pdm.disk_array import BatchPlan


def _sub(a: list[int], b: list[int]) -> list[int]:
    """Element-wise a - b, treating missing entries of b as zero."""
    return [x - (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


@dataclass
class IOStats:
    """Counters for one disk array (one real processor's D disks).

    Pass ``D`` at construction to size the per-disk and width counters
    eagerly; stat objects used purely as merge accumulators (e.g. in
    :class:`repro.cgm.metrics.CostReport`) may leave it ``None`` and adopt
    a size from the first :meth:`merge`.  :meth:`record` validates its
    ``D`` argument against the sized counters — a disk array that changed
    width mid-run is a bug, not something to silently mis-index over.
    """

    parallel_ios: int = 0       #: number of parallel I/O operations issued
    blocks_read: int = 0        #: total blocks moved disk -> memory
    blocks_written: int = 0     #: total blocks moved memory -> disk
    read_ops: int = 0           #: parallel I/Os that were reads
    write_ops: int = 0          #: parallel I/Os that were writes
    per_disk_blocks: list[int] = field(default_factory=list)
    #: width_histogram[w] = parallel I/Os that touched exactly w disks.
    width_histogram: list[int] = field(default_factory=list)
    D: int | None = None        #: disk count, when known at construction

    def __post_init__(self) -> None:
        if self.D is None and self.per_disk_blocks:
            self.D = len(self.per_disk_blocks)
        if self.D is not None:
            if self.D < 1:
                raise ValueError(f"need at least one disk, got D={self.D}")
            self._size_counters(self.D)

    def _size_counters(self, D: int) -> None:
        if not self.per_disk_blocks:
            self.per_disk_blocks = [0] * D
        elif len(self.per_disk_blocks) != D:
            raise ValueError(
                f"per_disk_blocks sized for {len(self.per_disk_blocks)} disks, "
                f"but D={D}"
            )
        if not self.width_histogram:
            self.width_histogram = [0] * (D + 1)
        elif len(self.width_histogram) != D + 1:
            raise ValueError(
                f"width_histogram sized for {len(self.width_histogram) - 1} "
                f"disks, but D={D}"
            )

    def record(self, n_read: int, n_written: int, touched: list[int], D: int) -> None:
        """Record one parallel I/O touching blocks on disks *touched*."""
        if self.D is None:
            self.D = D
            self._size_counters(D)
        elif D != self.D:
            raise ValueError(
                f"parallel I/O recorded with D={D} on stats sized for "
                f"D={self.D} disks"
            )
        self.parallel_ios += 1
        self.blocks_read += n_read
        self.blocks_written += n_written
        if n_read:
            self.read_ops += 1
        if n_written:
            self.write_ops += 1
        for d in touched:
            self.per_disk_blocks[d] += 1
        self.width_histogram[len(touched)] += 1

    def record_batch(self, plan: "BatchPlan", n: int, *, write: bool, D: int) -> None:
        """Record one planned stream of *n* blocks: *plan*'s ``nops``
        parallel I/Os in one call.

        The run API computes batch boundaries vectorially and folds the
        whole stream into the counters at once; the per-field arithmetic is
        exactly the sum of the per-op :meth:`record` calls the
        ``parallel_io`` loop would have made.  ``plan.per_disk[d]`` is the
        number of blocks serviced by disk *d* and ``plan.width_counts[w]``
        the number of batches touching exactly *w* disks.
        """
        if self.D is None:
            self.D = D
            self._size_counters(D)
        elif D != self.D:
            raise ValueError(
                f"parallel I/O recorded with D={D} on stats sized for "
                f"D={self.D} disks"
            )
        self.parallel_ios += plan.nops
        if write:
            self.blocks_written += n
            self.write_ops += plan.nops
        else:
            self.blocks_read += n
            self.read_ops += plan.nops
        for d, c in enumerate(plan.per_disk):
            if c:
                self.per_disk_blocks[d] += int(c)
        for w, c in enumerate(plan.width_counts):
            if c:
                self.width_histogram[w] += int(c)

    @property
    def blocks_total(self) -> int:
        return self.blocks_read + self.blocks_written

    def utilization(self, D: int) -> float:
        """Fraction of disk-slots actually used: 1.0 means every parallel
        I/O moved a block on every disk (the paper's goal)."""
        if self.parallel_ios == 0:
            return 1.0
        return self.blocks_total / (self.parallel_ios * D)

    def io_time(self, G: float) -> float:
        """PDM I/O time: G per parallel operation."""
        return G * self.parallel_ios

    def merge(self, other: "IOStats") -> None:
        """Fold another processor's counters into this one (for totals).

        An accumulator constructed without ``D`` adopts the first merged
        stats' disk count; merging arrays of different widths sums the
        overlapping disks and keeps the wider tail (totals stay exact).
        """
        self.parallel_ios += other.parallel_ios
        self.blocks_read += other.blocks_read
        self.blocks_written += other.blocks_written
        self.read_ops += other.read_ops
        self.write_ops += other.write_ops
        if other.per_disk_blocks:
            if len(other.per_disk_blocks) > len(self.per_disk_blocks):
                self.per_disk_blocks.extend(
                    [0] * (len(other.per_disk_blocks) - len(self.per_disk_blocks))
                )
            for i, c in enumerate(other.per_disk_blocks):
                self.per_disk_blocks[i] += c
        if other.width_histogram:
            if len(other.width_histogram) > len(self.width_histogram):
                self.width_histogram.extend(
                    [0] * (len(other.width_histogram) - len(self.width_histogram))
                )
            for i, c in enumerate(other.width_histogram):
                self.width_histogram[i] += c
        if self.D is None:
            self.D = other.D
        elif other.D is not None:
            self.D = max(self.D, other.D)

    def as_dict(self) -> dict:
        """JSON-able counter dump (benchmark store, metrics snapshots)."""
        return {
            "parallel_ios": self.parallel_ios,
            "blocks_read": self.blocks_read,
            "blocks_written": self.blocks_written,
            "read_ops": self.read_ops,
            "write_ops": self.write_ops,
            "per_disk_blocks": list(self.per_disk_blocks),
            "width_histogram": list(self.width_histogram),
            "D": self.D,
        }

    def snapshot(self) -> "IOStats":
        return IOStats(
            self.parallel_ios,
            self.blocks_read,
            self.blocks_written,
            self.read_ops,
            self.write_ops,
            list(self.per_disk_blocks),
            list(self.width_histogram),
            self.D,
        )

    def delta_since(self, before: "IOStats") -> "IOStats":
        """Counters accumulated since *before* (a snapshot)."""
        return IOStats(
            self.parallel_ios - before.parallel_ios,
            self.blocks_read - before.blocks_read,
            self.blocks_written - before.blocks_written,
            self.read_ops - before.read_ops,
            self.write_ops - before.write_ops,
            _sub(self.per_disk_blocks, before.per_disk_blocks),
            _sub(self.width_histogram, before.width_histogram),
            self.D,
        )


@dataclass(frozen=True)
class DiskServiceModel:
    """Seek + rotation + transfer model of one disk access.

    Defaults approximate a 1998 commodity drive (the prototype in the paper
    ran on Pentium PCs with IDE/SCSI disks of this class):

    * average seek ~ 8.9 ms,
    * 7200 rpm -> average rotational latency ~ 4.17 ms,
    * sustained transfer rate ~ 10 MB/s.
    """

    avg_seek_s: float = 0.0089
    avg_rotational_s: float = 0.00417
    transfer_rate_bytes_per_s: float = 10e6

    def access_time(self, block_bytes: int) -> float:
        """Seconds to service one block access of *block_bytes* bytes."""
        return (
            self.avg_seek_s
            + self.avg_rotational_s
            + block_bytes / self.transfer_rate_bytes_per_s
        )

    def throughput(self, block_bytes: int) -> float:
        """Effective bytes/second when reading blocks of *block_bytes*.

        This is the Figure 8 curve: for tiny blocks the fixed positioning
        cost dominates and throughput is poor; it climbs with block size
        and asymptotes to the raw transfer rate.
        """
        return block_bytes / self.access_time(block_bytes)

    def parallel_io_time(self, B_items: int) -> float:
        """Seconds for one parallel I/O of D blocks (disks run in parallel,
        so the op takes one block-access time regardless of D)."""
        return self.access_time(B_items * ITEM_BYTES)

    def suggest_G(self, B_items: int, cpu_ops_per_s: float = 1e8) -> float:
        """The PDM parameter G (compute ops per parallel I/O) implied by
        this disk and a CPU executing *cpu_ops_per_s* basic operations/s."""
        return self.parallel_io_time(B_items) * cpu_ops_per_s
