"""Internal (main) memory accounting for one real processor.

The PDM requires that a processor can hold at least one block per disk
(``M >= D*B``) and the simulation theorems require ``M = Theta(mu)`` where
``mu`` is the largest virtual-processor context.  The engines charge every
context, inbox and staging buffer against this budget and record the
high-water mark, so benchmarks can report it (and whether it overflowed).
A virtual processor's charges live for one step of it — its setup store,
its compound superstep (``_put_messages`` releases them) or its ``finish``
— so the peak is one processor's footprint at any worker count.
"""

from __future__ import annotations


class InternalMemory:
    """Capacity counter in items, with peak tracking."""

    __slots__ = ("capacity", "used", "peak")

    def __init__(self, capacity_items: int) -> None:
        self.capacity = int(capacity_items)
        self.used = 0
        self.peak = 0

    def charge(self, n_items: int) -> None:
        """Allocate *n_items* items of internal memory."""
        if n_items < 0:
            raise ValueError("cannot charge a negative allocation")
        self.used += n_items
        if self.used > self.peak:
            self.peak = self.used

    def release(self, n_items: int) -> None:
        """Free *n_items* items."""
        if n_items < 0:
            raise ValueError("cannot release a negative allocation")
        self.used = max(0, self.used - n_items)

    @property
    def overflowed(self) -> bool:
        """Did the run ever exceed capacity?"""
        return self.peak > self.capacity
