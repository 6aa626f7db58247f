"""The Figure 3 baseline: a CGM algorithm run on top of OS virtual memory.

The paper's prototype first ran its CGM sorting algorithm naively, letting
the operating system page contexts and message buffers in and out of a
too-small physical memory.  :class:`VMEngine` reproduces that execution
model: it computes exactly like :class:`InMemoryEngine`, but every context
load/store and every message put/take *touches* the corresponding address
range of a flat virtual address space backed by an LRU pager with 4 KB
pages (:func:`lru_pager`).  Once the working set (all v contexts plus
in-flight messages) exceeds ``M``, every round's sweep over the virtual
processors faults on nearly every page — unblocked, one-page-at-a-time
I/O, which is the mechanism behind the hockey-stick in Figure 3.

Page faults are reported in ``CostReport.page_faults``.
"""

from __future__ import annotations

from repro.cache.cache_sim import CacheSim
from repro.cgm.engine import InMemoryEngine
from repro.cgm.message import Message
from repro.cgm.metrics import CostReport
from repro.cgm.program import CGMProgram, Context
from repro.util.items import item_count


def lru_pager(memory_items: int, page_items: int = 512) -> CacheSim:
    """The Figure 3 pager: a fully associative LRU cache of pages (512
    items * 8 bytes = 4 KB) whose misses are page faults.  It keeps at
    least one frame, so a machine with ``M < page_items`` still pages."""
    return CacheSim(max(memory_items, page_items), page_items)


def context_items(ctx: Context) -> int:
    """Approximate footprint of a context in items (numpy fast path)."""
    total = 4  # dict overhead
    for key, value in ctx.items():
        total += 2 + item_count(value)
    return total


class VMEngine(InMemoryEngine):
    """In-memory execution metered through an LRU demand pager."""

    name = "virtual-memory"

    def __init__(
        self,
        cfg,
        balanced: bool = False,
        page_items: int = 512,
        tracer=None,
    ):
        super().__init__(cfg, balanced=balanced, tracer=tracer)
        self.page_items = page_items

    def _start(self, program: CGMProgram) -> None:
        super()._start(program)
        self.pager = lru_pager(self.cfg.M, self.page_items)
        self._addr_cursor = 0
        self._ctx_addr: dict[int, tuple[int, int]] = {}  # pid -> (base, items)
        self._msg_addr: dict[int, int] = {}  # id(msg) -> base

    # -- address-space management ------------------------------------------

    def _alloc(self, items: int) -> int:
        base = self._addr_cursor
        self._addr_cursor += max(1, items)
        return base

    def _touch_context(self, pid: int, ctx: Context) -> None:
        items = context_items(ctx)
        region = self._ctx_addr.get(pid)
        if region is None or region[1] < items:
            region = (self._alloc(items), items)
        else:
            region = (region[0], items)
        self._ctx_addr[pid] = region
        self.pager.access_range(region[0], items)

    # -- metered backend ------------------------------------------------------

    def _store_context(self, pid: int, ctx: Context) -> None:
        faults0 = self.pager.misses
        self._touch_context(pid, ctx)
        super()._store_context(pid, ctx)
        if self.tracer.enabled:
            self.tracer.emit(
                "context_write",
                pid=pid,
                real=0,
                blocks=self.pager.misses - faults0,
                layout="paged",
            )

    def _load_context(self, pid: int) -> Context:
        ctx = super()._load_context(pid)
        faults0 = self.pager.misses
        self._touch_context(pid, ctx)
        if self.tracer.enabled:
            self.tracer.emit(
                "context_read",
                pid=pid,
                real=0,
                blocks=self.pager.misses - faults0,
                layout="paged",
            )
        return ctx

    def _put_messages(self, src_pid: int, msgs: list[Message]) -> None:
        for m in msgs:
            base = self._alloc(m.size_items)
            self._msg_addr[id(m)] = base
            faults0 = self.pager.misses
            self.pager.access_range(base, m.size_items)
            if self.tracer.enabled:
                self.tracer.emit(
                    "message_write",
                    src=src_pid,
                    dest=m.dest,
                    real=0,
                    blocks=self.pager.misses - faults0,
                    layout="paged",
                )
        super()._put_messages(src_pid, msgs)

    def _take_inbox(self, pid: int) -> list[Message]:
        msgs = super()._take_inbox(pid)
        faults0 = self.pager.misses
        for m in msgs:
            base = self._msg_addr.pop(id(m), None)
            if base is not None:
                self.pager.access_range(base, m.size_items)
        if self.tracer.enabled and msgs:
            self.tracer.emit(
                "message_read",
                pid=pid,
                real=0,
                blocks=self.pager.misses - faults0,
                layout="paged",
                sources=len(msgs),
            )
        return msgs

    def _finalize(self, report: CostReport) -> None:
        report.page_faults = self.pager.misses
        report.peak_memory_items = self._addr_cursor

    def _run_end_tags(self) -> dict[str, int]:
        return {"page_items": self.page_items}
