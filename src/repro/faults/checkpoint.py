"""Superstep-boundary checkpoints for the EM engines.

Between compound supersteps the *entire* simulation state lives on the D
disks plus a small amount of engine bookkeeping, so a round boundary is
the natural consistency point, and a checkpoint is that state as it
lies: per real processor a *section*, one format-2 item of bookkeeping
(directories, allocator, charges, counters, RNG and fault state, the
arena's table of live rows) and then those rows at full stride, straight
from the arena.  ``REPRO-CKPT v2``, one file per persisted boundary:

.. code-block:: text

    REPRO-CKPT v2\\n                  magic line
    <crc32 hex> {"round", "finished", "report", "meta",
                 "sections": [[file, offset, nbytes], ...]}\\n
    <section> ...                    this file's reals, ascending
    <u32 CRC-32 per section>         the trailer, in "sections" order

A section's ``file`` is ``null`` in the file itself (``offset`` from the
end of the header line), else a *part* beside it: under a worker fleet
each worker slice writes its reals' sections as one part
(:func:`write_part`), and slice 0's file is the manifest, written last.
Before anything is decoded, :meth:`CheckpointManager.load` checks the
magic (a ``REPRO-CKPT v1`` file is refused unread), the header's CRC,
the fingerprint, each section's bounds and each section's CRC: the CRC
guards against torn files, the bounds and the v1 refuser against
hostile ones.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterable, Iterator

from repro.util.items import deserialize
from repro.util.validation import SimulationError

MAGIC = b"REPRO-CKPT v2\n"

#: filenames are keyed by round + 1 so the initial (post-setup, round ``-1``)
#: checkpoint sorts first; a worker slice's part names its slice too.
_NAME = "ckpt_{:06d}.bin"
_PART = "ckpt_{:06d}_w{}.part"
_FILE = re.compile(r"ckpt_\d{6}(\.bin|_w\d+\.part)\Z")
_ITEM_HEAD = struct.Struct("<cQ")  # a format-2 item's tag and body length
_U32 = struct.Struct("<I")


class CheckpointError(SimulationError):
    """A checkpoint cannot be written, read, or safely resumed from."""


def write_durably(path: str, chunks: Iterable, reuse: str | None = None) -> None:
    """Replace *path* with the buffers *chunks*, atomically and durably:
    they go to a temp file beside it, which is fsynced before
    ``os.replace`` puts it in place, and the directory is fsynced after, so
    a crash leaves the old file or the new one whole and the rename holds.
    A file about to be deleted may be handed over as *reuse*: it becomes
    the temp file, so its cached pages are overwritten, not freed while as
    many new ones fill — never the only copy of what *path* replaces."""
    tmp = path + ".tmp"
    if reuse is not None:
        os.replace(reuse, tmp)
    with open(tmp, "wb" if reuse is None else "r+b") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.truncate()
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _stream(sections: list, crcs: list) -> Iterator:
    """The buffers of *sections* (``(nbytes, buffers)`` each), each one's
    CRC-32 appended to *crcs* once its last buffer is out."""
    for _nbytes, bufs in sections:
        crc = 0
        for buf in bufs:
            crc = zlib.crc32(buf, crc)
            yield buf
        crcs.append(crc)


def part_path(directory: str, round_no: int, worker: int) -> str:
    return os.path.join(directory, _PART.format(round_no + 1, worker))


def write_part(directory: str, round_no: int, worker: int, sections: list) -> list:
    """Worker slice *worker*'s part of the boundary after *round_no*: its
    reals' *sections* in one file → each one's ``(nbytes, crc)``."""
    crcs: list = []
    os.makedirs(directory, exist_ok=True)
    write_durably(part_path(directory, round_no, worker), _stream(sections, crcs))
    return [(nbytes, crc) for (nbytes, _bufs), crc in zip(sections, crcs)]


@dataclass
class Checkpoint:
    """A verified boundary: the header's fields, and where each real's
    section lies, ``(path, offset, nbytes)`` by real id."""

    path: str
    round: int
    finished: bool
    report: dict
    sections: list


@contextmanager
def open_section(section: tuple) -> Iterator[tuple[Any, int, Callable]]:
    """One real's section → its bookkeeping item, the byte count of its
    rows, and ``read(view)``, which fills *view* with the next row bytes
    and never reads past the section."""
    path, offset, nbytes = section
    with open(path, "rb") as fh:
        fh.seek(offset)
        head = fh.read(_ITEM_HEAD.size)
        tag, body = _ITEM_HEAD.unpack(head.ljust(_ITEM_HEAD.size, b"\0"))
        left = nbytes - _ITEM_HEAD.size - body
        try:
            if tag != b"T" or left < 0:
                raise ValueError("no format-2 item")
            item = deserialize(head + fh.read(body))
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint {path!r}: a section does not decode: {exc}"
            ) from None

        def read(view: memoryview) -> None:
            nonlocal left
            if view.nbytes > left or fh.readinto(view) != view.nbytes:
                raise CheckpointError(
                    f"checkpoint {path!r}: a section's rows end early"
                )
            left -= view.nbytes

        yield item, left, read


class CheckpointManager:
    """Write, prune, verify and load round-boundary checkpoints.

    ``keep`` bounds how many boundaries stay on disk (the newest, parts
    included); ``max_restarts`` bounds how many times the process backend
    may respawn crashed workers before giving up.  The directory is
    created by the first :meth:`save`: a manager that never saves leaves
    nothing behind.
    """

    def __init__(self, directory: str, keep: int = 2, max_restarts: int = 3) -> None:
        if keep < 1:
            raise CheckpointError(f"must keep at least one checkpoint, got keep={keep}")
        #: absolute, so a section's path opens alike on every node
        self.directory = os.path.abspath(directory)
        self.keep = keep
        self.max_restarts = max_restarts

    def path_for(self, round_no: int) -> str:
        return os.path.join(self.directory, _NAME.format(round_no + 1))

    def save(self, round_no: int, boundary: dict, meta: dict) -> str:
        """Atomically persist the *boundary* after *round_no* — its
        ``sections`` by real id, each ``(nbytes, buffers)`` to write here
        or ``(file, offset, nbytes, crc)`` of a part beside it, whether the
        run had ``finished`` and its ``report`` so far — under the run
        fingerprint *meta* → the path."""
        sections = boundary.get("sections", ())
        table: list = []
        local: list = []
        crcs: list = []
        at = 0
        for sec in sections:
            table.append(list(sec[:3]) if len(sec) == 4 else [None, at, sec[0]])
            if len(sec) == 2:
                local.append(sec)
                at += sec[0]
        doc = {"finished": False, "report": {}, **boundary, "sections": table}
        doc.update(round=round_no, meta=meta)
        # a dataclass (the cost report) is written as its fields
        text = json.dumps(doc, separators=(",", ":"), default=vars).encode("utf-8")
        mine = iter(crcs)  # filled as the local sections are written
        trailer = (s[3] if len(s) == 4 else next(mine) for s in sections)
        os.makedirs(self.directory, exist_ok=True)
        path, kept = self.path_for(round_no), self._snapshots()
        # the oldest boundary, when pruning takes it, is the temp file —
        # unless it is the newest, the one a failed write must leave
        reuse = kept[0] if len(kept) >= max(self.keep, 2) else None
        head = (MAGIC, b"%08x %s\n" % (zlib.crc32(text), text))
        chunks = chain(head, _stream(local, crcs), map(_U32.pack, trailer))
        write_durably(path, chunks, reuse)
        # every file of a boundary older than the oldest kept goes, parts too
        kept = sorted({*kept, path} - {reuse})
        oldest = os.path.basename(kept[-self.keep :][0])[:11]
        for name in os.listdir(self.directory):
            if _FILE.match(name) and name[:11] < oldest:
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass
        return path

    def _snapshots(self) -> list[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            os.path.join(self.directory, n)
            for n in names
            if (m := _FILE.match(n)) and m[1] == ".bin"
        )

    def latest_path(self) -> str | None:
        snaps = self._snapshots()
        return snaps[-1] if snaps else None

    @property
    def has_checkpoint(self) -> bool:
        return self.latest_path() is not None

    def load(self, meta: dict | None = None, path: str | None = None) -> Checkpoint:
        """Verify the boundary at *path*, by default the newest → its
        :class:`Checkpoint`.  When *meta* is given, the stored run
        fingerprint must match it exactly — resuming under a different
        program, engine, machine configuration or fault plan is refused."""
        path = path or self.latest_path()
        if path is None:
            raise CheckpointError(
                f"no checkpoint found in {self.directory!r} — run without "
                "--resume first to create one"
            )
        try:
            with open(path, "rb") as fh:
                return _verify(path, fh, meta)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None


def _verify(path: str, fh, meta: dict | None) -> Checkpoint:
    size, magic = os.fstat(fh.fileno()).st_size, fh.read(len(MAGIC))
    if magic == b"REPRO-CKPT v1\n":
        raise CheckpointError(
            f"{path!r} is a REPRO-CKPT v1 checkpoint, a retired format that is "
            "refused unread — run without --resume to write a v2 one"
        )
    if magic != MAGIC:
        raise CheckpointError(f"{path!r} is not a repro checkpoint (bad magic)")
    line = fh.readline(size)
    if not line.endswith(b"\n"):
        raise CheckpointError(f"checkpoint {path!r} is truncated (no header)")
    if line[:9] != b"%08x " % zlib.crc32(line[9:-1]):
        raise CheckpointError(
            f"checkpoint {path!r} has a corrupt header (CRC-32 mismatch)"
        )
    try:
        doc = json.loads(line[9:-1])
        table = [(name, int(off), int(n)) for name, off, n in doc["sections"]]
        found = int(doc["round"]), bool(doc["finished"]), dict(doc["report"])
        stored = doc["meta"]
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} has a corrupt header: {exc}"
        ) from None
    if meta is not None and stored != meta:
        raise CheckpointError(
            f"checkpoint {path!r} belongs to a different run: stored "
            f"fingerprint {stored} != current {meta}"
        )
    body, end = fh.tell(), size - _U32.size * len(table)
    if end < body:
        raise CheckpointError(f"checkpoint {path!r} is truncated (no trailer)")
    fh.seek(end)
    crcs = struct.unpack(f"<{len(table)}I", fh.read())
    sections = []
    for (name, off, nbytes), crc in zip(table, crcs):
        if name is None:
            where, start, limit = path, body + off, end
        elif isinstance(name, str) and _FILE.match(name) and name.endswith(".part"):
            where, start = os.path.join(os.path.dirname(path), name), off
            limit = os.stat(where).st_size
        else:
            raise CheckpointError(f"checkpoint {path!r} names a foreign part {name!r}")
        if off < 0 or nbytes < 0 or start + nbytes > limit:
            raise CheckpointError(
                f"checkpoint {path!r} is truncated: a section of {nbytes} bytes at "
                f"{start} passes the {limit} bytes of {os.path.basename(where)}"
            )
        if _crc(where, start, nbytes) != crc:
            raise CheckpointError(
                f"checkpoint {path!r} is corrupt: a section's CRC-32 mismatch"
            )
        sections.append((where, start, nbytes))
    return Checkpoint(path, *found, sections)


def _crc(path: str, offset: int, nbytes: int) -> int:
    crc = 0
    with open(path, "rb") as fh:
        fh.seek(offset)
        while nbytes > 0:
            chunk = fh.read(min(nbytes, 1 << 20))
            if not chunk:
                break
            crc, nbytes = zlib.crc32(chunk, crc), nbytes - len(chunk)
    return crc
