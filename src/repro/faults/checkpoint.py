"""Superstep-boundary checkpoints for the EM engines.

Between compound supersteps the *entire* simulation state lives on the D
disks (contexts in consecutive format, the message matrix in staggered
format) plus a small amount of engine bookkeeping — which makes round
boundaries the natural consistency point.  :class:`CheckpointManager`
persists the snapshots of that state the engine hands it — one per round
boundary for a run nobody can ask to stop (so a killed run restarts from
the newest and replays bit-identically), one at the moment of preemption
for a served job.

On-disk format (one file per round, written atomically via ``os.replace``):

.. code-block:: text

    REPRO-CKPT v1\\n                 magic line
    {"round": ..., "sha256": ..., "payload_bytes": ..., "meta": {...}}\\n
    <pickle payload>                 the engine snapshot

The header is plain JSON so a corrupt payload can still be diagnosed; the
payload's length and SHA-256 are verified on load, so truncated or garbled
snapshots refuse to resume with a :class:`CheckpointError` instead of
silently continuing from bad state.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Any

from repro.util.validation import SimulationError

MAGIC = b"REPRO-CKPT v1\n"

#: filenames are keyed by round + 1 so the initial (post-setup, round ``-1``)
#: checkpoint sorts first.
_NAME = "ckpt_{:06d}.bin"


class CheckpointError(SimulationError):
    """A checkpoint cannot be written, read, or safely resumed from."""


def write_durably(path: str, *chunks: bytes) -> None:
    """Replace *path* with *chunks*, atomically and durably: they go to a
    temp file beside it, which is flushed and fsynced before ``os.replace``
    puts it in place, so a crash leaves the old file or the new one whole."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CheckpointManager:
    """Write, prune, verify and restore round-boundary snapshots.

    ``keep`` bounds how many snapshots stay on disk (the newest survive);
    ``max_restarts`` bounds how many times the process backend may respawn
    crashed workers before giving up.  The directory is created by the
    first :meth:`save`: a manager that never saves leaves nothing behind.
    """

    def __init__(self, directory: str, keep: int = 2, max_restarts: int = 3) -> None:
        if keep < 1:
            raise CheckpointError(f"must keep at least one checkpoint, got keep={keep}")
        self.directory = directory
        self.keep = keep
        self.max_restarts = max_restarts

    # -- writing -------------------------------------------------------------

    def path_for(self, round_no: int) -> str:
        return os.path.join(self.directory, _NAME.format(round_no + 1))

    def save(self, round_no: int, snapshot: Any, meta: dict[str, Any]) -> str:
        """Atomically persist *snapshot* for *round_no*; returns the path."""
        payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "round": round_no,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "meta": meta,
        }
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(round_no)
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        write_durably(path, MAGIC, head, b"\n", payload)
        self._prune()
        return path

    def _prune(self) -> None:
        kept = self._snapshots()
        for path in kept[: -self.keep]:
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- reading -------------------------------------------------------------

    def _snapshots(self) -> list[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            os.path.join(self.directory, n)
            for n in names
            if n.startswith("ckpt_") and n.endswith(".bin")
        )

    def latest_path(self) -> str | None:
        snaps = self._snapshots()
        return snaps[-1] if snaps else None

    @property
    def has_checkpoint(self) -> bool:
        return self.latest_path() is not None

    def load(self, meta: dict[str, Any] | None = None) -> tuple[dict[str, Any], Any]:
        """Load and verify the newest snapshot → ``(header, snapshot)``.

        When *meta* is given, the stored run fingerprint must match it
        exactly — resuming under a different program, engine, machine
        configuration or fault plan is refused.
        """
        path = self.latest_path()
        if path is None:
            raise CheckpointError(
                f"no checkpoint found in {self.directory!r} — run without "
                "--resume first to create one"
            )
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None
        if not blob.startswith(MAGIC):
            raise CheckpointError(f"{path!r} is not a repro checkpoint (bad magic)")
        body = blob[len(MAGIC) :]
        nl = body.find(b"\n")
        if nl < 0:
            raise CheckpointError(f"checkpoint {path!r} is truncated (no header)")
        try:
            header = json.loads(body[:nl].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} has a corrupt header: {exc}"
            ) from None
        payload = body[nl + 1 :]
        if len(payload) != header.get("payload_bytes"):
            raise CheckpointError(
                f"checkpoint {path!r} is truncated: expected "
                f"{header.get('payload_bytes')} payload bytes, found {len(payload)}"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("sha256"):
            raise CheckpointError(
                f"checkpoint {path!r} is corrupt: payload SHA-256 mismatch"
            )
        if meta is not None and header.get("meta") != meta:
            raise CheckpointError(
                f"checkpoint {path!r} belongs to a different run: stored "
                f"fingerprint {header.get('meta')} != current {meta}"
            )
        try:
            snapshot = pickle.loads(payload)
        except Exception as exc:  # pickle raises many types on garbage
            raise CheckpointError(
                f"checkpoint {path!r} payload does not unpickle: {exc}"
            ) from None
        return header, snapshot
