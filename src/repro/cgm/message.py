"""Messages exchanged in a CGM communication round (an h-relation)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.items import item_count


@dataclass
class Message:
    """One point-to-point message of a communication superstep.

    ``size_items`` is the h-relation charge: the number of 8-byte items the
    payload occupies.  It is computed once at send time so engines on every
    backend account identically.
    """

    src: int
    dest: int
    payload: Any
    tag: str | None = None
    size_items: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.size_items < 0:
            self.size_items = item_count(self.payload)
