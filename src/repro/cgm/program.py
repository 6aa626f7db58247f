"""The API CGM algorithms are written against.

A :class:`CGMProgram` is a *superstep callback* object:

* :meth:`CGMProgram.setup` initializes each virtual processor's
  :class:`Context` from its slice of the input;
* :meth:`CGMProgram.round` performs one local-computation phase: it reads
  the messages delivered since the previous round (``env.incoming``), may
  send messages for the next round (``env.send``), and returns ``True``
  once this processor has finished;
* :meth:`CGMProgram.finish` extracts the processor's local output.

A program sees the :class:`Shape` of the simulated CGM machine — N, v
and the seed — and nothing of the EM-CGM machine that runs it: the same
program on the same shape computes the same contexts and messages
whatever p, D, B and M are (the paper's simulation of *any* v-processor
algorithm).

**All persistent state must live in the Context.**  Between rounds the
external-memory engines genuinely serialize contexts to the simulated
disks and reload them — state kept anywhere else will not survive.  The
in-memory engine deliberately round-trips nothing, which is exactly why
every algorithm is differentially tested on both.

The engine keeps calling :meth:`round` until *every* processor has
returned ``True`` **and** no messages are in flight, so a processor that
finishes early must keep returning ``True`` (and tolerate empty rounds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.cgm.message import Message


@dataclass(frozen=True)
class Shape:
    """What a CGM program may depend on: the problem size, the number of
    virtual processors and the seed of their random streams."""

    N: int      #: problem size in items
    v: int      #: number of virtual (CGM) processors
    seed: int   #: RNG seed for randomized algorithms


class Context(dict):
    """Per-virtual-processor persistent store.

    A plain dict so the EM engines can serialize it: string keys, and
    values from the closed set of :mod:`repro.util.items` (scalars, str,
    bytes, NumPy scalars and non-object arrays, tuples/lists/dicts of
    those) — keep it flat: an array costs one header, a Python container
    one node per element, every round.  Attribute access is provided for readability:
    ``ctx.keys_`` style is avoided; use ``ctx["name"]``.
    """

    __slots__ = ()


class RoundEnv:
    """What a virtual processor sees during one round."""

    __slots__ = ("pid", "v", "round_index", "shape", "incoming", "_outbox", "rng")

    def __init__(
        self,
        pid: int,
        round_index: int,
        shape: Shape,
        incoming: list[Message],
        rng: np.random.Generator,
    ) -> None:
        self.pid = pid
        self.v = shape.v
        self.round_index = round_index
        self.shape = shape
        self.incoming = incoming
        self.rng = rng
        self._outbox: list[Message] = []

    def send(self, dest: int, payload: Any, tag: str | None = None) -> None:
        """Queue *payload* for delivery to processor *dest* next round."""
        if not (0 <= dest < self.v):
            raise ValueError(f"destination {dest} out of range 0..{self.v - 1}")
        self._outbox.append(Message(self.pid, dest, payload, tag))

    def messages(self, tag: str | None = None) -> list[Message]:
        """Incoming messages, optionally filtered by tag, sorted by source.

        Sorting by source makes algorithms independent of engine delivery
        order, which differs between backends.
        """
        msgs = [m for m in self.incoming if tag is None or m.tag == tag]
        return sorted(msgs, key=lambda m: (m.src, m.tag or ""))

    @property
    def outbox(self) -> list[Message]:
        return self._outbox


class CGMProgram:
    """Base class for CGM algorithms.

    Subclasses override :meth:`setup`, :meth:`round`, :meth:`finish` and
    may advertise a bound on their largest single message for the
    staggered disk layout.
    """

    #: human-readable name used in reports.
    name: str = "cgm-program"

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        """Initialize *ctx* from this processor's slice of the input."""
        raise NotImplementedError

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        """One compound superstep; return True when this processor is done."""
        raise NotImplementedError

    def finish(self, ctx: Context) -> Any:
        """Extract this processor's local output."""
        raise NotImplementedError

    def max_message_items(self, shape: Shape) -> int:
        """Upper bound on any single message this program sends.

        Used to size the fixed message slots of the staggered disk layout
        (Figure 2).  The default is the CGM-generic bound h = N/v (one
        processor's whole communication volume in one message); programs
        with balanced traffic should override with ~2*N/v^2 to get the
        paper's tight layout.
        """
        return max(1, -(-shape.N // shape.v))


class FunctionalProgram(CGMProgram):
    """Adapter: build a small CGM program from plain functions.

    Handy in tests and examples::

        prog = FunctionalProgram(
            setup=lambda ctx, pid, shape, x: ctx.update(data=x),
            rounds=[round0, round1],
            finish=lambda ctx: ctx["data"],
        )
    """

    def __init__(
        self,
        setup: Callable[[Context, int, Shape, Any], None],
        rounds: list[Callable[[Context, RoundEnv], None]],
        finish: Callable[[Context], Any],
        name: str = "functional",
    ) -> None:
        self._setup = setup
        self._rounds = rounds
        self._finish = finish
        self.name = name

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        self._setup(ctx, pid, shape, local_input)

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        if r < len(self._rounds):
            self._rounds[r](ctx, env)
        return r + 1 >= len(self._rounds)

    def finish(self, ctx: Context) -> Any:
        return self._finish(ctx)
