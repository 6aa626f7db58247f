"""The API CGM algorithms are written against.

A :class:`CGMProgram` is a *superstep callback* object:

* :meth:`CGMProgram.setup` initializes each virtual processor's
  :class:`Context` from its slice of the input;
* :meth:`CGMProgram.round` performs one local-computation phase: it reads
  the messages delivered since the previous round (``env.incoming``), may
  send messages for the next round (``env.send``), and returns ``True``
  once this processor has finished;
* :meth:`CGMProgram.finish` extracts the processor's local output.

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

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.cgm.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cgm.config import MachineConfig


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

    __slots__ = ("pid", "v", "round_index", "cfg", "incoming", "_outbox", "rng")

    def __init__(
        self,
        pid: int,
        v: int,
        round_index: int,
        cfg: "MachineConfig",
        incoming: list[Message],
        rng: np.random.Generator,
    ) -> None:
        self.pid = pid
        self.v = v
        self.round_index = round_index
        self.cfg = cfg
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
    may advertise a slackness exponent ``kappa`` (the paper's N >= v^kappa
    requirement) and a bound on their largest single message for the
    staggered disk layout.
    """

    #: paper's slackness requirement N >= v^kappa for this algorithm.
    kappa: float = 2.0

    #: human-readable name used in reports.
    name: str = "cgm-program"

    def setup(self, ctx: Context, pid: int, cfg: "MachineConfig", local_input: Any) -> None:
        """Initialize *ctx* from this processor's slice of the input."""
        raise NotImplementedError

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        """One compound superstep; return True when this processor is done."""
        raise NotImplementedError

    def finish(self, ctx: Context) -> Any:
        """Extract this processor's local output."""
        raise NotImplementedError

    def max_message_items(self, cfg: "MachineConfig") -> int:
        """Upper bound on any single message this program sends.

        Used to size the fixed message slots of the staggered disk layout
        (Figure 2).  The default is the CGM-generic bound h = N/v (one
        processor's whole communication volume in one message); programs
        with balanced traffic should override with ~2*N/v^2 to get the
        paper's tight layout.
        """
        return max(1, -(-cfg.N // cfg.v))


class FunctionalProgram(CGMProgram):
    """Adapter: build a small CGM program from plain functions.

    Handy in tests and examples::

        prog = FunctionalProgram(
            setup=lambda ctx, pid, cfg, x: ctx.update(data=x),
            rounds=[round0, round1],
            finish=lambda ctx: ctx["data"],
        )
    """

    def __init__(
        self,
        setup: Callable[[Context, int, "MachineConfig", Any], None],
        rounds: list[Callable[[Context, RoundEnv], None]],
        finish: Callable[[Context], Any],
        name: str = "functional",
        kappa: float = 1.0,
    ) -> None:
        self._setup = setup
        self._rounds = rounds
        self._finish = finish
        self.name = name
        self.kappa = kappa

    def setup(self, ctx: Context, pid: int, cfg: "MachineConfig", local_input: Any) -> None:
        self._setup(ctx, pid, cfg, local_input)

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        if r < len(self._rounds):
            self._rounds[r](ctx, env)
        return r + 1 >= len(self._rounds)

    def finish(self, ctx: Context) -> Any:
        return self._finish(ctx)
