"""EM-CGM machine configuration and the paper's parameter constraints.

The EM-CGM model (paper, appendix 6.2) extends the CGM with per-processor
external memory: each of the ``p`` real processors has ``M`` items of
internal memory and ``D`` disks with block size ``B``; a parallel I/O moves
``D*B`` items at cost ``G``; communication costs ``g`` per item and every
superstep pays the synchronization latency ``L``.

``v`` is the number of *virtual* processors of the simulated CGM algorithm
(``p <= v``, ``p | v``).  The theorems hold only inside a parameter region;
:meth:`MachineConfig.constraint_report` evaluates every condition the paper
states: ``repro machine`` displays them and ``validate(strict=True)``
enforces them for a caller that wants to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.cgm.program import Shape
from repro.util.validation import ConstraintViolation, require


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of an EM-CGM machine simulating a v-processor CGM.

    All sizes are in *items* (8-byte words).  Cost parameters follow the
    paper: ``g`` per item communicated, ``G`` per parallel I/O operation,
    ``L`` per superstep barrier.  How many OS processes simulate the p
    real processors is a choice of the run (the ``workers`` knob), not a
    parameter of the machine.
    """

    N: int                  #: problem size in items
    v: int                  #: number of virtual (CGM) processors
    p: int = 1              #: number of real processors (p <= v, p | v)
    D: int = 1              #: disks per real processor
    B: int = 64             #: block size in items
    M: int | None = None    #: internal memory items per real processor
    g: float = 1.0          #: communication cost per item
    G: float = 1000.0       #: cost of one parallel I/O operation
    L: float = 100.0        #: synchronization cost per superstep
    seed: int = 0           #: RNG seed for randomized algorithms

    def __post_init__(self) -> None:
        require(self.N >= 1, f"N must be positive, got {self.N}")
        require(self.v >= 1, f"v must be positive, got {self.v}")
        require(self.p >= 1, f"p must be positive, got {self.p}")
        require(self.p <= self.v, f"need p <= v, got p={self.p}, v={self.v}")
        require(
            self.v % self.p == 0,
            f"p must divide v (paper's exposition assumption), got v={self.v}, p={self.p}",
        )
        require(self.D >= 1, f"D must be positive, got {self.D}")
        require(self.B >= 1, f"B must be positive, got {self.B}")
        if self.M is None:
            object.__setattr__(self, "M", self.default_memory())
        require(
            self.M >= self.D * self.B,
            f"PDM requires M >= D*B (one block per disk in memory): "
            f"M={self.M}, D*B={self.D * self.B}",
        )

    # -- derived quantities --------------------------------------------------

    def default_memory(self) -> int:
        """A generous default M: four contexts' worth plus disk buffers.

        The simulation needs M = Theta(mu) with mu = Omega(N/v); a factor-4
        headroom accommodates algorithms whose contexts are a small
        constant multiple of their share of the input.
        """
        mu = -(-self.N // self.v)
        return max(8 * mu + 4 * self.D * self.B, 2 * self.D * self.B, 1024)

    @property
    def shape(self) -> Shape:
        """The simulated CGM machine's shape, all a program sees of this one."""
        return Shape(self.N, self.v, self.seed)

    @property
    def mu(self) -> int:
        """Nominal context size: one processor's share of the input."""
        return -(-self.N // self.v)

    @property
    def h(self) -> int:
        """Nominal h-relation size Theta(N/v)."""
        return -(-self.N // self.v)

    @property
    def vprocs_per_real(self) -> int:
        return self.v // self.p

    @property
    def max_balanced_message_items(self) -> int:
        """Lemma 2's bound on message size after balancing: 2*N/v^2."""
        return 2 * max(1, -(-self.N // (self.v * self.v)))

    # -- the paper's constraints ----------------------------------------------

    def constraint_report(self, kappa: float = 2.0) -> dict[str, dict[str, Any]]:
        """Evaluate every parameter condition the paper imposes.

        ``kappa`` is the per-algorithm slackness exponent (N >= v^kappa,
        kappa <= 3 for all problems in the paper).
        """
        N, v, p, D, B, M = self.N, self.v, self.p, self.D, self.B, self.M
        checks: dict[str, dict[str, Any]] = {}

        def add(name: str, ok: bool, detail: str) -> None:
            checks[name] = {"ok": bool(ok), "detail": detail}

        add(
            "N >= v*D*B (N = Omega(vDB), Thm 2/3)",
            N >= v * D * B,
            f"N={N}, v*D*B={v * D * B}",
        )
        balance_rhs = v * v * B + (v * v * (v - 1)) // 2
        add(
            "N >= v^2*B + v^2(v-1)/2 (Lemma 2, balancing)",
            N >= balance_rhs,
            f"N={N}, bound={balance_rhs}",
        )
        add(
            "B <= N/v^2 (Lemma 3 message slots hold >= 1 block)",
            B * v * v <= N,
            f"B={B}, N/v^2={N / (v * v):.1f}",
        )
        add(
            "M >= mu (context fits in internal memory)",
            M >= self.mu,
            f"M={M}, mu={self.mu}",
        )
        add(
            "N >= v^kappa (CGM slackness, kappa <= 3)",
            N >= v**kappa,
            f"N={N}, v^{kappa}={v**kappa:.0f}",
        )
        add(
            "M >= 2*D*B (PDM: 1 <= DB <= M/2)",
            M >= 2 * D * B,
            f"M={M}, 2*D*B={2 * D * B}",
        )
        add("p <= v and p | v", p <= v and v % p == 0, f"p={p}, v={v}")
        return checks

    def validate(self, kappa: float = 2.0, strict: bool = False) -> list[str]:
        """Check constraints; return the list of violated ones.

        Raises :class:`ConstraintViolation` when *strict*.
        """
        report = self.constraint_report(kappa)
        bad = [f"{k}: {d['detail']}" for k, d in report.items() if not d["ok"]]
        if bad and strict:
            raise ConstraintViolation(
                "machine configuration violates paper constraints:\n  "
                + "\n  ".join(bad)
            )
        return bad

    # -- convenience ----------------------------------------------------------

    def with_(self, **kwargs: Any) -> "MachineConfig":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        return (
            f"EM-CGM(N={self.N}, v={self.v}, p={self.p}, D={self.D}, "
            f"B={self.B}, M={self.M}, g={self.g}, G={self.G}, L={self.L})"
        )
