"""Simulation configuration.

:class:`MachineConfig` carries every parameter the paper varies
(section 5, parameters 1–8) plus the modelling knobs the paper states as
fixed assumptions:

1. instruction format — :attr:`MachineConfig.instruction_format`;
2. instruction cache size — :attr:`MachineConfig.icache_size`;
3. cache line size — :attr:`MachineConfig.line_size`;
4. external memory speed — :attr:`MachineConfig.memory_access_time`;
5. input bus width — :attr:`MachineConfig.input_bus_width`;
6. pipelined external memory — :attr:`MachineConfig.memory_pipelined`;
7. instruction queue size — :attr:`MachineConfig.iq_size`;
8. instruction queue buffer size — :attr:`MachineConfig.iqb_size`;
plus the data-vs-instruction priority at the memory interface
(:attr:`MachineConfig.priority`) and the true-prefetch policy toggle
(:attr:`MachineConfig.true_prefetch`), both discussed in section 6.

:data:`PIPE_CONFIGURATIONS` holds the four line/IQ/IQB combinations of
the paper's Table II.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace

from ..frontend.conventional import PrefetchPolicy
from ..isa.encoding import InstructionFormat
from ..memory.fpu import FpuLatencies
from ..memory.requests import RequestPriority

__all__ = [
    "FetchStrategy",
    "PrefetchPolicy",
    "MachineConfig",
    "PipeConfiguration",
    "PIPE_CONFIGURATIONS",
    "PAPER_CACHE_SIZES",
]


class FetchStrategy(enum.Enum):
    PIPE = "pipe"
    CONVENTIONAL = "conventional"
    TIB = "tib"  #: target instruction buffer, no cache (section 2.1)


@dataclass(frozen=True)
class PipeConfiguration:
    """One row of the paper's Table II (named after its IQ-IQB sizes)."""

    name: str
    line_size: int
    iq_size: int
    iqb_size: int

    def as_kwargs(self) -> dict[str, int]:
        return {
            "line_size": self.line_size,
            "iq_size": self.iq_size,
            "iqb_size": self.iqb_size,
        }


#: Table II — "Simulated IQ and IQB configurations".
PIPE_CONFIGURATIONS: dict[str, PipeConfiguration] = {
    "8-8": PipeConfiguration("8-8", line_size=8, iq_size=8, iqb_size=8),
    "16-16": PipeConfiguration("16-16", line_size=16, iq_size=16, iqb_size=16),
    "16-32": PipeConfiguration("16-32", line_size=32, iq_size=16, iqb_size=32),
    "32-32": PipeConfiguration("32-32", line_size=32, iq_size=32, iqb_size=32),
}

#: Cache sizes (bytes) swept along the x-axis of Figures 4–6.
PAPER_CACHE_SIZES: tuple[int, ...] = (32, 64, 128, 256, 512)


@dataclass(frozen=True)
class MachineConfig:
    """Full parameterisation of one simulation run.

    Defaults describe the headline PIPE machine: configuration 16-16 with
    the 128-byte cache of the fabricated chip, an 8-byte input bus, 6-cycle
    non-pipelined memory, the fixed 32-bit instruction format, and
    instruction priority at the memory interface (all per sections 3.2/6).
    """

    fetch_strategy: FetchStrategy = FetchStrategy.PIPE
    icache_size: int = 128
    line_size: int = 16
    iq_size: int = 16
    iqb_size: int = 16
    sub_block_size: int = 4
    input_bus_width: int = 8
    memory_access_time: int = 6
    memory_pipelined: bool = False
    instruction_format: InstructionFormat = InstructionFormat.FIXED32
    priority: RequestPriority = RequestPriority.INSTRUCTION_FIRST
    true_prefetch: bool = True
    #: conventional frontend only: which of Hill's prefetch strategies
    prefetch_policy: PrefetchPolicy = PrefetchPolicy.ALWAYS
    #: cache associativity (1 = direct mapped, the paper's organisation)
    cache_associativity: int = 1
    #: TIB frontend only: number of branch-target entries and their size
    tib_entries: int = 4
    tib_entry_bytes: int = 16
    stream_buffer_bytes: int = 32
    branch_resolution_latency: int = 2
    laq_capacity: int = 8
    ldq_capacity: int = 8
    saq_capacity: int = 8
    sdq_capacity: int = 8
    fpu_latencies: FpuLatencies = field(default_factory=FpuLatencies)
    max_cycles: int = 500_000_000

    def __post_init__(self) -> None:
        if self.icache_size <= 0 or self.icache_size % self.line_size != 0:
            raise ValueError(
                f"icache_size {self.icache_size} must be a positive multiple "
                f"of line_size {self.line_size}"
            )
        if self.line_size % self.sub_block_size != 0:
            raise ValueError(
                f"line_size {self.line_size} must be a multiple of "
                f"sub_block_size {self.sub_block_size}"
            )
        if self.sub_block_size % 2 != 0:
            raise ValueError("sub_block_size must cover whole parcels")
        if self.input_bus_width < 4 or self.input_bus_width % 4 != 0:
            raise ValueError("input_bus_width must be a positive multiple of 4")
        if self.memory_access_time < 1:
            raise ValueError("memory_access_time must be at least 1 cycle")
        if self.fetch_strategy is FetchStrategy.PIPE:
            if self.iqb_size < self.line_size:
                raise ValueError(
                    f"iqb_size {self.iqb_size} must hold a full line "
                    f"({self.line_size} bytes)"
                )
            if self.iq_size < 4:
                raise ValueError("iq_size must hold at least one instruction")
        if self.fetch_strategy is FetchStrategy.TIB:
            if self.tib_entries < 1 or self.tib_entry_bytes < 4:
                raise ValueError("TIB needs at least one entry of one instruction")
            if self.stream_buffer_bytes < 2 * self.input_bus_width:
                raise ValueError("stream buffer must hold two bus transfers")
        if self.cache_associativity < 1:
            raise ValueError("cache_associativity must be >= 1")
        if self.icache_size % (self.line_size * self.cache_associativity) != 0:
            raise ValueError(
                "icache_size must be a multiple of line_size x associativity"
            )
        if self.branch_resolution_latency < 1:
            raise ValueError("branch_resolution_latency must be >= 1")
        for name in ("laq_capacity", "ldq_capacity", "saq_capacity", "sdq_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def pipe(
        cls,
        configuration: PipeConfiguration | str = "16-16",
        icache_size: int = 128,
        **overrides,
    ) -> "MachineConfig":
        """A PIPE machine using one of Table II's IQ/IQB configurations."""
        if isinstance(configuration, str):
            configuration = PIPE_CONFIGURATIONS[configuration]
        return cls(
            fetch_strategy=FetchStrategy.PIPE,
            icache_size=icache_size,
            **configuration.as_kwargs(),
            **overrides,
        )

    @classmethod
    def conventional(cls, icache_size: int = 128, **overrides) -> "MachineConfig":
        """Hill's conventional always-prefetch cache.

        Uses the priority order of the conventional model (data fetches
        over instruction fetches over prefetches) unless overridden.
        """
        overrides.setdefault("priority", RequestPriority.DATA_FIRST)
        overrides.setdefault("line_size", 16)
        return cls(
            fetch_strategy=FetchStrategy.CONVENTIONAL,
            icache_size=icache_size,
            **overrides,
        )

    @classmethod
    def tib(
        cls,
        tib_entries: int = 4,
        tib_entry_bytes: int = 16,
        **overrides,
    ) -> "MachineConfig":
        """A cacheless Target Instruction Buffer machine (section 2.1).

        Uses data-first priority like the other non-queue design (the
        stream engine generates heavy off-chip traffic by construction).
        """
        overrides.setdefault("priority", RequestPriority.DATA_FIRST)
        return cls(
            fetch_strategy=FetchStrategy.TIB,
            tib_entries=tib_entries,
            tib_entry_bytes=tib_entry_bytes,
            **overrides,
        )

    def with_overrides(self, **overrides) -> "MachineConfig":
        """A copy with some fields replaced (configs are immutable)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization (simulation-cache keys and persisted results)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict carrying every field, in declaration order.

        Enums serialize as their ``.value``; :class:`FpuLatencies` as a
        nested dict.  :meth:`from_dict` round-trips exactly, and the
        simulation cache fingerprints the canonical JSON of this dict —
        so *any* field change changes the fingerprint.
        """
        out: dict = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, enum.Enum):
                value = value.value
            elif isinstance(value, FpuLatencies):
                value = {
                    "add": value.add,
                    "sub": value.sub,
                    "mul": value.mul,
                    "div": value.div,
                }
            out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        """Rebuild a config serialized by :meth:`to_dict`.

        Missing fields take the dataclass defaults, so hand-written
        partial dicts (e.g. just
        ``{"fetch_strategy": "conventional", "icache_size": 128}``)
        build the paper's baseline machine with those overrides; an
        *unknown* key is still an error.
        """
        kwargs = dict(data)
        if "fetch_strategy" in kwargs:
            kwargs["fetch_strategy"] = FetchStrategy(kwargs["fetch_strategy"])
        if "instruction_format" in kwargs:
            kwargs["instruction_format"] = InstructionFormat(
                kwargs["instruction_format"]
            )
        if "priority" in kwargs:
            kwargs["priority"] = RequestPriority(kwargs["priority"])
        if "prefetch_policy" in kwargs:
            kwargs["prefetch_policy"] = PrefetchPolicy(kwargs["prefetch_policy"])
        if "fpu_latencies" in kwargs:
            kwargs["fpu_latencies"] = FpuLatencies(**kwargs["fpu_latencies"])
        return cls(**kwargs)

    def describe(self) -> str:
        """One-line human-readable summary used in experiment reports."""
        if self.fetch_strategy is FetchStrategy.PIPE:
            shape = f"PIPE {self.iq_size}-{self.iqb_size} line={self.line_size}"
        elif self.fetch_strategy is FetchStrategy.TIB:
            shape = f"TIB {self.tib_entries}x{self.tib_entry_bytes}B"
        else:
            shape = f"conventional line={self.line_size}"
        memory = (
            f"T={self.memory_access_time}"
            f"{'p' if self.memory_pipelined else ''} bus={self.input_bus_width}B"
        )
        return f"{shape} cache={self.icache_size}B {memory}"

    def label(self) -> str:
        """:meth:`describe`, plus each field it leaves out whose value
        differs from the strategy's preset: a name no other machine
        shares (``... priority=data_first`` for a data-first PIPE
        machine).  A preset machine's label is its description."""
        shown = _DESCRIBED[self.fetch_strategy]
        preset = _PRESETS[self.fetch_strategy]
        extras = [
            f"{name}={value}"
            for name, value in self.to_dict().items()
            if name not in shown and value != preset[name]
        ]
        return " ".join([self.describe(), *extras])


#: the fields :meth:`MachineConfig.describe` prints, per strategy
_DESCRIBED = {
    strategy: {
        "fetch_strategy",
        "icache_size",
        "memory_access_time",
        "memory_pipelined",
        "input_bus_width",
        *shape,
    }
    for strategy, shape in (
        (FetchStrategy.PIPE, ("line_size", "iq_size", "iqb_size")),
        (FetchStrategy.CONVENTIONAL, ("line_size",)),
        (FetchStrategy.TIB, ("tib_entries", "tib_entry_bytes")),
    )
}

#: each strategy's preset machine, as :meth:`MachineConfig.to_dict` gives it
_PRESETS = {
    FetchStrategy.PIPE: MachineConfig.pipe().to_dict(),
    FetchStrategy.CONVENTIONAL: MachineConfig.conventional().to_dict(),
    FetchStrategy.TIB: MachineConfig.tib().to_dict(),
}
