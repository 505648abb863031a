"""Instruction-fetch frontends.

Two strategies, as compared by the paper:

* :class:`~repro.frontend.pipe_fetch.PipeFetchUnit` — the PIPE approach:
  a small direct-mapped cache plus an Instruction Queue and Instruction
  Queue Buffer (the paper's contribution);
* :class:`~repro.frontend.conventional.ConventionalFetchUnit` — Hill's
  always-prefetch conventional cache (the baseline).

Both are built on the shared sub-blocked
:class:`~repro.frontend.icache.InstructionCache` array.
"""

from .base import FetchStats, FetchUnit
from .conventional import ConventionalFetchUnit, PrefetchPolicy
from .icache import CacheStats, InstructionCache
from .pipe_fetch import PipeFetchUnit
from .tib import TibFetchUnit, TibStats

__all__ = [
    "CacheStats",
    "ConventionalFetchUnit",
    "FetchStats",
    "FetchUnit",
    "InstructionCache",
    "PrefetchPolicy",
    "PipeFetchUnit",
    "TibFetchUnit",
    "TibStats",
]
