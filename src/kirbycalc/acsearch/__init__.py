from .core import (BoundsError, SearchConfig, SearchOutcome, SearchStats,
                   TraceError, apply_move, canonical_key, is_trivial_form,
                   replay_trace, search, TRIVIALIZED, EXHAUSTED, BUDGET)

# The search has one word kernel, in pure Python; reports name it.
KERNEL_IMPL = "python"

__all__ = [
    "BoundsError", "SearchConfig", "SearchOutcome", "SearchStats",
    "TraceError", "apply_move", "canonical_key", "is_trivial_form",
    "replay_trace", "search", "TRIVIALIZED", "EXHAUSTED", "BUDGET",
    "KERNEL_IMPL",
]
