"""Per-processor private state for the simulated machine."""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.errors import MachineError


class Processor:
    """A simulated processor: a rank plus a private key-value memory.

    Algorithms store named arrays (tensor blocks, vector shards,
    receive buffers) in :attr:`memory`. The class tracks a high-water
    mark of resident words so memory-usage claims (paper §6.1.3) can be
    checked, though the paper's analysis is memory-*independent*.
    """

    def __init__(self, rank: int):
        if rank < 0:
            raise MachineError(f"rank must be >= 0, got {rank}")
        self.rank = rank
        self.memory: Dict[str, Any] = {}
        # Words of each stored value and their running total, so a
        # store costs O(stored value), not a walk of all memory.
        self._words: Dict[str, int] = {}
        self._resident = 0
        self._peak_words = 0

    def store(self, key: str, value: Any) -> None:
        """Bind ``key`` to ``value`` in private memory."""
        self.memory[key] = value
        words = _value_words(value)
        self._resident += words - self._words.get(key, 0)
        self._words[key] = words
        self._peak_words = max(self._peak_words, self._resident)

    def load(self, key: str) -> Any:
        """Read a private value; raises if absent."""
        try:
            return self.memory[key]
        except KeyError:
            raise MachineError(
                f"processor {self.rank} has no value named {key!r}"
            ) from None

    def discard(self, key: str) -> None:
        """Drop a value if present."""
        self.memory.pop(key, None)
        self._resident -= self._words.pop(key, 0)

    def resident_words(self) -> int:
        """Current float64 words resident in private memory (arrays,
        and arrays one level down in dicts), walked from scratch."""
        return sum(_value_words(value) for value in self.memory.values())

    def peak_words(self) -> int:
        """High-water mark of :meth:`resident_words` across stores."""
        return self._peak_words

    def __repr__(self) -> str:
        return f"Processor(rank={self.rank}, keys={sorted(self.memory)})"


def _value_words(value: Any) -> int:
    """Words one stored value occupies: an array's size, or the summed
    sizes of the arrays in a dict; anything else counts zero."""
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, dict):
        return sum(v.size for v in value.values() if isinstance(v, np.ndarray))
    return 0
