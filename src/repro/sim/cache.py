"""Single private cache model: set-associative, LRU, write-back.

The paper's simulations use "RISC-like [processors], with a 32 KB first
level cache and an infinite second level cache"; block sizes range from
4 to 256 bytes.  This class models one such first-level cache; the
coherence protocol lives in :mod:`repro.sim.coherence`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

#: Coherence states.  The paper's write-invalidate protocol is plain
#: MSI; EXCLUSIVE extends it to MESI for the modern machine geometries
#: (a read miss with no other valid holder installs E; a write hit on E
#: upgrades to M silently, with no invalidation broadcast).  O is not
#: modelled.
INVALID = 0
SHARED = 1
MODIFIED = 2
EXCLUSIVE = 3

#: Coherence protocols :class:`CacheConfig` accepts.
PROTOCOLS = ("msi", "mesi")


@dataclass(frozen=True, slots=True)
class CacheConfig:
    size: int = 32 * 1024
    block_size: int = 128
    assoc: int = 4
    #: write-invalidate protocol variant: ``"msi"`` (the paper's) or
    #: ``"mesi"`` (modern geometries; adds the Exclusive state)
    protocol: str = "msi"

    def __post_init__(self):
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise SimulationError(f"block size must be a power of two, got {self.block_size}")
        if self.size % (self.block_size * self.assoc):
            raise SimulationError(
                f"cache size {self.size} not divisible by block*assoc "
                f"({self.block_size}*{self.assoc})"
            )
        if self.protocol not in PROTOCOLS:
            raise SimulationError(
                f"unknown coherence protocol {self.protocol!r} "
                f"(expected one of {', '.join(PROTOCOLS)})"
            )

    @property
    def n_sets(self) -> int:
        return self.size // (self.block_size * self.assoc)


class Cache:
    """One processor's cache: maps block number -> MSI state with LRU
    replacement per set.  Block numbers are ``addr // block_size``."""

    __slots__ = ("config", "n_sets", "assoc", "sets")

    def __init__(self, config: CacheConfig):
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        # per set: insertion-ordered dict block -> state; first = LRU
        self.sets: list[dict[int, int]] = [dict() for _ in range(self.n_sets)]

    def _set_of(self, block: int) -> dict[int, int]:
        return self.sets[block % self.n_sets]

    def state(self, block: int) -> int:
        return self._set_of(block).get(block, INVALID)

    def touch(self, block: int) -> None:
        """Mark ``block`` most-recently used."""
        s = self._set_of(block)
        state = s.pop(block, None)
        if state is not None:
            s[block] = state

    def set_state(self, block: int, state: int) -> None:
        s = self._set_of(block)
        s.pop(block, None)
        s[block] = state

    def invalidate(self, block: int) -> int:
        """Remove ``block``; returns its previous state."""
        return self._set_of(block).pop(block, INVALID)

    def insert(self, block: int, state: int) -> tuple[int, int] | None:
        """Insert ``block`` (MRU).  Returns ``(victim_block, victim_state)``
        if an eviction was needed, else None."""
        s = self._set_of(block)
        victim = None
        if block not in s and len(s) >= self.assoc:
            vblock = next(iter(s))
            victim = (vblock, s.pop(vblock))
        s.pop(block, None)
        s[block] = state
        return victim
