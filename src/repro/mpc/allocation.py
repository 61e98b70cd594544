"""Server-range allocation for the skew-aware join's blocks.

The skew-aware join (Section 4.1) gives every heavy join value a block of
``p_h`` servers beside the light hash join over all ``p``; the paper notes
the total may exceed ``p`` but stays ``Theta(p)``.  (The bin algorithm of
Section 4.2 places its blocks itself, a slice of ``[0, p)`` each.)

:class:`ServerAllocator` hands out consecutive ranges modulo ``p`` in the
order asked, and does not balance: where the blocks add up to more than
``p`` the ranges wrap, and one server may hold two blocks of a tier (231
of 1 024 servers hold two H12 grids on zipf 1.2, seed 0, m = 10^6; ROADMAP
item 1).  :attr:`ServerAllocator.overcommit` is the total over ``p``.
"""

from __future__ import annotations


class ServerAllocator:
    """Allocates wrap-around ranges of servers from a pool of size ``p``."""

    def __init__(self, p: int) -> None:
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        self._cursor = 0
        self._allocated = 0

    def allocate(self, count: int) -> tuple[int, ...]:
        """The next ``count`` server indices (wrapping modulo ``p``)."""
        if count < 1:
            raise ValueError("cannot allocate an empty block")
        count = min(count, self.p)
        block = tuple((self._cursor + i) % self.p for i in range(count))
        self._cursor = (self._cursor + count) % self.p
        self._allocated += count
        return block

    @property
    def total_allocated(self) -> int:
        """Total servers handed out — the paper's Theta(p) check."""
        return self._allocated

    @property
    def overcommit(self) -> float:
        """Allocated servers over pool size; Theta(1) for the paper's plans."""
        return self._allocated / self.p
