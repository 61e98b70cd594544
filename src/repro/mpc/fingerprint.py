"""Answer fingerprints: what a verifying run compares in place of two
answer sets.

An answer multiset ``A`` of a query with head ``(v_1, ..., v_k)`` has the
fingerprint ``(|A|, F(A))``, ``F(A) = Σ_{a ∈ A} Π_i g_{v_i}(a_i) mod
(2^61 - 1)``, where ``g_v`` is the hash polynomial of a
:class:`~repro.mpc.hashing.HashFamily` under the fixed seed :data:`SEED`
and the salt ``answers:<v>`` — no routing hash uses that salt.  Both
parts are one :func:`repro.seq.acyclic.fold`: on a database, ``q(I)``'s
fingerprint; on a round's deliveries tagged with their servers, that of
every answer the servers emit, once per emission — for an acyclic query
in ``O(m)`` and ``O(deliveries)``, over a join tree that lists no answer.

Equal sets have equal fingerprints.  Two different multisets of ``k``-ary
answers with the same count differ by a nonzero polynomial of degree ``k``
in the values ``g_v(c)``, so — were those values independent and uniform
over ``GF(2^61 - 1)`` — their ``F`` agree with probability at most ``k /
(2^61 - 1)`` (Schwartz–Zippel).  The polynomials are 5-wise independent,
not fully, and fixed: the bound assumes answers that do not depend on the
seed, which routing on other salts cannot.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..query.atoms import ConjunctiveQuery
from ..seq.acyclic import Count, fold
from .hashing import _MASK_32, _P, _SHIFT_32, HashFamily, mulmod61

#: The seed of every answer hash: one fingerprint for a set, whatever the
#: run's own seed.
SEED = 0

_TWO_32 = np.uint64(1 << 32)


class _Hashed(Count):
    """:class:`~repro.seq.acyclic.Count`'s pass with every variable
    weighed by its answer hash, mod ``2^61 - 1``."""

    def __init__(self, salts: Mapping[str, str]) -> None:
        self._family = HashFamily(SEED)
        self._salts = salts

    def ones(self, n: int) -> np.ndarray:
        return np.ones(n, dtype=np.uint64)

    def weight(self, variable: str, values: np.ndarray) -> np.ndarray:
        return self._family.raw_column(self._salts[variable], values)

    def times(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return mulmod61(a, b)

    def sums(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        # Halves of a value below 2^61 sum without wrapping over a run
        # shorter than 2^32.
        low = np.add.reduceat(values & _MASK_32, starts) % _P
        high = np.add.reduceat(values >> _SHIFT_32, starts) % _P
        return (mulmod61(high, _TWO_32) + low) % _P


def fingerprint(
    query: ConjunctiveQuery,
    relations: Mapping[str, np.ndarray],
    tagged: bool = False,
) -> tuple[int, int]:
    """``(count, F)`` of the answers of ``query`` on ``relations``
    (:func:`repro.seq.acyclic.fold`'s columns: with ``tagged``, every
    server's local answers)."""
    salts = {v: f"answers:{v}" for v in query.head}
    return fold(query, relations, (Count(), _Hashed(salts)), tagged)
