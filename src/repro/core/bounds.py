"""Load bounds for simple statistics (Theorems 3.5, 3.6).

For an edge packing ``u`` and bit sizes ``M``:

    K(u, M)    = prod_j M_j^{u_j}                         (Eq. 6)
    L(u, M, p) = (K(u, M) / p)^{1 / sum_j u_j}            (Eq. 7)

``L_lower = max_u L(u, M, p)`` over all packings is a lower bound on the
per-server load of any one-round algorithm (Theorem 3.5), and Theorem 3.6
shows the maximum is attained on ``pk(q)`` and equals the share-LP optimum
``L_upper`` — so the closed form below *is* the optimal load.

Everything is computed in log2 space to dodge overflow; results are floats
(bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ..lp.fraction_utils import Number, to_fraction
from ..query.atoms import ConjunctiveQuery
from .packing import (
    Packing,
    non_dominated_packing_vertices,
    packing_value,
    packing_vertices,
)


class BoundError(ValueError):
    """Raised for degenerate bound inputs (zero-weight packings etc.)."""


def log2_K(weights: Mapping[str, Number], bits: Mapping[str, float]) -> float:
    """``log2 K(u, M) = sum_j u_j log2 M_j``.

    Atoms with ``u_j = 0`` contribute nothing even if ``M_j = 0``
    (the ``0^0 = 1`` convention of the paper's sums).
    """
    total = 0.0
    for name, weight in weights.items():
        u_j = to_fraction(weight)
        if u_j == 0:
            continue
        m_j = bits[name]
        if m_j <= 0:
            return -math.inf
        total += float(u_j) * math.log2(m_j)
    return total


def K(weights: Mapping[str, Number], bits: Mapping[str, float]) -> float:
    """``K(u, M) = prod_j M_j^{u_j}`` (Eq. 6)."""
    return 2.0 ** log2_K(weights, bits)


def load(weights: Mapping[str, Number], bits: Mapping[str, float], p: int) -> float:
    """``L(u, M, p) = (K(u, M)/p)^{1/u}`` in bits (Eq. 7)."""
    u = packing_value(weights)
    if u <= 0:
        raise BoundError("packing must have positive total weight")
    exponent = (log2_K(weights, bits) - math.log2(p)) / float(u)
    return 2.0**exponent


@dataclass(frozen=True)
class LowerBound:
    """The value ``max_u L(u, M, p)`` plus the packing attaining it."""

    bits: float
    packing: Packing


def lower_bound(
    query: ConjunctiveQuery, bits: Mapping[str, float], p: int
) -> LowerBound:
    """``L_lower`` maximized over the packing polytope's vertices.

    Theorem 3.6 states the maximum over ``pk(q)`` (the *non-dominated*
    vertices), which is correct under the paper's standing assumption
    ``M_j >= M/p`` (smaller relations get broadcast away, Section 3.3).
    Outside that regime a dominated vertex can carry the maximum — e.g.
    ``q = S0(v0), S1(v1)`` with ``M = (M/8, M)`` and ``p = 4``, where
    ``(0, 1)`` yields ``M/p`` but the dominating ``(1, 1)`` only
    ``(M^2/8p)^(1/2)``.  Maximizing over *all* vertices is correct in every
    regime and always equals the share-LP optimum ``L_upper``.
    """
    best_bits = -math.inf
    best_packing: Packing | None = None
    for packing in packing_vertices(query):
        if packing_value(packing) == 0:
            continue
        value = load(packing, bits, p)
        if value > best_bits:
            best_bits = value
            best_packing = packing
    if best_packing is None:  # pragma: no cover - the polytope has vertices
        raise BoundError(f"no usable packing vertex for {query.name}")
    return LowerBound(bits=best_bits, packing=best_packing)


def vertex_loads(
    query: ConjunctiveQuery, bits: Mapping[str, float], p: int
) -> list[tuple[Packing, float]]:
    """``(u, L(u, M, p))`` for every vertex in ``pk(q)``.

    Example 3.7's table for the triangle query is exactly this list.  Note
    that :func:`lower_bound` maximizes over *all* polytope vertices, which
    matters only when some ``M_j < M/p`` (see its docstring).
    """
    rows = []
    for packing in non_dominated_packing_vertices(query):
        if packing_value(packing) == 0:
            continue
        rows.append((packing, load(packing, bits, p)))
    return rows


def space_exponent(
    query: ConjunctiveQuery, bits: Mapping[str, float], p: int
) -> float:
    """The statistics-aware space exponent of Section 3.3.

    Writing ``M = max_j M_j`` and ``M_j = M / p^{nu_j}``, the optimal load is
    ``M / p^{v*}`` with ``v* = min_{u in pk(q)} (sum_j nu_j u_j + 1)/sum_j u_j``;
    the space exponent is ``1 - v*``.  Computed directly from
    :func:`lower_bound` as ``1 - log_p(M / L_lower)``.
    """
    m_max = max(bits.values())
    if m_max <= 0:
        raise BoundError("all relations are empty")
    bound = lower_bound(query, bits, p)
    v_star = (math.log2(m_max) - math.log2(bound.bits)) / math.log2(p)
    return 1.0 - v_star


def uniform_lower_bound(query: ConjunctiveQuery, m_bits: float, p: int) -> float:
    """The uniform-cardinality special case ``M / p^{1/tau*}`` from [4]."""
    from .packing import maximum_packing_value

    tau_star = maximum_packing_value(query)
    return m_bits / p ** (1.0 / float(tau_star))


def broadcast_reduction(
    query: ConjunctiveQuery, bits: Mapping[str, float], p: int
) -> tuple[list[str], dict[str, float]]:
    """Apply the paper's broadcast rule: a relation with ``M_j <= M/p`` can be
    broadcast and dropped from the query at a <= 2x load increase
    (Section 3.3).  Returns the dropped atom names and the remaining bits."""
    m_max = max(bits.values())
    dropped = [name for name, value in bits.items() if value <= m_max / p]
    remaining = {name: value for name, value in bits.items() if name not in dropped}
    return dropped, remaining
