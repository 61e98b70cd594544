"""The counting side of the lower bound (Theorem 3.5(1), Lemmas A.1/4.9).

On a random database with cardinality statistics ``m`` (each ``S_j`` uniform
among the size-``m_j`` subsets of ``[n]^{a_j}``):

* ``E[|q(I)|] = n^{k-a} prod_j m_j`` (Lemma A.1);
* a server receiving ``L`` bits reports at most
  ``(L / (c L(u, M, p)))^u  E[|q(I)|]`` answers in expectation for every
  edge packing ``u`` — so ``p`` load-capped servers can only cover a
  vanishing fraction when ``L << L_lower``.

Experiment E2 measures this empirically with a load-capped executor.
"""

from __future__ import annotations

import math
from typing import Mapping

from ..query.atoms import ConjunctiveQuery
from ..seq.join import expected_answer_count
from ..seq.relation import bits_per_value
from .bounds import load as load_formula
from .packing import packing_value, packing_vertices

__all__ = [
    "expected_answer_count",
    "reported_fraction_bound",
    "per_packing_fraction_bounds",
    "lower_bound_constant",
]


def lower_bound_constant(query: ConjunctiveQuery, delta: float = 0.5) -> float:
    """The constant ``c = min_j (a_j - delta) / (3 a_j)`` of Theorem 3.5.

    ``delta`` is the density exponent bound ``m_j <= n^delta``; the paper
    fixes some ``0 < delta < min_j a_j``.
    """
    return min((atom.arity - delta) / (3 * atom.arity) for atom in query.atoms)


def per_packing_fraction_bounds(
    query: ConjunctiveQuery,
    bits: Mapping[str, float],
    p: int,
    load_bits: float,
    c: float = 1.0,
) -> dict[str, float]:
    """``(L / (c L(u,M,p)))^u`` for every vertex of the packing polytope.

    Every packing yields a valid bound (Theorem 3.5), so scanning all
    vertices gives the tightest one.  Keys are human-readable packing
    descriptions; values are capped at 1.
    """
    out: dict[str, float] = {}
    for packing in packing_vertices(query):
        u = packing_value(packing)
        if u == 0:
            continue
        target = load_formula(packing, bits, p)
        ratio = load_bits / (c * target)
        fraction = min(1.0, p * ratio ** float(u)) if ratio > 0 else 0.0
        label = ",".join(
            f"{name}={value}" for name, value in sorted(packing.items())
        )
        out[label] = fraction
    return out


def reported_fraction_bound(
    query: ConjunctiveQuery,
    bits: Mapping[str, float],
    p: int,
    load_bits: float,
    c: float = 1.0,
) -> float:
    """The tightest fraction bound over all packing vertices.

    This is the Theorem 3.5 statement summed over the ``p`` servers:
    at most ``p (L/(c L(u,M,p)))^u`` of the expected answers are reported.
    """
    bounds = per_packing_fraction_bounds(query, bits, p, load_bits, c)
    return min(bounds.values(), default=1.0)


def bits_of_cardinalities(
    query: ConjunctiveQuery,
    cardinalities: Mapping[str, int],
    domain_size: int,
) -> dict[str, float]:
    """``M_j = a_j m_j log2 n`` from tuple counts — convenience for bounds."""
    per_value = bits_per_value(domain_size)
    return {
        atom.name: atom.arity * cardinalities[atom.name] * per_value
        for atom in query.atoms
    }


def answers_per_server_bound(
    query: ConjunctiveQuery,
    bits: Mapping[str, float],
    p: int,
    load_bits: float,
    cardinalities: Mapping[str, int],
    domain_size: int,
    c: float = 1.0,
) -> float:
    """Expected number of answers ``p`` capped servers can report, i.e.
    ``min_u p (L/(cL))^u * E[|q(I)|]`` — the absolute version of the bound."""
    fraction = reported_fraction_bound(query, bits, p, load_bits, c)
    expected = expected_answer_count(query, dict(cardinalities), domain_size)
    return fraction * expected


def log_p(value: float, p: int) -> float:
    """Convenience ``log_p`` used when reporting exponents in experiments."""
    return math.log(value) / math.log(p)
