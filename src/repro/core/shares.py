"""HyperCube share optimization (Section 3.1, Theorem 3.4).

The HC algorithm expresses ``p = p_1 * ... * p_k`` and writes each share as
``p_i = p^{e_i}``.  The optimal *share exponents* solve the LP (5):

    minimize   lambda
    subject to sum_i e_i <= 1
               for every atom j:  sum_{i in S_j} e_i + lambda >= mu_j
               e_i >= 0, lambda >= 0

with ``mu_j = log_p M_j``; the optimal load is ``L_upper = p^lambda``.  The
dual LP (8) maximizes ``sum_j mu_j f_j - f`` and — through the fractional
transformation ``u_j = f_j / f`` (Lemma 3.8) — connects the optimum to the
edge-packing form of Theorem 3.6.  Both LPs are solved exactly.

Real exponents must then be rounded to integer shares with
``prod_i p_i <= p``; :func:`integer_shares` implements the strategies
ablated in experiment E1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Mapping

from ..lp.fraction_utils import log_base_fraction
from ..lp.simplex import LPError, maximize
from ..query.atoms import ConjunctiveQuery


class ShareError(ValueError):
    """Raised for unusable statistics (empty relations, bad p)."""


def _mu_vector(
    query: ConjunctiveQuery, bits: Mapping[str, float], p: int
) -> dict[str, Fraction]:
    if p < 2:
        raise ShareError("share optimization needs p >= 2")
    mu: dict[str, Fraction] = {}
    for atom in query.atoms:
        m_bits = bits[atom.name]
        if m_bits <= 0:
            raise ShareError(
                f"relation {atom.name!r} has no bits; drop empty relations "
                "before optimizing shares"
            )
        mu[atom.name] = log_base_fraction(m_bits, float(p))
    return mu


@dataclass(frozen=True)
class ShareExponents:
    """An exact solution of the share LP (5)."""

    query: ConjunctiveQuery
    p: int
    exponents: Mapping[str, Fraction]
    lam: Fraction

    @property
    def load_bits(self) -> float:
        """``L_upper = p^lambda`` in bits (Theorem 3.4)."""
        return float(self.p) ** float(self.lam)

    def share(self, variable: str) -> float:
        """The fractional share ``p^{e_i}``."""
        return float(self.p) ** float(self.exponents[variable])

    def expected_atom_load(self, bits: Mapping[str, float]) -> dict[str, float]:
        """Expected per-server load ``M_j / prod_{i in S_j} p^{e_i}``."""
        loads = {}
        for atom in self.query.atoms:
            denominator = 2.0 ** sum(
                float(self.exponents[v]) * math.log2(self.p)
                for v in atom.variable_set
            )
            loads[atom.name] = bits[atom.name] / denominator
        return loads


def optimal_share_exponents(
    query: ConjunctiveQuery, bits: Mapping[str, float], p: int
) -> ShareExponents:
    """Solve the primal share LP (5) exactly.

    Variables are ``[e_1 .. e_k, lambda]``; we maximize ``-lambda``.
    """
    mu = _mu_vector(query, bits, p)
    k = query.num_variables
    variables = list(query.variables)

    objective = [Fraction(0)] * k + [Fraction(-1)]
    a: list[list[Fraction]] = []
    b: list[Fraction] = []
    # sum_i e_i <= 1
    a.append([Fraction(1)] * k + [Fraction(0)])
    b.append(Fraction(1))
    # -(sum_{i in S_j} e_i) - lambda <= -mu_j
    for atom in query.atoms:
        row = [
            Fraction(-1) if var in atom.variable_set else Fraction(0)
            for var in variables
        ]
        row.append(Fraction(-1))
        a.append(row)
        b.append(-mu[atom.name])

    result = maximize(objective, a, b)
    if not result.is_optimal:  # pragma: no cover - LP (5) is always feasible
        raise LPError(f"share LP for {query.name} returned {result.status}")
    exponents = {var: result.x[i] for i, var in enumerate(variables)}
    return ShareExponents(query=query, p=p, exponents=exponents, lam=result.x[k])


@dataclass(frozen=True)
class DualShareSolution:
    """An exact solution of the dual LP (8)."""

    query: ConjunctiveQuery
    p: int
    f: Mapping[str, Fraction]
    f0: Fraction
    objective: Fraction

    def induced_packing(self) -> dict[str, Fraction] | None:
        """``u_j = f_j / f`` (Lemma 3.8); ``None`` when ``f = 0``."""
        if self.f0 == 0:
            return None
        return {name: value / self.f0 for name, value in self.f.items()}


def dual_share_solution(
    query: ConjunctiveQuery, bits: Mapping[str, float], p: int
) -> DualShareSolution:
    """Solve the dual LP (8) exactly; its optimum equals the primal lambda."""
    mu = _mu_vector(query, bits, p)
    names = [atom.name for atom in query.atoms]
    num_atoms = len(names)

    # Variables [f_1 .. f_l, f]; maximize sum mu_j f_j - f.
    objective = [mu[name] for name in names] + [Fraction(-1)]
    a: list[list[Fraction]] = []
    b: list[Fraction] = []
    a.append([Fraction(1)] * num_atoms + [Fraction(0)])
    b.append(Fraction(1))
    for var in query.variables:
        row = [
            Fraction(1) if var in query.atom(name).variable_set else Fraction(0)
            for name in names
        ]
        row.append(Fraction(-1))
        a.append(row)
        b.append(Fraction(0))

    result = maximize(objective, a, b)
    if not result.is_optimal:  # pragma: no cover - (8) is always feasible
        raise LPError(f"dual share LP for {query.name} returned {result.status}")
    return DualShareSolution(
        query=query,
        p=p,
        f={name: result.x[i] for i, name in enumerate(names)},
        f0=result.x[num_atoms],
        objective=result.objective,
    )


def afrati_ullman_share_exponents(
    query: ConjunctiveQuery,
    bits: Mapping[str, float],
    p: int,
    iterations: int = 2000,
) -> ShareExponents:
    """The Afrati-Ullman [2] share optimizer, for comparison.

    [2] minimizes the *total* communication ``sum_j M_j / prod_{i in S_j}
    p_i`` subject to ``prod_i p_i = p`` (solved there with Lagrange
    multipliers); the paper instead minimizes the *maximum* per-server load
    (LP (5)).  In exponent space the [2] objective is

        f(e) = sum_j exp(ln M_j - ln(p) * sum_{i in S_j} e_i),

    convex over the simplex ``sum_i e_i = 1, e_i >= 0`` — we solve it with
    projected gradient descent (ample for these dimensions) and report the
    result in the same :class:`ShareExponents` shape, with ``lam`` set to
    the induced *maximum*-load exponent so the two objectives are directly
    comparable (experiment E1's ablation).
    """
    mu = _mu_vector(query, bits, p)
    variables = list(query.variables)
    k = len(variables)
    ln_p = math.log(p)

    exponents = [1.0 / k] * k

    def gradient(values: list[float]) -> list[float]:
        grad = [0.0] * k
        for atom in query.atoms:
            weight = math.exp(
                math.log(bits[atom.name])
                - ln_p * sum(values[i] for i, v in enumerate(variables)
                             if v in atom.variable_set)
            )
            for i, var in enumerate(variables):
                if var in atom.variable_set:
                    grad[i] -= ln_p * weight
        return grad

    def project_to_simplex(values: list[float]) -> list[float]:
        """Euclidean projection onto {e >= 0, sum e = 1}."""
        ordered = sorted(values, reverse=True)
        cumulative = 0.0
        rho = -1
        for i, value in enumerate(ordered):
            cumulative += value
            if value - (cumulative - 1.0) / (i + 1) > 0:
                rho = i
                running = cumulative
        theta = (running - 1.0) / (rho + 1)
        return [max(0.0, value - theta) for value in values]

    for step_index in range(iterations):
        grad = gradient(exponents)
        norm = math.sqrt(sum(g * g for g in grad)) or 1.0
        step = 0.25 / math.sqrt(1 + step_index)
        exponents = project_to_simplex(
            [e - step * g / norm for e, g in zip(exponents, grad)]
        )

    exact = {
        var: Fraction(exponents[i]).limit_denominator(10**6)
        for i, var in enumerate(variables)
    }
    lam = max(
        mu[atom.name]
        - sum(exact[v] for v in atom.variable_set)
        for atom in query.atoms
    )
    return ShareExponents(query=query, p=p, exponents=exact, lam=max(lam, Fraction(0)))


RoundingStrategy = Literal["floor", "greedy"]


def integer_shares(
    query: ConjunctiveQuery,
    exponents: Mapping[str, Fraction],
    p: int,
    strategy: RoundingStrategy = "greedy",
    bits: Mapping[str, float] | None = None,
) -> dict[str, int]:
    """Round real shares ``p^{e_i}`` down to integers with ``prod p_i <= p``.

    ``floor`` takes ``max(1, floor(p^{e_i}))``.  ``greedy`` then repeatedly
    increments the share that most reduces the estimated maximum per-atom
    load while the product still fits in ``p`` — strictly better, and the
    default.  ``bits`` is required for ``greedy``.
    """
    shares = {
        var: max(1, math.floor(float(p) ** float(exponents[var]) + 1e-9))
        for var in query.variables
    }
    if strategy == "floor":
        return shares
    if strategy != "greedy":
        raise ShareError(f"unknown rounding strategy {strategy!r}")
    if bits is None:
        raise ShareError("greedy rounding needs the bit-size statistics")

    fixed = {atom.name: atom.variable_set for atom in query.atoms}
    while True:
        product = math.prod(shares.values())
        best_var: str | None = None
        best_load = max_atom_load(fixed, shares, bits)
        for var in query.variables:
            if product // shares[var] * (shares[var] + 1) > p:
                continue
            candidate = dict(shares)
            candidate[var] += 1
            candidate_load = max_atom_load(fixed, candidate, bits)
            if candidate_load < best_load - 1e-12:
                best_load = candidate_load
                best_var = var
        if best_var is None:
            return shares
        shares[best_var] += 1


def max_atom_load(
    fixed: Mapping[str, Iterable[str]],
    shares: Mapping[str, int],
    bits: Mapping[str, float],
) -> float:
    """``max_j M_j / prod_{i in S_j} p_i``, the skew-free expected load of
    the busiest atom, where atom ``j`` fixes the dimensions ``fixed[j]``."""
    worst = 0.0
    for name, dims in fixed.items():
        worst = max(worst, bits[name] / math.prod(shares[dim] for dim in dims))
    return worst


def equal_integer_shares(query: ConjunctiveQuery, p: int) -> dict[str, int]:
    """``p_i = floor(p^{1/k})`` for every variable."""
    k = query.num_variables
    share = max(1, math.floor(p ** (1.0 / k) + 1e-9))
    return {var: share for var in query.variables}


def shares_product(shares: Mapping[str, int]) -> int:
    return math.prod(shares.values())
