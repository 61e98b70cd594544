"""Exact two-phase simplex over rationals.

Solves  ``maximize c.x  subject to  A x <= b,  x >= 0``  with every pivot
performed in :class:`fractions.Fraction` arithmetic, so the optima of the
paper's LPs — the share LP (5), its dual (8), the per-bin LP (11) — are
exact.  Bland's anti-cycling rule guarantees termination.  All the LPs in
this project have at most a few dozen variables and constraints, so the
dense tableau is entirely adequate.

A given LP is solved once per process: :func:`maximize` converts and checks
its input on every call (a malformed LP raises :class:`LPError` every time),
then solves under one bounded :func:`functools.lru_cache` keyed on the LP
itself, ``(c, A, b)`` as tuples of ``Fraction``s.  The share LP depends on
``(q, M, p)`` alone, so every plan, algorithm and catalog sharing those
shares one solve (≈0.8 ms of big-integer gcds: ``mu_j = log_p M_j`` has a
10¹² denominator) and no call site knows.  :class:`LPResult` is frozen, so
a cached value is a fresh one; ``maximize.cache_info()`` reads the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

from .fraction_utils import Number, to_fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPError(ValueError):
    """Raised for malformed LP inputs."""


@dataclass(frozen=True)
class LPResult:
    """Outcome of a simplex run.

    ``objective`` and ``x`` are ``None`` unless ``status == OPTIMAL``.
    """

    status: str
    objective: Fraction | None = None
    x: tuple[Fraction, ...] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _reduce_objective(
    obj: list[Fraction], table: list[list[Fraction]], basis: list[int]
) -> None:
    """Zero out the objective coefficients of the basic variables."""
    for i, basic in enumerate(basis):
        factor = obj[basic]
        if factor != 0:
            obj[:] = [a - factor * t for a, t in zip(obj, table[i])]


def _pivot(
    table: list[list[Fraction]],
    obj: list[Fraction],
    basis: list[int],
    row: int,
    col: int,
) -> None:
    pivot = table[row][col]
    table[row] = [value / pivot for value in table[row]]
    for r in range(len(table)):
        if r != row and table[r][col] != 0:
            factor = table[r][col]
            table[r] = [a - factor * t for a, t in zip(table[r], table[row])]
    factor = obj[col]
    if factor != 0:
        obj[:] = [a - factor * t for a, t in zip(obj, table[row])]
    basis[row] = col


def _run_simplex(
    table: list[list[Fraction]],
    obj: list[Fraction],
    basis: list[int],
    allowed: Sequence[bool],
) -> str:
    """Pivot to optimality (Bland's rule).  Returns OPTIMAL or UNBOUNDED."""
    num_cols = len(obj) - 1
    while True:
        entering = next(
            (j for j in range(num_cols) if allowed[j] and obj[j] > 0), None
        )
        if entering is None:
            return OPTIMAL
        leaving: int | None = None
        best_ratio: Fraction | None = None
        for r, row in enumerate(table):
            coeff = row[entering]
            if coeff > 0:
                ratio = row[-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving is None:
            return UNBOUNDED
        _pivot(table, obj, basis, leaving, entering)


#: Distinct LPs remembered (an entry is a few dozen ``Fraction``s).
LP_CACHE_SIZE = 1024


def maximize(
    c: Sequence[Number],
    a: Sequence[Sequence[Number]],
    b: Sequence[Number],
) -> LPResult:
    """Maximize ``c.x`` subject to ``A x <= b`` and ``x >= 0``, exactly."""
    c_frac = tuple(to_fraction(v) for v in c)
    a_frac = tuple(tuple(to_fraction(v) for v in row) for row in a)
    b_frac = tuple(to_fraction(v) for v in b)
    n = len(c_frac)
    m = len(a_frac)
    if len(b_frac) != m:
        raise LPError(f"A has {m} rows but b has {len(b_frac)} entries")
    for i, row in enumerate(a_frac):
        if len(row) != n:
            raise LPError(f"row {i} has {len(row)} entries, expected {n}")
    return _solve(c_frac, a_frac, b_frac)


@lru_cache(maxsize=LP_CACHE_SIZE)
def _solve(c_frac: tuple, a_frac: tuple[tuple, ...], b_frac: tuple) -> LPResult:
    """The two-phase solve of a well-formed LP (what ``maximize`` memoises)."""
    n = len(c_frac)
    m = len(a_frac)

    # Tableau layout: [original 0..n) | slack n..n+m) | artificial ...] | rhs.
    negated = [b_frac[i] < 0 for i in range(m)]
    artificial_rows = [i for i in range(m) if negated[i]]
    num_art = len(artificial_rows)
    num_cols = n + m + num_art

    table: list[list[Fraction]] = []
    basis: list[int] = []
    art_col = {row: n + m + k for k, row in enumerate(artificial_rows)}
    for i in range(m):
        sign = Fraction(-1) if negated[i] else Fraction(1)
        row = [sign * v for v in a_frac[i]]
        row += [Fraction(0)] * m
        row[n + i] = sign  # slack (negated rows carry a surplus variable)
        row += [Fraction(0)] * num_art
        if negated[i]:
            row[art_col[i]] = Fraction(1)
        row.append(sign * b_frac[i])
        table.append(row)
        basis.append(art_col[i] if negated[i] else n + i)

    # ---------------- phase 1: drive artificials to zero ----------------
    if num_art:
        phase1_obj = [Fraction(0)] * num_cols + [Fraction(0)]
        for col in art_col.values():
            phase1_obj[col] = Fraction(-1)
        _reduce_objective(phase1_obj, table, basis)
        allowed = [True] * num_cols
        status = _run_simplex(table, phase1_obj, basis, allowed)
        if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
            raise LPError("phase 1 simplex reported unbounded")
        if -phase1_obj[-1] != 0:
            return LPResult(status=INFEASIBLE)
        # Drive artificials that stayed basic (at value zero, degenerately)
        # out of the basis.  Merely barring them from *entering* in phase 2
        # is not enough: a still-basic artificial's row keeps pivoting with
        # the rest of the tableau and its value can become positive again,
        # silently violating the original constraint.  Pivot each one out on
        # any nonzero structural/slack column; an all-zero row is a redundant
        # constraint and is dropped.
        for r in range(len(table) - 1, -1, -1):
            if basis[r] < n + m:
                continue
            col = next((j for j in range(n + m) if table[r][j] != 0), None)
            if col is None:
                del table[r]
                del basis[r]
            else:
                _pivot(table, phase1_obj, basis, r, col)

    # ---------------- phase 2: the real objective ----------------
    allowed = [True] * num_cols
    for col in art_col.values():
        allowed[col] = False
    phase2_obj = list(c_frac) + [Fraction(0)] * (m + num_art) + [Fraction(0)]
    _reduce_objective(phase2_obj, table, basis)
    status = _run_simplex(table, phase2_obj, basis, allowed)
    if status != OPTIMAL:
        return LPResult(status=UNBOUNDED)

    x = [Fraction(0)] * n
    for i, basic in enumerate(basis):
        if basic < n:
            x[basic] = table[i][-1]
    return LPResult(status=OPTIMAL, objective=-phase2_obj[-1], x=tuple(x))


maximize.cache_info = _solve.cache_info
maximize.cache_clear = _solve.cache_clear


def minimize(
    c: Sequence[Number],
    a: Sequence[Sequence[Number]],
    b: Sequence[Number],
) -> LPResult:
    """Minimize ``c.x`` subject to ``A x <= b`` and ``x >= 0``, exactly."""
    result = maximize([-to_fraction(v) for v in c], a, b)
    if result.is_optimal:
        return LPResult(status=OPTIMAL, objective=-result.objective, x=result.x)
    return result
