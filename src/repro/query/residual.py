"""Residual and extended queries (Sections 4.2, 4.3 and Appendix A).

For a set of variables ``x``, the *residual query* ``q_x`` is obtained from
``q`` by deleting the variables of ``x`` from every atom, decreasing arities
accordingly.  The lower bound of Theorem 4.7 maximizes over fractional edge
packings of ``q_x`` that *saturate* ``x``: a packing ``u`` saturates variable
``x_i in x`` when ``sum_{j : x_i in vars(S_j)} u_j >= 1``, where atom
membership refers to the **original** query.

The *extended query* ``q'`` adds a fresh unary atom ``T_i(x_i)`` per variable
(Appendix A); the slack values ``u'_i = 1 - sum_{j: x_i in S_j} u_j`` complete
any edge packing of ``q`` into a tight packing/cover of ``q'``, which is the
form required by Friedgut's inequality.

Design note: if ``x`` swallows *all* variables of
some atom, that atom has arity zero in ``q_x`` and the residual packing
polytope would be unbounded in its coordinate.  We retain the implicit bound
``u_j <= 1`` that every atom satisfies in the original query, keeping the
polytope bounded; this matches the paper's use, where each ``u_j`` originates
from a packing of a query in which ``S_j`` still contains variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Mapping

from .atoms import Atom, ConjunctiveQuery, QueryError

Number = Fraction | int | float


@dataclass(frozen=True)
class ResidualQuery:
    """The residual query ``q_x`` together with its provenance.

    Attributes
    ----------
    original:
        The query ``q`` the residual was derived from.
    removed:
        The variable set ``x``.
    query:
        The residual conjunctive query ``q_x`` (atoms keep their names; their
        arities drop by the number of removed positions).
    """

    original: ConjunctiveQuery
    removed: frozenset[str]
    query: ConjunctiveQuery

    @property
    def remaining(self) -> tuple[str, ...]:
        return self.query.variables

    def saturates(self, packing: Mapping[str, Number]) -> bool:
        """Does ``packing`` (atom name -> weight) saturate every removed
        variable?  Membership is judged on the *original* atoms."""
        for var in self.removed:
            total = sum(
                Fraction(packing.get(atom.name, 0))
                for atom in self.original.atoms
                if var in atom.variable_set
            )
            if total < 1:
                return False
        return True


def residual_query(
    query: ConjunctiveQuery, removed: AbstractSet[str]
) -> ResidualQuery:
    """Build the residual query ``q_x`` for ``x = removed``.

    >>> from .families import triangle_query
    >>> r = residual_query(triangle_query(), {"x1"})
    >>> [str(a) for a in r.query.atoms]
    ['S1(x2)', 'S2(x2, x3)', 'S3(x3)']
    """
    removed_set = frozenset(removed)
    unknown = removed_set - set(query.variables)
    if unknown:
        raise QueryError(
            f"cannot remove unknown variables {sorted(unknown)} from {query.name}"
        )
    atoms = []
    for atom in query.atoms:
        kept = tuple(v for v in atom.variables if v not in removed_set)
        atoms.append(Atom(atom.name, kept))
    head = tuple(v for v in query.variables if v not in removed_set)
    residual = ConjunctiveQuery(atoms, head=head, name=f"{query.name}_res")
    return ResidualQuery(original=query, removed=removed_set, query=residual)


def extended_query(query: ConjunctiveQuery, prefix: str = "T_") -> ConjunctiveQuery:
    """The extended query ``q'`` with one fresh unary atom per variable.

    Used in the lower-bound proofs (Appendix A): any edge packing ``u`` of
    ``q`` extends with slacks ``u'_i`` to a tight packing/cover of ``q'``.
    """
    atoms = list(query.atoms)
    for var in query.variables:
        name = f"{prefix}{var}"
        if query.has_atom(name):
            raise QueryError(
                f"extended-atom name {name!r} collides with an existing atom; "
                "pick a different prefix"
            )
        atoms.append(Atom(name, (var,)))
    return ConjunctiveQuery(atoms, head=query.head, name=f"{query.name}_ext")


def packing_slacks(
    query: ConjunctiveQuery, packing: Mapping[str, Number]
) -> dict[str, Fraction]:
    """Per-variable slacks ``u'_i = 1 - sum_{j : x_i in S_j} u_j``.

    The slacks are the weights of the extension atoms ``T_i`` making
    ``(u, u')`` tight on the extended query (Lemma A.5).  Raises if the
    packing is infeasible (negative slack).
    """
    slacks: dict[str, Fraction] = {}
    for var in query.variables:
        total = sum(
            Fraction(packing.get(atom.name, 0))
            for atom in query.atoms
            if var in atom.variable_set
        )
        slack = 1 - total
        if slack < 0:
            raise QueryError(
                f"not an edge packing: variable {var!r} is oversubscribed "
                f"(sum of weights {total} > 1)"
            )
        slacks[var] = slack
    return slacks
