"""Conjunctive query model.

The paper studies *full conjunctive queries without self-joins* (Section 2.2):

    q(x_1, ..., x_k) = S_1(xbar_1), ..., S_l(xbar_l)

*Full* means every variable in the body appears in the head, and *without
self-joins* means each relation symbol appears in exactly one atom.  The
:class:`ConjunctiveQuery` constructor enforces both restrictions.

A query's *hypergraph* has one node per variable and one hyperedge per atom.
Most of the paper's machinery (fractional edge packings, the HyperCube share
LP, residual queries) operates on this hypergraph, which the accessor methods
here expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


class QueryError(ValueError):
    """Raised for malformed queries (non-full, self-joins, bad atoms)."""


@dataclass(frozen=True)
class Atom:
    """A single atom ``name(variables...)`` in a conjunctive query body.

    Variables may repeat within an atom (e.g. ``S(x, x)``); the *arity* of the
    atom is the number of positions, not the number of distinct variables.
    """

    name: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("atom name must be non-empty")
        if not isinstance(self.variables, tuple):
            object.__setattr__(self, "variables", tuple(self.variables))
        for var in self.variables:
            if not var:
                raise QueryError(f"atom {self.name!r} has an empty variable name")

    @property
    def arity(self) -> int:
        """Number of positions of the atom (``a_j`` in the paper)."""
        return len(self.variables)

    @property
    def variable_set(self) -> frozenset[str]:
        """The distinct variables of the atom (``vars(S_j)``)."""
        return frozenset(self.variables)

    def positions_of(self, variable: str) -> tuple[int, ...]:
        """All positions (0-based) at which ``variable`` occurs."""
        return tuple(i for i, v in enumerate(self.variables) if v == variable)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.variables)})"


class ConjunctiveQuery:
    """A full conjunctive query without self-joins.

    Parameters
    ----------
    atoms:
        The body atoms, in order.  Relation names must be distinct.
    head:
        Optional explicit head-variable order.  Defaults to the variables in
        order of first appearance in the body.  Because the query is full, the
        head must contain exactly the body variables.
    name:
        Optional query name used only for display.
    """

    def __init__(
        self,
        atoms: Iterable[Atom],
        head: Sequence[str] | None = None,
        name: str = "q",
    ) -> None:
        self._atoms = tuple(atoms)
        if not self._atoms:
            raise QueryError("a query needs at least one atom")
        names = [atom.name for atom in self._atoms]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise QueryError(f"self-join detected: repeated relation(s) {duplicates}")

        body_vars: list[str] = []
        seen: set[str] = set()
        for atom in self._atoms:
            for var in atom.variables:
                if var not in seen:
                    seen.add(var)
                    body_vars.append(var)

        if head is None:
            self._head = tuple(body_vars)
        else:
            self._head = tuple(head)
            if set(self._head) != seen or len(set(self._head)) != len(self._head):
                raise QueryError(
                    "query must be full: head variables must be exactly the "
                    f"body variables (head={self._head}, body={tuple(body_vars)})"
                )
        self.name = name
        self._atom_index = {atom.name: i for i, atom in enumerate(self._atoms)}
        self._var_index = {var: i for i, var in enumerate(self._head)}

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms

    @property
    def head(self) -> tuple[str, ...]:
        """Head variables; equals all body variables (the query is full)."""
        return self._head

    @property
    def variables(self) -> tuple[str, ...]:
        """Alias of :attr:`head`; ``k = len(q.variables)`` in the paper."""
        return self._head

    @property
    def num_variables(self) -> int:
        return len(self._head)

    @property
    def num_atoms(self) -> int:
        return len(self._atoms)

    @property
    def total_arity(self) -> int:
        """``a = sum_j a_j`` in the paper."""
        return sum(atom.arity for atom in self._atoms)

    def atom(self, name: str) -> Atom:
        """The unique atom for relation ``name`` (no self-joins)."""
        try:
            return self._atoms[self._atom_index[name]]
        except KeyError:
            raise QueryError(f"query {self.name!r} has no atom named {name!r}") from None

    def has_atom(self, name: str) -> bool:
        return name in self._atom_index

    def has_variable(self, variable: str) -> bool:
        return variable in self._var_index

    # ------------------------------------------------------------------
    # hypergraph views
    # ------------------------------------------------------------------
    def atoms_containing(self, variable: str) -> tuple[Atom, ...]:
        """All atoms whose variable set contains ``variable``.

        This is the hyperedge incidence list of the query hypergraph; the
        packing constraint for ``variable`` sums ``u_j`` over exactly these
        atoms.
        """
        if variable not in self._var_index:
            raise QueryError(
                f"query {self.name!r} has no variable named {variable!r}"
            )
        return tuple(a for a in self._atoms if variable in a.variable_set)

    def incidence(self) -> Mapping[str, tuple[str, ...]]:
        """Map variable -> names of atoms containing it."""
        return {
            var: tuple(a.name for a in self.atoms_containing(var))
            for var in self._head
        }

    def adjacency(self) -> Mapping[str, frozenset[str]]:
        """Map variable -> set of variables sharing an atom with it."""
        adj: dict[str, set[str]] = {var: set() for var in self._head}
        for atom in self._atoms:
            for var in atom.variable_set:
                adj[var] |= atom.variable_set - {var}
        return {var: frozenset(neighbors) for var, neighbors in adj.items()}

    def is_connected(self) -> bool:
        """True iff the query hypergraph is connected."""
        if not self._head:
            return True
        adj = self.adjacency()
        stack = [self._head[0]]
        reached: set[str] = set()
        while stack:
            var = stack.pop()
            if var in reached:
                continue
            reached.add(var)
            stack.extend(adj[var] - reached)
        return len(reached) == len(self._head)

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self._atoms == other._atoms and self._head == other._head

    def __hash__(self) -> int:
        return hash((self._atoms, self._head))

    def __str__(self) -> str:
        body = ", ".join(str(atom) for atom in self._atoms)
        return f"{self.name}({', '.join(self._head)}) :- {body}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self!s})"
