"""The standard query families used throughout the paper.

These are the shapes the paper evaluates bounds on:

* ``chain_query(k)`` — the path join ``L_k = S1(x1,x2), ..., Sk(xk,xk+1)``
  (Section 2.2 uses ``L_3``).
* ``cycle_query(k)`` — the cycle ``C_k``; ``C_3`` is the triangle query used
  in Examples 3.7, 4.8 and 5.2.
* ``star_query(k)`` — ``S1(z,x1), ..., Sk(z,xk)``; maximal skew pressure on
  the center variable ``z``.
* ``cartesian_product_query(u)`` — ``S1(x1) x ... x Su(xu)`` from the
  introduction's lower-bound warm-up.
* ``simple_join_query()`` — ``q(x,y,z) = S1(x,z), S2(y,z)`` from Example 3.3
  and Section 4.1.
* ``clique_query(k)`` — the ``k``-clique with one binary atom per pair.
"""

from __future__ import annotations

from .atoms import Atom, ConjunctiveQuery


def simple_join_query() -> ConjunctiveQuery:
    """``q(x, y, z) = S1(x, z), S2(y, z)`` — the running example of §4.1."""
    return ConjunctiveQuery(
        [Atom("S1", ("x", "z")), Atom("S2", ("y", "z"))],
        head=("x", "y", "z"),
        name="join",
    )


def chain_query(length: int) -> ConjunctiveQuery:
    """The chain (path) query ``L_length`` with ``length`` binary atoms."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    atoms = [
        Atom(f"S{j}", (f"x{j}", f"x{j + 1}")) for j in range(1, length + 1)
    ]
    return ConjunctiveQuery(atoms, name=f"L{length}")


def cycle_query(length: int) -> ConjunctiveQuery:
    """The cycle query ``C_length``; ``cycle_query(3)`` is the triangle."""
    if length < 2:
        raise ValueError("cycle length must be >= 2")
    atoms = [
        Atom(f"S{j}", (f"x{j}", f"x{j % length + 1}"))
        for j in range(1, length + 1)
    ]
    return ConjunctiveQuery(atoms, name=f"C{length}")


def triangle_query() -> ConjunctiveQuery:
    """``C3 = S1(x1,x2), S2(x2,x3), S3(x3,x1)`` (Eq. 4 of the paper)."""
    return cycle_query(3)


def star_query(rays: int) -> ConjunctiveQuery:
    """The star query ``S1(z,x1), ..., S_rays(z,x_rays)``."""
    if rays < 1:
        raise ValueError("star needs at least one ray")
    atoms = [Atom(f"S{j}", ("z", f"x{j}")) for j in range(1, rays + 1)]
    return ConjunctiveQuery(atoms, name=f"star{rays}")


def cartesian_product_query(factors: int, arity: int = 1) -> ConjunctiveQuery:
    """``S1 x S2 x ... x S_factors`` with disjoint variables per atom.

    With ``arity == 1`` this is the u-way cartesian product from the
    introduction whose optimal load is ``((m1...mu)/p)^(1/u)``.
    """
    if factors < 1:
        raise ValueError("need at least one factor")
    if arity < 1:
        raise ValueError("arity must be >= 1")
    atoms = []
    for j in range(1, factors + 1):
        variables = tuple(f"x{j}_{i}" for i in range(1, arity + 1))
        atoms.append(Atom(f"S{j}", variables))
    return ConjunctiveQuery(atoms, name=f"product{factors}")


def clique_query(size: int) -> ConjunctiveQuery:
    """The ``size``-clique query: one binary atom per unordered pair."""
    if size < 2:
        raise ValueError("clique size must be >= 2")
    atoms = []
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            atoms.append(Atom(f"S{i}_{j}", (f"x{i}", f"x{j}")))
    return ConjunctiveQuery(atoms, name=f"K{size}")


def two_path_query() -> ConjunctiveQuery:
    """``q(x,y,z) = S1(x,y), S2(y,z)`` — the 2-path, equivalent to a join."""
    return ConjunctiveQuery(
        [Atom("S1", ("x", "y")), Atom("S2", ("y", "z"))],
        head=("x", "y", "z"),
        name="path2",
    )


FAMILIES = {
    "join": simple_join_query,
    "path2": two_path_query,
    "triangle": triangle_query,
}
