"""Shared fixtures: the paper's running queries and small databases."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.data import matching_relation, uniform_relation, zipf_relation
from repro.query import (
    chain_query,
    simple_join_query,
    star_query,
    triangle_query,
)
from repro.seq import Database

# The property tests are part of tier-1, so they must be repeatable: derive
# every example from the test itself instead of a fresh random seed.
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def join_query():
    """``q(x,y,z) = S1(x,z), S2(y,z)`` (Example 3.3 / Section 4.1)."""
    return simple_join_query()


@pytest.fixture
def triangle():
    """``C3`` (Eq. 4)."""
    return triangle_query()


@pytest.fixture
def chain3():
    """``L3`` (Section 2.2)."""
    return chain_query(3)


@pytest.fixture
def star2():
    return star_query(2)


@pytest.fixture
def uniform_join_db():
    """A skew-free instance of the simple join."""
    return Database.from_relations(
        [
            uniform_relation("S1", 600, 2000, seed=11),
            uniform_relation("S2", 600, 2000, seed=12),
        ]
    )


@pytest.fixture
def matching_join_db():
    """A matching instance (the uniform databases of [4])."""
    return Database.from_relations(
        [
            matching_relation("S1", 500, 2000, seed=21),
            matching_relation("S2", 500, 2000, seed=22),
        ]
    )


@pytest.fixture
def zipf_join_db():
    """A skewed instance of the simple join (Zipf on z)."""
    return Database.from_relations(
        [
            zipf_relation("S1", 600, 1500, skew=1.2, skewed_positions=(1,), seed=31),
            zipf_relation("S2", 600, 1500, skew=1.2, skewed_positions=(1,), seed=32),
        ]
    )


@pytest.fixture
def uniform_triangle_db():
    return Database.from_relations(
        [
            uniform_relation("S1", 400, 250, seed=41),
            uniform_relation("S2", 400, 250, seed=42),
            uniform_relation("S3", 400, 250, seed=43),
        ]
    )
