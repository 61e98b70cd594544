"""Relations, databases, and the sequential join oracle."""

from .join import (
    Answers,
    count_answers,
    evaluate,
    expected_answer_count,
    iterate_answers,
    local_join,
)
from .relation import Database, Relation, RelationError, bits_per_value

__all__ = [
    "Answers",
    "Database",
    "Relation",
    "RelationError",
    "bits_per_value",
    "count_answers",
    "evaluate",
    "expected_answer_count",
    "iterate_answers",
    "local_join",
]
