"""Re-exports resolved on first access (PEP 562).

A module that re-exports names of other modules imports each of those
only when one of its names is first read, so ``import repro`` — and every
command — pays for nothing it does not run.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Mapping, Sequence


def lazy_exports(
    namespace: dict, table: Mapping[str, Sequence[str]]
) -> tuple[dict[str, str], Callable[[str], object], Callable[[], list[str]]]:
    """``(exports, __getattr__, __dir__)`` for the module whose
    ``globals()`` is ``namespace``: ``table`` maps a module, relative to
    that module's package, to the names it gives; ``exports`` maps each
    name back to its module (in ``table`` order, what ``__all__`` lists).
    A name is imported when first read and then kept in ``namespace``."""
    exports = {name: module for module, names in table.items()
               for name in names}

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        module = import_module(exports[name], namespace["__package__"])
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return exports, __getattr__, __dir__
