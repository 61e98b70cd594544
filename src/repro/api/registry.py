"""The full algorithm registry, as the planner and sweeps see it.

The mechanism and the one-round registrations live in
:mod:`repro.core.registry`; importing :mod:`repro.rounds` adds the
multi-round algorithms.  This module re-exports the registry surface with
both layers registered.
"""

from .. import rounds  # noqa: F401 - registers the multi-round algorithms
from ..core.registry import (  # noqa: F401 - re-exported
    AlgorithmSpec,
    Factory,
    RegistryError,
    Statistics,
    algorithm_keys,
    algorithm_specs,
    applicable_specs,
    get_spec,
    register,
    unregister,
)
