"""The Section 5 MapReduce model: HyperCube as a map phase."""

from .algorithms import choose_reducers, hypercube_mapreduce

__all__ = ["choose_reducers", "hypercube_mapreduce"]
