"""HyperCube as a MapReduce algorithm (Section 5).

The MapReduce cost model of Afrati et al. [1]: the primary parameter is the
*reducer size* ``L`` — the bits a reducer may receive.  An algorithm maps
each input tuple to a set of reducers; reducer ``i`` receiving ``L_i`` bits
yields replication rate

    r = sum_i L_i / |I|,

which is the ``replication_rate`` every engine reports for one round.  The
paper strengthens the model (input servers may examine whole relations,
algorithms may use statistics and randomness) and derives the bound of
Theorem 5.1 (`repro.core.mr_bounds`).

Given a reducer-size budget ``L``, pick the smallest reducer count whose
expected HC load fits in ``L`` (from the closed-form bound of Theorem 3.6:
``p = (K(u*, M) / L^{u*})`` at the maximizing packing, searched numerically
here), then run HC as the map phase on ``run_rounds``, the runner every
experiment uses.  The measured replication rate matches the Theorem 5.1
lower bound up to constants — experiment E9.
"""

from __future__ import annotations

from ..core.bounds import lower_bound
from ..core.hypercube import HyperCubeAlgorithm
from ..query.atoms import ConjunctiveQuery
from ..rounds import MultiRoundResult, run_rounds
from ..seq.relation import Database
from ..stats.cardinality import SimpleStatistics


def choose_reducers(
    query: ConjunctiveQuery, stats: SimpleStatistics, reducer_bits: float,
    max_reducers: int = 1 << 20,
) -> int:
    """Smallest ``p`` (power of two) with ``L_upper(p) <= reducer_bits``.

    ``L_upper`` is monotone decreasing in ``p``, so a doubling search
    suffices; powers of two also round into HC shares gracefully.  Raises
    ``ValueError`` when no power of two up to ``max_reducers`` fits.
    """
    bits = stats.bits_vector(query)
    p = 2
    while p <= max_reducers:
        if lower_bound(query, bits, p).bits <= reducer_bits:
            return p
        p *= 2
    raise ValueError(
        f"no reducer count up to {max_reducers} fits a reducer size of "
        f"{reducer_bits} bits"
    )


def hypercube_mapreduce(
    query: ConjunctiveQuery,
    db: Database,
    reducer_bits: float,
    seed: int = 0,
    verify: bool = False,
) -> MultiRoundResult:
    """Run HC as the map phase with reducer budget ``reducer_bits``."""
    stats = SimpleStatistics.of(db)
    reducers = choose_reducers(query, stats, reducer_bits)
    algorithm = HyperCubeAlgorithm.with_optimal_shares(query, stats, reducers)
    return run_rounds(
        algorithm, db, reducers, seed=seed,
        compute_answers=False, verify=verify,
    )
