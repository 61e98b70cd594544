"""The MPC cluster: ``p`` servers and per-server load accounting.

The model (Section 2.1): ``p`` workers with unlimited local compute; the cost
of a one-round algorithm is the **load** ``L`` — the maximum number of bits
any server receives during the communication round.  The cluster tracks, for
every server, the set of tuples received per relation (sets, because sending
the same tuple twice to the same server is useless and charged once — our
algorithms never do) plus running bit/tuple counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..seq.relation import Tuple


@dataclass
class Server:
    """One worker: its received fragments and load counters.

    Bit loads are computed as ``count * tuple_bits`` per relation (rather
    than accumulated tuple by tuple) so that every execution engine —
    whatever order or batching it routes tuples in — reports bit-identical
    per-server loads (see :mod:`repro.mpc.engine`).
    """

    index: int
    fragments: dict[str, set[Tuple]] = field(default_factory=dict)
    received_tuples: int = 0
    tuple_bits_by_relation: dict[str, float] = field(default_factory=dict)

    def receive(self, relation_name: str, tup: Tuple, tuple_bits: float) -> None:
        fragment = self.fragments.setdefault(relation_name, set())
        if tup not in fragment:
            fragment.add(tup)
            self.received_tuples += 1
            self.tuple_bits_by_relation[relation_name] = tuple_bits

    @property
    def received_bits(self) -> float:
        bits = 0.0
        for name, fragment in self.fragments.items():
            if fragment:
                bits += len(fragment) * self.tuple_bits_by_relation[name]
        return bits


@dataclass(frozen=True)
class LoadReport:
    """Load summary of one communication round."""

    p: int
    per_server_tuples: tuple[int, ...]
    per_server_bits: tuple[float, ...]
    input_tuples: int
    input_bits: float

    @property
    def max_load_tuples(self) -> int:
        return max(self.per_server_tuples, default=0)

    @property
    def max_load_bits(self) -> float:
        return max(self.per_server_bits, default=0.0)

    @property
    def total_tuples(self) -> int:
        return sum(self.per_server_tuples)

    @property
    def total_bits(self) -> float:
        return sum(self.per_server_bits)

    @property
    def replication_rate(self) -> float:
        """Total communicated bits over input bits (Section 5's ``r``)."""
        if self.input_bits == 0:
            return 0.0
        return self.total_bits / self.input_bits

    @property
    def balance(self) -> float:
        """Max over mean per-server bits — 1.0 means perfectly even."""
        if self.p == 0 or self.total_bits == 0:
            return 1.0
        return self.max_load_bits / (self.total_bits / self.p)

    def describe(self) -> str:
        return (
            f"p={self.p} max_load={self.max_load_bits:.0f} bits "
            f"({self.max_load_tuples} tuples), replication={self.replication_rate:.2f}, "
            f"balance={self.balance:.2f}"
        )


class Cluster:
    """``p`` servers plus the bookkeeping of one communication round."""

    def __init__(self, p: int) -> None:
        if p < 1:
            raise ValueError("cluster needs at least one server")
        self.p = p
        self.servers = [Server(index=i) for i in range(p)]

    def send(
        self,
        server_index: int,
        relation_name: str,
        tup: Tuple,
        tuple_bits: float,
    ) -> None:
        if not 0 <= server_index < self.p:
            raise IndexError(
                f"server index {server_index} outside [0, {self.p})"
            )
        self.servers[server_index].receive(relation_name, tup, tuple_bits)

    def send_many(
        self,
        server_indices: Iterable[int],
        relation_name: str,
        tup: Tuple,
        tuple_bits: float,
    ) -> None:
        for index in server_indices:
            self.send(index, relation_name, tup, tuple_bits)

    def load_report(self, input_tuples: int, input_bits: float) -> LoadReport:
        return LoadReport(
            p=self.p,
            per_server_tuples=tuple(s.received_tuples for s in self.servers),
            per_server_bits=tuple(s.received_bits for s in self.servers),
            input_tuples=input_tuples,
            input_bits=input_bits,
        )
