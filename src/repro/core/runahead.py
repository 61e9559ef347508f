"""Multi-row-stationary runahead execution model.

When the derivation of an output row misses in the HDN cache, GROW does not
stall: it runs ahead to the next output row while the miss is serviced
(paper Section V-D, Figure 15).  Two small hardware tables make this work:

* the LDN table — an MSHR-like structure tracking which RHS rows are
  currently being fetched because they missed in the HDN cache; and
* the LHS ID table — the sparse LHS values waiting for those rows, so the
  right output rows can be updated when the data returns.

:class:`RunaheadModel` is the latency model the simulator uses: the exposed
miss latency of a phase shrinks proportionally to the number of output rows
that can be in flight, bounded by the LDN table's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunaheadModel:
    """Latency model of multi-row runahead execution.

    Attributes:
        degree: number of output rows the window can keep in flight.
        dram_latency_cycles: round-trip latency of one DRAM access.
        ldn_entries: LDN table capacity (bounds useful outstanding misses).
    """

    degree: int = 16
    dram_latency_cycles: int = 100
    ldn_entries: int = 16

    @property
    def effective_degree(self) -> int:
        """Rows usefully in flight: bounded by the window and the LDN table."""
        return max(1, min(self.degree, self.ldn_entries))

    def exposed_stall_cycles(self, rows_with_miss: int) -> float:
        """Exposed miss latency of a phase.

        With a single row in flight, every row that misses exposes one DRAM
        round trip (misses within the same row overlap through the LDN
        table).  Running ``effective_degree`` rows ahead overlaps that
        latency across the window, dividing the exposed portion accordingly.
        """
        if rows_with_miss <= 0:
            return 0.0
        return rows_with_miss * self.dram_latency_cycles / self.effective_degree
