"""Multi-row-stationary runahead execution model.

When the derivation of an output row misses in the HDN cache, GROW does not
stall: it runs ahead to the next output row while the miss is serviced
(paper Section V-D, Figure 15).  Two small hardware tables make this work:

* the LDN table — an MSHR-like structure tracking which RHS rows are
  currently being fetched because they missed in the HDN cache; and
* the LHS ID table — the sparse LHS values waiting for those rows, so the
  right output rows can be updated when the data returns.

Two levels of modelling are provided:

* :class:`LDNTable` / :class:`LHSIdTable` — functional models of the tables
  (allocation, lookup, capacity), exercised directly by the unit tests; and
* :class:`RunaheadModel` — the latency model the simulator uses: the exposed
  miss latency of a phase shrinks proportionally to the number of output rows
  that can be in flight, bounded by the table capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LDNTable:
    """MSHR-like table of outstanding low-degree-node (cache-missed) rows.

    Each valid entry holds the RHS matrix row id being fetched from DRAM
    (paper Figure 16, left table: 16 entries of a 32-bit row id).
    """

    capacity: int = 16
    entries: dict[int, int] = field(default_factory=dict)
    allocation_failures: int = 0

    def allocate(self, rhs_row_id: int) -> int | None:
        """Allocate (or find) an entry for a missed RHS row.

        Returns the table index, or None when the table is full (the
        processing engine must stall until an entry frees up).
        """
        if rhs_row_id in self.entries:
            return self.entries[rhs_row_id]
        if len(self.entries) >= self.capacity:
            self.allocation_failures += 1
            return None
        index = len(self.entries)
        self.entries[rhs_row_id] = index
        return index

    def complete(self, rhs_row_id: int) -> bool:
        """Retire the entry of a returned row; True if it was present."""
        return self.entries.pop(rhs_row_id, None) is not None

    @property
    def occupancy(self) -> int:
        return len(self.entries)

    @property
    def storage_bytes(self) -> int:
        """1 valid bit + 32-bit row id per entry, rounded to whole bytes."""
        return self.capacity * 4


@dataclass
class LHSIdTable:
    """Table of sparse LHS values waiting on outstanding misses.

    Each entry records which LDN-table entry it waits on, which output-buffer
    row it will update, and the LHS scalar to multiply with the returning RHS
    row (paper Figure 16, right table: 64 entries).
    """

    capacity: int = 64
    entries: list[tuple[int, int, float]] = field(default_factory=list)
    allocation_failures: int = 0

    def allocate(self, ldn_index: int, output_row: int, lhs_value: float) -> bool:
        """Add a waiting operand; returns False when the table is full."""
        if len(self.entries) >= self.capacity:
            self.allocation_failures += 1
            return False
        self.entries.append((ldn_index, output_row, lhs_value))
        return True

    def drain(self, ldn_index: int) -> list[tuple[int, float]]:
        """Pop all operands waiting on a returned row: ``(output_row, value)``."""
        ready = [(row, val) for idx, row, val in self.entries if idx == ldn_index]
        self.entries = [e for e in self.entries if e[0] != ldn_index]
        return ready

    @property
    def occupancy(self) -> int:
        return len(self.entries)

    @property
    def storage_bytes(self) -> int:
        """1 valid bit + 4-bit table id + 4-bit row id + 64-bit value per entry."""
        return self.capacity * 9  # 8.5 bytes rounded up


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

    def sweep(self, rows_with_miss: int, degrees: tuple[int, ...] = (1, 2, 4, 8, 16, 32)) -> dict[int, float]:
        """Exposed stall cycles for a range of runahead degrees (Figure 25(a))."""
        return {
            degree: RunaheadModel(
                degree=degree,
                dram_latency_cycles=self.dram_latency_cycles,
                ldn_entries=max(self.ldn_entries, degree),
            ).exposed_stall_cycles(rows_with_miss)
            for degree in degrees
        }

