"""High-degree-node (HDN) cache and HDN ID list.

The I-BUF_dense of GROW (paper Figure 8) is split into two structures:

* the HDN ID list — a CAM holding the node ids of the top-N high-degree
  nodes of the cluster currently being processed; and
* the HDN cache — an SRAM holding the dense RHS (XW) rows of those nodes,
  pinned for the duration of the cluster (the paper's Section VIII discusses
  why pinning beats demand-based replacement).

Lookups are batched: the simulator passes the whole column-index stream of a
cluster's adjacency rows and gets back a hit mask, which keeps the Python
simulation vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.unique import sorted_unique


@dataclass
class HDNIdList:
    """The CAM that holds the ids of the currently cached high-degree nodes.

    The ids are kept sorted and distinct, beside a boolean membership bitmap
    over ``0 .. max id`` that is built once per load, so a lookup is one
    gather instead of a search per column.  The bitmap costs one byte per id
    up to the largest, which the graph's node count bounds.
    """

    capacity: int
    node_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    _member: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        node_ids = self._normalise(self.node_ids)
        if node_ids.size > self.capacity:
            raise ValueError(
                f"HDN ID list overflow: {node_ids.size} ids, capacity {self.capacity}"
            )
        self._store(node_ids)

    @staticmethod
    def _normalise(node_ids: np.ndarray) -> np.ndarray:
        """Sorted, distinct, non-negative ids (a copy the list owns)."""
        node_ids = sorted_unique(np.array(node_ids, dtype=np.int64))
        if node_ids.size and node_ids[0] < 0:
            raise ValueError(f"HDN node ids must be non-negative, got {node_ids[0]}")
        return node_ids

    def _store(self, node_ids: np.ndarray) -> None:
        self.node_ids = node_ids
        self._member = np.zeros(int(node_ids[-1]) + 1 if node_ids.size else 0, dtype=bool)
        self._member[node_ids] = True

    def load(self, node_ids: np.ndarray) -> None:
        """Replace the list contents with a new cluster's HDN ids."""
        self._store(self._normalise(node_ids)[: self.capacity])

    def lookup(self, columns: np.ndarray) -> np.ndarray:
        """Boolean hit mask for a batch of column ids (CAM lookups).

        Columns outside ``0 .. max id`` (negative or past the end of the
        bitmap) are misses.
        """
        columns = np.asarray(columns, dtype=np.int64)
        member = self._member
        if member.size == 0:
            return np.zeros(columns.shape, dtype=bool)
        hits = member.take(columns, mode="clip")
        hits &= (columns >= 0) & (columns < member.size)
        return hits

    @property
    def size(self) -> int:
        return int(self.node_ids.size)

    @property
    def storage_bytes(self) -> int:
        """Storage footprint at 3 bytes per node id (paper Section V-C)."""
        return self.capacity * 3


@dataclass
class HDNCache:
    """The SRAM that pins the dense RHS rows of the current cluster's HDNs.

    Attributes:
        capacity_bytes: SRAM capacity.
        row_bytes: size of one dense RHS row (set when a phase begins).
        id_list: the companion HDN ID list used for lookups.
        hits / misses: lookup counters across the lifetime of the cache.
        fill_bytes: bytes streamed into the cache by cluster-start prefetches.
    """

    capacity_bytes: int
    row_bytes: int = 0
    id_list: HDNIdList = field(default_factory=lambda: HDNIdList(capacity=4096))
    hits: int = 0
    misses: int = 0
    fill_bytes: int = 0
    lookup_bytes: int = 0

    @property
    def capacity_rows(self) -> int:
        """Number of RHS rows that fit at the current row size."""
        if self.row_bytes <= 0:
            return 0
        return min(self.capacity_bytes // self.row_bytes, self.id_list.capacity)

    def begin_phase(self, row_bytes: int) -> None:
        """Configure the cache for a new phase's dense-row size."""
        if row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        self.row_bytes = row_bytes

    def fill_cluster(self, hdn_node_ids: np.ndarray) -> int:
        """Load a cluster's HDN rows; returns the bytes fetched from DRAM."""
        hdn_node_ids = np.asarray(hdn_node_ids, dtype=np.int64)
        usable = hdn_node_ids[: self.capacity_rows]
        self.id_list.load(usable)
        fetched = int(usable.size) * self.row_bytes
        self.fill_bytes += fetched
        return fetched

    def lookup_batch(self, columns: np.ndarray) -> np.ndarray:
        """Hit mask for a batch of RHS row requests; updates hit/miss counters."""
        mask = self.id_list.lookup(columns)
        batch_hits = int(mask.sum())
        self.hits += batch_hits
        self.misses += int(mask.size - batch_hits)
        self.lookup_bytes += int(mask.size) * self.row_bytes
        return mask

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
