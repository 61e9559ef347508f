"""Block-wise passes: scratch of a fixed size, whatever the input's size.

The cold path's inputs and the simulators' are as long as a graph's edge
count (an adjacency's non-zeros, a batch of candidate edges, a feature
pattern's cells), and an array of temporaries that long per pass is what
sets a pass's memory.  A pass that walks its input in blocks of
:data:`BLOCK_ENTRIES` entries holds its output and block-sized scratch
instead.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Entries (or cells) a block-wise pass handles at once: the one block size
#: of every block-wise pass, read at call time.
BLOCK_ENTRIES = 1 << 16


def spans(size: int) -> Iterator[tuple[int, int]]:
    """Consecutive ``[lo, hi)`` ranges of ``BLOCK_ENTRIES`` covering ``size``, the last shorter."""
    block = BLOCK_ENTRIES
    return ((lo, min(lo + block, size)) for lo in range(0, size, block))


def row_blocks(indptr: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``[lo, hi)`` holding at most ``BLOCK_ENTRIES`` entries.

    A row with more entries than that is a block of its own.
    """
    entries = BLOCK_ENTRIES
    num_rows = indptr.size - 1
    lo = 0
    while lo < num_rows:
        hi = int(np.searchsorted(indptr, indptr[lo] + entries, side="right")) - 1
        hi = min(max(hi, lo + 1), num_rows)
        yield lo, hi
        lo = hi


def entries(indptr: np.ndarray, indices: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A CSR's non-zeros as ``(rows, columns)`` arrays, one row block at a time."""
    for lo, hi in row_blocks(indptr):
        rows = np.repeat(np.arange(lo, hi), np.diff(indptr[lo : hi + 1]))
        yield rows, indices[indptr[lo] : indptr[hi]]
