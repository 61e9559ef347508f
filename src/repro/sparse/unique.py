"""Sorted-unique of integer keys: the one exact replacement for ``np.unique``.

``np.unique`` with no ``return_*`` flag takes a hash-table path on numpy
>= 2.3, measured 40-60x slower than a sort plus an adjacent-difference mask
on the simulator's int64 keys; with ``axis=`` it sorts rows through a
structured view.  The engine layers call :func:`sorted_unique` instead
(``repro check`` rule VEC004); ``np.unique`` with a ``return_*`` flag stays
on numpy's own sort path and is allowed.
"""

from __future__ import annotations

import numpy as np

from repro.sparse import blocks


def run_starts(values: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values begins in a non-decreasing array."""
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return np.flatnonzero(first)


def sorted_unique(keys: np.ndarray, return_counts: bool = False):
    """Distinct values of an integer key array, ascending.

    Same output as ``np.unique(keys)``, or ``np.unique(keys,
    return_counts=True)`` with ``return_counts``.  ``keys`` is sorted in
    place, so pass an array the caller owns (a fresh temporary or a copy).
    """
    # numpy's default sort kind is unstable, but equal integers are
    # indistinguishable: the sorted array, and so the distinct values and
    # their run lengths, cannot depend on tie order.  ``kind="stable"`` is
    # equally exact and only slower.
    keys.sort()
    starts = run_starts(keys)
    if return_counts:
        return keys[starts], np.diff(starts, append=keys.size)
    return keys[starts]


def unique_in_place(keys: np.ndarray) -> np.ndarray:
    """``sorted_unique(keys)`` in ``keys``' own buffer: a prefix view of it.

    Sorts ``keys``, then moves each run's first value left one block at a
    time, so the scratch is block-sized where :func:`sorted_unique` holds
    the run starts and a copy of the distinct values, each as long as the
    input.  Moving left never overwrites a value not yet read.
    """
    keys.sort()
    size = 0
    previous = None
    for lo, hi in blocks.spans(keys.size):
        block = keys[lo:hi]
        first = np.empty(block.size, dtype=bool)
        first[0] = previous is None or block[0] != previous
        np.not_equal(block[1:], block[:-1], out=first[1:])
        previous = block[-1]
        kept = block[first]
        keys[size : size + kept.size] = kept
        size += kept.size
    return keys[:size]
