"""Feature and weight matrix generation with controlled density.

The paper's Table I reports the density of the input feature matrix X(0) and
the hidden feature matrix X(1) for every dataset; the weight matrices W are
always fully dense.  These generators produce matrices with exactly those
densities so the characterisation experiments (Figures 3, 5, 6) reproduce the
published sparsity structure.

The simulators read only where X's non-zeros are, so workloads are built
from :func:`generate_feature_pattern`, which takes the dense generator's
draws but keeps one bit per cell; :class:`FeatureDraws` replays the
values, bit for bit, for the reference paths that multiply by X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics
from repro.sparse import blocks
from repro.sparse.pattern import SparsityPattern


def generate_feature_matrix(
    num_rows: int,
    num_cols: int,
    density: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Dense 2-D array with the requested fraction of non-zero entries.

    Non-zero positions are uniformly random; values are positive (as produced
    by a ReLU), drawn from a half-normal distribution.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    matrix = rng.standard_normal((num_rows, num_cols))
    np.abs(matrix, out=matrix)
    if density >= 1.0:
        return matrix
    mask = rng.random((num_rows, num_cols)) < density
    matrix *= mask
    return matrix


def generate_feature_pattern(
    num_rows: int,
    num_cols: int,
    density: float,
    rng: np.random.Generator | None = None,
) -> SparsityPattern:
    """The sparsity pattern of :func:`generate_feature_matrix`, without its values.

    The pattern's ``indptr`` and derived ``indices`` are those of
    ``dense_to_csr(generate_feature_matrix(...))`` exactly.  It takes the
    same draws in the same order (every normal, then the uniforms), so the
    generator ends in the same state, and keeps what they leave: one bit
    per cell and a count per row.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    # Row blocks of at most ``BLOCK_ENTRIES`` cells (a wider row is a block).
    block_rows = max(1, blocks.BLOCK_ENTRIES // max(1, num_cols))
    row_ranges = [
        (start, min(start + block_rows, num_rows)) for start in range(0, num_rows, block_rows)
    ]
    kept_bits, row_counts = _draw_kept_cells(rng, (num_rows, num_cols), density, row_ranges)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    return SparsityPattern(shape=(num_rows, num_cols), indptr=indptr, bits=kept_bits)


def _draw_kept_cells(
    rng: np.random.Generator,
    shape: tuple[int, int],
    density: float,
    row_ranges: list[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """The cells :func:`generate_feature_matrix` keeps, packed one bit each, and per-row counts.

    Normals and uniforms pass through one reused row-block buffer: the
    normals only to find any exactly 0.0, a cell the dense path drops even
    where the mask keeps it.  Both fill row-major, so row blocks draw the
    same streams as one n x F call each.
    """
    num_rows, num_cols = shape
    # The first block is the largest.
    buffer = np.empty((row_ranges[0][1] if row_ranges else 0, num_cols))
    zero_cells = [np.empty(0, dtype=np.int64)]
    for start, stop in row_ranges:
        normals = buffer[: stop - start]
        rng.standard_normal(out=normals)
        if not normals.all():
            zero_cells.append(np.flatnonzero(normals == 0.0) + start * num_cols)
    zeros = np.concatenate(zero_cells)
    kept_bits = np.empty((num_rows, (num_cols + 7) // 8), dtype=np.uint8)
    row_counts = np.empty(num_rows, dtype=np.int64)
    for start, stop in row_ranges:
        if density < 1.0:
            uniforms = buffer[: stop - start]
            rng.random(out=uniforms)
            kept = uniforms < density
        else:
            kept = np.ones((stop - start, num_cols), dtype=bool)
        lo, hi = np.searchsorted(zeros, (start * num_cols, stop * num_cols))
        kept.reshape(-1)[zeros[lo:hi] - start * num_cols] = False
        row_counts[start:stop] = np.count_nonzero(kept, axis=1)
        kept_bits[start:stop] = np.packbits(kept, axis=1)
    return kept_bits, row_counts


@dataclass(frozen=True, eq=False)
class FeatureDraws:
    """Where a feature matrix's draws began: enough to replay its values.

    Attributes:
        state: the generator's ``bit_generator.state`` before the draws.
        density: the density the draws were asked for.
    """

    state: dict
    density: float

    def replay(self, num_rows: int, num_cols: int) -> np.ndarray:
        """:func:`generate_feature_matrix` on a fresh generator at :attr:`state`, bit for bit."""
        # Any seed will do: the recorded state replaces it.
        bit_generator = getattr(np.random, self.state["bit_generator"])(0)
        bit_generator.state = self.state
        metrics.inc("gcn.features.replays")
        return generate_feature_matrix(
            num_rows, num_cols, self.density, np.random.Generator(bit_generator)
        )


def generate_weight_matrix(
    num_rows: int,
    num_cols: int,
    rng: np.random.Generator | None = None,
    scale: float | None = None,
) -> np.ndarray:
    """Fully dense weight matrix with Glorot-style initialisation."""
    if rng is None:
        rng = np.random.default_rng(0)
    if scale is None:
        scale = float(np.sqrt(2.0 / (num_rows + num_cols)))
    return rng.standard_normal((num_rows, num_cols)) * scale
