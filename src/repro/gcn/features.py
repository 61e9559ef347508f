"""Feature and weight matrix generation with controlled density.

The paper's Table I reports the density of the input feature matrix X(0) and
the hidden feature matrix X(1) for every dataset; the weight matrices W are
always fully dense.  These generators produce matrices with exactly those
densities so the characterisation experiments (Figures 3, 5, 6) reproduce the
published sparsity structure.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.convert import dense_to_csr
from repro.sparse.csr import CSRMatrix


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


#: Cells of uniforms :func:`generate_feature_csr` draws per row block.
_BLOCK_CELLS = 1 << 20


def generate_feature_csr(
    num_rows: int,
    num_cols: int,
    density: float,
    rng: np.random.Generator | None = None,
) -> CSRMatrix:
    """:func:`generate_feature_matrix` compressed to CSR, bit for bit.

    Takes the same draws in the same order — every normal first, then the
    uniforms — so the generator ends in the same state.  The uniforms come
    in row blocks and mask the magnitudes in place, so neither an n x F
    uniform array nor its mask, nor a dense X beside the CSR, ever exists.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    values = rng.standard_normal((num_rows, num_cols))
    np.abs(values, out=values)
    if density < 1.0:
        # Uniforms fill row-major, so row blocks draw the same stream as
        # one n x F call.
        block_rows = max(1, _BLOCK_CELLS // max(1, num_cols))
        for start in range(0, num_rows, block_rows):
            block = values[start:start + block_rows]
            block *= rng.random(block.shape) < density
    return dense_to_csr(values)


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
