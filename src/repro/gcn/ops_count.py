"""MAC-operation counting for the two GCN execution orders.

Paper Figure 2 compares the number of effectual multiply-accumulate
operations of ``(A X) W`` versus ``A (X W)``.  Only non-zero operands
contribute MACs, so the counts depend on the sparsity of A and X and on the
density of the intermediate products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gcn.layer import GCNLayer
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import SparsityPattern


def _spmm_macs(lhs_nnz: int, rhs_cols: int) -> int:
    """MACs of a sparse-LHS x dense-RHS product: one per non-zero per output column."""
    return int(lhs_nnz) * int(rhs_cols)


def _spsp_macs(lhs: CSRMatrix, rhs: CSRMatrix | SparsityPattern) -> int:
    """MACs of a sparse-sparse product: pairs of non-zeros that actually meet.

    For every non-zero ``A[i, k]``, one MAC is performed for every non-zero
    in row ``k`` of the RHS.
    """
    rhs_row_nnz = rhs.row_nnz()
    lhs_col_counts = np.bincount(lhs.indices, minlength=lhs.n_cols)
    return int(np.dot(lhs_col_counts, rhs_row_nnz))


def mac_count_ax_w(layer: GCNLayer) -> int:
    """MAC count of the ``(A X) W`` execution order.

    Stage 1 multiplies sparse A by (possibly sparse) X; stage 2 multiplies the
    resulting dense AX by the dense W.
    """
    stage1 = _spsp_macs(layer.adjacency, layer.features_csr)
    # AX is effectively dense: every row of it feeds the dense GEMM with W.
    stage2 = layer.num_nodes * layer.in_features * layer.out_features
    return stage1 + stage2


def mac_count_a_xw(layer: GCNLayer) -> int:
    """MAC count of the ``A (X W)`` execution order (the one the paper adopts).

    Stage 1 (combination) multiplies sparse-or-dense X by dense W; stage 2
    (aggregation) multiplies sparse A by the dense XW.
    """
    stage1 = _spmm_macs(layer.features_csr.nnz, layer.out_features)
    stage2 = _spmm_macs(layer.adjacency.nnz, layer.out_features)
    return stage1 + stage2


@dataclass(frozen=True)
class LayerMacCounts:
    """MAC counts of one layer under both execution orders."""

    layer_name: str
    ax_then_w: int
    a_then_xw: int

    @property
    def ratio(self) -> float:
        """A(XW) MACs normalised to (AX)W MACs (the Figure 2 bar heights)."""
        if self.ax_then_w == 0:
            return float("nan")
        return self.a_then_xw / self.ax_then_w


def layer_mac_counts(layer: GCNLayer) -> LayerMacCounts:
    """MAC counts of a single layer under both execution orders."""
    return LayerMacCounts(
        layer_name=layer.name,
        ax_then_w=mac_count_ax_w(layer),
        a_then_xw=mac_count_a_xw(layer),
    )
