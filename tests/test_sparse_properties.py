"""Property-based tests (hypothesis) for the sparse-matrix substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sparse.convert import dense_to_csr
from repro.sparse.tiling import tile_nnz_histogram, tile_statistics

from oracles import COOMatrix, spmm_gustavson, spmm_outer_product


def sparse_dense_arrays(max_rows: int = 12, max_cols: int = 10):
    """Strategy producing small dense arrays with many zeros."""
    shapes = st.tuples(
        st.integers(min_value=1, max_value=max_rows),
        st.integers(min_value=1, max_value=max_cols),
    )
    return shapes.flatmap(
        lambda shape: hnp.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.one_of(
                st.just(0.0),
                st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
            ),
        )
    )


@given(sparse_dense_arrays())
@settings(max_examples=60, deadline=None)
def test_dense_csr_round_trip(dense):
    np.testing.assert_allclose(dense_to_csr(dense).to_dense(), dense)


@given(sparse_dense_arrays())
@settings(max_examples=60, deadline=None)
def test_nnz_preserved_by_conversion(dense):
    csr = dense_to_csr(dense)
    assert csr.nnz == int((dense != 0).sum())


@given(sparse_dense_arrays(max_rows=10, max_cols=8), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_dataflows_agree(dense, out_cols):
    rng = np.random.default_rng(0)
    sparse = dense_to_csr(dense)
    rhs = rng.standard_normal((dense.shape[1], out_cols))
    expected = dense @ rhs
    np.testing.assert_allclose(spmm_gustavson(sparse, rhs), expected, atol=1e-9)
    np.testing.assert_allclose(spmm_outer_product(sparse, rhs), expected, atol=1e-9)


@given(
    sparse_dense_arrays(max_rows=16, max_cols=16),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=50, deadline=None)
def test_tiles_partition_all_nnz(dense, tile_rows, tile_cols):
    sparse = dense_to_csr(dense)
    assert tile_statistics(sparse, tile_rows, tile_cols).total_nnz == sparse.nnz


@given(
    sparse_dense_arrays(max_rows=16, max_cols=16),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=50, deadline=None)
def test_histogram_fractions_are_normalised(dense, tile_dim):
    sparse = dense_to_csr(dense)
    histogram = tile_nnz_histogram(sparse, tile_dim, tile_dim)
    if sparse.nnz == 0:
        assert histogram == {}
    else:
        assert abs(sum(histogram.values()) - 1.0) < 1e-9
        assert all(0.0 <= fraction <= 1.0 for fraction in histogram.values())


@given(sparse_dense_arrays())
@settings(max_examples=60, deadline=None)
def test_transpose_involution(dense):
    coo = COOMatrix.from_dense(dense)
    np.testing.assert_allclose(coo.transpose().transpose().to_dense(), dense)
