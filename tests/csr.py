"""``CSRMatrix`` helpers for tests: build one from dense rows, convert one
to scipy.sparse, which tests use as an oracle only, and expand a row-mapped
``DocTermMatrix`` to one row per document.  Only ``to_scipy`` imports scipy,
so the reference pipeline runs without it."""

import numpy as np

from logad.vectorize import CSRMatrix, DocTermMatrix


def from_dense(rows) -> CSRMatrix:
    """The CSR of the nonzero entries of dense rows, as float64, in the index
    layout of every matrix logad builds."""
    arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    row_of, cols = np.nonzero(arr)
    indptr = np.searchsorted(row_of, np.arange(arr.shape[0] + 1))
    return CSRMatrix(indptr.astype(np.int64), cols.astype(np.intc), arr[row_of, cols], arr.shape)


def assert_layout(m: CSRMatrix) -> None:
    """``m`` has the one index layout: int64 ``indptr`` and C-int ``indices``."""
    assert (m.indptr.dtype, m.indices.dtype) == (np.int64, np.intc)


def to_scipy(m: CSRMatrix):
    import scipy.sparse as sp

    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def expand(m: DocTermMatrix) -> DocTermMatrix:
    """The matrix with each document in its own row: the stored rows and
    totals gathered through ``doc_rows``."""
    return DocTermMatrix(m.matrix.take_rows(m.doc_rows), m.weighting,
                         m.doc_token_totals[m.doc_rows])
