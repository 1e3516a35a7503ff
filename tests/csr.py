"""``CSRMatrix`` helpers for tests: build one from dense rows, convert one
to scipy.sparse, which tests use as an oracle only, and expand a row-mapped
``DocTermMatrix`` to one row per document.  Only ``to_scipy`` imports scipy,
so the reference pipeline runs without it."""

import numpy as np

from logad.vectorize import CSRMatrix, DocTermMatrix


def from_dense(rows) -> CSRMatrix:
    """The CSR of the nonzero entries of dense rows, as float64."""
    arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    row_of, cols = np.nonzero(arr)
    indptr = np.searchsorted(row_of, np.arange(arr.shape[0] + 1))
    return CSRMatrix(indptr.astype(np.int32), cols.astype(np.int32), arr[row_of, cols], arr.shape)


def to_scipy(m: CSRMatrix):
    import scipy.sparse as sp

    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def expand(m: DocTermMatrix) -> DocTermMatrix:
    """The matrix with each document in its own row: the stored rows and
    totals gathered through ``doc_rows``."""
    return DocTermMatrix(m.matrix.take_rows(m.doc_rows), m.weighting,
                         m.doc_token_totals[m.doc_rows])
