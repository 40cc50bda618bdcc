"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import assume, reject
from hypothesis import strategies as st

from steinclt import ArrayRow, DiscreteCell, RowValidationError


@st.composite
def centred_rows(draw):
    """Explicit rows of mean-zero cells with 2-4 atoms of unequal mass,
    whitened so the cell covariances sum to the identity.  The cells are
    not symmetric, so their transforms have imaginary parts.  A draw whose
    rounding leaves the row outside the standard-row tolerances is
    rejected."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(dim, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = []
    for _ in range(n):
        atoms = int(rng.integers(2, 5))
        x = rng.normal(size=(atoms, dim))
        q = rng.uniform(0.1, 1.0, atoms)
        q /= q.sum()
        cells.append((x - q @ x, q))
    cov = sum(np.einsum("a,ai,aj->ij", q, x, x) for x, q in cells)
    vals, vecs = np.linalg.eigh(cov)
    assume(vals.min() > 1e-3 * vals.max())
    white = vecs @ np.diag(vals**-0.5) @ vecs.T
    try:
        return ArrayRow.from_cells(DiscreteCell(x @ white, q) for x, q in cells)
    except RowValidationError:
        reject()
