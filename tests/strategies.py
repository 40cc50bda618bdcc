"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import assume, reject
from hypothesis import strategies as st

from steinclt import ArrayRow, RowValidationError


@st.composite
def centred_rows(draw, large_cell: bool = False, dim: int | None = None,
                 max_cells: int = 6, max_atoms: int = 4):
    """Explicit rows of mean-zero cells with 2 to ``max_atoms`` atoms of
    unequal mass, whitened so the cell covariances sum to the identity.
    The cells are not symmetric, so their transforms have imaginary parts.
    With ``large_cell`` one cell holds 30-80 atoms instead.  The dimension
    is ``dim`` when given and 1-3 otherwise, and the row has from dim to
    max(dim, ``max_cells``) cells.  A draw whose rounding leaves the row
    outside the standard-row tolerances is rejected."""
    if dim is None:
        dim = draw(st.integers(1, 3))
    n = draw(st.integers(dim, max(dim, max_cells)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    large = draw(st.integers(0, n - 1)) if large_cell else -1
    cells = []
    for k in range(n):
        atoms = int(rng.integers(30, 81) if k == large else rng.integers(2, max_atoms + 1))
        x = rng.normal(size=(atoms, dim))
        q = rng.uniform(0.1, 1.0, atoms)
        q /= q.sum()
        cells.append((x - q @ x, q))
    cov = sum(np.einsum("a,ai,aj->ij", q, x, x) for x, q in cells)
    vals, vecs = np.linalg.eigh(cov)
    assume(vals.min() > 1e-3 * vals.max())
    white = vecs @ np.diag(vals**-0.5) @ vecs.T
    try:
        return ArrayRow.from_cells((x @ white, q) for x, q in cells)
    except RowValidationError:
        reject()
