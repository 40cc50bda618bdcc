"""Characteristic functions of rows and the Gaussian limit.

Sign convention, used everywhere in this package: the Fourier transform
of a random vector H is

    phi_H(t) = E[exp(-i <t, H>)],

i.e. the test function is e_t(x) = exp(-i <t, x>).  For a finitely
supported cell the transform is an exact finite sum; for a row of
independent cells the row-sum transform is the product of the cell
transforms.  The standard normal vector has phi(t) = exp(-|t|^2 / 2).

``charfn_gap`` is the pointwise distance |phi_Gauss(t) - phi_row(t)|,
the quantity whose sup/limsup behaviour the rest of the package bounds
and estimates.  Monte Carlo counterparts (``empirical_charfn``,
``kolmogorov_mc``) provide independent cross-checks of the exact paths;
they draw from the PCG64DXSM streams of the rng module, so their numbers
are fixed by (seed, stream) and the tool version.

Every exact row transform comes from one kernel, ``_cell_transforms``:
for an (m, N) batch T and a tuple of per-atom weights w it hands a
reduction, for each chunk of at most ``_PHASE_BUDGET`` (t-values x
atoms), the per-cell sums of w cos a - i w sin a, a = <t, x_a>, one
(chunk, n) complex array per weight.  Weights p give the cell transforms
(a one-cell row gives a single cell's transform through
``row_sum_charfn``), and the gap identity of the bounds module also takes
weights p <x, t> for its s-integrand.  A chunk is formed in tiles of at
most ``_TILE_ELEMENTS`` (t-values x atoms) over whole cells: a tile
projects its own atoms with ``ArrayRow.project``, takes cos and sin and
writes the per-cell sums of each weight, so the peak memory is a few
tiles and the chunk's outputs.  A mirrored tile (one cell width of 2 or
4, centrally symmetric cells, each weight even or odd; every tile of a
rademacher row and all but the first of an eta row) projects only the
upper half of each cell, takes cos for even weights and sin for odd ones,
and writes the sums that cancel as the exact zeros they are, with the
same bits as the general path.  The tiles run in turn on the calling
thread: threads are spent only on the rays of t of
``bounds.decomposition_check`` (one quadrature per ray) and the sample
blocks of ``sample_row_sums``, so a call with few t on a large row uses
one core.  Each per-cell sum is np.add.reduceat's over the
same atoms however the tiles fall: the cell's first term plus the rest
added left to right.  ``_cell_sums`` takes it with slice adds when the
tile's cells share one width of at most ``_SLICE_ADD_MAX_WIDTH`` atoms and
with reduceat otherwise (mixed or wider cells).  Every numpy step of a
tile but reduceat releases the interpreter lock (a mirrored tile takes
none), so the identity's concurrent rays serialise on it only in the
mixed or wider tiles.  Each transform and the
gap take one t or a 2-D (m, N) batch, one entry per row of T equal to its
single-t call, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError, UnsupportedDimensionError
from .normal_cdf import normal_cdf
from .rng import RngSeed
from .rows import ArrayRow, _project
from .util import _fan_out, _thread_count, as_vector

__all__ = [
    "row_sum_charfn",
    "gaussian_charfn",
    "charfn_gap",
    "empirical_charfn",
    "sample_row_sums",
    "kolmogorov_mc",
]


# cap on (t-values x atoms) of each t-chunk of _cell_transforms.  The tiles
# bound the phase arrays; this cap sizes only the (chunk, n) transforms a
# reduction is handed and the reduction's temporaries.  At 5e5 the 400k-atom
# eta row of 100 000 cells takes one s-node per chunk, and one identity_rhs
# call on it peaks at 11.3 MB of traced allocations against 21.2 MB at 1e6
# (two nodes per chunk), at the same in-process wall time (2-core x86 VM)
_PHASE_BUDGET = 500_000

# cap on (t-values x atoms) elements of each tile of a chunk: 2**15 doubles
# (256 kB) keep a tile's temporaries in cache while its fixed cost of about
# 30 us stays near 3% of its 1 ms of work (2-core x86 VM, identity_rhs on the
# 400k-atom eta row: 569 ms at 2**15, 561 at 2**16, 668 at 2**14, 926 at
# 2**12; the 2**16 tiles raised the sweep benchmark's peak RSS)
_TILE_ELEMENTS = 2**15

# widest cell that _cell_sums adds in slices: reduceat adds a cell's first
# term to numpy's pairwise sum of the rest, a plain left-to-right loop below
# 8 terms; wider cells keep reduceat, as np.add.reduce, which has its order,
# made product rows of 16 and 64 atoms 6-14% slower (2-core x86 VM)
_SLICE_ADD_MAX_WIDTH = 8

# sample_row_sums counts comparisons, in bytes, up to this many atoms per
# cell and binary-searches above.  Per 1e5 draws on a 2-core x86 VM the
# count took 1.2-1.6 ms at 64 atoms and 5.0-6.1 ms at 256, the search
# 5.5-6.5 and 7.9-8.8 ms; a byte holds the count of up to 256 atoms, and
# a wider count, in intp, took 29 ms at 320
_COUNTING_MAX_ATOMS = 256

# sample_row_sums gives a thread a block of the sample axis only when the
# block holds at least this many samples: below it the interpreter-lock
# hand-offs of the per-cell steps outweigh the draws saved, a 1.5 us advance
# per cell included (1000-cell rademacher and eta rows on a 2-core x86 VM:
# two blocks of 8192 took 1.2-1.8x the time of one block, two of 16 384
# took 0.48-0.57x)
_MIN_BLOCK_SAMPLES = 16_384


def _as_batch(t, dim: int | None) -> tuple[np.ndarray, bool]:
    """(T, is_batch): a 2-D (m, N) batch as given, any other t as (1, N); dim=None takes any N."""
    if np.ndim(t) != 2:
        return as_vector(t, dim)[None, :], False
    batch = np.asarray(t, dtype=np.float64)
    if dim is not None and batch.shape[1] != dim:
        raise ShapeError(f"t has dimension {batch.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(batch)):
        raise ParameterError("t must be finite")
    return batch, True


def _tiles(row: ArrayRow, rows: int) -> list[tuple[slice, int, int, int | None]]:
    """(t rows, first cell, end cell, cell width) tiles covering a chunk of ``rows`` t.

    Cells are packed in order into blocks of at most max(1, _TILE_ELEMENTS
    // rows) atoms (a larger cell is a block of its own), and a block of A
    atoms is cut into runs of max(1, _TILE_ELEMENTS // A) t rows, so a
    tile holds at most _TILE_ELEMENTS elements unless it is one t by one
    cell.  The cell width is the atom count that every cell of the block
    has, read from the block's own offsets, or None when they differ.
    """
    atoms = max(1, _TILE_ELEMENTS // rows)
    offsets, tiles, k = row.offsets, [], 0
    while k < row.n:
        end = max(k + 1, int(np.searchsorted(offsets, offsets[k] + atoms, side="right")) - 1)
        widths = offsets[k + 1:end + 1] - offsets[k:end]
        width = int(widths[0]) if (widths == widths[0]).all() else None
        step = max(1, _TILE_ELEMENTS // int(offsets[end] - offsets[k]))
        tiles += [(slice(i, i + step), k, end, width) for i in range(0, rows, step)]
        k = end
    return tiles


def _cell_sums(terms: np.ndarray, cuts: np.ndarray, width: int | None) -> np.ndarray:
    """np.add.reduceat(terms, cuts, axis=1), bit for bit.

    When every cell of the tile has one width W <= _SLICE_ADD_MAX_WIDTH, the
    (rows, atoms) terms are viewed as (rows, cells, W) and each cell is
    summed in reduceat's own order: its first term plus the rest added left
    to right, in slice adds that release the interpreter lock.  Tiles of
    mixed widths (width None) and of wider cells take reduceat, which holds
    it.
    """
    if width is None or width > _SLICE_ADD_MAX_WIDTH:
        return np.add.reduceat(terms, cuts, axis=1)
    cells = terms.reshape(len(terms), -1, width)
    if width == 1:
        return cells[..., 0]
    rest = cells[..., 1]
    for j in range(2, width):
        rest = rest + cells[..., j]
    return cells[..., 0] + rest


def _parities(row: ArrayRow, weights: tuple, k0: int, k1: int, width: int | None):
    """(even per weight, repeated per upper column) of a mirrored tile, else None.

    A tile is mirrored when its cells share one width W in {2, 4}, every
    cell is centrally symmetric in storage order (atom lo + j is the
    bitwise negation of atom hi - 1 - j) and each weight is even
    (w[lo + j] == w[hi - 1 - j], all positive) or odd (w[lo + j] the
    bitwise negation of w[hi - 1 - j]).  Upper column j of a tile is its
    cells' atoms lo + W/2 + j; it is repeated when all of them hold one
    point, bit for bit.
    """
    if width not in (2, 4):
        return None
    lo, hi, half = row.offsets[k0], row.offsets[k1], width // 2
    x = row.points[lo:hi].reshape(-1, width, row.dimension)
    upper, lower = x[:, half:], x[:, half - 1::-1]
    if not np.array_equal(lower.view(np.uint64), (-upper).view(np.uint64)):
        return None
    even = []
    for w in weights:
        w = w[lo:hi].reshape(-1, width)
        up, down = w[:, half:], w[:, half - 1::-1]
        if np.array_equal(up, down) and np.all(up > 0.0):
            even.append(True)
        elif np.array_equal(down.view(np.uint64), (-up).view(np.uint64)):
            even.append(False)
        else:
            return None
    bits = upper.view(np.uint64)
    return tuple(even), tuple(bool(np.all(bits[:, j] == bits[0, j])) for j in range(half))


def _mirrored_sums(row, block, weights, outs, tile, parities) -> bool:
    """Write a mirrored tile's per-cell sums from its upper atoms; False when
    a zero phase in two or more dimensions leaves it to the general path."""
    rows, k0, k1, width = tile
    even, repeated = parities
    lo, hi, half = row.offsets[k0], row.offsets[k1], width // 2
    phases = []
    for j in range(half):
        # atom lo + half + j of every cell, or of the first when all share it
        points = row.points[lo + half + j:hi:width]
        phases.append(_project(points[:1] if repeated[j] else points, block[rows]))
    if row.dimension > 1 and not all(even) and not all(a.all() for a in phases):
        return False
    cos = [np.cos(a) for a in phases] if any(even) else None
    sin = [np.sin(a, out=a) for a in phases] if not all(even) else None
    for w, is_even, out in zip(weights, even, outs):
        terms = [w[lo + half + j:hi:width] * (cos if is_even else sin)[j] for j in range(half)]
        # reduceat's order over the mirrored cell: T0 + T0, or T1 + ((T0 + T0) + T1)
        total = terms[0] + terms[0]
        if half == 2:
            total += terms[1]
            np.add(terms[1], total, out=total)
        if is_even:
            out.real[rows, k0:k1], out.imag[rows, k0:k1] = total, -0.0
        else:
            out.real[rows, k0:k1], out.imag[rows, k0:k1] = 0.0, -total
    return True


def _cell_transforms(row: ArrayRow, batch: np.ndarray, weights: tuple, reduce) -> np.ndarray:
    """reduce(*transforms) over row-chunks of the batch, stacked along axis 0.

    For each per-atom weight w the transform is the (chunk, n) complex
    array of per-cell sums of w (cos a - i sin a), a = <t, x_a>; weights
    p give the cell transforms phi_k(t) = E[e^{-i <t, X_k>}].  A chunk
    holds at most max(1, _PHASE_BUDGET // total_atoms) t and is formed in
    ``_tiles``: each tile projects its own atoms, takes cos a and sin a,
    and writes the ``_cell_sums`` of each weight over its cells into its
    columns.  Every per-cell sum is reduceat's over the same atoms, in its
    order (first term plus the rest left to right): slice adds over a
    (t, cells, width) view in a tile of one cell width up to
    ``_SLICE_ADD_MAX_WIDTH``, which release the interpreter lock, and
    reduceat itself, which holds it, in a tile of mixed or wider cells.

    A mirrored tile (``_parities``: one width W in {2, 4}, centrally
    symmetric cells, each weight even and positive or odd) projects only
    its cells' upper atoms, and an upper column that holds one point in
    every cell (the +-1/s_n atoms of eta, every atom of rademacher) only
    that point, one phase per t.  Its sums are the general path's, bit
    for bit, because for the lower atom of a pair the phase is -a, cos
    is even and sin odd (bit for bit on every numpy the tests run), and
    x + (-x) = +0 in round-to-nearest:

    * an even weight's cos terms of a pair are equal, so its real part is
      reduceat's T0 + T0 (W = 2) or T1 + ((T0 + T0) + T1) (W = 4) of the
      upper terms T0, T1; its sin terms are exact negations, so
      t0 + ((t1 + t2) + t3) is +0 (a zero sum is -0 only when all its
      terms are -0, and a positive weight's pair w sin(+-0) holds a +0),
      and its imaginary part is -0.0 without a sin;
    * an odd weight's sin terms of a pair are equal, so its imaginary part
      is minus that sum of the upper terms; its cos terms are exact
      negations, as its weights are, and its real part is +0.0 without a
      cos.

    The one exception is the projection's: fl(<t, -x>) = -fl(<t, x>) bit
    for bit in one dimension, and in more unless the sum is an exact 0,
    which it is as +0 for both atoms.  An odd weight's pair then holds
    sin terms of opposite zero signs, so in two or more dimensions a tile
    with an odd weight and a zero upper phase takes the general path.
    Every other tile does, mixed-width tiles (an eta row's first, which
    holds its 2-atom cell 0) and wider cells included.

    The tiles run in turn on the calling thread, and change no bit; they
    and their parities are laid out once per distinct chunk length of the
    call, and every numpy step of a tile but reduceat releases the
    interpreter lock.  The outputs are fresh arrays for each chunk, which
    ``reduce`` may overwrite.
    """
    chunk = max(1, _PHASE_BUDGET // row.total_atoms)
    offsets, parts, tiles, plans = row.offsets, [], {}, {}
    # an empty batch still makes one (0, n) pass, so the result has its shape
    for i in range(0, batch.shape[0], chunk) or (0,):
        block = batch[i:i + chunk]
        outs = [np.empty((len(block), row.n), dtype=np.complex128) for _ in weights]
        if len(block) not in tiles:
            tiles[len(block)] = _tiles(row, len(block)) if len(block) else ()
            for _, k0, k1, width in tiles[len(block)]:
                if (k0, k1) not in plans:
                    plans[k0, k1] = _parities(row, weights, k0, k1, width)
        for tile in tiles[len(block)]:
            rows, k0, k1, width = tile
            if plans[k0, k1] and _mirrored_sums(row, block, weights, outs, tile, plans[k0, k1]):
                continue
            lo, hi = offsets[k0], offsets[k1]
            a = row.project(block[rows], lo, hi)
            cos = np.cos(a)
            # sin a overwrites a, which no sum reads
            sin = np.sin(a, out=a)
            cuts = offsets[k0:k1] - lo
            for w, out in zip(weights, outs):
                w = w[lo:hi]
                out.real[rows, k0:k1] = _cell_sums(w * cos, cuts, width)
                out.imag[rows, k0:k1] = -_cell_sums(w * sin, cuts, width)
        parts.append(reduce(*outs))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def row_sum_charfn(row: ArrayRow, t):
    """Exact transform of the row sum: the product of cell transforms.

    A 2-D (m, N) batch of t gives a complex array of m values.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    values = _cell_transforms(row, batch, (row.probs,), lambda phis: np.prod(phis, axis=1))
    return values if is_batch else complex(values[0])


def gaussian_charfn(t):
    """Transform of the standard normal vector: exp(-|t|^2 / 2), |t|^2 added in
    coordinate order.  A 2-D (m, N) batch of t gives an array of m values."""
    batch, is_batch = _as_batch(t, None)
    values = np.exp(-0.5 * sum((c * c for c in batch.T), np.zeros(len(batch))))
    return values if is_batch else float(values[0])


def charfn_gap(row: ArrayRow, t):
    """|phi_Gauss(t) - phi_row(t)|, always in [0, 2].

    A 2-D (m, N) batch of t gives an array of m gaps.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    gaps = np.abs(gaussian_charfn(batch) - row_sum_charfn(row, batch))
    return gaps if is_batch else float(gaps[0])


def sample_row_sums(row: ArrayRow, samples: int, seed: RngSeed) -> np.ndarray:
    """Draw i.i.d. realisations of the row sum; shape (samples, N).

    Each cell is sampled independently by inverse transform on its atom
    probabilities, so the draws are fully determined by (seed, stream).
    The draw contract, which every (seed, stream) keeps bit for bit: cell
    k reads uniforms k*m ... (k+1)*m - 1 of the stream (m = samples, a
    one-atom cell included), sample j of cell k taking uniform k*m + j,
    and a uniform u picks the atom whose index is the count of the cell's
    cumulative weights cum = cumsum(p) that are <= u, capped at the last
    atom.  Each sample's sum adds the cells in order.

    Samples are independent of one another, so the sample axis is cut
    into contiguous blocks, one per core when each holds at least
    ``_MIN_BLOCK_SAMPLES``; a block reads its uniforms from its own
    generator, which the exact ``advance`` of the bit generator moves to
    the block's first uniform and then, between cells, past the other
    blocks' uniforms (one block never advances), and the blocks are drawn
    concurrently.  Neither the block count nor the order in which blocks
    run changes a bit of the result.  Each block draws every cell's
    uniforms into one buffer and gathers each coordinate of the picked
    atoms into another, so a block allocates no sample-sized array per
    cell, whichever thread runs it.

    The count is taken by one comparison pass per atom for cells of at
    most ``_COUNTING_MAX_ATOMS`` atoms and by a binary search above;
    every p > 0, so cum is non-decreasing and both give the same index.
    Each coordinate of the picked atoms is gathered and added on its own,
    the same adds as a gather of whole atoms.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    total = np.zeros((samples, row.dimension))
    blocks = _thread_count(samples // _MIN_BLOCK_SAMPLES)
    edges = [samples * b // blocks for b in range(blocks + 1)]

    def draw(block: int) -> None:
        start, stop = edges[block], edges[block + 1]
        rng = seed.generator()
        # this block's uniforms of cell k start at k * samples + start: one
        # advance to cell 0's, then one past the other blocks' between cells
        skip = samples - (stop - start)
        if start:
            rng.bit_generator.advance(start)
        u, picked = np.empty(stop - start), np.empty(stop - start)
        for k in range(row.n):
            if k and skip:
                rng.bit_generator.advance(skip)
            lo, hi = row.offsets[k], row.offsets[k + 1]
            idx = _atom_index(np.cumsum(row.probs[lo:hi]), rng.random(out=u))
            for j in range(row.dimension):
                # idx <= hi - lo - 1, so "clip" never clips
                total[start:stop, j] += row.points[lo:hi, j].take(idx, out=picked, mode="clip")

    _fan_out(draw, range(blocks))
    return total


def _atom_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-transform atom of each uniform: the count of cum[:-1] <= u.

    Cells of at most _COUNTING_MAX_ATOMS atoms add one comparison per
    atom, each viewed as bytes, into a byte count, which holds the count
    of a cell of up to 256 atoms; a wider counted cell counts in intp.
    """
    if cum.size > _COUNTING_MAX_ATOMS:
        return np.searchsorted(cum[:-1], u, side="right")
    if cum.size == 1:
        return np.zeros(u.size, dtype=np.uint8)
    idx = (u >= cum[0]).view(np.uint8)
    if cum.size > 256:
        idx = idx.astype(np.intp)
    for c in cum[1:-1]:
        idx += (u >= c).view(np.uint8)
    return idx


def empirical_charfn(row: ArrayRow, t, samples: int, seed: RngSeed):
    """Monte Carlo transform of the row sum, as (value, standard error).

    The result is deterministic given (seed, stream).  stderr combines
    the real and imaginary sample standard deviations in quadrature (0
    for one sample); a healthy run has |exact - value| below a few
    stderr.  A 2-D (m, N) batch of t gives an array of m values and one
    of m stderrs, all from one draw of the sums, each entry equal to the
    single-t call.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    sums = sample_row_sums(row, samples, seed)
    values, stderr = np.empty(batch.shape[0], np.complex128), np.zeros(batch.shape[0])
    for i, tvec in enumerate(batch):
        z = np.exp(-1j * (sums @ tvec))
        values[i] = np.mean(z)
        if samples > 1:
            stderr[i] = np.sqrt((np.var(z.real, ddof=1) + np.var(z.imag, ddof=1)) / samples)
    return (values, stderr) if is_batch else (complex(values[0]), float(stderr[0]))


def kolmogorov_mc(row: ArrayRow, samples: int, seed: RngSeed) -> float:
    """Monte Carlo Kolmogorov distance between the row sum and N(0, 1).

    One-dimensional rows only.  The empirical CDF jumps at each distinct
    draw, and Phi is compared with it at both sides of each jump, which
    is where the supremum of |F_empirical - Phi| lives for discrete laws;
    Phi is taken once per distinct draw.  Diagnostic only: the package's
    quantitative statements are about transform gaps, not CDF distance.
    """
    if row.dimension != 1:
        raise UnsupportedDimensionError("kolmogorov_mc supports one-dimensional rows only")
    values, counts = np.unique(sample_row_sums(row, samples, seed)[:, 0], return_counts=True)
    below = np.cumsum(counts)
    phi = normal_cdf(values)
    upper = np.max(below / samples - phi)
    lower = np.max(phi - (below - counts) / samples)
    return float(max(upper, lower))
