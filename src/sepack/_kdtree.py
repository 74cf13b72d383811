"""The one pair query of the package: a numpy grid index.

A pair is within r when its squared differences, summed in axis order, are
at most r * r, as in scipy's KD-tree (which this replaced) up to d = 7.
The cells are cubes of side r, widened past rounding so that a pair within
r lies in cells at most one apart per axis, with lattice points mid-cell.
``core``, ``contact`` and ``generators`` bind the function as ``cKDTree``
only because perfbench's tracer counts builds through that name.
"""

import numpy as np

# candidate pairs a chunk of queries aims at
_CHUNK = 1 << 15


def cKDTree(points, r: float, queries=None) -> tuple:  # noqa: N802  (the tracer's name)
    """The pairs within r > 0 and their squared sums, in lexicographic order:
    rows (i, j), i < j, of points, or, given queries, rows (query, point)."""
    points, own = np.asarray(points, dtype=float), queries is None
    queries = points if own else np.asarray(queries, dtype=float)
    n, found = len(points), []
    for i, j in _candidates(points, r, queries, own):
        squares = np.zeros(len(i))
        for x, y in zip(queries.T, points.T):
            diff = x[i] - y[j]
            squares += diff * diff
        within = squares <= r * r
        i, j = i[within], j[within]
        key = np.minimum(i, j) * n + np.maximum(i, j) if own else i * n + j
        found.append((key, squares[within]))
    keys, squares = map(np.concatenate, zip(*found))  # the exhausted index is freed
    del found
    rank = np.argsort(keys)  # the keys are distinct
    keys, squares = keys[rank], squares[rank]
    pairs = np.empty((len(keys), 2), dtype=np.intp)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs, squares


def _candidates(points, r: float, queries, own: bool):
    """The rows (i, j) of points in cells at most one apart per axis, a chunk
    of queries at a time, or every row when one chunk holds them all.  A
    query walks the axes, keeping the cell prefixes within one of its own,
    each found by one searchsorted among the sorted keys prefix id * radix +
    cell: no array is sized by the number of cells."""
    n, d = points.shape
    if n * len(queries) <= _CHUNK:
        yield np.triu_indices(n, 1) if own else np.divmod(np.arange(n * len(queries)), n)
        return
    low = np.minimum(points.min(axis=0), queries.min(axis=0))
    extent = float((np.maximum(points.max(axis=0), queries.max(axis=0)) - low).max())
    # no axis spans more than 2^60 / n cells, so every key fits an int64
    side = (max(r, extent * n * 2.0**-60) + extent * 2.0**-48) * (1 + d * 2.0**-50)
    cells = np.floor((points - low) / side + 0.5).astype(np.int64)
    radix = int(extent / side + 0.5) + 2  # so cell - 1 of a neighbour matches no prefix
    ids, prefixes = np.zeros(n, dtype=np.int64), []
    for k in range(d - 1):
        table, ids = np.unique(ids * radix + cells[:, k], return_inverse=True)
        prefixes.append(np.append(table, [2**62] * 3))  # past every key, for 3 slots at the end
    keys = ids * radix + cells[:, -1]
    order = np.argsort(keys)
    keys, start, step = keys[order], 0, max(1, _CHUNK >> d)
    while start < len(queries):
        q = np.arange(start, min(start + step, len(queries)))
        sought = cells[order[q]] if own else np.floor((queries[q] - low) / side + 0.5).astype(int)
        # sorted own points of one prefix walk it once, as its first point
        first = np.flatnonzero(np.diff(keys[q] // radix, prepend=-1)) if own else q - start
        w = q[first]
        prefix, tied = np.zeros(len(w), dtype=np.int64), np.full(len(w), own)
        for k, table in enumerate(prefixes):
            needle = prefix * radix + sought[w - start, k] - 1
            slots = np.searchsorted(table, needle)[:, None] + np.arange(3)
            steps = table[slots] - needle[:, None]  # cell + 1 - the query's, from 0
            # an own pair is found once: from its lesser cell, or within one cell
            near = (steps <= 2) & (steps >= tied[:, None])
            slot, row = np.nonzero(near.T)  # slot by slot, so the needles come sorted
            w, prefix, tied = w[row], slots[row, slot], tied[row] & (steps[row, slot] == 1)
        # every point of the walker's run takes the walker's prefixes
        run = np.diff(np.append(first, len(q)))[np.searchsorted(q[first], w)]
        q = np.repeat(w - np.cumsum(run) + run, run) + np.arange(run.sum())
        prefix, tied = np.repeat(prefix, run), np.repeat(tied, run)
        # the points of the prefix whose last cell is within one of the query's
        needle = prefix * radix + sought[q - start, -1] - 1
        begin = np.where(tied, q + 1, np.searchsorted(keys, needle))
        counts = np.searchsorted(keys, needle + 3) - begin
        i = np.repeat(order[q] if own else q, counts)
        j = order[np.repeat(begin - np.cumsum(counts) + counts, counts) + np.arange(len(i))]
        start, step = start + step, max(1, min(2 * step, step * _CHUNK // max(1, len(i))))
        yield i, j
