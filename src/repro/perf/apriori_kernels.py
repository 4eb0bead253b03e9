"""Levelwise Apriori candidate generation over bitmap row arrays.

The reference join (:meth:`AprioriMiner._generate_candidates`) walks
every pair of ``F_{k-1}`` tuples in Python and prunes each joined
candidate with ``k`` tuple slices and set lookups. Here a level is an
``(m, k-1)`` int64 array of bitmap row indices, sorted
lexicographically. Bitmap rows are the sorted item ids, so row-tuple
order equals item-tuple order and every output matches the reference
in content and order.

- **Join.** Rows sharing their first ``k-2`` columns form contiguous
  groups of the sorted level. Every in-group pair ``(i < j)`` is
  emitted by ``np.repeat``/offset arithmetic, ``i``-major and
  ``j``-ascending as the reference's double loop does; for ``k = 2``
  the single group makes this ``triu_indices``. The candidates come
  out lexicographically sorted and unique, so the next level needs no
  sort.
- **Prune.** Dropping either of the last two columns gives a joined
  row, which is frequent by construction; for every other position
  ``p`` the row without column ``p`` must be a member of the level.
  Membership is a ``searchsorted`` over mixed-radix keys (base = the
  bitmap's row count) while ``base ** (k-1)`` fits in int64; the sorted
  level's keys are already ascending. Past that an exact
  ``np.lexsort`` of the level and the queries decides equality by row
  compares, so no combined key ever overflows.

Pure functions of numpy arrays, tested for parity against the
reference join in ``tests/perf/test_apriori_kernels.py``.
"""

from __future__ import annotations

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)


def radix_fits(base: int, width: int) -> bool:
    """Whether ``width``-column rows over ``[0, base)`` have int64 keys."""
    return base**width - 1 <= _INT64_MAX


def _radix_keys(rows: np.ndarray, base: int) -> np.ndarray:
    keys = rows[:, 0].astype(np.int64)
    for col in range(1, rows.shape[1]):
        keys *= base
        keys += rows[:, col]
    return keys


def rows_member(query: np.ndarray, table: np.ndarray, base: int) -> np.ndarray:
    """Which rows of ``query`` occur in ``table``.

    ``table`` is ``(m, w)`` int64, sorted lexicographically and unique;
    ``query`` is ``(q, w)``; all entries lie in ``[0, base)``.
    """
    q, width = query.shape
    if q == 0 or table.shape[0] == 0:
        return np.zeros(q, dtype=bool)
    if radix_fits(base, width):
        tkeys = _radix_keys(table, base)
        qkeys = _radix_keys(query, base)
        pos = np.minimum(np.searchsorted(tkeys, qkeys), tkeys.size - 1)
        return tkeys[pos] == qkeys
    # Exact path: sort table and queries together (first column
    # primary, table rows before equal query rows) and look at the head
    # of each run of equal rows.
    m = table.shape[0]
    both = np.concatenate([table, query])
    origin = np.arange(m + q) >= m
    order = np.lexsort((origin,) + tuple(both[:, c] for c in reversed(range(width))))
    ordered = both[order]
    starts = np.ones(m + q, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    head = np.maximum.accumulate(np.where(starts, np.arange(m + q), 0))
    hit = ~origin[order[head]]
    member = np.empty(q, dtype=bool)
    is_query = origin[order]
    member[order[is_query] - m] = hit[is_query]
    return member


def join_prune(level: np.ndarray, base: int) -> np.ndarray:
    """Next-level Apriori candidates of a sorted frequent level.

    ``level`` is ``(m, k-1)`` int64 row indices in ``[0, base)``,
    lexicographically sorted and unique. Returns the ``(c, k)``
    candidates in the reference's order.
    """
    m, width = level.shape
    if m < 2:
        return np.empty((0, width + 1), dtype=np.int64)
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    starts[1:] = (level[1:, : width - 1] != level[:-1, : width - 1]).any(axis=1)
    bounds = np.flatnonzero(starts)
    ends = np.append(bounds[1:], m)
    partners = np.repeat(ends, ends - bounds) - np.arange(m) - 1
    total = int(partners.sum())
    left = np.repeat(np.arange(m), partners)
    first = np.cumsum(partners) - partners
    right = left + 1 + np.arange(total) - np.repeat(first, partners)
    cand = np.empty((total, width + 1), dtype=np.int64)
    cand[:, :width] = level[left]
    cand[:, width] = level[right, width - 1]
    for p in range(width - 1):
        cand = cand[rows_member(np.delete(cand, p, axis=1), level, base)]
    return cand
