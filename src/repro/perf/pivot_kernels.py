"""Batched pivot extraction for the stratifier and tree mining.

Step 1 of the stratifier reduces every item to a set of pivot ids
(:mod:`repro.stratify.pivots`). The reference extractors run per item
on Python ints: a heap-driven Prüfer encoding, a walk-up LCA per
consecutive pair, and a SplitMix64 mix per pivot part. Tree mining
repeats the conversion on every partition and every profiling probe.
The kernels here convert a whole batch at once and return it in CSR
form, ``(flat, offsets)``: item ``i``'s pivots are
``flat[offsets[i]:offsets[i + 1]]``, sorted and de-duplicated,
``uint64`` values in the ``2**32`` pivot universe.

- **Trees** are flattened to global node ids. Validation is a handful
  of vectorised checks plus pointer jumping (which also yields depths
  and the binary-lifting ancestor table, and exposes cycles as nodes
  that never reach their root). The Prüfer leaf-pruning runs in
  lockstep across padded ``(trees × width)`` degree matrices of
  similar-sized trees: each step takes the smallest live degree-1 node
  of every active row, and a per-node XOR of live neighbour ids names
  the leaf's sole neighbour. A step scans its row, so one tree costs
  O(n²) element operations — vectorised, and far below the per-item
  path at the tens of nodes the registry trees have. LCAs of
  consecutive sequence entries come from binary lifting.
- **Text and graph** items hash their flat id array in one pass.

Hashing is SplitMix64 on ``uint64`` arrays, which wrap mod ``2**64``
exactly as the reference's masked Python ints do; per-item
de-duplication is one ``np.unique`` over ``(item << 32) | pivot``.
Every kernel is bit-identical to the per-item reference it replaces
(``tests/perf/test_pivot_kernels.py``). Ids must fit in ``int64``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_SEED = 0x51_7C_C1_B7_27_22_0A_95
_S30, _S27, _S31, _S32 = (np.uint64(s) for s in (30, 27, 31, 32))
_UNIVERSE_MASK = np.uint64((1 << 32) - 1)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser over a ``uint64`` array (wraps mod 2**64)."""
    x = x + _GOLDEN
    x = (x ^ (x >> _S30)) * _MUL1
    x = (x ^ (x >> _S27)) * _MUL2
    return x ^ (x >> _S31)


def stable_pivot_ids(*parts: np.ndarray | int) -> np.ndarray:
    """Vectorised ``stable_pivot_id``: hash aligned part columns.

    Each part is an integer array or a Python int broadcast against
    the arrays; negative values wrap to their
    two's-complement ``uint64`` as the reference's ``& 2**64-1`` does.
    """
    acc = np.full(1, _SEED, dtype=np.uint64)
    for part in parts:
        col = np.atleast_1d(np.asarray(part, dtype=np.int64)).view(np.uint64)
        acc = splitmix64(acc ^ splitmix64(col))
    return acc & _UNIVERSE_MASK


def _csr_unique(
    owner: np.ndarray, pivots: np.ndarray, n_items: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort and de-duplicate ``pivots`` per owning item → ``(flat, offsets)``."""
    keys = np.unique((owner.astype(np.uint64) << _S32) | pivots)
    counts = np.bincount((keys >> _S32).astype(np.intp), minlength=n_items)
    offsets = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return keys & _UNIVERSE_MASK, offsets


def csr_rows(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Per-item views ``flat[offsets[i]:offsets[i + 1]]`` of a CSR batch."""
    bounds = offsets.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def csr_lists(flat: np.ndarray, offsets: np.ndarray) -> list[list[int]]:
    """Per-item Python-int lists of a CSR batch (sorted, as stored)."""
    values, bounds = flat.tolist(), offsets.tolist()
    return [values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def flatten_ids(items: Sequence[Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ragged int sequences → ``(int64 values, lengths)``."""
    items = [x if hasattr(x, "__len__") else list(x) for x in items]
    lengths = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
    values = np.fromiter(
        chain.from_iterable(items), dtype=np.int64, count=int(lengths.sum())
    )
    return values, lengths


def id_pivot_batch(
    items: Sequence[Iterable[int]], salt: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of ``{stable_pivot_id(v, salt, salt) for v in item}``.

    ``salt`` is 1 for graph neighbour lists and 2 for text token lists
    (:func:`repro.stratify.pivots.graph_pivots` / ``text_pivots``).
    """
    values, lengths = flatten_ids(items)
    owner = np.repeat(np.arange(lengths.size), lengths)
    return _csr_unique(owner, stable_pivot_ids(values, salt, salt), lengths.size)


def _tree_error(code: int, roots: int) -> ValueError:
    return ValueError(
        (
            "labels and parent arrays must have equal length",
            "tree must have at least one node",
            f"tree must have exactly one root, found {roots}",
            "parent ids out of range",
            "node cannot be its own parent",
            "cycle detected in parent array",
        )[code]
    )


def _ragged(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and position of every slot of ragged rows of ``lengths``."""
    row = np.repeat(np.arange(lengths.size), lengths)
    pos = np.arange(row.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return row, pos


def _prufer_lockstep(
    deg: np.ndarray, nbr_xor: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """Prüfer sequences of padded trees sorted by ``size`` descending.

    ``deg``/``nbr_xor`` are ``(rows, width)`` degree and live-neighbour
    XOR matrices (padding has degree 0); both are consumed. Row ``r``'s
    sequence is ``out[r, :size[r] - 2]``.
    """
    rows, width = deg.shape
    out = np.zeros((rows, width - 2), dtype=np.int64)
    # Rows are sorted by size, so the trees still pruning at step s are
    # a prefix: those with size - 2 > s.
    active = np.searchsorted(-(size - 2), -np.arange(width - 2), side="left")
    for step, count in enumerate(active.tolist()):
        r = np.arange(count)
        leaf = (deg[:count] == 1).argmax(axis=1)
        nbr = nbr_xor[r, leaf]
        out[r, step] = nbr
        deg[r, leaf] = 0
        deg[r, nbr] -= 1
        nbr_xor[r, nbr] ^= leaf
    return out


def _prufer_sequences(
    deg: np.ndarray, nbr_xor: np.ndarray, size: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every tree's Prüfer sequence (local ids), concatenated, and each
    tree's offset into the concatenation.

    Trees run in lockstep over padded ``(trees × width)`` matrices,
    largest first. Each matrix takes the longest run of the remaining
    sizes whose padding stays at most half of it, so one large tree
    cannot widen the row of every small tree in the batch.
    """
    seq_len = np.maximum(size - 2, 0)
    seq_start = np.cumsum(seq_len) - seq_len
    seq = np.zeros(int(seq_len.sum()), dtype=np.int64)
    order = np.argsort(-size, kind="stable")[: np.count_nonzero(size >= 3)]
    lo = 0
    while lo < order.size:
        sizes = size[order[lo:]]
        over_half = np.arange(1, sizes.size + 1) * sizes[0] > 2 * np.cumsum(sizes)
        group = order[lo : lo + (int(over_half.argmax()) if over_half.any() else sizes.size)]
        row, col = _ragged(size[group])
        node = start[group][row] + col
        pad_deg = np.zeros((group.size, int(size[group[0]])), dtype=np.int64)
        pad_xor = np.zeros_like(pad_deg)
        pad_deg[row, col] = deg[node]
        pad_xor[row, col] = nbr_xor[node]
        out = _prufer_lockstep(pad_deg, pad_xor, size[group])
        row, col = _ragged(seq_len[group])
        seq[seq_start[group][row] + col] = out[row, col]
        lo += group.size
    return seq, seq_start


def tree_pivot_batch(items: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Batch of :func:`repro.stratify.pivots.tree_pivots` over
    ``(parent, labels)`` items.

    Raises the reference's ``ValueError`` for the first malformed tree
    (label/parent length mismatch, empty tree, not exactly one root,
    parent id out of range, self-loop, cycle).
    """
    items = list(items)
    n_trees = len(items)
    parent, size = flatten_ids([p for p, _ in items])
    labels, n_labels = flatten_ids([lab for _, lab in items])
    total = parent.size
    tree_of, local = _ragged(size)
    start = np.cumsum(size) - size
    node_size = size[tree_of]

    # -- validation (the reference's order of checks, per tree) -------
    is_root = parent == -1
    roots = np.bincount(tree_of[is_root], minlength=n_trees)
    out_of_range = np.bincount(
        tree_of[(parent < -1) | (parent >= node_size)], minlength=n_trees
    )
    self_loop = np.bincount(tree_of[parent == local], minlength=n_trees)
    checks = np.stack(
        [n_labels != size, size == 0, roots != 1, out_of_range > 0, self_loop > 0]
    )
    bad = checks.any(axis=0)
    # Malformed trees become self-rooted nodes so jumping stays in range.
    ok_node = ~bad[tree_of]
    global_id = np.arange(total, dtype=np.int64)
    up0 = np.where(ok_node & ~is_root, parent + start[tree_of], global_id)

    # -- pointer jumping: ancestor table, depths, cycle check ---------
    levels = max(1, (int(size.max(initial=1)) - 1).bit_length())
    up = [up0]
    depth = (up0 != global_id).astype(np.int64)
    for _ in range(levels):
        depth = depth + depth[up[-1]]
        up.append(up[-1][up[-1]])
    root_of = np.zeros(n_trees, dtype=np.int64)
    root_of[tree_of[ok_node & is_root]] = global_id[ok_node & is_root]
    cyclic = ok_node & (up[-1] != root_of[tree_of])
    if bad.any() or cyclic.any():
        cycles = np.bincount(tree_of[cyclic], minlength=n_trees) > 0
        codes = np.vstack([checks, cycles])
        first = int(np.flatnonzero(codes.any(axis=0))[0])
        code = int(np.argmax(codes[:, first]))
        raise _tree_error(code, int(roots[first]))

    # -- Prüfer sequences, then LCAs of consecutive entries -----------
    has_parent = ~is_root
    child, par = global_id[has_parent], up0[has_parent]
    deg = np.bincount(par, minlength=total) + has_parent
    nbr_xor = np.where(has_parent, parent, 0)
    np.bitwise_xor.at(nbr_xor, par, local[has_parent])
    seq, seq_start = _prufer_sequences(deg, nbr_xor, size, start)
    pair_tree, pos = _ragged(np.maximum(size - 3, 0))
    at = seq_start[pair_tree] + pos
    p = seq[at] + start[pair_tree]
    q = seq[at + 1] + start[pair_tree]
    # Binary lifting: raise the deeper node to the other's depth, then
    # both to just below their lowest common ancestor.
    a, b = np.where(depth[p] >= depth[q], p, q), np.where(depth[p] >= depth[q], q, p)
    lift = depth[a] - depth[b]
    for k in range(levels):
        a = np.where((lift >> k) & 1 == 1, up[k][a], a)
    for k in reversed(range(levels)):
        ua, ub = up[k][a], up[k][b]
        differ = ua != ub
        a, b = np.where(differ, ua, a), np.where(differ, ub, b)
    anc = np.where(a == b, a, up0[a])

    # -- hash label triples and parent-child pairs --------------------
    owner = np.concatenate([pair_tree, tree_of[has_parent]])
    pivots = np.concatenate(
        [
            stable_pivot_ids(labels[anc], labels[p], labels[q]),
            stable_pivot_ids(labels[par], labels[child], 0),
        ]
    )
    return _csr_unique(owner, pivots, n_trees)
