"""Partition-wide WebGraph coder kernel.

The reference coder (:meth:`WebGraphCodec.compress_reference`) walks a
partition list by list: it serializes the plain interval/gap encoding
and every reference candidate among the ``window`` previous lists, then
keeps the shortest. :func:`compress_partition` produces the
byte-identical blob and the same statistics from whole-partition array
passes:

1. **Canonicalise** the partition into CSR ``(values, offsets)``: each
   list sorted and de-duplicated, ``int64``.
2. **Membership.** One stable sort orders every entry by (value, list).
   The lists holding one value are then adjacent and ascending, so
   ``window`` shifted compares mark, for every entry and back distance
   ``d``, whether list ``i - d`` holds it too (``back``) and whether
   list ``i + d`` does (``fwd``). No combined key is formed, so any
   ``int64`` id works.
3. **Score** every candidate (list ``i``, back ``b``) whose reference
   shares at least one id (the reference skips the others): the run
   lengths of the copy mask over list ``i - b``, with its leading 0-run,
   and the plain length of the extras. Both are segment operations over
   candidate-major CSR batches, computed in list blocks of at most
   :data:`_BLOCK_ENTRIES` candidate entries so the transient arrays stay
   within ``DEFAULT_CHUNK_BYTES``.
4. **Pick** each list's winner with a first-minimum ``argmin`` over
   ``[plain, b=1..window]``. Plain comes first and wins ties, as in the
   reference's strict ``<``.
5. **Emit** only the winners' symbols, scattered into one array that
   :func:`encode_varints_bytes` serializes in a single call. Every byte
   of the format is a varint (the flag bytes 0/1 included), so the blob
   is one varint stream.

Ids must be non-negative and fit in ``int64``; a negative id raises
``ValueError``, as the reference's varint coder does.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.perf.lz77_kernels import encode_varints_bytes
from repro.perf.minhash_kernels import DEFAULT_CHUNK_BYTES
from repro.perf.pivot_kernels import flatten_ids

#: Minimum run of consecutive ids encoded as an interval (WebGraph's
#: ``Lmin``; runs shorter than this go through gap coding).
MIN_INTERVAL_LENGTH = 3

#: Smallest value of each varint length past one byte: 2**7, 2**14, ...
_VARINT_STEPS = np.array([1 << (7 * k) for k in range(1, 9)], dtype=np.int64)

#: Candidate entries (extras plus copy-mask entries) scored per block.
#: Scoring peaks at about 20 traced bytes per entry on uk partitions, so
#: a block's transients stay near a tenth of ``DEFAULT_CHUNK_BYTES``
#: (0.9 MB), below the final varint encode's.
_BLOCK_ENTRIES = DEFAULT_CHUNK_BYTES // 192

_NO_CANDIDATE = np.iinfo(np.int64).max


class PartitionCounts(NamedTuple):
    """The statistics :func:`compress_partition` reports besides the blob."""

    input_edges: int
    referenced_lists: int
    work_units: int


def canonical_csr(adjacency: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Each list sorted and de-duplicated → ``(int64 values, offsets)``."""
    try:
        values, lengths = flatten_ids(adjacency)
    except OverflowError as exc:
        raise ValueError("WebGraph ids must fit in int64") from exc
    if values.size and values.min() < 0:
        raise ValueError("WebGraph ids must be non-negative")
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    owner = _owners(offsets)
    ascending = (values[1:] > values[:-1]) | (owner[1:] != owner[:-1])
    if not ascending.all():
        order = np.lexsort((values, owner))
        values = values[order]
        keep = np.ones(values.size, dtype=bool)
        keep[1:] = (values[1:] != values[:-1]) | (owner[1:] != owner[:-1])
        values = values[keep]
        np.cumsum(np.bincount(owner[keep], minlength=lengths.size), out=offsets[1:])
    return values, offsets


def _owners(offsets: np.ndarray) -> np.ndarray:
    """The list index of every CSR entry."""
    return np.repeat(np.arange(offsets.size - 1, dtype=np.int64), np.diff(offsets))


def _varint_len(x: np.ndarray) -> np.ndarray:
    return np.searchsorted(_VARINT_STEPS, x, side="right") + 1


def _group_starts(counts: np.ndarray) -> np.ndarray:
    """Index of each group's first entry, for entries grouped by ``counts``."""
    return np.cumsum(counts) - counts


def _ordinal(owner: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each entry's position within its group (``owner`` = group index)."""
    return np.arange(owner.size) - _group_starts(counts)[owner]


def _extra_bytes(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-group sum of ``varint length - 1`` over ``x``, whose entries
    are grouped by ``counts``; most symbols are one byte, so only the
    rest pay the group and length lookups."""
    big = np.flatnonzero(x >= 128)
    owner = np.searchsorted(np.cumsum(counts), big, side="right")
    steps = np.searchsorted(_VARINT_STEPS, x[big], side="right")
    return np.bincount(owner, weights=steps, minlength=counts.size).astype(np.int64)


def _gaps(vals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Gap-code each group's ascending values: first value, then
    ``v - prev - 1``."""
    gaps = np.empty_like(vals)
    np.subtract(vals[1:], vals[:-1], out=gaps[1:])
    gaps -= 1
    first = _group_starts(counts)[counts > 0]
    gaps[first] = vals[first]
    return gaps


class _Plain(NamedTuple):
    """Interval/gap layout of a CSR batch of sorted lists: per list the
    interval and residual counts and the encoded byte length; the
    interval and residual symbols grouped by list."""

    n_int: np.ndarray
    n_res: np.ndarray
    nbytes: np.ndarray
    int_gaps: np.ndarray
    int_lens: np.ndarray
    res_gaps: np.ndarray


def _plain_layout(vals: np.ndarray, offsets: np.ndarray) -> _Plain:
    """The plain coder's symbols for every list of a CSR batch:
    ``[n_intervals][interval lefts gap-coded][lengths - Lmin]
    [n_residuals][residual gaps]``."""
    lengths = np.diff(offsets)
    brk = np.empty(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1] + 1, out=brk[1:])
    brk[offsets[:-1][lengths > 0]] = True
    starts = np.flatnonzero(brk)
    runs = np.diff(starts, append=vals.size)
    is_int = runs >= MIN_INTERVAL_LENGTH
    int_at = starts[is_int]
    int_runs = runs[is_int]
    int_owner = np.searchsorted(offsets, int_at, side="right") - 1
    n_int = np.bincount(int_owner, minlength=lengths.size)
    covered = np.bincount(int_owner, weights=int_runs, minlength=lengths.size)
    n_res = lengths - covered.astype(np.int64)
    int_gaps = _gaps(vals[int_at], n_int)
    int_lens = int_runs - MIN_INTERVAL_LENGTH
    res_gaps = _gaps(vals[np.repeat(~is_int, runs)], n_res)
    nbytes = (
        _varint_len(n_int)
        + _varint_len(n_res)
        + 2 * n_int
        + n_res
        + _extra_bytes(int_gaps, n_int)
        + _extra_bytes(int_lens, n_int)
        + _extra_bytes(res_gaps, n_res)
    )
    return _Plain(n_int, n_res, nbytes, int_gaps, int_lens, res_gaps)


class _Runs(NamedTuple):
    """Run-length code of a CSR batch of copy masks: per list the run
    count, encoded byte length, whether a 0-run leads and how many
    blocks follow it; the block lengths grouped by list."""

    count: np.ndarray
    nbytes: np.ndarray
    lead: np.ndarray
    blocks: np.ndarray
    lens: np.ndarray


def _copy_runs(mask: np.ndarray, offsets: np.ndarray) -> _Runs:
    """Run lengths of each list's copy mask. The first run counts kept
    entries, so a mask that opens with a dropped entry leads with a
    0-run (one byte) before its blocks."""
    lengths = np.diff(offsets)
    heads = offsets[:-1][lengths > 0]
    brk = np.empty(mask.size, dtype=bool)
    np.not_equal(mask[1:], mask[:-1], out=brk[1:])
    brk[heads] = True
    starts = np.flatnonzero(brk)
    lens = np.diff(starts, append=mask.size)
    blocks = np.diff(np.searchsorted(starts, offsets))
    lead = np.zeros(lengths.size, dtype=bool)
    lead[lengths > 0] = ~mask[heads]
    count = blocks + lead
    return _Runs(count, count + _extra_bytes(lens, blocks), lead, blocks, lens)


def _memberships(
    values: np.ndarray, owner: np.ndarray, n: int, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``back[d - 1, k]``: list ``owner[k] - d`` also holds ``values[k]``;
    ``fwd[d - 1, k]``: list ``owner[k] + d`` does; ``shared[i, d - 1]``:
    how many of list ``i``'s entries list ``i - d`` holds.

    In (value, list) order the lists holding a value are ascending, so
    an entry's match ``s`` places back is at distance at least ``s``,
    and only an entry matched at shift ``s`` can match at ``s + 1``.
    """
    back = np.zeros((window, values.size), dtype=bool)
    fwd = np.zeros((window, values.size), dtype=bool)
    shared = np.zeros(n * window, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    # repeat[p]: sorted entry p + 1 holds the same value as entry p.
    repeat = sorted_values[1:] == sorted_values[:-1]
    del sorted_values
    sorted_owner = owner[order]
    right = np.flatnonzero(repeat) + 1
    for shift in range(1, window + 1):
        right = right[right >= shift]
        left = right - shift
        dist = sorted_owner[right] - sorted_owner[left]
        # Entry right holds the value of entry left + 1 (a match at the
        # previous shift), so it matches entry left iff left repeats.
        hit = repeat[left] & (dist <= window)
        right = right[hit]
        if right.size == 0:
            break
        d = dist[hit] - 1
        later = order[right]
        back.flat[d * values.size + later] = True
        fwd.flat[d * values.size + order[left[hit]]] = True
        shared += np.bincount(owner[later] * window + d, minlength=n * window)
    return back, fwd, shared.reshape(n, window)


def _blocks(cand: np.ndarray, lengths: np.ndarray) -> list[tuple[int, int]]:
    """Split the lists into runs of about :data:`_BLOCK_ENTRIES`
    candidate entries. A list is never split, so a block holding one
    list with more entries than that exceeds it."""
    n, window = cand.shape
    entries = cand.sum(axis=1) * lengths
    for d in range(window):
        entries[d + 1 :] += cand[d + 1 :, d] * lengths[: n - d - 1]
    block_of = np.cumsum(entries) // _BLOCK_ENTRIES
    bounds = [0, *(np.flatnonzero(np.diff(block_of)) + 1).tolist(), n]
    return list(zip(bounds[:-1], bounds[1:]))


def _score_block(
    i0: int,
    i1: int,
    values: np.ndarray,
    offsets: np.ndarray,
    owner: np.ndarray,
    back: np.ndarray,
    fwd: np.ndarray,
    shared: np.ndarray,
    plain_bytes: np.ndarray,
) -> np.ndarray:
    """Byte length of every candidate of lists ``i0..i1 - 1``:
    ``(lists, 1 + window)``, plain first, no candidate = int64 max."""
    window = back.shape[0]
    lengths = np.diff(offsets)
    cand = shared[i0:i1] > 0
    r0, r1 = offsets[i0], offsets[i1]
    # Candidates in (d, list) order, b = d + 1; their extras follow in
    # the same order: each target list's entries missing from list i - b.
    cand_d, cand_i = np.nonzero(cand.T)
    targets = cand_i + i0
    take = cand.T[:, owner[r0:r1] - i0] & ~back[:, r0:r1]
    extras = np.broadcast_to(values[r0:r1], take.shape)[take]
    ext_offsets = np.zeros(targets.size + 1, dtype=np.int64)
    np.cumsum(lengths[targets] - shared[targets, cand_d], out=ext_offsets[1:])
    ext_bytes = _plain_layout(extras, ext_offsets).nbytes
    del take, extras  # keep the extras and the masks from peaking together
    # Copy masks over the references j = i - b, in the same order:
    # by_ref[d, j - j0] marks list j as the reference of candidate
    # (j + d + 1, b = d + 1) of this block.
    j0 = max(0, i0 - window)
    q0 = offsets[j0]
    by_ref = np.zeros((window, i1 - j0), dtype=bool)
    for d in range(min(window, i1 - 1 - j0)):
        lo = max(i0, j0 + d + 1)
        by_ref[d, lo - d - 1 - j0 : i1 - d - 1 - j0] = cand[lo - i0 :, d]
    masks = fwd[:, q0:r1][by_ref[:, owner[q0:r1] - j0]]
    mask_offsets = np.zeros(targets.size + 1, dtype=np.int64)
    np.cumsum(lengths[targets - cand_d - 1], out=mask_offsets[1:])
    runs = _copy_runs(masks, mask_offsets)
    costs = np.full((i1 - i0, window + 1), _NO_CANDIDATE, dtype=np.int64)
    costs[:, 0] = plain_bytes[i0:i1]
    costs[cand_i, cand_d + 1] = (
        _varint_len(cand_d + 1) + _varint_len(runs.count) + runs.nbytes + ext_bytes
    )
    return costs


def _emit(
    values: np.ndarray,
    offsets: np.ndarray,
    owner: np.ndarray,
    fwd: np.ndarray,
    back: np.ndarray,
    best: np.ndarray,
) -> np.ndarray:
    """The blob's symbol stream: the list count, then per list its flag,
    for a referenced list ``[b][run count][runs]``, then the plain
    layout of its extras (of the whole list when plain)."""
    n = offsets.size - 1
    lengths = np.diff(offsets)
    ref = best > 0
    d_row = best[owner] - 1
    ref_rows = np.flatnonzero(d_row >= 0)
    keep = np.ones(values.size, dtype=bool)
    keep[ref_rows] = ~back[d_row[ref_rows], ref_rows]
    ext_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=n), out=ext_offsets[1:])
    plain = _plain_layout(values[keep], ext_offsets)

    winners = np.flatnonzero(ref)
    win_back = best[winners]
    mask_len = lengths[winners - win_back]
    mask_offsets = np.zeros(winners.size + 1, dtype=np.int64)
    np.cumsum(mask_len, out=mask_offsets[1:])
    rows = np.repeat(offsets[winners - win_back] - mask_offsets[:-1], mask_len)
    rows += np.arange(rows.size)
    runs = _copy_runs(fwd[np.repeat(win_back - 1, mask_len), rows], mask_offsets)

    run_count = np.zeros(n, dtype=np.int64)
    run_count[winners] = runs.count
    head = 1 + ref * (2 + run_count)
    sizes = head + 2 + 2 * plain.n_int + plain.n_res
    base = np.cumsum(sizes) - sizes + 1
    out = np.empty(1 + int(sizes.sum()), dtype=np.int64)
    out[0] = n
    out[base] = ref
    out[base[winners] + 1] = win_back
    out[base[winners] + 2] = runs.count
    run_at = base[winners] + 3
    out[run_at[runs.lead]] = 0
    owner = np.repeat(np.arange(winners.size), runs.blocks)
    out[run_at[owner] + runs.lead[owner] + _ordinal(owner, runs.blocks)] = runs.lens
    at = base + head
    out[at] = plain.n_int
    owner = np.repeat(np.arange(n), plain.n_int)
    slot = at[owner] + 1 + _ordinal(owner, plain.n_int)
    out[slot] = plain.int_gaps
    out[slot + plain.n_int[owner]] = plain.int_lens
    at += 1 + 2 * plain.n_int
    out[at] = plain.n_res
    owner = np.repeat(np.arange(n), plain.n_res)
    out[at[owner] + 1 + _ordinal(owner, plain.n_res)] = plain.res_gaps
    return out


def compress_partition(
    adjacency: Sequence[Sequence[int]], window: int
) -> tuple[bytes, PartitionCounts]:
    """Byte-identical twin of ``WebGraphCodec.compress_reference``.

    Returns the blob and the counts the codec's stats are built from;
    ``work_units`` is the reference's sum (reference entries scanned per
    candidate, plus each list's chosen length and entry count) as an int.
    """
    values, offsets = canonical_csr(adjacency)
    n = offsets.size - 1
    owner = _owners(offsets)
    lengths = np.diff(offsets)
    best_len = _plain_layout(values, offsets).nbytes
    best = np.zeros(n, dtype=np.int64)
    # A list can only reference the n - 1 lists before it.
    window_used = min(window, max(n - 1, 0))
    back = fwd = np.zeros((0, values.size), dtype=bool)
    if window_used:
        back, fwd, shared = _memberships(values, owner, n, window_used)
        cand = shared > 0
        for i0, i1 in _blocks(cand, lengths):
            if cand[i0:i1].any():
                costs = _score_block(
                    i0, i1, values, offsets, owner, back, fwd, shared, best_len
                )
                best[i0:i1] = np.argmin(costs, axis=1)
                best_len[i0:i1] = costs[np.arange(i1 - i0), best[i0:i1]]
    symbols = _emit(values, offsets, owner, fwd, back, best)
    edges = int(values.size)
    # The encode peaks highest of all steps: free the entry arrays first.
    del values, owner, back, fwd
    blob = encode_varints_bytes(symbols)
    scanned = offsets[:-1] - offsets[np.maximum(np.arange(n) - window, 0)]
    work = int(scanned.sum() + best_len.sum() + edges)
    return blob, PartitionCounts(edges, int((best > 0).sum()), work)
