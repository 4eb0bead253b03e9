"""Domain-specific pivot extraction: trees, graphs and text → integer sets.

Step 1 of the paper's stratifier (Section III-C): every input item is
converted to a *set of items* so that all later stages (sketching,
clustering, partitioning) are domain independent.

- **Trees** are first encoded as Prüfer sequences; pivots ``(a, p, q)``
  are emitted for consecutive sequence entries ``p, q`` with ``a`` their
  least common ancestor. Pivots are formed over node *labels* so that
  structurally similar trees share pivots even when node ids differ.
- **Graphs** use the adjacency list (neighbour set) of each vertex.
- **Text** uses the set of token ids in each document.

All extractors return sets of non-negative ``int`` pivot ids in a
``2**32`` universe, produced by a deterministic (unsalted) mixer so runs
are reproducible across processes.

The per-item functions here are the reference oracles. Whole datasets
go through :meth:`PivotExtractor.extract_batch`, which runs the batched
kernels in :mod:`repro.perf.pivot_kernels` and is bit-identical to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.perf.minhash_kernels import flatten_sets
from repro.perf.pivot_kernels import csr_lists, id_pivot_batch, tree_pivot_batch
from repro.stratify.prufer import depths_from_parents, lca, prufer_sequence

#: Size of the pivot universe; MinHash permutations operate modulo a
#: prime just above this.
UNIVERSE_BITS = 32
UNIVERSE_SIZE = 1 << UNIVERSE_BITS

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finaliser — a deterministic, well-mixed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stable_pivot_id(*parts: int) -> int:
    """Deterministically hash an integer tuple into the pivot universe."""
    acc = 0x51_7C_C1_B7_27_22_0A_95
    for part in parts:
        acc = _mix64(acc ^ _mix64(int(part)))
    return acc & (UNIVERSE_SIZE - 1)


def tree_pivots(parent: Sequence[int], labels: Sequence[int]) -> set[int]:
    """Pivot set of one labelled tree.

    For consecutive Prüfer entries ``(p, q)`` the pivot is the label
    triple ``(label[lca(p,q)], label[p], label[q])`` hashed into the
    universe; tiny trees (< 4 nodes) fall back to parent-child label
    pairs so no tree maps to the empty set.
    """
    labels_arr = np.asarray(labels, dtype=np.int64)
    parent_arr = np.asarray(parent, dtype=np.int64)
    if labels_arr.size != parent_arr.size:
        raise ValueError("labels and parent arrays must have equal length")
    seq = prufer_sequence(parent_arr)
    pivots: set[int] = set()
    if len(seq) >= 2:
        depth = depths_from_parents(parent_arr)
        for p, q in zip(seq, seq[1:]):
            a = lca(parent_arr, depth, int(p), int(q))
            pivots.add(
                stable_pivot_id(labels_arr[a], labels_arr[p], labels_arr[q])
            )
    # Parent-child label pairs guarantee coverage of every edge's labels,
    # and give small trees a non-empty representation.
    for child in range(parent_arr.size):
        par = int(parent_arr[child])
        if par >= 0:
            pivots.add(stable_pivot_id(labels_arr[par], labels_arr[child], 0))
    return pivots


def graph_pivots(neighbours: Iterable[int]) -> set[int]:
    """Pivot set of one graph vertex: its neighbour ids, hashed.

    The paper uses the adjacency list directly as the pivot set; hashing
    keeps the universe uniform across domains.
    """
    return {stable_pivot_id(int(v), 1, 1) for v in neighbours}


def text_pivots(tokens: Iterable[int]) -> set[int]:
    """Pivot set of one document: its token ids, hashed."""
    return {stable_pivot_id(int(t), 2, 2) for t in tokens}


@dataclass(frozen=True)
class PivotExtractor:
    """Uniform front-end over the three domain extractors.

    ``kind`` selects the domain: ``"tree"`` items are
    ``(parent_array, labels)`` tuples; ``"graph"`` items are neighbour
    iterables; ``"text"`` items are token-id iterables; ``"set"`` items
    are already pivot sets and pass through unchanged.
    """

    kind: str

    _KINDS = ("tree", "graph", "text", "set")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")

    def __call__(self, item) -> set[int]:
        if self.kind == "tree":
            parent, labels = item
            return tree_pivots(parent, labels)
        if self.kind == "graph":
            return graph_pivots(item)
        if self.kind == "text":
            return text_pivots(item)
        return {int(x) for x in item}

    def extract_batch(self, items: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Pivot-extract a whole dataset in one batch, in CSR form.

        Returns ``(flat, offsets)``: item ``i``'s pivots are
        ``flat[offsets[i]:offsets[i + 1]]``, sorted and de-duplicated
        ``uint64`` values; equal, as sets, to calling this extractor on
        each item.
        """
        if self.kind == "tree":
            return tree_pivot_batch(items)
        if self.kind == "graph":
            return id_pivot_batch(items, 1)
        if self.kind == "text":
            return id_pivot_batch(items, 2)
        return flatten_sets([sorted(self(item)) for item in items])

    def extract_all(self, items: Sequence) -> list[set[int]]:
        """Extract pivot sets for a whole dataset, preserving order."""
        if self.kind == "set":
            return [self(item) for item in items]
        return [set(row) for row in csr_lists(*self.extract_batch(items))]
