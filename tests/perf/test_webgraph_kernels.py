"""Parity suite for the partition-wide WebGraph coder kernel.

:mod:`repro.perf.webgraph_kernels` claims the byte-identical blob and
the same :class:`WebGraphStats` (``work_units`` included) as the
per-list reference coder, ``WebGraphCodec.compress_reference``.
Hypothesis drives windows 0-12, empty lists, duplicate and unsorted
ids, interval-heavy runs, ids up to 2**62 (multi-byte varints), numpy
``int64`` array items and partitions split over several scoring blocks
through both paths and asserts exact equality. uk-shaped partitions
come from the registry dataset. The id contract (non-negative, within
``int64``) and the scoring memory bound are pinned too.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import load_dataset
from repro.perf import webgraph_kernels
from repro.perf.minhash_kernels import DEFAULT_CHUNK_BYTES
from repro.workloads.compression.webgraph import WebGraphCodec

WINDOWS = st.sampled_from([0, 1, 3, 7, 12])
# A narrow id range makes neighbouring lists share ids (so references
# win) and form runs (so intervals appear); the wide one needs
# multi-byte varints for first ids and gaps.
ID = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**62),
)
RAW_LIST = st.lists(ID, max_size=25)


@st.composite
def run_lists(draw):
    """A list built from consecutive runs, some past 128 entries (so the
    interval length needs a two-byte varint), plus a few loose ids."""
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=400),
                st.integers(min_value=1, max_value=140),
            ),
            max_size=4,
        )
    )
    ids = [start + k for start, length in runs for k in range(length)]
    return ids + draw(st.lists(st.integers(min_value=0, max_value=600), max_size=5))


def _uk_items():
    return load_dataset("uk", size_scale=0.5).items


def assert_parity(adjacency, window: int) -> bytes:
    blob, stats = WebGraphCodec(window=window, kernel="numpy").compress(adjacency)
    ref_blob, ref_stats = WebGraphCodec(window=window, kernel="reference").compress(
        adjacency
    )
    assert blob == ref_blob
    assert stats == ref_stats
    return blob


class TestParity:
    @given(st.lists(RAW_LIST, max_size=20), WINDOWS)
    @settings(max_examples=150, deadline=None)
    def test_raw_lists(self, adjacency, window):
        # Unsorted input with duplicates and empty lists.
        blob = assert_parity(adjacency, window)
        expected = [sorted(set(lst)) for lst in adjacency]
        assert WebGraphCodec(window=window).decompress(blob) == expected

    @given(st.lists(run_lists(), max_size=12), WINDOWS)
    @settings(max_examples=80, deadline=None)
    def test_interval_heavy_lists(self, adjacency, window):
        assert_parity(adjacency, window)

    @given(st.lists(RAW_LIST, max_size=12), WINDOWS)
    @settings(max_examples=40, deadline=None)
    def test_int64_array_items(self, adjacency, window):
        arrays = [np.array(lst, dtype=np.int64) for lst in adjacency]
        blob, stats = WebGraphCodec(window=window, kernel="numpy").compress(arrays)
        ref = WebGraphCodec(window=window, kernel="reference").compress(adjacency)
        assert (blob, stats) == ref

    @given(st.lists(st.one_of(RAW_LIST, run_lists()), min_size=2, max_size=16), WINDOWS)
    @settings(max_examples=60, deadline=None)
    def test_many_scoring_blocks(self, adjacency, window):
        # A tiny block budget puts most lists in a block of their own, so
        # references reach back across block boundaries.
        with mock.patch.object(webgraph_kernels, "_BLOCK_ENTRIES", 8):
            assert_parity(adjacency, window)

    def test_edge_partitions(self):
        assert_parity([], 7)
        assert_parity([[]], 7)
        assert_parity([[], [], []], 3)
        assert_parity([[5], [5], [5]], 7)
        assert_parity([[2**62], [2**62, 0]], 1)
        assert_parity([[2**63 - 1], [2**63 - 3, 2**63 - 2, 2**63 - 1]], 7)
        assert_parity([list(range(10, 40)), list(range(10, 40)) + [99], [0, 2, 4, 6]], 7)

    @pytest.mark.parametrize("window", [0, 1, 3, 7, 12])
    def test_uk_partition(self, window):
        assert_parity(_uk_items(), window)

    @pytest.mark.parametrize("start, size", [(0, 4), (100, 8), (300, 33), (700, 128), (0, 600)])
    def test_uk_slices(self, start, size):
        assert_parity(_uk_items()[start : start + size], 7)

    def test_uk_partition_spans_several_blocks(self):
        items = _uk_items()
        values, offsets = webgraph_kernels.canonical_csr(items)
        owner = np.repeat(np.arange(len(items)), np.diff(offsets))
        _, _, shared = webgraph_kernels._memberships(values, owner, len(items), 7)
        assert len(webgraph_kernels._blocks(shared > 0, np.diff(offsets))) > 1
        assert_parity(items, 7)


class TestIdContract:
    @pytest.mark.parametrize("kernel", ["numpy", "reference"])
    @pytest.mark.parametrize(
        "adjacency", [[[-1]], [[3, 4], [5, -2]], [[-5, -4, -3]]], ids=["alone", "later", "run"]
    )
    def test_negative_id_raises(self, kernel, adjacency):
        with pytest.raises(ValueError):
            WebGraphCodec(kernel=kernel).compress(adjacency)

    def test_id_beyond_int64_raises(self):
        with pytest.raises(ValueError, match="int64"):
            webgraph_kernels.compress_partition([[1, 2**63]], 7)


class TestMemory:
    def test_scoring_peak_stays_under_chunk_bytes(self):
        items = _uk_items()
        webgraph_kernels.compress_partition(items, 7)  # warm caches
        tracemalloc.start()
        try:
            webgraph_kernels.compress_partition(items, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < DEFAULT_CHUNK_BYTES
