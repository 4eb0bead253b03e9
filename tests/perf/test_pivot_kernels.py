"""Parity suite for the batched pivot kernels.

:mod:`repro.perf.pivot_kernels` claims bit-identical output to the
per-item reference extractors in :mod:`repro.stratify.pivots`
(``tree_pivots`` / ``graph_pivots`` / ``text_pivots``). Hypothesis
drives random forests (root at any index, 1- and 2-node trees, repeated
and negative labels), ragged id lists (empty items, an empty batch) and
malformed parent arrays through both paths and asserts exact equality —
including which ``ValueError`` a malformed batch raises. The callers
routed through the kernel (``trees_to_pivot_sets``, ``Stratifier.sketch``,
``PivotExtractor.extract_all``) are checked against the per-item paths
they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import load_dataset
from repro.perf.pivot_kernels import (
    csr_lists,
    csr_rows,
    id_pivot_batch,
    stable_pivot_ids,
    tree_pivot_batch,
)
from repro.stratify.minhash import MinHasher
from repro.stratify.pivots import (
    PivotExtractor,
    graph_pivots,
    stable_pivot_id,
    text_pivots,
    tree_pivots,
)
from repro.stratify.stratifier import Stratifier
from repro.workloads.fpm.treemining import trees_to_pivot_sets

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# Small label alphabets force repeated labels (and so repeated pivots
# that must de-duplicate); the full int64 range exercises wrap-around.
LABEL = st.one_of(st.integers(min_value=-3, max_value=3), INT64)


@st.composite
def labelled_trees(draw, max_nodes: int = 14):
    """A valid ``(parent, labels)`` tree whose root sits at a random id."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    attach = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    perm = draw(st.permutations(range(n)))
    parent = [-1] * n
    for i, p in enumerate(attach, start=1):
        parent[perm[i]] = perm[p]
    labels = draw(st.lists(LABEL, min_size=n, max_size=n))
    return parent, labels


@st.composite
def raw_trees(draw, max_nodes: int = 6):
    """An arbitrary parent array — usually malformed — plus labels whose
    length occasionally disagrees with it."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    parent = draw(st.lists(st.integers(min_value=-2, max_value=n), min_size=n, max_size=n))
    extra = draw(st.sampled_from([0, 0, 0, 0, 1]))
    labels = draw(st.lists(st.integers(-2, 2), min_size=n + extra, max_size=n + extra))
    return parent, labels


id_lists = st.lists(st.lists(INT64, max_size=12), max_size=15)


def _sets(flat: np.ndarray, offsets: np.ndarray) -> list[set[int]]:
    return [set(row) for row in csr_lists(flat, offsets)]


def _assert_csr_form(flat: np.ndarray, offsets: np.ndarray, n_items: int) -> None:
    assert flat.dtype == np.uint64 and offsets.dtype == np.int64
    assert offsets.shape == (n_items + 1,) and offsets[0] == 0
    assert offsets[-1] == flat.size
    for row in csr_rows(flat, offsets):
        assert np.all(row[1:] > row[:-1])  # sorted, no duplicates
        assert np.all(row < 2**32)


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestHash:
    @given(st.lists(st.tuples(INT64, INT64, INT64), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_hash(self, triples):
        a, b, c = (np.array(col, dtype=np.int64) for col in zip(*triples))
        got = stable_pivot_ids(a, b, c).tolist()
        assert got == [stable_pivot_id(*t) for t in triples]

    def test_known_answers(self):
        # Pinned values: a change to the mixer or its constants would
        # silently re-bucket every stratification.
        ref = [stable_pivot_id(1, 2, 3), stable_pivot_id(-1, 0, 0), stable_pivot_id(7, 1, 1)]
        assert ref == [2792205021, 1670869308, 3697384263]
        got = [
            int(stable_pivot_ids(np.array([1]), 2, 3)[0]),
            int(stable_pivot_ids(np.array([-1]), 0, 0)[0]),
            int(stable_pivot_ids(np.array([7]), 1, 1)[0]),
        ]
        assert got == ref


class TestTreeBatch:
    @given(st.lists(labelled_trees(), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_tree_reference(self, forest):
        flat, offsets = tree_pivot_batch(forest)
        _assert_csr_form(flat, offsets, len(forest))
        assert _sets(flat, offsets) == [tree_pivots(p, lab) for p, lab in forest]

    @pytest.mark.parametrize(
        "tree",
        [
            ([-1], [5]),
            ([-1], [-5]),
            ([-1, 0], [1, 2]),
            ([1, -1], [2, 2]),
            ([2, 2, -1], [0, 0, 0]),
            ([1, 2, 3, -1], [-1, -1, -1, -1]),
            ([3, 3, 3, -1, 3], [4, 4, 9, 4, 4]),
        ],
    )
    def test_tiny_trees_and_root_anywhere(self, tree):
        flat, offsets = tree_pivot_batch([tree, tree])
        assert _sets(flat, offsets) == [tree_pivots(*tree)] * 2

    def test_one_large_tree_among_small(self):
        # Size-grouped lockstep: the 300-node tree gets its own padded
        # matrix instead of widening every small tree's row.
        small = load_dataset("swissprot", size_scale=0.1).items
        rng = np.random.default_rng(4)
        big = ([-1] + [int(rng.integers(0, i)) for i in range(1, 300)], [7] * 300)
        forest = small[:25] + [big] + small[25:]
        flat, offsets = tree_pivot_batch(forest)
        assert _sets(flat, offsets) == [tree_pivots(p, lab) for p, lab in forest]

    def test_empty_batch(self):
        flat, offsets = tree_pivot_batch([])
        assert flat.size == 0 and offsets.tolist() == [0]

    def test_numpy_array_items(self):
        forest = load_dataset("swissprot", size_scale=0.1).items[:20]
        as_arrays = [(np.array(p), np.array(lab)) for p, lab in forest]
        assert _sets(*tree_pivot_batch(as_arrays)) == _sets(*tree_pivot_batch(forest))

    def test_swissprot_parity(self):
        forest = load_dataset("swissprot", size_scale=0.5).items
        flat, offsets = tree_pivot_batch(forest)
        assert _sets(flat, offsets) == [tree_pivots(p, lab) for p, lab in forest]


class TestMalformedTrees:
    @given(st.lists(raw_trees(), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_raises_exactly_when_reference_does(self, forest):
        ref = _outcome(lambda: [tree_pivots(p, lab) for p, lab in forest])
        got = _outcome(lambda: _sets(*tree_pivot_batch(forest)))
        assert got == ref

    @pytest.mark.parametrize(
        "bad, message",
        [
            (([-1, 0], [1]), "equal length"),
            (([], []), "at least one node"),
            (([0, 1, 0], [1, 2, 3]), "exactly one root, found 0"),
            (([-1, -1, 0], [1, 2, 3]), "exactly one root, found 2"),
            (([-1, 3, 0], [1, 2, 3]), "out of range"),
            (([-1, -2, 0], [1, 2, 3]), "out of range"),
            (([-1, 1, 0], [1, 2, 3]), "its own parent"),
            (([-1, 2, 3, 1], [1, 2, 3, 4]), "cycle"),
        ],
    )
    def test_one_bad_tree_in_a_batch(self, bad, message):
        good = ([-1, 0, 0, 1], [1, 2, 3, 4])
        with pytest.raises(ValueError, match=message):
            tree_pivots(*bad)
        with pytest.raises(ValueError, match=message):
            tree_pivot_batch([good, good, bad, good])

    def test_first_bad_tree_wins(self):
        cycle = ([-1, 2, 3, 1], [1, 2, 3, 4])
        two_roots = ([-1, -1], [1, 2])
        with pytest.raises(ValueError, match="cycle"):
            tree_pivot_batch([cycle, two_roots])
        with pytest.raises(ValueError, match="exactly one root"):
            tree_pivot_batch([two_roots, cycle])


class TestIdBatches:
    @given(id_lists)
    @settings(max_examples=60, deadline=None)
    def test_graph_matches_reference(self, items):
        flat, offsets = id_pivot_batch(items, 1)
        _assert_csr_form(flat, offsets, len(items))
        assert _sets(flat, offsets) == [graph_pivots(x) for x in items]

    @given(id_lists)
    @settings(max_examples=60, deadline=None)
    def test_text_matches_reference(self, items):
        flat, offsets = id_pivot_batch(items, 2)
        _assert_csr_form(flat, offsets, len(items))
        assert _sets(flat, offsets) == [text_pivots(x) for x in items]

    def test_empty_items_and_empty_batch(self):
        flat, offsets = id_pivot_batch([[], [3, 3], [], (), [4]], 2)
        assert offsets.tolist() == [0, 0, 1, 1, 1, 2]
        assert _sets(flat, offsets) == [text_pivots(x) for x in ([], [3], [], [], [4])]
        flat, offsets = id_pivot_batch([], 1)
        assert flat.size == 0 and offsets.tolist() == [0]

    def test_sets_generators_and_arrays(self):
        items = [{5, 1}, (v for v in (2, 2, 9)), np.array([7, 1], dtype=np.int32)]
        ref = [graph_pivots([5, 1]), graph_pivots([2, 9]), graph_pivots([7, 1])]
        assert _sets(*id_pivot_batch(items, 1)) == ref


class TestCallers:
    @given(st.lists(labelled_trees(), max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_trees_to_pivot_sets_unchanged(self, forest):
        transactions, work = trees_to_pivot_sets(forest)
        assert transactions == [sorted(tree_pivots(p, lab)) for p, lab in forest]
        assert all(type(v) is int for tx in transactions for v in tx)
        assert work == float(sum(len(p) for p, _ in forest))

    @pytest.mark.parametrize("kind", ["tree", "graph", "text", "set"])
    def test_extract_all_matches_per_item(self, kind):
        items = {
            "tree": load_dataset("swissprot", size_scale=0.1).items,
            "graph": load_dataset("uk", size_scale=0.05).items,
            "text": load_dataset("rcv1", size_scale=0.05).items,
            "set": [[3, 1, 3], [], [2**31, -4]],
        }[kind]
        extractor = PivotExtractor(kind)
        assert extractor.extract_all(items) == [extractor(item) for item in items]

    @pytest.mark.parametrize(
        "name, kind", [("swissprot", "tree"), ("uk", "graph"), ("rcv1", "text")]
    )
    def test_stratifier_sketch_byte_identical(self, name, kind):
        items = load_dataset(name, size_scale=0.1).items
        strat = Stratifier(kind, num_hashes=24, seed=7)
        extractor = PivotExtractor(kind)
        per_item = MinHasher(num_hashes=24, seed=7).sketch_all(
            [extractor(item) for item in items]
        )
        got = strat.sketch(items)
        assert got.dtype == per_item.dtype and got.shape == per_item.shape
        assert got.tobytes() == per_item.tobytes()

    @given(id_lists)
    @settings(max_examples=25, deadline=None)
    def test_stratifier_sketch_text_with_empty_docs(self, docs):
        strat = Stratifier("text", num_hashes=8, seed=1)
        per_item = MinHasher(num_hashes=8, seed=1).sketch_all([text_pivots(d) for d in docs])
        assert strat.sketch(docs).tobytes() == per_item.tobytes()
