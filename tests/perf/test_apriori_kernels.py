"""Parity tests: levelwise Apriori row-array kernels vs the reference.

``join_prune`` must emit exactly :meth:`AprioriMiner._generate_candidates`'
candidates in the same order, through both membership branches (mixed-
radix keys and the exact lexsort path). The bitmap miner built on it
must match ``mine_reference`` in counts, candidate totals and work
units, and the CSR packer must equal the per-transaction set semantics
whatever container the transactions come in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.apriori_kernels import join_prune, radix_fits, rows_member
from repro.perf.fpm_kernels import pack_csr, pack_transactions
from repro.perf.pivot_kernels import csr_lists
from repro.workloads.fpm.apriori import AprioriMiner

#: Row bases past int64 keys for every width >= 2: forces the lexsort path.
WIDE_BASE = 2**40


@st.composite
def frequent_levels(draw):
    """A sorted, de-duplicated level of (k-1)-tuples over a small universe."""
    k = draw(st.integers(min_value=2, max_value=6))
    base = draw(st.integers(min_value=max(k - 1, 1), max_value=10))
    rows = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=base - 1),
                min_size=k - 1,
                max_size=k - 1,
                unique=True,
            ).map(lambda r: tuple(sorted(r))),
            max_size=60,
        )
    )
    return k, base, sorted(set(rows))


def as_level(rows, width):
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def joined(level, base):
    return [tuple(r) for r in join_prune(level, base).tolist()]


class TestJoinPrune:
    @given(frequent_levels())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_both_membership_paths(self, case):
        k, base, rows = case
        expected = AprioriMiner._generate_candidates(rows, k)
        level = as_level(rows, k - 1)
        assert joined(level, base) == expected
        assert joined(level, WIDE_BASE) == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_empty_and_single_row_levels(self, k):
        for rows in ([], [tuple(range(k - 1))]):
            out = join_prune(as_level(rows, k - 1), 8)
            assert out.shape == (0, k)
            assert AprioriMiner._generate_candidates(rows, k) == []

    def test_k2_is_upper_triangle(self):
        level = as_level([(0,), (2,), (5,)], 1)
        assert joined(level, 6) == [(0, 2), (0, 5), (2, 5)]

    def test_join_stays_inside_prefix_groups(self):
        # (0, 1)/(0, 2) share a prefix, (1, 2)/(1, 3) another; no pair
        # across the two groups may be joined.
        rows = [(0, 1), (0, 2), (1, 2), (1, 3)]
        assert joined(as_level(rows, 2), 4) == [(0, 1, 2)]
        assert AprioriMiner._generate_candidates(rows, 3) == [(0, 1, 2)]

    def test_prune_checks_every_inner_subset(self):
        # (0,1,2,3) joins from (0,1,2)+(0,1,3); it needs (0,2,3) and
        # (1,2,3) too. Dropping either removes the candidate.
        full = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        for base in (4, WIDE_BASE):
            assert joined(as_level(full, 3), base) == [(0, 1, 2, 3)]
            for missing in ((0, 2, 3), (1, 2, 3)):
                rows = [r for r in full if r != missing]
                assert joined(as_level(rows, 3), base) == []


class TestRowsMember:
    @given(
        st.lists(st.tuples(*[st.integers(0, 5)] * 3), max_size=30),
        st.lists(st.tuples(*[st.integers(0, 5)] * 3), max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_both_paths_match_set_membership(self, table, query):
        table = sorted(set(table))
        expected = [q in set(table) for q in query]
        t, q = as_level(table, 3), as_level(query, 3)
        for base in (6, WIDE_BASE):
            assert rows_member(q, t, base).tolist() == expected

    def test_radix_budget_boundary(self):
        assert radix_fits(2**21, 3)  # 2**63 - 1 is the largest key
        assert not radix_fits(2**21 + 1, 3)
        assert radix_fits(0, 5) and radix_fits(1, 64)

    def test_wide_path_on_many_items(self):
        # A base this large overflows int64 keys at width 2 already.
        assert not radix_fits(2**32, 2)
        table = as_level([(1, 2**32 - 1), (5, 7)], 2)
        query = as_level([(5, 7), (1, 2**32 - 2), (1, 2**32 - 1)], 2)
        assert rows_member(query, table, 2**32).tolist() == [True, False, True]


transactions_strategy = st.lists(
    st.lists(
        st.one_of(st.integers(0, 12), st.sampled_from([2**32 - 1, 2**32 - 2])),
        max_size=9,
    ),
    max_size=50,
)


class TestMineParity:
    @given(
        transactions_strategy,
        st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
        st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=120, deadline=None)
    def test_mine_matches_reference(self, tx, support, max_len):
        ref = AprioriMiner(support, max_len, kernel="reference").mine_reference(tx)
        miner = AprioriMiner(support, max_len, kernel="numpy")
        out = miner.mine(tx)
        assert out.counts == ref.counts
        # Level 1 comes in item order; longer levels in the reference's.
        singles = sorted(p for p in ref.counts if len(p) == 1)
        assert list(out.counts) == singles + [p for p in ref.counts if len(p) > 1]
        assert out.candidates_generated == ref.candidates_generated
        assert out.work_units == ref.work_units
        assert out.num_transactions == ref.num_transactions

        values = np.array([v for t in tx for v in t], dtype=np.int64)
        offsets = np.cumsum([0] + [len(t) for t in tx])
        csr = miner.mine_csr(values, offsets)
        assert list(csr.counts.items()) == list(out.counts.items())
        assert (csr.candidates_generated, csr.work_units) == (
            out.candidates_generated,
            out.work_units,
        )

    def test_mine_csr_reference_tier(self):
        values, offsets = np.array([1, 2, 2, 3], dtype=np.uint64), np.array([0, 2, 4])
        ref = AprioriMiner(0.5, kernel="reference")
        assert ref.mine_csr(values, offsets).counts == ref.mine([[1, 2], [2, 3]]).counts


def set_semantics(tx):
    sets = [set(t) for t in tx]
    items = sorted(set().union(*sets)) if sets else []
    return items, [sum(i in s for s in sets) for i in items], sum(map(len, sets))


class TestPackCsr:
    @given(transactions_strategy)
    @settings(max_examples=80, deadline=None)
    def test_containers_agree_with_set_semantics(self, tx):
        items, supports, occurrences = set_semantics(tx)
        values = np.array([v for t in tx for v in t], dtype=np.int64)
        offsets = np.cumsum([0] + [len(t) for t in tx])
        packed = [
            pack_csr(values, offsets),
            pack_transactions(tx),
            pack_transactions([set(t) for t in tx]),
            pack_transactions([iter(t) for t in tx]),
            pack_transactions([np.array(t, dtype=np.int64) for t in tx]),
            pack_transactions([np.array(t, dtype=np.uint64) for t in tx]),
            pack_transactions(t for t in tx),
        ]
        for bm in packed:
            assert bm.items.tolist() == items
            assert bm.supports.tolist() == supports
            assert bm.total_occurrences == occurrences
            assert bm.num_transactions == len(tx)
            assert np.array_equal(bm.bits, packed[0].bits)
        bm = packed[0]
        for t, row in enumerate(tx):
            word, bit = divmod(t, 64)
            hits = (bm.bits[:-1, word] >> np.uint64(bit)) & np.uint64(1)
            assert [i for i, h in zip(items, hits.tolist()) if h] == sorted(set(row))
        assert not bm.bits[-1].any()  # sentinel row stays zero

    def test_csr_from_pivot_batch_round_trip(self):
        values = np.array([3, 9, 1, 3, 3], dtype=np.uint64)
        offsets = np.array([0, 2, 2, 5])
        a = pack_csr(values, offsets)
        b = pack_transactions(csr_lists(values, offsets))
        assert a.items.tolist() == b.items.tolist() == [1, 3, 9]
        assert np.array_equal(a.bits, b.bits)
        assert a.total_occurrences == b.total_occurrences == 4

    def test_uint64_past_int64_rejected(self):
        with pytest.raises(ValueError):
            pack_csr(np.array([2**63], dtype=np.uint64), np.array([0, 1]))
