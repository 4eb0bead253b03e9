"""Frequent tree mining via LCA-pivot itemsets.

The paper runs Tatikonda & Parthasarathy's frequent tree miner. Its
stratifier already reduces each tree to a set of LCA-label pivots
(Section III-C step 1); mining frequent *pivot sets* preserves the cost
structure the partitioning framework targets — the candidate space
blows up exactly when a partition concentrates structurally similar
trees — while staying domain independent. Records are
``(parent_array, labels)`` pairs; the workload converts them to pivot
sets (charging work for the conversion, which scans every node) and
then runs Apriori over the pivot transactions.
"""

from __future__ import annotations

from typing import Sequence

from repro.perf.pivot_kernels import csr_lists, tree_pivot_batch
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.fpm.apriori import AprioriMiner


def trees_to_pivot_sets(records: Sequence) -> tuple[list[list[int]], float]:
    """Convert ``(parent, labels)`` records to sorted pivot lists.

    Returns the pivot transactions and the conversion work (total node
    count — each node is touched a constant number of times by Prüfer
    encoding and LCA walks). The whole partition converts in one batch
    (:func:`~repro.perf.pivot_kernels.tree_pivot_batch`); the charged
    work is the same node count the per-tree conversion charged.
    """
    return csr_lists(*tree_pivot_batch(records)), _conversion_work(records)


def _conversion_work(records: Sequence) -> float:
    return float(sum(len(parent) for parent, _ in records))


class TreeMiningWorkload(Workload):
    """Per-partition frequent tree (pivot-set) mining."""

    name = "tree-mining"

    def __init__(self, min_support: float, max_len: int | None = 3):
        self.miner = AprioriMiner(min_support=min_support, max_len=max_len)

    @property
    def min_support(self) -> float:
        return self.miner.min_support

    def run(self, records: Sequence) -> WorkloadResult:
        # The pivot batch goes to the miner as CSR: the bitmap tiers
        # pack it without building per-tree lists.
        out = self.miner.mine_csr(*tree_pivot_batch(records))
        return WorkloadResult(
            work_units=_conversion_work(records) + out.work_units,
            output=out,
            stats={
                "patterns": len(out.counts),
                "candidates": out.candidates_generated,
                "trees": len(records),
            },
        )

    def merge(self, partials: Sequence[WorkloadResult]) -> set:
        union: set = set()
        for p in partials:
            union.update(p.output.patterns())
        return union
