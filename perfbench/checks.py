"""Output checks for every job the benchmark runs.

A job is captured while it runs (cheap: totals, the merged output, and
for compression a shallow copy of its partitions) and checked after the
timed phases, so reference work never counts in a measured number:

- Σ plan sizes equals the dataset's item count;
- the job's energy and dirty energy equal the sums over its tasks;
- mining: the frequent itemsets and their counts equal a single-node
  mine of the whole dataset with the reference kernel;
- compression: each partition's compressed and raw byte counts equal
  the reference-kernel codec run on the same partition.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import zlib
from typing import Any

from repro.data.datasets import load_dataset
from repro.workloads.compression.distributed import CompressionWorkload
from repro.workloads.fpm.treemining import TreeMiningWorkload, trees_to_pivot_sets

#: Relative tolerance of the energy reconciliation.
ENERGY_TOL = 1e-6


def capture_job(report: Any, workload: Any, dataset_key: tuple, partitions: list | None) -> dict:
    """What the checks and the traced metrics need from one RunReport."""
    job = report.job
    compression = isinstance(workload, CompressionWorkload)
    return {
        "dataset": dataset_key,
        "workload": workload,
        "alpha": report.strategy.alpha,
        "sizes": [int(s) for s in report.plan.sizes],
        "energy_j": job.total_energy_j,
        "dirty_j": job.total_dirty_energy_j,
        "task_energy_j": sum(t.energy_j for t in job.tasks),
        "task_dirty_j": sum(t.dirty_energy_j for t in job.tasks),
        "makespan_s": job.makespan_s,
        "pred_makespan_s": report.plan.predicted_makespan_s,
        "pred_dirty_j": report.plan.predicted_dirty_energy_j,
        "kv_round_trips": report.kv_round_trips,
        "output": [t.output for t in job.tasks] if compression else job.merged_output,
        "partitions": partitions if compression else None,
    }


class OutputChecker:
    """Reference outputs, computed once per dataset or partition."""

    def __init__(self) -> None:
        self._items: dict[tuple, list] = {}
        self._mined: dict[tuple, dict] = {}
        self._coded: dict[bytes, dict] = {}
        self._shared: dict[bytes, Any] = {}
        self.checked = 0

    def intern(self, cap: dict) -> None:
        """Store a capture's output and partitions as compressed pickles,
        one copy per distinct value, so the captures a run keeps add
        little to the memory measured of the process that holds them.
        Call it outside timed work: it pickles the whole partition."""
        for key in ("output", "partitions"):
            if cap[key] is not None:
                blob = zlib.compress(pickle.dumps(cap[key]), 1)
                digest = hashlib.blake2b(blob, digest_size=16).digest()
                cap[key] = self._shared.setdefault(digest, blob)

    @staticmethod
    def _value(held: Any) -> Any:
        return pickle.loads(zlib.decompress(held)) if isinstance(held, bytes) else held

    def items(self, key: tuple) -> list:
        if key not in self._items:
            name, size_scale, seed = key
            self._items[key] = load_dataset(name, size_scale=size_scale, seed=seed).items
        return self._items[key]

    def problems(self, cap: dict) -> list[str]:
        """Everything wrong with one captured job (empty when correct)."""
        self.checked += 1
        found = []
        n = len(self.items(cap["dataset"]))
        if sum(cap["sizes"]) != n:
            found.append(f"plan sizes sum to {sum(cap['sizes'])}, dataset has {n} items")
        for total, parts, what in (
            (cap["energy_j"], cap["task_energy_j"], "energy"),
            (cap["dirty_j"], cap["task_dirty_j"], "dirty energy"),
        ):
            if abs(total - parts) > ENERGY_TOL * max(1.0, abs(total)):
                found.append(f"job {what} {total!r} J != sum of task {what} {parts!r} J")
        workload = cap["workload"]
        if isinstance(workload, CompressionWorkload):
            for part, got in zip(self._value(cap["partitions"]), self._value(cap["output"])):
                if got != self._reference_code(workload, part):
                    found.append("compressed bytes differ from the reference codec")
                    break
        elif self._value(cap["output"]) != self._reference_mine(workload, cap["dataset"]):
            found.append("frequent itemsets differ from the single-node reference mine")
        return found

    def _reference_mine(self, workload: Any, key: tuple) -> dict:
        miner = dataclasses.replace(workload.miner, kernel="reference")
        ref_key = (key, type(miner).__name__, miner.min_support, miner.max_len)
        if ref_key not in self._mined:
            items = self.items(key)
            if isinstance(workload, TreeMiningWorkload):
                items = trees_to_pivot_sets(items)[0]
            self._mined[ref_key] = miner.mine(items).counts
        return self._mined[ref_key]

    def _reference_code(self, workload: CompressionWorkload, part: list) -> dict:
        digest = hashlib.blake2b(
            pickle.dumps((repr(workload.codec), part)), digest_size=16
        ).digest()
        if digest not in self._coded:
            reference = copy.copy(workload)
            reference.codec = dataclasses.replace(workload.codec, kernel="reference")
            self._coded[digest] = reference.run(part).output
        return self._coded[digest]
