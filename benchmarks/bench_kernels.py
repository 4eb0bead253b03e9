"""Kernel micro-benchmarks: reference vs numpy vs native tiers.

Times the :mod:`repro.perf` kernels against the reference
implementations they replaced — ragged-batch sketching, batched
compositeKModes fit, blocked similarity matrix, packed-bitmap Apriori
mining, the levelwise Apriori join/prune per level plus an fpm size
sweep, the fast LZ77 coder, the partition-wide WebGraph coder and batched
pivot extraction on the swissprot/rcv1/uk dataset shapes — asserting
bit-identical outputs before reporting any number, and writes the
measurements to ``benchmarks/results/BENCH_kernels.json``.

Each section records per-tier timings under ``tiers`` — ``reference``,
``numpy`` and ``native`` (null when numba is not installed, or for
kernels with no native tier). The autotuner
(:mod:`repro.perf.autotune`) reads these measurements to rank the
native tier against numpy, so re-running this benchmark re-seeds
``kernel="auto"`` dispatch. The legacy ``batched_s`` / ``reference_s``
/ ``speedup`` keys are kept for older tooling.

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke] [--out PATH]

or as part of the benchmark suite (smoke-sized so ``make bench`` stays
quick)::

    pytest benchmarks/bench_kernels.py --benchmark-only

The kmodes dataset is drawn with ground-truth cluster structure (each
row samples mostly from one of ``K`` shared pivot pools): uniform random
sketches give every attribute ~n distinct values and converge in one or
two degenerate iterations, which benchmarks neither path's steady state.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.perf.native import runtime
from repro.stratify.kmodes import CompositeKModes
from repro.stratify.minhash import MinHasher


def _tiers(t_reference: float, t_numpy: float, t_native: float | None) -> dict:
    return {"reference": t_reference, "numpy": t_numpy, "native": t_native}

FULL = {
    "num_sets": 10_000,
    "pivots_per_set": (30, 70),
    "sketch_hashes": 48,
    "kmodes_rows": 5_000,
    "kmodes_hashes": 64,
    "kmodes_clusters": 8,
    "similarity_rows": 1_500,
    "apriori_transactions": 4_000,
    "apriori_items": 48,
    "apriori_tx_len": (6, 14),
    "apriori_min_support": 0.08,
    "lz77_bytes": 200_000,
    "webgraph_lists": 1_500,
    "webgraph_degree": (10, 60),
    "webgraph_sweep_scale": 0.5,
    "pivot_size_scale": 1.0,
    "fpm_size_scale": 0.5,
    "fpm_sweep_parts": 8,
}
SMOKE = {
    "num_sets": 400,
    "pivots_per_set": (30, 70),
    "sketch_hashes": 16,
    "kmodes_rows": 400,
    "kmodes_hashes": 16,
    "kmodes_clusters": 4,
    "similarity_rows": 200,
    "apriori_transactions": 300,
    "apriori_items": 24,
    "apriori_tx_len": (4, 10),
    "apriori_min_support": 0.1,
    "lz77_bytes": 12_000,
    "webgraph_lists": 120,
    "webgraph_degree": (5, 25),
    "webgraph_sweep_scale": 0.1,
    "pivot_size_scale": 0.1,
    "fpm_size_scale": 0.5,
    "fpm_sweep_parts": 1,
}
#: Partition sizes (lists) of the WebGraph reference-vs-numpy sweep.
WEBGRAPH_SWEEP_LISTS = (4, 8, 16, 32, 64, 128)
#: Partition sizes (transactions) of the fpm reference-vs-numpy sweep.
FPM_SWEEP_TX = (4, 8, 16, 32, 64, 128)
#: The sim-sweep benchmark's fpm pairs: dataset, support, max_len.
FPM_SHAPES = (("rcv1", 0.1, 3), ("swissprot", 0.12, 2))


def _fpm_transactions(name: str, scale: float) -> list:
    """The dataset's mining transactions (pivot sets for trees)."""
    from repro.data.datasets import load_dataset
    from repro.workloads.fpm.treemining import trees_to_pivot_sets

    items = load_dataset(name, size_scale=scale).items
    return trees_to_pivot_sets(items)[0] if name == "swissprot" else items


def _quarters(items: list) -> list[list]:
    step = -(-len(items) // 4)
    return [items[s : s + step] for s in range(0, len(items), step)]


def _apriori_levels(cfg: dict) -> dict:
    """Per-level join/prune cost, reference vs numpy, on the sim-sweep
    shapes: each dataset split into four partitions, as the pipeline's
    four-node plans do. Candidate lists are asserted equal first."""
    from repro.perf.apriori_kernels import join_prune
    from repro.perf.fpm_kernels import candidate_supports, pack_transactions
    from repro.workloads.fpm.apriori import AprioriMiner

    out = {}
    for name, support, max_len in FPM_SHAPES:
        parts = _quarters(_fpm_transactions(name, cfg["fpm_size_scale"]))
        levels: dict[int, dict] = {}
        for part in parts:
            bitmap = pack_transactions(part)
            min_count = max(1, int(-(-support * bitmap.num_transactions // 1)))
            level = np.flatnonzero(bitmap.supports >= min_count)[:, None]
            for k in range(2, max_len + 1):
                current = [tuple(r) for r in bitmap.items[level].tolist()]
                expected = AprioriMiner._generate_candidates(current, k)
                rows = join_prune(level, bitmap.num_items)
                assert [tuple(r) for r in bitmap.items[rows].tolist()] == expected, (
                    f"join/prune diverged on {name} at k={k}"
                )
                row = levels.setdefault(k, {"candidates": 0, "reference_s": 0.0, "numpy_s": 0.0})
                row["candidates"] += len(expected)
                row["reference_s"] += _best_of(
                    lambda: AprioriMiner._generate_candidates(current, k)
                )
                row["numpy_s"] += _best_of(lambda: join_prune(level, bitmap.num_items))
                level = rows[candidate_supports(bitmap, rows) >= min_count]
        miners = {
            tier: AprioriMiner(support, max_len, kernel=tier) for tier in ("reference", "numpy")
        }
        for part in parts:
            ref, fast = miners["reference"].mine(part), miners["numpy"].mine(part)
            assert fast.counts == ref.counts, f"apriori diverged on {name}"
            assert (fast.candidates_generated, fast.work_units) == (
                ref.candidates_generated,
                ref.work_units,
            )
        t_ref = _best_of(lambda: [miners["reference"].mine(p) for p in parts], repeats=1)
        t_np = _best_of(lambda: [miners["numpy"].mine(p) for p in parts])
        out[name] = {
            "partitions": [len(p) for p in parts],
            "levels": [{"k": k, **row} for k, row in sorted(levels.items())],
            "mine_reference_s": t_ref,
            "mine_numpy_s": t_np,
        }
    return out


def _fpm_size_sweep(cfg: dict) -> tuple[list[dict], int | None]:
    """Reference vs numpy per call at small partition sizes, for both
    entry points ``SMALL_WORK["fpm"]`` dispatches: ``mine`` (rcv1 and
    swissprot pivot sets) and ``count_patterns`` (rcv1, against the
    union of locally frequent patterns as Savasere's phase 2 counts).
    Returns the rows and the smallest size from which numpy wins every
    call at that size and all larger ones."""
    from repro.workloads.fpm.apriori import AprioriMiner, count_patterns

    rows = []
    for name, support, max_len in FPM_SHAPES:
        items = _fpm_transactions(name, cfg["fpm_size_scale"])
        miners = {
            tier: AprioriMiner(support, max_len, kernel=tier) for tier in ("reference", "numpy")
        }
        candidates = sorted(
            set().union(*(miners["numpy"].mine(q).counts for q in _quarters(items)))
        )
        for size in FPM_SWEEP_TX:
            step = max(size, (len(items) - size) // cfg["fpm_sweep_parts"])
            parts = [items[s : s + size] for s in range(0, len(items) - size + 1, step)]
            parts = parts[: cfg["fpm_sweep_parts"]]
            row = {"dataset": name, "transactions": size}
            calls = {"mine": lambda p, tier: miners[tier].mine(p)}
            if name == "rcv1":
                calls["count"] = lambda p, tier: count_patterns(p, candidates, kernel=tier)
            for call, fn in calls.items():
                for part in parts:
                    a, b = fn(part, "numpy"), fn(part, "reference")
                    if call == "mine":
                        a, b = (a.counts, a.work_units), (b.counts, b.work_units)
                    assert a == b, f"fpm {call} diverged on a {size}-transaction {name} partition"
                t_ref = _best_of(lambda: [fn(p, "reference") for p in parts]) / len(parts)
                t_np = _best_of(lambda: [fn(p, "numpy") for p in parts]) / len(parts)
                row[f"{call}_reference_s"] = t_ref
                row[f"{call}_numpy_s"] = t_np
                row[f"{call}_speedup"] = t_ref / t_np
            rows.append(row)
    crossover = None
    for size in reversed(FPM_SWEEP_TX):
        at_size = [r for r in rows if r["transactions"] == size]
        if all(v > 1.0 for r in at_size for k, v in r.items() if k.endswith("_speedup")):
            crossover = size
        else:
            break
    return rows, crossover


def _pivot_sets(num_sets: int, size_range: tuple[int, int], rng) -> list[np.ndarray]:
    lo, hi = size_range
    return [
        rng.integers(0, 1 << 32, size=int(rng.integers(lo, hi))).astype(np.uint64)
        for _ in range(num_sets)
    ]


def _clustered_sets(num_sets: int, groups: int, size_range: tuple[int, int], rng):
    lo, hi = size_range
    bases = [rng.integers(0, 1 << 32, size=200).astype(np.uint64) for _ in range(groups)]
    sets = []
    for i in range(num_sets):
        take = rng.choice(bases[i % groups], size=int(rng.integers(lo, min(hi, 150))), replace=False)
        noise = rng.integers(0, 1 << 32, size=int(rng.integers(0, 8))).astype(np.uint64)
        sets.append(np.concatenate([take, noise]))
    return sets


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_kernel_bench(cfg: dict) -> dict:
    rng = np.random.default_rng(0)
    native = runtime.numba_available()
    results: dict[str, dict] = {"config": dict(cfg), "native_available": native}

    # -- sketch_all: ragged batch vs per-set loop --------------------------
    sets = _pivot_sets(cfg["num_sets"], cfg["pivots_per_set"], rng)
    hasher = MinHasher(num_hashes=cfg["sketch_hashes"], seed=0, kernel="numpy")
    batched = hasher.sketch_all(sets)  # warm scratch + caches
    reference = hasher.sketch_all_reference(sets)
    assert np.array_equal(batched, reference), "sketch kernel diverged"
    t_batched = _best_of(lambda: hasher.sketch_all(sets))
    t_reference = _best_of(lambda: hasher.sketch_all_reference(sets), repeats=1)
    t_native = None
    if native:
        nat_hasher = MinHasher(num_hashes=cfg["sketch_hashes"], seed=0, kernel="native")
        assert np.array_equal(nat_hasher.sketch_all(sets), batched), "native sketch diverged"
        t_native = _best_of(lambda: nat_hasher.sketch_all(sets))
    results["sketch_all"] = {
        "batched_s": t_batched,
        "reference_s": t_reference,
        "speedup": t_reference / t_batched,
        "tiers": _tiers(t_reference, t_batched, t_native),
        "bit_identical": True,
    }

    # -- CompositeKModes.fit: batched kernels vs python loops --------------
    km_rng = np.random.default_rng(2)
    km_sets = _clustered_sets(
        cfg["kmodes_rows"], cfg["kmodes_clusters"], cfg["pivots_per_set"], km_rng
    )
    sketches = MinHasher(num_hashes=cfg["kmodes_hashes"], seed=0).sketch_all(km_sets)
    km_batched = CompositeKModes(
        num_clusters=cfg["kmodes_clusters"], top_l=3, seed=0, kernel="batched"
    )
    km_reference = CompositeKModes(
        num_clusters=cfg["kmodes_clusters"], top_l=3, seed=0, kernel="reference"
    )
    fit_b = km_batched.fit(sketches)
    fit_r = km_reference.fit(sketches)
    assert np.array_equal(fit_b.labels, fit_r.labels), "kmodes labels diverged"
    assert np.array_equal(fit_b.centers, fit_r.centers), "kmodes centers diverged"
    assert fit_b.cost == fit_r.cost and fit_b.iterations == fit_r.iterations
    t_batched = _best_of(lambda: km_batched.fit(sketches), repeats=2)
    t_reference = _best_of(lambda: km_reference.fit(sketches), repeats=1)
    t_native = None
    if native:
        km_native = CompositeKModes(
            num_clusters=cfg["kmodes_clusters"], top_l=3, seed=0, kernel="native"
        )
        fit_n = km_native.fit(sketches)
        assert np.array_equal(fit_n.labels, fit_b.labels), "native kmodes diverged"
        assert fit_n.cost == fit_b.cost
        t_native = _best_of(lambda: km_native.fit(sketches), repeats=2)
    results["kmodes_fit"] = {
        "batched_s": t_batched,
        "reference_s": t_reference,
        "speedup": t_reference / t_batched,
        "tiers": _tiers(t_reference, t_batched, t_native),
        "iterations": fit_b.iterations,
        "bit_identical": True,
    }

    # -- similarity matrix: blocked vs row loop ----------------------------
    sim_sketches = sketches[: cfg["similarity_rows"]]
    sim_b = hasher.similarity_matrix(sim_sketches)
    sim_r = hasher.similarity_matrix_reference(sim_sketches)
    assert np.array_equal(sim_b, sim_r), "similarity kernel diverged"
    t_batched = _best_of(lambda: hasher.similarity_matrix(sim_sketches), repeats=2)
    t_reference = _best_of(lambda: hasher.similarity_matrix_reference(sim_sketches), repeats=1)
    results["similarity_matrix"] = {
        "batched_s": t_batched,
        "reference_s": t_reference,
        "speedup": t_reference / t_batched,
        "tiers": _tiers(t_reference, t_batched, None),  # no native tier
        "bit_identical": True,
    }

    # -- Apriori: packed vertical bitmaps vs containment scan --------------
    from repro.workloads.fpm.apriori import AprioriMiner

    ap_rng = np.random.default_rng(5)
    lo, hi = cfg["apriori_tx_len"]
    # Skewed item popularity so multi-item patterns actually survive.
    weights = 1.0 / np.arange(1, cfg["apriori_items"] + 1)
    weights /= weights.sum()
    transactions = [
        ap_rng.choice(
            cfg["apriori_items"], size=int(ap_rng.integers(lo, hi)), p=weights
        ).tolist()
        for _ in range(cfg["apriori_transactions"])
    ]
    fast_miner = AprioriMiner(min_support=cfg["apriori_min_support"], kernel="bitmap")
    ref_miner = AprioriMiner(min_support=cfg["apriori_min_support"], kernel="reference")
    out_f = fast_miner.mine(transactions)
    out_r = ref_miner.mine(transactions)
    assert out_f.counts == out_r.counts, "apriori kernel diverged"
    assert out_f.work_units == out_r.work_units
    t_batched = _best_of(lambda: fast_miner.mine(transactions), repeats=2)
    t_reference = _best_of(lambda: ref_miner.mine(transactions), repeats=1)
    t_native = None
    if native:
        nat_miner = AprioriMiner(
            min_support=cfg["apriori_min_support"], kernel="native"
        )
        out_n = nat_miner.mine(transactions)
        assert out_n.counts == out_f.counts, "native apriori diverged"
        t_native = _best_of(lambda: nat_miner.mine(transactions), repeats=2)
    results["apriori_mine"] = {
        "batched_s": t_batched,
        "reference_s": t_reference,
        "speedup": t_reference / t_batched,
        "tiers": _tiers(t_reference, t_batched, t_native),
        "patterns": len(out_f.counts),
        "bit_identical": True,
    }

    # -- LZ77: precomputed-link coder vs hash-chain loop -------------------
    from repro.workloads.compression.lz77 import LZ77Codec

    lz_rng = np.random.default_rng(7)
    chunks = [bytes(lz_rng.integers(97, 105, size=40).astype(np.uint8))]
    data = bytearray()
    while len(data) < cfg["lz77_bytes"]:
        if lz_rng.random() < 0.7:
            data += chunks[int(lz_rng.integers(0, len(chunks)))]
        else:
            chunk = bytes(lz_rng.integers(97, 123, size=30).astype(np.uint8))
            chunks.append(chunk)
            data += chunk
    data = bytes(data[: cfg["lz77_bytes"]])
    fast_codec = LZ77Codec(kernel="fast")
    ref_codec = LZ77Codec(kernel="reference")
    blob_f, st_f = fast_codec.compress(data)
    blob_r, st_r = ref_codec.compress(data)
    assert blob_f == blob_r and st_f == st_r, "lz77 kernel diverged"
    assert fast_codec.decompress(blob_f) == data
    t_batched = _best_of(lambda: fast_codec.compress(data), repeats=2)
    t_reference = _best_of(lambda: ref_codec.compress(data), repeats=1)
    t_native = None
    if native:
        nat_codec = LZ77Codec(kernel="native")
        blob_n, st_n = nat_codec.compress(data)
        assert blob_n == blob_f and st_n == st_f, "native lz77 diverged"
        t_native = _best_of(lambda: nat_codec.compress(data), repeats=2)
    results["lz77_compress"] = {
        "batched_s": t_batched,
        "reference_s": t_reference,
        "speedup": t_reference / t_batched,
        "tiers": _tiers(t_reference, t_batched, t_native),
        "ratio": st_f.ratio,
        "bit_identical": True,
    }

    # -- WebGraph: partition-wide numpy coder vs per-list reference -------
    from repro.data.datasets import load_dataset
    from repro.workloads.compression.webgraph import WebGraphCodec

    wg_rng = np.random.default_rng(9)
    dlo, dhi = cfg["webgraph_degree"]
    base = np.sort(wg_rng.choice(5_000, size=dhi, replace=False))
    adjacency = []
    for _ in range(cfg["webgraph_lists"]):
        if wg_rng.random() < 0.3:
            base = np.sort(wg_rng.choice(5_000, size=dhi, replace=False))
        keep = base[wg_rng.random(base.size) < 0.8]
        extra = wg_rng.choice(5_000, size=int(wg_rng.integers(0, 6)))
        adjacency.append(np.concatenate([keep, extra]).tolist())
    fast_wg = WebGraphCodec(kernel="numpy")
    ref_wg = WebGraphCodec(kernel="reference")
    wg_f, wst_f = fast_wg.compress(adjacency)
    wg_r, wst_r = ref_wg.compress(adjacency)
    assert wg_f == wg_r and wst_f == wst_r, "webgraph kernel diverged"
    t_batched = _best_of(lambda: fast_wg.compress(adjacency), repeats=2)
    t_reference = _best_of(lambda: ref_wg.compress(adjacency), repeats=1)
    # Size sweep on uk-shaped partitions: consecutive slices of the uk
    # dataset's adjacency, timed per call. The crossover it shows sets
    # autotune.SMALL_WORK["webgraph"].
    uk_items = load_dataset("uk", size_scale=cfg["webgraph_sweep_scale"]).items
    sweep = []
    for size in WEBGRAPH_SWEEP_LISTS:
        step = max(size, (len(uk_items) - size) // 8)
        parts = [uk_items[s : s + size] for s in range(0, len(uk_items) - size + 1, step)]
        for part in parts:
            assert fast_wg.compress(part) == ref_wg.compress(part), (
                f"webgraph kernel diverged on a {size}-list partition"
            )
        t_ref = _best_of(lambda: [ref_wg.compress(p) for p in parts]) / len(parts)
        t_np = _best_of(lambda: [fast_wg.compress(p) for p in parts]) / len(parts)
        sweep.append(
            {"lists": size, "reference_s": t_ref, "numpy_s": t_np, "speedup": t_ref / t_np}
        )
    results["webgraph_compress"] = {
        "batched_s": t_batched,
        "reference_s": t_reference,
        "speedup": t_reference / t_batched,
        "tiers": _tiers(t_reference, t_batched, None),  # no native tier
        "bits_per_edge": wst_f.bits_per_edge,
        "size_sweep": sweep,
        "bit_identical": True,
    }

    # -- Apriori levels + fpm size sweep on the sim-sweep shapes ---------
    sweep, crossover = _fpm_size_sweep(cfg)
    results["apriori_levels"] = {
        "datasets": _apriori_levels(cfg),
        "size_sweep": sweep,
        "crossover_transactions": crossover,
        "bit_identical": True,
    }

    # -- pivot extraction: one CSR batch vs the per-item extractors ----
    from repro.perf.pivot_kernels import csr_lists
    from repro.stratify.pivots import PivotExtractor

    per_dataset = {}
    for name in ("swissprot", "rcv1", "uk"):
        dataset = load_dataset(name, size_scale=cfg["pivot_size_scale"])
        extractor = PivotExtractor(dataset.kind)
        items = dataset.items
        batch = extractor.extract_batch(items)
        reference = [extractor(item) for item in items]
        assert [set(row) for row in csr_lists(*batch)] == reference, (
            f"pivot kernel diverged on {name}"
        )
        t_batched = _best_of(lambda: extractor.extract_batch(items))
        t_reference = _best_of(lambda: [extractor(item) for item in items], repeats=1)
        per_dataset[name] = {
            "items": len(items),
            "batched_s": t_batched,
            "reference_s": t_reference,
            "speedup": t_reference / t_batched,
        }
    t_batched = sum(r["batched_s"] for r in per_dataset.values())
    t_reference = sum(r["reference_s"] for r in per_dataset.values())
    results["pivot_extract"] = {
        "batched_s": t_batched,
        "reference_s": t_reference,
        "speedup": t_reference / t_batched,
        "tiers": _tiers(t_reference, t_batched, None),  # no native tier
        "datasets": per_dataset,
        "bit_identical": True,
    }
    return results


_KERNEL_SECTIONS = (
    "sketch_all",
    "kmodes_fit",
    "similarity_matrix",
    "apriori_mine",
    "lz77_compress",
    "webgraph_compress",
    "pivot_extract",
)


def _render(results: dict) -> str:
    lines = ["kernel             reference      numpy     native    numpy-vs-ref  native-vs-numpy"]
    for name in _KERNEL_SECTIONS:
        r = results[name]
        tiers = r["tiers"]
        t_native = tiers["native"]
        native_col = f"{t_native:>8.3f}s" if t_native is not None else "       --"
        native_speed = (
            f"{tiers['numpy'] / t_native:>6.2f}x" if t_native else "    --"
        )
        lines.append(
            f"{name:<18} {tiers['reference']:>8.3f}s  {tiers['numpy']:>8.3f}s  {native_col}"
            f"  {r['speedup']:>10.2f}x  {native_speed:>15}"
        )
    if not results.get("native_available"):
        lines.append("(native tier not measured: numba unavailable)")
    lines.append("webgraph size sweep (uk-shaped, per call):")
    lines.append("  lists  reference      numpy  numpy-vs-ref")
    for row in results["webgraph_compress"]["size_sweep"]:
        lines.append(
            f"  {row['lists']:>5}  {row['reference_s'] * 1e3:>7.3f}ms  "
            f"{row['numpy_s'] * 1e3:>7.3f}ms  {row['speedup']:>11.2f}x"
        )
    levels = results["apriori_levels"]
    lines.append("apriori levels (join + prune, four partitions):")
    lines.append("  dataset    k  candidates  reference      numpy  numpy-vs-ref")
    for name, r in levels["datasets"].items():
        for row in r["levels"]:
            lines.append(
                f"  {name:<9} {row['k']:>2}  {row['candidates']:>10}  "
                f"{row['reference_s'] * 1e3:>7.2f}ms  {row['numpy_s'] * 1e3:>7.2f}ms  "
                f"{row['reference_s'] / row['numpy_s']:>11.2f}x"
            )
    lines.append("fpm size sweep (per call, numpy-vs-ref):")
    lines.append("  dataset    transactions     mine    count")
    for row in levels["size_sweep"]:
        count = f"{row['count_speedup']:>7.2f}x" if "count_speedup" in row else "      --"
        lines.append(
            f"  {row['dataset']:<9} {row['transactions']:>12}  {row['mine_speedup']:>6.2f}x  {count}"
        )
    lines.append(f"  numpy wins every call from {levels['crossover_transactions']} transactions")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (CI smoke test)")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path(__file__).parent / "results" / "BENCH_kernels.json",
    )
    args = parser.parse_args(argv)
    results = run_kernel_bench(SMOKE if args.smoke else FULL)
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(_render(results))
    print(f"[saved to {args.out}]")


def test_bench_kernels(benchmark):
    # Imported lazily so `python benchmarks/bench_kernels.py` needs no
    # pytest on the path; the suite run uses smoke sizes to stay quick.
    from conftest import run_once, save_result

    results = run_once(benchmark, lambda: run_kernel_bench(SMOKE))
    save_result("BENCH_kernels_smoke", _render(results))
    for name in _KERNEL_SECTIONS:
        assert results[name]["bit_identical"]
        tiers = results[name]["tiers"]
        assert tiers["reference"] > 0 and tiers["numpy"] > 0
        if results["native_available"] and name not in (
            "similarity_matrix",
            "webgraph_compress",
            "pivot_extract",
        ):
            assert tiers["native"] > 0
    sweep = results["webgraph_compress"]["size_sweep"]
    assert [row["lists"] for row in sweep] == list(WEBGRAPH_SWEEP_LISTS)
    levels = results["apriori_levels"]
    assert levels["bit_identical"]
    assert [r["transactions"] for r in levels["size_sweep"]] == list(FPM_SWEEP_TX) * len(FPM_SHAPES)


if __name__ == "__main__":
    main()
