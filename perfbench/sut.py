"""The process under test, driven by ``perfbench/run.py``.

    python3 perfbench/sut.py sweep <first partitioner seed> <dataset seed>
    python3 perfbench/sut.py serve '<json service config>'

Each mode sets up, replies ``{"ready": ...}``, then answers one JSON
command per stdin line until ``quit``. Replies go to the original
stdout; everything else the process prints goes to stderr, so program
output cannot corrupt a reply.

``sweep`` runs the paper-experiment path in this process: per pass (each
on its own partitioner seed) and per (dataset, workload) pair, fresh
datasets, ``ParetoPartitioner.prepare``
on a ``SimulatedEngine`` with library defaults (KV staging on), then
``measure_frontier`` one α at a time plus the equal-split baseline.

``serve`` runs the job service exactly as ``repro serve`` assembles it
(process engine, shared-memory dataplane) and warms it with the given
job specs. The load comes from the controller over HTTP.

Both modes capture every job for the output checks in
``perfbench/checks.py``. The traced run adds the per-layer clocks of
``perfbench/layers.py`` and switches the program's own tracing on.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import pathlib
import platform
import signal
import statistics
import sys
import threading
import time
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

_REPLIES = os.fdopen(os.dup(1), "w", buffering=1)
os.dup2(2, 1)
sys.stdout = sys.stderr

import repro.obs as obs  # noqa: E402
from checks import OutputChecker, capture_job  # noqa: E402
from layers import LayerClock, install_pipeline_clocks, span_end, union_s  # noqa: E402
from repro.cluster.cluster import paper_cluster  # noqa: E402
from repro.cluster.engines import ExecutionEngine, SimulatedEngine  # noqa: E402
from repro.perf import autotune  # noqa: E402
from repro.core.framework import ParetoPartitioner  # noqa: E402
from repro.core.strategies import STRATIFIED  # noqa: E402
from repro.data.datasets import load_dataset  # noqa: E402
from repro.service.jobs import MINING_WORKLOADS, build_workload  # noqa: E402
from repro.workloads.compression.distributed import CompressionWorkload  # noqa: E402

#: sim-sweep pairs: dataset, size scale, workload, support, placement,
#: simulated work units per second of a speed-1 node.
PAIRS = (
    ("rcv1", 0.5, "apriori", 0.1, "representative", 5e4),
    ("uk", 0.5, "webgraph", 0.1, "similar", 5e3),
    ("swissprot", 0.5, "treemining", 0.12, "representative", 5e4),
)
#: α ladder each pair is swept over; the equal-split baseline follows it.
ALPHAS = (1.0, 0.99, 0.9, 0.5, 0.0)

#: Iterations of the calibration loop, about 5 ms on a 2.1 GHz Xeon vCPU.
CALIBRATION_ITERS = 60_000

#: How many times set-up runs each warm-up job.
WARM_ROUNDS = 4

KERNEL_KINDS = ("minhash", "kmodes", "fpm", "lz77", "webgraph")


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now: the host's
    current speed. On a shared 2-vCPU host that speed moves by half
    between spells of minutes, and the sweep's steps move with it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def reply(**payload: Any) -> None:
    _REPLIES.write(json.dumps(payload) + "\n")


#: Kernel tier dispatches in this process, counted with tracing off too
#: (the program's own counter only counts while tracing is on). Pool
#: workers keep their own counts.
DISPATCHES: collections.Counter = collections.Counter()
_record_dispatch = autotune._record_dispatch


def _count_dispatch(kind: str, tier: str) -> None:
    DISPATCHES[f"{kind}.{tier}"] += 1
    _record_dispatch(kind, tier)


autotune._record_dispatch = _count_dispatch


def fingerprint() -> dict:
    import numpy
    import scipy

    from repro.perf.native import runtime

    tiers = {kind: autotune.resolve_tier("auto", kind=kind, work=1e12) for kind in KERNEL_KINDS}
    DISPATCHES.subtract(f"{kind}.{tier}" for kind, tier in tiers.items())  # probes, not work
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": runtime.numba_available(),
        "tier_for_large_inputs": tiers,
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def kernel_dispatch(snapshot: dict) -> dict[str, float]:
    """``kernels.dispatch.<kernel>.<tier>`` counts from a metrics snapshot."""
    out = {}
    prefix = "repro_kernel_dispatch_total{"
    for key, entry in snapshot.items():
        if key.startswith(prefix):
            labels = dict(
                part.split("=", 1) for part in key[len(prefix):-1].split(",")
            )
            name = f"kernels.dispatch.{labels['kernel'].strip(chr(34))}.{labels['tier'].strip(chr(34))}"
            out[name] = entry["value"]
    return out


def plan_errors(caps: list[dict]) -> dict[str, float]:
    """Mean relative error of the optimizer's predictions (α plans only)."""
    planned = [c for c in caps if c["alpha"] is not None and c["makespan_s"] > 0]
    if not planned:
        return {}
    return {
        "optimizer.makespan_err": sum(
            abs(c["pred_makespan_s"] - c["makespan_s"]) / c["makespan_s"] for c in planned
        ) / len(planned),
        "optimizer.dirty_err": sum(
            abs(c["pred_dirty_j"] - c["dirty_j"]) / max(c["dirty_j"], 1e-9) for c in planned
        ) / len(planned),
    }


def clock_layers(clock: LayerClock, ops: int) -> dict[str, float]:
    """Per-op layer figures every workload shares."""
    t, s, n = clock.total, clock.self_time, clock.calls
    return {
        "stratify.sketch_s": s["stratify.sketch"] / ops,
        "stratify.cluster_s": s["stratify.cluster"] / ops,
        "heterogeneity.profile_s": t["heterogeneity.profile"] / ops,
        "heterogeneity.probes": n["heterogeneity.probe"] / ops,
        "optimizer.solve_s": t["optimizer.solve"] / ops,
        "optimizer.solves": n["optimizer.solve"] / ops,
        "partitioner.place_s": t["partitioner.place"] / ops,
        "kvstore.stage_s": t["kvstore.stage"] / ops,
        "engines.run_job_s": t["engines.run_job"] / ops,
        "engines.run_job_self_s": s["engines.run_job"] / ops,
        "dataplane.put_s": t["dataplane.put"] / ops,
        "service.prepares": n["service.prepare"] / ops,
        "service.prepare_s": t["service.prepare"] / ops,
        "executor.lookup_wait_s": t["executor.lookup"] / ops,
    }


def capture_layers(caps: list[dict]) -> dict[str, float]:
    if not caps:
        return {}
    jobs = len(caps)
    return {
        "engines.nodes_used": sum(sum(1 for x in c["sizes"] if x > 0) for c in caps) / jobs,
        "kvstore.round_trips": sum(c["kv_round_trips"] for c in caps) / jobs,
        **plan_errors(caps),
    }


class _CapturingRunJob:
    """Keeps a shallow copy of each compression job's partitions, per
    thread, until the job's RunReport is captured."""

    def __init__(self) -> None:
        self.local = threading.local()
        original = ExecutionEngine.run_job
        local = self.local

        def run_job(engine, workload, partitions, *args, **kwargs):
            if isinstance(workload, CompressionWorkload):
                local.parts = [list(p) for p in partitions]
            return original(engine, workload, partitions, *args, **kwargs)

        ExecutionEngine.run_job = run_job

    def take(self) -> list | None:
        parts = getattr(self.local, "parts", None)
        self.local.parts = None
        return parts


class Sweep:
    """Passes over PAIRS. Pass i uses partitioner seed ``1000 * seed + i``,
    so a run samples several partitionings (their work differs by up to
    a third) instead of timing one seed's, and runs share none."""

    def __init__(self, seed: int, data_seed: int) -> None:
        self.seed = seed
        self.data_seed = data_seed
        self.passes_run = 0
        self.captured_parts = _CapturingRunJob()
        self.captures: list[dict] = []
        self.checker = OutputChecker()
        self.clock: LayerClock | None = None
        self.current = ""
        self.traced_from = None  # index of the first traced capture
        # Warm-up (lazy imports, allocator, caches) on the first timed
        # pass's seed, at the two α values whose simulated outcome is
        # reported, so the check can ask that outcome to repeat exactly.
        warm = self.one_pass(1000 * seed, points=(1.0, 0.0))
        self.warm_outcome = (warm["sim_makespan_s"], warm["sim_dirty_kj"])
        self.first_outcome: tuple | None = None

    def one_pass(self, seed: int, points: tuple = ALPHAS + (None,)) -> dict:
        point_s: list[float] = []
        step_s: list[float] = []  # per pair: prepare, then each point
        cal_s: list[float] = []  # calibration just before each step
        makespan = dirty = 0.0
        for name, scale, workload_name, support, placement, rate in PAIRS:
            dataset = load_dataset(name, size_scale=scale, seed=self.data_seed)
            engine = SimulatedEngine(paper_cluster(4), unit_rate=rate)
            pp = ParetoPartitioner(engine, kind=dataset.kind, seed=seed)
            workload = build_workload(workload_name, support)
            key = (name, scale, self.data_seed)
            self.current = workload_name
            cal_s.append(calibrate())
            t0 = time.perf_counter()
            prepared = pp.prepare(dataset.items, workload)
            step_s.append(time.perf_counter() - t0)
            for alpha in points:
                cal_s.append(calibrate())
                t0 = time.perf_counter()
                if alpha is None:
                    run = pp.execute_fpm if workload_name in MINING_WORKLOADS else pp.execute
                    report = run(
                        dataset.items, workload, STRATIFIED.with_placement(placement),
                        prepared=prepared,
                    )
                else:
                    ((_, report),) = pp.measure_frontier(
                        dataset.items, workload, [alpha], placement=placement,
                        prepared=prepared,
                    )
                elapsed = time.perf_counter() - t0
                point_s.append(elapsed)
                step_s.append(elapsed)
                cap = capture_job(report, workload, key, self.captured_parts.take())
                self.checker.intern(cap)
                self.captures.append(cap)
                if alpha == 1.0:
                    makespan += report.makespan_s
                elif alpha == 0.0:
                    dirty += report.total_dirty_energy_j / 1e3
        return {
            "pass_s": sum(step_s),
            "point_s": point_s,
            "step_s": step_s,
            "cal_s": cal_s,
            "sim_makespan_s": makespan,
            "sim_dirty_kj": dirty,
        }

    def run_passes(self, min_passes: int, seconds: float = 0.0) -> list[dict]:
        passes = []
        t0 = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
            passes.append(self.one_pass(1000 * self.seed + self.passes_run))
            if self.passes_run == 0:
                self.first_outcome = (passes[0]["sim_makespan_s"], passes[0]["sim_dirty_kj"])
            self.passes_run += 1
        return passes

    def trace_on(self) -> None:
        from repro.workloads.fpm.apriori import AprioriWorkload, CandidateCountWorkload
        from repro.workloads.fpm.treemining import TreeMiningWorkload

        self.clock = LayerClock()
        install_pipeline_clocks(self.clock, SimulatedEngine)
        for cls in (AprioriWorkload, CandidateCountWorkload, TreeMiningWorkload,
                    CompressionWorkload):
            self.clock.wrap(cls, "run", lambda *a, **k: f"workloads.run.{self.current}")
        self.traced_from = len(self.captures)
        obs.reset()
        obs.enable()

    def layers(self, passes: list[dict]) -> dict[str, float]:
        ops = len(passes)
        out = clock_layers(self.clock, ops)
        for pair in PAIRS:
            out[f"workloads.run_s.{pair[2]}"] = self.clock.total[f"workloads.run.{pair[2]}"] / ops
        traced = self.captures[self.traced_from:]
        out.update(capture_layers(traced))
        out["plan.sim_makespan_s"] = statistics.fmean(p["sim_makespan_s"] for p in passes)
        out["plan.sim_dirty_kj"] = statistics.fmean(p["sim_dirty_kj"] for p in passes)
        out.update({k: v / ops for k, v in kernel_dispatch(obs.metrics_snapshot()).items()})
        roots = [
            (s["start_s"], span_end(s))
            for s in obs.get_tracer().finished_spans()
            if s["parent_id"] is None and s["name"] != "task.execute"
        ]
        out["trace.coverage"] = union_s(roots) / sum(p["pass_s"] for p in passes)
        return out

    def check(self) -> dict:
        dispatches = dict(+DISPATCHES)
        problems: dict[str, int] = {}
        for cap in self.captures:
            for problem in self.checker.problems(cap):
                problems[problem] = problems.get(problem, 0) + 1
        if self.first_outcome != self.warm_outcome:
            problems["simulated makespan/dirty energy differ between two passes on one seed"] = 1
        return {
            "checked": self.checker.checked,
            "problems": problems,
            "dispatches": dispatches,
            "first_outcome": self.first_outcome,
        }

    def handle(self, cmd: dict) -> dict:
        if cmd["cmd"] == "run":
            return {"passes": self.run_passes(2, cmd["seconds"])}
        if cmd["cmd"] == "trace_on":
            self.trace_on()
            return {}
        if cmd["cmd"] == "layers":
            return {"layers": self.layers(cmd["passes"])}
        if cmd["cmd"] == "check":
            return self.check()
        raise ValueError(f"unknown command {cmd['cmd']!r}")

    def close(self) -> None:
        pass

    def abort(self) -> None:
        pass


class Serve:
    def __init__(self, config: dict) -> None:
        from repro.service import JobManager, ScenarioExecutor, ServiceConfig, build_service

        self.captured_parts = _CapturingRunJob()
        self.captures: dict[str, tuple[Any, dict | None, bool]] = {}
        self.clock: LayerClock | None = None
        self.traced = False
        self.dataplane_at_trace: dict | None = None
        local = self.captured_parts.local
        captures = self.captures
        original_payload = ScenarioExecutor.__dict__["_result_payload"].__func__
        original_finish = JobManager._finish

        def result_payload(spec, report):
            local.cap = capture_job(
                report,
                build_workload(spec.workload, spec.support),
                (spec.dataset, spec.size_scale, spec.seed),
                self.captured_parts.take(),
            )
            return original_payload(spec, report)

        def finish(manager, record, state, result=None, error=None):
            # Stored before the manager marks the job finished, so a
            # caller woken by that finish finds the capture; the record
            # itself carries the finish time it gets below.
            cap = getattr(local, "cap", None) if result is not None else None
            local.cap = None
            captures[record.job_id] = (record, cap, self.traced)
            original_finish(manager, record, state, result=result, error=error)

        ScenarioExecutor._result_payload = staticmethod(result_payload)
        JobManager._finish = finish

        self.service = build_service(
            engine="process",
            num_nodes=4,
            max_workers=config["workers"],
            port=0,
            config=ServiceConfig(
                max_queue_depth=config["queue_depth"],
                concurrency=config["concurrency"],
                per_tenant_inflight=config["queue_depth"],
                result_ttl_s=600.0,
            ),
        )
        self.workers = config["workers"]
        self.service.server.start()
        from repro.service.jobs import JobSpec

        # The first job of each kind prepares its scenario; the repeats
        # let both pool workers fetch every partition and load every
        # kernel, so the timed phases start warm.
        manager = self.service.manager
        records = [
            manager.submit(JobSpec.from_dict(spec))
            for spec in config["warm"] * WARM_ROUNDS
        ]
        self.wait_idle()
        for record in records:
            if record.state.value != "SUCCEEDED":
                raise RuntimeError(
                    f"warm-up job {record.spec} ended {record.state.value}: {record.error}"
                )

    @property
    def url(self) -> str:
        return self.service.url

    def wait_idle(self, timeout_s: float = 120.0) -> None:
        """Block until no job is queued or running. Waits on the
        manager's own condition (notified at every finish) instead of
        polling it."""
        manager = self.service.manager
        with manager._cond:
            idle = manager._cond.wait_for(
                lambda: not manager._queue and manager._running == 0, timeout_s
            )
        if not idle:
            raise TimeoutError("service did not drain")

    def dataplane(self) -> dict:
        engine = self.service.executor.engine
        store = engine._store
        names = []
        if store is not None:
            with store._lock:
                names = list(store._segments)
        held = 0
        for name in names:
            try:
                held += os.stat(f"/dev/shm/{name}").st_size
            except FileNotFoundError:
                continue
        return {
            "segments": len(names),
            "shm_bytes": held,
            "stats": dataclasses.asdict(engine.dataplane_stats),
        }

    def trace_on(self) -> None:
        from repro.cluster.dataplane import SharedPartitionStore
        from repro.cluster.engines import ProcessPoolEngine
        from repro.service import ScenarioExecutor

        self.clock = LayerClock()
        install_pipeline_clocks(self.clock, ProcessPoolEngine)
        self.clock.wrap(SharedPartitionStore, "put_many", "dataplane.put")

        def prepare_or_lookup(executor, spec):
            hit = executor.scenario_key(spec) in executor._prepared
            return "executor.lookup" if hit else "service.prepare"

        self.clock.wrap(ScenarioExecutor, "prepared_for", prepare_or_lookup)
        self.dataplane_at_trace = self.dataplane()["stats"]
        obs.reset()
        obs.enable()
        self.traced = True

    def layers(self, traced_wall_s: float) -> dict[str, float]:
        spans = obs.get_tracer().finished_spans()
        by_id = {s["span_id"]: s for s in spans}
        runs = [s for s in spans if s["name"] == "service.run"]
        jobs = max(1, len(runs))
        out = clock_layers(self.clock, jobs)
        out.update(capture_layers([c for _, c, traced in self.captures.values() if traced and c]))

        def job_workload(span: dict) -> str | None:
            while span is not None and span["name"] != "service.run":
                span = by_id.get(span["parent_id"])
            return None if span is None else span["attrs"].get("workload")

        busy = fetch = 0.0
        per_workload: dict[str, float] = {}
        for s in spans:
            if s["name"] == "worker.run":
                busy += s["duration_s"]
                name = f"workloads.run_s.{job_workload(s)}"
                per_workload[name] = per_workload.get(name, 0.0) + s["duration_s"]
            elif s["name"] == "worker.fetch":
                fetch += s["duration_s"]
        out.update({k: v / jobs for k, v in per_workload.items()})
        # The counters GET /metrics renders; worker processes keep their
        # own registries, so these are the service process's dispatches.
        out.update({k: v / jobs for k, v in kernel_dispatch(obs.metrics_snapshot()).items()})
        out["dataplane.fetch_s"] = fetch / jobs
        out["engines.worker_busy_frac"] = busy / (self.workers * traced_wall_s)
        # Coverage: the share of each job's wall time under a named child
        # span. task.execute spans carry simulated durations, not host
        # time, so they are left out.
        children: dict[str, list[tuple[float, float]]] = {}
        for s in spans:
            if s["name"] != "task.execute" and s["parent_id"] in by_id:
                children.setdefault(s["parent_id"], []).append((s["start_s"], span_end(s)))
        covered = 0.0
        for run in runs:
            lo, hi = run["start_s"], span_end(run)
            covered += union_s(
                [(max(a, lo), min(b, hi)) for a, b in children.get(run["span_id"], []) if b > lo and a < hi]
            )
        out["trace.coverage"] = covered / max(1e-9, sum(r["duration_s"] for r in runs))
        plane = self.dataplane()
        before, after = self.dataplane_at_trace, plane["stats"]
        refs = after["refs_issued"] - before["refs_issued"]
        hits = (after["identity_hits"] + after["digest_hits"]
                - before["identity_hits"] - before["digest_hits"])
        out["dataplane.serializations"] = (after["serializations"] - before["serializations"]) / jobs
        out["dataplane.hit_ratio"] = hits / refs if refs else 0.0
        out["dataplane.segments"] = plane["segments"]
        out["dataplane.shared_mb"] = plane["shm_bytes"] / 1e6
        traced_caps = [c for _, c, traced in self.captures.values() if traced and c]
        if traced_caps:
            out["plan.sim_makespan_s"] = sum(c["makespan_s"] for c in traced_caps) / len(traced_caps)
            out["plan.sim_dirty_kj"] = sum(c["dirty_j"] for c in traced_caps) / len(traced_caps) / 1e3
        return out

    def report(self) -> dict:
        dispatches = dict(+DISPATCHES)
        checker = OutputChecker()
        jobs = {}
        for job_id, (record, cap, _) in self.captures.items():
            entry: dict[str, Any] = {"finished": record.finished_at}
            if cap is not None:
                entry["problems"] = checker.problems(cap)
                entry["nodes"] = sum(1 for x in cap["sizes"] if x > 0)
            jobs[job_id] = entry
        return {
            "jobs": jobs,
            "stats": self.service.manager.stats(),
            "dispatches": dispatches,
        }

    def handle(self, cmd: dict) -> dict:
        if cmd["cmd"] == "idle":
            self.wait_idle()
            return {}
        if cmd["cmd"] == "dataplane":
            return self.dataplane()
        if cmd["cmd"] == "trace_on":
            self.trace_on()
            return {}
        if cmd["cmd"] == "layers":
            return {"layers": self.layers(cmd["traced_wall_s"])}
        if cmd["cmd"] == "report":
            return self.report()
        raise ValueError(f"unknown command {cmd['cmd']!r}")

    def close(self) -> None:
        self.service.close()

    def abort(self) -> None:
        """Fast teardown on a stop request: kill the pool, unlink shm."""
        self.service.executor.engine.shutdown(wait=False)
        self.service.server.stop()


def main(argv: list[str]) -> int:
    # The controller stops a run with SIGTERM; exiting through Python
    # lets the teardown below and the dataplane's atexit unlink shm.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if argv[0] == "sweep":
            sut = Sweep(int(argv[1]), int(argv[2]))
        else:
            sut = Serve(json.loads(argv[1]))
    except Exception as exc:  # report set-up failures to the controller, then exit
        reply(error=f"set-up failed: {type(exc).__name__}: {exc}")
        raise
    reply(ready=True, url=getattr(sut, "url", None), fingerprint=fingerprint())
    done = False
    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "quit":
                sut.close()
                done = True
                break
            try:
                reply(**sut.handle(cmd))
            except Exception as exc:  # keep the protocol answering; the controller fails the run
                reply(error=f"{cmd['cmd']} failed: {type(exc).__name__}: {exc}")
                raise
    finally:
        if not done:
            sut.abort()
    reply(bye=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
