"""Execution engines: run partitioned workloads on the emulated cluster.

Two engines share one interface:

- :class:`SimulatedEngine` runs each partition's workload in-process to
  obtain its real output and work-unit count, then derives runtime
  deterministically as ``overhead/speed + work_units/(unit_rate·speed)``
  — the busy-loop emulation in closed form. This is the default for
  experiments: results are exactly reproducible.
- :class:`ProcessPoolEngine` executes partitions on a real, persistent
  ``ProcessPoolExecutor`` (created lazily, reused across jobs and
  profiling probes) and scales measured wall time by the node's speed
  factor, exercising genuine parallel execution (pickling, process
  startup, concurrent scheduling).

Both account dirty energy against each node's green trace over the
node's busy interval and support multiple partitions queued on one node
(executed back to back, as a slow node with two chunks would).
"""

from __future__ import annotations

import abc
import logging
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, Sequence


import repro.obs as obs
from repro.cluster.cluster import Cluster
from repro.cluster.dataplane import (
    DataPlaneStats,
    PartitionRef,
    SharedPartitionStore,
    fetch_partition,
)
from repro.obs.energy import node_energy_breakdown, record_job_metrics, task_energy_attrs
from repro.obs.log import get_logger, log_event
from repro.obs.trace import Tracer
from repro.workloads.base import Workload, WorkloadResult

_log = get_logger(__name__)


@dataclass
class TaskResult:
    """One partition's execution record."""

    partition_id: int
    node_id: int
    start_s: float
    runtime_s: float
    work_units: float
    dirty_energy_j: float
    energy_j: float
    output: Any = None
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.runtime_s


@dataclass
class JobResult:
    """Aggregate outcome of one distributed job."""

    tasks: list[TaskResult]
    makespan_s: float
    total_dirty_energy_j: float
    total_energy_j: float
    merged_output: Any = None

    def node_busy_times(self) -> dict[int, float]:
        """Total busy seconds per node."""
        busy: dict[int, float] = {}
        for t in self.tasks:
            busy[t.node_id] = busy.get(t.node_id, 0.0) + t.runtime_s
        return busy

    def energy_breakdown(self) -> dict[int, dict[str, float]]:
        """Per-node time/energy/dirty-energy telemetry.

        Exact regrouping of the per-task fields: the per-node
        ``energy_j``/``dirty_energy_j`` columns sum back to
        ``total_energy_j``/``total_dirty_energy_j``.
        """
        return node_energy_breakdown(self)

    def partition_sizes_by_node(self) -> dict[int, float]:
        work: dict[int, float] = {}
        for t in self.tasks:
            work[t.node_id] = work.get(t.node_id, 0.0) + t.work_units
        return work


def record_job_telemetry(
    job: JobResult, job_span, wall0: float, engine: str, workload: str | None = None
) -> None:
    """Emit one ``task.execute`` span per task (on the job's node-local
    timeline, anchored at the job's wall start) plus the per-node
    latency/energy metrics. Sums of the span energy attrs reproduce
    the job totals exactly — the spans carry the same floats the
    :class:`JobResult` summed. Callers must check ``obs.enabled()``.

    ``workload`` tags each span with the workload name so the live
    :class:`~repro.obs.live.NodeEstimator` can fit per-workload models
    (mixing workloads with different per-item costs would bias a
    pooled slope).

    Shared by every engine that produces a :class:`JobResult`
    (simulated, process-pool, fault-injecting, work-stealing).
    """
    tracer = obs.get_tracer()
    for task in job.tasks:
        attrs = task_energy_attrs(task)
        if workload is not None:
            attrs["workload"] = workload
        tracer.emit(
            "task.execute",
            start_s=wall0 + task.start_s,
            duration_s=task.runtime_s,
            parent_id=job_span.span_id,
            **attrs,
        )
    job_span.set_attr("makespan_s", job.makespan_s)
    job_span.set_attr("total_energy_j", job.total_energy_j)
    job_span.set_attr("total_dirty_energy_j", job.total_dirty_energy_j)
    record_job_metrics(obs.get_metrics(), job, engine=engine)
    # Deferred import: repro.obs.live sits above the cluster layer.
    from repro.obs.live import active_plane

    plane = active_plane()
    if plane is not None:
        plane.publish_event(
            "job.complete",
            engine=engine,
            workload=workload,
            tasks=len(job.tasks),
            makespan_s=job.makespan_s,
            energy_j=job.total_energy_j,
            dirty_energy_j=job.total_dirty_energy_j,
        )


def _validate_assignment(cluster: Cluster, partitions: Sequence, assignment: Sequence[int]) -> None:
    if len(partitions) != len(assignment):
        raise ValueError("one node assignment required per partition")
    if len(partitions) == 0:
        raise ValueError("job needs at least one partition")
    for node in assignment:
        if not 0 <= node < cluster.num_nodes:
            raise ValueError(f"assignment references unknown node {node}")


class ExecutionEngine(abc.ABC):
    """Common engine machinery: scheduling, energy accounting, merging."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    @abc.abstractmethod
    def _execute_partitions(
        self, workload: Workload, partitions: Sequence[Sequence[Any]], assignment: Sequence[int]
    ) -> list[tuple[WorkloadResult, float]]:
        """Return ``(result, runtime_s)`` per partition, in order."""

    def profile(self, workload: Workload, records: Sequence[Any], node_id: int) -> float:
        """Runtime of ``workload`` on ``records`` at ``node_id`` — the
        probe the progressive-sampling estimator uses."""
        with obs.span(
            "engine.profile",
            engine=type(self).__name__,
            node=node_id,
            records=len(records),
        ) as sp:
            (pair,) = self._execute_partitions(workload, [records], [node_id])
            sp.set_attr("runtime_s", pair[1])
            return pair[1]

    def profile_all_nodes(
        self, workload: Workload, records: Sequence[Any]
    ) -> list[float]:
        """Runtime of one sample on *every* node (node-id order).

        Default: one probe per node. Engines whose runtime is a pure
        function of work units override this to run the workload once.
        """
        with obs.span(
            "engine.profile_all_nodes",
            engine=type(self).__name__,
            nodes=self.cluster.num_nodes,
            records=len(records),
        ):
            return [
                self.profile(workload, records, node_id)
                for node_id in range(self.cluster.num_nodes)
            ]

    def run_job(
        self,
        workload: Workload,
        partitions: Sequence[Sequence[Any]],
        assignment: Sequence[int] | None = None,
        start_offset_s: float = 0.0,
    ) -> JobResult:
        """Execute one partition per assignment slot and aggregate.

        ``assignment=None`` maps partition ``i`` to node
        ``i % num_nodes``. Multiple partitions on a node run back to
        back; all nodes start at ``start_offset_s`` (global barrier
        semantics — pass the previous phase's makespan so energy is
        billed against the right window of each node's green trace).
        Reported start/end times and the makespan are relative to the
        offset.
        """
        if assignment is None:
            assignment = [i % self.cluster.num_nodes for i in range(len(partitions))]
        if start_offset_s < 0:
            raise ValueError("start_offset_s must be non-negative")
        _validate_assignment(self.cluster, partitions, assignment)

        wall0 = time.time()
        with obs.span(
            "engine.run_job",
            engine=type(self).__name__,
            partitions=len(partitions),
            nodes=self.cluster.num_nodes,
        ) as job_span:
            executed = self._execute_partitions(workload, partitions, assignment)

            tasks: list[TaskResult] = []
            node_clock: dict[int, float] = {}
            for pid, ((result, runtime), node_id) in enumerate(zip(executed, assignment)):
                node = self.cluster[node_id]
                start = node_clock.get(node_id, 0.0)
                dirty = node.accountant.measured_dirty_energy(
                    runtime, start_s=start_offset_s + start
                )
                energy = node.accountant.power.energy_joules(runtime)
                tasks.append(
                    TaskResult(
                        partition_id=pid,
                        node_id=node_id,
                        start_s=start,
                        runtime_s=runtime,
                        work_units=result.work_units,
                        dirty_energy_j=dirty,
                        energy_j=energy,
                        output=result.output,
                        stats=result.stats,
                    )
                )
                node_clock[node_id] = start + runtime

            makespan = max(node_clock.values())
            merged = workload.merge(
                [WorkloadResult(t.work_units, t.output, t.stats) for t in tasks]
            )
            job = JobResult(
                tasks=tasks,
                makespan_s=makespan,
                total_dirty_energy_j=sum(t.dirty_energy_j for t in tasks),
                total_energy_j=sum(t.energy_j for t in tasks),
                merged_output=merged,
            )
            if obs.enabled():
                record_job_telemetry(
                    job, job_span, wall0, type(self).__name__, workload=workload.name
                )
            return job


class SimulatedEngine(ExecutionEngine):
    """Deterministic engine: runtime = overhead/speed + work/(rate·speed).

    Parameters
    ----------
    unit_rate:
        Work units per second a speed-1 node processes. Calibrates the
        absolute time scale only; strategy comparisons are invariant.
    """

    def __init__(self, cluster: Cluster, unit_rate: float = 5e4):
        super().__init__(cluster)
        if unit_rate <= 0:
            raise ValueError("unit_rate must be positive")
        self.unit_rate = unit_rate

    def _execute_partitions(self, workload, partitions, assignment):
        out = []
        for records, node_id in zip(partitions, assignment):
            result = workload.run(records)
            node = self.cluster[node_id]
            runtime = node.runtime_for_work(result.work_units, self.unit_rate)
            out.append((result, runtime))
        return out

    def profile_all_nodes(self, workload, records):
        # Simulated runtime is work/(rate·speed): run the workload once
        # and derive every node's runtime from the same work count.
        with obs.span(
            "engine.profile_all_nodes",
            engine=type(self).__name__,
            nodes=self.cluster.num_nodes,
            records=len(records),
        ):
            result = workload.run(list(records))
        return [
            node.runtime_for_work(result.work_units, self.unit_rate)
            for node in self.cluster
        ]


def _init_worker() -> None:
    """Pool-worker initializer.

    Ctrl-C is left to the parent: a terminal delivers SIGINT to the
    whole foreground process group, and a worker interrupted mid
    ``call_queue.get()`` prints a traceback and can wedge the queue
    into a BrokenProcessPool. Workers ignore the signal so only the
    parent reacts and drains via :meth:`ProcessPoolEngine.shutdown`
    (which still SIGTERMs workers if they hang).

    The multiprocessing resource tracker's lock is replaced. A forked
    child inherits every lock as it was at the fork, and CPython does
    not reset this one: if a parent thread was registering a
    shared-memory segment at that moment, the child's first segment
    attach (which registers too) waits forever on a lock no thread of
    the child will release, and the job never returns.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_lock"):
        tracker._lock = threading.RLock()


def _pool_task(
    args: tuple[Workload, Sequence[Any], bool]
) -> tuple[WorkloadResult, float, tuple]:
    workload, records, trace = args
    tracer = Tracer() if trace else None
    span = tracer.span("worker.run", items=len(records), shm=False) if tracer is not None else None
    t0 = time.perf_counter()
    if span is not None:
        with span:
            result = workload.run(records)
    else:
        result = workload.run(records)
    wall = time.perf_counter() - t0
    # Worker spans ship back through the normal task return path; the
    # parent re-parents them under the span that launched the job.
    return result, wall, tuple(tracer.finished_spans()) if tracer is not None else ()


def _pool_task_shm(
    args: tuple[Workload, PartitionRef, bool]
) -> tuple[WorkloadResult, float, tuple]:
    workload, ref, trace = args
    tracer = Tracer() if trace else None
    # Fetch outside the timer: with the eager path the partition was
    # unpickled by the executor before _pool_task started, so measured
    # wall time covers only workload.run either way.
    if tracer is not None:
        with tracer.span(
            "worker.fetch", segment=ref.segment, bytes=ref.total_bytes
        ):
            records = fetch_partition(ref)
    else:
        records = fetch_partition(ref)
    span = tracer.span("worker.run", items=len(records), shm=True) if tracer is not None else None
    t0 = time.perf_counter()
    if span is not None:
        with span:
            result = workload.run(records)
    else:
        result = workload.run(records)
    wall = time.perf_counter() - t0
    return result, wall, tuple(tracer.finished_spans()) if tracer is not None else ()


class ProcessPoolEngine(ExecutionEngine):
    """Real parallel engine: wall time scaled by each node's speed factor.

    Partition workloads run concurrently in worker processes (capped at
    ``max_workers``); the measured wall time of each task is divided by
    the assigned node's speed factor and the per-task overhead added,
    emulating the busy-loop slowdown without burning cores on spin
    loops.

    The worker pool is **persistent**: it is created lazily on the
    first job and reused by every subsequent :meth:`run_job` /
    :meth:`profile` / :meth:`profile_all_nodes` call, so process
    fork/spawn cost is paid once per engine, not once per job. Because
    worker start-up is real wall time, the first task measured on a
    cold pool can carry import/fork noise — callers comparing measured
    runtimes should issue a throwaway :meth:`profile` first (or accept
    the first probe as warm-up). Use the engine as a context manager,
    or call :meth:`shutdown`, to release the workers deterministically;
    a garbage-collected engine tears its pool down without waiting.

    With ``use_shared_memory=True`` (the default) partitions travel
    through the :mod:`repro.cluster.dataplane` shared-memory store:
    each distinct partition is serialized once into a shared segment
    and tasks carry only a tiny :class:`PartitionRef`, so repeated
    ``run_job``/``profile`` calls over the same partitions never
    re-pickle the data. :meth:`shutdown` unlinks the segments. Set the
    flag to ``False`` to pickle partitions into every task tuple (the
    pre-data-plane behaviour). ``cache_limit`` bounds the store's
    segment cache: least-recently-used segments are unlinked once more
    than ``cache_limit`` are live, so long-running engines streaming
    many distinct jobs keep a bounded ``/dev/shm`` footprint (``None``
    = unbounded, the pre-limit behaviour).
    """

    def __init__(
        self,
        cluster: Cluster,
        max_workers: int | None = None,
        use_shared_memory: bool = True,
        cache_limit: int | None = 64,
    ):
        super().__init__(cluster)
        self.max_workers = max_workers
        self.use_shared_memory = use_shared_memory
        if cache_limit is not None and cache_limit <= 0:
            raise ValueError("cache_limit must be positive (or None for unbounded)")
        self.cache_limit = cache_limit
        self._pool: ProcessPoolExecutor | None = None
        self._store: SharedPartitionStore | None = None
        self._pools_created = 0
        # Serializes pool/store creation against teardown and counts
        # in-flight pool jobs so shutdown(wait=True) can drain before
        # unlinking shared-memory segments workers may still be reading.
        self._lifecycle = threading.Condition()
        self._inflight = 0

    @property
    def pools_created(self) -> int:
        """How many executors this engine has ever constructed.

        Stays at 1 across any number of jobs unless the pool broke (a
        worker died) or :meth:`shutdown` was followed by more work.
        """
        with self._lifecycle:
            return self._pools_created

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lifecycle:
            if self._pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, initializer=_init_worker
                )
                # A fork-context executor forks all its workers on its
                # first submit. Do that here, under the lifecycle lock
                # and before any job publishes segments, rather than
                # inside some job's map while sibling jobs run. The
                # resource tracker starts first so the workers share
                # the parent's (see dataplane._attach) instead of each
                # starting its own on its first attach.
                if self.use_shared_memory:
                    resource_tracker.ensure_running()
                try:
                    pool.submit(int).result()
                except BaseException:
                    pool.shutdown(wait=False)
                    raise
                self._pool = pool
                self._pools_created += 1
                log_event(
                    _log, logging.DEBUG, "engine.pool.created",
                    total=self._pools_created, max_workers=self.max_workers,
                )
                if obs.enabled():
                    obs.get_metrics().counter("repro_pool_creations_total").inc()
            return self._pool

    def _ensure_store(self) -> SharedPartitionStore:
        with self._lifecycle:
            if self._store is None or self._store.closed:
                self._store = SharedPartitionStore(cache_limit=self.cache_limit)
            return self._store

    @property
    def dataplane_stats(self) -> DataPlaneStats:
        """Counters from the shared-memory store (zeros before first use)."""
        with self._lifecycle:
            store = self._store
        if store is None:
            return DataPlaneStats()
        return store.stats

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker processes and unlink any shared-memory
        segments. Idempotent; the next job after a shutdown
        transparently builds a fresh pool (and store).

        With ``wait=True`` (the default) the call **drains first**: it
        blocks until every in-flight :meth:`run_job` / :meth:`profile`
        on other threads has finished, then unlinks — so concurrent
        callers never observe their segments disappearing mid-fetch.
        ``wait=False`` tears down immediately (interpreter exit, broken
        pool).
        """
        lifecycle = getattr(self, "_lifecycle", None)
        if lifecycle is None:
            # __init__ raised before the lifecycle existed; nothing to free.
            return
        with lifecycle:
            if wait:
                while self._inflight > 0:
                    lifecycle.wait()
            # Detach the handles before tearing them down so a failure (or
            # a re-entrant call) can never double-release.
            pool, self._pool = self._pool, None
            store, self._store = self._store, None
        if pool is not None or store is not None:
            log_event(
                _log, logging.DEBUG, "engine.shutdown",
                wait=wait, had_pool=pool is not None, had_store=store is not None,
            )
        try:
            if pool is not None:
                pool.shutdown(wait=wait)
        finally:
            if store is not None:
                store.close()

    def __enter__(self) -> "ProcessPoolEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def __del__(self) -> None:
        # Interpreter teardown may have already dismantled the modules
        # shutdown() needs (ImportError/TypeError/AttributeError from
        # half-dead internals); a dying engine must not raise — but it
        # leaves a debug record behind when logging still works.
        try:
            self.shutdown(wait=False)
        except BaseException as exc:
            try:
                log_event(
                    _log, logging.DEBUG, "engine.del.shutdown_failed",
                    error=type(exc).__name__,
                )
            except BaseException:  # repro: noqa[SILENT-EXCEPT] — logging itself is gone this deep into interpreter teardown
                pass

    def _map_tasks(
        self, workload: Workload, partitions: Sequence[Sequence[Any]]
    ) -> list[tuple[WorkloadResult, float]]:
        # Every pool round-trip is bracketed by the in-flight counter so
        # a concurrent shutdown(wait=True) drains us before unlinking.
        with self._lifecycle:
            self._inflight += 1
        try:
            return self._map_tasks_inner(workload, partitions)
        finally:
            with self._lifecycle:
                self._inflight -= 1
                self._lifecycle.notify_all()

    def _map_tasks_inner(
        self, workload: Workload, partitions: Sequence[Sequence[Any]]
    ) -> list[tuple[WorkloadResult, float]]:
        pool = self._ensure_pool()
        workers = self.max_workers or os.cpu_count() or 1
        # Hand each worker a few tasks per round-trip: one pickle per
        # chunk instead of one per partition.
        chunksize = max(1, len(partitions) // (4 * workers))
        # The tracing flag rides in the task tuple, so toggling obs
        # needs no pool restart (workers may predate enable()).
        trace = obs.enabled()
        # Workers must see a real list either way; keeping list inputs
        # un-copied lets the store's identity cache recognise repeats.
        parts = [p if isinstance(p, list) else list(p) for p in partitions]
        if self.use_shared_memory:
            try:
                refs = self._ensure_store().put_many(parts)
            except OSError as exc:
                # No usable shared memory on this host (e.g. /dev/shm
                # missing): fall back to eager pickling for good.
                log_event(
                    _log, logging.DEBUG, "engine.dataplane.fallback",
                    error=type(exc).__name__, detail=str(exc),
                )
                self.use_shared_memory = False
            else:
                return self._run_map(
                    pool, _pool_task_shm, [(workload, r, trace) for r in refs], chunksize
                )
        return self._run_map(
            pool, _pool_task, [(workload, p, trace) for p in parts], chunksize
        )

    def _run_map(self, pool, fn, tasks, chunksize):
        try:
            raw = list(pool.map(fn, tasks, chunksize=chunksize))
        except BrokenProcessPool:
            # A dead worker poisons the whole executor; discard it so
            # the next job starts clean, then surface the failure.
            log_event(_log, logging.DEBUG, "engine.pool.broken", tasks=len(tasks))
            self.shutdown(wait=False)
            raise
        out = []
        tracer = obs.get_tracer() if obs.enabled() else None
        parent = tracer.current_span_id() if tracer is not None else None
        for result, wall, worker_spans in raw:
            if tracer is not None and worker_spans:
                tracer.adopt(worker_spans, parent_id=parent)
            out.append((result, wall))
        return out

    def _execute_partitions(self, workload, partitions, assignment):
        raw = self._map_tasks(workload, partitions)
        out = []
        for (result, wall), node_id in zip(raw, assignment):
            node = self.cluster[node_id]
            runtime = node.task_overhead_s / node.speed_factor + wall / node.speed_factor
            out.append((result, runtime))
        return out

    def profile_all_nodes(self, workload, records):
        # Runtime derives from one measured wall time scaled per node —
        # run the sample once on the pool instead of once per node.
        # Passing `records` through unchanged lets repeat probes of the
        # same sample hit the data plane's identity cache.
        with obs.span(
            "engine.profile_all_nodes",
            engine=type(self).__name__,
            nodes=self.cluster.num_nodes,
            records=len(records),
        ):
            ((_, wall),) = self._map_tasks(workload, [records])
        return [
            node.task_overhead_s / node.speed_factor + wall / node.speed_factor
            for node in self.cluster
        ]
