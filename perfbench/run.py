"""One benchmark for the Pareto pipeline.

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 35 --trace 0

Run from the repository root. It starts the program under test
(``perfbench/sut.py``) as a separate process, measures it, checks every
output against a reference, prints one line per metric, a fingerprint
line, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``. It exits 1 when an
output is wrong and 2 when the program's sources are missing.

Workloads. Every scenario's data is generated from one fixed dataset
seed, so a run's work does not depend on ``--seed``; the seed drives the
traffic: partitioner seeds, arrival times, request order, α values and
churn's new datasets.

- ``sim-sweep``: the paper-experiment path in one process. A pass covers
  rcv1 + apriori (two-phase Savasere), uk + webgraph and swissprot +
  treemining; each pair gets fresh datasets, ``ParetoPartitioner.prepare``
  on a ``SimulatedEngine`` (library defaults, KV staging on) and an α
  sweep plus the equal-split baseline. Pass i partitions with seed
  ``1000 * --seed + i``. Stratify, the in-process kernels,
  the optimizer and KV staging do the work; pool, dataplane and service
  stay idle.
- ``service-repeat`` (runs from this command but is not among the
  workloads ``BENCHMARK.json`` gates, so the gated ones fit longer runs
  in the time the benchmark is given): the job service (process engine,
  shm dataplane, two pool workers) in its own process. Requests arrive
  open-loop (Poisson, 6/s) from two sender threads over keep-alive
  connections. The mix is
  apriori/eclat/webgraph/lz77 over scenarios warmed during set-up, at
  equal split and α=1, so every partition is a dataplane cache hit.
  Fixed-size bursts, each sent once the service is idle, then fill the
  rest of the run and measure drain capacity.
- ``service-churn``: the same service and phases at 4/s. A quarter of the
  requests run at equal split, the rest carry a fresh α, and every fifth
  open-loop request names a dataset seed not seen in the run, so
  prepares, pickles and new shm segments land on the request path.

End-to-end metrics (``--trace 0``; tracing and the live plane off):

- ``setup_s``: start to ready, median of three set-ups (imports, dataset
  generation, server start, pool fork, warm-up jobs that prepare every
  scenario; sim-sweep: the α=1 and α=0 points of each pair).
- ``throughput_per_s``: sim-sweep: frontier points per second of a
  typical pass, prepare included, where each prepare and each point
  takes its median time over the run's passes, after scaling that time
  to a reference host speed: a fixed pure-Python loop is timed just
  before each step, and the step's time is multiplied by ``CAL_REF_S``
  / loop time. The host this runs on (2 vCPUs of a shared machine)
  moves between spells of minutes in which everything runs up to half
  as fast again; unscaled, a set of ten runs straddling such spells
  spread by 0.33 to 0.42 of the median, scaled by 0.05 to 0.06. The
  unscaled figure and the loop time are printed next to it. Service:
  burst jobs completed per second, summed over the bursts, each from
  its send time until its last job finished.
- ``mem_mb``: peak RSS of the process under test and its pool workers,
  plus the ``/dev/shm`` bytes the service holds, both read when the
  timed phases end and before the output checks run.

Printed but not bounded:

- ``job_p50_s`` / ``job_tail_s`` (service) and ``point_p50_s`` /
  ``point_tail_s`` (sim-sweep): host seconds per request, a job from its
  scheduled send time to the server's finish, or one frontier point
  (plan, place, stage, run). The tail is the highest percentile with at
  least ten samples beyond it; failed or refused requests count as over
  any limit. On a 2-vCPU host with hypervisor steal, a lightly loaded
  service's latency moved by more than the largest bound a metric may
  carry between runs, so latency is reported, not gated.
- ``sweep_p50_s``, ``sim_makespan_s``, ``sim_dirty_kj``: the median pass
  and the simulated outcome of the first pass's α=1 and α=0 plans, which
  must repeat exactly in the warm-up pass on the same seed.
- ``error_rate``, ``shm_mb``, ``peak_rss_mb``, the offered rate and how
  late the load generator ran. ``--trace 1`` runs the same phases twice, untraced and then
traced, and reports the per-layer metrics; ``host`` marks host time and
``sim`` simulated time in the printed lines.

The benchmark sets no ``REPRO_*`` variable and writes no file.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import pathlib
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse

ROOT = pathlib.Path(__file__).resolve().parents[1]
SUT = ROOT / "perfbench" / "sut.py"

SWEEP, REPEAT, CHURN = "sim-sweep", "service-repeat", "service-churn"
SETUPS = 3
#: Seconds after which a run gives up and stops the process under test.
RUN_DEADLINE_S = 170

#: Service deployment, as ``repro serve`` would run it on a 2-vCPU host.
SERVICE = {"workers": 2, "concurrency": 2, "queue_depth": 192}
SENDERS = 2
#: Offered load, about a quarter of each mix's drain capacity, so that
#: latency tracks service time rather than queueing on a noisy host.
RATE_HZ = {REPEAT: 6.0, CHURN: 4.0}
#: Share of --seconds spent in the open-loop phase; bursts fill the rest.
LOAD_SHARE = 0.3
#: Requests in one drain burst, sized to fit the queue bound.
BURST = {REPEAT: 160, CHURN: 128}
#: Bursts a phase sends at least, however long they take.
MIN_BURSTS = 2
SUPPORT = 0.1
#: Reference time of the calibration loop (``sut.calibrate``): sim-sweep
#: throughput is reported as if every step ran at the host speed at
#: which the loop takes this long.
CAL_REF_S = 0.005
#: Dataset seed of every scenario the workloads share. --seed varies the
#: traffic (arrivals, order, α values, partitioner seeds and the churn
#: workload's new datasets) but not the scenario data, so the work a run
#: does is the same for every seed and spreads measure the program.
DATA_SEED = 0
#: (workload, dataset, size_scale) of the service mixes.
MIX = (
    ("apriori", "rcv1", 0.5),
    ("eclat", "rcv1", 0.5),
    ("webgraph", "uk", 0.5),
    ("lz77", "rcv1", 0.25),
)
CHURN_NEW_DATASET_EVERY = 5
CHURN_EQUAL_SPLIT_EVERY = 4

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "mem_mb": "MB",
}
#: Per-layer metrics: name -> (unit, clock). "host" is host time or a
#: count of host work; "sim" is derived from simulated node time.
LAYERS = {
    "stratify.sketch_s": ("s/op", "host"),
    "stratify.cluster_s": ("s/op", "host"),
    "heterogeneity.profile_s": ("s/op", "host"),
    "heterogeneity.probes": ("1/op", "host"),
    "optimizer.solve_s": ("s/op", "host"),
    "optimizer.solves": ("1/op", "host"),
    "optimizer.makespan_err": ("sim_ratio", "sim"),
    "optimizer.dirty_err": ("sim_ratio", "sim"),
    "plan.sim_makespan_s": ("sim_s", "sim"),
    "plan.sim_dirty_kj": ("sim_kJ", "sim"),
    "partitioner.place_s": ("s/op", "host"),
    "kvstore.stage_s": ("s/op", "host"),
    "kvstore.round_trips": ("1/op", "host"),
    "engines.run_job_s": ("s/op", "host"),
    "engines.run_job_self_s": ("s/op", "host"),
    "engines.nodes_used": ("count", "host"),
    "engines.worker_busy_frac": ("ratio", "host"),
    "dataplane.put_s": ("s/op", "host"),
    "dataplane.fetch_s": ("s/op", "host"),
    "dataplane.serializations": ("1/op", "host"),
    "dataplane.hit_ratio": ("ratio", "host"),
    "dataplane.segments": ("count", "host"),
    "dataplane.shared_mb": ("MB", "host"),
    **{
        f"workloads.run_s.{w}": ("s/op", "host")
        for w in ("apriori", "eclat", "treemining", "webgraph", "lz77")
    },
    **{
        f"kernels.dispatch.{kind}.{tier}": ("1/op", "host")
        for kind in ("minhash", "kmodes", "fpm", "lz77", "webgraph")
        for tier in ("reference", "numpy", "native")
        if (kind, tier) != ("webgraph", "native")
    },
    "service.submit_s": ("s", "host"),
    "service.queue_wait_s": ("s", "host"),
    "service.run_s": ("s", "host"),
    "service.peak_queue_depth": ("count", "host"),
    "service.rejected": ("count", "host"),
    "service.prepares": ("1/op", "host"),
    "service.prepare_s": ("s/op", "host"),
    "executor.lookup_wait_s": ("s/op", "host"),
    "loadgen.late_p99_s": ("s", "host"),
    "obs.overhead_frac": ("ratio", "host"),
    "trace.coverage": ("ratio", "host"),
}


class Child:
    """The process under test, spoken to in JSON lines."""

    def __init__(self, argv: list[str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(SUT), *argv],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def recv(self, timeout_s: float = 150.0) -> dict:
        try:
            line = self._lines.get(timeout=timeout_s)
        except queue.Empty:
            raise TimeoutError("the process under test stopped answering") from None
        if line is None:
            raise RuntimeError("the process under test exited")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    def call(self, cmd: str, timeout_s: float = 150.0, **args) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        return self.recv(timeout_s)

    def tree(self) -> list[int]:
        """Pids of the process under test and all its descendants."""
        pids, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as fh:
                        todo.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
        return pids

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def close(self) -> None:
        """Ask the process under test to shut down and wait for it."""
        self.call("quit", timeout_s=60.0)
        self.proc.wait(timeout=30.0)

    def kill(self) -> None:
        """Stop the process under test without draining it, then reap
        its descendants. SIGTERM lets it unlink its shared memory; pool
        workers exit once their parent is gone, and stragglers are
        killed after a grace period."""
        descendants = self.tree()[1:]
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30.0)
        deadline = time.monotonic() + 5.0
        while descendants and time.monotonic() < deadline:
            descendants = [p for p in descendants if os.path.exists(f"/proc/{p}")]
            time.sleep(0.05)
        for pid in descendants:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                continue


def memory_mb(child: Child, service: bool) -> tuple[float, float]:
    """Peak RSS of the process tree and the ``/dev/shm`` MB the service
    holds, read as soon as the timed phases end: the output checks run
    reference kernels in the process under test and would otherwise set
    its high-water mark."""
    rss_mb = child.peak_rss_mb()
    shm_mb = child.call("dataplane")["shm_bytes"] / 1e6 if service else 0.0
    return rss_mb, shm_mb


def tail_index(n: int) -> int:
    """Index (into sorted samples) of the highest percentile with at
    least ten samples beyond it."""
    if n < 11:
        raise ValueError(f"{n} samples cannot give a tail with ten beyond it")
    return n - 11


def p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]


# -- sim-sweep ---------------------------------------------------------------


def run_sweep(child: Child, seconds: float, trace: bool) -> dict:
    if not trace:
        passes = child.call("run", seconds=seconds)["passes"]
        layers = {}
    else:
        plain = child.call("run", seconds=seconds / 2)["passes"]
        child.call("trace_on")
        passes = child.call("run", seconds=seconds / 2)["passes"]
    rss_mb, _ = memory_mb(child, service=False)

    def scaled_pass_s(p: dict) -> float:
        """A pass's host time at the reference host speed."""
        return sum(t * CAL_REF_S / c for t, c in zip(p["step_s"], p["cal_s"]))

    if trace:
        layers = child.call("layers", passes=passes)["layers"]
        # Scaled, so a change of host speed between the two halves does
        # not read as tracing overhead.
        layers["obs.overhead_frac"] = (
            statistics.median(map(scaled_pass_s, passes))
            / statistics.median(map(scaled_pass_s, plain))
            - 1.0
        )
    checks = child.call("check", timeout_s=170.0)
    dispatches = checks["dispatches"]
    points = sorted(t for p in passes for t in p["point_s"])
    problems = checks["problems"]
    makespan, dirty = checks["first_outcome"]
    pass_s = statistics.median(p["pass_s"] for p in passes)
    # A typical pass, step by step: each prepare and each point at its
    # median over the run's passes, so a slow spell of the host costs
    # the few steps it hit, not a whole pass. The gated figure first
    # scales each step to the reference host speed by the calibration
    # loop timed just before it.
    def typical_s(scaled: bool) -> float:
        steps = [
            [t * CAL_REF_S / c if scaled else t for t, c in zip(p["step_s"], p["cal_s"])]
            for p in passes
        ]
        return sum(statistics.median(column) for column in zip(*steps))

    per_pass = len(passes[0]["point_s"])
    calibration_s = statistics.median(c for p in passes for c in p["cal_s"])
    n = len(points)
    failed = sum(problems.values())
    return {
        "attempted": n,
        "failed": failed,
        "problems": problems,
        "e2e": {"throughput_per_s": per_pass / typical_s(scaled=True)},
        "rss_mb": rss_mb,
        "shown": [
            ("points_per_s_unscaled", per_pass / typical_s(scaled=False), "1/s", "host"),
            ("calibration_ms", 1e3 * calibration_s, "ms", "host"),
            ("point_p50_s", statistics.median(points), "s", "host"),
            ("point_tail_s", points[tail_index(n)], "s", "host"),
            ("sweep_p50_s", pass_s, "s", "host"),
            ("sweep_passes", len(passes), "count", "host"),
            ("sim_makespan_s", makespan, "s", "sim"),
            ("sim_dirty_kj", dirty, "kJ", "sim"),
            ("point_tail_pct", 100.0 * (tail_index(n) + 1) / n, "%", "host"),
            ("point_samples", n, "count", "host"),
            ("error_rate", failed / n, "ratio", "host"),
        ],
        "layers": layers,
        "dispatches": dispatches,
    }


# -- service -----------------------------------------------------------------


def job_spec(workload: str, dataset: str, scale: float, alpha, seed: int) -> dict:
    return {
        "workload": workload,
        "dataset": dataset,
        "support": SUPPORT,
        "alpha": alpha,
        "size_scale": scale,
        "seed": seed,
        "tenant": workload,
    }


def repeat_kinds() -> list[dict]:
    """The repeat mix, one share per kind: every workload at equal split
    (α None) and at α=1. It is also the warm-up set."""
    return [
        job_spec(workload, dataset, scale, alpha, DATA_SEED)
        for workload, dataset, scale in MIX
        for alpha in (None, 1.0)
    ]


class SpecSource:
    """Seeded request mixes with a fixed composition per phase."""

    def __init__(self, seed: int, churn: bool):
        self.churn = churn
        self.rng = random.Random(seed)
        self.next_dataset_seed = DATA_SEED + 1 + 1000 * seed
        self.new_datasets = 0

    def take(self, n: int, new_datasets: bool = True) -> list[dict]:
        if not self.churn:
            kinds = repeat_kinds()
            specs = [dict(kinds[i % len(kinds)]) for i in range(n)]
            self.rng.shuffle(specs)
            return specs
        # Fresh α values spread evenly over [0, 1): one jittered grid
        # point each, so every phase sees the same range of plans.
        alphas = [(k + self.rng.random()) / n for k in range(n)]
        self.rng.shuffle(alphas)
        specs = []
        for i, alpha in enumerate(alphas):
            workload, dataset, scale = MIX[i % len(MIX)]
            if (i // len(MIX)) % CHURN_EQUAL_SPLIT_EVERY == 0:
                alpha = None
            specs.append(job_spec(workload, dataset, scale, alpha, DATA_SEED))
        self.rng.shuffle(specs)
        if not new_datasets:
            return specs
        # New datasets at evenly spaced positions, cycling through the
        # workloads, so they neither bunch up nor favour one workload.
        for i in range(CHURN_NEW_DATASET_EVERY // 2, n, CHURN_NEW_DATASET_EVERY):
            workload, dataset, scale = MIX[self.new_datasets % len(MIX)]
            self.new_datasets += 1
            specs[i] = job_spec(workload, dataset, scale, None, self.next_dataset_seed)
            self.next_dataset_seed += 1
        return specs


def post_json(conn: http.client.HTTPConnection, path: str, payload: dict) -> tuple[int, dict]:
    conn.request("POST", path, body=json.dumps(payload), headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read() or b"{}")


def send_all(url: str, plan: list[tuple[float, dict]]) -> list[dict]:
    """Send each spec at its due time (monotonic clock) from SENDERS
    threads, each over one keep-alive connection."""
    where = urllib.parse.urlsplit(url)
    answers: list[dict | None] = [None] * len(plan)
    cursor = iter(range(len(plan)))
    lock = threading.Lock()

    def sender() -> None:
        conn = http.client.HTTPConnection(where.hostname, where.port, timeout=30)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due, spec = plan[i]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                try:
                    status, body = post_json(conn, "/v1/jobs", spec)
                except (OSError, http.client.HTTPException, ValueError):
                    conn.close()
                    status, body = 0, {}
                answers[i] = {
                    "due": due, "sent": sent, "answered": time.monotonic(),
                    "status": status, "job_id": body.get("job_id"), "spec": spec,
                }
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    return [a or {"due": d, "sent": d, "answered": d, "status": 0, "job_id": None, "spec": spec}
            for a, (d, spec) in zip(answers, plan)]


def fetch_results(url: str, answers: list[dict]) -> dict[str, dict]:
    """Each accepted job's result, one connection per request: the server
    writes headers and body separately, so on a kept-alive connection
    every reply waits out the client's delayed ACK (about 40 ms)."""
    where = urllib.parse.urlsplit(url)
    results = {}
    for a in answers:
        if a["status"] == 202:
            conn = http.client.HTTPConnection(where.hostname, where.port, timeout=30)
            try:
                conn.request("GET", f"/v1/jobs/{a['job_id']}/result")
                results[a["job_id"]] = json.loads(conn.getresponse().read() or b"{}")
            finally:
                conn.close()
    return results


def service_phases(
    child: Child,
    url: str,
    source: SpecSource,
    rate_hz: float,
    burst_size: int,
    seconds: float,
    rng: random.Random,
) -> dict:
    """One open-loop phase, then bursts, each sent once the service is
    idle, while the next one is expected to end within ``seconds``; no
    polling while timed."""
    load_s = LOAD_SHARE * seconds
    n = max(11, round(rate_hz * load_s))
    gaps = [rng.expovariate(rate_hz) for _ in range(n)]
    scale = load_s / sum(gaps)
    t0 = time.monotonic() + 0.05
    dues, at = [], t0
    for gap in gaps:
        at += gap * scale
        dues.append(at)
    load = send_all(url, list(zip(dues, source.take(n))))
    child.call("idle")
    bursts = []
    last_s = 0.0
    while len(bursts) < MIN_BURSTS or time.monotonic() + last_s - t0 < seconds:
        b0 = time.monotonic()
        # Bursts name no new dataset: a prepare holds the executor lock
        # and stalls every other job, so drain time would mostly time how
        # many prepares a burst drew (measured spread 0.3 across seeds).
        specs = source.take(burst_size, new_datasets=False)
        bursts.append((b0, send_all(url, [(b0, spec) for spec in specs])))
        child.call("idle")
        last_s = time.monotonic() - b0
    wall_s = time.monotonic() - t0
    burst = [a for _, answers in bursts for a in answers]
    results = fetch_results(url, load + burst)
    return {"load": load, "burst": burst, "bursts": bursts, "results": results,
            "wall_s": wall_s}


def latencies(answers: list[dict], results: dict, jobs: dict, limit: float) -> list[float]:
    """Due time to server finish; failures and refusals read as ``limit``."""
    out = []
    for a in answers:
        final = results.get(a["job_id"], {})
        job = jobs.get(a["job_id"], {})
        if a["status"] == 202 and final.get("state") == "SUCCEEDED" and "finished" in job:
            out.append(job["finished"] - a["due"])
        else:
            out.append(limit)
    return sorted(out)


def run_service(child: Child, url: str, seed: int, seconds: float, trace: bool, churn: bool) -> dict:
    source = SpecSource(seed, churn)
    workload = CHURN if churn else REPEAT
    rate_hz, burst_size = RATE_HZ[workload], BURST[workload]
    rng = random.Random(seed + 7919)
    if trace:
        plain = service_phases(child, url, source, rate_hz, burst_size, seconds / 2, rng)
        child.call("trace_on")
        phases = service_phases(child, url, source, rate_hz, burst_size, seconds / 2, rng)
    else:
        phases = service_phases(child, url, source, rate_hz, burst_size, seconds, rng)
    rss_mb, shm_mb = memory_mb(child, service=True)
    # Layers first: the output checks below run reference kernels in the
    # service process, which would add to its clocks and counters.
    layers = child.call("layers", traced_wall_s=phases["wall_s"])["layers"] if trace else {}
    report = child.call("report", timeout_s=170.0)
    jobs = report["jobs"]
    limit = phases["wall_s"]
    load, burst, results = phases["load"], phases["burst"], phases["results"]
    lat = latencies(load, results, jobs, limit)
    sent = load + burst
    # Every request of the run must be accepted, succeed and be captured;
    # whatever else happened to it is a problem, next to a wrong output.
    # Warm-up jobs are checked for their outputs.
    checked, checked_results = list(sent), dict(results)
    if trace:
        checked += plain["load"] + plain["burst"]
        checked_results.update(plain["results"])
    problems: dict[str, int] = {}
    checked_ids = {a["job_id"] for a in checked}
    for job_id, job in jobs.items():
        if job_id not in checked_ids:
            for problem in job.get("problems", []):
                problems[problem] = problems.get(problem, 0) + 1
    ok_ids = set()
    nodes: dict[str, int] = {}
    for a in checked:
        state = checked_results.get(a["job_id"], {}).get("state")
        job = jobs.get(a["job_id"], {})
        if a["status"] != 202:
            found = [f"request answered HTTP {a['status']}" if a["status"] else "request unanswered"]
        elif state != "SUCCEEDED":
            found = [f"job ended {state}"]
        elif "problems" not in job:
            found = ["succeeded job was not captured"]
        else:
            found = job["problems"]
            workload = a["spec"]["workload"]
            nodes[workload] = max(nodes.get(workload, 0), job["nodes"])
        for problem in found:
            problems[problem] = problems.get(problem, 0) + 1
        if not found:
            ok_ids.add(a["job_id"])
    for workload in sorted({a["spec"]["workload"] for a in checked}):
        if workload not in nodes:
            problems[f"no {workload} job was captured"] = 1
        elif nodes[workload] < 2:
            problems[f"every {workload} job ran on one node"] = 1
    drained, drain_s = 0, 0.0
    for b0, answers in phases["bursts"]:
        finishes = [jobs[a["job_id"]]["finished"] for a in answers if a["job_id"] in ok_ids]
        if finishes:
            drained += len(finishes)
            drain_s += max(finishes) - b0
    drain = drained / drain_s if drain_s else 0.0
    n = len(lat)
    if trace:
        finals = [results[a["job_id"]] for a in sent if a["job_id"] in results]
        layers.update({
            "service.submit_s": statistics.fmean(a["answered"] - a["sent"] for a in sent),
            "service.queue_wait_s": statistics.fmean(f.get("queue_wait_s") or 0.0 for f in finals),
            "service.run_s": statistics.fmean(f.get("run_s") or 0.0 for f in finals),
            "service.peak_queue_depth": report["stats"]["peak_queue_depth"],
            "service.rejected": sum(1 for a in sent if a["status"] == 429),
            "loadgen.late_p99_s": p99([a["sent"] - a["due"] for a in load]),
            "obs.overhead_frac": statistics.median(lat) / statistics.median(
                latencies(plain["load"], plain["results"], jobs, plain["wall_s"])
            ) - 1.0,
        })
    failed = len(checked) - len(ok_ids)
    return {
        "attempted": len(checked),
        "failed": failed,
        "problems": problems,
        "e2e": {"throughput_per_s": drain},
        "rss_mb": rss_mb,
        "shm_mb": shm_mb,
        "shown": [
            ("job_p50_s", statistics.median(lat), "s", "host"),
            ("job_tail_s", lat[tail_index(n)], "s", "host"),
            ("job_tail_pct", 100.0 * (tail_index(n) + 1) / n, "%", "host"),
            ("job_samples", n, "count", "host"),
            ("drain_jobs_s", drain, "jobs/s", "host"),
            ("shm_mb", shm_mb, "MB", "host"),
            ("error_rate", failed / len(checked), "ratio", "host"),
            ("offered_rate_hz", rate_hz, "1/s", "host"),
            ("loadgen_late_p99_s", p99([a["sent"] - a["due"] for a in load]), "s", "host"),
        ],
        "layers": layers,
        "dispatches": report["dispatches"],
    }


# -- command line --------------------------------------------------------------


def source_fingerprint() -> dict:
    """The git sha when the checkout has one, and always a digest of the
    program's sources (a benchmark checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = done.stdout.strip() or "unknown"
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _stop(signum, frame) -> None:
    raise SystemExit(f"stopped by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the Pareto pipeline.")
    parser.add_argument("--workload", required=True, choices=(SWEEP, REPEAT, CHURN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A stop request or the run's own deadline unwinds through the
    # finally below, which stops the process under test.
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGALRM, _stop)
    signal.alarm(RUN_DEADLINE_S)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == SWEEP:
        child_argv = ["sweep", str(args.seed), str(DATA_SEED)]
    else:
        child_argv = ["serve", json.dumps(dict(SERVICE, warm=repeat_kinds()))]
    setups = []
    child = None
    try:
        for i in range(SETUPS):
            t0 = time.monotonic()
            child = Child(child_argv)
            ready = child.recv()
            setups.append(time.monotonic() - t0)
            if i < SETUPS - 1:
                child.close()
        if args.workload == SWEEP:
            out = run_sweep(child, args.seconds, bool(args.trace))
        else:
            out = run_service(
                child, ready["url"], args.seed, args.seconds, bool(args.trace),
                churn=args.workload == CHURN,
            )
        child.close()
    finally:
        if child is not None and child.proc.poll() is None:
            child.kill()

    e2e = dict(out["e2e"], setup_s=statistics.median(setups))
    rss_mb = out["rss_mb"]
    e2e["mem_mb"] = rss_mb + out.get("shm_mb", 0.0)
    shown = [(k, v, E2E_UNITS[k], "host") for k, v in e2e.items()]
    shown += out["shown"] + [("peak_rss_mb", rss_mb, "MB", "host")]
    for name, value, unit, clock in shown:
        print(f"{args.workload:15} {name:28} {value:14.6f} {unit:8} {clock}")
    for problem, count in sorted(out["problems"].items()):
        print(f"CHECK FAILED ({count}x): {problem}")
    layers = {}
    if args.trace:
        layers = {name: float(out["layers"].get(name, 0.0)) for name in LAYERS}
        for name, value in layers.items():
            unit, clock = LAYERS[name]
            print(f"{args.workload:15} {name:34} {value:14.6f} {unit:9} {clock}")
    print(json.dumps({"fingerprint": dict(
        ready["fingerprint"], **source_fingerprint(), nproc=os.cpu_count(),
        kernel_dispatches=out["dispatches"],
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
    )}))
    correct = not out["problems"]
    metrics = (
        {k: {"value": v, "unit": LAYERS[k][0]} for k, v in layers.items()}
        if args.trace
        else {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    )
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
