"""Per-layer clocks for the traced benchmark run.

The traced run installs these wrappers around public calls into each
layer of the program (the program's own code is not edited). Each wrapper
adds its wall time to the layer's total and, when wrapped calls nest on
one thread (``Stratifier.stratify`` calls ``Stratifier.sketch``), charges
the inner call's time to the inner layer only, so self times sum to the
time spent under the outermost wrapper.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class LayerClock:
    """Accumulates total time, self time and call counts per layer name."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str | Callable[..., str],
    ) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``name`` may be a callable that receives the call's arguments and
        returns the layer name, for calls whose layer depends on their
        inputs (a scenario-cache hit versus a miss).
        """
        fn: Callable[..., Any] = owner.__dict__[attr]
        clock = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            stack = clock._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with clock._lock:
                    clock.total[label] += elapsed
                    clock.self_time[label] += elapsed - frame[0]
                    clock.calls[label] += 1

        setattr(owner, attr, timed)


def install_pipeline_clocks(clock: LayerClock, engine_cls: type) -> None:
    """Wrap the pipeline layers both workloads share."""
    from repro.cluster.engines import ExecutionEngine
    from repro.core.framework import ParetoPartitioner
    from repro.core.heterogeneity import ProgressiveSampler
    from repro.core.optimizer import ParetoOptimizer
    from repro.kvstore.client import ClusterClient
    from repro.stratify.stratifier import Stratifier

    clock.wrap(Stratifier, "sketch", "stratify.sketch")
    clock.wrap(Stratifier, "stratify", "stratify.cluster")
    clock.wrap(ProgressiveSampler, "profile", "heterogeneity.profile")
    clock.wrap(engine_cls, "profile_all_nodes", "heterogeneity.probe")
    clock.wrap(ParetoOptimizer, "solve", "optimizer.solve")
    clock.wrap(ParetoPartitioner, "place", "partitioner.place")
    clock.wrap(ClusterClient, "put_partition", "kvstore.stage")
    clock.wrap(ClusterClient, "get_partition", "kvstore.stage")
    clock.wrap(ExecutionEngine, "run_job", "engines.run_job")


def union_s(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered = 0.0
    last_end = float("-inf")
    for start, end in sorted(intervals):
        if end <= last_end:
            continue
        covered += end - max(start, last_end)
        last_end = end
    return covered


def span_end(span: dict) -> float:
    return span["start_s"] + span["duration_s"]
