"""Multi-process execution substrate for sharded interval pipelines.

:mod:`repro.experiments.sweep` fans out *whole experiments*; this module
fans out *one experiment's intervals* across fabric shards (see
:mod:`repro.ixp.shard`).  The moving parts:

* :func:`spawn_context` — the one multiprocessing context the repo uses.
  Spawn (not fork) everywhere: workers import a fresh interpreter, so
  results cannot depend on the parent's inherited state or on the
  platform's default start method.
* :class:`ShardWorkerPool` — ``W`` single-worker spawn executors with a
  fixed shard→worker mapping.  Shard runtimes are *stateful* (per-port
  token buckets, cumulative counters, cached delivery plans), so every
  chunk of a given shard must execute in the process that holds that
  shard's runtime; a shared multi-worker pool could migrate a shard
  between processes mid-run.  ``shard i`` always runs on
  ``worker i % W``, and single-worker executors execute their queue in
  FIFO order, which preserves interval order per shard.
* :func:`iter_shard_intervals` — the pipeline driver.  It streams a
  bounded window of interval chunks through the pool (so an hour-long
  trace never materialises at once), resolves the workers'
  :class:`~repro.traffic.sharedtable.SharedFlowTable` handles into
  zero-copy tables, and yields ``(interval_start, per-shard payloads)``
  in time order.  ``execution="serial"`` runs the *identical* per-shard
  runtimes in-process — the parity oracle: same shard decomposition,
  same merge order, no workers.

A shard runtime is any object with ``run_interval(interval_start,
interval) -> dict``; a payload's optional ``"table"`` entry (a
:class:`~repro.traffic.flowtable.FlowTable`) is the only part treated
specially — it travels through shared memory instead of pickle.  Bulky
read-only inputs can ride shared memory in the other direction too: the
city-scale runner hands every worker one
:class:`~repro.traffic.sharedtable.SharedMemberTable` handle, and each
shard runtime reads its members' columns from the mapped block instead
of unpickling the population per shard.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from collections import deque
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any

from ..traffic.flowtable import FlowTable
from ..traffic.sharedtable import SharedFlowTable
from .heap import frozen_heap

#: Chunks in flight per shard: the current chunk being consumed plus this
#: many queued/computing behind it.  Bounds shared-memory usage at
#: ``shards x window x chunk_intervals`` tables regardless of trace length.
WINDOW_CHUNKS = 2

#: Execution modes of :func:`iter_shard_intervals`.
EXECUTION_MODES = ("sharded", "serial")


def spawn_context() -> multiprocessing.context.BaseContext:
    """The explicit spawn start-method context every pool should pin.

    Relying on the platform default makes results
    start-method-dependent: fork inherits the parent's RNG and module
    state, spawn does not.  Pinning spawn keeps sweep and shard results
    identical across Linux/macOS/Windows.
    """
    return multiprocessing.get_context("spawn")


class ShardWorkerPool:
    """A pool of single-worker executors with sticky shard placement."""

    def __init__(self, workers: int, mp_context=None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        context = mp_context if mp_context is not None else spawn_context()
        self._executors = [
            ProcessPoolExecutor(max_workers=1, mp_context=context)
            for _ in range(workers)
        ]

    @property
    def worker_count(self) -> int:
        return len(self._executors)

    def submit(self, shard_index: int, fn: Callable, *args: Any) -> Future:
        """Queue ``fn(*args)`` on the worker that owns ``shard_index``."""
        return self._executors[shard_index % len(self._executors)].submit(fn, *args)

    def shutdown(self) -> None:
        for executor in self._executors:
            executor.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Worker-process cache of shard runtimes, keyed by (run token, shard).
#: A runtime carries all cross-interval state; the sticky placement in
#: :class:`ShardWorkerPool` guarantees every chunk of a shard lands in
#: the process holding its runtime.
_RUNTIMES: dict[tuple[int, int], Any] = {}

_run_tokens = itertools.count(1)


def _next_run_token() -> int:
    """A token distinguishing pipeline runs (new run = fresh runtimes)."""
    return (os.getpid() << 20) | (next(_run_tokens) & 0xFFFFF)


def _run_shard_chunk(
    factory: Callable[..., Any],
    factory_kwargs: Mapping[str, Any],
    run_token: int,
    shard_index: int,
    times: tuple[float, ...],
    interval: float,
) -> list[dict[str, Any]]:
    """Run one chunk of intervals on one shard's runtime (worker side).

    The first chunk of a run instantiates the runtime via ``factory``
    (a module-level callable, so it pickles by reference under spawn);
    later chunks reuse it.  The chunk's intervals run on a frozen heap
    (its runtimes are built by then).  Flow tables in the payloads are
    swapped for shared-memory handles with ownership transferred to the
    parent.
    """
    key = (run_token, shard_index)
    runtime = _RUNTIMES.get(key)
    if runtime is None:
        for stale in [k for k in _RUNTIMES if k[0] != run_token]:
            del _RUNTIMES[stale]
        runtime = factory(**dict(factory_kwargs))
        _RUNTIMES[key] = runtime
    payloads = []
    with frozen_heap():
        for interval_start in times:
            payload = runtime.run_interval(interval_start, interval)
            table = payload.get("table")
            if isinstance(table, FlowTable):
                payload["table"] = SharedFlowTable.from_table(table, transfer=True)
            payloads.append(payload)
    return payloads


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def iter_shard_intervals(
    factory: Callable[..., Any],
    shard_kwargs: Sequence[Mapping[str, Any]],
    times: Sequence[float],
    interval: float,
    execution: str = "sharded",
    workers: int = 4,
    chunk_intervals: int = 8,
    mp_context=None,
) -> Iterator[tuple[float, list[dict[str, Any]]]]:
    """Stream per-shard interval payloads in time order.

    Yields ``(interval_start, payloads)`` with one payload per shard, in
    shard order; any ``"table"`` entries arrive as ready-to-use
    :class:`FlowTable` views.  A yielded table is valid until the next
    iteration step (its shared-memory block is released when the
    consumer advances), which is exactly the streaming contract: consume
    an interval, move on, nothing accumulates.

    ``execution="serial"`` builds the same runtimes in-process and walks
    them sequentially — bit-for-bit the reference for the sharded mode,
    because both run identical runtime code over identical shard specs
    and identical per-shard seeds; workers only add concurrency.
    """
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"unknown execution mode {execution!r}; known: {', '.join(EXECUTION_MODES)}"
        )
    if chunk_intervals < 1:
        raise ValueError(f"chunk_intervals must be >= 1, got {chunk_intervals}")
    shard_count = len(shard_kwargs)
    if shard_count == 0:
        return
    times = list(times)
    if not times:
        return

    if execution == "serial":
        runtimes = [factory(**dict(kwargs)) for kwargs in shard_kwargs]
        # Released when the generator finishes or is closed.
        with frozen_heap():
            for interval_start in times:
                yield interval_start, [
                    runtime.run_interval(interval_start, interval)
                    for runtime in runtimes
                ]
        return

    chunks = [
        times[start : start + chunk_intervals]
        for start in range(0, len(times), chunk_intervals)
    ]
    run_token = _next_run_token()
    pool = ShardWorkerPool(workers=min(workers, shard_count), mp_context=mp_context)
    pending: list[deque] = [deque() for _ in range(shard_count)]
    next_chunk = [0] * shard_count

    def submit_next(shard_index: int) -> None:
        if next_chunk[shard_index] >= len(chunks):
            return
        chunk = chunks[next_chunk[shard_index]]
        next_chunk[shard_index] += 1
        pending[shard_index].append(
            pool.submit(
                shard_index,
                _run_shard_chunk,
                factory,
                dict(shard_kwargs[shard_index]),
                run_token,
                shard_index,
                tuple(chunk),
                interval,
            )
        )

    current_chunk: list[list[dict[str, Any]]] = []
    try:
        for _ in range(WINDOW_CHUNKS):
            for shard_index in range(shard_count):
                submit_next(shard_index)
        for chunk in chunks:
            chunk_payloads = [
                pending[shard_index].popleft().result()
                for shard_index in range(shard_count)
            ]
            current_chunk = chunk_payloads
            for shard_index in range(shard_count):
                submit_next(shard_index)
            for position, interval_start in enumerate(chunk):
                row = [
                    chunk_payloads[shard_index][position]
                    for shard_index in range(shard_count)
                ]
                handles = []
                for payload in row:
                    handle = payload.get("table")
                    if isinstance(handle, SharedFlowTable):
                        payload["table"] = handle.table()
                        handles.append(handle)
                try:
                    yield interval_start, row
                finally:
                    for handle in handles:
                        handle.release()
    finally:
        pool.shutdown()
        # Unlink any blocks that were produced but never consumed (early
        # exit or failure downstream): unyielded rows of the chunk being
        # walked, plus completed chunks still queued.
        leftovers: list[dict[str, Any]] = [
            payload for payloads in current_chunk for payload in payloads
        ]
        for queue in pending:
            for future in queue:
                if not future.done() or future.cancelled():
                    continue
                try:
                    leftovers.extend(future.result())
                except BaseException:
                    continue
        for payload in leftovers:
            handle = payload.get("table")
            if isinstance(handle, SharedFlowTable):
                handle.unlink()
