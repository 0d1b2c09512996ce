"""The scenario harness's worker fleet: pool, shipping, supervision.

:func:`repro.eval.harness.run_matrix` hands every parallel matrix to
:func:`supervised_map`, which runs its cells on one persistent worker
pool per process:

* **The pool** -- created on first use and reused across matrices
  until the worker count, the start method or the in-process victim
  layer changes; :func:`shutdown_worker_pool` retires it.
* **Victim shipping** -- under fork, workers inherit the parent's
  trained victims; under spawn, the same arrays ship once per pool
  through ``multiprocessing.shared_memory`` segments.
* **Supervision** -- cells dispatch asynchronously with per-attempt
  deadlines, worker deaths are attributed to the cell the worker
  announced, and a cell that keeps failing is quarantined as a
  structured error (see :class:`SupervisorConfig`).
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .. import obs
from ..nn import memo
from ..seeds import derive_seed
from .faults import FaultPlan

if TYPE_CHECKING:
    from .harness import Scenario, ScenarioResult

__all__ = ["SupervisorConfig", "shutdown_worker_pool", "supervised_map"]


def _scenario_worker(
    job: tuple[int, int, Scenario, int, str | None, int, Any],
) -> ScenarioResult:
    global _WORKER_MEMO_EPOCH
    # At call time: the harness imports this module, and a patched
    # ``harness.run_scenario`` must be the one that runs.
    from . import harness

    epoch, index, scenario, base_seed, profile_dir, attempt, faults = job
    if _WORKER_EVENTS is not None:
        try:
            # Announce (dispatch epoch, cell, attempt, pid) before any
            # real work: the supervisor uses this to attribute a worker
            # death to the cell it was running.
            _WORKER_EVENTS.put((epoch, index, attempt, os.getpid()))
        except Exception:  # noqa: BLE001 - announcements are best-effort
            pass
    if epoch != _WORKER_MEMO_EPOCH:
        # The cells of one matrix share clean-state work; a job from a
        # new matrix starts a fresh memo.
        memo.restart()
        _WORKER_MEMO_EPOCH = epoch
    if faults is not None:
        faults.inject(scenario.name, attempt)
    return harness.run_scenario(scenario, base_seed, profile_dir=profile_dir)


# ----------------------------------------------------------------------
# The persistent worker pool
# ----------------------------------------------------------------------
# One pool per process, reused across run_matrix invocations (benchmark
# recorders and the CLI run several matrices back to back; forking a
# fresh pool for each re-pays interpreter startup and page-table setup
# every time).  Under fork, workers inherit the parent's module-level
# state -- in particular the in-process victim-cache layer
# (repro.nn.cache), which is how prewarmed dataset/victim arrays ship
# to workers without being pickled into any scenario payload.  Under
# spawn (no inheritance), the same arrays ship once per pool through
# multiprocessing.shared_memory segments attached in the worker
# initializer.
_POOL_STATE: dict[str, Any] = {
    "pool": None,
    "method": None,
    "processes": 0,
    "generation": -1,
    "segments": [],
    "events": None,
}

_ATTACHED_SEGMENTS: list = []  # worker-side references, kept alive

#: Worker-side start-event queue, set by the pool initializer.
_WORKER_EVENTS: Any = None

#: Worker side: the dispatch epoch whose memo is active.
_WORKER_MEMO_EPOCH: int | None = None

#: Monotonic dispatch-epoch counter: one epoch per supervised matrix,
#: so stale start events from an earlier matrix on the same persistent
#: pool can never be attributed to a new in-flight cell.
_DISPATCH_EPOCHS = itertools.count()


def _export_shared_victims() -> tuple[list, list]:
    """Copy every in-process victim-cache entry into shared-memory
    segments; returns (manifest for the worker initializer, segments
    the parent must keep alive and eventually unlink)."""
    from multiprocessing import shared_memory

    from ..nn.cache import memory_cache_entries

    manifest = []
    segments = []
    for (directory, key), state in memory_cache_entries().items():
        for name, array in state.items():
            array = np.ascontiguousarray(array)
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes)
            )
            segment.buf[: array.nbytes] = array.tobytes()
            segments.append(segment)
            manifest.append(
                (directory, key, name, segment.name, array.shape, str(array.dtype))
            )
    return manifest, segments


def _attach_shared_victims(manifest: list, unregister: bool = True) -> None:
    """Worker initializer: rebuild the in-process victim-cache layer
    on top of the parent's shared-memory segments (zero copies).
    ``unregister=False`` is for in-process callers (tests), where the
    creating process's resource tracker still owns the segments."""
    from multiprocessing import shared_memory

    from ..nn.cache import memory_cache_put

    entries: dict[tuple[str, str], dict[str, np.ndarray]] = {}
    for directory, key, name, segment_name, shape, dtype in manifest:
        segment = shared_memory.SharedMemory(name=segment_name)
        _ATTACHED_SEGMENTS.append(segment)
        if unregister:
            try:
                # Attaching registers with the resource tracker on
                # 3.10-3.12, which would double-unlink when the parent
                # cleans up; the parent owns these segments.
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # noqa: BLE001 - tracker varies by version
                pass
        array: np.ndarray = np.ndarray(
            tuple(shape), dtype=np.dtype(dtype), buffer=segment.buf
        )
        entries.setdefault((directory, key), {})[name] = array
    for (directory, key), arrays in entries.items():
        memory_cache_put(directory, key, arrays)


def _pool_initializer(events: Any, manifest: list | None) -> None:
    """Worker initializer: install the start-event queue and, under
    spawn, attach the parent's shared-memory victim cache."""
    global _WORKER_EVENTS
    _WORKER_EVENTS = events
    if manifest is not None:
        _attach_shared_victims(manifest)


def _pool_pids(pool: Any) -> set[int]:
    """Live worker pids; empty for pool doubles without ``_pool``
    (which simply disables death detection for them)."""
    workers = getattr(pool, "_pool", None) or []
    return {proc.pid for proc in workers if proc.pid is not None}


def shutdown_worker_pool(force: bool = False) -> None:
    """Retire the persistent pool and release its shared memory.

    The healthy path (``force=False``) closes the pool and joins its
    workers, letting them exit cleanly; ``force=True`` terminates them
    -- for poisoned/hung pools and for process exit, where joining a
    wedged worker would hang forever.  Shared-memory segments are
    unlinked on both paths, including segments registered by a pool
    creation that failed partway (``pool`` is ``None`` but ``segments``
    is not empty).
    """
    pool = _POOL_STATE["pool"]
    if pool is not None:
        # A supervised matrix that lost workers leaves the crashed
        # attempts' apply_async entries in the pool's result cache;
        # close()+join() would then block forever in _handle_results
        # waiting for results no worker will ever produce.
        if getattr(pool, "_cache", None):
            force = True
        if force:
            pool.terminate()
        else:
            pool.close()
        pool.join()
    events = _POOL_STATE.get("events")
    if events is not None:
        try:
            events.close()
        except Exception:  # noqa: BLE001 - queue teardown is best-effort
            pass
    for segment in _POOL_STATE["segments"]:
        try:
            segment.close()
            segment.unlink()
        except OSError:
            pass
    _POOL_STATE.update(
        pool=None,
        method=None,
        processes=0,
        generation=-1,
        segments=[],
        events=None,
    )


atexit.register(shutdown_worker_pool, True)


def _acquire_pool(processes: int) -> tuple[Any, float]:
    """The persistent pool, (re)created as needed; returns
    ``(pool, startup_seconds)`` with startup 0.0 on reuse."""
    from ..nn.cache import memory_cache_generation

    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else "spawn"
    # Changes whenever the victim layer does, so a live pool whose
    # workers hold an older layer is recreated.
    generation = memory_cache_generation()
    state = _POOL_STATE
    if (
        state["pool"] is not None
        and state["method"] == method
        and state["processes"] == processes
        and state["generation"] == generation
    ):
        return state["pool"], 0.0
    shutdown_worker_pool(force=True)
    context = multiprocessing.get_context(method)
    started = time.perf_counter()
    # SimpleQueue, not Queue: its put() writes the pipe synchronously,
    # so a worker's start announcement is durable even when the worker
    # dies (os._exit) immediately afterwards -- Queue's feeder thread
    # would race the crash and could drop the event.
    events = context.SimpleQueue()
    if method == "fork":
        manifest: list | None = None
        segments: list = []
    else:
        manifest, segments = _export_shared_victims()
    # Segments and the event queue are registered *before* Pool() so a
    # creation failure still has them released by shutdown_worker_pool
    # instead of leaking kernel-backed shared memory.
    state.update(
        pool=None,
        method=None,
        processes=0,
        generation=-1,
        segments=segments,
        events=events,
    )
    pool = context.Pool(
        processes=processes,
        initializer=_pool_initializer,
        initargs=(events, manifest),
    )
    startup = time.perf_counter() - started
    state.update(
        pool=pool,
        method=method,
        processes=processes,
        generation=generation,
    )
    return pool, startup


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs for the supervised parallel dispatcher.

    A cell whose runner raised is not retried: a deterministic runner
    exception would raise again, and its structured error result is
    the useful artifact.

    Attributes:
        timeout_s: Per-attempt wall-clock deadline measured from
            dispatch.  A cell past its deadline is declared hung; the
            only way to reclaim a hung worker is to tear the pool down,
            so the pool is rebuilt and collateral in-flight cells are
            requeued without spending a retry.  ``None`` disables
            deadlines (a truly hung worker then blocks forever, as the
            old ``pool.map`` did).
        retries: How many *additional* attempts a cell gets after a
            counted failure (worker death, timeout, or a dispatch-layer
            error).  A cell that fails ``retries + 1`` times is
            quarantined.
        backoff_base_s: Base of the seeded exponential backoff between
            a cell's attempts; attempt ``k`` waits
            ``backoff_base_s * 2**(k-1) * (0.5 + u)`` with ``u`` drawn
            from ``derive_seed(f"retry:{name}", base_seed)``.
        poll_interval_s: Supervisor loop cadence.
    """

    timeout_s: float | None = None
    retries: int = 2
    backoff_base_s: float = 0.05
    poll_interval_s: float = 0.02

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")


@dataclass
class _Flight:
    """One in-flight cell attempt."""

    handle: Any
    attempt: int
    dispatched_at: float
    deadline: float | None
    pid: int | None = None


def supervised_map(
    scenarios: list[Scenario],
    base_seed: int,
    profile_dir: str | None,
    processes: int,
    config: SupervisorConfig,
    faults: FaultPlan | None,
    on_result: Callable[[ScenarioResult], None] | None,
) -> tuple[list[ScenarioResult], float, dict[str, list[str]]]:
    """Async dispatch with timeouts, bounded retries, and quarantine.

    Replaces the blocking ``pool.map``: cells are dispatched with
    ``apply_async`` (at most ``processes`` in flight, so per-attempt
    deadlines measured from dispatch are meaningful), worker deaths are
    attributed to the cell the worker announced via the start-event
    queue, and a persistently failing or hung cell becomes a structured
    quarantined :class:`~repro.eval.harness.ScenarioResult` instead of
    poisoning the pool.  Returns ``(results, pool_startup_s,
    attempt_log)``; results keep scenario order regardless of
    completion order.
    """
    from .harness import ScenarioResult

    pool, startup_s = _acquire_pool(processes)
    events = _POOL_STATE.get("events")
    epoch = next(_DISPATCH_EPOCHS)
    total = len(scenarios)
    results: list[ScenarioResult | None] = [None] * total
    attempt_log: dict[str, list[str]] = {}
    failures = [0] * total
    backoff_rngs: dict[int, np.random.Generator] = {}
    pending: list[tuple[int, float]] = [(index, 0.0) for index in range(total)]
    inflight: dict[int, _Flight] = {}
    known_pids = _pool_pids(pool)
    # Every worker pid ever seen dead this matrix.  The instantaneous
    # known-vs-current diff alone loses a death that becomes visible
    # before the victim's start announcement has been drained: the pid
    # leaves the diff on the tick it is consumed, and the cell it was
    # running would sit unattributed until the timeout backstop.
    lost_pids: set[int] = set()

    def finalize(index: int, result: ScenarioResult) -> None:
        results[index] = result
        if on_result is not None:
            on_result(result)

    def backoff_delay(index: int) -> float:
        rng = backoff_rngs.get(index)
        if rng is None:
            rng = backoff_rngs[index] = np.random.default_rng(
                derive_seed(f"retry:{scenarios[index].name}", base_seed)
            )
        exponent = max(0, failures[index] - 1)
        return config.backoff_base_s * (2**exponent) * (0.5 + rng.random())

    def quarantine(index: int, elapsed_s: float) -> None:
        scenario = scenarios[index]
        outcomes = [
            outcome
            for outcome in attempt_log.get(scenario.name, [])
            if outcome != "aborted"
        ]
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("fleet.quarantines")
            tel.audit.emit("fleet-quarantine", cell=scenario.name)
        finalize(
            index,
            ScenarioResult(
                scenario.name,
                scenario.runner,
                scenario.resolved_seed(base_seed),
                elapsed_s,
                error=(
                    f"quarantined after {len(outcomes)} attempt(s); "
                    f"outcomes: {', '.join(outcomes)}"
                ),
                attempts=tuple(outcomes),
                quarantined=True,
            ),
        )

    def fail_or_retry(
        index: int, flight: _Flight, outcome: str, counted: bool = True
    ) -> None:
        attempt_log.setdefault(scenarios[index].name, []).append(outcome)
        if counted:
            tel = obs.ACTIVE
            if tel is not None:
                tel.metrics.inc("fleet.retries")
            failures[index] += 1
            if failures[index] > config.retries:
                quarantine(index, time.monotonic() - flight.dispatched_at)
                return
            delay = backoff_delay(index)
        else:
            delay = 0.0
        pending.append((index, time.monotonic() + delay))

    while pending or inflight:
        now = time.monotonic()
        if pending and len(inflight) < processes:
            still_pending: list[tuple[int, float]] = []
            for index, not_before in sorted(pending, key=lambda p: p[1]):
                if not_before > now or len(inflight) >= processes:
                    still_pending.append((index, not_before))
                    continue
                job = (
                    epoch,
                    index,
                    scenarios[index],
                    base_seed,
                    profile_dir,
                    failures[index],
                    faults,
                )
                handle = pool.apply_async(_scenario_worker, (job,))
                dispatched = time.monotonic()
                inflight[index] = _Flight(
                    handle,
                    failures[index],
                    dispatched,
                    (
                        dispatched + config.timeout_s
                        if config.timeout_s is not None
                        else None
                    ),
                )
            pending = still_pending
        if events is not None:
            try:
                # Single reader: empty() going momentarily stale only
                # delays an event to the next poll tick.
                while not events.empty():
                    event_epoch, index, attempt, pid = events.get()
                    flight = inflight.get(index)
                    if (
                        event_epoch == epoch
                        and flight is not None
                        and flight.attempt == attempt
                    ):
                        flight.pid = pid
                        if pid in lost_pids and not flight.handle.ready():
                            # Late announcement from a worker whose
                            # death was already observed.
                            del inflight[index]
                            fail_or_retry(index, flight, "worker-lost")
            except OSError:
                pass
        for index in list(inflight):
            flight = inflight[index]
            if not flight.handle.ready():
                continue
            del inflight[index]
            try:
                result = flight.handle.get()
            except Exception as exc:  # noqa: BLE001 - dispatch-layer failure
                fail_or_retry(
                    index, flight, f"error: {type(exc).__name__}: {exc}"
                )
                continue
            finalize(index, result)
        current_pids = _pool_pids(pool)
        dead_pids = known_pids - current_pids
        known_pids = current_pids
        if dead_pids:
            lost_pids |= dead_pids
            for index in list(inflight):
                flight = inflight[index]
                if flight.pid in lost_pids and not flight.handle.ready():
                    del inflight[index]
                    fail_or_retry(index, flight, "worker-lost")
        if config.timeout_s is not None and inflight:
            now = time.monotonic()
            hung = [
                index
                for index, flight in inflight.items()
                if flight.deadline is not None and now > flight.deadline
            ]
            if hung:
                for index in hung:
                    fail_or_retry(index, inflight.pop(index), "timeout")
                # A hung worker cannot be reclaimed individually: tear
                # the whole pool down and requeue the collateral cells
                # without charging them an attempt.
                for index in list(inflight):
                    fail_or_retry(
                        index, inflight.pop(index), "aborted", counted=False
                    )
                shutdown_worker_pool(force=True)
                pool, rebuild_s = _acquire_pool(processes)
                tel = obs.ACTIVE
                if tel is not None:
                    tel.metrics.inc("fleet.pool_rebuilds")
                startup_s += rebuild_s
                events = _POOL_STATE.get("events")
                known_pids = _pool_pids(pool)
                # The fresh pool may reuse a retired pid.
                lost_pids -= known_pids
        if pending or inflight:
            time.sleep(config.poll_interval_s)
    final = [result for result in results if result is not None]
    assert len(final) == total  # every cell finalized exactly once
    return final, startup_s, attempt_log
