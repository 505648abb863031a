"""The sweep executor: independent points fanned out over worker processes.

Every point of a cache-size sweep — and most experiment loops — is an
independent, deterministic ``simulate(config, program)`` call, so they
parallelize trivially across a :class:`~concurrent.futures.ProcessPoolExecutor`
(processes, not threads: the simulator is pure Python and CPU-bound).

:func:`sweep_map` is the one pool loop, and the only place a pool is
built.  It keeps at most ``jobs`` points in flight, kills a worker whose
point overruns its timeout, retries failed points a bounded number of
times, respawns a broken pool, falls back to serial, and reports each
point through ``on_result`` as it completes.  The entry points are thin
policies over it:

* :func:`parallel_map` — ``[fn(item) for item in items]``: an item's own
  exception propagates unchanged, once;
* :func:`simulate_many` — sweep points against one program;
* :func:`repro.core.resilience.supervised_map` — per-point timeouts,
  retries and a fault ledger, for long sweeps.

Job-count resolution, in priority order: an explicit ``jobs`` argument
(the ``--jobs`` CLI flag), the ``REPRO_JOBS`` environment variable,
``os.cpu_count()``.  ``jobs=1`` is the serial path.  Only pool trouble —
workers that cannot be spawned, a function or item that cannot be
pickled, a broken pool — falls back to serial.  Results always come
back in submission order, so parallel runs are bit-identical to serial
ones.

The benchmark program is shipped to each worker once (pool initializer)
rather than once per point; workers then receive only the small
:class:`MachineConfig` per task.  Where workers are forked (Linux),
they also inherit the parent's in-process codegen caches.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from pickle import PicklingError
from typing import Callable, Iterable, Sequence, TypeVar

from ..asm.program import Program
from .config import MachineConfig
from .results import SimulationResult

__all__ = [
    "JOBS_ENV",
    "POOL_FAILURE_LIMIT",
    "parallel_map",
    "resolve_jobs",
    "simulate_many",
    "sweep_map",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: consecutive pool deaths (crash or hang) a supervised map tolerates
#: before it abandons worker processes and finishes serially
POOL_FAILURE_LIMIT = 4

#: exceptions from building or feeding a pool that mean "no usable
#: workers here" (sandboxes without fork or semaphores, a broken pool)
_POOL_ERRORS = (BrokenExecutor, OSError, ImportError, NotImplementedError)


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit arg > ``REPRO_JOBS`` > cpu count."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer {JOBS_ENV}={env!r}")
    return os.cpu_count() or 1


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if its workers are wedged.

    ``shutdown(wait=False)`` alone would leave a hung worker running
    forever; terminating the processes first (a CPython implementation
    detail, guarded accordingly) actually frees the machine.
    """
    try:
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
    except Exception:  # noqa: BLE001 — best effort on internals
        pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001
        pass


def _pickle_error(obj) -> Exception | None:
    """The exception pickling ``obj`` raises, or ``None`` if it pickles."""
    try:
        pickle.dumps(obj)
    except Exception as exc:  # noqa: BLE001 — any failure means it cannot travel
        return exc
    return None


def _cannot_travel(exc: BaseException, item) -> bool:
    """Did ``exc`` come from pickling the task rather than from ``fn``?

    pickle reports an unpicklable object as ``PicklingError``,
    ``AttributeError`` or ``TypeError`` depending on the object; the
    last two are also what a buggy ``fn`` raises, so they count as a
    pickling failure only when the item really does not pickle (``fn``
    itself is checked before any pool is built).
    """
    if isinstance(exc, PicklingError):
        return True
    return isinstance(exc, (AttributeError, TypeError)) and (
        _pickle_error(item) is not None
    )


class _GoSerial(Exception):
    """Internal: abandon the worker pool and finish the map serially."""


def sweep_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: int | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    on_result: Callable[[int, R], None] | None = None,
    report=None,
    labels: Sequence[str] | None = None,
    timeout: float | None = None,
    max_retries: int = 0,
    backoff: float = 0.0,
    no_retry: tuple[type[BaseException], ...] = (),
) -> tuple[list, dict[int, BaseException]]:
    """Map ``fn`` over ``items`` on up to ``jobs`` workers (the pool loop).

    Returns ``(values, failed)``: values in input order (``None`` where
    a point failed) and the failed points' final exceptions by index.
    ``on_result(index, value)`` fires as each point completes.

    Without a ``report`` the map is *unsupervised*: the first exception
    ``fn`` raises propagates unchanged, and pool trouble (no workers, an
    unpicklable task, a broken pool) warns and finishes the remaining
    points serially.

    With a :class:`~repro.core.resilience.FaultReport` the map is
    *supervised*, and every recovery is recorded in it against
    ``labels[index]``:

    * an exception from ``fn`` retries the point up to ``max_retries``
      times after a :func:`~repro.core.resilience.retry_backoff` delay
      (``no_retry`` types fail on the first attempt: deterministic
      outcomes gain nothing from a retry);
    * a worker crash respawns the pool and requeues every in-flight
      point, charging an attempt only to the points the crash hit;
    * a point running past ``timeout`` seconds is charged an attempt
      and its worker killed with the pool (a running task cannot be
      cancelled); other in-flight points are requeued for free;
    * after :data:`POOL_FAILURE_LIMIT` consecutive pool deaths without
      a completed point in between, the remaining points run serially
      in this process (where a timeout is unenforceable but every
      other recovery still applies).
    """
    items = list(items)
    count = len(items)
    if labels is None:
        labels = [str(index) for index in range(count)]
    results: dict[int, object] = {}
    failed: dict[int, BaseException] = {}
    attempts = [0] * count

    def settled(index: int) -> bool:
        return index in results or index in failed

    def deliver(index: int, value) -> None:
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    def charge(index: int, exc: BaseException, kind: str, detail: str) -> bool:
        """Record a failed attempt; True if the point may retry."""
        if report is None:
            raise exc  # unsupervised: the item's own error, unchanged, once
        attempts[index] += 1
        report.record(labels[index], kind, detail=detail, attempt=attempts[index])
        if not isinstance(exc, no_retry) and attempts[index] <= max_retries:
            return True
        failed[index] = exc
        report.record(
            labels[index],
            "gave_up",
            detail=f"{type(exc).__name__}: {exc}",
            attempt=attempts[index],
        )
        return False

    def retry_pause(index: int) -> None:
        if backoff:
            from .resilience import retry_backoff

            time.sleep(retry_backoff(backoff, attempts[index], labels[index]))

    def go_serial(reason: str) -> None:
        if report is None:
            warnings.warn(
                f"parallel execution unavailable ({reason}); "
                "falling back to serial"
            )
        else:
            report.record("pool", "serial_fallback", detail=reason)

    jobs = min(resolve_jobs(jobs), count)
    problem = _pickle_error(fn) if jobs > 1 else None
    if problem is not None:
        go_serial(f"{type(problem).__name__}: {problem}")
        jobs = 1
    if jobs > 1:
        pending: deque[int] = deque(range(count))
        in_flight: dict = {}  # future -> index
        deadlines: dict = {}  # future -> monotonic deadline
        pool: ProcessPoolExecutor | None = None
        pool_failures = 0

        def respawn(reason: str) -> None:
            """Kill the pool and requeue in-flight points, or go serial."""
            nonlocal pool, pool_failures
            for index in in_flight.values():
                if not settled(index) and index not in pending:
                    pending.append(index)
            in_flight.clear()
            deadlines.clear()
            if pool is not None:
                _kill_pool(pool)
                pool = None
            pool_failures += 1
            if report is None:
                go_serial(reason)
                raise _GoSerial
            if pool_failures >= POOL_FAILURE_LIMIT:
                go_serial(
                    f"{pool_failures} pool failures ({reason}); "
                    "finishing the sweep serially"
                )
                raise _GoSerial
            report.record(
                "pool", "pool_respawn", detail=reason, attempt=pool_failures
            )

        try:
            while pending or in_flight:
                if pool is None:
                    try:
                        pool = ProcessPoolExecutor(
                            max_workers=jobs,
                            initializer=initializer,
                            initargs=initargs,
                        )
                    except _POOL_ERRORS as exc:
                        go_serial(
                            f"cannot spawn workers ({type(exc).__name__}: {exc})"
                        )
                        raise _GoSerial from None
                # Keep at most `jobs` points in flight so submission
                # time approximates start time and per-point deadlines
                # mean what they say.
                while pending and len(in_flight) < jobs:
                    index = pending.popleft()
                    if settled(index):
                        continue
                    try:
                        future = pool.submit(fn, items[index])
                    except _POOL_ERRORS as exc:
                        pending.appendleft(index)
                        respawn(f"submit failed ({type(exc).__name__}: {exc})")
                        break
                    in_flight[future] = index
                    if timeout is not None:
                        deadlines[future] = time.monotonic() + timeout
                if not in_flight:
                    continue
                wait_for = None
                if deadlines:
                    wait_for = max(0.0, min(deadlines.values()) - time.monotonic())
                done, _ = wait(
                    set(in_flight), timeout=wait_for, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Deadline expiry: charge the overdue points, then
                    # kill the pool — a running task cannot be
                    # cancelled, and a wedged worker never returns.
                    now = time.monotonic()
                    expired = [
                        (future, index)
                        for future, index in in_flight.items()
                        if deadlines.get(future, now + 1) <= now
                    ]
                    if not expired:
                        continue  # spurious wakeup
                    for future, index in expired:
                        in_flight.pop(future)
                        deadlines.pop(future, None)
                        if charge(
                            index,
                            TimeoutError(f"no result after {timeout:g}s"),
                            "timeout",
                            f"point exceeded --timeout {timeout:g}s",
                        ):
                            pending.append(index)
                    respawn("hung worker killed after point timeout")
                    continue
                crash: BaseException | None = None
                for future in done:
                    index = in_flight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        value = future.result()
                    except BrokenExecutor as exc:
                        crash = exc
                        if report is not None and charge(
                            index,
                            exc,
                            "worker_crash",
                            f"worker died ({type(exc).__name__}: {exc})",
                        ):
                            pending.append(index)
                    except Exception as exc:  # noqa: BLE001 — per-point boundary
                        if _cannot_travel(exc, items[index]):
                            go_serial(f"{type(exc).__name__}: {exc}")
                            raise _GoSerial from None
                        if charge(
                            index, exc, "retry", f"{type(exc).__name__}: {exc}"
                        ):
                            retry_pause(index)
                            pending.append(index)
                    else:
                        deliver(index, value)
                        # Progress resets the failure budget: the limit
                        # guards against a pool that *cannot* make
                        # progress, not against many recoverable deaths
                        # spread across a long sweep.
                        pool_failures = 0
                if crash is not None:
                    respawn(
                        f"worker process died mid-point "
                        f"({type(crash).__name__}: {crash})"
                    )
        except _GoSerial:
            pass
        finally:
            if pool is not None:
                if in_flight:
                    _kill_pool(pool)
                else:
                    pool.shutdown()

    if len(results) + len(failed) < count:
        # The serial path: jobs=1, or whatever the pool left undone.
        if initializer is not None:
            initializer(*initargs)
        for index in range(count):
            while not settled(index):
                try:
                    value = fn(items[index])
                except Exception as exc:  # noqa: BLE001 — per-point boundary
                    if charge(index, exc, "retry", f"{type(exc).__name__}: {exc}"):
                        retry_pause(index)
                else:
                    deliver(index, value)
    return [results.get(index) for index in range(count)], failed


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> list[R]:
    """``[fn(item) for item in items]`` across worker processes.

    Deterministic: results are returned in input order regardless of
    completion order.  An exception raised by ``fn`` propagates
    unchanged, once; only pool trouble falls back to serial (see
    :func:`sweep_map`).
    """
    values, _failed = sweep_map(
        fn, items, jobs=jobs, initializer=initializer, initargs=initargs
    )
    return values


# ----------------------------------------------------------------------
# Simulation fan-out: the program lives in each worker, configs travel.
# ----------------------------------------------------------------------
_worker_program: Program | None = None


def _init_simulation_worker(program: Program) -> None:
    global _worker_program
    _worker_program = program


def _simulate_point(config: MachineConfig) -> SimulationResult:
    from .simulator import simulate

    assert _worker_program is not None, "worker initialized without a program"
    return simulate(config, _worker_program)


def simulate_many(
    program: Program,
    configs: Sequence[MachineConfig],
    jobs: int | None = None,
) -> list[SimulationResult]:
    """Simulate every config against ``program``, fanned out over workers.

    Results are returned in ``configs`` order and are bit-identical to
    running the same list serially.
    """
    return parallel_map(
        _simulate_point,
        configs,
        jobs=jobs,
        initializer=_init_simulation_worker,
        initargs=(program,),
    )
