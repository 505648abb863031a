"""The sweep executor: independent points fanned out over worker processes.

Every point of a cache-size sweep — and most experiment loops — is an
independent, deterministic ``simulate(config, program)`` call, so they
parallelize trivially across a :class:`~concurrent.futures.ProcessPoolExecutor`
(processes, not threads: the simulator is pure Python and CPU-bound).

:func:`sweep_map` is the one pool loop, and the only place a pool is
built.  It always runs under a :class:`~repro.core.resilience.FaultPolicy`:
it keeps at most ``jobs`` points in flight, kills a worker whose point
overruns its timeout, retries the points a crash or a timeout cost a
bounded number of times, respawns a broken pool, falls back to serial,
and reports each point through ``on_result`` as it completes.  On top
of it, :func:`parallel_map` is ``[fn(item) for item in items]`` that
raises one :class:`~repro.core.resilience.SweepPointError` naming every
failed item once all the others have settled, and
:func:`simulate_many` runs ``(program, config)`` points through it.  A
command makes one such call for all of its points
(:func:`repro.core.sweep.resolve_points`), so it builds one pool, and
when that pool keeps dying the serial fallback finishes the rest of the
command.

Job-count resolution, in priority order: an explicit ``jobs`` argument
(the ``--jobs`` CLI flag), the ``REPRO_JOBS`` environment variable,
``os.cpu_count()``.  ``jobs=1`` is the serial path.  Only pool trouble —
workers that cannot be spawned, a function or item that cannot be
pickled, a pool that keeps dying — falls back to serial.  Results always
come back in submission order, so parallel runs are bit-identical to
serial ones.

The distinct programs and the engine choice (``skip``) reach each
worker once, as the pool initializer's arguments; a task carries only a
program's slot and a small :class:`MachineConfig`.  Where workers are
forked (Linux), those arguments are not pickled at all: the workers
inherit the programs, with the issue streams the parent ran before the
fork, and the parent's in-process codegen caches.
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
from . import faults
from .config import MachineConfig
from .resilience import FaultPolicy, SweepPointError
from .results import SimulationResult
from .simcache import result_key

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

#: consecutive pool deaths (crash or hang) the pool loop tolerates
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
    labels: Sequence[str] | None = None,
    policy: FaultPolicy | None = None,
) -> tuple[list, dict[int, BaseException]]:
    """Map ``fn`` over ``items`` on up to ``jobs`` workers (the pool loop).

    Returns ``(values, failed)``: values in input order (``None`` where
    a point failed) and the failed points' final exceptions by index.
    ``on_result(index, value)`` fires once for each completed point; on
    a pool it fires after the idle workers have their next points, so
    a slow callback (a cache store) leaves no worker waiting.  The map
    runs under ``policy`` (``None``: a fresh :class:`FaultPolicy`), and
    every recovery is recorded in its report against ``labels[index]``:

    * an exception raised by ``fn`` fails its point on the first
      attempt — the points are deterministic, so a retry would raise
      it again;
    * a worker crash breaks the pool and every point in flight with
      it: each is charged an attempt and requeued on a respawned pool
      while it has retries left (``policy.max_retries``);
    * a point running past ``policy.timeout`` seconds is charged an
      attempt and its worker killed with the pool (a running task
      cannot be cancelled); other in-flight points are requeued for free;
    * pool trouble (no workers, an unpicklable task) and
      :data:`POOL_FAILURE_LIMIT` consecutive pool deaths without a
      completed point in between finish the remaining points serially
      in this process, where a timeout is unenforceable and no worker
      can crash.
    """
    if policy is None:
        policy = FaultPolicy()
    report = policy.report
    timeout = policy.timeout
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

    def charge(
        index: int, exc: BaseException, kind: str | None = None, detail: str = ""
    ) -> bool:
        """Charge a failed attempt; True if the point may retry.

        Only a crash or a timeout (``kind``) may retry.  An exception
        ``fn`` raised fails the point at once: it would raise again.
        """
        attempts[index] += 1
        if kind is not None:
            report.record(labels[index], kind, detail=detail, attempt=attempts[index])
            if attempts[index] <= policy.max_retries:
                return True
        failed[index] = exc
        report.record(
            labels[index],
            "gave_up",
            detail=f"{type(exc).__name__}: {exc}",
            attempt=attempts[index],
        )
        return False

    def go_serial(reason: str) -> None:
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
            if pool_failures >= POOL_FAILURE_LIMIT:
                go_serial(
                    f"{pool_failures} pool failures ({reason}); "
                    "finishing the sweep serially"
                )
                raise _GoSerial
            report.record(
                "pool", "pool_respawn", detail=reason, attempt=pool_failures
            )

        def refill() -> None:
            """Keep at most `jobs` points in flight, so submission time
            approximates start time and per-point deadlines mean what
            they say."""
            while pending and len(in_flight) < jobs:
                index = pending.popleft()
                if settled(index):
                    continue
                try:
                    future = pool.submit(fn, items[index])
                except _POOL_ERRORS as exc:
                    pending.appendleft(index)
                    respawn(f"submit failed ({type(exc).__name__}: {exc})")
                    return
                in_flight[future] = index
                if timeout is not None:
                    deadlines[future] = time.monotonic() + timeout

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
                refill()
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
                if any(isinstance(f.exception(), BrokenExecutor) for f in done):
                    # A dead worker breaks the pool, which fails every
                    # point in flight at once: collect them all, so each
                    # is charged however the wakeup raced the breakage.
                    done = wait(set(in_flight)).done
                crash: BaseException | None = None
                completed: list[int] = []
                try:
                    for future in done:
                        index = in_flight.pop(future)
                        deadlines.pop(future, None)
                        try:
                            value = future.result()
                        except BrokenExecutor as exc:
                            crash = exc
                            if charge(
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
                            charge(index, exc)
                        else:
                            results[index] = value
                            completed.append(index)
                            # Progress resets the failure budget: the
                            # limit guards against a pool that *cannot*
                            # make progress, not against many
                            # recoverable deaths spread across a long
                            # sweep.
                            pool_failures = 0
                    if crash is not None:
                        respawn(
                            f"worker process died mid-point "
                            f"({type(crash).__name__}: {crash})"
                        )
                    else:
                        # The workers get their next points before
                        # on_result (a cache store) runs for these.
                        refill()
                finally:
                    if on_result is not None:
                        for index in completed:
                            on_result(index, results[index])
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
            if settled(index):
                continue
            try:
                value = fn(items[index])
            except Exception as exc:  # noqa: BLE001 — per-point boundary
                charge(index, exc)
            else:
                deliver(index, value)
    return [results.get(index) for index in range(count)], failed


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    on_result: Callable[[int, R], None] | None = None,
    labels: Sequence[str] | None = None,
    policy: FaultPolicy | None = None,
) -> list[R]:
    """``[fn(item) for item in items]`` across worker processes.

    Deterministic: results are returned in input order regardless of
    completion order.  ``on_result(index, value)`` fires as each item
    completes.  The map runs under ``policy`` (see :func:`sweep_map`);
    once every item has settled, the items that failed are named by
    ``labels`` (default: their index) in one :class:`SweepPointError`.
    """
    items = list(items)
    if labels is None:
        labels = [str(index) for index in range(len(items))]
    values, failed = sweep_map(
        fn,
        items,
        jobs=jobs,
        initializer=initializer,
        initargs=initargs,
        on_result=on_result,
        labels=labels,
        policy=policy,
    )
    if failed:
        raise SweepPointError(
            [(labels[index], exc) for index, exc in sorted(failed.items())]
        )
    return values


# ----------------------------------------------------------------------
# Simulation fan-out: the programs live in each worker, configs travel.
# ----------------------------------------------------------------------
_worker_programs: tuple[Program, ...] = ()
_worker_skip = True


def _init_simulation_worker(programs: tuple[Program, ...], skip: bool) -> None:
    global _worker_programs, _worker_skip
    _worker_programs = programs
    _worker_skip = skip


def _simulate_point(task: tuple[int, MachineConfig]) -> SimulationResult:
    """Worker body: any armed fault injectors, then the point."""
    from .simulator import simulate  # late: the simulator is heavy

    slot, config = task
    program = _worker_programs[slot]
    if faults.active_plan() is not None:
        key = result_key(config, program)
        faults.maybe_kill_worker(key)
        faults.maybe_hang_point(key)
    return simulate(config, program, skip=_worker_skip)


def simulate_many(
    points: Sequence[tuple[Program, MachineConfig]],
    jobs: int | None = None,
    on_result: Callable[[int, SimulationResult], None] | None = None,
    policy: FaultPolicy | None = None,
    skip: bool = True,
) -> list[SimulationResult]:
    """Simulate every ``(program, config)`` point, fanned out over workers.

    Results are returned in ``points`` order and are bit-identical to
    running the same list serially; ``on_result(index, result)`` fires
    as each point completes.  ``skip=False`` runs the reference loop
    instead of the compiled engine.  The distinct programs and ``skip``
    reach the workers once, in the pool's initializer; a task is a
    program's slot and a config.  Each point is labelled by its
    machine, ``config.label()``, in ``policy``'s report and in the
    :class:`SweepPointError` raised once every point has settled.
    """
    programs = tuple({id(program): program for program, _ in points}.values())
    slots = {id(program): slot for slot, program in enumerate(programs)}
    return parallel_map(
        _simulate_point,
        [(slots[id(program)], config) for program, config in points],
        jobs=jobs,
        initializer=_init_simulation_worker,
        initargs=(programs, skip),
        on_result=on_result,
        labels=[config.label() for _program, config in points],
        policy=policy,
    )
