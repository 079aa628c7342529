"""Worker-pool tests: ordering, error propagation, lifecycle."""

import contextlib
import signal

import pytest

from repro.parallel.pool import (
    WorkerError,
    WorkerPool,
    fork_available,
    get_pool,
    shutdown_pools,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="worker pool requires the fork start method"
)

#: Module name the forked workers import these task functions from.
_HERE = __name__


def double(payload):
    return payload * 2


def fail(payload):
    raise RuntimeError(f"intentional failure on {payload!r}")


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail a hung pool call instead of hanging the suite (SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"pool call still blocked after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkerPool:
    def test_results_in_submission_order(self):
        pool = WorkerPool(2)
        try:
            calls = [(_HERE, "double", i) for i in range(20)]
            assert pool.run(calls) == [i * 2 for i in range(20)]
        finally:
            pool.shutdown()

    def test_worker_failure_raises_with_traceback(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(WorkerError, match="intentional failure"):
                pool.run([(_HERE, "fail", "boom")])
            # The pool survives a poisoned payload and keeps serving.
            assert pool.run([(_HERE, "double", 21)]) == [42]
        finally:
            pool.shutdown()

    def test_unpicklable_payload_raises_and_pool_survives(self):
        pool = WorkerPool(2)
        try:
            with deadline(30):
                with pytest.raises(WorkerError, match="(?i)pickl"):
                    pool.run([("json", "dumps", lambda: 0)])
                # Calls around the bad one still run; the pool keeps serving.
                with pytest.raises(WorkerError, match="could not be sent"):
                    pool.run([
                        (_HERE, "double", 1),
                        (_HERE, "double", lambda: 0),
                        (_HERE, "double", 3),
                    ])
                assert pool.run([(_HERE, "double", 21)]) == [42]
        finally:
            pool.shutdown()

    def test_unknown_task_raises(self):
        pool = WorkerPool(1)
        try:
            with pytest.raises(WorkerError):
                pool.run([(_HERE, "no_such_function", None)])
        finally:
            pool.shutdown()

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(0)


class TestGetPool:
    def test_pool_is_cached_per_worker_count(self):
        try:
            assert get_pool(2) is get_pool(2)
            assert get_pool(2) is not get_pool(3)
        finally:
            shutdown_pools()

    def test_dead_pool_is_rebuilt(self):
        try:
            pool = get_pool(2)
            pool.shutdown()
            rebuilt = get_pool(2)
            assert rebuilt is not pool
            assert rebuilt.run([(_HERE, "double", 5)]) == [10]
        finally:
            shutdown_pools()
