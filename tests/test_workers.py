"""The worker pool's size, its BLAS threads, its errors and how it ends its
workers; tests/test_cli.py covers the pool under `gen`, `flow` and `train`."""

import multiprocessing
import os
import signal
import time

import pytest

from hhmon import workers
from hhmon.errors import DataError


def test_the_pool_has_one_worker_per_cpu_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert workers.count() == 3


def test_without_an_affinity_call_the_pool_counts_the_machine_cpus(monkeypatch):
    # macOS has no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert workers.count() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert workers.count() == 1


def test_an_idle_worker_that_misses_its_sigterm_still_ends(monkeypatch):
    # A SIGTERM that lands just before a worker's receive runs its handler
    # only once the receive returns; a worker that ignores SIGTERM stands in
    # for it, so only its pipe can end it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def work(job):
        if job == "deaf":
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            return None
        time.sleep(0.2)  # the deaf worker is waiting for a job by now
        raise DataError("failed")

    def stalled(*_):
        raise TimeoutError("the pool did not end its workers")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(10)
    try:
        with pytest.raises(DataError, match="failed"):
            workers.run(work, ["deaf", "failing"], str)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        for proc in multiprocessing.active_children():  # after a failure
            proc.kill()
    assert multiprocessing.active_children() == []


def test_the_workers_run_one_blas_thread_and_the_parents_count_is_restored(monkeypatch):
    blas = workers._blas_threads()
    if blas is None:
        pytest.skip("numpy does not run on OpenBLAS here")
    get, put = blas
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def failing(job):
        raise DataError("failed")

    before = get()
    try:
        put(2)
        seen = []
        workers.run(lambda job: get(), [0, 1, 2], str, lambda job, threads: seen.append(threads))
        assert seen == [1, 1, 1]
        assert get() == 2
        with pytest.raises(DataError, match="failed"):
            workers.run(failing, [0], str)
        assert get() == 2
    finally:
        put(before)


def test_of_the_jobs_that_fail_the_first_in_job_order_raises(monkeypatch):
    # job 0 fails last, after job 1 and job 2 have failed: a loop over the
    # jobs would have stopped at job 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

    def work(job):
        time.sleep(0.3 - 0.1 * job)
        raise DataError(f"job {job} failed")

    with pytest.raises(DataError, match="^job 0 failed$"):
        workers.run(work, [0, 1, 2], str)
    assert multiprocessing.active_children() == []
