"""The worker pool's size and how it ends its workers; tests/test_cli.py
covers the pool under `gen` and `flow`."""

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
