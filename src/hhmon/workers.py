"""The pool of forked worker processes that `gen`, `flow` and `train` run
their jobs in."""

from __future__ import annotations

import os
import sys

from .errors import HhmonError


def count() -> int:
    """Processes a pool runs: one per CPU this process may run on, or per
    CPU of the machine where the OS does not say (macOS has no affinity)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads():
    """The (get, set) thread-count calls of the OpenBLAS numpy runs its
    products on, or None where numpy runs on another BLAS or neither call
    is found.  numpy's extension module is linked against the library, so
    its handle resolves the library's symbols."""
    import ctypes

    import numpy as np

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):  # numpy < 2 has no _core
        return None
    # numpy's wheels bundle scipy-openblas; a system OpenBLAS has the plain
    # names.  Both calls take or return a C int, ctypes' default.
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        calls = [getattr(lib, f"{prefix}{op}_num_threads{suffix}", None) for op in ("get", "set")]
        if None not in calls:
            return calls
    return None


def _serve(conn, parent_ends, work) -> None:
    """Receive jobs through `conn` and send `work(job)` back for each.  An
    error is sent in place of its job's result and ends the worker.  The
    parent's ends of every worker's pipe, which the fork copied, are closed
    first, so once the parent has closed its end, or is gone, the next
    receive gets EOF, or the next send EPIPE, and the worker exits.  SIGINT is ignored (the parent
    handles Ctrl-C), and SIGTERM exits through Python, so that an artifact
    the job was publishing has its temp removed."""
    import signal  # here, not at the top: it adds about 1.3 ms to every import

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for end in parent_ends:
        end.close()
    try:
        while True:
            job = conn.recv()
            try:
                result = work(job)
            except Exception as exc:  # raised again in the parent
                conn.send(exc)
                return
            conn.send(result)
    except (EOFError, ConnectionError):  # the parent is done or gone
        pass


def _receive(conn, name: str):
    try:
        result = conn.recv()
    except EOFError:
        raise HhmonError(f"{name}: a worker process exited without sending its result") from None
    if isinstance(result, Exception):
        raise result
    return result


def run(work, jobs: list, name, done=None) -> None:
    """Run `work(job)` for every job in a pool of `count()` processes, and
    call `done(job, result)` here as each result comes in.

    The workers are forked (the `fork` context), so they run the code, and
    the kernel backend, this process loaded, and `work` need not pickle; a
    job and its result do.  Jobs are handed out in order, one at a time: a
    worker gets its next job as soon as it returns a result, so none waits
    for another, and results may come in out of order.  Each worker has one
    pipe, for its jobs and its results, and the results are read here in
    the main thread, from whichever pipe is ready
    (`multiprocessing.connection.wait`): a result thread, as in
    `concurrent.futures`, would unpickle them into a second malloc arena and
    raise the peak RSS.  A worker's error is raised here, and a worker that
    dies without a result raises an HhmonError that begins with `name(job)`.
    Once a job has failed no more are handed out, and the jobs before it
    that still run are waited for: of the jobs that fail, the first in job
    order raises, as it would in a loop over the jobs.  On return, error or
    interrupt the pipes are closed and the workers terminated, so none
    outlives the call; a worker whose parent was killed exits at its next
    receive or send.  Nothing is forked when there are no jobs.

    The workers run OpenBLAS at one thread: the count is set to 1 here
    before the fork, which copies it, and restored once the workers are
    gone.  Each worker at the machine's thread count made the pool slower
    than one process; set after the fork, in each worker, it was slower
    than set before it.
    """
    if not jobs:
        return
    import multiprocessing  # here, not at the top: it adds about 10 ms to every import
    from multiprocessing.connection import wait

    todo = list(enumerate(jobs))[::-1]
    running = {}  # pipe -> (index, job) of the job its worker runs
    failed = None  # (index, error) of the first job in order that failed so far

    def hand_out(conn):
        if todo and failed is None:
            running[conn] = todo.pop()
            conn.send(running[conn][1])

    fork = multiprocessing.get_context("fork")
    procs, conns = [], []
    blas = _blas_threads()
    threads = blas[0]() if blas else 0
    try:
        if blas:  # before the fork, which copies it: one BLAS thread per worker
            blas[1](1)
        for _ in range(min(count(), len(todo))):
            conn, child_end = fork.Pipe()
            conns.append(conn)
            procs.append(fork.Process(target=_serve, args=(child_end, conns, work), daemon=True))
            procs[-1].start()
            child_end.close()
            hand_out(conn)
        while running:
            for conn in wait(list(running)):
                k, job = running.pop(conn)
                try:
                    result = _receive(conn, name(job))
                except Exception as exc:  # raised below, once no earlier job runs
                    if failed is None or k < failed[0]:
                        failed = (k, exc)
                    continue
                hand_out(conn)
                if done is not None:
                    done(job, result)
            if failed is not None and all(k > failed[0] for k, _ in running.values()):
                raise failed[1]
    finally:
        # closed first, so that a worker waiting for a job gets EOF: a SIGTERM
        # that lands just before its receive runs no handler until it returns
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.terminate()  # harmless for a worker that has exited
            proc.join()
        if blas:
            blas[1](threads)
