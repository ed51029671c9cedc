"""Work split over processes forked for it, one per CPU this one may use.

run_ranges runs the first of its contiguous ranges in this process and each
other one in a child forked for it (fork is POSIX only). The work reaches a
child through the fork, never pickled, and the child sends its result back
through a pipe. Threads did not overlap on this work: numpy's cumsum in the
F0 tracker and a training step's per-node Python hold the interpreter lock.
While children run, numpy's OpenBLAS runs on one thread in every process:
two processes' helper threads spinning on 2 CPUs made fold training 1.8x
slower, and one process gained nothing from a second BLAS thread.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _blas_control():
    """(get, set) of OpenBLAS's thread count, numpy's wheel build or a system
    library, found among the libraries this process has mapped; else None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads() -> int | None:
    """Threads numpy's BLAS runs on; None where that cannot be controlled."""
    control = _blas_control()
    return None if control is None else control[0]()


def _child(send, work, lo: int, hi: int) -> None:
    """A forked worker: sends work(lo, hi), or the error it raised."""
    try:
        part = work(lo, hi)
    except Exception as exc:
        part = exc
    send.send(part)


def run_ranges(work, n: int, workers: int, name: str) -> list:
    """[work(lo, hi) for each of `workers` contiguous ranges of 0..n-1].

    A child cost ~9 ms to start, set up and join on 2 vCPUs. Errors are
    raised in range order; a child that dies is a RuntimeError naming `name`,
    its range and its exit code. Every child is joined, and this process's
    BLAS thread count restored, before this returns or raises.
    """
    bounds = [n * i // workers for i in range(workers + 1)]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    fork = multiprocessing.get_context("fork")
    control = _blas_control() if workers > 1 else None
    threads = control[0]() if control else None
    children = []
    try:
        if control:
            control[1](1)
        for lo, hi in ranges[1:]:
            recv, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_child, args=(send, work, lo, hi))
            child.start()
            send.close()
            children.append((child, recv))
        parts = [work(*ranges[0])]
        for (child, recv), (lo, hi) in zip(children, ranges[1:]):
            try:
                part = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"the {name} {lo}..{hi - 1} exited "
                                   f"with code {child.exitcode}") from None
            if isinstance(part, Exception):
                raise part
            parts.append(part)
    except BaseException:
        for child, _ in children:
            child.kill()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
        if control:
            control[1](threads)
    return parts
