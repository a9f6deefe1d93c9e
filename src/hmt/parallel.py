"""One ordered thread pool, for work whose results must not depend on scheduling.

ordered_map(fn, count, workers) returns [fn(0), ..., fn(count - 1)].  Item i
runs on worker i mod W, W = min(workers, count), and the results come back
in item order.  A caller that folds them in that order gets the same bits
for any W, provided fn(i) depends on i alone (each item on its own
counter-based stream).  Threads speed work up only where it releases the
GIL: numpy's Philox fills and array products do, and so does the LAPACK
`dsyev` call of hmt.spectra, which goes through ctypes; pure-Python
recursion, scipy.linalg.eigh and ARPACK's Lanczos iteration do not.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def ordered_map(fn: Callable[[int], T], count: int, workers: int) -> list[T]:
    """[fn(i) for i in range(count)], on min(workers, count) threads.

    One task per worker, not per item: worker j runs items j, j + W,
    j + 2W, ...  When an item raises, or the caller is interrupted while it
    waits, a shared stop flag ends every worker before its next item, and the
    exception of the first failing worker (in worker order) propagates.  At
    most W items are in flight at once.  With one worker, fn runs in the
    caller's thread and no pool starts.
    """
    workers = min(workers, count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor, wait

    results: list = [None] * count
    stop = threading.Event()

    def stripe(first: int) -> None:
        try:
            for i in range(first, count, workers):
                if stop.is_set():
                    return
                results[i] = fn(i)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        tasks = [pool.submit(stripe, first) for first in range(workers)]
        try:
            wait(tasks)
        finally:  # an interrupted caller stops the workers before the pool joins them
            stop.set()
    for task in tasks:
        task.result()
    return results
