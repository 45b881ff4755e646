"""The worker count, the one helper pool that runs blocked loops, and chunk seeding.

The LONGRATE_THREADS environment variable, the only worker setting,
gives the worker count (default: the CPUs the process may use).  Every
blocked loop of the package runs through ``_in_blocks``: the Monte
Carlo path chunks, kernel combinations, terminal draws and audit
reductions, and the aggregation module's horizon blocks of a discrete
mixture and chunks of calamity draws.  Blocks depend only on the size
of the request and each writes its own slice of the output, and a
chunk of random draws takes its generator from ``_chunk_rng``, seeded
by (seed, key, chunk index) alone, so the worker count never changes a
result.

``_in_blocks`` runs the first share of blocks on the calling thread and
the others on helper threads kept for the life of the process: their
pool is made on first use, grows to the largest count asked and never
shrinks, is dropped in a child made by fork, and a call made from a
helper runs serially on it, so nested calls cannot deadlock.  Helpers
run in copies of the caller's context, so one ``np.errstate`` (a context
variable) around a call covers all its blocks.
"""

from __future__ import annotations

import os
import threading
from contextvars import copy_context
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:  # imported with the first pool, so a process that never needs one skips it
    from concurrent.futures import ThreadPoolExecutor

__all__ = ["worker_count"]


def worker_count() -> int:
    """Block workers: LONGRATE_THREADS (at least 1), else the usable CPUs.

    The usable CPUs are those the process may run on (``os.cpu_count()``
    where the platform cannot tell).  The count never changes a result.
    """
    text = os.environ.get("LONGRATE_THREADS", "").strip()
    if not text:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return max(1, int(text))
    except ValueError:
        raise DomainError(f"LONGRATE_THREADS must be an integer, got {text!r}") from None


# One pool of helper threads serves every _in_blocks call in the process.
# It is made on the first call that needs a helper, replaced (under the
# lock) only by a larger one, and dropped in a forked child, which has no
# threads but the one that forked.
_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_helpers = 0
_on_helper = threading.local()


def _mark_helper() -> None:
    _on_helper.flag = True


def _drop_pool() -> None:
    global _pool_lock, _pool, _pool_helpers
    _pool_lock, _pool, _pool_helpers = threading.Lock(), None, 0


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_drop_pool)


def _submit(run: Callable, shares: list) -> list:
    """Submit ``run(share)`` for each share, in a copy of the caller's context,
    to the helper pool, grown to one helper per share."""
    global _pool, _pool_helpers
    from concurrent.futures import ThreadPoolExecutor

    with _pool_lock:
        if _pool_helpers < len(shares):
            if _pool is not None:
                _pool.shutdown(wait=False)  # its queued shares still run
            _pool = ThreadPoolExecutor(len(shares), "longrate-helper", _mark_helper)
            _pool_helpers = len(shares)
        return [_pool.submit(copy_context().run, run, share) for share in shares]


def _in_blocks(total: int, size: int, task: Callable, scratch: Callable = lambda: None) -> None:
    """Call ``task(start, stop, buffers)`` on each ``size``-long block of range(total).

    Up to worker_count() workers run, never more than there are blocks.
    Worker w runs blocks w, w + W, w + 2W, ... as one share, passing every
    block the one buffer set ``scratch()`` made for it.  The calling
    thread runs share 0; shares 1 to W - 1 go to the process's persistent
    helper threads, whose pool grows to the largest count asked and never
    shrinks.  A call made from inside a helper runs all its blocks there,
    serially, so nested calls cannot deadlock.  Every block runs under the
    caller's numpy error state.  Every share finishes before the first
    error (in share order) is re-raised.  Blocks must write disjoint
    outputs, so no result depends on the schedule.
    """
    starts = range(0, total, size)
    workers = min(worker_count(), len(starts))

    def run(share):
        buffers = scratch()
        for start in share:
            task(start, min(start + size, total), buffers)

    if workers <= 1 or getattr(_on_helper, "flag", False):
        run(starts)
        return
    from concurrent.futures import wait

    helpers = _submit(run, [starts[w::workers] for w in range(1, workers)])
    try:
        run(starts[::workers])
    finally:
        wait(helpers)
    for done in helpers:
        done.result()


def _check_seed(seed: int) -> int:
    """A seed as SeedSequence entropy, which must be nonnegative."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed!r}")
    return int(seed)


def _chunk_rng(seed: int, key: tuple[int, ...], chunk: int) -> np.random.Generator:
    """The generator of one fixed-size chunk of draws, seeded by (seed, key, chunk)
    alone, so no result depends on how chunks are scheduled across workers."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(*key, chunk)))
