"""Small shared helpers: vector coercion, exclusive products and the thread fan-out."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = ["as_vector", "lift_scalar", "exclusive_products"]


def as_vector(t, dim: int | None = None, name: str = "t") -> np.ndarray:
    """Coerce scalars/sequences to a finite 1-D float64 vector."""
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64)).ravel()
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite")
    if dim is not None and arr.size != dim:
        raise ShapeError(f"{name} has dimension {arr.size}, expected {dim}")
    return arr


def lift_scalar(value: float, dim: int, direction=None) -> np.ndarray:
    """Turn a scalar grid value into a vector of norm |value|.

    Grids are usually specified as magnitudes; for multivariate rows the
    magnitude is applied along ``direction`` (normalised; defaults to the
    diagonal (1, ..., 1)/sqrt(dim)).
    """
    if direction is None:
        direction = np.full(dim, 1.0 / np.sqrt(dim))
    else:
        direction = as_vector(direction, dim, name="direction")
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            raise ParameterError("direction must be nonzero")
        direction = direction / norm
    return float(value) * direction


def exclusive_products(values: np.ndarray) -> np.ndarray:
    """For each k along the last axis, the product of all other entries.

    Computed with prefix/suffix cumulative products, so zeros are handled
    exactly (no division): the prefix products of all but the last entry
    and the suffix products of all but the first, each written by cumprod
    into its place in an empty buffer, then multiplied in place.
    """
    prefix, suffix = np.empty_like(values), np.empty_like(values)
    if values.shape[-1]:
        prefix[..., 0] = suffix[..., -1] = 1
        np.cumprod(values[..., :-1], axis=-1, out=prefix[..., 1:])
        np.cumprod(values[..., :0:-1], axis=-1, out=suffix[..., -2::-1])
    prefix *= suffix
    return prefix


def _cores() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one (it honours taskset and cpusets, not a CPU-time quota),
    else the host's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(jobs: int) -> int:
    """Threads for ``jobs`` independent jobs: min(cores, jobs), at least 1."""
    return max(1, min(_cores(), jobs))


def _fan_out(work, jobs) -> list:
    """[work(job) for job in jobs], on ``_thread_count(len(jobs))`` threads.

    One thread runs a plain loop.  Otherwise the calling thread claims the
    first job, starts ``threads - 1`` pool workers and works beside them,
    so the memory its earlier work freed serves its own jobs; each thread
    then claims the next job index under a lock until none is left or a
    job has raised.  Its callers are the identity's rays of t
    (``bounds.decomposition_check``) and the sampler's blocks
    (``charfn.sample_row_sums``), and no job of either starts another
    fan-out.  Results come back in job order, and the exception of the
    earliest job that raised is raised here.
    """
    jobs = list(jobs)
    threads = _thread_count(len(jobs))
    if threads == 1:
        return [work(job) for job in jobs]
    results, errors = [None] * len(jobs), {}
    lock, order = threading.Lock(), iter(range(len(jobs)))

    def claim() -> int | None:
        with lock:
            return None if errors else next(order, None)

    def take(i: int | None) -> None:
        while i is not None:
            try:
                results[i] = work(jobs[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc
            i = claim()

    first = claim()
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        workers = [pool.submit(lambda: take(claim())) for _ in range(threads - 1)]
        take(first)
    for worker in workers:
        worker.result()
    if errors:
        raise errors[min(errors)]
    return results
