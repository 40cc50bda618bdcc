"""Small shared helpers: vector coercion, exclusive products and the thread fan-out."""

from __future__ import annotations

import os
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
    exactly (no division).
    """
    prefix = np.ones_like(values)
    prefix[..., 1:] = np.cumprod(values[..., :-1], axis=-1)
    rev = values[..., ::-1]
    suffix_rev = np.ones_like(values)
    suffix_rev[..., 1:] = np.cumprod(rev[..., :-1], axis=-1)
    return prefix * suffix_rev[..., ::-1]


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

    One thread runs a plain loop.  Results come back in job order, and an
    exception raised by any job is raised here.
    """
    jobs = list(jobs)
    threads = _thread_count(len(jobs))
    if threads == 1:
        return [work(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, jobs))
