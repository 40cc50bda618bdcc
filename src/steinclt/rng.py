"""Deterministic random streams.

Sampling is keyed by an (seed, stream) pair fed to a counter-based
Philox generator, so distinct streams are statistically independent and
every draw sequence is reproducible bit for bit regardless of how work
is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["RngSeed"]

_U64 = 2**64


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream) pair identifying one reproducible sample sequence."""

    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if not (0 <= int(value) < _U64):
                raise ParameterError(f"{name} must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this (seed, stream); counter starts at zero."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
