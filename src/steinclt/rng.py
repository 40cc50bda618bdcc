"""Deterministic random streams.

Sampling is keyed by a (seed, stream) pair: the stream is the spawn key
of a ``SeedSequence`` of the seed, and that sequence seeds a PCG64DXSM
generator, so distinct streams are statistically independent and every
draw sequence is reproducible bit for bit regardless of how work is
scheduled.  ``Generator.random`` takes one 64-bit output per double, so
``bit_generator.advance(delta)`` is an exact seek of delta uniforms
without drawing them; that is how the sampler draws blocks of one stream
on separate threads, in any order.
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
        """Fresh generator for this (seed, stream), at uniform 0 of the stream."""
        seq = np.random.SeedSequence(int(self.seed), spawn_key=(int(self.stream),))
        return np.random.Generator(np.random.PCG64DXSM(seq))
