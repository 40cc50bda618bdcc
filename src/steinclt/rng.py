"""Deterministic random streams.

Sampling is keyed by an (seed, stream) pair fed to a counter-based
Philox generator, so distinct streams are statistically independent and
every draw sequence is reproducible bit for bit regardless of how work
is scheduled.  Philox makes uniform number i of a stream a function of
(key, i // 4) alone, so ``_seek`` can position a generator at any index
without drawing what comes before it; that is how the sampler draws
blocks of one stream on separate threads, in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["RngSeed"]

_U64 = 2**64
# Philox4x64 turns one 256-bit counter into four 64-bit words, one per uniform
_WORDS_PER_COUNTER = 4


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


def _seek(generator: np.random.Generator, at: int) -> None:
    """Position a Philox generator so that its next uniform is number ``at``.

    numpy's Philox steps its counter before filling its four-word buffer,
    so a counter of at // 4 with the buffer spent makes the next draw fill
    block at // 4; the at % 4 words ahead of ``at`` are then drawn and
    dropped.  ``generator.random`` takes one word per double, so after the
    call it returns the stream's uniforms at, at + 1, ... bit for bit.
    """
    block, skip = divmod(int(at), _WORDS_PER_COUNTER)
    state = generator.bit_generator.state
    state["state"]["counter"] = np.array(
        [(block >> (64 * i)) % _U64 for i in range(4)], dtype=np.uint64
    )
    state.update(buffer_pos=_WORDS_PER_COUNTER, has_uint32=0, uinteger=0)
    generator.bit_generator.state = state
    generator.random(skip)
