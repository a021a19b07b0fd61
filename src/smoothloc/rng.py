"""Deterministic, splittable random-number seeding.

All randomness in the package flows through ``RngSeed``, a (seed, stream)
pair used as the key of numpy's counter-based Philox generator.  Two
properties matter:

* identical (seed, stream) -> bit-identical sample sequences, and
* distinct streams derived from one seed are independent, so per-trial
  work can be farmed out to threads in any order without changing any
  stream's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import PreconditionError

_UINT64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    # Finalizer from the splitmix64 generator; good avalanche, cheap.
    z = (z + 0x9E3779B97F4A7C15) & _UINT64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _UINT64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _UINT64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngSeed(ISeedSequence):
    """Root seed plus a stream index; both unsigned 64-bit.

    An ``RngSeed`` is a numpy seed sequence that supplies exactly one
    state, the Philox key, so ``Philox(rng_seed)`` skips the OS-entropy
    ``SeedSequence`` that ``Philox(key=...)`` builds and discards.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) <= _UINT64:
                raise PreconditionError(
                    f"{name} must be an integer in [0, 2^64), got {v!r}")
            object.__setattr__(self, name, int(v))

    def derive(self, *indices: int) -> "RngSeed":
        """Child seed for a sub-task (trial number, phase, ...).

        Mixing is injective enough in practice that distinct index
        tuples never collide across the stream space we use.  The child
        equals RngSeed(seed, stream) but skips the constructor's range
        checks: the seed is this one's, and a splitmix64 output is an
        unsigned 64-bit int by construction.
        """
        s = self.stream
        for ix in indices:
            if ix < 0:
                raise PreconditionError("derive indices must be non-negative")
            s = _splitmix64(s ^ _splitmix64(int(ix) + 1))
        child = object.__new__(RngSeed)
        object.__setattr__(child, "seed", self.seed)
        object.__setattr__(child, "stream", s)
        return child

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The Philox key: two uint64 words, the only request served.

        The key is the one ``Philox(key=[seed, stream])`` makes: numpy's
        cast of the list to uint64.  When exactly one of the two is
        >= 2^63, the list converts through float64, which rounds both
        words to 53 significant bits; 2^64 - 1 rounds out of range and
        casts with a RuntimeWarning.  Every stream, and every frozen
        result of the package, is drawn from these keys.
        """
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("RngSeed supplies only a Philox key: "
                             "2 words of uint64")
        return np.asarray([self.seed, self.stream]).astype(np.uint64)

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator, the same stream as
        ``Philox(key=[seed, stream])``; repeated calls restart it."""
        return np.random.Generator(np.random.Philox(self))
