"""Seeded, stream-addressable random sources for reproducible experiments."""
from __future__ import annotations

import math

import numpy as np

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF

# No standard normal draw of a RandomSource is this large.  numpy's
# ziggurat returns |z| below its base-strip edge r = 3.6541528853610088,
# or r + x from the tail, where x = -log(u1) / r is accepted only if
# -2 log(u2) > x**2; a 53-bit uniform stays at least 2**-53 below 1, so
# -log(u) <= 53 log 2 and x < sqrt(106 log 2) = 8.572.  So |z| < 12.23.
NORMAL_BOUND = 13.0


def relative_draws_fit(mean: float, noise_frac: float) -> bool:
    """Whether every draw ``v + noise_frac * v * z`` of a value ``v`` in
    ``[0, mean]``, with a standard normal ``z``, is finite.  Rounding is
    monotone, so the draws are bounded by ``mean + noise_frac * mean *
    NORMAL_BOUND``, evaluated in that order, and below by its negation."""
    return math.isfinite(mean + noise_frac * mean * NORMAL_BOUND)


class RandomSource:
    """Deterministic random stream keyed by (seed, stream path).

    Two sources built with the same seed and path emit identical draw
    sequences regardless of what any other stream has consumed.  ``derive``
    returns an independent child stream for a fixed label path; ``split``
    consumes one draw from this stream to mint fresh children, so repeated
    splits of the same parent never collide.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()) -> None:
        self.seed = int(seed) & _UINT64_MASK
        self.path = tuple(int(p) for p in path)
        sequence = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(sequence))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self.path})"

    def derive(self, *labels: int) -> "RandomSource":
        """Independent child stream at a fixed label path (pure)."""
        return RandomSource(self.seed, self.path + tuple(labels))

    def split(self, n: int) -> list["RandomSource"]:
        """Mint ``n`` fresh child streams, consuming one draw from this one."""
        salt = int(self._gen.integers(0, 2**62))
        return [RandomSource(self.seed, self.path + (salt, i)) for i in range(n)]

    # Thin passthroughs so most callers never touch the generator directly.
    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def random(self, size=None):
        return self._gen.random(size)

    def binomial(self, n, p, size=None):
        return self._gen.binomial(n, p, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)
