"""Counter-based SplitMix64 random streams.

The generator is deliberately tiny: the word at position ``i`` of a stream
with state ``s`` is ``mix64(s + (i+1) * GOLDEN)``, where ``mix64`` is the
SplitMix64 finalizer.  Because the word only depends on ``(s, i)``, blocks of
any size can be produced with vectorized uint64 arithmetic, and a stream can
be replayed from any offset.  Every distribution in :mod:`fmlab.disorder`
consumes a fixed number of words per draw, so sample ``i`` of a Monte Carlo
run sees the same randomness no matter how work is split across workers.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TWO53 = 9007199254740992.0  # 2**53
_BELOW_ONE = np.nextafter(1.0, 0.0)  # 1 - 2**-53


def mix64(z):
    """SplitMix64 finalizer; bijection on uint64 scalars or arrays."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def derive_sample_seed(master_seed: int, sample_index) -> np.uint64:
    """Per-sample stream state: mix64(master xor index*GOLDEN).

    Injective in the index (GOLDEN is odd, mix64 is a bijection), so derived
    states are collision-free over the full 64-bit index range.  Accepts a
    scalar index or an ndarray of indices.
    """
    master = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
    idx = np.atleast_1d(np.asarray(sample_index, dtype=np.uint64))
    out = mix64(master ^ (idx * GOLDEN))  # array ops: silent modular wraparound
    if np.asarray(sample_index).ndim == 0:
        return np.uint64(out[0])
    return out


class Stream:
    """Sequential view of SplitMix64 streams; one uint64 word per call unit.

    state is one stream state, or a 1-D array of B states read in lockstep:
    then every call returns a leading axis of length B, whose row b is what
    a Stream of state[b] alone would return.
    """

    __slots__ = ("state", "pos")

    def __init__(self, state, pos: int = 0):
        if np.ndim(state) == 0:
            self.state = np.asarray(np.uint64(int(state) & 0xFFFFFFFFFFFFFFFF))
        else:
            self.state = np.asarray(state, dtype=np.uint64)
        self.pos = pos

    def words(self, n: int) -> np.ndarray:
        """Next n raw uint64 words, shape (n,) or (B, n)."""
        idx = np.arange(self.pos + 1, self.pos + n + 1, dtype=np.uint64)
        self.pos += n
        return mix64(self.state[..., None] + idx * GOLDEN)

    def uniforms(self, n: int) -> np.ndarray:
        """Next n doubles, uniform on the open interval (0, 1).

        Midpoints ((w >> 11) + 0.5) / 2^53 never hit 0, and the top one, which
        rounds to 1, is clamped to 1 - 2^-53: the disorder transforms stay finite.
        """
        w = self.words(n)
        return np.minimum(((w >> _S11).astype(np.float64) + 0.5) / _TWO53, _BELOW_ONE)
