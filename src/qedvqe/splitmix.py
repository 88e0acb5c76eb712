"""SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) as counter streams in numpy: the
sampler's random words, one stream per drawn quantity (sim.sample_shots).

Word j under key k is mix(k + (j + 1) GAMMA mod 2^64), so any word is computed directly
and no chunk size moves a word; a stream's key is one word, computed in Python ints (mix_int).
sim imports this module on its first draw, so a run that never samples does not load it.
"""
from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15  # the odd integer nearest 2^64 / golden ratio


def mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on an array of uint64 words, in place (Vigna's splitmix64.c)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def mix_int(z: int) -> int:
    """mix on one Python int in [0, 2^64), its products taken mod 2^64."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


class Stream:
    """The words of one key in order: random_raw(n) returns the next n."""

    def __init__(self, key: int):
        self.key, self.drawn = key, 0

    def random_raw(self, n: int) -> np.ndarray:
        z = np.arange(self.drawn + 1, self.drawn + n + 1, dtype=np.uint64)
        self.drawn += n
        z *= np.uint64(GAMMA)
        z += np.uint64(self.key)
        return mix(z)


def stream(seed: int, family: int) -> Stream:
    """The stream of quantity `family` under a seed: key mix(mix(seed mod 2^64) + (family + 1) GAMMA)."""
    return Stream(mix_int((mix_int(seed % 2**64) + (family + 1) * GAMMA) % 2**64))
