"""Deterministic random numbers: splitmix64 seeding and xoshiro256++ streams.

Every stochastic component in the package draws from this module so that a
run is reproducible bit for bit from a single 64-bit seed, independent of
interpreter version or platform RNG defaults. Normal variates come from the
polar Box-Muller transform (with the usual spare-value cache), so candidate
streams can be replayed exactly by any implementation of the same three
primitives.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_SM64_GAMMA = 0x9E3779B97F4A7C15


def _sm64_mix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64_at(seed: int, index: int) -> int:
    """Return output ``index`` (0-based) of the splitmix64 stream for ``seed``.

    The stream state advances by a fixed additive constant, so any output can
    be computed in O(1) without generating its predecessors.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    state = (seed + (index + 1) * _SM64_GAMMA) & _MASK64
    return _sm64_mix(state)


def derive_seed(master: int, index: int) -> int:
    """Per-item seed for item ``index`` of a batch keyed by ``master``."""
    return splitmix64_at(master, index)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256pp:
    """xoshiro256++ generator, seeded through splitmix64.

    State is four 64-bit words filled from consecutive splitmix64 outputs of
    the seed, per the reference seeding recommendation.
    """

    __slots__ = ("_s", "_spare")

    def __init__(self, seed: int):
        self._s = [splitmix64_at(seed, i) for i in range(4)]
        if not any(self._s):
            # all-zero state is invalid for xoshiro; unreachable in practice
            self._s[0] = 1
        self._spare: float | None = None

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[0] + s[3]) & _MASK64, 23) + s[0]) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def normal(self) -> float:
        """Standard normal via the polar Box-Muller transform."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        while True:
            u = 2.0 * self.random() - 1.0
            v = 2.0 * self.random() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                break
        f = math.sqrt(-2.0 * math.log(s) / s)
        self._spare = v * f
        return u * f

    def normals(self, n: int) -> np.ndarray:
        """Array of ``n`` standard normals, drawn sequentially.

        Equal to ``n`` calls of :meth:`normal`, spare value included; the
        generator step and the uniform draw are inlined over local ints.
        """
        s0, s1, s2, s3 = self._s
        spare = self._spare
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            if spare is not None:
                out[i] = spare
                spare = None
                continue
            while True:
                # two generator steps (next_u64), one per uniform
                x = (s0 + s3) & _MASK64
                a = ((((x << 23) | (x >> 41)) & _MASK64) + s0) & _MASK64
                t = (s1 << 17) & _MASK64
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
                x = (s0 + s3) & _MASK64
                b = ((((x << 23) | (x >> 41)) & _MASK64) + s0) & _MASK64
                t = (s1 << 17) & _MASK64
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
                u = 2.0 * ((a >> 11) * (2.0 ** -53)) - 1.0
                v = 2.0 * ((b >> 11) * (2.0 ** -53)) - 1.0
                s = u * u + v * v
                if 0.0 < s < 1.0:
                    break
            f = math.sqrt(-2.0 * math.log(s) / s)
            out[i] = u * f
            spare = v * f
        self._s = [s0, s1, s2, s3]
        self._spare = spare
        return out

    def state(self) -> tuple:
        """Snapshot of the full generator state, for equality checks."""
        return (tuple(self._s), self._spare)

    def clone(self) -> "Xoshiro256pp":
        other = object.__new__(Xoshiro256pp)
        other._s = list(self._s)
        other._spare = self._spare
        return other
