"""Deterministic random numbers: splitmix64 seeding and xoshiro256++ streams.

Every stochastic component in the package draws from this module so that a
run is reproducible bit for bit from a single 64-bit seed, independent of
interpreter version or platform RNG defaults. Normal variates come from the
polar Box-Muller transform (with the usual spare-value cache), so candidate
streams can be replayed exactly by any implementation of the same three
primitives.

:func:`normals_many` draws one block of normals from each of many streams,
as the batch runner does for all its live searches once per generation; row
``j`` is bit for bit what ``generators[j].normals(n)`` gives. The kernel is
chosen by lane count: from ``_LANES_MIN`` = 10 generators on, the crossover
measured for 192 normals a generation (``BENCH_22.json``), their state words
are ``uint64`` arrays stepped in lockstep; fewer are drawn one at a time by
:meth:`Xoshiro256pp.normals`, which is also what one search alone and the
data generator use. The log of each accepted
polar pair is taken by ``math.log``, one call per pair, because ``np.log``
differs from it in the last bit on some inputs; the rest of the transform is
correctly rounded IEEE operations, the same in numpy as in the scalar loop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation

_MASK64 = (1 << 64) - 1
_SM64_GAMMA = 0x9E3779B97F4A7C15
_LANES_MIN = 10  # fewer generators are drawn one at a time; see normals_many


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


def normals_many(generators: list, n: int) -> np.ndarray:
    """``generators[j].normals(n)`` as row ``j`` of a ``(len(generators), n)``
    array, bit for bit, leaving every generator's state words and spare as
    that call would.

    The generators must all have a spare pending or all have none, else
    :class:`ContractViolation`. Fewer than ``_LANES_MIN`` are drawn one at a
    time; more are stepped in lockstep by :func:`_draw_lanes`.
    """
    generators = list(generators)
    if len({g._spare is None for g in generators}) > 1:
        raise ContractViolation("generators must all have a spare pending, or none")
    out = np.empty((len(generators), n), dtype=np.float64)
    if len(generators) < _LANES_MIN:
        for row, g in zip(out, generators):
            row[:] = g.normals(n)
    elif n:
        _draw_lanes(generators, out)
    return out


def _draw_lanes(generators: list, out: np.ndarray) -> None:
    """Fill ``out`` as :func:`normals_many` does, one lane per generator,
    all of one spare parity.

    Each lane's polar pairs are drawn by :func:`_accepted_pairs`. Then the
    log of each accepted s is ``math.log``'s, one call per pair (``np.log``
    may differ from it in the last bit), and the rest of ``sqrt(-2 log(s) /
    s)`` and the products with u and v are numpy's correctly rounded IEEE
    operations, the same as the scalar ones.
    """
    n = out.shape[1]
    first = 0
    if generators[0]._spare is not None:
        out[:, 0] = [g._spare for g in generators]
        first = 1
    count = n - first
    spares = [None] * len(generators)
    if count:
        state = np.array([g._s for g in generators], dtype=np.uint64).T.copy()
        u, v, s = _accepted_pairs(state, (count + 1) // 2)
        log_s = np.fromiter(map(math.log, s.ravel().tolist()), np.float64, s.size)
        f = np.sqrt(-2.0 * log_s.reshape(s.shape) / s)
        values = np.stack((u * f, v * f), axis=2).reshape(len(generators), -1)
        out[:, first:] = values[:, :count]
        if count % 2:
            spares = values[:, count].tolist()
        for g, words in zip(generators, state.T.tolist()):
            g._s = words
    for g, spare in zip(generators, spares):
        g._spare = spare


def _accepted_pairs(state: np.ndarray, pairs: int) -> tuple:
    """The first ``pairs`` accepted polar pairs of each lane: its u, v and
    ``s = u*u + v*v`` as three ``(B, pairs)`` arrays, with ``state``, the
    ``(4, B)`` uint64 words of the lanes, advanced in place to where each
    lane's own sequential loop would stop.

    All lanes are stepped together in rounds of two generator steps, in
    chunks of as many rounds as the lane furthest from its count takes on
    average (at most 512, about 32 KB of kept words a lane), until every
    lane has its pairs. The words before each step are
    kept, and the steps' outputs are computed from them after each chunk,
    all at once. A lane takes the words after the round that gave its last
    pair; the rounds it runs on beyond that are discarded.
    """
    lanes = state.shape[1]
    words = state.copy()
    have = np.zeros(lanes, dtype=np.int64)
    chunks = []
    scratch = np.empty(lanes, dtype=np.uint64)
    views = (words[1], words[2], words[3], words[:2], words[2:], words[3:1:-1])
    while (short := int((pairs - have).max())) > 0:
        rounds = min(math.ceil(short * 4.0 / math.pi), 512)
        kept = np.empty((2 * rounds + 1, 4, lanes), dtype=np.uint64)
        kept[0] = words
        for step in range(1, 2 * rounds + 1):
            _advance(views, scratch)
            kept[step] = words
        s0, s3 = kept[:-1, 0], kept[:-1, 3]
        x = s0 + s3  # xoshiro256++'s output, rotl(s0 + s3, 23) + s0, wrapping mod 2^64
        uniform = 2.0 * (((((x << 23) | (x >> 41)) + s0) >> 11) * 2.0 ** -53) - 1.0
        u, v = uniform[0::2], uniform[1::2]
        s = u * u + v * v
        accepted = (0.0 < s) & (s < 1.0)
        running = have + accepted.cumsum(axis=0)
        ending = (have < pairs) & (running[-1] >= pairs)
        last = (running >= pairs).argmax(axis=0)[ending]
        state[:, ending] = kept[2 * last + 2, :, np.flatnonzero(ending)].T
        have = running[-1]
        chunks.append((u, v, s, accepted))
    u, v, s, accepted = (np.concatenate(parts) for parts in zip(*chunks))
    # each lane's first ``pairs`` accepted rounds, lane by lane
    take = (accepted & (accepted.cumsum(axis=0) <= pairs)).T
    return tuple(a.T[take].reshape(lanes, pairs) for a in (u, v, s))


def _advance(views: tuple, scratch: np.ndarray) -> None:
    """One xoshiro256++ state transition of every lane, in place, the
    rotation as shifts and an or. ``views`` are of the ``(4, B)`` words: s1,
    s2 and s3, then rows 0-1, rows 2-3 and rows 3, 2, so that each pair of
    independent xors is one operation."""
    s1, s2, s3, front, back, crossed = views
    np.left_shift(s1, 17, out=scratch)
    back ^= front  # s2 ^= s0, s3 ^= s1
    front ^= crossed  # s0 ^= s3, s1 ^= s2
    s2 ^= scratch
    np.left_shift(s3, 45, out=scratch)
    s3 >>= 19
    s3 |= scratch
