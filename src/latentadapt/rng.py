"""Deterministic random numbers: splitmix64 seeding and xoshiro256++ streams.

Every stochastic component in the package draws from this module so that a
run is reproducible bit for bit from a single 64-bit seed, independent of
interpreter version or platform RNG defaults. Normal variates come from the
polar Box-Muller transform (with the usual spare-value cache), so candidate
streams can be replayed exactly by any implementation of the same three
primitives.

Every kernel gives the bits of the scalar loop of :meth:`Xoshiro256pp.normals`.
A draw of one stream from ``_LONG_MIN`` = 2048 normals on, as the data
generator's are (``BENCH_28.json``), is cut into consecutive segments whose
starts are found by jumping ahead, and the segments are stepped in lockstep
as ``uint64`` arrays; fewer, such as one search's noise, run the loop.
:func:`normals_many` draws one block from each of many streams, as the batch
runner does for its live searches once per generation; from ``_LANES_MIN`` =
10 generators on (``BENCH_22.json``) they are stepped in lockstep, fewer are
drawn one at a time. The log of each accepted polar pair is ``math.log``'s,
because ``np.log`` differs from it in the last bit on some inputs; the rest
of the transform is correctly rounded IEEE operations, in numpy as in the
loop."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ContractViolation

_MASK64 = (1 << 64) - 1
_SM64_GAMMA = 0x9E3779B97F4A7C15
_LANES_MIN = 10  # fewer generators are drawn one at a time; see normals_many
_LONG_MIN = 2048  # fewer normals are drawn by the scalar loop; see _draw_long
_LONG_LANES = 256  # most lanes of one block of _draw_long
_LONG_ROUNDS = 64  # rounds of two generator steps a lane of _draw_long runs


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
        """Array of the stream's next ``n`` standard normals.

        Equal to ``n`` calls of :meth:`normal`, spare value included. From
        ``_LONG_MIN`` normals on they are drawn by :func:`_draw_long`;
        fewer by a loop with the generator step and the uniform draw
        inlined over local ints.
        """
        out = np.empty(n, dtype=np.float64)
        if n >= _LONG_MIN:
            _draw_long(self, out)
            return out
        s0, s1, s2, s3 = self._s
        spare = self._spare
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
    all of one spare parity, each lane's polar pairs drawn by
    :func:`_accepted_pairs` and transformed by :func:`_polar_fill`."""
    n = out.shape[1]
    first = 0
    if generators[0]._spare is not None:
        out[:, 0] = [g._spare for g in generators]
        first = 1
    spares = [None] * len(generators)
    if n > first:
        state = np.array([g._s for g in generators], dtype=np.uint64).T.copy()
        spares = _polar_fill(out[:, first:], *_accepted_pairs(state, (n - first + 1) // 2))
        for g, words in zip(generators, state.T.tolist()):
            g._s = words
    for g, spare in zip(generators, spares):
        g._spare = spare


def _draw_long(g: Xoshiro256pp, out: np.ndarray) -> None:
    """Fill ``out`` as ``g.normals(out.size)`` does, in blocks of up to
    ``_LONG_LANES`` lanes (as many as the pairs likely need) of
    ``_LONG_ROUNDS`` consecutive rounds each. Each lane starts where the one
    before ends, by :func:`_jump`; all step together, and their rounds read
    lane by lane are the stream in order. A block that falls short of pairs
    is followed by one from where its last lane ends; the words end after
    the round that gave the last pair, as the loop's do."""
    first = 0
    if g._spare is not None and out.size:
        out[0], g._spare = g._spare, None
        first = 1
    pairs = (out.size - first + 1) // 2
    if not pairs:
        return
    table = _jump_table(_LONG_ROUNDS)
    state = np.array(g._s, dtype=np.uint64)
    parts = []
    while pairs:
        lanes = min(_LONG_LANES, 1 + math.ceil(pairs / (_LONG_ROUNDS * math.pi / 4)))
        starts = np.empty((lanes, 4), dtype=np.uint64)
        starts[0] = state
        for lane in range(1, lanes):
            starts[lane] = _jump(table, starts[lane - 1])
        words = starts.T.copy()
        kept = _run_rounds(words, _LONG_ROUNDS)
        u, v, s = (a.T.ravel() for a in _polar_pairs(kept))  # lane by lane
        taken = np.flatnonzero((0.0 < s) & (s < 1.0))[:pairs]
        parts.append((u[taken], v[taken], s[taken]))
        pairs -= taken.size
        if pairs:
            state = words[:, -1]
        else:
            lane, last = divmod(int(taken[-1]), _LONG_ROUNDS)
            state = kept[2 * last + 2, :, lane]
    u, v, s = (np.concatenate(a)[None] for a in zip(*parts))
    (g._spare,) = _polar_fill(out[None, first:], u, v, s)
    g._s = state.tolist()


@functools.cache
def _jump_table(rounds: int) -> np.ndarray:
    """``(256, 4)`` uint64: row i is the state ``rounds`` rounds after the
    unit state whose bit i, in :func:`_jump`'s byte order, alone is set."""
    units = np.packbits(np.eye(256, dtype=bool), axis=1, bitorder="little")
    words = units.view(np.uint64).T.copy()
    _run_rounds(words, rounds)
    table = words.T.copy()
    table.flags.writeable = False
    return table


def _jump(table: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The state ``table``'s rounds after the state ``words``: xoshiro256++'s
    transition is linear over GF(2), so it is the xor of the table rows that
    the words' set bits pick."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little").view(bool)
    return np.bitwise_xor.reduce(table[bits], axis=0)


def _polar_fill(out: np.ndarray, u: np.ndarray, v: np.ndarray, s: np.ndarray) -> list:
    """Write the normals u·f, v·f, ... of the accepted pairs ``(B, pairs)``
    into ``out`` ``(B, count)`` and return each row's spare, its last v·f
    when ``count`` is odd, else None. f = sqrt(-2 log(s) / s) with
    ``math.log``, one call per pair, and numpy's IEEE operations."""
    log_s = np.fromiter(map(math.log, s.ravel().tolist()), np.float64, s.size)
    f = np.sqrt(-2.0 * log_s.reshape(s.shape) / s)
    values = np.stack((u * f, v * f), axis=2).reshape(len(out), -1)
    count = out.shape[1]
    out[:] = values[:, :count]
    return values[:, count].tolist() if count % 2 else [None] * len(out)


def _accepted_pairs(state: np.ndarray, pairs: int) -> tuple:
    """The first ``pairs`` accepted polar pairs of each lane: its u, v and
    ``s = u*u + v*v`` as three ``(B, pairs)`` arrays, with ``state``, the
    ``(4, B)`` uint64 words of the lanes, advanced in place to where each
    lane's own sequential loop would stop.

    The lanes step together by :func:`_run_rounds`, in chunks of as many
    rounds as the lane furthest from its count takes on average (at most
    512, about 32 KB of kept words a lane), until each has its pairs. A lane
    takes the words after the round that gave its last pair.
    """
    lanes = state.shape[1]
    words = state.copy()
    have = np.zeros(lanes, dtype=np.int64)
    chunks = []
    while (short := int((pairs - have).max())) > 0:
        kept = _run_rounds(words, min(math.ceil(short * 4.0 / math.pi), 512))
        u, v, s = _polar_pairs(kept)
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


def _run_rounds(words: np.ndarray, rounds: int) -> np.ndarray:
    """Step the ``(4, B)`` words of the lanes ``rounds`` rounds of two
    generator steps, in place, and return the words before each step and
    after the last, ``(2 * rounds + 1, 4, B)``."""
    views = (words[1], words[2], words[3], words[:2], words[2:], words[3:1:-1])
    scratch = np.empty(words.shape[1], dtype=np.uint64)
    kept = np.empty((2 * rounds + 1, *words.shape), dtype=np.uint64)
    kept[0] = words
    for step in range(1, 2 * rounds + 1):
        _advance(views, scratch)
        kept[step] = words
    return kept


def _polar_pairs(kept: np.ndarray) -> tuple:
    """u, v and ``s = u*u + v*v`` of each round of :func:`_run_rounds`'
    kept words, ``(rounds, B)`` each: the outputs of the two steps, each
    computed from the words before it."""
    s0, s3 = kept[:-1, 0], kept[:-1, 3]
    x = s0 + s3  # xoshiro256++'s output, rotl(s0 + s3, 23) + s0, wrapping mod 2^64
    uniform = 2.0 * (((((x << 23) | (x >> 41)) + s0) >> 11) * 2.0 ** -53) - 1.0
    u, v = uniform[0::2], uniform[1::2]
    return u, v, u * u + v * v


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
