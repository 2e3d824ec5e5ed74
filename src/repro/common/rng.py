"""Deterministic random-number utilities.

Every stochastic component in the library (workload generators, the Random
replacement policy) draws from a :class:`DeterministicRng` seeded explicitly,
so a simulation is reproducible bit-for-bit from its configuration.  Nothing
in the library ever touches the global :mod:`random` state.
"""

from __future__ import annotations

import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with the handful of draws the library needs.

    Thin wrapper over :class:`random.Random` that (a) forces an explicit
    seed, (b) exposes only the operations we use so tests can fake it easily,
    and (c) supports spawning decorrelated child streams for per-core
    workload generators.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        # The underlying Random is created on first draw: system construction
        # spawns one stream per cache/directory set, and most of them (every
        # LRU set, for instance) never draw a number.  Seeding thousands of
        # Mersenne Twister states up front is pure overhead.
        self._rng: random.Random | None = None

    def _materialize(self) -> random.Random:
        rng = random.Random(self._seed)
        self._rng = rng
        return rng

    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    def spawn(self, stream_id: int) -> "DeterministicRng":
        """Create an independent child stream.

        Child streams derived from the same (seed, stream_id) pair are
        identical across runs; different stream ids give decorrelated
        sequences.  Used to give each simulated core its own stream.
        """
        return DeterministicRng((self._seed * 1_000_003 + stream_id) & 0x7FFFFFFFFFFFFFFF)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return (self._rng or self._materialize()).randint(lo, hi)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self._rng or self._materialize()).random()

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        return (self._rng or self._materialize()).choice(items)

    def shuffle(self, items: List[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        (self._rng or self._materialize()).shuffle(items)

    def zipf_index(self, n: int, alpha: float) -> int:
        """Draw an index in [0, n) with Zipf(alpha) popularity.

        Uses inverse-CDF sampling over a lazily cached table, which is exact
        and fast enough for trace generation.  ``alpha`` = 0 degenerates to
        uniform.
        """
        if alpha <= 0.0:
            return (self._rng or self._materialize()).randrange(n)
        table = _zipf_cdf(n, alpha)
        u = (self._rng or self._materialize()).random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if table[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


_ZIPF_CDF_CACHE: dict = {}


def _zipf_cdf(n: int, alpha: float) -> List[float]:
    """The cached inverse-CDF table behind :meth:`DeterministicRng.zipf_index`."""
    key = (n, alpha)
    table = _ZIPF_CDF_CACHE.get(key)
    if table is None:
        weights = [1.0 / (i + 1) ** alpha for i in range(n)]
        total = sum(weights)
        acc = 0.0
        table = []
        for w in weights:
            acc += w / total
            table.append(acc)
        table[-1] = 1.0
        _ZIPF_CDF_CACHE[key] = table
    return table


# -- bulk replay ------------------------------------------------------------------
#
# CPython's ``random.Random`` is MT19937.  Its draws are simple functions of
# the 32-bit output words: ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) /
# 2**53`` over two consecutive words, and ``randrange(n)`` takes the top
# ``k = n.bit_length()`` bits of one word, drawing again while the value is
# ``>= n``.  numpy's ``MT19937`` produces the same words from the same state,
# so a whole stream of draws can be replayed in bulk and stay equal, draw for
# draw, to the scalar calls above.  This section is the only code that knows
# that layout.

#: Output words held per chunk of streams in :func:`zipf_random_pairs`'
#: rejection decode (the decode keeps ~10 bytes per word in flight).
_CHUNK_WORDS = 1 << 21


def _mt_words(seeds: Sequence[int], count: int):
    """Yield the first ``count`` 32-bit output words of ``random.Random(seed)``
    for each seed (as a ``uint64`` array)."""
    import numpy as np

    gen = np.random.MT19937(0)
    for seed in seeds:
        state = random.Random(seed).getstate()[1]
        gen.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(state[:624], dtype=np.uint32), "pos": state[624]},
        }
        yield gen.random_raw(count)


def _unit_floats(hi, lo):
    """``random()`` rebuilt from its two words (exact in float64)."""
    return ((hi >> 5).astype("float64") * 67108864.0 + (lo >> 6)) * (
        1.0 / 9007199254740992.0
    )


def _chain_budget(count: int, accept: float) -> int:
    """Words to draw for ``count`` ``randrange`` + ``random()`` rounds.

    The mean plus six standard deviations of the rejection count, plus
    slack; a stream that still runs short is redrawn with a larger budget.
    """
    mean = count * (2 + 1 / accept)
    spread = (count * (1 - accept)) ** 0.5 / accept
    return int(mean + 6 * spread) + 16


def zipf_random_pairs(seeds: Sequence[int], n: int, alpha: float, count: int):
    """Replay ``count`` rounds of ``zipf_index(n, alpha)`` then ``random()``.

    Yields, for each seed in order, ``(indices, uniforms)``: two numpy
    arrays of length ``count`` equal element for element to what
    ``DeterministicRng(seed)`` returns from the same calls made one by one.
    Requires ``1 <= n < 2**32``.
    """
    import numpy as np

    if count == 0:
        for _ in seeds:
            yield np.zeros(0, dtype=np.int64), np.zeros(0)
        return
    if alpha > 0.0:
        cdf = np.asarray(_zipf_cdf(n, alpha))
        for words in _mt_words(seeds, 4 * count):
            words = words.reshape(count, 4)
            u = _unit_floats(words[:, 0], words[:, 1])
            yield (
                np.searchsorted(cdf, u, side="left"),
                _unit_floats(words[:, 2], words[:, 3]),
            )
        return
    budget = _chain_budget(count, n / (1 << n.bit_length()))
    chunk = max(1, _CHUNK_WORDS // budget)
    for start in range(0, len(seeds), chunk):
        yield from _randrange_chain(seeds[start:start + chunk], n, count, budget)


def _randrange_chain(seeds: Sequence[int], n: int, count: int, budget: int):
    """``randrange(n)`` + ``random()`` rounds for a chunk of streams.

    Each stream's words sit in one row of a ``(streams, budget)`` grid.  A
    round starting at word ``p`` takes its index from the first accepted
    word ``q >= p`` and its uniform from words ``q+1, q+2``; the next round
    starts at ``q + 3``.  ``nxt[p]`` (the first accepted word at or after
    ``p``, as a flat grid index) turns that chain into one gather per round,
    taken for every stream of the chunk at once.  Streams whose chain runs
    off the end of their row are redrawn with twice the budget.
    """
    import numpy as np

    rows = len(seeds)
    size = rows * budget
    grid = np.empty((rows, budget), dtype=np.uint32)
    for row, words in enumerate(_mt_words(seeds, budget)):
        grid[row] = words
    k = n.bit_length()
    # top-k(word) < n  <=>  word < n << (32 - k).  None of a row's last three
    # words may be a round's index word: its uniform and the next round's
    # start must stay inside the row.
    accept = grid < np.uint32(n << (32 - k))
    accept[:, budget - 3:] = False
    end = size  # sentinel: "no accepted word left in this row"
    index = np.int32 if size + 4 < 2**31 else np.int64
    nxt = np.arange(size + 4, dtype=index)
    nxt[size:] = end
    flat = nxt[:size].reshape(rows, budget)
    flat[~accept] = end
    del accept
    backwards = flat[:, ::-1]
    np.minimum.accumulate(backwards, axis=1, out=backwards)

    picks = np.empty((count, rows), dtype=index)
    pos = np.arange(rows, dtype=index) * budget
    for step in range(count):
        nxt.take(pos, out=picks[step])
        np.add(picks[step], 3, out=pos)

    short = np.flatnonzero(picks[-1] == end)
    redrawn = {}
    if len(short):
        retry = _randrange_chain(
            [seeds[row] for row in short], n, count, 2 * budget
        )
        redrawn = dict(zip(short.tolist(), retry))
    words = grid.reshape(-1)
    shift = np.uint32(32 - k)
    for row in range(rows):
        if row in redrawn:
            yield redrawn[row]
            continue
        q = picks[:, row]
        yield (
            (words[q] >> shift).astype(np.int64),
            _unit_floats(words[q + 1], words[q + 2]),
        )
