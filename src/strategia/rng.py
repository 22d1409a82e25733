"""Seeded random streams, and every sample the package reads from them.

Monte Carlo trial t of a run with master seed m reads the stream of
PCG64(trial_seed(m, t)), where trial_seed(m, t) = m XOR splitmix64(t). A
seed's raw PCG64 stream, numpy's SeedSequence seeding included (NEP 19;
O'Neill, "PCG", HMC-CS-2014-0905), is the same on every platform and numpy
release; the algorithms of numpy's Generator may change between feature
releases, so no sample goes through one.

Every sample is raw words plus a fixed decode: those of thm3, thm4,
uniform-conv, draw_sample, draw_graph_sample and gen_random, whose drawer
thm5 shares (scenarios._random_arrays). A raw word w is the uniform u =
(w >> 11) * 2**-53 (_word_uniforms, as Generator.random); u < p is read off
w itself (_below); uniform(low, high) is low + (high - low) * u
(_uniform_between); integers(0, 2) takes bit 31 of one 32-bit half, the low
half first (_coin_flips); and a draw is the cell inverse_cdf(cum, u).
_WordReader serves words and coin flips in stream order.

One check runs once per process, at first use, never at import:
_bulk_seeding_matches compares the bulk-computed PCG64 states and lane words
of a few seeds with numpy's. On a mismatch trial_rows reads each trial from
its own PCG64(seed).random_raw: the one stream fallback.

Bulk seeding: trial_seeds computes a range of seeds at once, and
SeedSequence and the PCG64 seeding step are redone in uint32 / uint64 array
arithmetic. PCG64 steps s -> M * s + inc mod 2**128 and outputs the XSL-RR
function of the new state, so word j comes from s_j = M**(j + 1) * s +
(M**j + ... + M + 1) * inc (F. Brown, "Random number generation with
arbitrary strides", 1994). Rows of at most _LANE_WORDS words are computed
that way as lanes, every word of every trial at once in 32-bit limbs; a
longer row costs less as one state assignment to a reused PCG64 and one
random_raw call.

Sampling: inverse_cdf is the plain binary search, and the samplers put a
guide table (Chen & Asau, 1974) in front of it. [0, 1) is cut into B =
2**12 equal buckets, and a word's bucket w >> 52 is exactly floor(u * B).
The search result is nondecreasing in u, so where it agrees at both ends of
a bucket the table holds that answer. Only the words of buckets that
contain a cumulative weight become uniforms and are searched, so the answer
is the search's, element for element.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def splitmix64(t: int) -> int:
    """The splitmix64 output function applied to counter t (stateless form)."""
    z = (int(t) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, t: int) -> int:
    """Derived seed for trial t; deterministic and worker-count independent."""
    return (int(master_seed) & _MASK64) ^ splitmix64(t)


def trial_seeds(master_seed: int, first: int, count: int) -> np.ndarray:
    """trial_seed(master_seed, t) for t = first .. first + count - 1, as a
    uint64 array (splitmix64 over the range; uint64 arrays wrap mod 2**64)."""
    z = np.arange(count, dtype=np.uint64) + np.uint64((int(first) + 0x9E3779B97F4A7C15) & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))) ^ np.uint64(int(master_seed) & _MASK64)


# numpy's SeedSequence constants (NEP 19; O'Neill's seed_seq_fe) and the
# 128-bit PCG64 multiplier.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _hash_steps(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of count successive SeedSequence hashes: hash i xors
    with c_i and multiplies by c_(i + 1), where c_0 = init and c_(i + 1) =
    c_i * mult mod 2**32; as two count x 1 uint32 columns."""
    xors, mults, c = [], [], init
    for _ in range(count):
        xors.append(c)
        c = (c * mult) & 0xFFFFFFFF
        mults.append(c)
    return np.array(xors, dtype=np.uint32)[:, None], np.array(mults, dtype=np.uint32)[:, None]


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(s).generate_state(4, np.uint64) for each 64-bit seed s,
    as four uint64 arrays (word i of every seed). The hashes that do not
    depend on each other run as one array operation: the four entropy words,
    the three pool words one source word mixes into, and the eight outputs."""
    xor_a, mult_a = _hash_steps(_SS_INIT_A, _SS_MULT_A, _SS_POOL * _SS_POOL)
    xor_b, mult_b = _hash_steps(_SS_INIT_B, _SS_MULT_B, 2 * _SS_POOL)

    def hashmix(value, xor, mult):
        value = (value ^ xor) * mult
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    # A seed below 2**32 is one entropy word and a larger one two, but the
    # pool hashes a missing word as 0, so both read as the low, high, 0, 0.
    pool = np.zeros((_SS_POOL,) + seeds.shape, dtype=np.uint32)
    pool[0], pool[1] = seeds & _M32, seeds >> _S32
    pool = hashmix(pool, xor_a[:_SS_POOL], mult_a[:_SS_POOL])
    step = _SS_POOL
    for src in range(_SS_POOL):
        dst = [d for d in range(_SS_POOL) if d != src]
        steps = slice(step, step + len(dst))
        pool[dst] = mix(pool[dst], hashmix(pool[src], xor_a[steps], mult_a[steps]))
        step += len(dst)
    # output word i hashes pool word i mod 4
    out = hashmix(np.concatenate((pool, pool)), xor_b, mult_b).astype(np.uint64)
    return [out[2 * i] | (out[2 * i + 1] << _S32) for i in range(_SS_POOL)]


def _mul_wide(x: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) 64-bit words of the 128-bit products x * y (uint64,
    broadcast), in 32-bit limbs."""
    x0, x1 = x & _M32, x >> _S32
    y0, y1 = y & _M32, y >> _S32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> _S32) + (p01 & _M32) + (p10 & _M32)
    return (mid << _S32) | (p00 & _M32), x1 * y1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _pcg64_states(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """High and low words of the state and inc of PCG64(s) for each seed s,
    as uint64 arrays. PCG64 takes initstate = w0 * 2**64 + w1 and initseq =
    w2 * 2**64 + w3 from the seed words, sets inc = 2 * initseq + 1, state 0,
    steps, adds initstate and steps again: state = (inc + initstate) * M +
    inc mod 2**128, for the multiplier M."""
    w0, w1, w2, w3 = _seed_words(seeds)
    one = np.uint64(1)
    inc_hi, inc_lo = (w2 << one) | (w3 >> np.uint64(63)), (w3 << one) | one
    a_lo = inc_lo + w1
    a_hi = inc_hi + w0 + (a_lo < inc_lo)
    m_hi, m_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
    lo, hi = _mul_wide(a_lo, m_lo)
    state_lo = lo + inc_lo
    state_hi = hi + a_hi * m_lo + a_lo * m_hi + inc_hi + (state_lo < lo)
    return state_hi, state_lo, inc_hi, inc_lo


# Rows of at most this many words are computed as lanes, all words of all
# trials at once; a longer row costs less as one state assignment and one
# random_raw call. A lane word costs about 45 ns and the assignment about
# 5 us, so the two break even near 100 words (256 trials, 2-CPU x86-64,
# numpy 2.4).
_LANE_WORDS = 100
# The words of one lane computation: its dozens of temporaries stay in cache.
_LANE_BLOCK = 1 << 13
_lane_steps: Optional[tuple[np.ndarray, ...]] = None


def _lane_constants() -> tuple[np.ndarray, ...]:
    """High and low words of A_j = M**(j + 1) and C_j = M**j + ... + M + 1
    mod 2**128 for j < _LANE_WORDS, so that j + 1 steps take a state s to
    A_j * s + C_j * inc; built on first use."""
    global _lane_steps
    if _lane_steps is None:
        a, c, steps = _PCG_MULT, 1, []
        for _ in range(_LANE_WORDS):
            steps.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
            a, c = (a * _PCG_MULT) & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        _lane_steps = tuple(np.array(col, dtype=np.uint64) for col in zip(*steps))
    return _lane_steps


def _lane_words(states: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    """The first k raw outputs of each PCG64 (state_hi, state_lo, inc_hi,
    inc_lo) of ``states``, as a trials x k uint64 array. Output j is numpy's
    XSL-RR function of state s_j = A_j * s + C_j * inc (see _lane_constants):
    the xor of its two halves rotated right by its top 6 bits."""
    s_hi, s_lo, inc_hi, inc_lo = (x[:, None] for x in states)
    a_hi, a_lo, c_hi, c_lo = (x[None, :k] for x in _lane_constants())
    lo_a, hi_a = _mul_wide(s_lo, a_lo)
    lo_c, hi_c = _mul_wide(inc_lo, c_lo)
    lo = lo_a + lo_c
    hi = hi_a + hi_c + (lo < lo_a) + s_lo * a_hi + s_hi * a_lo + inc_lo * c_hi + inc_hi * c_lo
    x, rot = hi ^ lo, hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _pcg64_state(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


# Seeds whose bulk set-up is checked against numpy's constructor: the ends
# of the one- and two-word entropy ranges and one mixed value.
_SEEDING_CHECK = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0x9E3779B97F4A7C15)
_bulk_seeding_ok: Optional[bool] = None


def _bulk_seeding_matches() -> bool:
    """Whether the bulk set-up gives numpy's PCG64 states and the lanes its
    first _LANE_WORDS outputs; checked once per process, at first use."""
    global _bulk_seeding_ok
    if _bulk_seeding_ok is None:
        states = _pcg64_states(np.array(_SEEDING_CHECK, dtype=np.uint64))
        lanes = _lane_words(states, _LANE_WORDS)
        _bulk_seeding_ok = all(
            np.random.PCG64(seed).state == _pcg64_state(h << 64 | l, ih << 64 | il)
            and np.array_equal(np.random.PCG64(seed).random_raw(_LANE_WORDS), row)
            for seed, h, l, ih, il, row in zip(_SEEDING_CHECK, *(x.tolist() for x in states), lanes)
        )
    return _bulk_seeding_ok


def _state_words(states: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    """The first k raw outputs of each PCG64 (state, inc) of states: as lanes
    in blocks of about _LANE_BLOCK words when k <= _LANE_WORDS, else by one
    state assignment and one random_raw per row."""
    out = np.empty((states[0].shape[0], k), dtype=np.uint64)
    if k <= _LANE_WORDS:
        step = max(1, _LANE_BLOCK // k)
        for r in range(0, len(out), step):
            out[r : r + step] = _lane_words(tuple(x[r : r + step] for x in states), k)
        return out
    bitgen = np.random.PCG64(0)
    for row, hi, lo, inc_hi, inc_lo in zip(out, *(x.tolist() for x in states)):
        bitgen.state = _pcg64_state(hi << 64 | lo, inc_hi << 64 | inc_lo)
        row[:] = bitgen.random_raw(k)
    return out


def trial_rows(
    master_seed: int, first: int, count: int, k: int
) -> Callable[[int, int], np.ndarray]:
    """A reader of the trials first .. first + count - 1 of a master seed:
    read(r, rows) returns the first k raw outputs of PCG64(trial_seed(
    master_seed, t)) for t = first + r .. first + r + rows - 1, as a rows x k
    uint64 array. The seeding of all count trials is done once, so reading
    them in small chunks costs no more than reading them at once."""
    seeds = trial_seeds(master_seed, first, count)
    if not _bulk_seeding_matches():
        return lambda r, rows: np.array(
            [np.random.PCG64(seed).random_raw(k) for seed in seeds[r : r + rows].tolist()],
            dtype=np.uint64,
        ).reshape(-1, k)
    states = _pcg64_states(seeds)
    return lambda r, rows: _state_words(tuple(x[r : r + rows] for x in states), k)


def _word_uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform of each raw PCG64 word w: (w >> 11) * 2**-53, which is
    also Generator.random's."""
    return (words >> np.uint64(11)) * 2.0**-53


def _uniform_between(words: np.ndarray, low: float, high: float) -> np.ndarray:
    """Generator.uniform(low, high) of each raw PCG64 word: low + (high -
    low) * u for its uniform u."""
    return low + (high - low) * _word_uniforms(words)


def _coin_flips(words: np.ndarray, count: int) -> np.ndarray:
    """The first count values of Generator.integers(0, 2) drawn from each row
    of raw words, as booleans. Each value takes one 32-bit half, the low half
    first, and Lemire's method maps a half h to h >> 31. The little-endian
    view puts the low half first on any host."""
    return (words.astype("<u8", copy=False).view("<u4") >> 31).astype(bool)[:, :count]


def _below(words: np.ndarray, p) -> np.ndarray:
    """_word_uniforms(words) < p, compared on the words themselves: the
    uniform (w >> 11) * 2**-53 is below p exactly when w is below ceil(p *
    2**53) << 11. From p = 1 on that limit is 2**64, above every word; at p
    <= 0 (or nan) no word is below it. p is a number or broadcasts against
    the words, one per row."""
    # t = ceil(p * 2**53) within [0, 2**53]; fmax takes a nan to 0
    t = np.minimum(np.fmax(np.ceil(np.multiply(p, 2.0**53)), 0.0), 2.0**53)
    below = words < (t.astype(np.uint64) << np.uint64(11))
    full = t == 2.0**53  # whose limit 2**64 wrapped to 0
    if full.any():
        below |= full
    return below


class _WordReader:
    """The raw words of one or more PCG64 streams, in stream order:
    words(k) gives the next k words of each stream (streams x k) and
    flips(k) its next k coin flips. As in numpy's bit-generator state, an
    unread high half waits for the next flips, and words skip it. ``used``
    counts the words read, and next_words(start, k) gives words start ..
    start + k - 1 of every stream. A live reader reads one stream as far as
    asked; a block reader holds rows already read."""

    def __init__(self, next_words: Callable[[int, int], np.ndarray], streams: int, live: bool):
        self._next, self.streams, self.live = next_words, streams, live
        self.used = 0
        self._half: Optional[np.ndarray] = None

    def words(self, k: int) -> np.ndarray:
        out = self._next(self.used, k)
        self.used += k
        return out

    def flips(self, k: int) -> np.ndarray:
        head = self._half if k else None
        if head is not None:
            self._half, k = None, k - 1
        # every half read: k of them, or k + 1 when k is odd
        halves = _coin_flips(self.words((k + 1) // 2), k + 1)
        if k % 2:
            halves, self._half = halves[:, :k], halves[:, k:]
        return halves if head is None else np.concatenate((head, halves), axis=1)


def _stream_words(seed: int) -> _WordReader:
    """A live reader of PCG64(seed)'s stream."""
    bitgen = np.random.PCG64(seed)
    return _WordReader(lambda start, k: bitgen.random_raw(k)[None], 1, live=True)


def _block_words(rows: np.ndarray) -> _WordReader:
    """A block reader whose stream i is row i of rows."""
    return _WordReader(lambda start, k: rows[:, start : start + k], len(rows), live=False)


def inverse_cdf(cum: np.ndarray, u) -> np.ndarray:
    """Cell index of each uniform in u under the cumulative weights cum: the
    binary search np.searchsorted(cum, u, "right"). A u at or above cum[-1],
    which rounding allows, maps to the last cell of positive weight, never
    to a trailing cell of zero weight."""
    return np.minimum(np.searchsorted(cum, u, side="right"), np.searchsorted(cum, cum[-1]))


_GUIDE_BUCKETS = 1 << 12
# A word's guide bucket: w >> 52 is floor(u * 2**12) for its uniform u.
_BUCKET_SHIFT = np.uint64(64 - 12)


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """The answer of inverse_cdf for every u in bucket k of [0, 1), or -1
    where a cumulative weight splits the bucket."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    lo = np.searchsorted(cum, edges[:-1], side="right")
    hi = np.searchsorted(cum, edges[1:], side="left")
    return np.where(lo == hi, np.minimum(lo, np.searchsorted(cum, cum[-1])), -1)


def _word_cells(cum: np.ndarray, words: np.ndarray, guide: Optional[np.ndarray]) -> np.ndarray:
    """inverse_cdf(cum, _word_uniforms(words)): with a guide table, its
    answer by each word's bucket, and the search for the words of split
    buckets only."""
    if guide is None:
        return inverse_cdf(cum, _word_uniforms(words))
    idx = guide.take((words >> _BUCKET_SHIFT).view(np.int64))
    split = np.flatnonzero(idx < 0)
    if split.size:
        idx.flat[split] = inverse_cdf(cum, _word_uniforms(words.flat[split]))
    return idx


def draw_cells(cum: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Cells of n draws under the cumulative weights cum, one per raw word of
    PCG64(seed) in stream order: inverse_cdf of the words' uniforms."""
    guide = _guide_table(cum) if n >= _GUIDE_BUCKETS else None
    return _word_cells(cum, np.random.PCG64(seed).random_raw(n), guide)


# The words one cell_counts block holds (whole rows, at least one): small
# enough to stay in cache, large enough for the guide table to pay.
_COUNT_BLOCK = 1 << 15


def cell_counts(
    cum: np.ndarray, trials: int, n: int, words: Callable[[int, int], np.ndarray]
) -> np.ndarray:
    """Occurrences of each cell per row of n draws: a trials x len(cum)
    int64 matrix whose row r counts the cells of row r's words.

    words(r, rows) returns rows r .. r + rows - 1 as a rows x n uint64 array
    of raw PCG64 words, called for r = 0, rows, 2 * rows, ... in order with
    rows * n at most _COUNT_BLOCK (or one row); a PCG64's random_raw serves
    them from one stream."""
    n_cells = cum.shape[0]
    counts = np.empty((trials, n_cells), dtype=np.int64)
    rows = max(1, min(trials, _COUNT_BLOCK // max(n, 1)))
    guide = _guide_table(cum) if trials * n >= _GUIDE_BUCKETS else None
    offsets = (np.arange(rows) * n_cells)[:, None]
    for r in range(0, trials, rows):
        block = words(r, min(rows, trials - r))
        idx = _word_cells(cum, block, guide)
        idx += offsets[: len(block)]
        counts[r : r + len(block)] = np.bincount(
            idx.ravel(), minlength=len(block) * n_cells
        ).reshape(len(block), n_cells)
    return counts
