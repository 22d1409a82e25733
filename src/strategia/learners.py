"""Sampling and empirical risk minimization over finite hypothesis classes.

Seed discipline: every Monte Carlo trial t of a run with master seed m uses
trial_seed(m, t) = m XOR splitmix64(t), where splitmix64 is the standard
64-bit mixing function, and draws from Generator(PCG64(trial_seed(m, t))).
PCG64 is stable across platforms for a fixed seed. The Monte Carlo kernels
read a trial's raw 64-bit outputs (random_raw) and decode them as arrays:
Generator.random turns a word w into (w >> 11) * 2**-53, and integers(0, 2)
takes one 32-bit half per value. trial_words(m, first, count, k) gives the
first k words of each of count trials. Building one PCG64 per trial costs
more than a short trial's draws, so the trials are set up in bulk:
trial_seeds computes a range of seeds at once, and numpy's seeding (the
SeedSequence hash of NEP 19, then the PCG64 seeding step of O'Neill, "PCG",
HMC-CS-2014-0905) is redone in uint32 / uint64 array arithmetic for all of
them. PCG64 steps s -> M * s + inc mod 2**128 and outputs the XSL-RR
function of the new state, so a linear congruential stream jumps ahead in
closed form (F. Brown, "Random number generation with arbitrary strides",
1994): word j comes from s_j = M**(j + 1) * s + (M**j + ... + M + 1) * inc.
Rows of at most _LANE_WORDS words are computed that way as lanes, every word
of every trial at once in 32-bit limbs. A lane word costs a few dozen array
operations, so a longer row is cheaper by one assignment of the trial's
(state, inc) to a reused PCG64 and one random_raw call; trial_generators
assigns the same states where a draw needs a Generator. The first use in a
process checks the seeding and the lanes against numpy's constructor and
random_raw, and falls back to one constructor per trial if they differ. Ties
in every argmin are broken by the lowest class index and the number of tied
members is reported.

Sampling is inverse-transform over cumulative cell weights, with a guide
table (Chen & Asau, 1974) in front of the binary search. [0, 1) is cut into
B = 2**12 equal buckets. Scaling a double by a power of two is exact, so
k = floor(u * B) puts u in [k / B, (k + 1) / B) with no rounding. The
search result is nondecreasing in u, so where it agrees at both ends of a
bucket (searchsorted(cum, k / B, "right") == searchsorted(cum, (k + 1) / B,
"left")) it is that value for every u in the bucket, and the table holds it.
Only draws in the buckets that contain a cumulative weight go on to the
binary search. The answer is therefore the searchsorted answer, element for
element, and a draw costs a multiply and a lookup instead of a search.
cell_counts reads raw words, whose bucket is w >> 52, exactly floor(u * B)
for their uniform u, so it forms u only for the words of split buckets. It
builds the table once and streams its rows of words through one block of
about _COUNT_BLOCK values, so trials x n words never exist at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .domain import (
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    LabeledSample,
    ManipulationGraph,
)
from .errors import (
    DomainMismatchError,
    EmptyClassError,
    EmptySampleError,
    NoIncentiveCompatibleError,
    RealizabilityError,
)
from .losses import LossKind, class_component_matrix, class_loss_table, loss_cells

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


def _each_state(bitgen: np.random.PCG64, states: tuple[np.ndarray, ...]) -> Iterator[None]:
    """Set bitgen to each (state, inc) of states in turn, yielding after each."""
    for hi, lo, inc_hi, inc_lo in zip(*(x.tolist() for x in states)):
        bitgen.state = _pcg64_state(hi << 64 | lo, inc_hi << 64 | inc_lo)
        yield


def trial_generators(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """Generator(PCG64(s)) for each seed s of a uint64 array, in order.

    Every item is the same Generator object, set to the next seed's state
    when it is drawn, so draw from each item before taking the next and keep
    none of them. Falls back to one new generator per seed if the bulk
    set-up does not match numpy's seeding.
    """
    if not _bulk_seeding_matches():
        for seed in seeds.tolist():
            yield np.random.Generator(np.random.PCG64(seed))
        return
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for _ in _each_state(bitgen, _pcg64_states(seeds)):
        yield rng


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
    for row, _ in zip(out, _each_state(bitgen, states)):
        row[:] = bitgen.random_raw(k)
    return out


def trial_rows(
    master_seed: int, first: int, count: int, k: int
) -> Callable[[int, int], np.ndarray]:
    """A reader of the trials first .. first + count - 1 of a master seed:
    read(r, rows) returns trial_words(master_seed, first + r, rows, k). The
    seeding of all count trials is done once, so reading them in small
    chunks costs no more than reading them at once."""
    seeds = trial_seeds(master_seed, first, count)
    if not _bulk_seeding_matches():
        return lambda r, rows: np.array(
            [np.random.PCG64(seed).random_raw(k) for seed in seeds[r : r + rows].tolist()],
            dtype=np.uint64,
        ).reshape(-1, k)
    states = _pcg64_states(seeds)
    return lambda r, rows: _state_words(tuple(x[r : r + rows] for x in states), k)


def trial_words(master_seed: int, first: int, count: int, k: int) -> np.ndarray:
    """The first k raw 64-bit outputs (random_raw) of PCG64(trial_seed(
    master_seed, t)) for t = first .. first + count - 1, as a count x k
    uint64 array: all at once as lanes when k <= _LANE_WORDS, else by one
    state assignment and one random_raw per trial."""
    return trial_rows(master_seed, first, count, k)(0, count)


_GUIDE_BUCKETS = 1 << 12


def _guide_table(cum: np.ndarray, last) -> np.ndarray:
    """The answer of inverse_cdf for every u in bucket k of [0, 1), or -1
    where a cumulative weight splits the bucket."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    lo = np.searchsorted(cum, edges[:-1], side="right")
    hi = np.searchsorted(cum, edges[1:], side="left")
    return np.where(lo == hi, np.minimum(lo, last), -1)


def _guided_cells(
    cum: np.ndarray, last, guide: np.ndarray, bucket: np.ndarray, uniforms: Callable
) -> np.ndarray:
    """inverse_cdf of the uniforms whose guide buckets are ``bucket``: the
    table's answer, and the binary search of uniforms(at) at the flat
    positions ``at`` of split buckets."""
    idx = guide.take(bucket)
    split = np.flatnonzero(idx < 0)
    if split.size:
        idx.flat[split] = np.minimum(np.searchsorted(cum, uniforms(split), side="right"), last)
    return idx


def inverse_cdf(cum: np.ndarray, u) -> np.ndarray:
    """Cell index of each uniform in u under the cumulative weights cum. A u
    at or above cum[-1], which rounding allows, maps to the last cell of
    positive weight, never to a trailing cell of zero weight.

    Equal to np.minimum(np.searchsorted(cum, u, "right"), last positive
    cell) element for element; batches of uniforms in [0, 1) go through the
    guide table of the module docstring first."""
    u = np.asarray(u)
    last = np.searchsorted(cum, cum[-1])
    # a NaN fails both comparisons and takes the plain search
    if u.size < _GUIDE_BUCKETS or not (u.min() >= 0 and u.max() < 1):
        return np.minimum(np.searchsorted(cum, u, side="right"), last)
    bucket = (u * _GUIDE_BUCKETS).astype(np.intp)
    return _guided_cells(cum, last, _guide_table(cum, last), bucket, lambda at: u.flat[at])


def _word_uniforms(words: np.ndarray) -> np.ndarray:
    """Generator.random's uniform of each raw PCG64 word w: (w >> 11) * 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


# The words one cell_counts block holds (whole rows, at least one): small
# enough to stay in cache, large enough for the guide table to pay.
_COUNT_BLOCK = 1 << 15
# A word's guide bucket: w >> 52 is floor(u * 2**12) for its uniform u.
_BUCKET_SHIFT = np.uint64(64 - 12)


def cell_counts(
    cum: np.ndarray, trials: int, n: int, words: Callable[[int, int], np.ndarray]
) -> np.ndarray:
    """Occurrences of each cell per row of n uniforms: a trials x len(cum)
    int64 matrix whose row r counts the inverse_cdf cells of row r.

    The uniforms come as raw PCG64 words (see _word_uniforms): words(r, rows)
    returns rows r .. r + rows - 1 as a rows x n uint64 array, called for
    r = 0, rows, 2 * rows, ... in order with rows * n at most _COUNT_BLOCK
    (or one row); a PCG64's random_raw serves them from one stream. Only the
    words of split guide buckets are turned into uniforms."""
    n_cells = cum.shape[0]
    counts = np.empty((trials, n_cells), dtype=np.int64)
    rows = max(1, min(trials, _COUNT_BLOCK // max(n, 1)))
    last = np.searchsorted(cum, cum[-1])
    guide = _guide_table(cum, last) if trials * n >= _GUIDE_BUCKETS else None
    offsets = (np.arange(rows) * n_cells)[:, None]
    for r in range(0, trials, rows):
        block = words(r, min(rows, trials - r))
        if guide is None:
            idx = np.minimum(np.searchsorted(cum, _word_uniforms(block), side="right"), last)
        else:
            bucket = (block >> _BUCKET_SHIFT).view(np.int64)
            idx = _guided_cells(cum, last, guide, bucket, lambda at: _word_uniforms(block.flat[at]))
        idx += offsets[: len(block)]
        counts[r : r + len(block)] = np.bincount(
            idx.ravel(), minlength=len(block) * n_cells
        ).reshape(len(block), n_cells)
    return counts


def draw_sample(P: LabeledDistribution, n: int, seed: int) -> LabeledSample:
    """n iid draws from P via inverse CDF over the fixed (point, label) cell order.

    Cell order is point-major, label minor, matching P.weights.ravel(), so a
    given seed always produces the same sample.
    """
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = inverse_cdf(np.cumsum(P.weights.ravel()), rng.random(n))
    return LabeledSample(idx >> 1, idx & 1, n_points=P.size)


@dataclass(frozen=True)
class LearnerOutput:
    """A selected hypothesis plus the empirical value it achieved.

    ``tie_count`` is the number of class members achieving the same optimal
    empirical value; the returned member is the one with the lowest index.
    """

    hypothesis: Hypothesis
    index: int
    empirical_value: float
    tie_count: int


def _argmin_with_ties(values: np.ndarray) -> tuple[int, int]:
    best = values.min()
    ties = int((values == best).sum())
    return int(values.argmin()), ties


def _check_erm_inputs(H: HypothesisClass, S: LabeledSample) -> None:
    if len(H) == 0:
        raise EmptyClassError("ERM over an empty class")
    if len(S) == 0:
        raise EmptySampleError("ERM over an empty sample")
    if H.members[0].size != S.n_points:
        raise DomainMismatchError("class and sample domain sizes differ")


def _fewest_hits(
    H: HypothesisClass, S: LabeledSample, cells: np.ndarray, members=None
) -> LearnerOutput:
    """The member whose loss cells (rows x points x 2) the sample hits least;
    row r stands for member ``members[r]``, or member r when members is None."""
    hits = cells.reshape(len(cells), -1).astype(np.int64) @ S.counts().ravel()
    pos, ties = _argmin_with_ties(hits)
    idx = pos if members is None else int(members[pos])
    return LearnerOutput(H[idx], idx, int(hits[pos]) / len(S), ties)


def erm(H: HypothesisClass, S: LabeledSample, kind: LossKind) -> LearnerOutput:
    """Minimize the empirical loss of the given kind over the class."""
    _check_erm_inputs(H, S)
    return _fewest_hits(H, S, class_loss_table(kind, H))


def performative_erm(H: HypothesisClass, S: LabeledSample, graph: ManipulationGraph) -> LearnerOutput:
    """Minimize the empirical binary loss of the effective labeling.

    Scores each member by how its post-manipulation labeling performs; the
    returned hypothesis is the original member, not its effective labeling.
    """
    _check_erm_inputs(H, S)
    effective = H.labels_matrix() | class_component_matrix(H, graph)
    return _fewest_hits(H, S, loss_cells("binary", effective, None))


def ic_erm(H: HypothesisClass, S: LabeledSample, graph: ManipulationGraph) -> LearnerOutput:
    """Binary ERM restricted to the incentive compatible members of the class."""
    _check_erm_inputs(H, S)
    feasible = np.flatnonzero(~class_component_matrix(H, graph).any(axis=1))
    if feasible.size == 0:
        raise NoIncentiveCompatibleError("class has no incentive compatible member for this graph")
    cells = loss_cells("binary", H.labels_matrix()[feasible], None)
    return _fewest_hits(H, S, cells, feasible)


def _singleton_hypothesis(n_points: int, z: int) -> Hypothesis:
    """The singleton learner's output: accept point z, or nothing when z < 0."""
    labels = np.zeros(n_points, dtype=bool)
    if z < 0:
        return Hypothesis(labels, descriptor=("constant", 0))
    labels[z] = True
    return Hypothesis(labels, descriptor=("singleton", z))


def singleton_decisions(positive: np.ndarray, targets: Sequence[int]) -> tuple:
    """The singleton learner on many samples at once.

    Row r of ``positive`` (samples x points) marks the points that sample r
    shows with label 1. Returns (accepted, broken): the point whose
    singleton the learner returns for each row, -1 for the all-zeros
    labeling, and which rows break realizability (a positive point off the
    targets, or two positive targets); ``accepted`` means nothing there.
    """
    on_target = np.zeros(positive.shape[1], dtype=bool)
    on_target[[int(v) for v in targets if 0 <= int(v) < on_target.size]] = True
    n_positive = positive.sum(axis=1)
    broken = (positive & ~on_target).any(axis=1) | (n_positive > 1)
    accepted = np.where(n_positive > 0, positive.argmax(axis=1), -1)
    return accepted, broken


def singleton_learner(S: LabeledSample, targets: Sequence[int]) -> Hypothesis:
    """Learner for singleton classes over designated target points.

    Under realizability at most one target can carry positive labels. If the
    sample shows a positive target, the singleton accepting exactly that
    point is returned; otherwise the all-zeros labeling is. A positive label
    on a non-target point, or on two distinct targets, violates the
    realizability precondition and is rejected. This is the one-row view of
    singleton_decisions.
    """
    positive = S.counts()[:, 1] > 0
    accepted, broken = singleton_decisions(positive[None, :], targets)
    if broken[0]:
        target_set = set(int(v) for v in targets)
        positives = np.flatnonzero(positive).tolist()
        outside = [x for x in positives if x not in target_set]
        if outside:
            raise RealizabilityError(f"positive labels on non-target points {outside}")
        raise RealizabilityError(
            f"positive labels on {len(positives)} distinct targets: {positives}"
        )
    return _singleton_hypothesis(S.n_points, int(accepted[0]))
