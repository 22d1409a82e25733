"""Sampling and empirical risk minimization over finite hypothesis classes.

Seed discipline: every Monte Carlo trial t of a run with master seed m uses
trial_seed(m, t) = m XOR splitmix64(t), where splitmix64 is the standard
64-bit mixing function, and draws from Generator(PCG64(trial_seed(m, t))).
PCG64 is stable across platforms for a fixed seed. Building one PCG64 per
trial costs more than a short trial's draws, so trial_generators sets the
trials up in bulk: trial_seeds computes a range of seeds at once, and numpy's
seeding (the SeedSequence hash of NEP 19, then the PCG64 seeding step of
O'Neill, "PCG", HMC-CS-2014-0905) is redone in uint32 / uint64 array
arithmetic for all of them. Each trial's (state, inc) is then assigned to
one reused PCG64, which therefore equals PCG64(trial_seed(m, t)) value for
value. The first use in a process checks the bulk set-up against numpy's
constructor and falls back to the constructor if they differ. Ties in every
argmin are broken by the lowest class index and the number of tied members
is reported.

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
cell_counts builds the table once and streams its rows of uniforms through
one block of about _COUNT_BLOCK values, so trials x n uniforms never exist
at once.
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


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(s).generate_state(4, np.uint64) for each 64-bit seed s,
    as four uint64 arrays (word i of every seed)."""
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    # A seed below 2**32 is one entropy word and a larger one two, but the
    # pool hashes a missing word as 0, so both read as the low, high, 0, 0.
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = [(seeds & _M32).astype(np.uint32), (seeds >> _S32).astype(np.uint32), zero, zero]
    pool = [hashmix(word) for word in entropy]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _SS_INIT_B
    out = []
    for i in range(2 * _SS_POOL):
        value = pool[i % _SS_POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        out.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [out[2 * i] | (out[2 * i + 1] << _S32) for i in range(_SS_POOL)]


def _mul_wide(x: np.ndarray, y: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) 64-bit words of the 128-bit products x * y, in 32-bit limbs."""
    x0, x1 = x & _M32, x >> _S32
    y0, y1 = y & _M32, y >> _S32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> _S32) + (p01 & _M32) + (p10 & _M32)
    return (mid << _S32) | (p00 & _M32), x1 * y1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _pcg64_states(seeds: np.ndarray) -> tuple[list, list, list, list]:
    """High and low words of the state and inc of PCG64(s) for each seed s,
    as lists of ints. PCG64 takes initstate = w0 * 2**64 + w1 and initseq =
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
    return state_hi.tolist(), state_lo.tolist(), inc_hi.tolist(), inc_lo.tolist()


def _pcg64_state(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


# Seeds whose bulk set-up is checked against numpy's constructor: the ends
# of the one- and two-word entropy ranges and one mixed value.
_SEEDING_CHECK = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0x9E3779B97F4A7C15)
_bulk_seeding_ok: Optional[bool] = None


def _bulk_seeding_matches() -> bool:
    """Whether the bulk set-up gives numpy's PCG64 states; checked once per
    process, at first use."""
    global _bulk_seeding_ok
    if _bulk_seeding_ok is None:
        hi, lo, inc_hi, inc_lo = _pcg64_states(np.array(_SEEDING_CHECK, dtype=np.uint64))
        _bulk_seeding_ok = all(
            np.random.PCG64(seed).state == _pcg64_state(h << 64 | l, ih << 64 | il)
            for seed, h, l, ih, il in zip(_SEEDING_CHECK, hi, lo, inc_hi, inc_lo)
        )
    return _bulk_seeding_ok


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
    for hi, lo, inc_hi, inc_lo in zip(*_pcg64_states(seeds)):
        bitgen.state = _pcg64_state(hi << 64 | lo, inc_hi << 64 | inc_lo)
        yield rng


_GUIDE_BUCKETS = 1 << 12


def _guide_table(cum: np.ndarray, last) -> np.ndarray:
    """The answer of inverse_cdf for every u in bucket k of [0, 1), or -1
    where a cumulative weight splits the bucket."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    lo = np.searchsorted(cum, edges[:-1], side="right")
    hi = np.searchsorted(cum, edges[1:], side="left")
    return np.where(lo == hi, np.minimum(lo, last), -1)


def _guided_cells(cum: np.ndarray, u: np.ndarray, last, guide: Optional[np.ndarray]) -> np.ndarray:
    """inverse_cdf of u, through the guide table when one is given and every
    u is in [0, 1); a NaN fails both comparisons and takes the plain search."""
    if guide is None or not (u.min() >= 0 and u.max() < 1):
        return np.minimum(np.searchsorted(cum, u, side="right"), last)
    idx = guide[(u * _GUIDE_BUCKETS).astype(np.intp)]
    split = np.flatnonzero(idx < 0)
    if split.size:
        idx.flat[split] = np.minimum(np.searchsorted(cum, u.flat[split], side="right"), last)
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
    guide = _guide_table(cum, last) if u.size >= _GUIDE_BUCKETS else None
    return _guided_cells(cum, u, last, guide)


# The uniforms one cell_counts block holds (whole rows, at least one): small
# enough to stay in cache, large enough for the guide table to pay.
_COUNT_BLOCK = 1 << 15


def cell_counts(
    cum: np.ndarray, trials: int, n: int, fill: Callable[..., object]
) -> np.ndarray:
    """Occurrences of each cell per row of n uniforms: a trials x len(cum)
    int64 matrix whose row r counts the inverse_cdf cells of row r.

    fill(out=u) writes the next u.shape[0] rows into the rows x n array u,
    in row order; a Generator's ``random`` fills them from one stream. The
    rows pass through one block of about _COUNT_BLOCK uniforms."""
    n_cells = cum.shape[0]
    counts = np.empty((trials, n_cells), dtype=np.int64)
    rows = max(1, min(trials, _COUNT_BLOCK // max(n, 1)))
    u = np.empty((rows, n))
    last = np.searchsorted(cum, cum[-1])
    guide = _guide_table(cum, last) if trials * n >= _GUIDE_BUCKETS else None
    offsets = (np.arange(rows) * n_cells)[:, None]
    for r in range(0, trials, rows):
        block = u[: min(rows, trials - r)]
        fill(out=block)
        idx = _guided_cells(cum, block, last, guide)
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
