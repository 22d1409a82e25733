"""Sampling and empirical risk minimization over finite hypothesis classes.

Seed discipline: every Monte Carlo trial t of a run with master seed m uses
trial_seed(m, t) = m XOR splitmix64(t), where splitmix64 is the standard
64-bit mixing function. Streams come from numpy's PCG64, which is stable
across platforms for a fixed seed. Ties in every argmin are broken by the
lowest class index and the number of tied members is reported.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


_GUIDE_BUCKETS = 1 << 12


def _guide_table(cum: np.ndarray, last) -> np.ndarray:
    """The answer of inverse_cdf for every u in bucket k of [0, 1), or -1
    where a cumulative weight splits the bucket."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    lo = np.searchsorted(cum, edges[:-1], side="right")
    hi = np.searchsorted(cum, edges[1:], side="left")
    return np.where(lo == hi, np.minimum(lo, last), -1)


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
    idx = _guide_table(cum, last)[(u * _GUIDE_BUCKETS).astype(np.intp)]
    split = np.flatnonzero(idx < 0)
    if split.size:
        idx.flat[split] = np.minimum(np.searchsorted(cum, u.flat[split], side="right"), last)
    return idx


def cell_counts(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Occurrences of each cell per row of uniforms: u is trials x n, the
    result trials x len(cum), row r counting the inverse_cdf cells of u[r]."""
    trials = u.shape[0]
    n_cells = cum.shape[0]
    flat = inverse_cdf(cum, u).reshape(trials, -1)
    flat += (np.arange(trials) * n_cells)[:, None]
    return np.bincount(flat.ravel(), minlength=trials * n_cells).reshape(trials, n_cells)


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
