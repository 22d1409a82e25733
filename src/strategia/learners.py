"""Sampling and empirical risk minimization over finite hypothesis classes.

Seed discipline: every Monte Carlo trial t of a run with master seed m uses
trial_seed(m, t) = m XOR splitmix64(t), where splitmix64 is the standard
64-bit mixing function. Streams come from numpy's PCG64, which is stable
across platforms for a fixed seed. Ties in every argmin are broken by the
lowest class index and the number of tied members is reported.
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


def inverse_cdf(cum: np.ndarray, u) -> np.ndarray:
    """Cell index of each uniform in u under the cumulative weights cum. A u
    at or above cum[-1], which rounding allows, maps to the last cell of
    positive weight, never to a trailing cell of zero weight."""
    return np.minimum(np.searchsorted(cum, u, side="right"), np.searchsorted(cum, cum[-1]))


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
    return _fewest_hits(H, S, loss_cells(LossKind.binary(), effective, None))


def ic_erm(H: HypothesisClass, S: LabeledSample, graph: ManipulationGraph) -> LearnerOutput:
    """Binary ERM restricted to the incentive compatible members of the class."""
    _check_erm_inputs(H, S)
    feasible = np.flatnonzero(~class_component_matrix(H, graph).any(axis=1))
    if feasible.size == 0:
        raise NoIncentiveCompatibleError("class has no incentive compatible member for this graph")
    cells = loss_cells(LossKind.binary(), H.labels_matrix()[feasible], None)
    return _fewest_hits(H, S, cells, feasible)


def singleton_learner(S: LabeledSample, targets: Sequence[int]) -> Hypothesis:
    """Learner for singleton classes over designated target points.

    Under realizability at most one target can carry positive labels. If the
    sample shows a positive target, the singleton accepting exactly that
    point is returned; otherwise the all-zeros labeling is. A positive label
    on a non-target point, or on two distinct targets, violates the
    realizability precondition and is rejected.
    """
    target_set = set(int(v) for v in targets)
    positives = {int(x) for x, y in S if y == 1}
    outside = positives - target_set
    if outside:
        raise RealizabilityError(
            f"positive labels on non-target points {sorted(outside)}"
        )
    if len(positives) > 1:
        raise RealizabilityError(
            f"positive labels on {len(positives)} distinct targets: {sorted(positives)}"
        )
    labels = np.zeros(S.n_points, dtype=bool)
    if positives:
        z = positives.pop()
        labels[z] = True
        return Hypothesis(labels, descriptor=("singleton", z))
    return Hypothesis(labels, descriptor=("constant", 0))
