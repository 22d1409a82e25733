"""Sampling and empirical risk minimization over finite hypothesis classes.

draw_sample reads its draws from one seeded PCG64 stream through
strategia.rng, whose docstring states what every seeded sample is. Ties in
every argmin are broken by the lowest class index and the number of tied
members is reported.
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
from .rng import draw_cells


def draw_sample(P: LabeledDistribution, n: int, seed: int) -> LabeledSample:
    """n iid draws from P via inverse CDF over the fixed (point, label) cell order.

    Cell order is point-major, label minor, matching P.weights.ravel(), so a
    given seed always produces the same sample.
    """
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    idx = draw_cells(np.cumsum(P.weights.ravel()), n, seed)
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
