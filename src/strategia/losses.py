"""Pointwise and expected losses for classification under a manipulation graph.

Three pointwise losses:

* binary: h(x) != y.
* strategic: charged when h(x) != y, or when h(x) = 0 and some successor of x
  is labeled 1 (a rejected agent that can move to an accepted point will).
  The two failure cases are not mutually exclusive.
* strategic component: only the second case above; it ignores the label, so
  its expectation is taken over the point marginal.

The strategic loss is dominated pointwise by binary + component, which is
what the surrogate bounds in graphdist build on.

Class-level work has one representation, the members x points component
matrix of ``class_component_matrix``. The same reach kernel, run on observed
target sets instead of successor sets, gives the observed side of the graph
loss; run hop by hop on members x points frontiers, it is the backward BFS
of ``class_social_burden``, whose one-row view is ``social_burden``.
``loss_cells`` derives the loss of every (point, label) cell from labels and
component losses, for one row or a whole matrix. The one-row functions
(``reach_positive``, ``component_vector``, ``loss_table``, the scalar
losses) are plain specifications of the same quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import (
    CostModel,
    FiniteDomain,
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
    UndefinedBurdenError,
)


@dataclass(frozen=True)
class LossKind:
    """Tagged loss selector: binary, strategic(graph), or component(graph)."""

    kind: str
    graph: Optional[ManipulationGraph] = None

    _KINDS = ("binary", "strategic", "component")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "binary" and self.graph is not None:
            raise ValueError("binary loss takes no graph")
        if self.kind != "binary" and self.graph is None:
            raise ValueError(f"{self.kind} loss needs a manipulation graph")

    @classmethod
    def binary(cls) -> "LossKind":
        return cls("binary")

    @classmethod
    def strategic(cls, graph: ManipulationGraph) -> "LossKind":
        return cls("strategic", graph)

    @classmethod
    def component(cls, graph: ManipulationGraph) -> "LossKind":
        return cls("component", graph)

    def __repr__(self) -> str:
        return f"LossKind({self.kind})"


def _check_pair(h: Hypothesis, graph: ManipulationGraph) -> None:
    if h.size != graph.size:
        raise DomainMismatchError(
            f"hypothesis over {h.size} points, graph over {graph.size}"
        )


def reach_positive(h: Hypothesis, graph: ManipulationGraph) -> np.ndarray:
    """Boolean vector: point x has some successor labeled 1 by h."""
    _check_pair(h, graph)
    return (graph.adj & h.labels[None, :]).any(axis=1)


def component_vector(h: Hypothesis, graph: ManipulationGraph) -> np.ndarray:
    """Pointwise strategic component loss of h as a boolean vector."""
    return ~h.labels & reach_positive(h, graph)


def _reaches_accepted(L: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """Members x rows: whether row r of the boolean successor matrix holds a
    point that the member accepts."""
    # The float32 product is exact in any summation order: every partial sum
    # counts at most n accepted successors, FiniteDomain caps n at
    # MAX_DENSE_POINTS = 4096, and float32 holds every integer below 2**24.
    return (L.astype(np.float32) @ succ.T.astype(np.float32)) > 0


def class_component_matrix(H: HypothesisClass, graph: ManipulationGraph) -> np.ndarray:
    """Component loss vectors for every member, shape (len(H), n)."""
    L = H.labels_matrix()
    if L.shape[1] != graph.size:
        raise DomainMismatchError("class and graph domain sizes differ")
    return ~L & _reaches_accepted(L, graph.adj)


def observed_component_matrix(
    H: HypothesisClass, xs: np.ndarray, observed: Sequence[frozenset]
) -> np.ndarray:
    """Component loss against observed target sets, shape (len(H), len(xs)):
    the member rejects point xs[k] and accepts some point of observed[k]."""
    L = H.labels_matrix()
    succ = np.zeros((len(observed), L.shape[1]), dtype=bool)
    rows = np.repeat(np.arange(len(observed)), [len(b) for b in observed])
    succ[rows, [v for b in observed for v in b]] = True
    return ~L[:, xs] & _reaches_accepted(L, succ)


def binary_loss(h: Hypothesis, x: int, y: int) -> int:
    return int(h(x) != y)


def strategic_loss(h: Hypothesis, x: int, y: int, graph: ManipulationGraph) -> int:
    return int(strategic_component_loss(h, x, graph) or h(x) != y)


def strategic_component_loss(h: Hypothesis, x: int, graph: ManipulationGraph) -> int:
    _check_pair(h, graph)
    return int(h(x) == 0 and bool((graph.adj[x] & h.labels).any()))


def loss_cells(kind: LossKind, labels: np.ndarray, comp: Optional[np.ndarray]) -> np.ndarray:
    """Loss of every (point, label) cell, shape labels.shape + (2,), from the
    acceptance labels and the component losses (unused by the binary kind).
    Both may be one row or a members x points matrix."""
    if kind.kind == "binary":
        cells = (labels, ~labels)
    elif kind.kind == "component":
        cells = (comp, comp)
    else:
        cells = (labels | comp, ~labels | comp)
    return np.stack(cells, axis=-1)


def loss_table(kind: LossKind, h: Hypothesis) -> np.ndarray:
    """Pointwise loss of h on every (point, label) cell, shape (n, 2) uint8."""
    comp = None if kind.kind == "binary" else component_vector(h, kind.graph)
    return loss_cells(kind, h.labels, comp).astype(np.uint8)


def class_loss_table(kind: LossKind, H: HypothesisClass) -> np.ndarray:
    """Pointwise loss of every member on every cell, shape (len(H), n, 2) bool."""
    comp = None if kind.kind == "binary" else class_component_matrix(H, kind.graph)
    return loss_cells(kind, H.labels_matrix(), comp)


def expected_rows(
    kind: LossKind, labels: np.ndarray, comp: Optional[np.ndarray], P: LabeledDistribution
) -> np.ndarray:
    """Expected loss of every row of members x points labels and component
    losses. Each row takes its own dot product, the reduction expected_loss
    uses; a matrix-vector product may sum in another order."""
    if kind.kind == "component":
        w, rows = P.marginal(), comp
    else:
        w, rows = P.weights.ravel(), loss_cells(kind, labels, comp).reshape(len(labels), -1)
    return np.array([w @ row for row in rows])


def expected_loss(kind: LossKind, h: Hypothesis, P: LabeledDistribution) -> float:
    """Exact expectation of the pointwise loss under P.

    The component kind is an expectation over the point marginal only; the
    label plays no role in it.
    """
    if h.size != P.size:
        raise DomainMismatchError("hypothesis and distribution domain sizes differ")
    if kind.kind == "component":
        comp = component_vector(h, kind.graph)
        return float(P.marginal() @ comp)
    return float(P.weights.ravel() @ loss_table(kind, h).ravel())


def empirical_loss(kind: LossKind, h: Hypothesis, S: LabeledSample) -> float:
    """Mean pointwise loss over the sample items."""
    if len(S) == 0:
        raise EmptySampleError("empirical loss over an empty sample")
    if h.size != S.n_points:
        raise DomainMismatchError("hypothesis and sample domain sizes differ")
    hits = int(S.counts().ravel() @ loss_table(kind, h).ravel())
    return hits / len(S)


def effective_hypothesis(h: Hypothesis, graph: ManipulationGraph) -> Hypothesis:
    """The labeling agents actually receive after best response.

    A point is effectively accepted when h accepts it, or when it has some
    successor h accepts (the agent moves there). No descriptor is carried
    over since the result is generally not in the original family.
    """
    return Hypothesis(h.labels | reach_positive(h, graph))


def is_incentive_compatible(h: Hypothesis, graph: ManipulationGraph) -> bool:
    """True when no point has any incentive to move, i.e. component loss is 0 everywhere."""
    return not component_vector(h, graph).any()


@dataclass(frozen=True)
class SocialBurden:
    """Cost borne by truly positive points to get accepted.

    ``conditional`` is the expectation of the min acceptance cost given y=1;
    ``numerator`` is the same sum left unnormalized by the positive mass.
    Either may be math.inf when some positive-mass point cannot reach any
    accepted point.
    """

    conditional: float
    numerator: float


def _burden_rows(costs: np.ndarray, P: LabeledDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(conditional, numerator) of every row of a rows x points cost matrix.

    The numerator adds w * cost over the positive-weight points from left to
    right, the order of a plain loop; np.sum and a matrix-vector product may
    sum in another order. Zero-weight points are left out, so an unreachable
    one (cost inf) gives no nan."""
    w = P.weights[:, 1]
    positive_mass = float(w.sum())
    if positive_mass <= 0.0:
        raise UndefinedBurdenError("no positive-label mass: burden undefined")
    positive = w > 0.0
    numerator = np.cumsum(w[positive] * costs[:, positive], axis=1)[:, -1]
    return numerator / positive_mass, numerator


def class_social_burden(
    H: HypothesisClass, P: LabeledDistribution, graph: ManipulationGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-edge social burden of every member: (conditional, numerator)
    arrays of length len(H), as social_burden gives them one member at a time.

    One backward BFS from every member's accepted points at once: a point
    joins hop k when one of its successors was reached at hop k - 1. Raises
    UndefinedBurdenError when P has no positive-label mass, for every member.
    """
    L = H.labels_matrix()
    if L.shape[1] != P.size:
        raise DomainMismatchError("class and distribution domain sizes differ")
    if L.shape[1] != graph.size:
        raise DomainMismatchError("class and graph domain sizes differ")
    dist = np.where(L, 0.0, math.inf)
    frontier = L
    steps = 0
    while frontier.any():
        steps += 1
        frontier = _reaches_accepted(frontier, graph.adj) & (dist == math.inf)
        dist[frontier] = steps
    return _burden_rows(dist, P)


def social_burden(
    h: Hypothesis,
    P: LabeledDistribution,
    graph: Optional[ManipulationGraph] = None,
    cost_model: Optional[CostModel] = None,
) -> SocialBurden:
    """Expected minimum acceptance cost over truly positive points.

    With a cost model, the cost at x is min over accepted points x' of
    cost(x, x') (zero when x itself is accepted). Without one, unit edge
    costs are used: the cost is the shortest-path hop count in the graph to
    the nearest accepted point, so a graph is required; this is the one-row
    view of class_social_burden.
    """
    if h.size != P.size:
        raise DomainMismatchError("hypothesis and distribution domain sizes differ")
    if cost_model is not None:
        n = h.size
        accepted = h.positives()
        costs = np.full(n, math.inf)
        for x in range(n):
            for xp in accepted:
                c = cost_model.cost(x, int(xp))
                if c < costs[x]:
                    costs[x] = c
        conditional, numerator = _burden_rows(costs[None, :], P)
    else:
        if graph is None:
            raise ValueError("social_burden needs a graph when no cost model is given")
        _check_pair(h, graph)
        conditional, numerator = class_social_burden(HypothesisClass([h]), P, graph)
    return SocialBurden(conditional=float(conditional[0]), numerator=float(numerator[0]))


def approximation_error(H: HypothesisClass, P: LabeledDistribution, kind: LossKind) -> float:
    """Least achievable expected loss over the class."""
    if len(H) == 0:
        raise EmptyClassError("approximation error over an empty class")
    if H.members[0].size != P.size:
        raise DomainMismatchError("class and distribution domain sizes differ")
    comp = None if kind.kind == "binary" else class_component_matrix(H, kind.graph)
    return float(expected_rows(kind, H.labels_matrix(), comp, P).min())
