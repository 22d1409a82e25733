"""Expected and empirical losses for classification under a manipulation graph.

Three pointwise losses, whose literal definitions live in ``oracles``:

* binary: h(x) != y.
* strategic: charged when h(x) != y, or when h(x) = 0 and some successor of x
  is labeled 1 (a rejected agent that can move to an accepted point will).
  The two failure cases are not mutually exclusive.
* strategic component: only the second case above; it ignores the label, so
  its expectation is taken over the point marginal.

The strategic loss is dominated pointwise by binary + component, which is
what the surrogate bounds in graphdist build on.

All loss work goes through one representation, the rows x points component
matrix of ``_component_rows``; ``class_component_matrix`` is that matrix for
a whole class. The same reach kernel, run on observed target sets instead of
successor sets, gives the observed side of the graph loss; run hop by hop on
members x points frontiers, it is the backward BFS of
``class_social_burden``. ``loss_cells`` derives the loss of every (point,
label) cell from labels and component losses. The one-hypothesis functions
(``expected_loss``, ``empirical_loss``, ``effective_hypothesis``,
``is_incentive_compatible``, ``social_burden``) are views of the same
kernels on a one-row matrix.
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


def _reaches_accepted(L: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """Members x rows: whether row r of the boolean successor matrix holds a
    point that the member accepts. Both may be stacked over leading axes."""
    # The float32 product is exact in any summation order: every partial sum
    # counts at most n accepted successors, FiniteDomain caps n at
    # MAX_DENSE_POINTS = 4096, and float32 holds every integer below 2**24.
    return (L.astype(np.float32) @ np.swapaxes(succ, -1, -2).astype(np.float32)) > 0


def _component_rows(L: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Component losses of every row of a rows x points labels matrix under
    the graph of adjacency adj: the row rejects the point and accepts one of
    its successors. Both may be stacked over leading axes."""
    if L.shape[-1] != adj.shape[-1]:
        raise DomainMismatchError("class and graph domain sizes differ")
    return ~L & _reaches_accepted(L, adj)


def class_component_matrix(H: HypothesisClass, graph: ManipulationGraph) -> np.ndarray:
    """Component loss vectors for every member, shape (len(H), n)."""
    return _component_rows(H.labels_matrix(), graph.adj)


def _one_row(kind: LossKind, h: Hypothesis) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """h's labels as a one-row matrix, and its component row unless the kind
    is binary."""
    labels = h.labels[None, :]
    return labels, None if kind.kind == "binary" else _component_rows(labels, kind.graph.adj)


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


def loss_cells(kind: str, labels: np.ndarray, comp: Optional[np.ndarray]) -> np.ndarray:
    """Loss of every (point, label) cell, shape labels.shape + (2,), from the
    acceptance labels and the component losses (unused by the binary kind).
    kind is a LossKind's name; labels and comp may be one row, a members x
    points matrix or a stack of them."""
    if kind == "binary":
        cells = (labels, ~labels)
    elif kind == "component":
        cells = (comp, comp)
    else:
        cells = (labels | comp, ~labels | comp)
    out = np.empty(labels.shape + (2,), dtype=bool)  # np.stack costs more on one row
    out[..., 0], out[..., 1] = cells
    return out


def class_loss_table(kind: LossKind, H: HypothesisClass) -> np.ndarray:
    """Pointwise loss of every member on every cell, shape (len(H), n, 2) bool."""
    comp = None if kind.kind == "binary" else class_component_matrix(H, kind.graph)
    return loss_cells(kind.kind, H.labels_matrix(), comp)


def _expected(
    kind: str, labels: np.ndarray, comp: Optional[np.ndarray], weights: np.ndarray
) -> np.ndarray:
    """Expected loss of every row of rows x points labels and component
    losses under (points, 2) cell weights, all stacked alike over leading
    axes. Each row takes its own dot product, a 1 x K by K x 1 item of one
    stacked product; a matrix-vector product may sum in another order.

    The component kind is an expectation over the point marginal only; the
    label plays no role in it.
    """
    if kind == "component":
        w, rows = weights.sum(axis=-1), comp
    else:
        w = weights.reshape(weights.shape[:-2] + (-1,))
        rows = loss_cells(kind, labels, comp).reshape(labels.shape[:-1] + (-1,))
    return (w[..., None, None, :] @ rows[..., None].astype(float))[..., 0, 0]


def expected_rows(
    kind: LossKind, labels: np.ndarray, comp: Optional[np.ndarray], P: LabeledDistribution
) -> np.ndarray:
    """Expected loss under P of every row of members x points labels and
    component losses (unused by the binary kind)."""
    if labels.shape[1] != P.size:
        raise DomainMismatchError("hypothesis and distribution domain sizes differ")
    return _expected(kind.kind, labels, comp, P.weights)


def expected_loss(kind: LossKind, h: Hypothesis, P: LabeledDistribution) -> float:
    """Exact expectation of the pointwise loss under P: the one-row view of
    expected_rows."""
    return float(expected_rows(kind, *_one_row(kind, h), P)[0])


def empirical_loss(kind: LossKind, h: Hypothesis, S: LabeledSample) -> float:
    """Mean pointwise loss over the sample items."""
    if len(S) == 0:
        raise EmptySampleError("empirical loss over an empty sample")
    if h.size != S.n_points:
        raise DomainMismatchError("hypothesis and sample domain sizes differ")
    hits = int(S.counts().ravel() @ loss_cells(kind.kind, *_one_row(kind, h))[0].ravel())
    return hits / len(S)


def effective_hypothesis(h: Hypothesis, graph: ManipulationGraph) -> Hypothesis:
    """The labeling agents actually receive after best response.

    A point is effectively accepted when h accepts it, or when it has some
    successor h accepts (the agent moves there). No descriptor is carried
    over since the result is generally not in the original family.
    """
    return Hypothesis(h.labels | _component_rows(h.labels[None, :], graph.adj)[0])


def is_incentive_compatible(h: Hypothesis, graph: ManipulationGraph) -> bool:
    """True when no point has any incentive to move, i.e. component loss is 0 everywhere."""
    return not _component_rows(h.labels[None, :], graph.adj).any()


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
        costs = np.where(h.labels, cost_model.matrix(h.size), math.inf).min(axis=1)
        conditional, numerator = _burden_rows(costs[None, :], P)
    else:
        if graph is None:
            raise ValueError("social_burden needs a graph when no cost model is given")
        conditional, numerator = class_social_burden(HypothesisClass([h]), P, graph)
    return SocialBurden(conditional=float(conditional[0]), numerator=float(numerator[0]))


def approximation_error(H: HypothesisClass, P: LabeledDistribution, kind: LossKind) -> float:
    """Least achievable expected loss over the class."""
    if len(H) == 0:
        raise EmptyClassError("approximation error over an empty class")
    comp = None if kind.kind == "binary" else class_component_matrix(H, kind.graph)
    return float(expected_rows(kind, H.labels_matrix(), comp, P).min())
