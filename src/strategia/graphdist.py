"""Surrogate-graph analysis: graph loss, class distances, bounds, and learning.

When the deployed graph is unknown, a candidate graph can stand in for it.
The pointwise graph loss charges a rejected point when the observed target
set and the candidate's successor set disagree about whether an accepted
point is reachable; summed against a class, this yields a distance between
graphs under which strategic losses transfer with an additive penalty. Its
literal two-case form is ``oracles.oracle_graph_loss``; here it is only
computed class-wide, by comparing two members x items component matrices.

Samples here are (point, observed target set) pairs. Serialization is one
record per line: point_index<TAB>comma-separated sorted neighbor indices,
with an empty neighbor field allowed, UTF-8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .domain import (
    FiniteDomain,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    ManipulationGraph,
)
from .errors import (
    BoundViolationError,
    DomainMismatchError,
    EmptyClassError,
    EmptySampleError,
    InvalidGraphSampleError,
    NotInClassError,
)
from .losses import (
    LossKind,
    _component_rows,
    class_component_matrix,
    expected_rows,
    observed_component_matrix,
)
from .learners import _argmin_with_ties, inverse_cdf

BOUND_TOL = 1e-12


def _check_record(x: int, bs: frozenset, n_points: int, targets_checked: bool = False) -> None:
    """Point range, then target range (skipped when ``targets_checked``),
    then no self-loop."""
    if not 0 <= x < n_points:
        raise InvalidGraphSampleError(f"point index {x} out of range")
    if not targets_checked:
        for v in bs:
            if not 0 <= v < n_points:
                raise InvalidGraphSampleError(f"target index {v} out of range")
    if x in bs:
        raise InvalidGraphSampleError(f"observed target set of point {x} contains the point itself")


class GraphSample:
    """An ordered sequence of (point index, observed target set) pairs.

    A target set given as a frozenset is kept as it is, so a sample drawn
    from a graph shares the graph's ``neighbor_sets()`` objects, and the
    targets of each shared set object are range-checked once.
    """

    def __init__(self, xs, bsets: Sequence[frozenset], n_points: int):
        xa = np.asarray(xs, dtype=np.int64)
        if xa.ndim != 1 or xa.size != len(bsets):
            raise InvalidGraphSampleError("xs and bsets must be equal-length 1-d sequences")
        frozen = []
        checked = set()  # ids of set objects whose targets are in range; frozen keeps them alive
        for x, b in zip(xa, bsets):
            bs = b if isinstance(b, frozenset) else frozenset(int(v) for v in b)
            _check_record(int(x), bs, n_points, id(bs) in checked)
            checked.add(id(bs))
            frozen.append(bs)
        xa.setflags(write=False)
        self.xs = xa
        self.bsets: tuple[frozenset, ...] = tuple(frozen)
        self.n_points = int(n_points)

    def __len__(self) -> int:
        return int(self.xs.size)

    def __iter__(self) -> Iterator[tuple[int, frozenset]]:
        return ((int(x), b) for x, b in zip(self.xs, self.bsets))

    def __repr__(self) -> str:
        return f"GraphSample(n={len(self)}, points={self.n_points})"


def draw_graph_sample(
    marginal: np.ndarray, graph: ManipulationGraph, n: int, seed: int
) -> GraphSample:
    """n iid point draws from the marginal, each paired with its true successor set."""
    m = np.asarray(marginal, dtype=float)
    if m.ndim != 1 or m.shape[0] != graph.size:
        raise DomainMismatchError("marginal length does not match graph size")
    if (m < 0).any() or not np.all(np.isfinite(m)):
        raise ValueError("marginal must be finite nonnegative")
    total = float(m.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"marginal sums to {total!r}, expected 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = inverse_cdf(np.cumsum(m), rng.random(n))
    nsets = graph.neighbor_sets()
    return GraphSample(xs, [nsets[int(x)] for x in xs], n_points=graph.size)


def write_graph_sample(sample: GraphSample, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x, b in sample:
            fh.write(f"{x}\t{','.join(str(v) for v in sorted(b))}\n")


def read_graph_sample(path, n_points: int) -> GraphSample:
    """Read a sample file; a malformed line raises InvalidGraphSampleError("path:line: ...")."""
    xs: list[int] = []
    bsets: list[frozenset] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError("expected 2 tab-separated fields")
                x = int(parts[0])
                field = parts[1].strip()
                bs = frozenset(int(v) for v in field.split(",")) if field else frozenset()
                _check_record(x, bs, n_points)
            except ValueError as e:
                raise InvalidGraphSampleError(f"{path}:{lineno}: {e}") from e
            xs.append(x)
            bsets.append(bs)
    return GraphSample(np.asarray(xs, dtype=np.int64), bsets, n_points=n_points)


class GraphClass:
    """An ordered collection of distinct candidate graphs over one domain."""

    def __init__(self, graphs: Sequence[ManipulationGraph]):
        gs = tuple(graphs)
        if not gs:
            raise EmptyClassError("graph class needs at least one candidate")
        size = gs[0].size
        seen = set()
        for g in gs:
            if g.size != size:
                raise DomainMismatchError("candidate graphs live on different domains")
            key = g.adj.tobytes()
            if key in seen:
                raise ValueError("candidate graphs must be distinct")
            seen.add(key)
        self.graphs = gs

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[ManipulationGraph]:
        return iter(self.graphs)

    def __getitem__(self, i: int) -> ManipulationGraph:
        return self.graphs[i]

    def __repr__(self) -> str:
        return f"GraphClass({len(self.graphs)} graphs over n={self.graphs[0].size})"


def hpx_distance(
    g1: ManipulationGraph,
    g2: ManipulationGraph,
    H: HypothesisClass,
    marginal: np.ndarray,
) -> float:
    """Class-and-marginal distance between graphs.

    The largest, over class members, expected absolute difference between
    the member's component losses under the two graphs. A pseudometric: two
    distinct graphs are at distance zero when no member's component loss can
    tell them apart on the marginal's support.
    """
    if len(H) == 0:
        raise EmptyClassError("distance over an empty class")
    if g1.size != g2.size:
        raise DomainMismatchError("graphs live on different domains")
    m = np.asarray(marginal, dtype=float)
    if m.shape != (g1.size,):
        raise DomainMismatchError("marginal length does not match graph size")
    c1 = class_component_matrix(H, g1)
    c2 = class_component_matrix(H, g2)
    per_member = (c1 != c2).astype(float) @ m
    return float(per_member.max())


def _grouped_obs(H: HypothesisClass, S: GraphSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct sample items: their points, multiplicities, and per-member
    observed-side component indicators (rejected point with an accepted
    observed target)."""
    groups = Counter(S)
    xs = np.array([x for x, _ in groups], dtype=np.int64)
    counts = np.array(list(groups.values()), dtype=np.int64)
    return xs, counts, observed_component_matrix(H, xs, [b for _, b in groups])


def _graph_hits(H: HypothesisClass, candidate: ManipulationGraph, grouped) -> np.ndarray:
    """Per-member graph-loss counts of the candidate on the grouped sample."""
    xs, counts, obs = grouped
    return (obs != class_component_matrix(H, candidate)[:, xs]).astype(np.int64) @ counts


def empirical_sample_distance(
    candidate: ManipulationGraph,
    H: HypothesisClass,
    S: GraphSample,
) -> float:
    """Largest, over members, mean graph loss of the candidate on the sample.

    The sample's own observed target sets are the reference, so no reference
    graph is needed; graph ERM minimizes exactly this quantity.
    """
    if len(H) == 0:
        raise EmptyClassError("distance over an empty class")
    if len(S) == 0:
        raise EmptySampleError("empirical distance over an empty sample")
    if candidate.size != S.n_points:
        raise DomainMismatchError("sample domain size mismatch")
    return int(_graph_hits(H, candidate, _grouped_obs(H, S)).max()) / len(S)


@dataclass(frozen=True)
class GraphLearnerOutput:
    """Selected candidate graph plus the empirical distance it achieved.

    ``tie_count`` counts candidates achieving the optimum; ties are resolved
    by the lowest class index. A tie count above 1 flags degeneracy (e.g. a
    hypothesis class that cannot distinguish the candidates).
    """

    graph: ManipulationGraph
    index: int
    empirical_value: float
    tie_count: int


def graph_erm(G: GraphClass, H: HypothesisClass, S: GraphSample) -> GraphLearnerOutput:
    """Pick the candidate minimizing the empirical distance to the sample.

    The sample's own observed target sets are the reference; no reference
    graph is required. Integer hit counts make tie detection exact.
    """
    if len(H) == 0:
        raise EmptyClassError("graph ERM over an empty hypothesis class")
    if len(S) == 0:
        raise EmptySampleError("graph ERM over an empty sample")
    grouped = _grouped_obs(H, S)
    hits = np.array([_graph_hits(H, g, grouped).max() for g in G])
    idx, ties = _argmin_with_ties(hits)
    return GraphLearnerOutput(G[idx], idx, int(hits[idx]) / len(S), ties)


@dataclass(frozen=True)
class SurrogateBoundReport:
    """Exact loss transfer quantities for one hypothesis and a surrogate graph.

    upper1 = binary + surrogate_component + distance,
    upper2 = 2 * surrogate_strategic + distance,
    lower = surrogate_strategic / 2 - distance (as asserted),
    lower_tight = surrogate_strategic / 2 - distance / 2 (reported only).
    The chain lower <= true_strategic <= upper1 <= upper2 is validated at
    construction up to numeric tolerance.
    """

    true_strategic: float
    binary: float
    surrogate_component: float
    surrogate_strategic: float
    distance: float
    upper1: float
    upper2: float
    lower: float
    lower_tight: float

    def __post_init__(self):
        checks = (
            ("lower <= true_strategic", self.lower, self.true_strategic),
            ("true_strategic <= upper1", self.true_strategic, self.upper1),
            ("upper1 <= upper2", self.upper1, self.upper2),
        )
        for name, lo, hi in checks:
            if lo > hi + BOUND_TOL:
                raise BoundViolationError(f"{name} failed: {lo!r} > {hi!r}")

    def min_slack(self) -> float:
        return min(
            self.true_strategic - self.lower,
            self.upper1 - self.true_strategic,
            self.upper2 - self.upper1,
        )


def surrogate_bounds(
    h: Hypothesis,
    true_graph: ManipulationGraph,
    candidate: ManipulationGraph,
    H: HypothesisClass,
    P: LabeledDistribution,
) -> SurrogateBoundReport:
    """Evaluate the loss transfer chain for h with the candidate as surrogate.

    h must belong to H: the distance term is a supremum over the class, so
    the chain is only guaranteed for members.
    """
    if H.index_of(h) is None:
        raise NotInClassError("hypothesis is not a member of the supplied class")
    labels = h.labels[None, :]
    true_comp = _component_rows(labels, true_graph)
    cand_comp = _component_rows(labels, candidate)

    def expected(kind: LossKind, comp) -> float:
        return float(expected_rows(kind, labels, comp, P)[0])

    true_strategic = expected(LossKind.strategic(true_graph), true_comp)
    binary = expected(LossKind.binary(), None)
    surrogate_component = expected(LossKind.component(candidate), cand_comp)
    surrogate_strategic = expected(LossKind.strategic(candidate), cand_comp)
    distance = hpx_distance(true_graph, candidate, H, P.marginal())
    return SurrogateBoundReport(
        true_strategic=true_strategic,
        binary=binary,
        surrogate_component=surrogate_component,
        surrogate_strategic=surrogate_strategic,
        distance=distance,
        upper1=binary + surrogate_component + distance,
        upper2=2.0 * surrogate_strategic + distance,
        lower=0.5 * surrogate_strategic - distance,
        lower_tight=0.5 * surrogate_strategic - 0.5 * distance,
    )
