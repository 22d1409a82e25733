"""Finite domains, manipulation graphs, hypothesis classes, and distributions.

Everything downstream works over a finite point set indexed 0..n-1. A
manipulation graph records, for each point, which points an agent sitting
there could move to; hypotheses are boolean labelings of the points; labeled
distributions put weights on (point, label) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import math

import numpy as np

from .errors import (
    DomainMismatchError,
    InvalidCostModelError,
    InvalidDistributionError,
    MissingCoordinatesError,
)

# Dense boolean adjacency is used throughout; keep instances desk-scale.
MAX_DENSE_POINTS = 4096

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteDomain:
    """A finite set of points, optionally embedded via per-point coordinates.

    Args:
        size: number of points; points are referred to by index 0..size-1.
        coords: optional (size, dim) float array of coordinates. Required by
            coordinate-based hypothesis families and cost models.
    """

    size: int
    coords: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 1:
            raise ValueError(f"domain size must be a positive int, got {self.size!r}")
        if self.size > MAX_DENSE_POINTS:
            raise ValueError(
                f"domain size {self.size} exceeds dense representation cap {MAX_DENSE_POINTS}"
            )
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float)
            if c.ndim == 1:
                c = c.reshape(-1, 1)
            if c.shape[0] != self.size:
                raise ValueError(
                    f"coords has {c.shape[0]} rows for domain of size {self.size}"
                )
            if not np.all(np.isfinite(c)):
                raise ValueError("coords must be finite")
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        if self.coords is None:
            raise MissingCoordinatesError("domain has no coordinates")
        return self.coords.shape[1]

    def coordinate(self, i: int, axis: int = 0) -> float:
        if self.coords is None:
            raise MissingCoordinatesError("domain has no coordinates")
        return float(self.coords[i, axis])

    def check_index(self, i: int) -> None:
        if not 0 <= i < self.size:
            raise ValueError(f"point index {i} out of range for domain size {self.size}")


@dataclass(frozen=True)
class CostModel:
    """Manipulation cost between ordered point pairs plus the gain threshold.

    The contract on ``fn``: finite, nonnegative, and zero on the diagonal.
    An edge is induced from i to j exactly when fn(i, j) <= gamma and i != j.
    """

    fn: Callable[[int, int], float]
    gamma: float

    def matrix(self, n: int) -> np.ndarray:
        """The n x n costs, ``fn`` called once per ordered pair. The first
        pair in row-major order that breaks the contract raises."""
        C = np.array([[float(self.fn(i, j)) for j in range(n)] for i in range(n)])
        bad = ~(np.isfinite(C) & (C >= 0.0)) | (np.eye(n, dtype=bool) & (C != 0.0))
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), n)
            c = float(C[i, j])
            if not math.isfinite(c) or c < 0.0:
                raise InvalidCostModelError(f"cost({i},{j}) = {c!r} is not finite nonnegative")
            raise InvalidCostModelError(f"cost({i},{i}) = {c!r}, expected 0")
        return C


def coordinate_norm_cost(domain: FiniteDomain, p: float = 2.0) -> Callable[[int, int], float]:
    """Cost function ||coords[i] - coords[j]||_p over a coordinate domain."""
    if domain.coords is None:
        raise MissingCoordinatesError("norm cost needs coordinates")
    coords = domain.coords

    def fn(i: int, j: int) -> float:
        diff = coords[i] - coords[j]
        if p == math.inf:
            return float(np.max(np.abs(diff)))
        return float(np.sum(np.abs(diff) ** p) ** (1.0 / p))

    return fn


class ManipulationGraph:
    """Directed graph over a finite domain; edge i -> j means i can move to j.

    Self-loops are never stored: staying put is always available and is not
    an edge. Supplying one explicitly is rejected as a construction mistake.
    """

    def __init__(self, domain: FiniteDomain, edges: Iterable[tuple[int, int]] = ()):
        self.domain = domain
        n = domain.size
        adj = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            domain.check_index(i)
            domain.check_index(j)
            if i == j:
                raise ValueError(f"self-loop {i}->{i} is not a valid edge")
            adj[i, j] = True
        adj.setflags(write=False)
        self.adj = adj
        self._neighbor_sets: Optional[tuple[frozenset[int], ...]] = None

    @classmethod
    def from_adjacency(cls, domain: FiniteDomain, adj: np.ndarray) -> "ManipulationGraph":
        a = np.asarray(adj, dtype=bool)
        if a.shape != (domain.size, domain.size):
            raise ValueError(f"adjacency shape {a.shape} does not match domain size {domain.size}")
        if a.diagonal().any():
            raise ValueError("adjacency contains self-loops")
        g = cls.__new__(cls)
        g.domain = domain
        a = a.copy()
        a.setflags(write=False)
        g.adj = a
        g._neighbor_sets = None
        return g

    @property
    def size(self) -> int:
        return self.domain.size

    def successors(self, i: int) -> np.ndarray:
        self.domain.check_index(i)
        return np.flatnonzero(self.adj[i])

    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        if self._neighbor_sets is None:
            self._neighbor_sets = tuple(
                frozenset(int(j) for j in np.flatnonzero(row)) for row in self.adj
            )
        return self._neighbor_sets

    def edges(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.adj))]

    def edge_count(self) -> int:
        return int(self.adj.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ManipulationGraph):
            return NotImplemented
        return self.size == other.size and np.array_equal(self.adj, other.adj)

    def __hash__(self) -> int:
        return hash((self.size, self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"ManipulationGraph(n={self.size}, edges={self.edge_count()})"


def induce_graph(domain: FiniteDomain, cost_model: CostModel) -> ManipulationGraph:
    """Build the graph with an edge i -> j exactly when cost(i, j) <= gamma, i != j."""
    n = domain.size
    adj = (cost_model.matrix(n) <= cost_model.gamma) & ~np.eye(n, dtype=bool)
    return ManipulationGraph.from_adjacency(domain, adj)


def _freeze_labels(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.dtype != bool:
        bad = ~np.isin(arr, (0, 1))
        if bad.any():
            raise ValueError("labels must be 0/1 valued")
        arr = arr.astype(bool)
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Hypothesis:
    """A boolean labeling of the domain points.

    ``descriptor`` optionally records how the labeling was generated, e.g.
    ("threshold", axis, a), ("halfspace", w, b), ("singleton", i),
    ("constant", v). Labels always agree with the descriptor; this is
    validated for coordinate-based descriptors at construction.
    """

    labels: np.ndarray
    descriptor: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "labels", _freeze_labels(self.labels))

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])

    def __call__(self, x: int) -> int:
        return int(self.labels[x])

    def positives(self) -> np.ndarray:
        return np.flatnonzero(self.labels)

    def label_key(self) -> bytes:
        return self.labels.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypothesis):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    def __hash__(self) -> int:
        return hash(self.label_key())

    def __repr__(self) -> str:
        tag = "" if self.descriptor is None else f", {self.descriptor!r}"
        bits = "".join("1" if b else "0" for b in self.labels[:16])
        if self.size > 16:
            bits += "..."
        return f"Hypothesis({bits}{tag})"


def _validate_descriptor(h: Hypothesis, domain: FiniteDomain) -> None:
    d = h.descriptor
    if d is None:
        return
    kind = d[0]
    if kind == "threshold":
        _, axis, a = d
        expect = domain.coords[:, axis] >= a
        if not np.array_equal(expect, h.labels):
            raise ValueError(f"threshold descriptor {d} disagrees with labels")
    elif kind == "halfspace":
        _, w, b = d
        expect = domain.coords @ np.asarray(w, dtype=float) + b >= 0.0
        if not np.array_equal(expect, h.labels):
            raise ValueError(f"halfspace descriptor {d} disagrees with labels")
    elif kind == "singleton":
        i = d[1]
        expect = np.zeros(domain.size, dtype=bool)
        expect[i] = True
        if not np.array_equal(expect, h.labels):
            raise ValueError(f"singleton descriptor {d} disagrees with labels")
    elif kind == "constant":
        v = bool(d[1])
        if not np.all(h.labels == v):
            raise ValueError(f"constant descriptor {d} disagrees with labels")


class HypothesisClass:
    """An ordered, dichotomy-deduplicated collection of hypotheses.

    Member order is construction order with the first occurrence of each
    distinct labeling kept, so classes built from deterministic sweeps are
    reproducible bit for bit.
    """

    def __init__(self, members: Iterable[Hypothesis], domain: Optional[FiniteDomain] = None):
        seen: dict[bytes, int] = {}
        kept: list[Hypothesis] = []
        for h in members:
            if domain is not None:
                if h.size != domain.size:
                    raise DomainMismatchError(
                        f"hypothesis over {h.size} points in class over {domain.size}"
                    )
                _validate_descriptor(h, domain)
            key = h.label_key()
            if key not in seen:
                seen[key] = len(kept)
                kept.append(h)
        self.members: tuple[Hypothesis, ...] = tuple(kept)
        self.domain = domain
        self._index = seen
        self._matrix: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Hypothesis]:
        return iter(self.members)

    def __getitem__(self, i: int) -> Hypothesis:
        return self.members[i]

    def index_of(self, h: Hypothesis) -> Optional[int]:
        return self._index.get(h.label_key())

    def labels_matrix(self) -> np.ndarray:
        """All labelings stacked to a (len, n) boolean matrix."""
        if self._matrix is None:
            m = np.array([h.labels for h in self.members], dtype=bool)
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    def find_descriptor(self, kind: str, *tail) -> Optional[Hypothesis]:
        for h in self.members:
            if h.descriptor is not None and h.descriptor[0] == kind:
                if not tail or tuple(h.descriptor[1:]) == tail:
                    return h
        return None

    def __repr__(self) -> str:
        return f"HypothesisClass({len(self.members)} members)"


def thresholds_class(domain: FiniteDomain, axis: int = 0) -> HypothesisClass:
    """One-sided thresholds h_a(x) = 1{coord(x) >= a} swept over the coordinate grid.

    Thresholds are placed at midpoints between consecutive distinct values
    plus one below the minimum (all ones) and one above the maximum (all
    zeros): a line with k distinct values yields exactly k+1 dichotomies.
    """
    if domain.coords is None:
        raise MissingCoordinatesError("thresholds need coordinates")
    values = np.unique(domain.coords[:, axis])
    cuts = [float(values[0]) - 0.5]
    cuts.extend(float(values[i] + values[i + 1]) / 2.0 for i in range(len(values) - 1))
    cuts.append(float(values[-1]) + 0.5)
    members = [
        Hypothesis(domain.coords[:, axis] >= a, descriptor=("threshold", axis, a))
        for a in cuts
    ]
    return HypothesisClass(members, domain)


def halfspace_class(
    domain: FiniteDomain,
    weights: Sequence[Sequence[float]],
    biases: Sequence[float],
) -> HypothesisClass:
    """Affine halfspaces h(x) = 1{w . x + b >= 0} over a weight and bias grid."""
    if domain.coords is None:
        raise MissingCoordinatesError("halfspaces need coordinates")
    members = []
    for w in weights:
        warr = np.asarray(w, dtype=float)
        if warr.shape != (domain.coords.shape[1],):
            raise ValueError(f"weight vector {w!r} does not match coordinate dim")
        for b in biases:
            labels = domain.coords @ warr + float(b) >= 0.0
            members.append(
                Hypothesis(labels, descriptor=("halfspace", tuple(float(v) for v in warr), float(b)))
            )
    return HypothesisClass(members, domain)


def singleton_class(domain: FiniteDomain, points: Optional[Sequence[int]] = None) -> HypothesisClass:
    """One hypothesis per chosen point, labeling exactly that point positive."""
    idx = range(domain.size) if points is None else points
    members = []
    for i in idx:
        domain.check_index(int(i))
        labels = np.zeros(domain.size, dtype=bool)
        labels[int(i)] = True
        members.append(Hypothesis(labels, descriptor=("singleton", int(i))))
    return HypothesisClass(members, domain)


def constant_class(domain: FiniteDomain) -> HypothesisClass:
    members = [
        Hypothesis(np.zeros(domain.size, dtype=bool), descriptor=("constant", 0)),
        Hypothesis(np.ones(domain.size, dtype=bool), descriptor=("constant", 1)),
    ]
    return HypothesisClass(members, domain)


def explicit_class(domain: FiniteDomain, label_rows: Iterable[Sequence[int]]) -> HypothesisClass:
    members = [Hypothesis(np.asarray(row)) for row in label_rows]
    return HypothesisClass(members, domain)


def enumerate_class(family: dict, domain: FiniteDomain) -> HypothesisClass:
    """Build a hypothesis class from a family descriptor dict.

    Supported: {"family": "thresholds", "axis"?}, {"family": "halfspaces",
    "weights", "biases"}, {"family": "singletons", "points"?},
    {"family": "constants"}, {"family": "explicit", "labels"}.
    """
    if not isinstance(family, dict) or "family" not in family:
        raise ValueError(f"family descriptor must be a dict with a 'family' key, got {family!r}")
    name = family["family"]
    if name == "thresholds":
        return thresholds_class(domain, axis=int(family.get("axis", 0)))
    if name == "halfspaces":
        return halfspace_class(domain, family["weights"], family["biases"])
    if name == "singletons":
        return singleton_class(domain, family.get("points"))
    if name == "constants":
        return constant_class(domain)
    if name == "explicit":
        return explicit_class(domain, family["labels"])
    raise ValueError(f"unknown hypothesis family {name!r}")


class LabeledDistribution:
    """A distribution over (point, label) pairs as an (n, 2) weight array."""

    def __init__(self, weights, domain: Optional[FiniteDomain] = None):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[1] != 2:
            raise InvalidDistributionError(f"weights must have shape (n, 2), got {w.shape}")
        if domain is not None and w.shape[0] != domain.size:
            raise DomainMismatchError(
                f"weights for {w.shape[0]} points over domain of size {domain.size}"
            )
        if not np.all(np.isfinite(w)):
            raise InvalidDistributionError("weights must be finite")
        if (w < 0).any():
            raise InvalidDistributionError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidDistributionError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        w = w.copy()
        w.setflags(write=False)
        self.weights = w
        self.domain = domain

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])

    def marginal(self) -> np.ndarray:
        """P_X: total weight per point."""
        return self.weights.sum(axis=1)

    def eta(self, x: int) -> float:
        """Conditional positive-label probability at x; needs positive marginal there."""
        m = float(self.weights[x, 0] + self.weights[x, 1])
        if m <= 0.0:
            raise InvalidDistributionError(f"eta undefined at point {x}: zero marginal")
        return float(self.weights[x, 1]) / m

    def support(self) -> list[tuple[int, int]]:
        return [(int(x), int(y)) for x, y in zip(*np.nonzero(self.weights > 0))]

    def __repr__(self) -> str:
        return f"LabeledDistribution(n={self.size}, support={len(self.support())})"


class LabeledSample:
    """An ordered sequence of (point index, label) pairs over a known domain size."""

    def __init__(self, xs, ys, n_points: int):
        xa = np.asarray(xs, dtype=np.int64)
        ya = np.asarray(ys, dtype=np.int64)
        if xa.shape != ya.shape or xa.ndim != 1:
            raise ValueError("xs and ys must be equal-length 1-d sequences")
        if xa.size and (xa.min() < 0 or xa.max() >= n_points):
            raise ValueError("point index out of range")
        if ya.size and not np.isin(ya, (0, 1)).all():
            raise ValueError("labels must be 0/1")
        xa.setflags(write=False)
        ya.setflags(write=False)
        self.xs = xa
        self.ys = ya
        self.n_points = int(n_points)

    def __len__(self) -> int:
        return int(self.xs.size)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((int(x), int(y)) for x, y in zip(self.xs, self.ys))

    def counts(self) -> np.ndarray:
        """Occurrence counts per (point, label) cell, shape (n_points, 2)."""
        flat = self.xs * 2 + self.ys
        return np.bincount(flat, minlength=2 * self.n_points).reshape(self.n_points, 2)

    def __repr__(self) -> str:
        return f"LabeledSample(n={len(self)}, points={self.n_points})"
