"""Canonical and random instance generators.

Each generator returns a Scenario bundling a domain, a deployed (true)
graph, a hypothesis class, a labeled distribution, and optionally an
alternative graph and a candidate graph class. Generators are deterministic:
the same arguments and seed reproduce the same scenario bit for bit. The
random ones read raw PCG64 words through one drawer, _random_arrays: one
live stream for gen_random, blocks of many draws for thm5 (strategia.rng).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .domain import (
    FiniteDomain,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    ManipulationGraph,
    constant_class,
    explicit_class,
    halfspace_class,
    singleton_class,
    thresholds_class,
)
from .errors import InvalidDistributionError
from .graphdist import GraphClass
from .rng import (
    _COUNT_BLOCK, _below, _block_words, _stream_words, _uniform_between, _word_uniforms,
    _WordReader, trial_rows, trial_seeds,
)


@dataclass(frozen=True)
class Scenario:
    """A self-contained evaluation instance."""

    domain: FiniteDomain
    graph: ManipulationGraph
    hclass: HypothesisClass
    dist: LabeledDistribution
    graph2: Optional[ManipulationGraph] = None
    graph_class: Optional[GraphClass] = None
    provenance: str = ""


def _chain_edges(n: int, bidirectional: bool) -> list[tuple[int, int]]:
    edges = [(i, i + 1) for i in range(n - 1)]
    if bidirectional:
        edges += [(i + 1, i) for i in range(n - 1)]
    return edges


def gen_example1(n: int = 10, marginal: Optional[Sequence[float]] = None) -> Scenario:
    """Two-way chain with one-sided thresholds: only the constants resist gaming.

    Points sit on a line with edges both ways between neighbours. The class
    is the full threshold sweep, which includes both constant labelings. The
    default distribution is uniform over points with a deterministic
    two-block labeling split at n // 2 (exactly balanced for even n).
    """
    if n < 2:
        raise ValueError("need at least 2 points")
    domain = FiniteDomain(n, np.arange(n, dtype=float).reshape(-1, 1))
    graph = ManipulationGraph(domain, _chain_edges(n, bidirectional=True))
    hclass = thresholds_class(domain)
    if marginal is None:
        m = np.full(n, 1.0 / n)
    else:
        m = np.asarray(marginal, dtype=float)
        if m.shape != (n,):
            raise InvalidDistributionError("marginal length must match n")
    weights = np.zeros((n, 2))
    split = n // 2
    for i in range(n):
        weights[i, 1 if i >= split else 0] = m[i]
    dist = LabeledDistribution(weights, domain)
    return Scenario(domain, graph, hclass, dist, provenance=f"example1(n={n})")


def gen_example2(p1: float, p2: float, p3: float, p4: float) -> Scenario:
    """Four-point accept-threshold line with a one-way chain.

    Support is (1,0), (2,0), (3,1), (4,1) with the given probabilities; the
    class is the five-member threshold sweep; the truth is the threshold
    between points 2 and 3. Point 2 gaming past the boundary is what
    separates the strategic optimum from the accuracy optimum.
    """
    p = np.asarray([p1, p2, p3, p4], dtype=float)
    if (p < 0).any() or not np.all(np.isfinite(p)):
        raise InvalidDistributionError("probabilities must be finite nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise InvalidDistributionError(f"probabilities sum to {float(p.sum())!r}, expected 1")
    domain = FiniteDomain(4, np.array([[1.0], [2.0], [3.0], [4.0]]))
    graph = ManipulationGraph(domain, _chain_edges(4, bidirectional=False))
    hclass = thresholds_class(domain)
    weights = np.array(
        [
            [p[0], 0.0],
            [p[1], 0.0],
            [0.0, p[2]],
            [0.0, p[3]],
        ]
    )
    dist = LabeledDistribution(weights, domain)
    return Scenario(
        domain, graph, hclass, dist, provenance=f"example2(p=({p1},{p2},{p3},{p4}))"
    )


# The largest d of the singleton blow-up: at d = 5 the ground of its strategic
# loss class has 74 elements, past vcdim.DEFAULT_GROUND_LIMIT = 40.
OBS1_MAX_D = 4


def obs1_indices(d: int) -> tuple[list[int], list[int], list[frozenset[int]]]:
    """Index layout of the singleton blow-up construction.

    Returns (source points, target points, subset per target). Target j
    encodes the subset of sources given by the bits of j; source i points an
    edge at target j exactly when i is in that subset.
    """
    if not 1 <= d <= OBS1_MAX_D:
        raise ValueError(f"d must be in 1..{OBS1_MAX_D}")
    sources = list(range(d))
    targets = list(range(d, d + (1 << d)))
    subsets = [frozenset(i for i in range(d) if (j >> i) & 1) for j in range(1 << d)]
    return sources, targets, subsets


def gen_obs1(d: int) -> Scenario:
    """Singleton class whose strategic loss class shatters d rejected sources.

    d source points each point at the targets whose encoded subset contains
    them; the class holds one singleton per target. The class itself has VC
    dimension 1, while the strategic loss sets cut the d sources freely.
    The default distribution is uniform over (source, 0) cells; experiment
    code builds explicit realizable distributions via obs1_distribution.
    """
    sources, targets, subsets = obs1_indices(d)
    n = d + (1 << d)
    domain = FiniteDomain(n)
    edges = [
        (i, t)
        for t, subset in zip(targets, subsets)
        for i in sorted(subset)
    ]
    graph = ManipulationGraph(domain, edges)
    hclass = singleton_class(domain, targets)
    weights = np.zeros((n, 2))
    for i in sources:
        weights[i, 0] = 1.0 / d
    dist = LabeledDistribution(weights, domain)
    return Scenario(domain, graph, hclass, dist, provenance=f"obs1(d={d})")


def obs1_distribution(d: int, target_j: int, eps: float) -> LabeledDistribution:
    """Realizable distribution: mass 2*eps on (target_j, 1), rest on safe sources.

    Safe sources are those outside target_j's encoded subset, so the
    singleton accepting target_j has exact strategic loss zero. target_j
    must leave at least one source safe.
    """
    sources, targets, subsets = obs1_indices(d)
    if not 0 <= target_j < len(targets):
        raise ValueError(f"target index {target_j} out of range")
    if not 0.0 < 2.0 * eps < 1.0:
        raise ValueError("need 0 < 2*eps < 1")
    safe = [i for i in sources if i not in subsets[target_j]]
    if not safe:
        raise ValueError("target subset covers every source; no realizable rest mass")
    n = d + (1 << d)
    weights = np.zeros((n, 2))
    weights[targets[target_j], 1] = 2.0 * eps
    for i in safe:
        weights[i, 0] = (1.0 - 2.0 * eps) / len(safe)
    return LabeledDistribution(weights)


def _uniform_cell_dist(n: int) -> LabeledDistribution:
    return LabeledDistribution(np.full((n, 2), 1.0 / (2 * n)))


def _distinct_random_labels(
    read: _WordReader, n: int, m: int, exclude_zero: bool = False
) -> np.ndarray:
    """m distinct random labelings over n points per stream (streams x m x n).

    The first m candidate rows come from one read of m * n coin flips. A live
    reader replaces each rejected one (a repeat, or all zeros under
    exclude_zero) by n more flips, the flips of reading row by row, and gives
    up after 1000 * m candidate rows; a block reader keeps the first m rows.
    """
    first = read.flips(m * n).reshape(read.streams, m, n)
    if not read.live:
        return first
    out = np.empty((1, m, n), dtype=bool)
    seen: set[bytes] = set()
    kept = attempts = 0
    while kept < m:
        if attempts == 1000 * m:
            raise ValueError(f"could not draw {m} distinct labelings over {n} points")
        row = first[0, attempts] if attempts < m else read.flips(n)[0]
        attempts += 1
        if exclude_zero and not row.any():
            continue
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            out[0, kept] = row
            kept += 1
    return out


def gen_component_case(which: str, **params) -> Scenario:
    """Constructions whose component loss class has a provable VC bound.

    which = "complete": complete graph, random class (all-zeros labeling
    excluded so that every component set is the complement of the positives).
    which = "partial_order": upward-closed labelings over a poset whose
    comparabilities are the edges; poset in {"diamond", "chain", "antichain"}.
    which = "ball": p-norm ball graph on a centered square grid with affine
    halfspaces.
    which = "coordinate": one-coordinate-change graph on a centered square
    grid with homogeneous weight-grid halfspaces (chosen so that every
    labeling with a positive point lets every rejected point cross by
    changing its largest-weight coordinate).
    """
    if which == "complete":
        n = params.pop("n", 6)
        class_size = params.pop("class_size", 4)
        seed = params.pop("seed", 0)
        _reject_extra(params)
        domain = FiniteDomain(n)
        edges = [(i, j) for i in range(n) for j in range(n) if i != j]
        graph = ManipulationGraph(domain, edges)
        rows = _distinct_random_labels(_stream_words(seed), n, class_size, exclude_zero=True)[0]
        hclass = HypothesisClass([Hypothesis(r) for r in rows], domain)
        return Scenario(
            domain, graph, hclass, _uniform_cell_dist(n),
            provenance=f"complete(n={n},class_size={class_size},seed={seed})",
        )

    if which == "partial_order":
        poset = params.pop("poset", "diamond")
        size = params.pop("size", 4)
        _reject_extra(params)
        if poset == "diamond":
            n = 4
            relations = {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
        elif poset == "chain":
            n = size
            relations = {(i, j) for i in range(n) for j in range(i + 1, n)}
        elif poset == "antichain":
            n = size
            relations = set()
        else:
            raise ValueError(f"unknown poset {poset!r}")
        domain = FiniteDomain(n)
        graph = ManipulationGraph(domain, sorted(relations))
        members = []
        for bits in range(1 << n):
            labels = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
            # upward closed: a rejected point never precedes an accepted one
            if all(labels[j] for i, j in relations if labels[i]):
                members.append(Hypothesis(labels))
        hclass = HypothesisClass(members, domain)
        return Scenario(
            domain, graph, hclass, _uniform_cell_dist(n),
            provenance=f"partial_order(poset={poset},size={n})",
        )

    if which == "ball":
        grid = params.pop("grid", 4)
        radius = params.pop("radius", 1.0)
        p = params.pop("p", 2.0)
        _reject_extra(params)
        half = (grid - 1) / 2.0
        coords = np.array(
            [[i - half, j - half] for i in range(grid) for j in range(grid)]
        )
        n = grid * grid
        domain = FiniteDomain(n, coords)
        # Coordinates differ by whole offsets (|dx|, |dy|), so the p-norm of
        # each of the grid**2 offsets is computed once, by the scalar
        # expression of one point pair: a broadcast ** p may round otherwise.
        near = np.array([
            [float(np.sum(np.array([dx, dy], dtype=float) ** p) ** (1 / p)) <= radius
             for dy in range(grid)]
            for dx in range(grid)
        ])
        graph = ManipulationGraph.from_adjacency(domain, _grid_adjacency(grid, near))
        weight_grid = [list(w) for w in product((-2, -1, 0, 1, 2), repeat=2)]
        biases = list(range(-3, 4))
        hclass = halfspace_class(domain, weight_grid, biases)
        return Scenario(
            domain, graph, hclass, _uniform_cell_dist(n),
            provenance=f"ball(grid={grid},radius={radius},p={p})",
        )

    if which == "coordinate":
        grid = params.pop("grid", 3)
        _reject_extra(params)
        half = (grid - 1) / 2.0
        coords = np.array(
            [[i - half, j - half] for i in range(grid) for j in range(grid)]
        )
        n = grid * grid
        domain = FiniteDomain(n, coords)
        # an edge changes exactly one coordinate
        step = np.arange(grid) > 0
        near = step[:, None] != step[None, :]
        graph = ManipulationGraph.from_adjacency(domain, _grid_adjacency(grid, near))
        weight_grid = [list(w) for w in product((-1, 0, 1), repeat=2)]
        hclass = halfspace_class(domain, weight_grid, [0.0])
        return Scenario(
            domain, graph, hclass, _uniform_cell_dist(n),
            provenance=f"coordinate(grid={grid})",
        )

    raise ValueError(f"unknown component case {which!r}")


def _grid_adjacency(grid: int, near: np.ndarray) -> np.ndarray:
    """Adjacency of the grid * grid points (point i * grid + j at (i, j))
    that joins two distinct points exactly when near[|dx|, |dy|]."""
    offset = np.abs(np.arange(grid)[:, None] - np.arange(grid)[None, :])
    # adj[a, b, c, d] = near[|a - c|, |b - d|] for points (a, b) and (c, d)
    adj = near[offset][:, :, offset].transpose(0, 2, 1, 3).reshape(grid * grid, grid * grid)
    adj.flat[:: grid * grid + 1] = False
    return adj


def _reject_extra(params: dict) -> None:
    if params:
        raise ValueError(f"unknown parameters: {sorted(params)}")


# How many words _random_adjacency reads and compares at a time per stream
# (whole rows, at least one). They are read in the same order either way;
# the small word buffer keeps the peak memory of a large instance near that
# of its boolean matrices.
_ADJACENCY_CHUNK = 1 << 16


def _random_adjacency(read: _WordReader, n: int, density) -> np.ndarray:
    """streams x n x n adjacency: (i, j) is an edge, i != j, when its word's
    uniform is below density (a number, or one per stream)."""
    adj = np.empty((read.streams, n, n), dtype=bool)
    rows = max(1, _ADJACENCY_CHUNK // n)
    for i in range(0, n, rows):
        block = adj[:, i : i + rows]
        block[...] = _below(read.words(block.shape[1] * n), density).reshape(block.shape)
    adj.reshape(read.streams, n * n)[:, :: n + 1] = False  # the diagonal
    return adj


class _RandomArrays(NamedTuple):
    coords: Optional[np.ndarray]
    adj: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    candidates: list[np.ndarray]


def _random_arrays(
    read: _WordReader,
    n_points: int,
    n_hypotheses: int,
    density: float,
    n_graphs: int = 0,
    coord_dim: int = 0,
) -> _RandomArrays:
    """Every array of a gen_random instance, each stacked over the reader's
    streams and read in this order: coordinates (None without coord_dim),
    the true adjacency, the distinct labelings (n_hypotheses x n_points),
    the (n_points, 2) weights summing to 1, and the distinct candidate
    adjacencies (their densities vary around the true one). Only a live
    reader rejects a repeated labeling or candidate and reads on; a block
    reader draws as if nothing were rejected."""
    if n_hypotheses > (1 << n_points):
        raise ValueError("more hypotheses than dichotomies")
    streams, n = read.streams, n_points
    coords = (_word_uniforms(read.words(n * coord_dim)).reshape(streams, n, coord_dim)
              if coord_dim > 0 else None)
    adj = _random_adjacency(read, n, density)
    labels = _distinct_random_labels(read, n, n_hypotheses)
    w = _word_uniforms(read.words(2 * n))
    weights = (w / w.sum(axis=1, keepdims=True)).reshape(streams, n, 2)
    low, high = max(0.05, density - 0.2), min(0.95, density + 0.2)
    candidates: list[np.ndarray] = []
    seen: set[bytes] = set()
    attempts = 0
    while len(candidates) < n_graphs:
        attempts += 1
        if attempts > 1000 * n_graphs:
            raise ValueError(
                f"could not draw {n_graphs} distinct candidate graphs in {1000 * n_graphs} tries"
            )
        a = _random_adjacency(read, n, _uniform_between(read.words(1), low, high))
        key = a.tobytes()
        if not read.live or key not in seen:
            seen.add(key)
            candidates.append(a)
    return _RandomArrays(coords, adj, labels, weights, candidates)


def _thm5_arrays(shared, first: int, count: int) -> tuple[np.ndarray, ...]:
    """Labels, adjacency, candidate adjacency and weights of trials first ..
    first + count - 1 of a master seed, stacked over the draws: what
    _random_arrays(..., n_graphs=1) draws from trial t's stream
    PCG64(trial_seed(master, t)), for shared = (n, m, density, master). The
    drawer runs over blocks of at most _COUNT_BLOCK words (or one draw), each
    draw as wide as one that rejects nothing; a draw whose labelings repeat
    is drawn again from its own live stream."""
    n, m, density, master = shared

    def draw(read: _WordReader) -> tuple[np.ndarray, ...]:
        a = _random_arrays(read, n, m, density, n_graphs=1)
        return a.labels, a.adj, a.candidates[0], a.weights

    sizing = _block_words(np.empty((0, 0), dtype=np.uint64))
    draw(sizing)  # over no streams: counts the words of a draw that rejects nothing
    step = max(1, _COUNT_BLOCK // sizing.used)
    read = trial_rows(master, first, count, sizing.used)
    blocks = [draw(_block_words(read(r, min(step, count - r)))) for r in range(0, count, step)]
    arrays = tuple(np.concatenate(parts) for parts in zip(*blocks))
    redraw = np.flatnonzero(_repeats_a_row(arrays[0]))
    for j, seed in zip(redraw.tolist(), trial_seeds(master, first, count)[redraw].tolist()):
        for out, drawn in zip(arrays, draw(_stream_words(seed))):
            out[j] = drawn[0]
    return arrays


def _repeats_a_row(rows: np.ndarray) -> np.ndarray:
    """Which of the stacked boolean matrices hold a row twice: each row,
    packed into bytes, is one void key, and equal keys sort side by side."""
    packed = np.packbits(rows, axis=2)
    keys = np.sort(packed.view(np.dtype((np.void, packed.shape[2])))[..., 0], axis=1)
    return (keys[:, 1:] == keys[:, :-1]).any(axis=1)


def gen_random(
    n_points: int = 8,
    n_hypotheses: int = 8,
    density: float = 0.3,
    seed: int = 0,
    n_graphs: int = 0,
    coord_dim: int = 0,
) -> Scenario:
    """Seeded random instance: graph density, labels, and weights all random.

    With n_graphs > 0 a class of distinct candidate graphs is drawn (their
    densities vary around the true one) and graph2 is its first member. All
    draws come from a single PCG64 stream, so instances are reproducible.
    """
    drawn = _random_arrays(_stream_words(seed), n_points, n_hypotheses, density, n_graphs, coord_dim)
    domain = FiniteDomain(n_points, None if drawn.coords is None else drawn.coords[0])
    graph = ManipulationGraph.from_adjacency(domain, drawn.adj[0])
    hclass = HypothesisClass([Hypothesis(r) for r in drawn.labels[0]], domain)
    dist = LabeledDistribution(drawn.weights[0], domain)
    graph_class = None
    if n_graphs > 0:
        graph_class = GraphClass([ManipulationGraph.from_adjacency(domain, a[0]) for a in drawn.candidates])
    return Scenario(
        domain, graph, hclass, dist, graph_class=graph_class,
        graph2=None if graph_class is None else graph_class[0],
        provenance=(
            f"random(n={n_points},m={n_hypotheses},density={density},seed={seed},"
            f"graphs={n_graphs},dim={coord_dim})"
        ),
    )
