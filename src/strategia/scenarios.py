"""Canonical and random instance generators.

Each generator returns a Scenario bundling a domain, a deployed (true)
graph, a hypothesis class, a labeled distribution, and optionally an
alternative graph and a candidate graph class. Generators are deterministic:
the same arguments and seed reproduce the same scenario bit for bit. thm5
decodes many of gen_random's draws at once from raw words (_thm5_arrays;
see strategia.rng).
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
from .rng import _COUNT_BLOCK, _coin_flips, _uniform_between, _word_uniforms, trial_rows, trial_seeds


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
    rng: np.random.Generator, n: int, m: int, exclude_zero: bool = False
) -> np.ndarray:
    """m distinct random labelings over n points, as an m x n boolean matrix.

    The first m candidate rows come from one draw; each rejected one (a
    repeat, or all zeros under exclude_zero) is replaced by one-row draws.
    Every value takes one 32-bit output of the generator, so the stream is
    the same as drawing row by row. After 1000 * m candidate rows it gives up.
    """
    first = rng.integers(0, 2, (m, n)).astype(bool)
    out = np.empty((m, n), dtype=bool)
    seen: set[bytes] = set()
    kept = attempts = 0
    while kept < m:
        if attempts == 1000 * m:
            raise ValueError(f"could not draw {m} distinct labelings over {n} points")
        row = first[attempts] if attempts < m else rng.integers(0, 2, n).astype(bool)
        attempts += 1
        if exclude_zero and not row.any():
            continue
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            out[kept] = row
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
        rng = np.random.Generator(np.random.PCG64(seed))
        rows = _distinct_random_labels(rng, n, class_size, exclude_zero=True)
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


# How many uniforms _random_adjacency draws and compares at a time (whole
# rows, at least one). They are drawn in the same order either way; the small
# float buffer keeps the peak memory of a large instance near that of its
# boolean matrices.
_ADJACENCY_CHUNK = 1 << 16


def _random_adjacency(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    adj = np.empty((n, n), dtype=bool)
    rows = max(1, _ADJACENCY_CHUNK // n)
    for i in range(0, n, rows):
        adj[i:i + rows] = rng.random((min(rows, n - i), n)) < density
    adj.flat[:: n + 1] = False  # the diagonal: no self-loops
    return adj


class _RandomArrays(NamedTuple):
    coords: Optional[np.ndarray]
    adj: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    candidates: list[np.ndarray]


def _random_arrays(
    rng: np.random.Generator,
    n_points: int,
    n_hypotheses: int,
    density: float,
    n_graphs: int = 0,
    coord_dim: int = 0,
) -> _RandomArrays:
    """Every array of a gen_random instance, drawn from rng in this order:
    coordinates (None without coord_dim), the true adjacency, the distinct
    labelings (n_hypotheses x n_points), the (n_points, 2) weights summing
    to 1, and the distinct candidate adjacencies (their densities vary
    around the true one)."""
    if n_hypotheses > (1 << n_points):
        raise ValueError("more hypotheses than dichotomies")
    coords = rng.random((n_points, coord_dim)) if coord_dim > 0 else None
    adj = _random_adjacency(rng, n_points, density)
    labels = _distinct_random_labels(rng, n_points, n_hypotheses)
    weights = rng.random((n_points, 2))
    weights /= weights.sum()
    candidates: list[np.ndarray] = []
    seen: set[bytes] = set()
    attempts = 0
    while len(candidates) < n_graphs:
        attempts += 1
        if attempts > 1000 * n_graphs:
            raise ValueError(
                f"could not draw {n_graphs} distinct candidate graphs in {1000 * n_graphs} tries"
            )
        d = float(rng.uniform(max(0.05, density - 0.2), min(0.95, density + 0.2)))
        a = _random_adjacency(rng, n_points, d)
        key = a.tobytes()
        if key not in seen:
            seen.add(key)
            candidates.append(a)
    return _RandomArrays(coords, adj, labels, weights, candidates)


def _decoded_width(n: int, m: int) -> int:
    """The raw words _random_arrays(rng, n, m, density, n_graphs=1) reads
    when its first m labelings are distinct: n * n adjacency uniforms, the
    m * n labels, two to a word (with m * n odd the last high half is never
    read, as random draws whole words), 2 * n weight uniforms, one uniform
    for the candidate's density and n * n candidate uniforms."""
    return 2 * n * n + (m * n + 1) // 2 + 2 * n + 1


def _decoded_arrays(words: np.ndarray, n: int, m: int, density: float) -> tuple[np.ndarray, ...]:
    """Labels, adjacency, candidate adjacency and weights that
    _random_arrays(..., n_graphs=1) draws from a generator whose raw words
    are a row of ``words`` (draws x _decoded_width(n, m)), stacked over the
    rows; valid for a row whose first m labelings are distinct."""
    nn, half = n * n, (m * n + 1) // 2
    adj = (_word_uniforms(words[:, :nn]) < density).reshape(-1, n, n)
    labels = _coin_flips(words[:, nn : nn + half], m * n).reshape(-1, m, n)
    w = _word_uniforms(words[:, nn + half : nn + half + 2 * n])
    weights = (w / w.sum(axis=1, keepdims=True)).reshape(-1, n, 2)
    d = _uniform_between(words[:, -nn - 1], max(0.05, density - 0.2), min(0.95, density + 0.2))
    cand = (_word_uniforms(words[:, -nn:]) < d[:, None]).reshape(-1, n, n)
    for a in (adj, cand):
        a.reshape(-1, nn)[:, :: n + 1] = False  # no self-loops
    return labels, adj, cand, weights


# The draw the decoder check decodes: (seed, n, m, density). Its 3 labelings
# of 5 points are distinct, and m * n is odd, so a half word is skipped.
_DECODING_CHECK = (1, 5, 3, 0.5)
_decoding_ok: Optional[bool] = None


def _decoding_matches() -> bool:
    """Whether _decoded_arrays gives every array _random_arrays draws on
    numpy's Generator, for the draw of _DECODING_CHECK; checked once per
    process, at first use."""
    global _decoding_ok
    if _decoding_ok is None:
        seed, n, m, density = _DECODING_CHECK
        a = _random_arrays(np.random.Generator(np.random.PCG64(seed)), n, m, density, n_graphs=1)
        words = np.random.PCG64(seed).random_raw(_decoded_width(n, m))[None]
        got = _decoded_arrays(words, n, m, density)
        _decoding_ok = all(
            g.dtype == w.dtype and np.array_equal(g[0], w)
            for g, w in zip(got, (a.labels, a.adj, a.candidates[0], a.weights))
        )
    return _decoding_ok


def _thm5_arrays(shared, first: int, count: int) -> tuple[np.ndarray, ...]:
    """Labels, adjacency, candidate adjacency and weights of trials first ..
    first + count - 1 of a master seed, each stacked over the draws: what
    _random_arrays(..., n_graphs=1) draws from trial t's
    Generator(PCG64(trial_seed(master, t))), for shared = (n, m, density,
    master).

    Draws are decoded from their words (_decoded_arrays), read in chunks of
    at most _COUNT_BLOCK words. A draw whose labelings repeat is drawn by
    _random_arrays itself, and so is every draw when one draw's words exceed
    _COUNT_BLOCK or the decoder check fails.
    """
    n, m, density, master = shared
    width = _decoded_width(n, m)
    labels = np.empty((count, m, n), dtype=bool)
    adj = np.empty((count, n, n), dtype=bool)
    cand = np.empty((count, n, n), dtype=bool)
    weights = np.empty((count, n, 2))
    if width > _COUNT_BLOCK or not _decoding_matches():
        redraw = np.ones(count, dtype=bool)
    else:
        step = _COUNT_BLOCK // width
        read = trial_rows(master, first, count, width)
        for r in range(0, count, step):
            words = read(r, min(step, count - r))
            rows = slice(r, r + len(words))
            labels[rows], adj[rows], cand[rows], weights[rows] = _decoded_arrays(words, n, m, density)
        redraw = _repeats_a_row(labels)
    drawn = np.flatnonzero(redraw)
    for j, seed in zip(drawn.tolist(), trial_seeds(master, first, count)[drawn].tolist()):
        a = _random_arrays(np.random.Generator(np.random.PCG64(seed)), n, m, density, n_graphs=1)
        labels[j], adj[j], cand[j], weights[j] = a.labels, a.adj, a.candidates[0], a.weights
    return labels, adj, cand, weights


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
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn = _random_arrays(rng, n_points, n_hypotheses, density, n_graphs, coord_dim)
    domain = FiniteDomain(n_points, drawn.coords)
    graph = ManipulationGraph.from_adjacency(domain, drawn.adj)
    hclass = HypothesisClass([Hypothesis(r) for r in drawn.labels], domain)
    dist = LabeledDistribution(drawn.weights, domain)
    graph_class = None
    graph2 = None
    if n_graphs > 0:
        graph_class = GraphClass([ManipulationGraph.from_adjacency(domain, a) for a in drawn.candidates])
        graph2 = graph_class[0]
    return Scenario(
        domain, graph, hclass, dist, graph2=graph2, graph_class=graph_class,
        provenance=(
            f"random(n={n_points},m={n_hypotheses},density={density},seed={seed},"
            f"graphs={n_graphs},dim={coord_dim})"
        ),
    )
