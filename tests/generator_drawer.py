"""The gen_random drawer written on numpy's Generator, kept as the reference
that the word drawer (scenarios._random_arrays over a live word reader) must
reproduce array for array, rejections and errors included."""

from collections import namedtuple

import numpy as np

RandomArrays = namedtuple("RandomArrays", "coords adj labels weights candidates")


def generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


def distinct_labels(rng, n, m, exclude_zero=False):
    """m distinct labelings over n points: one (m, n) integers draw, each
    rejected row replaced by one n-value draw, giving up after 1000 * m rows."""
    first = rng.integers(0, 2, (m, n)).astype(bool)
    out = np.empty((m, n), dtype=bool)
    seen = set()
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


def adjacency(rng, n, density):
    adj = np.empty((n, n), dtype=bool)
    rows = max(1, (1 << 16) // n)
    for i in range(0, n, rows):
        adj[i:i + rows] = rng.random((min(rows, n - i), n)) < density
    adj.flat[:: n + 1] = False
    return adj


def random_arrays(rng, n_points, n_hypotheses, density, n_graphs=0, coord_dim=0):
    """The RandomArrays of a gen_random instance, drawn from rng in field
    order."""
    if n_hypotheses > (1 << n_points):
        raise ValueError("more hypotheses than dichotomies")
    coords = rng.random((n_points, coord_dim)) if coord_dim > 0 else None
    adj = adjacency(rng, n_points, density)
    labels = distinct_labels(rng, n_points, n_hypotheses)
    weights = rng.random((n_points, 2))
    weights /= weights.sum()
    candidates, seen, attempts = [], set(), 0
    while len(candidates) < n_graphs:
        attempts += 1
        if attempts > 1000 * n_graphs:
            raise ValueError(
                f"could not draw {n_graphs} distinct candidate graphs in {1000 * n_graphs} tries"
            )
        d = float(rng.uniform(max(0.05, density - 0.2), min(0.95, density + 0.2)))
        a = adjacency(rng, n_points, d)
        key = a.tobytes()
        if key not in seen:
            seen.add(key)
            candidates.append(a)
    return RandomArrays(coords, adj, labels, weights, candidates)


def assert_same_position(read, rng):
    """A word reader and a Generator have consumed the same words and
    halves: their next flips, words and flips agree (the words skip a
    waiting half, which the last flips then read)."""
    assert np.array_equal(read.flips(3)[0], rng.integers(0, 2, 3).astype(bool))
    assert np.array_equal(read.words(2)[0], rng.bit_generator.random_raw(2))
    assert np.array_equal(read.flips(1)[0], rng.integers(0, 2, 1).astype(bool))
