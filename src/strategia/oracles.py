"""Independent brute-force reference implementations.

Everything here re-derives values from the definitions using plain Python
containers and exact rational arithmetic (fractions.Fraction on the float
weights, which is exact). Nothing is shared with the production code paths:
no loss tables, no bitmasks, no adjacency matrices beyond raw data
extraction. Tests compare production values against these to 1e-12.

Do not import from losses, vcdim, or graphdist here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np


def _labels_of(h) -> list[int]:
    return [int(v) for v in np.asarray(h.labels).tolist()]


def _succ_of(graph) -> list[set[int]]:
    adj = np.asarray(graph.adj)
    targets = np.nonzero(adj)[1].tolist()  # row by row
    ends = np.cumsum(adj.sum(axis=1)).tolist()
    return [set(targets[start:end]) for start, end in zip([0] + ends[:-1], ends)]


def _weights_of(P) -> list[list[Fraction]]:
    return [[Fraction(w) for w in row] for row in np.asarray(P.weights).tolist()]


def _marginal_fractions(marginal) -> list[Fraction]:
    return [Fraction(float(v)) for v in np.asarray(marginal).tolist()]


def _point_loss(kind: str, hl: list[int], succ: Optional[list[set[int]]], x: int, y: int) -> int:
    if kind == "binary":
        return int(hl[x] != y)
    manipulated = hl[x] == 0 and any(hl[j] == 1 for j in succ[x])
    if kind == "component":
        return int(manipulated)
    if kind == "strategic":
        return int(hl[x] != y or manipulated)
    raise ValueError(f"unknown kind {kind!r}")


def oracle_expected_loss(h, P, kind: str, graph=None) -> Fraction:
    """Expected loss by direct summation over every (point, label) cell."""
    hl = _labels_of(h)
    succ = _succ_of(graph) if graph is not None else None
    w = _weights_of(P)
    total = Fraction(0)
    for x in range(len(hl)):
        for y in (0, 1):
            if _point_loss(kind, hl, succ, x, y):
                total += w[x][y]
    return total


def oracle_empirical_loss(h, S, kind: str, graph=None) -> Fraction:
    """Mean loss by direct per-item evaluation."""
    hl = _labels_of(h)
    succ = _succ_of(graph) if graph is not None else None
    items = [(int(x), int(y)) for x, y in S]
    if not items:
        raise ValueError("empty sample")
    total = sum(_point_loss(kind, hl, succ, x, y) for x, y in items)
    return Fraction(total, len(items))


def oracle_graph_loss(h, candidate, x: int, observed) -> int:
    """Literal two-case evaluation of the pointwise graph loss.

    Case (a): some observed target accepted and every candidate successor
    rejected. Case (b): every observed target rejected and some candidate
    successor accepted. Charged when the point is rejected and exactly one
    case holds.
    """
    hl = _labels_of(h)
    succ = _succ_of(candidate)
    if hl[int(x)] == 1:
        return 0
    obs = [int(v) for v in observed]
    case_a = any(hl[b] == 1 for b in obs) and all(hl[j] == 0 for j in succ[int(x)])
    case_b = all(hl[b] == 0 for b in obs) and any(hl[j] == 1 for j in succ[int(x)])
    return int((int(case_a) + int(case_b)) == 1)


def oracle_true_graph_loss(h, candidate, marginal, reference) -> Fraction:
    """Expected graph loss with observed sets taken from the reference graph."""
    m = _marginal_fractions(marginal)
    ref_succ = _succ_of(reference)
    total = Fraction(0)
    for x in range(len(m)):
        total += m[x] * oracle_graph_loss(h, candidate, x, ref_succ[x])
    return total


def oracle_empirical_graph_loss(h, candidate, S) -> Fraction:
    items = list(S)
    if not items:
        raise ValueError("empty sample")
    total = sum(oracle_graph_loss(h, candidate, x, b) for x, b in items)
    return Fraction(total, len(items))


def oracle_distance(g1, g2, H, marginal) -> Fraction:
    """Sup over members of the expected absolute component-loss difference."""
    m = _marginal_fractions(marginal)
    succ1 = _succ_of(g1)
    succ2 = _succ_of(g2)
    best = Fraction(0)
    for h in H:
        hl = _labels_of(h)
        accepted = {x for x, label in enumerate(hl) if label == 1}
        total = Fraction(0)
        for x in range(len(m)):
            # x has component loss under a graph when h rejects x and accepts a successor
            if hl[x] == 0 and accepted.isdisjoint(succ1[x]) != accepted.isdisjoint(succ2[x]):
                total += m[x]
        if total > best:
            best = total
    return best


def oracle_empirical_distance(g2, H, S) -> Fraction:
    """Sup over members of the mean graph loss of g2 against the sample's own targets."""
    items = list(S)
    if not items:
        raise ValueError("empty sample")
    best = Fraction(0)
    for h in H:
        total = sum(oracle_graph_loss(h, g2, x, b) for x, b in items)
        value = Fraction(total, len(items))
        if value > best:
            best = value
    return best


def oracle_social_burden(h, P, graph=None, cost_model=None):
    """(conditional, numerator) by direct minimization; inf propagates.

    Unit-edge distances are computed by repeated relaxation rather than the
    production BFS.
    """
    hl = _labels_of(h)
    w = _weights_of(P)
    n = len(hl)
    accepted = [x for x in range(n) if hl[x] == 1]
    pos_mass = sum(row[1] for row in w)
    if pos_mass <= 0:
        raise ValueError("no positive-label mass")
    INF = float("inf")
    if cost_model is not None:
        costs = []
        for x in range(n):
            best = INF
            for xp in accepted:
                c = float(cost_model.fn(x, xp))
                if c < best:
                    best = c
            costs.append(best)
    else:
        succ = _succ_of(graph)
        costs = [0.0 if hl[x] == 1 else INF for x in range(n)]
        for _ in range(n):
            changed = False
            for x in range(n):
                for j in succ[x]:
                    if costs[j] + 1.0 < costs[x]:
                        costs[x] = costs[j] + 1.0
                        changed = True
            if not changed:
                break
    numerator = 0.0
    for x in range(n):
        if w[x][1] > 0:
            numerator += float(w[x][1]) * costs[x]
    return numerator / float(pos_mass), numerator


def oracle_vc(system, max_size: Optional[int] = None) -> int:
    """Exhaustive VC: tests every subset of every size via frozenset traces."""
    ground_size = len(system.ground)
    families = [frozenset(s) for s in system.sets]
    if not families:
        return -1
    top = ground_size if max_size is None else min(max_size, ground_size)
    best = 0
    for k in range(1, top + 1):
        found = False
        for cand in combinations(range(ground_size), k):
            cset = frozenset(cand)
            traces = {fs & cset for fs in families}
            if len(traces) == (1 << k):
                found = True
                break
        if found:
            best = k
        else:
            break
    return best
