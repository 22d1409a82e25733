"""Loss sets, loss classes, and exact VC dimension by levelwise search.

A hypothesis h and a loss turn into the subset of evaluation points the loss
charges; a class turns into a set system, held as a boolean membership
matrix (sets x ground). VC dimension is computed level by level: level 1
tests every singleton, and level k tests only the k-sets whose (k-1)-subsets
were all shattered at level k-1 (shattering is closed under subsets). Each
level's candidates are tested in fixed-size batches: the candidates'
membership columns are OR-ed into one trace code per (candidate, set), and a
candidate is shattered when its codes take all 2^k values. Levels stay in
lexicographic order, so the first shattered row is the lexicographically
smallest witness. The search stops at the first level with no shattered set
or with fewer sets than 2^k. Desk-scale caps keep it honest: the default
ground limit is 40 elements and the default dimension cap is 6 ("at least
cap" is reported when the cap is reached).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .domain import FiniteDomain, Hypothesis, HypothesisClass, ManipulationGraph
from .errors import CapacityError, DomainMismatchError, VcInputError
from .losses import (
    LossKind,
    class_component_matrix,
    class_loss_table,
    observed_component_matrix,
)

DEFAULT_CAP = 6
DEFAULT_GROUND_LIMIT = 40
SHATTER_CANDIDATE_LIMIT = 30

# Cells held at once by a working array: candidates x sets of trace codes,
# and candidates x elements of a generated level.
_BATCH = 1 << 14


class SetSystem:
    """A finite ground sequence plus a deduplicated family of subsets.

    Ground elements are opaque hashable ids; sets are stored as sorted index
    tuples into the ground, first occurrence kept, so systems built from
    deterministic sweeps are reproducible. ``membership`` is the matching
    boolean matrix, one row per kept set and one column per ground element.
    """

    def __init__(self, ground: Sequence, sets: Iterable[Iterable[int]]):
        self.ground: tuple = tuple(ground)
        n = len(self.ground)
        seen: set[tuple[int, ...]] = set()
        kept: list[tuple[int, ...]] = []
        for s in sets:
            idx = tuple(sorted(set(int(i) for i in s)))
            if idx and (idx[0] < 0 or idx[-1] >= n):
                raise VcInputError(f"set {idx} out of ground range 0..{n - 1}")
            if idx not in seen:
                seen.add(idx)
                kept.append(idx)
        self.sets: tuple[tuple[int, ...], ...] = tuple(kept)
        membership = np.zeros((len(kept), n), dtype=bool)
        rows = np.repeat(np.arange(len(kept)), [len(idx) for idx in kept])
        membership[rows, [i for idx in kept for i in idx]] = True
        membership.setflags(write=False)
        self.membership = membership

    def __len__(self) -> int:
        return len(self.sets)

    def __repr__(self) -> str:
        return f"SetSystem(ground={len(self.ground)}, sets={len(self.sets)})"


@dataclass(frozen=True)
class VcReport:
    """Result of an exact VC computation.

    ``dimension`` is exact when ``capped`` is False; otherwise the dimension
    is at least ``dimension`` (= the cap). ``witness`` is the lexicographically
    smallest shattered set of the largest size found, as ground indices.
    """

    dimension: int
    witness: tuple[int, ...]
    capped: bool = False


def loss_set(h: Hypothesis, kind: LossKind) -> frozenset:
    """Ground elements charged by the loss for h.

    Binary and strategic kinds give subsets of (point, label) pairs; the
    component kind gives a subset of points. The one-member view of
    loss_class.
    """
    system = loss_class(HypothesisClass([h]), kind)
    return frozenset(system.ground[i] for i in system.sets[0])


def pair_ground(n: int) -> tuple[tuple[int, int], ...]:
    """The canonical (point, label) ground ordering: point-major, label minor."""
    return tuple((x, y) for x in range(n) for y in (0, 1))


def loss_class(H: HypothesisClass, kind: LossKind) -> SetSystem:
    """The set system of loss sets over the class, deduplicated.

    Ground is the full (point, label) grid for binary/strategic kinds and
    the point set for the component kind.
    """
    if len(H) == 0:
        return SetSystem((), ())
    if kind.kind == "component":
        rows = class_component_matrix(H, kind.graph)
        ground: tuple = tuple(range(rows.shape[1]))
    else:
        rows = class_loss_table(kind, H).reshape(len(H), -1)
        ground = pair_ground(rows.shape[1] // 2)
    return SetSystem(ground, map(np.flatnonzero, rows))


def class_system(H: HypothesisClass) -> SetSystem:
    """The class itself as a set system of positive sets over the points."""
    if len(H) == 0:
        return SetSystem((), ())
    n = H.members[0].size
    return SetSystem(tuple(range(n)), (tuple(int(i) for i in h.positives()) for h in H))


def _shattered_rows(columns: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Which rows of ``cand`` (candidates x k ground indices) are shattered.

    ``columns`` is the membership matrix transposed (ground x sets). Each
    candidate's member columns are OR-ed, shifted by position, into one trace
    code per set; the candidate is shattered when its codes cover all 2^k
    values, which a scatter into a candidates x 2^k table counts.
    """
    b, k = cand.shape
    codes = np.repeat((np.arange(b, dtype=np.intp) << k)[:, None], columns.shape[1], axis=1)
    for j in range(k):
        codes |= np.left_shift(columns[cand[:, j]], j, dtype=np.intp)
    hit = np.zeros(b << k, dtype=bool)
    hit[codes.ravel()] = True
    return hit.reshape(b, 1 << k).all(axis=1)


def _next_level(
    rows: np.ndarray, drops: np.ndarray, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batches of the (k+1)-sets whose k-subsets are all in ``rows``, in lexicographic order.

    ``rows`` holds every shattered k-set, lexicographically sorted, and
    ``drops[r, i]`` is the position of row r without its i-th element in the
    level below. A row is keyed by (position of its prefix, last element),
    which sorts like the rows. Each row is extended by every larger ground
    element e, and the candidate survives when every subset that drops one of
    the row's elements, keyed (``drops[r, i]``, e), is found by searchsorted.
    Each batch comes with the candidates' own drops into ``rows``.
    """
    p, k = rows.shape
    keys = drops[:, -1] * n + rows[:, -1]
    grow = n - 1 - rows[:, -1]
    ends = np.cumsum(grow)
    batch = max(1, _BATCH // (k + 1))
    start = 0
    while start < p:
        # rows start..stop-1 extend to at most ``batch`` candidates
        stop = int(np.searchsorted(ends, ends[start] - grow[start] + batch, "right"))
        stop = max(start + 1, stop)
        counts = grow[start:stop]
        parent = np.repeat(np.arange(start, stop), counts)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        last = rows[parent, -1] + 1 + offset
        found: list[np.ndarray] = []
        for i in range(k):
            sub = drops[parent, i] * n + last
            pos = np.searchsorted(keys, sub)
            ok = keys[np.minimum(pos, p - 1)] == sub
            parent, last = parent[ok], last[ok]
            found = [f[ok] for f in found] + [pos[ok]]
        yield np.column_stack((rows[parent], last)), np.column_stack(found + [parent])
        start = stop


def _shattered_level(
    columns: np.ndarray, batches: Iterable[tuple[np.ndarray, np.ndarray]], first_only: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The shattered candidates of the batches, in order, with their drops;
    with ``first_only``, at most the first one."""
    step = max(1, _BATCH // columns.shape[1])
    rows, drops = [], []
    for cand, cand_drops in batches:
        for lo in range(0, len(cand), step):
            hit = lo + np.flatnonzero(_shattered_rows(columns, cand[lo : lo + step]))
            if first_only and len(hit):
                return cand[hit[:1]], cand_drops[hit[:1]]
            rows.append(cand[hit])
            drops.append(cand_drops[hit])
    if not rows:
        return np.empty((0, 0), dtype=np.intp), np.empty((0, 0), dtype=np.intp)
    return np.concatenate(rows), np.concatenate(drops)


def is_shattered(system: SetSystem, candidate: Iterable[int]) -> bool:
    """Whether the family realizes all 2^k traces on the candidate ground indices."""
    cand = sorted(set(int(i) for i in candidate))
    n = len(system.ground)
    if cand and (cand[0] < 0 or cand[-1] >= n):
        raise VcInputError(f"candidate {cand} out of ground range")
    k = len(cand)
    if k > SHATTER_CANDIDATE_LIMIT:
        raise CapacityError(
            f"candidate of size {k} exceeds shattering check limit {SHATTER_CANDIDATE_LIMIT}"
        )
    if len(system.sets) == 0:
        return False
    if len(system.sets) < (1 << k):
        return False
    return bool(_shattered_rows(system.membership.T, np.array([cand], dtype=np.intp))[0])


def vc_dimension(
    system: SetSystem,
    cap: int = DEFAULT_CAP,
    ground_limit: int = DEFAULT_GROUND_LIMIT,
) -> VcReport:
    """Exact VC dimension by levelwise search, capped at ``cap``.

    Empty systems have dimension -1; any nonempty system shatters the empty
    set, so a system with a single distinct set has dimension 0. Each level
    keeps its candidates in lexicographic order, which makes the reported
    witness the lexicographically smallest among those of maximum found size.
    """
    if cap < 0:
        raise VcInputError(f"cap must be >= 0, got {cap}")
    n = len(system.ground)
    if n > ground_limit:
        raise CapacityError(
            f"ground of {n} elements exceeds brute-force limit {ground_limit}; "
            "reduce the instance or raise ground_limit explicitly"
        )
    n_sets = len(system.sets)
    if n_sets == 0:
        return VcReport(dimension=-1, witness=())
    columns = np.ascontiguousarray(system.membership.T)
    best_k = 0
    best_witness: tuple[int, ...] = ()
    top = min(cap, n)
    rows = drops = np.empty((0, 0), dtype=np.intp)
    for k in range(1, top + 1):
        if n_sets < (1 << k):
            # growth pruning: fewer sets than required traces
            return VcReport(dimension=best_k, witness=best_witness)
        if k == 1:
            # every singleton drops to the empty set, the one row of level 0
            singles = np.arange(n, dtype=np.intp).reshape(n, 1)
            batches: Iterable = [(singles, np.zeros_like(singles))]
        else:
            batches = _next_level(rows, drops, n)
        # the next level is never searched, so one witness is enough
        first_only = k == top or n_sets < (1 << (k + 1))
        rows, drops = _shattered_level(columns, batches, first_only)
        if len(rows) == 0:
            return VcReport(dimension=best_k, witness=best_witness)
        best_k, best_witness = k, tuple(int(i) for i in rows[0])
    if best_k >= cap:
        return VcReport(dimension=cap, witness=best_witness, capped=True)
    return VcReport(dimension=best_k, witness=best_witness)


def graph_loss_class(
    H: HypothesisClass,
    G: Sequence[ManipulationGraph],
    domain: FiniteDomain,
    ground_pairs: Sequence[tuple[int, frozenset]],
) -> SetSystem:
    """Loss sets of every (hypothesis, candidate graph) pair over (x, B) ground pairs.

    Ground elements are (point, observed target set) pairs; the loss for a
    pair charges the element when the hypothesis rejects the point and
    exactly one of the observed set and the candidate successor set contains
    an accepted point. Members are enumerated hypothesis-major in class
    order, then graph order, first distinct loss set kept.
    """
    ground = []
    for x, B in ground_pairs:
        domain.check_index(int(x))
        bset = frozenset(int(b) for b in B)
        for b in bset:
            domain.check_index(b)
        ground.append((int(x), bset))
    ground_t = tuple(ground)
    if any(h.size != domain.size for h in H):
        raise DomainMismatchError("hypothesis size does not match domain")
    if any(g.size != domain.size for g in G):
        raise DomainMismatchError("graph size does not match domain")
    if len(H) == 0 or len(G) == 0:
        return SetSystem(ground_t, ())
    xs = np.array([x for x, _ in ground_t], dtype=np.intp)
    obs = observed_component_matrix(H, xs, [b for _, b in ground_t])
    loss = np.stack([obs != class_component_matrix(H, g)[:, xs] for g in G], axis=1)
    return SetSystem(ground_t, map(np.flatnonzero, loss.reshape(len(H) * len(G), len(xs))))
