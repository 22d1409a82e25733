"""Machine-speed references: fixed kernels timed next to every job.

On a shared host the speed of the machine drifts by up to 1.5x over tens of
seconds to minutes, and every timing of a run moves with it. A workload that
names a reference kernel has that kernel timed right before and right after
each job, and the job is scaled by the kernel's speed at that moment:

    reference seconds = measured seconds * REF_S / (mean of the two kernel times)

A kernel only tracks the drift if it is slowed by the same things as the job
(a generic mix of Python and numpy did not), so each is shaped like the hot
loop of the workload that uses it: ``graph`` walks the columns of a sparse
1000-point adjacency matrix point by point and multiplies a few label rows
by it in uint8 (the social-burden BFS and class_component_matrix), and
``search`` enumerates candidate subsets and collects their traces with int
masks and a set (the brute-force VC search).
Set-up, a fresh interpreter that imports the program, follows the speed of
a fresh interpreter that imports numpy alone, which run.py times around
every set-up probe as the ``interpreter`` kernel.
``REF_S`` is about each kernel's median time on the machine that recorded
baseline.json, so reference seconds read as that machine's seconds. The
kernels use only Python and numpy on fixed inputs and never call the
program, so no change to the program can move them.
"""

from __future__ import annotations

import gc
import random
import time
from itertools import combinations

import numpy as np

_MASKS = [random.Random(5).getrandbits(16) for _ in range(90)]
_ADJ = np.random.default_rng(20220329).random((1000, 1000)) < 0.01
_LABELS = np.random.default_rng(20220330).random((12, 1000)) < 0.5


def _graph() -> int:
    hits = 0
    for _ in range(5):
        dist = np.full(_ADJ.shape[0], np.inf)
        for j in range(_ADJ.shape[1]):
            for i in np.flatnonzero(_ADJ[:, j]):
                if dist[i] > j:
                    dist[i] = float(j)
                    hits += 1
        reach = (_LABELS.astype(np.uint8) @ _ADJ.T.astype(np.uint8)) > 0
        hits += int((~_LABELS & reach).sum())
    return hits


def _search() -> int:
    hits = 0
    for k in (4, 5, 6):
        for cand in combinations(range(16), k):
            cand_mask = 0
            for i in cand:
                cand_mask |= 1 << i
            traces = set()
            for m in _MASKS:
                traces.add(m & cand_mask)
                if len(traces) == 1 << k:
                    hits += 1
                    break
    return hits


KERNELS = {"graph": _graph, "search": _search}
REF_S = {"graph": 0.12, "search": 0.2, "interpreter": 0.2}


def kernel_seconds(name: str) -> float:
    """Wall seconds of one pass of a reference kernel, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        KERNELS[name]()
        return time.perf_counter() - start
    finally:
        gc.enable()


def reference_seconds(name: str, seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the kernel times on either side."""
    return seconds * 2 * REF_S[name] / (before + after)
