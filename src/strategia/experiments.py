"""Named experiments, evaluation tables, and their pass/fail checks.

Every experiment returns a ResultTable (the CSV payload) plus a list of
CheckResults. Monte Carlo experiments map one kernel over a list of items,
each a unit or a block of trials whose seeds derive from the master seed
and global trial indices, and collect the results in item order, so the
output is byte for byte identical regardless of the worker count. The
items go to one process pool per process, started at the first call that
needs it and reused by every later call of the same size.

The canonical-instance experiments (example1, example2, obs1, thm3, thm4,
thm5) construct their own scenarios; graph-learn and uniform-conv run on the
configured scenario, defaulting to a seeded random one with candidate
graphs.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import multiprocessing.connection
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .config import (
    _CHAIN,
    _COUNT,
    _GRAPH_LEARN,
    _HYPOTHESES,
    _NONNEGATIVE,
    _OBS1_D,
    _POINTS,
    _PROBABILITY,
    _merge_params,
    build_scenario,
)
from .domain import Hypothesis, HypothesisClass, LabeledDistribution, ManipulationGraph
from .errors import ConfigError, UndefinedBurdenError
from .graphdist import (
    _surrogate_chain,
    draw_graph_sample,
    empirical_sample_distance,
    graph_erm,
    hpx_distance,
    read_graph_sample,
    surrogate_bounds,
)
from .learners import (
    _singleton_hypothesis,
    draw_sample,
    erm,
    ic_erm,
    singleton_decisions,
    singleton_learner,
)
from .losses import (
    LossKind,
    class_component_matrix,
    class_social_burden,
    expected_loss,
    expected_rows,
    is_incentive_compatible,
    loss_cells,
    social_burden,  # not called here; perfbench's tracer self-test reads this binding
)
from .results import ResultTable
from .rng import cell_counts, trial_rows, trial_seed
from .scenarios import (
    Scenario,
    _thm5_arrays,
    gen_example1,
    gen_example2,
    gen_obs1,
    gen_random,
    obs1_distribution,
)
from .vcdim import class_system, is_shattered, loss_class, vc_dimension

# Disjoint trial-index ranges keep derived seeds collision-free per run.
_THM4_INSTANCE_BASE = 10_000_000
_THM4_UNIT_BASE = 20_000_000
_THM5_BASE = 30_000_000
_UC_BASE = 50_000_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentResult:
    name: str
    table: ResultTable
    checks: list[CheckResult] = field(default_factory=list)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_size(workers: int, cpus: int) -> int:
    """The processes a pool of `workers` starts on `cpus` usable CPUs: more
    processes than CPUs would only take turns, and no result depends on
    the count."""
    return max(1, min(workers, cpus))


# The process's one pool and its size, forked at the first pooled call.
# A pooled call holds the lock from choosing the pool to its last result.
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _exit_with_parent() -> None:
    """Pool initializer: end this pool process when the process that
    started the pool dies without shutting it down, as a kill signal does,
    so that no pool process outlives it."""
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _shared_pool(size: int) -> ProcessPoolExecutor:
    """The live pool of `size` processes, replacing one of another size."""
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != size:
        _close_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=size, initializer=_exit_with_parent)
        _pool_workers = size
    return _pool


def _close_pool() -> None:
    """Shut the pool down and wait for its processes and threads, so that
    no thread of it is alive when the next pool forks."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True)


atexit.register(_close_pool)


def _run_seeded(kernel: Callable, shared, items: Sequence, workers: int) -> list:
    """Return kernel(shared, item) for every item, in item order.

    Each item carries its own seeds, so how the items are split over the
    process pool never changes a result. The pool has `workers` processes,
    at most one per usable CPU, and outlives the call: later calls of the
    same size reuse it, and interpreter exit shuts it down. Its processes
    never see later changes to this process's module state, so a kernel
    reads everything it needs from its pickled arguments. A pool whose
    process died raises BrokenProcessPool and is dropped, so the next call
    starts a new one.
    """
    size = _pool_size(workers, _usable_cpus())
    if size <= 1 or len(items) <= 1:
        return [kernel(shared, item) for item in items]
    chunk = max(1, math.ceil(len(items) / (4 * size)))
    with _pool_lock:
        pool = _shared_pool(size)
        try:
            return list(pool.map(partial(kernel, shared), items, chunksize=chunk))
        except BrokenProcessPool:
            _close_pool()
            raise


# A block, one item of the process pool, holds at most _BLOCK_TRIALS trials
# of n values each and at most _BLOCK_DRAWS values (the largest thm4 item at
# the benchmark's 500 trials): n uniforms per sample, or n instance-array
# entries per thm5 draw. Uniforms are never held for a whole block:
# rng.cell_counts streams them through its own small block, so the
# bound sizes the work of one item; a thm5 block does hold its instances.
_BLOCK_DRAWS = 500 * 1600
_BLOCK_TRIALS = 256


def _trial_blocks(first: int, trials: int, n: int) -> list[tuple[int, int]]:
    """(first trial index, trial count) of the blocks that cover trials
    first .. first + trials - 1 of n values each."""
    size = max(1, min(_BLOCK_TRIALS, _BLOCK_DRAWS // n))
    return [(t, min(size, first + trials - t)) for t in range(first, first + trials, size)]


def describe_hypothesis(h: Hypothesis) -> str:
    d = h.descriptor
    if d is None:
        return _labels_bits(h.labels)
    if d[0] == "threshold":
        return f"threshold(axis={d[1]},at={d[2]:g})"
    if d[0] == "halfspace":
        w = ",".join(f"{v:g}" for v in d[1])
        return f"halfspace(w=({w}),b={d[2]:g})"
    if d[0] == "singleton":
        return f"singleton({d[1]})"
    if d[0] == "constant":
        return f"constant({d[1]})"
    return repr(d)


def _labels_bits(labels: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in labels)


def _class_losses(H: HypothesisClass, P: LabeledDistribution, graph: ManipulationGraph) -> tuple:
    """Per-member exact columns as lists: binary, strategic and component
    expected losses, incentive compatibility, effective labels (rows of a
    matrix) and their binary loss."""
    L = H.labels_matrix()
    comp = class_component_matrix(H, graph)
    effective = L | comp
    binary = LossKind.binary()
    return (
        expected_rows(binary, L, None, P).tolist(),
        expected_rows(LossKind.strategic(graph), L, comp, P).tolist(),
        expected_rows(LossKind.component(graph), L, comp, P).tolist(),
        (~comp.any(axis=1)).tolist(),
        effective,
        expected_rows(binary, effective, None, P).tolist(),
    )


# ---------------------------------------------------------------------------
# evaluation and VC tables (the eval and vc subcommands)


def eval_table(sc: Scenario, burden: bool = True) -> ResultTable:
    """Per-member exact losses under the scenario's graph and distribution."""
    table = ResultTable(
        (
            "index",
            "hypothesis",
            "binary_loss",
            "strategic_loss",
            "component_loss",
            "incentive_compatible",
            "effective_labels",
            "effective_binary_loss",
            "burden_conditional",
            "burden_numerator",
        )
    )
    blank = [None] * len(sc.hclass)
    burdens = (blank, blank)
    if burden:
        try:
            burdens = [col.tolist() for col in class_social_burden(sc.hclass, sc.dist, sc.graph)]
        except UndefinedBurdenError:  # depends on the distribution alone: every row is blank
            pass
    columns = zip(*_class_losses(sc.hclass, sc.dist, sc.graph), *burdens)
    for i, (h, (b, s, c, ic, eff, eb, bc, bn)) in enumerate(zip(sc.hclass, columns)):
        table.append(i, describe_hypothesis(h), b, s, c, ic, _labels_bits(eff), eb, bc, bn)
    return table


def vc_table(
    sc: Scenario,
    targets: Optional[Sequence[str]] = None,
    cap: Optional[int] = None,
    ground_limit: Optional[int] = None,
) -> ResultTable:
    """VC reports for the class and its loss classes.

    Targets: class (positive sets over points), binary / strategic (loss
    sets over (point, label) pairs), component (loss sets over points), and
    graph (loss sets of (hypothesis, candidate) pairs over the true
    successor-set ground; needs candidate graphs).
    """
    from .vcdim import DEFAULT_CAP, DEFAULT_GROUND_LIMIT, VC_TARGETS, graph_loss_class

    cap = DEFAULT_CAP if cap is None else cap
    ground_limit = DEFAULT_GROUND_LIMIT if ground_limit is None else ground_limit
    if targets is None:
        targets = [t for t in VC_TARGETS if t != "graph" or sc.graph_class is not None]
    table = ResultTable(("target", "dimension", "capped", "ground_size", "set_count", "witness"))
    H = sc.hclass
    for t in targets:
        if t == "class":
            system = class_system(H)
        elif t == "binary":
            system = loss_class(H, LossKind.binary())
        elif t == "strategic":
            system = loss_class(H, LossKind.strategic(sc.graph))
        elif t == "component":
            system = loss_class(H, LossKind.component(sc.graph))
        elif t == "graph":
            if sc.graph_class is None:
                raise ConfigError("vc.targets: 'graph' needs a scenario with candidate graphs")
            nsets = sc.graph.neighbor_sets()
            pairs = [(x, nsets[x]) for x in range(sc.domain.size)]
            system = graph_loss_class(H, list(sc.graph_class), sc.domain, pairs)
        else:
            raise ConfigError(f"vc.targets: unknown target {t!r}")
        report = vc_dimension(system, cap=cap, ground_limit=ground_limit)
        table.append(
            t,
            report.dimension,
            report.capped,
            len(system.ground),
            len(system.sets),
            ";".join(str(i) for i in report.witness),
        )
    return table


# ---------------------------------------------------------------------------
# example1: gaming on a two-way chain with thresholds


def _exp_example1(spec, params, seed, workers) -> ExperimentResult:
    """Thresholds on a bidirectional chain: only the constants resist gaming,
    and any such hypothesis pays one half on the balanced two-block
    distribution, while the unrestricted strategic optimum pays 1/n."""
    sc = gen_example1(n=params["n"])
    H, P, graph = sc.hclass, sc.dist, sc.graph
    strategic = LossKind.strategic(graph)
    table = ResultTable(
        ("threshold", "binary_loss", "strategic_loss", "component_loss",
         "incentive_compatible", "effective_labels")
    )
    binary, strategic_losses, component, ic_flags, effective, _ = _class_losses(H, P, graph)
    for h, b, s, c, flag, eff in zip(H, binary, strategic_losses, component, ic_flags, effective):
        table.append(float(h.descriptor[2]), b, s, c, flag, _labels_bits(eff))
    checks = []
    constants = {i for i, h in enumerate(H) if not h.labels.any() or h.labels.all()}
    ic_set = {i for i, f in enumerate(ic_flags) if f}
    checks.append(
        _check(
            "example1.ic-members",
            ic_set == constants,
            f"incentive compatible members {sorted(ic_set)} vs constants {sorted(constants)}",
        )
    )
    ic_losses = [strategic_losses[i] for i in sorted(ic_set)]
    checks.append(
        _check(
            "example1.ic-loss-half",
            all(v == 0.5 for v in ic_losses),
            f"strategic loss of incentive compatible members: {ic_losses}",
        )
    )
    S = draw_sample(P, params["sample_size"], trial_seed(seed, 0))
    pick = ic_erm(H, S, graph)
    pick_loss = expected_loss(strategic, pick.hypothesis, P)
    checks.append(
        _check(
            "example1.ic-erm-loss",
            pick_loss == 0.5 and is_incentive_compatible(pick.hypothesis, graph),
            f"picked index {pick.index} with true strategic loss {pick_loss}",
        )
    )
    best = min(strategic_losses)
    checks.append(
        _check(
            "example1.gaming-gap",
            best < min(ic_losses),
            f"unrestricted strategic optimum {best} vs incentive compatible optimum {min(ic_losses)}",
        )
    )
    return ExperimentResult("example1", table, checks)


# ---------------------------------------------------------------------------
# example2: strategic vs accuracy vs post-response optima on a one-way chain


def _exp_example2(spec, params, seed, workers) -> ExperimentResult:
    """Sweep the decisive probability: the strategic optimum switches between
    the two interior thresholds, while the post-response optimum stays at the
    upper one with exact loss zero."""
    p1, p4, sample_size = params["p1"], params["p4"], params["sample_size"]
    table = ResultTable(
        ("p2", "p3", "strategic_best", "strategic_best_loss",
         "post_response_best", "post_response_loss", "erm_pick", "erm_empirical_loss")
    )
    checks = []
    switch_ok, post_ok, domination_ok = True, True, True
    details = []
    for row_i, p2 in enumerate(params["p2_grid"]):
        p3 = 1.0 - p1 - p4 - p2
        if p3 < 0:
            raise ConfigError(f"experiment.params: p2={p2} leaves a negative p3")
        sc = gen_example2(p1, p2, p3, p4)
        H, P, graph = sc.hclass, sc.dist, sc.graph
        binary, losses, component, _, _, eff_losses = _class_losses(H, P, graph)
        best_i = int(np.argmin(losses))
        post_i = int(np.argmin(eff_losses))
        S = draw_sample(P, sample_size, trial_seed(seed, row_i))
        pick = erm(H, S, LossKind.strategic(graph))
        cut = lambda i: float(H[i].descriptor[2])
        table.append(
            p2, p3, cut(best_i), losses[best_i], cut(post_i), eff_losses[post_i],
            cut(pick.index), pick.empirical_value,
        )
        expect = 2.5 if p2 <= p3 else 3.5
        if cut(best_i) != expect:
            switch_ok = False
            details.append(f"p2={p2}: strategic best {cut(best_i)} expected {expect}")
        if cut(post_i) != 3.5 or eff_losses[post_i] != 0.0:
            post_ok = False
            details.append(f"p2={p2}: post-response best {cut(post_i)} loss {eff_losses[post_i]}")
        for h, s, b, c in zip(H, losses, binary, component):
            if s > b + c + 1e-12:
                domination_ok = False
                details.append(f"p2={p2}: domination fails at {describe_hypothesis(h)}")
    checks.append(
        _check(
            "example2.optimum-switch",
            switch_ok,
            "; ".join(details) or "strategic optimum is the lower threshold iff p2 <= p3",
        )
    )
    checks.append(
        _check(
            "example2.post-response-zero",
            post_ok,
            "post-response optimum is the upper threshold with exact loss 0 on every row",
        )
    )
    checks.append(
        _check(
            "example2.domination",
            domination_ok,
            "strategic loss <= binary + component for every member and row",
        )
    )
    return ExperimentResult("example2", table, checks)


# ---------------------------------------------------------------------------
# obs1: a VC-1 class whose strategic loss class has dimension d


def _exp_obs1(spec, params, seed, workers) -> ExperimentResult:
    """Singleton blow-up: the class shatters no pair, yet its strategic loss
    sets cut the d rejected source points completely freely."""
    table = ResultTable(
        ("d", "n_points", "class_vc", "strategic_vc", "strategic_capped", "witness")
    )
    checks = []
    cap = params["cap"]
    for d in params["d_values"]:
        sc = gen_obs1(d)
        H = sc.hclass
        class_report = vc_dimension(class_system(H), cap=cap)
        strat_system = loss_class(H, LossKind.strategic(sc.graph))
        strat_report = vc_dimension(strat_system, cap=cap)
        source_pairs = [2 * i for i in range(d)]  # ground index of (x_i, 0)
        shattered = is_shattered(strat_system, source_pairs)
        table.append(
            d,
            sc.domain.size,
            class_report.dimension,
            strat_report.dimension,
            strat_report.capped,
            ";".join(str(i) for i in strat_report.witness),
        )
        checks.append(
            _check(
                f"obs1.class-vc[d={d}]",
                class_report.dimension == 1 and not class_report.capped,
                f"class dimension {class_report.dimension}",
            )
        )
        checks.append(
            _check(
                f"obs1.strategic-vc[d={d}]",
                strat_report.dimension == d and not strat_report.capped,
                f"strategic loss class dimension {strat_report.dimension}, expected {d}",
            )
        )
        checks.append(
            _check(
                f"obs1.source-shattering[d={d}]",
                shattered,
                f"rejected-source pairs {source_pairs} shattered: {shattered}",
            )
        )
    return ExperimentResult("obs1", table, checks)


# ---------------------------------------------------------------------------
# thm3: sample complexity of the singleton learner


def _thm3_block(shared, item) -> int:
    """How many trials of one block end with true loss above eps. The
    learner's output is looked up in ``loss_by_point`` (the loss of the
    singleton of each point, the all-zeros loss last)."""
    targets, master, per_eps = shared
    ei, first, count = item
    P, cum, n, eps, loss_by_point = per_eps[ei]
    counts = cell_counts(cum, count, n, trial_rows(master, first, count, n))
    accepted, broken = singleton_decisions(counts[:, 1::2] > 0, targets)
    if broken.any():  # the scalar learner raises the RealizabilityError
        singleton_learner(draw_sample(P, n, trial_seed(master, first + int(broken.argmax()))), targets)
    return int((loss_by_point[accepted] > eps).sum())


def _exp_thm3(spec, params, seed, workers) -> ExperimentResult:
    """Singleton learner on a realizable distribution: after
    n = ceil(ln(1/delta) / (2 eps)) + slack draws, the failure rate (true
    strategic loss above eps) stays below delta. Failure happens exactly when
    the positive target never shows up, with probability (1 - 2 eps)^n."""
    d, target_j, delta, slack = params["d"], params["target_j"], params["delta"], params["slack"]
    trials = params["trials"]
    sc = gen_obs1(d)
    kind = LossKind.strategic(sc.graph)
    targets = tuple(range(d, d + (1 << d)))
    table = ResultTable(
        ("eps", "delta", "n", "exact_failure_prob", "observed_failure_rate", "trials")
    )
    checks = []
    eps_values = params["eps_values"]
    try:
        dists = [obs1_distribution(d, target_j, eps) for eps in eps_values]
    except ValueError as e:
        raise ConfigError(f"experiment.params.target_j: {e}") from e
    ns = [math.ceil(math.log(1.0 / delta) / (2.0 * eps)) + slack for eps in eps_values]
    per_eps, items = [], []
    for ei, (eps, n, P) in enumerate(zip(eps_values, ns, dists)):
        loss_by_point = np.full(P.size + 1, np.nan)
        for z in (*targets, -1):
            loss_by_point[z] = expected_loss(kind, _singleton_hypothesis(P.size, z), P)
        per_eps.append((P, np.cumsum(P.weights.ravel()), n, eps, loss_by_point))
        items += [(ei, *block) for block in _trial_blocks(ei * trials, trials, n)]
    fails = [0] * len(eps_values)
    for (ei, _, _), f in zip(items, _run_seeded(_thm3_block, (targets, seed, per_eps), items, workers)):
        fails[ei] += f
    for eps, n, f in zip(eps_values, ns, fails):
        exact = (1.0 - 2.0 * eps) ** n
        rate = f / trials
        table.append(eps, delta, n, exact, rate, trials)
        checks.append(
            _check(
                f"thm3.bound[eps={eps:g}]",
                exact <= delta,
                f"exact failure probability {exact:.6f} vs delta {delta}",
            )
        )
        checks.append(
            _check(
                f"thm3.failure-rate[eps={eps:g}]",
                rate <= delta + 0.05,
                f"observed {rate:.4f} over {trials} trials, tolerance {delta + 0.05}",
            )
        )
    return ExperimentResult("thm3", table, checks)


# ---------------------------------------------------------------------------
# thm4: strategic ERM converges on instances with bounded combined dimension


def _thm4_erm_excess(shared, item) -> np.ndarray:
    """Excess true loss of strategic ERM in `trials` samples of size n from one
    instance; shared[instance] is (int64 loss tables, expected losses, cum)."""
    instance, n, trials, unit_seed = item
    tables, expected, cum = shared[instance]
    bitgen = np.random.PCG64(unit_seed)
    counts = cell_counts(cum, trials, n, lambda r, rows: bitgen.random_raw((rows, n)))
    picks = (counts @ tables.T).argmin(axis=1)  # lowest index on ties, same rule as erm()
    return expected[picks] - expected.min()


def _thm4_instances(params, seed) -> list[Scenario]:
    instances = []
    budget, want = params["vc_budget"], params["instances"]
    attempts = 0
    k = 0
    while len(instances) < want:
        attempts += 1
        if attempts > 50 * want:
            raise ConfigError("could not find enough instances within the dimension budget")
        sc = gen_random(
            n_points=params["n_points"],
            n_hypotheses=params["n_hypotheses"],
            density=params["density"],
            seed=trial_seed(seed, _THM4_INSTANCE_BASE + k),
        )
        k += 1
        d1 = vc_dimension(class_system(sc.hclass))
        d2 = vc_dimension(loss_class(sc.hclass, LossKind.component(sc.graph)))
        if d1.capped or d2.capped or d1.dimension + d2.dimension > budget:
            continue
        instances.append(sc)
    return instances


def _exp_thm4(spec, params, seed, workers) -> ExperimentResult:
    """Excess true strategic loss of empirical strategic ERM, over random
    instances whose class dimension plus component loss dimension stays
    within a budget. The pooled median excess must not increase with the
    sample size and must be small at the largest size."""
    instances = _thm4_instances(params, seed)
    n_grid, trials = params["n_grid"], params["trials"]
    shared = []
    items = []
    for inst_i, sc in enumerate(instances):
        strategic = LossKind.strategic(sc.graph)
        L, comp = sc.hclass.labels_matrix(), class_component_matrix(sc.hclass, sc.graph)
        tables = loss_cells("strategic", L, comp).reshape(len(L), -1).astype(np.int64)
        expected = expected_rows(strategic, L, comp, sc.dist)
        shared.append((tables, expected, np.cumsum(sc.dist.weights.ravel())))
        for n_i, n in enumerate(n_grid):
            unit_seed = trial_seed(seed, _THM4_UNIT_BASE + inst_i * len(n_grid) + n_i)
            items.append((inst_i, n, trials, unit_seed))
    results = _run_seeded(_thm4_erm_excess, shared, items, workers)
    table = ResultTable(
        ("n", "median_excess", "mean_excess", "max_excess", "instances", "trials")
    )
    medians = []
    for n_i, n in enumerate(n_grid):
        pooled = np.concatenate(results[n_i :: len(n_grid)])
        med = float(np.median(pooled))
        medians.append(med)
        table.append(n, med, float(pooled.mean()), float(pooled.max()), len(instances), trials)
    nonincreasing = all(medians[i + 1] <= medians[i] + 1e-12 for i in range(len(medians) - 1))
    checks = [
        _check(
            "thm4.median-nonincreasing",
            nonincreasing,
            f"pooled median excess per n: {[f'{m:.6f}' for m in medians]}",
        ),
        _check(
            "thm4.final-excess",
            medians[-1] <= params["excess_tol"],
            f"median excess {medians[-1]:.6f} at n={n_grid[-1]}, "
            f"tolerance {params['excess_tol']}",
        ),
    ]
    return ExperimentResult("thm4", table, checks)


# ---------------------------------------------------------------------------
# thm5: the loss-transfer chain on random instances


def _thm5_block(shared, item) -> list[tuple]:
    """Table rows of one block of draws. Draw k is the surrogate chain of
    member k % n_hypotheses on the random instance that
    gen_random(seed=trial_seed(master, _THM5_BASE + k), n_graphs=1) builds
    (see scenarios._thm5_arrays)."""
    n_hypotheses = shared[1]
    first, count = item
    ks = range(first, first + count)
    members = [k % n_hypotheses for k in ks]
    labels, adj, cand, weights = _thm5_arrays(shared, _THM5_BASE + first, count)
    reports = _surrogate_chain(labels, adj, cand, weights, members)
    return [
        (k, h_i, rep.true_strategic, rep.binary, rep.surrogate_component,
         rep.surrogate_strategic, rep.distance, rep.upper1, rep.upper2,
         rep.lower, rep.lower_tight, rep.min_slack())
        for k, h_i, rep in zip(ks, members, reports)
    ]


def _exp_thm5(spec, params, seed, workers) -> ExperimentResult:
    """Evaluate the surrogate chain on seeded random instances. Construction
    already validates lower <= true <= upper1 <= upper2; the check records
    the worst slack on top of that."""
    draws = params["draws"]
    table = ResultTable(
        ("draw", "member", "true_strategic", "binary", "surrogate_component",
         "surrogate_strategic", "distance", "upper1", "upper2", "lower",
         "lower_tight", "min_slack")
    )
    n_points, n_hypotheses = params["n_points"], params["n_hypotheses"]
    shared = (n_points, n_hypotheses, params["density"], seed)
    items = _trial_blocks(0, draws, n_points * (n_points + n_hypotheses))
    rows = [row for block in _run_seeded(_thm5_block, shared, items, workers) for row in block]
    for row in rows:
        table.append(*row)
    worst = min(row[-1] for row in rows)
    tol = params["slack_tol"]
    checks = [
        _check(
            "thm5.chain-holds",
            worst >= -tol,
            f"worst slack {worst:.3e} over {draws} draws, tolerance -{tol:g}",
        )
    ]
    return ExperimentResult("thm5", table, checks)


# ---------------------------------------------------------------------------
# graph-learn: estimate the graph from samples, then learn under it


def _require_candidates(sc: Scenario) -> None:
    if sc.graph_class is None:
        raise ConfigError(
            "scenario: this experiment needs candidate graphs "
            "(generator random with n_graphs > 0, or inline candidates)"
        )


_GRAPH_SCENARIO_DEFAULT = {
    "generator": "random",
    "params": {"n_points": 10, "n_hypotheses": 8, "density": 0.3, "n_graphs": 6},
}


def _exp_graph_learn(spec, params, seed, workers) -> ExperimentResult:
    """Pipeline demo: draw (point, target set) observations, pick the
    candidate graph by empirical distance, run strategic ERM under it, and
    report the loss-transfer chain of the picked hypothesis."""
    sc = build_scenario(spec or _GRAPH_SCENARIO_DEFAULT, seed)
    _require_candidates(sc)
    H, P, truth, G = sc.hclass, sc.dist, sc.graph, sc.graph_class
    marginal = P.marginal()
    sample_file = params.get("sample_file")
    if sample_file:
        try:
            S = read_graph_sample(sample_file, sc.domain.size)
        except OSError as e:
            raise ConfigError(f"graph_learn.sample_file: {sample_file}: {e.strerror}") from e
        except ValueError as e:
            raise ConfigError(f"graph_learn.sample_file: {e}") from e
        source = str(sample_file)
    else:
        S = draw_graph_sample(marginal, truth, params["sample_size"], trial_seed(seed, 0))
        source = "drawn"
    learned = graph_erm(G, H, S)
    emp = [empirical_sample_distance(g, H, S) for g in G]
    true_d = [hpx_distance(truth, g, H, marginal) for g in G]
    table = ResultTable(("record", "field", "value"))
    table.append("sample", "size", len(S))
    table.append("sample", "source", source)
    for i in range(len(G)):
        table.append(f"candidate[{i}]", "empirical_distance", emp[i])
        table.append(f"candidate[{i}]", "true_distance", true_d[i])
    table.append("selected", "index", learned.index)
    table.append("selected", "empirical_distance", learned.empirical_value)
    table.append("selected", "true_distance", true_d[learned.index])
    table.append("selected", "tie_count", learned.tie_count)
    S_l = draw_sample(P, params["labeled_sample_size"], trial_seed(seed, 1))
    pick = erm(H, S_l, LossKind.strategic(learned.graph))
    table.append("erm", "hypothesis_index", pick.index)
    table.append("erm", "hypothesis", describe_hypothesis(pick.hypothesis))
    table.append("erm", "empirical_strategic_loss", pick.empirical_value)
    table.append("erm", "tie_count", pick.tie_count)
    rep = surrogate_bounds(pick.hypothesis, truth, learned.graph, H, P)
    for name in (
        "true_strategic", "binary", "surrogate_component", "surrogate_strategic",
        "distance", "upper1", "upper2", "lower", "lower_tight",
    ):
        table.append("bounds", name, getattr(rep, name))
    table.append("bounds", "min_slack", rep.min_slack())
    checks = [
        _check(
            "graph-learn.erm-minimal",
            abs(learned.empirical_value - min(emp)) <= 1e-15,
            f"selected empirical distance {learned.empirical_value} vs minimum {min(emp)}",
        ),
        _check(
            "graph-learn.chain-holds",
            rep.min_slack() >= -1e-12,
            f"min slack {rep.min_slack():.3e}",
        ),
    ]
    return ExperimentResult("graph-learn", table, checks)


# ---------------------------------------------------------------------------
# uniform-conv: empirical distances concentrate at the Monte Carlo rate


def _uc_block(shared, item) -> tuple[np.ndarray, np.ndarray]:
    """Per trial of one block of samples of size n: the largest
    true-vs-empirical distance gap, and whether the selected candidate is
    within the margin. diff is the (candidates * members, points) int64
    component mismatch matrix."""
    diff, true_d, cum, margin, master = shared
    n, first, count = item
    counts = cell_counts(cum, count, n, trial_rows(master, first, count, n))
    per = (counts @ diff.T).reshape(count, true_d.shape[0], -1).max(axis=2) / n
    li = per.argmin(axis=1)  # lowest index on ties, same rule as graph_erm()
    covered = true_d[li] < per[np.arange(count), li] + margin
    return np.abs(true_d - per).max(axis=1), covered


def _exp_uniform_conv(spec, params, seed, workers) -> ExperimentResult:
    """Deviation between true and empirical graph distances across the
    candidate class, swept over sample sizes in factors of four. The median
    deviation must shrink at roughly the square-root rate, and at the largest
    size the empirically selected graph's true distance must be within a
    margin of its empirical one in most trials."""
    spec = spec or {
        "generator": "random",
        "params": {"n_points": 10, "n_hypotheses": 8, "density": 0.3, "n_graphs": 5},
    }
    sc = build_scenario(spec, seed)
    _require_candidates(sc)
    H, truth, G = sc.hclass, sc.graph, sc.graph_class
    marginal = sc.dist.marginal()
    comp_truth = class_component_matrix(H, truth)
    diff = np.concatenate([comp_truth != class_component_matrix(H, g) for g in G]).astype(np.int64)
    true_d = np.array([hpx_distance(truth, g, H, marginal) for g in G])
    n_grid, trials, margin = params["n_grid"], params["trials"], params["coverage_margin"]
    shared = (diff, true_d, np.cumsum(marginal), margin, seed)
    items = [
        (n, *block)
        for n_i, n in enumerate(n_grid)
        for block in _trial_blocks(_UC_BASE + n_i * trials, trials, n)
    ]
    results = _run_seeded(_uc_block, shared, items, workers)
    per_n_devs = np.concatenate([r[0] for r in results]).reshape(len(n_grid), trials)
    per_n_cov = np.concatenate([r[1] for r in results]).reshape(len(n_grid), trials)
    table = ResultTable(("n", "median_deviation", "mean_deviation", "coverage", "trials"))
    medians = []
    for n_i, n in enumerate(n_grid):
        med = float(np.median(per_n_devs[n_i]))
        medians.append(med)
        table.append(
            n, med, float(per_n_devs[n_i].mean()), float(per_n_cov[n_i].mean()), trials
        )
    checks = []
    lo, hi = params["ratio_low"], params["ratio_high"]
    for i in range(len(n_grid) - 1):
        if medians[i + 1] > 0:
            ratio = medians[i] / medians[i + 1]
            ok = lo <= ratio <= hi
            detail = f"median({n_grid[i]}) / median({n_grid[i + 1]}) = {ratio:.3f}, band [{lo}, {hi}]"
        else:
            ok = False
            detail = f"median deviation at n={n_grid[i + 1]} is zero"
        checks.append(_check(f"uniform-conv.ratio[{n_grid[i]}/{n_grid[i + 1]}]", ok, detail))
    coverage = float(per_n_cov[-1].mean())
    frac = params["coverage_frac"]
    checks.append(
        _check(
            "uniform-conv.learned-coverage",
            coverage >= frac,
            f"selected graph within {margin} of its empirical distance in "
            f"{coverage:.1%} of trials at n={n_grid[-1]}, need {frac:.0%}",
        )
    )
    return ExperimentResult("uniform-conv", table, checks)


# ---------------------------------------------------------------------------
# registry


# Each experiment's params table, in the form config._check_param reads.
# thm4 and thm5 draw gen_random instances, so they share its intervals.
_REGISTRY: dict[str, tuple[dict[str, tuple], Callable]] = {
    "example1": ({"n": (10, _CHAIN), "sample_size": (400, _COUNT)}, _exp_example1),
    "example2": (
        {"p1": (0.25, _PROBABILITY), "p4": (0.25, _PROBABILITY),
         "p2_grid": ([0.05, 0.15, 0.25, 0.35, 0.45], _PROBABILITY),
         "sample_size": (200, _COUNT)},
        _exp_example2,
    ),
    "obs1": ({"d_values": ([2, 3], _OBS1_D), "cap": (5, _NONNEGATIVE)}, _exp_obs1),
    "thm3": (
        {"eps_values": ([0.05, 0.1], "(0, 0.5)"), "delta": (0.1, "(0, 1)"),
         "slack": (2, _NONNEGATIVE), "d": (3, _OBS1_D), "target_j": (1, _NONNEGATIVE),
         "trials": (2000, _COUNT)},
        _exp_thm3,
    ),
    "thm4": (
        {"instances": (20, _COUNT), "n_points": (8, _POINTS), "n_hypotheses": (6, _HYPOTHESES),
         "density": (0.35, _PROBABILITY), "vc_budget": (4, _NONNEGATIVE),
         "n_grid": ([25, 100, 400, 1600], _COUNT), "trials": (200, _COUNT),
         "excess_tol": (0.05, _NONNEGATIVE)},
        _exp_thm4,
    ),
    "thm5": (
        {"draws": (500, _COUNT), "n_points": (8, _POINTS), "n_hypotheses": (6, _HYPOTHESES),
         "density": (0.35, _PROBABILITY), "slack_tol": (1e-12, _NONNEGATIVE)},
        _exp_thm5,
    ),
    "graph-learn": (_GRAPH_LEARN, _exp_graph_learn),
    "uniform-conv": (
        {"n_grid": ([50, 200, 800, 3200], _COUNT), "trials": (200, _COUNT),
         "ratio_low": (1.4, _NONNEGATIVE), "ratio_high": (2.8, _NONNEGATIVE),
         "coverage_margin": (0.1, _NONNEGATIVE), "coverage_frac": (0.9, _PROBABILITY)},
        _exp_uniform_conv,
    ),
}


def available_experiments() -> list[str]:
    return sorted(_REGISTRY)


def run_experiment(
    name: str,
    scenario_spec: Optional[dict] = None,
    params: Optional[dict] = None,
    seed: int = 0,
    trials: Optional[int] = None,
    workers: int = 1,
) -> ExperimentResult:
    """Run a named experiment.

    ``trials`` overrides the experiment's trial (or draw) count where one
    applies. ``scenario_spec`` feeds graph-learn and uniform-conv; the
    canonical-instance experiments build their own scenarios.
    """
    if name not in _REGISTRY:
        raise ConfigError(
            f"experiment.name: unknown experiment {name!r}; available: {available_experiments()}"
        )
    table, fn = _REGISTRY[name]
    params = dict(params or {})
    for count in ("trials", "draws"):
        if trials is not None and count in table:
            params[count] = trials
    params = _merge_params("experiment.params", params, table)
    return fn(scenario_spec, params, int(seed), int(workers))
