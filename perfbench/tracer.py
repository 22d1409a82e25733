"""Span tracer for the traced pass of a benchmark run.

`Tracer.install` replaces every public function of strategia (the functions
in ``strategia.__all__``, plus ``cli.main`` and ``ResultTable.write_csv``)
by a timing wrapper at every module binding: ``strategia.experiments``
imports ``social_burden`` from ``strategia.losses``, so both names are
rebound. A span is (name, start, end, parent span, call id); spans stay in
memory until the run ends, when they are written out and reduced to
per-layer metrics. A span's self time is its duration minus the time its
child spans cover.

Work counters are taken from the arguments, return values and exceptions
of a few functions (see `_HOOKS`).
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = (
    "cli", "config", "domain", "scenarios", "losses", "learners",
    "graphdist", "vcdim", "experiments", "results",
)

EXPERIMENTS = ("thm3", "thm4", "thm5", "uniform-conv", "graph-learn")

# Functions whose calls and self time are reported as per-layer metrics;
# every other wrapped function still appears in the printed report.
REPORTED_FUNCTIONS = (
    "config.load_config", "config.build_scenario", "config.resolve_workers",
    "scenarios.gen_random", "scenarios.gen_obs1", "scenarios.obs1_distribution",
    "losses.class_component_matrix", "losses.social_burden", "losses.expected_loss",
    "losses.loss_table", "losses.component_vector", "losses.reach_positive",
    "losses.effective_hypothesis", "losses.is_incentive_compatible",
    "learners.draw_sample", "learners.singleton_learner", "learners.erm",
    "learners.trial_seed",
    "graphdist.draw_graph_sample", "graphdist.graph_erm", "graphdist.hpx_distance",
    "graphdist.empirical_sample_distance", "graphdist.surrogate_bounds",
    "vcdim.vc_dimension", "vcdim.loss_class", "vcdim.class_system",
    "vcdim.graph_loss_class",
    "experiments.eval_table", "experiments.vc_table", "experiments.run_experiment",
    "experiments.describe_hypothesis",
    "results.write_csv", "results.format_value",
    "cli.main",
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [(f"experiments.{e.replace('-', '_')}.self_s", "s", "lower") for e in EXPERIMENTS]
    + [m for f in REPORTED_FUNCTIONS
       for m in ((f"{f}.calls", "count", "lower"), (f"{f}.self_s", "s", "lower"))]
    + [
        ("losses.class_component_matrix.gop", "Gop", "lower"),
        ("losses.class_component_matrix.gop_per_s", "Gop/s", "higher"),
        ("losses.social_burden.undefined", "count", "lower"),
        ("learners.draw_sample.draws", "count", "lower"),
        ("learners.erm.ties", "count", "lower"),
        ("graphdist.graph_erm.ties", "count", "lower"),
        ("graphdist.draw_graph_sample.target_elems", "count", "lower"),
        ("vcdim.vc_dimension.ground_sum", "count", "lower"),
        ("vcdim.vc_dimension.capped", "count", "lower"),
        ("experiments.check_fails", "count", "lower"),
        ("experiments.thm4.instance_accept_ratio", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_gop(t, args, kwargs, out):
    H, graph = _arg(args, kwargs, 0, "H"), _arg(args, kwargs, 1, "graph")
    t.counts["losses.class_component_matrix.gop"] += len(H) * graph.size ** 2 / 1e9


def _count_draws(t, args, kwargs, out):
    t.counts["learners.draw_sample.draws"] += _arg(args, kwargs, 1, "n")


def _count_ties(name):
    def hook(t, args, kwargs, out):
        t.counts[name] += out.tie_count
    return hook


def _count_targets(t, args, kwargs, out):
    t.counts["graphdist.draw_graph_sample.target_elems"] += sum(map(len, out.bsets))


def _count_vc(t, args, kwargs, out):
    t.counts["vcdim.vc_dimension.ground_sum"] += len(_arg(args, kwargs, 0, "system").ground)
    t.counts["vcdim.vc_dimension.capped"] += int(out.capped)


def _count_experiment(t, args, kwargs, out):
    t.counts["experiments.check_fails"] += len(out.failures())
    if out.name == "thm4":
        # column 4 of the thm4 table is the number of instances kept
        t.counts["experiments.thm4.kept"] += out.table.rows[0][4]


def _count_gen_random(t, args, kwargs, out):
    if t.experiment is not None:
        t.counts[f"experiments.{t.experiment}.gen_random"] += 1


def _count_undefined(t, exc):
    if type(exc).__name__ == "UndefinedBurdenError":
        t.counts["losses.social_burden.undefined"] += 1


# name -> (after-return hook, on-exception hook)
_HOOKS = {
    "losses.class_component_matrix": (_count_gop, None),
    "losses.social_burden": (None, _count_undefined),
    "learners.draw_sample": (_count_draws, None),
    "learners.erm": (_count_ties("learners.erm.ties"), None),
    "graphdist.graph_erm": (_count_ties("graphdist.graph_erm.ties"), None),
    "graphdist.draw_graph_sample": (_count_targets, None),
    "vcdim.vc_dimension": (_count_vc, None),
    "experiments.run_experiment": (_count_experiment, None),
    "scenarios.gen_random": (_count_gen_random, None),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (span id, name id, start, end, parent id, call id)
        self.stack: list[int] = []
        self.call_id = -1
        self.experiment = None
        self.counts = defaultdict(float)
        self._patched: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        after, on_error = _HOOKS.get(name, (None, None))
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack
        is_experiment = name == "experiments.run_experiment"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            span_nid = nid
            if is_experiment:
                outer = self.experiment
                self.experiment = _arg(args, kwargs, 0, "name")
                span_nid = self.name_id(f"{name}[{self.experiment}]")
            stack.append(span)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span, span_nid, start, end, parent, self.call_id))
                if is_experiment:
                    self.experiment = outer
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    def install(self, pkg) -> None:
        """Wrap the public functions of the strategia package ``pkg``."""
        targets = {getattr(pkg, attr) for attr in pkg.__all__}
        targets = {obj for obj in targets if inspect.isfunction(obj)} | {pkg.cli.main}
        wrappers = {
            fn: self._wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn)
            for fn in targets
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == pkg.__name__ or n.startswith(pkg.__name__ + "."))]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        table_cls = pkg.results.ResultTable
        self._patch(table_cls, "write_csv", self._wrap("results.write_csv", table_cls.write_csv))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reduce(self) -> dict:
        """Per-name calls and self time, overall and per call id."""
        self.spans.sort()
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        by_call = defaultdict(lambda: defaultdict(float))
        for span, nid, start, end, _, call in self.spans:
            name = self.names[nid]
            own = end - start - child[span]
            calls[name] += 1
            self_s[name] += own
            by_call[call][name] += own
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "by_call": {c: dict(v) for c, v in by_call.items()},
            "counts": dict(self.counts),
        }

    def span_records(self):
        for span, nid, start, end, parent, call in self.spans:
            yield {"span": span, "name": self.names[nid], "start": start, "end": end,
                   "parent": parent, "call": call}


def per_layer_metrics(reduced: dict, jobs: int, overhead: float) -> dict:
    """Per-layer metric values per traced job, keyed as in `PER_LAYER`."""
    calls, self_s, counts = reduced["calls"], reduced["self_s"], reduced["counts"]
    fn_calls = defaultdict(int)
    fn_self = defaultdict(float)
    mod_self = defaultdict(float)
    exp_self = defaultdict(float)
    for name, s in self_s.items():
        fn, _, exp = name.partition("[")
        fn_calls[fn] += calls[name]
        fn_self[fn] += s
        mod_self[fn.split(".", 1)[0]] += s
        if exp:
            exp_self[exp.rstrip("]")] += s
    values = {}
    for m in MODULES:
        values[f"{m}.self_s"] = mod_self[m] / jobs
    for e in EXPERIMENTS:
        values[f"experiments.{e.replace('-', '_')}.self_s"] = exp_self[e] / jobs
    for f in REPORTED_FUNCTIONS:
        values[f"{f}.calls"] = fn_calls[f] / jobs
        values[f"{f}.self_s"] = fn_self[f] / jobs
    for key in (
        "losses.class_component_matrix.gop", "losses.social_burden.undefined",
        "learners.draw_sample.draws", "learners.erm.ties", "graphdist.graph_erm.ties",
        "graphdist.draw_graph_sample.target_elems", "vcdim.vc_dimension.ground_sum",
        "vcdim.vc_dimension.capped", "experiments.check_fails",
    ):
        values[key] = counts.get(key, 0.0) / jobs
    ccm_s = fn_self["losses.class_component_matrix"]
    values["losses.class_component_matrix.gop_per_s"] = (
        counts.get("losses.class_component_matrix.gop", 0.0) / ccm_s if ccm_s > 0 else 0.0
    )
    attempts = counts.get("experiments.thm4.gen_random", 0.0)
    values["experiments.thm4.instance_accept_ratio"] = (
        counts.get("experiments.thm4.kept", 0.0) / attempts if attempts else 0.0
    )
    values["trace.overhead"] = overhead
    return {name: values[name] for name, _, _ in PER_LAYER}
