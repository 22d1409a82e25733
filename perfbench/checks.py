"""Oracle checks of the CSV a benchmark call wrote.

Each check rebuilds the call's instance from its config and compares a
fixed, seeded sample of the CSV values with the brute-force references in
``strategia.oracles``. The sample is sized so that checking costs less than
the call it checks. A check returns a list of mismatch descriptions; an
empty list means the output agrees with the oracles.
"""

from __future__ import annotations

import csv
import io
import math
import random
from types import SimpleNamespace

# CSV floats carry 9 significant digits.
REL_TOL = 1e-8
ABS_TOL = 1e-12

EVAL_ROWS = 2
GRAPH_CANDIDATES = 1
THM5_ROWS = 8


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(field: str) -> float:
    return float(field) if field else math.nan


def _close(got: float, want: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class Checker:
    """Checks for one strategia package; ``sample_key`` seeds the value sample."""

    def __init__(self, pkg):
        from strategia import oracles

        self.pkg = pkg
        self.oracles = oracles

    def check(self, kind: str, config: dict, text: str, sample_key: str) -> list[str]:
        check = getattr(self, f"_check_{kind}", None)
        if check is None:
            return []
        rows = read_rows(text)
        rng = random.Random(sample_key)
        return check(config, rows, rng)

    def _scenario(self, config: dict):
        return self.pkg.build_scenario(config["scenario"], config["seed"])

    def _compare(self, where: str, got: float, want: float, out: list[str]) -> None:
        if not _close(got, want):
            out.append(f"{where}: output {got!r} != oracle {want!r}")

    def _check_eval(self, config, rows, rng) -> list[str]:
        o = self.oracles
        sc = self._scenario(config)
        out: list[str] = []
        if len(rows) != len(sc.hclass):
            return [f"eval: {len(rows)} rows for {len(sc.hclass)} members"]
        for i in sorted(rng.sample(range(len(rows)), min(EVAL_ROWS, len(rows)))):
            row, h = rows[i], sc.hclass[i]
            where = f"eval row {i}"
            if int(row["index"]) != i:
                out.append(f"{where}: index {row['index']}")
            self._compare(f"{where} binary_loss", _num(row["binary_loss"]),
                          float(o.oracle_expected_loss(h, sc.dist, "binary")), out)
            for kind in ("strategic", "component"):
                self._compare(f"{where} {kind}_loss", _num(row[f"{kind}_loss"]),
                              float(o.oracle_expected_loss(h, sc.dist, kind, sc.graph)), out)
            if not config.get("eval", {}).get("burden", True):
                continue
            try:
                cond, num = o.oracle_social_burden(h, sc.dist, sc.graph)
            except ValueError:  # no positive-label mass: the CSV leaves it empty
                cond = num = math.nan
            for col, want in (("burden_conditional", cond), ("burden_numerator", num)):
                got = _num(row[col])
                if math.isnan(want) != math.isnan(got) or (
                    not math.isnan(want) and not _close(got, want)
                ):
                    out.append(f"{where} {col}: output {got!r} != oracle {want!r}")
        return out

    def _check_graph_learn(self, config, rows, rng) -> list[str]:
        sc = self._scenario(config)
        values = {(r["record"], r["field"]): r["value"] for r in rows}
        marginal = sc.dist.marginal()
        out: list[str] = []
        for c in sorted(rng.sample(range(len(sc.graph_class)), GRAPH_CANDIDATES)):
            key = (f"candidate[{c}]", "true_distance")
            if key not in values:
                out.append(f"graph-learn: no {key[0]}.{key[1]} in the output")
                continue
            want = self.oracles.oracle_distance(sc.graph, sc.graph_class[c], sc.hclass, marginal)
            self._compare(f"graph-learn candidate[{c}] true_distance",
                          float(values[key]), float(want), out)
        return out

    def _vc_family(self, sc, target: str):
        """Ground and loss sets of a vc target, built from the oracle's definitions."""
        o = self.oracles
        H, n = sc.hclass, sc.domain.size
        labels = [o._labels_of(h) for h in H]
        if target == "class":
            return list(range(n)), [frozenset(x for x in range(n) if hl[x]) for hl in labels]
        if target == "graph":
            observed = [frozenset(s) for s in o._succ_of(sc.graph)]
            ground = list(zip(range(n), observed))
            sets = [
                frozenset(x for x in range(n) if o.oracle_graph_loss(h, g, x, observed[x]))
                for h in H for g in sc.graph_class
            ]
            return ground, sets
        succ = None if target == "binary" else o._succ_of(sc.graph)
        if target == "component":
            return list(range(n)), [
                frozenset(x for x in range(n) if o._point_loss("component", hl, succ, x, 0))
                for hl in labels
            ]
        ground = [(x, y) for x in range(n) for y in (0, 1)]
        return ground, [
            frozenset(2 * x + y for x in range(n) for y in (0, 1)
                      if o._point_loss(target, hl, succ, x, y))
            for hl in labels
        ]

    def _check_vc(self, config, rows, rng) -> list[str]:
        sc = self._scenario(config)
        cap = config["vc"]["cap"]
        out: list[str] = []
        for row in rows:
            target = row["target"]
            where = f"vc {target}"
            ground, sets = self._vc_family(sc, target)
            distinct = set(sets)
            dim, capped = int(row["dimension"]), row["capped"] == "true"
            witness = frozenset(int(v) for v in row["witness"].split(";") if v)
            if int(row["ground_size"]) != len(ground):
                out.append(f"{where}: ground_size {row['ground_size']} != {len(ground)}")
            if int(row["set_count"]) != len(distinct):
                out.append(f"{where}: set_count {row['set_count']} != {len(distinct)}")
            if len(witness) != max(dim, 0) or capped != (dim >= cap):
                out.append(f"{where}: witness {sorted(witness)} for dimension {dim}, capped {capped}")
            elif len({s & witness for s in distinct}) != 1 << len(witness):
                out.append(f"{where}: witness {sorted(witness)} is not shattered")
            if len(ground) <= 12:
                system = SimpleNamespace(ground=ground, sets=[tuple(sorted(s)) for s in distinct])
                want = self.oracles.oracle_vc(system, max_size=cap)
                if want != dim:
                    out.append(f"{where}: dimension {dim} != oracle {want}")
        return out

    def _check_thm5(self, config, rows, rng) -> list[str]:
        from strategia.experiments import _THM5_BASE

        o = self.oracles
        p = config["experiment"]["params"]
        out: list[str] = []
        for i in sorted(rng.sample(range(len(rows)), min(THM5_ROWS, len(rows)))):
            row = rows[i]
            k = int(row["draw"])
            sc = self.pkg.gen_random(
                n_points=p["n_points"], n_hypotheses=p["n_hypotheses"], density=p["density"],
                seed=self.pkg.trial_seed(config["seed"], _THM5_BASE + k), n_graphs=1,
            )
            h = sc.hclass[int(row["member"])]
            want = {
                "true_strategic": o.oracle_expected_loss(h, sc.dist, "strategic", sc.graph),
                "binary": o.oracle_expected_loss(h, sc.dist, "binary"),
                "surrogate_component": o.oracle_expected_loss(h, sc.dist, "component", sc.graph2),
                "surrogate_strategic": o.oracle_expected_loss(h, sc.dist, "strategic", sc.graph2),
                "distance": o.oracle_distance(sc.graph, sc.graph2, sc.hclass, sc.dist.marginal()),
            }
            want = {col: float(v) for col, v in want.items()}
            want["upper1"] = want["binary"] + want["surrogate_component"] + want["distance"]
            want["upper2"] = 2 * want["surrogate_strategic"] + want["distance"]
            want["lower"] = want["surrogate_strategic"] / 2 - want["distance"]
            want["lower_tight"] = want["surrogate_strategic"] / 2 - want["distance"] / 2
            for col, v in want.items():
                self._compare(f"thm5 draw {k} {col}", _num(row[col]), v, out)
        return out
