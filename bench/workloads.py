"""The four workloads: their seeded inputs, one operation each, and checks.

A workload builds a fixed list of items from the seed (``build``), runs one
item as one timed operation (``run``), and afterwards checks the outputs
of an item against values computed apart from the program (``check``).
``run`` fills the dict it is given step by step, so that the outputs of
the steps before a failure can still be checked.  ``fingerprint`` reduces
the outputs to a value that must be equal in every pass of a run.

The program is reached only through the module objects in ``api``, looked
up at call time, so that the tracer's wrappers are used when installed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle
from oracle import expect

EXACT_MAX_N = 18  # `cover bounds` computes the optimum up to this many sets


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Item:
    kind: str
    text: str = ""
    fmt: str = "native"
    params: dict = field(default_factory=dict)
    instance: object = None
    label: str = ""


class CheckContext:
    """Independent values shared by the checks of one run."""

    def __init__(self):
        self.h = oracle.Harmonic()
        self._problems = {}
        self._seen = {}

    def count(self, key) -> int:
        """How often the key was counted before (for checks made a few times)."""
        self._seen[key] = self._seen.get(key, 0) + 1
        return self._seen[key] - 1

    def problem(self, item: Item) -> oracle.Problem:
        key = id(item)
        if key not in self._problems:
            read = oracle.read_native if item.fmt == "native" else oracle.read_orlib
            self._problems[key] = read(item.text)
        return self._problems[key]


def _random_instance(api, rng, m, n, density):
    spec = api.generators.RandomSpec(m=m, n=n, density=density,
                                      weight_lo=Fraction(1), weight_hi=Fraction(10),
                                      seed=rng.getrandbits(32))
    return api.generators.gen_random(spec)


def _write_texts(api, items):
    """Native text and a size label for each item; a shared instance is written once."""
    texts = {}
    for item in items:
        inst = item.instance
        item.label = f"m={inst.m} n={inst.n}"
        if id(inst) not in texts:
            texts[id(inst)] = api.instance.write_native(inst)
        item.text = texts[id(inst)]


def _random_composition(rng, m, parts):
    """A composition of m into the given number of parts, cut at random gaps."""
    cuts = sorted(rng.sample(range(1, m), parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [m]))


class Workload:
    name = ""

    def prepare(self, api, item):
        """Untimed per-operation input; passed to run."""
        return None

    def failure_expected(self, out) -> bool:
        """True for the one failure a workload keeps and counts."""
        return False


class Estimate(Workload):
    """Per-instance comparison: `cover bounds` followed by `cover lp`."""

    name = "estimate"
    CS_PARTS = (2, 3, 4, 5, 6) * 2
    SMALL_N = (8, 9, 10, 11, 12, 12, 13, 13, 14, 14)
    MEDIUM_N = tuple(range(26, 34)) * 2
    # gf2(k) runs this many times per pass: the repeated k = 6 and k = 7
    # form the blocks that the median and the 90th percentile fall in
    GF2_REPEATS = {3: 1, 4: 1, 5: 1, 6: 12, 7: 8, 8: 1}

    def build(self, api, seed):
        rng = random.Random(f"estimate-{seed}")
        items = []
        for k, repeats in self.GF2_REPEATS.items():
            inst = api.generators.gen_gf2(k)
            items += [Item("gf2", params={"k": k}, instance=inst) for _ in range(repeats)]
        for count in self.CS_PARTS:
            parts = _random_composition(rng, rng.randint(count, 16), count)
            eps = Fraction(rng.randint(1, 999), 1000)
            inst = api.generators.gen_class_cs(api.generators.SequenceSpec(parts), eps)
            items.append(Item("cs", params={"parts": parts, "eps": eps}, instance=inst))
        for n in self.SMALL_N:
            inst = _random_instance(api, rng, 30, n, 0.25)
            items.append(Item("random-small", instance=inst))
        for n in self.MEDIUM_N:
            inst = _random_instance(api, rng, round(1.4 * n), n, 5 / n)
            items.append(Item("random-medium", instance=inst))
        _write_texts(api, items)
        for item in items:
            item.instance = None
        rng.shuffle(items)
        return items

    def run(self, api, item, out, prepared):
        inst = out["instance"] = api.instance.parse_native(item.text)
        trace = out["trace"] = api.greedy.greedy(inst)
        opt = None
        if inst.n <= EXACT_MAX_N:
            out["exact"] = api.exact.exact_opt(inst)
            opt = out["exact"].cover
        out["report"] = api.bounds.bound_report(inst, trace, opt)
        out["report_text"] = api.bounds.report_to_kv(out["report"])
        lp = out["lp"] = api.lp.solve_lp(inst)
        out["r"] = api.lp.r_estimate(trace, lp)

    def fingerprint(self, out):
        exact = out.get("exact")
        return (out["trace"].chosen, out["report"].G, out["lp"].objective,
                out["lp"].exact_objective, exact and exact.weight, out["r"])

    def check(self, api, item, out, ctx):
        problem = ctx.problem(item)
        oracle.check_parsed(problem, out["instance"])
        trace = out["trace"]
        oracle.check_greedy(problem, trace)
        opt = None
        if problem.n <= EXACT_MAX_N:
            opt = oracle.optimum(problem)
            oracle.check_exact(problem, out["exact"], opt)
            expect(trace.total_weight / opt <= oracle.g_value(trace.s, problem.m),
                   "w(Gr)/OPT exceeds G")
        g = oracle.check_bounds(problem, trace, out["report"], ctx.h,
                                out["exact"].cover if opt is not None else None)
        oracle.check_report_text(out["report_text"], g)
        lp = out["lp"]
        oracle.check_lp(problem, lp)
        value = lp.exact_objective if lp.exact_objective is not None else lp.objective
        slack = 0 if lp.exact_objective is not None else 1e-6 * float(trace.total_weight)
        m_bar = max(len(s) for s in problem.sets)
        expect(value <= (opt if opt is not None else trace.total_weight) + slack,
               "LP value exceeds OPT or w(Gr)")
        expect(trace.total_weight <= ctx.h(m_bar) * Fraction(value) + slack,
               "w(Gr) exceeds H(largest set) * LP (Chvatal)")
        if lp.exact_objective is not None:
            expect(out["r"] == trace.total_weight / lp.exact_objective, "R != w(Gr)/LP")
        else:
            expect(abs(out["r"] - float(trace.total_weight) / lp.objective) < 1e-12,
                   "R != w(Gr)/LP")
        if item.kind == "gf2":
            k = item.params["k"]
            expect(lp.exact_objective is not None, f"gf2({k}) LP is not certified")
            oracle.check_gf2(k, trace, lp.exact_objective)
        elif item.kind == "cs":
            oracle.check_cs(item.params["parts"], item.params["eps"], trace, opt)


class Trace(Workload):
    """The G-only estimate on large instances: parse, greedy, bound report."""

    name = "trace"
    SIZES = tuple((m, n) for m in (500, 800, 1100, 1400, 1700, 2000)
                  for n in (100, 150, 200, 250)) * 2

    def build(self, api, seed):
        rng = random.Random(f"trace-{seed}")
        items = [Item("gf2", params={"k": k}, instance=api.generators.gen_gf2(k))
                 for k in (9, 10)]
        for m, n in self.SIZES:
            items.append(Item("random", instance=_random_instance(api, rng, m, n, 5 / n)))
        _write_texts(api, items)
        for i, item in enumerate(items):
            item.instance = None
            if item.kind == "random" and i % 3 == 0:
                item.fmt = "orlib"
                item.text = oracle.render_orlib(oracle.read_native(item.text))
            tie = oracle.TIE_MAX_RESIDUAL if item.kind == "random" and i % 4 == 1 \
                else oracle.TIE_LOWEST_INDEX
            item.params["tie"] = tie
            item.label += f" {item.fmt} tie={tie}"
        rng.shuffle(items)
        return items

    def run(self, api, item, out, prepared):
        parse = api.instance.parse_native if item.fmt == "native" \
            else api.instance.parse_orlib
        inst = out["instance"] = parse(item.text)
        trace = out["trace"] = api.greedy.greedy(inst, tie=item.params["tie"])
        out["step"] = "bound_report"
        out["report"] = api.bounds.bound_report(inst, trace)
        out["step"] = "report_to_kv"
        out["report_text"] = api.bounds.report_to_kv(out["report"])
        out["step"] = "done"

    def failure_expected(self, out) -> bool:
        # the kept fault: bounds.harmonic recurses once per integer
        return (isinstance(out.get("error"), RecursionError)
                and out.get("step") == "bound_report")

    def fingerprint(self, out):
        trace = out["trace"]
        return (trace.chosen, trace.total_weight, out["step"], type(out.get("error")))

    def check(self, api, item, out, ctx):
        problem = ctx.problem(item)
        oracle.check_parsed(problem, out["instance"])
        trace = out["trace"]
        oracle.check_greedy(problem, trace, item.params["tie"])
        if item.kind == "gf2":
            oracle.check_gf2(item.params["k"], trace)
        if "error" not in out:
            g = oracle.check_bounds(problem, trace, out["report"], ctx.h)
            oracle.check_report_text(out["report_text"], g)


class Optimum(Workload):
    """The exact layer: exhaustive search and branch-and-bound."""

    name = "optimum"
    EXHAUSTIVE_N = (18, 18, 18, 18, 19, 19, 19, 20, 20, 21, 22)
    BNB = 24      # plain branch-and-bound, 20 x 20 at density 0.3
    BNB_LP = 24   # with the LP bound, 14 x 14 at density 0.2
    # plain branch-and-bound on gf2(4), a fixed input (585 nodes): the block
    # the median falls in
    BNB_GF2 = 30
    CROSS = 4     # plain B&B items also solved with the LP bound in the checks

    def build(self, api, seed):
        rng = random.Random(f"optimum-{seed}")
        items = []
        for n in self.EXHAUSTIVE_N:
            inst = _random_instance(api, rng, 30, n, 0.2)
            items.append(Item("exhaustive", params={"method": "exhaustive",
                                                    "lp_bound": False}, instance=inst))
        for _ in range(self.BNB):
            items.append(Item("bnb", params={"method": "branch-and-bound", "lp_bound": False},
                              instance=_random_instance(api, rng, 20, 20, 0.3)))
        for _ in range(self.BNB_LP):
            items.append(Item("bnb-lp", params={"method": "branch-and-bound", "lp_bound": True},
                              instance=_random_instance(api, rng, 14, 14, 0.2)))
        gf2 = api.generators.gen_gf2(4)
        items += [Item("bnb-gf2", params={"method": "branch-and-bound", "lp_bound": False},
                       instance=gf2) for _ in range(self.BNB_GF2)]
        _write_texts(api, items)
        rng.shuffle(items)
        return items

    def prepare(self, api, item):
        """A fresh Instance per operation, so no memo on it outlives one call."""
        inst = item.instance
        return api.instance.Instance(m=inst.m, sets=inst.sets, name=inst.name)

    def run(self, api, item, out, inst):
        budget = api.exact.SolveBudget(method=item.params["method"])
        out["result"] = api.exact.exact_opt(inst, budget, use_lp_bound=item.params["lp_bound"])

    def fingerprint(self, out):
        r = out["result"]
        return (r.weight, r.cover.set_indices, r.status, r.nodes)

    def check(self, api, item, out, ctx):
        problem = ctx.problem(item)
        result = out["result"]
        oracle.check_exact(problem, result, oracle.milp_value(problem))
        if item.kind == "bnb-lp" or (item.kind == "bnb" and ctx.count("bnb") < self.CROSS):
            # the other engines agree on the same instance
            other = api.exact.exact_opt(item.instance, api.exact.SolveBudget(
                method="branch-and-bound"), use_lp_bound=not item.params["lp_bound"])
            expect(other.weight == result.weight, "B&B with and without the LP bound differ")
            if problem.n <= 16:
                exh = api.exact.exact_opt(item.instance, api.exact.SolveBudget(
                    method="exhaustive"))
                expect(exh.weight == result.weight, "B&B and exhaustive search differ")


class Sweep(Workload):
    """Tables 1 and 2 over every covering sequence, with worker processes."""

    name = "sweep"
    # Compositions of 14 (serial) and of 20 (with workers) each run six
    # times: the blocks the median and the 90th percentile fall in.
    COMPOSITIONS_M = tuple(range(2, 20)) + (14, 14, 20, 20, 20)
    PARTITIONS_M = tuple(range(40, 51, 2))
    CROSS_CHECK = (("compositions", 16), ("partitions", 40))

    def build(self, api, seed):
        rng = random.Random(f"sweep-{seed}")
        items = [Item("compositions", params={"m": m, "table": t})
                 for m in self.COMPOSITIONS_M for t in (1, 2)]
        items += [Item("partitions", params={"m": m, "table": rng.choice((1, 2))})
                  for m in self.PARTITIONS_M]
        for item in items:
            item.label = f"m={item.params['m']} table {item.params['table']}"
        rng.shuffle(items)
        return items

    def run(self, api, item, out, prepared):
        table = api.experiments.table1 if item.params["table"] == 1 \
            else api.experiments.table2
        out["result"] = table(item.params["m"], mode=item.kind, workers=nproc())
        out["csv"] = api.experiments.emit_csv(out["result"])

    def fingerprint(self, out):
        return out["result"], out["csv"]

    def check(self, api, item, out, ctx):
        m, mode = item.params["m"], item.kind
        result = out["result"]
        expect(result.m == m and result.mode == mode, "table reports another m or mode")
        oracle.check_buckets(m, mode, result.stats)
        if mode == "compositions" and m <= 14 and ctx.count(("exact", m)) == 0:
            oracle.check_bucket_values(m, result.stats, ctx.h)
        if mode == "compositions" and m in oracle.PUBLISHED_TABLE1:
            oracle.check_published_row(m, [b.share_pct for b in result.stats])
        row = out["csv"].splitlines()[1].split(",")
        cells = [f"{b.share_pct:.1f}" for b in result.stats] if item.params["table"] == 1 \
            else [f"{v:.1f}" for b in result.stats
                  for v in (b.mean_improvement_pct, b.max_improvement_pct)]
        expect(row == [str(m)] + cells, "emit_csv row does not print the table")
        if (mode, m) in self.CROSS_CHECK and ctx.count(("workers", m)) == 0:
            single = api.experiments.table1(m, mode=mode, workers=1)
            expect(single.stats == result.stats,
                   f"workers=1 and workers={nproc()} differ for m={m}")


WORKLOADS = {w.name: w for w in (Estimate(), Trace(), Optimum(), Sweep())}
