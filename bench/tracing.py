"""Spans around calls into setcoverlab's public functions, set from outside.

Tracer.install wraps every public function of the traced modules and puts
the wrapper in place of the original under every name that refers to it in
any module of the package: the defining module (so that calls made through
a module object, such as ``lp_mod.solve_lp``, are caught) and every module
that took the name with ``from ... import``.  A function that calls itself
through its own module global (``bounds.harmonic``) keeps the original name
in its own module, so the wrapper adds no frame per recursion level and the
recursion depth at which it fails stays what it is untraced.

A span holds the function's name, start, end, the index of its parent span,
the operation id, whether it raised, the time its child spans cover, and a
tag a counting hook may set.  Counts come from the result objects the
public functions return.  Spans stay in memory; the caller writes them out
at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("instance", "generators", "greedy", "bounds", "lp", "exact", "experiments")

# span fields
NAME, START, END, PARENT, OP, FAILED, CHILD, TAG = range(8)


def _on_parse(counts, span, args, kwargs, result):
    counts["parse_bytes"] += len(args[0] if args else kwargs["text"])


def _on_greedy(counts, span, args, kwargs, result):
    instance = args[0] if args else kwargs["instance"]
    counts["greedy_iterations"] += len(result.chosen)
    counts["greedy_candidate_evals"] += len(result.chosen) * instance.n


def _on_solve_lp(counts, span, args, kwargs, result):
    instance = args[0] if args else kwargs["instance"]
    m, n = instance.m, instance.n
    counts["lp_pivots"] += result.iterations
    counts["lp_certified" if result.exact_objective is not None else "lp_uncertified"] += 1
    counts["lp_tableau_bytes"] = max(counts["lp_tableau_bytes"], 8 * (n + 1) * (m + n + 1))


def _on_exact_opt(counts, span, args, kwargs, result):
    if result.bound_stats:  # only branch-and-bound reports prune counters
        span[TAG] = "bnb"
        counts["bnb_nodes"] += result.nodes
        counts["prunes_greedy_g"] += result.bound_stats.get("greedy_g", 0)
        counts["prunes_lp"] += result.bound_stats.get("lp", 0)
    else:
        span[TAG] = "exhaustive"
        counts["subsets"] += result.nodes


def _on_table(counts, span, args, kwargs, result):
    counts["sequences"] += sum(b.total for b in result.stats)


HOOKS = {
    "instance.parse_native": _on_parse,
    "instance.parse_orlib": _on_parse,
    "greedy.greedy": _on_greedy,
    "lp.solve_lp": _on_solve_lp,
    "exact.exact_opt": _on_exact_opt,
    "experiments.table1": _on_table,
    "experiments.table2": _on_table,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


def _self_recursive(name, fn) -> bool:
    code = getattr(getattr(fn, "__wrapped__", fn), "__code__", None)
    return code is not None and name in code.co_names


PACKAGE = "setcoverlab"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [importlib.import_module(f"{PACKAGE}.{m}")
                           for m in ("cli", "errors") + LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"),
                                    module if _self_recursive(name, fn) else None)
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is None or entry[0] is not value or entry[2] is module:
                    continue
                self._patches.append((module, attr, value))
                setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self._call(fn, name, hook, args, kwargs)

        return spanned

    def _call(self, fn, name, hook, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.op, False, 0.0, None]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[FAILED] = True
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            if span[PARENT] >= 0:
                self.spans[span[PARENT]][CHILD] += span[END] - span[START]
        if hook is not None:
            hook(self.counts, span, args, kwargs, result)
        return result

    # -- reading ------------------------------------------------------------

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts

    @staticmethod
    def dump(path, span_sets) -> None:
        fields = ("name", "start", "end", "parent", "op", "failed", "child_s", "tag")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "passes": span_sets}, fh)


def layer_metrics(spans, counts, factors, setup_spans=(), setup_factor=1.0) -> dict:
    """Per-layer figures of one traced pass; generators come from set-up.

    Span times are scaled by the speed factor of the operation they belong
    to (see calib.py), like the end-to-end times.
    """
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    failed = defaultdict(int)
    tagged = defaultdict(float)
    for span in spans:
        factor = factors[span[OP]]
        self_by_name[span[NAME]] += (span[END] - span[START] - span[CHILD]) * factor
        calls[span[NAME]] += 1
        failed[span[NAME]] += span[FAILED]
        if span[TAG]:
            tagged[span[TAG]] += (span[END] - span[START]) * factor

    def layer_self(layer):
        return sum(v for k, v in self_by_name.items() if k.startswith(layer + "."))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    parse_s = self_by_name["instance.parse_native"] + self_by_name["instance.parse_orlib"]
    lp_s = layer_self("lp")
    sweep_s = layer_self("experiments")
    return {
        "instance.parse_s": parse_s,
        "instance.parse_mb_per_s": rate(counts["parse_bytes"] / 1e6, parse_s),
        "instance.validate_s": self_by_name["instance.validate"],
        "instance.validate_calls": calls["instance.validate"],
        "instance.masks_s": self_by_name["instance.element_masks"],
        "instance.masks_calls": calls["instance.element_masks"],
        "generators.gen_s": setup_factor * sum(
            s[END] - s[START] - s[CHILD] for s in setup_spans
            if s[NAME].startswith("generators.")),
        "greedy.self_s": layer_self("greedy"),
        "greedy.calls": calls["greedy.greedy"],
        "greedy.iterations": int(counts["greedy_iterations"]),
        "greedy.candidate_evals": int(counts["greedy_candidate_evals"]),
        "bounds.report_s": layer_self("bounds"),
        "bounds.report_failed": failed["bounds.bound_report"],
        "lp.solve_s": lp_s,
        "lp.solves": calls["lp.solve_lp"] - failed["lp.solve_lp"],
        "lp.pivots": int(counts["lp_pivots"]),
        "lp.pivots_per_s": rate(counts["lp_pivots"], lp_s),
        "lp.certified": int(counts["lp_certified"]),
        "lp.uncertified": int(counts["lp_uncertified"]),
        "lp.tableau_mb": counts["lp_tableau_bytes"] / 1e6,
        "exact.self_s": layer_self("exact"),
        "exact.bnb_nodes": int(counts["bnb_nodes"]),
        "exact.bnb_nodes_per_s": rate(counts["bnb_nodes"], tagged["bnb"]),
        "exact.prunes_greedy_g": int(counts["prunes_greedy_g"]),
        "exact.prunes_lp": int(counts["prunes_lp"]),
        "exact.subsets_per_s": rate(counts["subsets"], tagged["exhaustive"]),
        "experiments.sweep_s": sweep_s,
        "experiments.sequences": int(counts["sequences"]),
        "experiments.sequences_per_s": rate(counts["sequences"], sweep_s),
    }


# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("instance.validate_calls", "instance.masks_calls", "greedy.calls",
                "greedy.iterations", "greedy.candidate_evals", "bounds.report_failed",
                "lp.solves", "lp.pivots", "lp.certified", "lp.uncertified",
                "exact.bnb_nodes", "exact.prunes_greedy_g", "exact.prunes_lp",
                "experiments.sequences")
