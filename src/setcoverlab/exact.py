"""Exact optimal covers at desk scale.

One depth-first search: it branches on the lowest uncovered element and
visits the sets containing it cheapest-first.  The child that takes a set
bans the cheaper holders of that element for its whole subtree, so each
cover is reached at most once.  The incumbent cut is decided when a child
is built: it is never pushed when heavier than the incumbent, or when not a
cover and, with even the lightest set added, as heavy (heavier, for the
exhaustive method, which keeps the lowest subset bitmask among covers of
equal weight).  Branch-and-bound keeps the first cover found at a weight,
so it visits no node the exhaustive method skips.  It can also prune by
the root LP's dual, made exactly feasible, summed over the uncovered
elements, tested before a child is pushed and again when it is popped
(the incumbent may have improved in between).

Weight arithmetic inside the search runs on the integer weights validation
memoized (over their common denominator), so comparisons stay exact and
fast; results are converted back to Fractions at the boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import lp
from .greedy import greedy
from .instance import (Cover, Instance, _over_lcm, _set_loads, element_masks, element_sets,
                       require_positive_weights)

AUTO_EXHAUSTIVE_MAX_N = 18

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_BNB = "branch-and-bound"
METHOD_AUTO = "auto"
METHODS = (METHOD_AUTO, METHOD_EXHAUSTIVE, METHOD_BNB)

STATUS_OPTIMAL = "proven-optimal"
STATUS_BUDGET = "budget-exceeded"


@dataclass(frozen=True)
class SolveBudget:
    node_limit: int = 10_000_000
    time_limit: float = 60.0
    method: str = METHOD_AUTO

    def __post_init__(self):
        if self.node_limit <= 0 or not self.time_limit > 0:  # NaN fails "> 0" too
            raise ValueError("budget limits must be positive")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class ExactResult:
    cover: Cover
    weight: Fraction
    status: str
    nodes: int
    bound_stats: dict = field(default_factory=dict)


def _feasible_dual(instance: Instance, y, weights, dw):
    """y clamped at 0, then divided by max(1, its largest set load / weight).

    Exact, so the result is dual feasible, for every residual instance too
    (loads only shrink); a certified dual passes unchanged.  Takes integer
    weights over dw; returns numerators ys (ys[e - 1] for element e) over dy.
    """
    ys, dy = _over_lcm([max(Fraction(v), Fraction(0)) for v in y])
    # the first set with the largest load / weight, which is (load * dw) / (weight * dy)
    load, weight = max(zip(_set_loads(instance, ys).tolist(), weights),
                       key=lambda pair: Fraction(*pair))
    if load * dw > weight * dy:
        return [v * weight for v in ys], load * dw
    return ys, dy


def _mask_sum(values, mask):
    """Sum of values[b] over the set bits b of mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += values[low.bit_length() - 1]
        mask ^= low
    return total


def _search(instance, weights, denom, budget, use_lp_bound, bounded):
    """Depth-first search on weights over denom; bounded selects B&B's behaviour.

    A node branches on its lowest uncovered element e.  The child that takes
    e's j-th holder (cheapest first) bans holders 1..j-1 for its whole
    subtree, so every cover is reached at most once: through the first of
    its sets at each branching element.  A node whose holders of e are all
    banned is a dead end.  The incumbent cut is decided when a child is
    built: it is skipped when heavier than the incumbent, or when not yet a
    cover and its weight plus the lightest set's reaches the incumbent's
    (passes it, unbounded), since every cover below it weighs at least that.
    Unbounded, every optimal cover is still a leaf, and among equal weights
    the lowest subset bitmask wins.  Bounded, only a strictly lighter cover
    replaces the incumbent, the root dual prunes when use_lp_bound is set,
    and the prunes are counted.
    """
    deadline = time.monotonic() + budget.time_limit
    masks = element_masks(instance)
    full = (1 << instance.m) - 1
    # the root dual: a node prunes when w_so_far + Y(uncovered)/dy >= incumbent
    ys, dy = (_feasible_dual(instance, lp.solve_lp(instance).y, weights, denom)
              if bounded and use_lp_bound else ([], 1))

    seed = greedy(instance)
    incumbent_w = sum(weights[i] for i in seed.chosen)
    incumbent = sum(1 << i for i in seed.chosen)
    # a child that is not a cover needs one more set, at least the lightest
    reach = min(weights, default=0) - (0 if bounded else 1)

    # per element, its holders cheapest first as (set, weight, mask, the
    # holders before it as a bitmask, which the child taking it bans)
    by_element = []
    for holders in element_sets(instance):
        row, before = [], 0
        for i in sorted(holders, key=lambda i: (weights[i], i)):
            row.append((i, weights[i], masks[i], before))
            before |= 1 << i
        by_element.append(row)

    stats = {"lp": 0}
    nodes = 0
    hit_limit = False
    # (covered, w_so_far, chosen sets, dual sum of the uncovered elements, banned sets)
    stack: list[tuple[int, int, int, int, int]] = [(0, 0, 0, sum(ys), 0)]

    while stack:
        if nodes >= budget.node_limit or (nodes % 256 == 0 and time.monotonic() > deadline):
            hit_limit = True
            break
        covered, w_so_far, chosen, y_left, banned = stack.pop()
        nodes += 1
        if covered == full:
            if w_so_far < incumbent_w or (
                    not bounded and w_so_far == incumbent_w and chosen < incumbent):
                incumbent_w, incumbent = w_so_far, chosen
            continue
        # the incumbent may have improved since the push
        if ys and w_so_far * dy + y_left * denom >= incumbent_w * dy:
            stats["lp"] += 1
            continue
        uncovered = full & ~covered
        e = (uncovered & -uncovered).bit_length() - 1
        children = []
        for i, wi, mask, before in by_element[e]:
            w = w_so_far + wi
            if w > incumbent_w:
                break  # so are the holders after it
            if banned >> i & 1:
                continue
            child = covered | mask
            if child != full and w + reach >= incumbent_w:
                continue
            child_y = y_left - _mask_sum(ys, mask & uncovered) if ys else 0
            # the same dual test, before the child is pushed
            if ys and w * dy + child_y * denom >= incumbent_w * dy:
                stats["lp"] += 1
                continue
            children.append((child, w, chosen | 1 << i, child_y, banned | before))
        stack.extend(reversed(children))  # the cheapest child is popped first

    status = STATUS_BUDGET if hit_limit else STATUS_OPTIMAL
    indices = tuple(i for i in range(instance.n) if incumbent >> i & 1)
    return Fraction(incumbent_w, denom), indices, nodes, status, stats if bounded else {}


def exact_opt(instance: Instance, budget: SolveBudget | None = None, *,
              use_lp_bound: bool = False) -> ExactResult:
    """Minimum-weight cover, proven optimal unless the budget runs out.

    use_lp_bound applies to branch-and-bound only.
    """
    weights, denom = require_positive_weights(instance)
    budget = budget or SolveBudget()
    method = budget.method
    if method == METHOD_AUTO:
        method = (METHOD_EXHAUSTIVE if instance.n <= AUTO_EXHAUSTIVE_MAX_N
                  else METHOD_BNB)
    weight, indices, nodes, status, stats = _search(
        instance, weights, denom, budget, use_lp_bound, bounded=method == METHOD_BNB
    )
    return ExactResult(
        cover=Cover(set_indices=indices, weight=weight),
        weight=weight, status=status, nodes=nodes, bound_stats=stats,
    )


def result_to_kv(result: ExactResult) -> str:
    """Same flat key=value shape as the bound report."""
    lines = [
        f"weight={result.weight}",
        f"status={result.status}",
        f"nodes={result.nodes}",
        f"cover={' '.join(str(i) for i in result.cover.set_indices)}",
    ]
    for key, val in sorted(result.bound_stats.items()):
        lines.append(f"prunes_{key}={val}")
    return "\n".join(lines) + "\n"
