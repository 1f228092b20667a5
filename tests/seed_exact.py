"""Frozen copy of the exact search before sibling exclusion, the reference
for the differential test of setcoverlab.exact.

This search reaches a cover once through each of its holders of every
branching element, and cuts a node by the incumbent only after it is
popped.  Its weight, cover and status define the exact solver's contract
under both tie rules; its node counts do not.  The root dual it prunes
by is frozen here too (_feasible_dual, a walk over each set's elements),
and so is _mask_sum, the dual sum over a mask's bits.
Do not edit: the differential test compares against exactly this
behaviour.
"""

import time
from fractions import Fraction

from setcoverlab import lp
from setcoverlab.exact import (
    AUTO_EXHAUSTIVE_MAX_N,
    METHOD_AUTO,
    METHOD_BNB,
    METHOD_EXHAUSTIVE,
    STATUS_BUDGET,
    STATUS_OPTIMAL,
    ExactResult,
    SolveBudget,
)
from setcoverlab.greedy import greedy
from setcoverlab.instance import (
    Cover,
    Instance,
    _over_lcm,
    element_masks,
    element_sets,
    require_positive_weights,
)


def _feasible_dual(instance, y, weights, dw):
    ys, dy = _over_lcm([max(Fraction(v), Fraction(0)) for v in y])
    load, weight = max(((sum(ys[e - 1] for e in entry.elements), wi)
                        for entry, wi in zip(instance.sets, weights)),
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

    A node is cut once its weight reaches the incumbent's, so every optimal
    cover is a leaf.  Unbounded, among equal weights the lowest subset
    bitmask wins.  Bounded, the first cover found at a weight stays, the
    root dual prunes when use_lp_bound is set, and the prunes are counted.
    """
    deadline = time.monotonic() + budget.time_limit
    masks = element_masks(instance)
    full = (1 << instance.m) - 1
    # the root dual: a node prunes when w_so_far + Y(uncovered)/dy >= incumbent
    ys, dy = (_feasible_dual(instance, lp.solve_lp(instance).y, weights, denom)
              if bounded and use_lp_bound else ([], 1))

    seed = greedy(instance)
    incumbent_w = sum(weights[i] for i in seed.chosen)
    incumbent = tuple(sorted(seed.chosen))

    by_element = [sorted(holders, key=lambda i: (weights[i], i))
                  for holders in element_sets(instance)]

    stats = {"lp": 0}
    nodes = 0
    hit_limit = False
    # (covered, w_so_far, chosen, dual sum of the uncovered elements)
    stack: list[tuple[int, int, tuple[int, ...], int]] = [(0, 0, (), sum(ys))]

    while stack:
        if nodes >= budget.node_limit:
            hit_limit = True
            break
        if nodes % 256 == 0 and time.monotonic() > deadline:
            hit_limit = True
            break
        covered, w_so_far, chosen, y_left = stack.pop()
        nodes += 1
        if covered == full:
            if w_so_far < incumbent_w or (
                    not bounded and w_so_far == incumbent_w
                    and sum(1 << i for i in chosen) < sum(1 << i for i in incumbent)):
                incumbent_w = w_so_far
                incumbent = tuple(sorted(chosen))
            continue
        if ys and w_so_far * dy + y_left * denom >= incumbent_w * dy:
            stats["lp"] += 1
            continue
        if w_so_far >= incumbent_w:
            continue
        e = ((full & ~covered) & -(full & ~covered)).bit_length() - 1
        for i in reversed(by_element[e]):
            w = w_so_far + weights[i]
            child_y = y_left - _mask_sum(ys, masks[i] & ~covered) if ys else 0
            # the same dual test, before the child is built and pushed
            if ys and w * dy + child_y * denom >= incumbent_w * dy:
                stats["lp"] += 1
                continue
            stack.append((covered | masks[i], w, chosen + (i,), child_y))

    status = STATUS_BUDGET if hit_limit else STATUS_OPTIMAL
    return (Fraction(incumbent_w, denom), incumbent, nodes, status,
            stats if bounded else {})


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
