"""Charged-weight greedy solver with a full per-iteration trace.

Each iteration picks a set minimizing the charged ratio weight / (count of
its not-yet-covered elements).  The trace records the chosen indices, the
newly-covered counts s_k, the residual counts m_k, the charged ratios and
the accumulated cover weight: everything the bound machinery needs, as
exact rationals.

One private kernel picks on integers with a lazy priority queue (Minoux
1978, "Accelerated greedy algorithms"), over the validated integer weights;
Fractions are built only for the chosen sets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub

from .errors import InvalidTrace
from .instance import Instance, element_masks, require_positive_weights

TIE_LOWEST_INDEX = "lowest-index"
TIE_MAX_RESIDUAL = "largest-residual-then-lowest-index"
TIE_POLICIES = (TIE_LOWEST_INDEX, TIE_MAX_RESIDUAL)


@dataclass(frozen=True)
class GreedyTrace:
    """Everything the greedy run did, in order.

    residuals has length l+1 and starts at m_0 = m; chosen, s and ratios
    all have length l.  total_weight is w(Gr).
    """

    chosen: tuple[int, ...]
    s: tuple[int, ...]
    residuals: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    total_weight: Fraction
    tie: str = TIE_LOWEST_INDEX


def _kernel(masks, weights, uncovered, tie=TIE_LOWEST_INDEX):
    """Greedy picks (indices, new-element counts) until `uncovered` is empty.

    Integer weights; the masks must cover `uncovered`.  The key w*K // count,
    K = uncovered.bit_length()**2, is exact: distinct ratios with counts
    b, d <= bit_length differ by >= 1/(b*d) >= 1/K.  An entry is one int,
    key * n + i for set i of n, or (key * top + top - count) * n + i under
    TIE_MAX_RESIDUAL, top = bit_length + 1.  Counts only fall, so a stored
    key is a lower bound: a stale top is re-keyed.
    """
    bits, n = uncovered.bit_length(), len(masks)
    top, spread = (bits + 1, n) if tie == TIE_MAX_RESIDUAL else (1, 0)
    scaled, stride = [w * bits * bits for w in weights], top * n
    counts = [(mask & uncovered).bit_count() for mask in masks]
    heap = [scaled[i] // c * stride + (top - c) * spread + i for i, c in enumerate(counts) if c]
    heapq.heapify(heap)
    chosen, gains = [], []
    while uncovered:
        i = heap[0] % n
        c = (masks[i] & uncovered).bit_count()
        if c and c != counts[i]:  # stale: re-key and look again
            counts[i] = c
            heapq.heapreplace(heap, scaled[i] // c * stride + (top - c) * spread + i)
            continue
        heapq.heappop(heap)
        if c:  # fresh, hence the true minimum
            chosen.append(i)
            gains.append(c)
            uncovered &= ~masks[i]
    return chosen, gains


def greedy(instance: Instance, tie: str = TIE_LOWEST_INDEX) -> GreedyTrace:
    """Run the charged-weight greedy algorithm and record its trace.

    Requires strictly positive weights.  Ties in the charged ratio are
    resolved by the tie policy; the default (lowest original set index)
    makes every run deterministic and makes the sequence-class generator
    reproduce its sequence exactly.
    """
    if tie not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie!r}")
    weights, denom = require_positive_weights(instance)
    chosen, s = _kernel(element_masks(instance), weights, (1 << instance.m) - 1, tie)
    return GreedyTrace(
        chosen=tuple(chosen),
        s=tuple(s),
        residuals=tuple(accumulate(s, sub, initial=instance.m)),
        ratios=tuple(Fraction(weights[k], c * denom) for k, c in zip(chosen, s)),
        total_weight=Fraction(sum(weights[k] for k in chosen), denom),
        tie=tie,
    )


def check_trace_shape(trace: GreedyTrace) -> None:
    """Raise InvalidTrace unless the structural trace invariants hold."""
    l = len(trace.chosen)
    if len(trace.s) != l or len(trace.ratios) != l or len(trace.residuals) != l + 1:
        raise InvalidTrace("trace field lengths disagree")
    if l == 0:
        raise InvalidTrace("empty trace")
    if len(set(trace.chosen)) != l:
        raise InvalidTrace("chosen set indices repeat")
    for k, sk in enumerate(trace.s):
        if sk < 1:
            raise InvalidTrace(f"s_{k + 1} = {sk} < 1")
        if trace.residuals[k + 1] != trace.residuals[k] - sk:
            raise InvalidTrace("residual counts do not telescope")
    if trace.residuals[-1] != 0:
        raise InvalidTrace("trace does not end with an empty residual")


def replay_diff(instance: Instance, trace: GreedyTrace) -> str | None:
    """Re-derive the greedy run step by step; describe the first divergence.

    Returns None when the trace is exactly what greedy(instance, trace.tie)
    would produce, including ratios and the accumulated weight.
    """
    try:
        check_trace_shape(trace)
    except InvalidTrace as exc:
        return f"malformed trace: {exc}"
    if trace.residuals[0] != instance.m:
        return f"trace starts at m={trace.residuals[0]}, instance has m={instance.m}"
    fresh = greedy(instance, tie=trace.tie)
    # Both runs cover m with counts >= 1, so once chosen and s agree up to
    # the shorter run's end, the longer one has nothing left to cover: the
    # lengths cannot differ past a matching prefix.
    for k in range(len(trace.chosen)):
        if trace.chosen[k] != fresh.chosen[k]:
            return (f"iteration {k}: trace chose set {trace.chosen[k]}, "
                    f"greedy chooses {fresh.chosen[k]}")
        if trace.s[k] != fresh.s[k]:
            return f"iteration {k}: s_k {trace.s[k]} != {fresh.s[k]}"
        if trace.ratios[k] != fresh.ratios[k]:
            return f"iteration {k}: ratio {trace.ratios[k]} != {fresh.ratios[k]}"
    if trace.total_weight != fresh.total_weight:
        return f"total weight {trace.total_weight} != {fresh.total_weight}"
    return None


def replay_check(instance: Instance, trace: GreedyTrace) -> bool:
    """True iff the trace replays exactly; see replay_diff for the report."""
    return replay_diff(instance, trace) is None


def trace_to_csv(trace: GreedyTrace) -> str:
    """One row per iteration: iter, set_index, s_k, m_k, ratio, cum_weight."""
    rows = ["iter,set_index,s_k,m_k,ratio,cumulative_weight\n"]
    cum = Fraction(0)
    for k, idx in enumerate(trace.chosen):
        cum += trace.ratios[k] * trace.s[k]
        rows.append(f"{k},{idx},{trace.s[k]},{trace.residuals[k + 1]},{trace.ratios[k]},{cum}\n")
    return "".join(rows)
