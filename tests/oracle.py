"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written as plainly as possible, with no
reuse of the package's own algorithms: harmonic numbers and G by direct
Fraction summation, compositions via gap bitmasks, partitions by plain
recursion, sequence counts by the textbook recurrences, optima by scanning
every subset with fresh unions.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from setcoverlab import TIE_LOWEST_INDEX, TIE_MAX_RESIDUAL, Instance


def brute_harmonic(j: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, j + 1)), Fraction(0))


def brute_g(s, m) -> Fraction:
    g = Fraction(0)
    left = m
    for part in s:
        g += Fraction(part, left)
        left -= part
    assert left == 0
    return g


def compositions_by_gaps(m: int):
    """All compositions of m, one per subset of the m-1 gap positions."""
    for bits in range(1 << (m - 1)):
        parts = []
        run = 1
        for gap in range(m - 1):
            if bits >> gap & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def integer_weights(instance: Instance):
    """Each weight times the weights' common denominator, and that denominator."""
    den = lcm(*(Fraction(entry.weight).denominator for entry in instance.sets))
    return [int(entry.weight * den) for entry in instance.sets], den


def brute_optimum(instance: Instance):
    """(weight, indices) of a minimum-weight cover by scanning all subsets."""
    universe = set(range(1, instance.m + 1))
    weights, den = integer_weights(instance)
    best_w = None
    best = None
    n = instance.n
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            covered = set()
            for i in combo:
                covered.update(instance.sets[i].elements)
            if covered == universe:
                w = sum(weights[i] for i in combo)
                if best_w is None or w < best_w:
                    best_w = w
                    best = combo
    return Fraction(best_w, den), best


def brute_lowest_mask_optimum(instance: Instance):
    """(weight, indices) of the minimum-weight cover with the lowest sum(1 << i).

    Subsets are scanned in increasing bitmask order and only a strictly
    lighter cover replaces the best so far.
    """
    universe = set(range(1, instance.m + 1))
    weights, den = integer_weights(instance)
    best_w = None
    best = None
    for bits in range(1, 1 << instance.n):
        combo = tuple(i for i in range(instance.n) if bits >> i & 1)
        covered = set()
        for i in combo:
            covered.update(instance.sets[i].elements)
        if covered == universe:
            w = sum(weights[i] for i in combo)
            if best_w is None or w < best_w:
                best_w = w
                best = combo
    return Fraction(best_w, den), best


def brute_residual_optimum(instance: Instance, covered: int) -> Fraction:
    """Least weight of sets covering every element whose bit is not in covered.

    Bit e - 1 of covered stands for element e; 0 when nothing is left.  Any
    cover of the remaining elements holds a set containing the smallest of
    them, so trying each such set in turn, and recursing on what it leaves,
    reaches an optimum; results are kept per remaining set of elements.
    """
    sets = [(frozenset(entry.elements), entry.weight) for entry in instance.sets]
    best = {frozenset(): Fraction(0)}

    def solve(left):
        if left not in best:
            e = min(left)
            best[left] = min(w + solve(left - members) for members, w in sets if e in members)
        return best[left]

    return solve(frozenset(e for e in range(1, instance.m + 1)
                           if not covered >> (e - 1) & 1))


def brute_greedy_sequence(instance: Instance, tie: str = TIE_LOWEST_INDEX):
    """Greedy re-simulation with plain sets; returns (chosen, s, weight).

    Ratio ties go to the lowest index, or under TIE_MAX_RESIDUAL to the set
    with the most fresh elements and then the lowest index.
    """
    remaining = set(range(1, instance.m + 1))
    chosen = []
    s = []
    total = Fraction(0)
    while remaining:
        best = None
        best_ratio = None
        best_fresh = 0
        for i, entry in enumerate(instance.sets):
            fresh = remaining.intersection(entry.elements)
            if not fresh:
                continue
            ratio = Fraction(entry.weight) / len(fresh)
            if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and tie == TIE_MAX_RESIDUAL
                    and len(fresh) > best_fresh):
                best = i
                best_ratio = ratio
                best_fresh = len(fresh)
        fresh = remaining.intersection(instance.sets[best].elements)
        chosen.append(best)
        s.append(len(fresh))
        total += instance.sets[best].weight
        remaining -= fresh
    return tuple(chosen), tuple(s), total


def greedy_lp_slack(instance: Instance, lp_objective, tie: str = TIE_LOWEST_INDEX):
    """G * OPT_LP - w(Gr) for the greedy re-simulation; never negative.

    Greedy's step k covers s_k of the m_{k-1} elements left at the least
    ratio w/|S ∩ U|.  Any fractional cover x of the residual U has
    sum x_i*|S_i ∩ U| >= |U|, so that ratio is at most OPT_LP(U)/m_{k-1},
    which is at most OPT_LP/m_{k-1}.  Summing w_k <= s_k*OPT_LP/m_{k-1}
    over the steps gives w(Gr) <= G*OPT_LP: the LP estimate R = w(Gr)/OPT_LP
    never exceeds the trace bound G.
    """
    _, s, weight = brute_greedy_sequence(instance, tie)
    return brute_g(s, instance.m) * Fraction(lp_objective) - weight


def partitions_plain(m: int, cap: int | None = None):
    """All partitions of m into parts <= cap, as non-increasing tuples."""
    cap = m if cap is None else cap
    if m == 0:
        yield ()
        return
    for first in range(min(m, cap), 0, -1):
        for rest in partitions_plain(m - first, first):
            yield (first,) + rest


def brute_bucket_improvements(m: int, mode: str = "compositions"):
    """Exact table-2 cells for m: per mu-bucket (total, qualifying, mean, max).

    Every composition of m (or, with mode="partitions", every partition) goes
    to the first left-open fifth containing mu = max part / m.  A sequence
    qualifies when G(s) < H(max part) (strict); mean and max are over
    qualifying s of 100*(H - G)/H, and both are 0 for a bucket with no
    qualifying sequence.
    """
    sequences = compositions_by_gaps(m) if mode == "compositions" else partitions_plain(m)
    harmonics = {j: brute_harmonic(j) for j in range(1, m + 1)}
    cells = [[0, 0, Fraction(0), Fraction(0)] for _ in range(5)]
    for s in sequences:
        mx = max(s)
        mu = Fraction(mx, m)
        cell = cells[next(i for i in range(5) if mu <= Fraction(i + 1, 5))]
        cell[0] += 1
        h = harmonics[mx]
        g = brute_g(s, m)
        if g < h:
            improvement = 100 * (h - g) / h
            cell[1] += 1
            cell[2] += improvement
            cell[3] = max(cell[3], improvement)
    return [
        (total, qual, improvement_sum / qual if qual else Fraction(0), mx)
        for total, qual, improvement_sum, mx in cells
    ]


def count_by_largest_part(m: int, mode: str = "compositions"):
    """How many sequences of total m have largest part exactly k, k = 0..m.

    Counted, not enumerated: with at_most[t] the sequences of total t whose
    parts are all <= k, compositions follow at_most[t] = sum of
    at_most[t - q] over q = 1..k, and partitions add the parts 1..k one at a
    time (the coin-change recurrence); the count for k is the difference of
    the counts for k and k - 1.
    """
    def at_most(k):
        ways = [1] + [0] * m
        if mode == "compositions":
            for t in range(1, m + 1):
                ways[t] = sum(ways[t - q] for q in range(1, min(k, t) + 1))
        else:
            for q in range(1, k + 1):
                for t in range(q, m + 1):
                    ways[t] += ways[t - q]
        return ways[m]

    below = [at_most(k) for k in range(m + 1)]
    return [0] + [below[k] - below[k - 1] for k in range(1, m + 1)]


def brute_weak_duality(instance: Instance, x, y):
    """w.x when (x, y) certifies an optimal covering LP solution, else None.

    x (one entry per set) must be >= 0 and put at least 1 on every element;
    y (one entry per element) must be >= 0 and put at most its weight on
    every set; and w.x must equal sum(y).  Plain Fraction sums throughout.
    """
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        return None
    for e in range(1, instance.m + 1):
        load = Fraction(0)
        for i, entry in enumerate(instance.sets):
            if e in entry.elements:
                load += x[i]
        if load < 1:
            return None
    for entry in instance.sets:
        load = Fraction(0)
        for e in entry.elements:
            load += y[e - 1]
        if load > entry.weight:
            return None
    primal = Fraction(0)
    for entry, xi in zip(instance.sets, x):
        primal += entry.weight * xi
    if primal != sum(y, Fraction(0)):
        return None
    return primal
