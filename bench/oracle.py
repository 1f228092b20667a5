"""Checks made apart from setcoverlab.

Nothing here imports the package.  Instance texts are read with a plain
token split, greedy is re-simulated with Python sets and integer
cross-multiplication, harmonic numbers and G are direct Fraction sums, the
LP and the optimum come from HiGHS through scipy (a test-only dependency,
imported on first use so that it never counts towards a timed figure),
and the table sweeps are checked against counting recurrences and a plain
Fraction enumeration.  Every check raises CheckFailed with a reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

TIE_LOWEST_INDEX = "lowest-index"
TIE_MAX_RESIDUAL = "largest-residual-then-lowest-index"

# Rows printed in the paper (table 1, share % per mu-bucket).
PUBLISHED_TABLE1 = {
    10: (0.0, 13.5, 64.8, 100.0, 100.0),
    15: (0.0, 14.5, 69.6, 99.0, 100.0),
}

LP_REL_TOL = 1e-6


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent value."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Problem:
    """A set system read straight from file text: sets of 1-based elements."""

    m: int
    sets: tuple[frozenset, ...]
    weights: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.sets)


# ---------------------------------------------------------------------------
# reading and writing file text


def read_native(text: str) -> Problem:
    tok = text.split()
    expect(tok[:2] == ["scp", "1"], "native text lacks the 'scp 1' header")
    m, n = int(tok[2]), int(tok[3])
    pos = 4
    sets, weights = [], []
    for _ in range(n):
        weights.append(Fraction(tok[pos]))
        k = int(tok[pos + 1])
        sets.append(frozenset(int(t) for t in tok[pos + 2:pos + 2 + k]))
        pos += 2 + k
    expect(pos == len(tok), "native text has trailing tokens")
    return Problem(m, tuple(sets), tuple(weights))


def read_orlib(text: str) -> Problem:
    tok = text.split()
    m, n = int(tok[0]), int(tok[1])
    weights = [Fraction(t) for t in tok[2:2 + n]]
    members: list[set] = [set() for _ in range(n)]
    pos = 2 + n
    for row in range(1, m + 1):
        count = int(tok[pos])
        for t in tok[pos + 1:pos + 1 + count]:
            members[int(t) - 1].add(row)
        pos += 1 + count
    return Problem(m, tuple(frozenset(s) for s in members), tuple(weights))


def render_orlib(problem: Problem) -> str:
    """OR-Library text: m n, the n costs, then per row its covering columns."""
    holders: list[list[int]] = [[] for _ in range(problem.m)]
    for j, members in enumerate(problem.sets, start=1):
        for e in members:
            holders[e - 1].append(j)
    lines = [f"{problem.m} {problem.n}"]
    lines.append(" ".join(_weight_text(w) for w in problem.weights))
    for cols in holders:
        lines.append(" ".join(map(str, [len(cols)] + sorted(cols))))
    return "\n".join(lines) + "\n"


def _weight_text(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def check_parsed(problem: Problem, instance) -> None:
    """The program's parsed instance holds exactly the sets in the text."""
    expect(instance.m == problem.m, f"parsed m={instance.m}, text says {problem.m}")
    expect(len(instance.sets) == problem.n, "parsed set count differs from the text")
    for i, (entry, members, w) in enumerate(
            zip(instance.sets, problem.sets, problem.weights)):
        expect(frozenset(entry.elements) == members, f"set {i} elements differ")
        expect(entry.weight == w, f"set {i} weight {entry.weight} != {w}")


# ---------------------------------------------------------------------------
# greedy


def scaled_weights(problem: Problem) -> tuple[list[int], int]:
    denom = math.lcm(*(w.denominator for w in problem.weights))
    return [int(w * denom) for w in problem.weights], denom


def greedy_run(problem: Problem, tie: str = TIE_LOWEST_INDEX):
    """Plain-set greedy: (chosen, s, residuals, ratios, weight).

    A candidate beats the incumbent when w_i/c_i < w_b/c_b, decided by
    integer cross-multiplication; on an equal ratio the max-residual policy
    prefers the larger count, and otherwise the lower index stays.
    """
    ints, denom = scaled_weights(problem)
    remaining = set(range(1, problem.m + 1))
    chosen, s, residuals, ratios = [], [], [problem.m], []
    total = Fraction(0)
    while remaining:
        best, best_c = -1, 0
        for i, members in enumerate(problem.sets):
            c = len(members & remaining)
            if c == 0:
                continue
            if best < 0:
                best, best_c = i, c
                continue
            lhs, rhs = ints[i] * best_c, ints[best] * c
            if lhs < rhs or (lhs == rhs and tie == TIE_MAX_RESIDUAL and c > best_c):
                best, best_c = i, c
        expect(best >= 0, "the sets in the text do not cover the universe")
        remaining -= problem.sets[best]
        chosen.append(best)
        s.append(best_c)
        residuals.append(len(remaining))
        ratios.append(Fraction(ints[best], denom * best_c))
        total += problem.weights[best]
    return tuple(chosen), tuple(s), tuple(residuals), tuple(ratios), total


def check_greedy(problem: Problem, trace, tie: str = TIE_LOWEST_INDEX) -> None:
    """The trace is the greedy run: choices, s_k, m_k, ratios and weight.

    Also checks the covering facts on the trace itself: the chosen sets
    cover the universe, s_k counts newly covered elements, and the
    residuals telescope to 0.
    """
    covered: set = set()
    for k, i in enumerate(trace.chosen):
        fresh = len(problem.sets[i] - covered)
        expect(trace.s[k] == fresh, f"step {k}: s_k={trace.s[k]}, set {i} adds {fresh}")
        covered |= problem.sets[i]
        expect(trace.residuals[k + 1] == trace.residuals[k] - trace.s[k],
               f"step {k}: residuals do not telescope")
    expect(len(covered) == problem.m, "the chosen sets do not cover the universe")
    expect(trace.residuals[0] == problem.m and trace.residuals[-1] == 0,
           "residuals do not run from m to 0")
    chosen, s, residuals, ratios, total = greedy_run(problem, tie)
    for k in range(min(len(chosen), len(trace.chosen))):
        expect(trace.chosen[k] == chosen[k],
               f"step {k}: program chose set {trace.chosen[k]}, greedy picks {chosen[k]}")
    expect(tuple(trace.chosen) == chosen, "greedy choice sequence differs in length")
    expect(tuple(trace.s) == s and tuple(trace.residuals) == residuals,
           "s_k or m_k differ from the re-simulation")
    expect(tuple(trace.ratios) == ratios, "charged ratios differ")
    expect(trace.total_weight == total, f"w(Gr)={trace.total_weight}, expected {total}")


# ---------------------------------------------------------------------------
# harmonic numbers and the trace bound


class Harmonic:
    """H(j) as exact Fractions, extended by one plain addition per step."""

    def __init__(self):
        self._values = [Fraction(0)]

    def __call__(self, j: int) -> Fraction:
        while len(self._values) <= j:
            self._values.append(self._values[-1] + Fraction(1, len(self._values)))
        return self._values[j]


def g_value(s, m: int) -> Fraction:
    g = Fraction(0)
    left = m
    for part in s:
        g += Fraction(part, left)
        left -= part
    expect(left == 0, "covering sequence does not sum to m")
    return g


def check_bounds(problem: Problem, trace, report, h: Harmonic, opt_cover=None) -> Fraction:
    """The bound report equals direct sums; returns the independent G."""
    g = g_value(trace.s, problem.m)
    h_m = h(problem.m)
    m_bar = max(len(members) for members in problem.sets)
    expect(report.G == g, f"G={report.G}, direct sum gives {g}")
    expect(report.H_m == h_m, "H(m) differs from the direct sum")
    expect(report.Delta == h_m - g, "Delta != H(m) - G")
    expect(g <= h_m, "G exceeds H(m)")
    expect(report.m == problem.m and report.m_bar == m_bar, "m or m_bar differ")
    expect(report.H_m_bar == h(m_bar), "H(m_bar) differs")
    expect(report.m_of_s == max(trace.s), "m_of_s differs")
    expect(report.w_gr == trace.total_weight, "w_gr differs from the trace")
    expect(report.opt_lower == trace.total_weight / g, "opt_lower != w(Gr)/G")
    if opt_cover is None:
        expect(report.ratio is None and report.m_tilde is None,
               "ratio reported without an optimum")
    else:
        m_tilde = max(len(problem.sets[i]) for i in opt_cover.set_indices)
        expect(report.m_tilde == m_tilde, "m_tilde differs")
        expect(report.H_m_tilde == h(m_tilde), "H(m_tilde) differs")
        expect(report.ratio == trace.total_weight / opt_cover.weight,
               "ratio != w(Gr)/OPT")
    return g


def check_report_text(report_text: str, g: Fraction) -> None:
    fields = dict(line.split("=", 1) for line in report_text.splitlines())
    expect(fields["G"].split(" ")[0] in (f"{g.numerator}/{g.denominator}", str(g)),
           f"report text G={fields['G']!r} does not print {g}")


# ---------------------------------------------------------------------------
# LP relaxation and optimum (HiGHS through scipy)


def _incidence(problem: Problem):
    import numpy as np

    a = np.zeros((problem.m, problem.n))
    for j, members in enumerate(problem.sets):
        for e in members:
            a[e - 1, j] = 1.0
    return a


def lp_value(problem: Problem) -> float:
    from scipy.optimize import linprog

    a = _incidence(problem)
    res = linprog([float(w) for w in problem.weights], A_ub=-a,
                  b_ub=[-1.0] * problem.m, bounds=(0, None), method="highs")
    expect(res.status == 0, f"HiGHS LP did not solve: {res.message}")
    return float(res.fun)


def check_lp(problem: Problem, outcome) -> None:
    """Objective equals HiGHS; an exact solution is a fractional cover."""
    expect(outcome.status == "optimal", f"LP status {outcome.status}")
    ref = lp_value(problem)
    expect(abs(outcome.objective - ref) <= LP_REL_TOL * max(1.0, abs(ref)),
           f"LP objective {outcome.objective} != HiGHS {ref}")
    if outcome.exact_objective is not None:
        x = outcome.exact_x
        expect(len(x) == problem.n and all(xi >= 0 for xi in x), "exact_x invalid")
        loads = [Fraction(0)] * (problem.m + 1)
        for members, xi in zip(problem.sets, x):
            for e in members:
                loads[e] += xi
        expect(all(load >= 1 for load in loads[1:]), "exact_x is not a fractional cover")
        expect(sum((w * xi for w, xi in zip(problem.weights, x)), Fraction(0))
               == outcome.exact_objective, "w.x != exact_objective")


def subset_scan(problem: Problem) -> Fraction:
    """Minimum cover weight by scanning every subset (small n only)."""
    universe = frozenset(range(1, problem.m + 1))
    best = None
    for mask in range(1, 1 << problem.n):
        covered: set = set()
        weight = Fraction(0)
        for i in range(problem.n):
            if mask >> i & 1:
                covered |= problem.sets[i]
                weight += problem.weights[i]
        if covered == universe and (best is None or weight < best):
            best = weight
    return best


def milp_value(problem: Problem) -> Fraction:
    """Exact optimum: HiGHS MILP on integer-scaled weights, gap 0."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    ints, denom = scaled_weights(problem)
    a = _incidence(problem)
    res = milp(np.array(ints, dtype=float), integrality=np.ones(problem.n),
               bounds=Bounds(0, 1), constraints=LinearConstraint(a, lb=1),
               options={"mip_rel_gap": 0.0})
    expect(res.status == 0, f"HiGHS MILP did not solve: {res.message}")
    picked = [i for i in range(problem.n) if res.x[i] > 0.5]
    covered = frozenset().union(*(problem.sets[i] for i in picked))
    expect(len(covered) == problem.m, "HiGHS MILP cover does not cover")
    value = sum(ints[i] for i in picked)
    expect(abs(value - res.fun) < 0.5, "HiGHS MILP objective disagrees with its cover")
    return Fraction(value, denom)


def optimum(problem: Problem) -> Fraction:
    return subset_scan(problem) if problem.n <= 12 else milp_value(problem)


def check_cover(problem: Problem, indices, weight: Fraction) -> None:
    covered = frozenset().union(*(problem.sets[i] for i in indices))
    expect(len(covered) == problem.m, "the cover does not cover the universe")
    expect(sum((problem.weights[i] for i in indices), Fraction(0)) == weight,
           "the cover weight is not the sum of its sets")


def check_exact(problem: Problem, result, opt: Fraction) -> None:
    expect(result.status == "proven-optimal", f"exact status {result.status}")
    check_cover(problem, result.cover.set_indices, result.weight)
    expect(result.weight == result.cover.weight, "result and cover weight differ")
    expect(result.weight == opt, f"optimum {result.weight} != independent {opt}")


# ---------------------------------------------------------------------------
# closed forms of the two generated families


def gf2_closed_form(k: int):
    """Greedy sequence, w(Gr) and LP optimum of the GF(2) family."""
    s = tuple(1 << (k - 1 - i) for i in range(k))
    return s, Fraction(k), Fraction((1 << k) - 1, 1 << (k - 1))


def check_gf2(k: int, trace, lp_objective=None) -> None:
    s, w_gr, lp = gf2_closed_form(k)
    expect(tuple(trace.s) == s, f"gf2({k}) greedy s={trace.s}, expected {s}")
    expect(trace.total_weight == w_gr, f"gf2({k}) w(Gr)={trace.total_weight}")
    if lp_objective is not None:
        expect(lp_objective == lp, f"gf2({k}) LP={lp_objective}, expected {lp}")


def check_cs(parts, epsilon: Fraction, trace, opt_weight) -> None:
    expect(tuple(trace.chosen) == tuple(range(len(parts))),
           f"class-cs greedy chose {trace.chosen}")
    expect(tuple(trace.s) == tuple(parts), f"class-cs greedy s={trace.s}")
    expect(opt_weight == sum(parts) + epsilon, f"class-cs OPT={opt_weight}")


# ---------------------------------------------------------------------------
# table sweeps


def bucket_of(max_part: int, m: int) -> int:
    """Left-open fifths of mu = max_part/m: (0,.2], (.2,.4], ..."""
    return next(b for b in range(5) if 5 * max_part <= (b + 1) * m)


def count_by_largest(m: int, mode: str) -> list[int]:
    """Sequences of total m whose largest part is exactly k, for k = 0..m."""
    if mode == "compositions":
        def at_most(cap):  # compositions of t into parts <= cap, t = 0..m
            f = [1] + [0] * m
            for t in range(1, m + 1):
                f[t] = sum(f[t - p] for p in range(1, min(cap, t) + 1))
            return f[m]
        below = [at_most(k) for k in range(m + 1)]
        return [0] + [below[k] - below[k - 1] for k in range(1, m + 1)]

    def partitions(t, cap):  # partitions of t into parts <= cap
        f = [1] + [0] * t
        for p in range(1, cap + 1):
            for u in range(p, t + 1):
                f[u] += f[u - p]
        return f[t]
    return [0] + [partitions(m - k, k) for k in range(1, m + 1)]


def bucket_totals(m: int, mode: str) -> list[int]:
    totals = [0] * 5
    for k, count in enumerate(count_by_largest(m, mode)):
        if k:
            totals[bucket_of(k, m)] += count
    return totals


def bucket_exact(m: int, h: Harmonic):
    """Per bucket (total, qualifying, mean, max) over all compositions of m.

    A composition s qualifies when G(s) < H(max s); mean and max are of
    100*(H - G)/H over the qualifying ones, as Fractions (0 when none).
    """
    total = [0] * 5
    qual = [0] * 5
    dsum = [Fraction(0)] * 5
    dmax = [Fraction(0)] * 5
    for bits in range(1 << (m - 1)):
        s, run = [], 1
        for gap in range(m - 1):
            if bits >> gap & 1:
                s.append(run)
                run = 1
            else:
                run += 1
        s.append(run)
        top = max(s)
        b = bucket_of(top, m)
        total[b] += 1
        g, hh = g_value(s, m), h(top)
        if g < hh:
            d = 100 * (hh - g) / hh
            qual[b] += 1
            dsum[b] += d
            dmax[b] = max(dmax[b], d)
    return [(total[b], qual[b], dsum[b] / qual[b] if qual[b] else Fraction(0),
             dmax[b]) for b in range(5)]


def check_buckets(m: int, mode: str, stats) -> None:
    totals = bucket_totals(m, mode)
    got = [b.total for b in stats]
    expect(got == totals, f"m={m} {mode} bucket totals {got} != {totals}")
    if mode == "compositions":
        expect(sum(got) == 1 << (m - 1), f"m={m} totals do not sum to 2^(m-1)")
    for b in stats:
        expect(0 <= b.qualifying <= b.total, "qualifying count out of range")


def check_bucket_values(m: int, stats, h: Harmonic) -> None:
    for b, (total, qual, mean, top) in zip(stats, bucket_exact(m, h)):
        expect((b.total, b.qualifying) == (total, qual),
               f"m={m} bucket {b.bucket}: counts differ from enumeration")
        expect(abs(b.mean_improvement_pct - float(mean)) < 1e-9,
               f"m={m} bucket {b.bucket}: mean differs from enumeration")
        expect(abs(b.max_improvement_pct - float(top)) < 1e-9,
               f"m={m} bucket {b.bucket}: max differs from enumeration")


def check_published_row(m: int, shares) -> None:
    row = tuple(float(f"{v:.1f}") for v in shares)
    expect(row == PUBLISHED_TABLE1[m], f"table 1 m={m} gives {row}, "
           f"published {PUBLISHED_TABLE1[m]}")
