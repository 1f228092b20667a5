"""Sequence enumeration experiments and the three report tables.

Table 1/2 sweep every covering sequence of a given total m, bucket them by
mu = (largest part)/m into five left-open intervals, and compare the trace
bound G(s) against H(largest part): table 1 reports the share with a
strict improvement, table 2 the mean/max improvement percentage.

The enumeration universe is configurable (all compositions, or partitions
only).  The default was fixed empirically: compositions reproduce the
published table-1 rows exactly (e.g. m=10 -> 0/13.5/64.8/100/100), while
partitions land far away (0/11.8/41.7/100/100), so compositions it is.

The sweep never materializes instances, and never visits the sequences one
by one: G and H depend only on the sequence, so everything runs on integers
scaled by lcm(1..m).  A meet-in-the-middle count (Horowitz & Sahni 1974)
walks the leading parts down to a split remainder T, derived from m and the
mode, and joins each prefix with sorted tables of the scaled G increments
of every completion of the remainder, one bisection per table row.  Counts,
sums and maxima stay Python ints until the final division, so every
qualification test is exact, the maxima are the per-sequence values, and
each mean is the correctly rounded exact mean.

Known published rows are carried along so emitted reports show any
residual gap against those rows instead of silently matching either side
(the published table-2 means for the two low-mu buckets are off by a few
tenths from the enumerated values; the maxima and all other cells agree).

Table 3 runs the GF(2) family end to end: greedy weight, the trace bound,
and the integrality-gap / LP-ratio lower bounds, with the LP optimum
certified exactly from the family's closed-form optimal pair.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .bounds import g_of
from .errors import MTooLargeForMode
from .generators import GF2_MAX_K, SequenceSpec, gen_gf2
from .greedy import greedy
from . import lp as lp_mod

MODE_COMPOSITIONS = "compositions"
MODE_PARTITIONS = "partitions"
DEFAULT_MODE = MODE_COMPOSITIONS  # empirical: matches published table 1
COMPOSITIONS_MAX_M = 28

BUCKET_LABELS = ("(0,0.2]", "(0.2,0.4]", "(0.4,0.6]", "(0.6,0.8]", "(0.8,1]")

# Published reference rows (acceptance-pinned); keyed by m.
PUBLISHED_TABLE1 = {
    10: (0.0, 13.5, 64.8, 100.0, 100.0),
    15: (0.0, 14.5, 69.6, 99.0, 100.0),
}
PUBLISHED_TABLE2 = {
    10: ((0.0, 0.0), (12.3, 18.4), (21.3, 42.9), (30.9, 55.8), (53.3, 65.9)),
}
PUBLISHED_TABLE3_G = {5: 1.29, 6: 1.30, 7: 1.30, 8: 1.30, 9: 1.30, 10: 1.30}


@dataclass(frozen=True)
class BucketStats:
    """Aggregates over the sequences s whose mu = max(s)/m lies in one bucket.

    A sequence qualifies when G(s) < H(max(s)), strictly; exact ties do not
    count.  mean_improvement_pct is the mean, over the qualifying s, of
    100*(H(max(s)) - G(s))/H(max(s)), correctly rounded from its exact
    rational value, and max_improvement_pct is the maximum of the same
    quantity, each value rounded to a float; both are 0.0 when no sequence
    qualifies.
    """

    bucket: str
    total: int
    qualifying: int
    share_pct: float
    mean_improvement_pct: float
    max_improvement_pct: float


@dataclass(frozen=True)
class BucketTable:
    """Table 1 (which=1, the share per bucket) or table 2 (which=2, the
    mean/max improvement per bucket), both read off one bucket_stats sweep."""

    which: int
    m: int
    mode: str
    stats: tuple[BucketStats, ...]

    @property
    def shares(self) -> tuple[float, ...]:
        return tuple(b.share_pct for b in self.stats)

    @property
    def pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple(
            (b.mean_improvement_pct, b.max_improvement_pct) for b in self.stats
        )


@dataclass(frozen=True)
class Table3Row:
    k: int
    m: int
    w_gr: Fraction
    ig_lower: float
    r_lower: float
    g_trace: Fraction
    g_published: float | None
    lp_objective: float
    r_lp: float

    @property
    def g_matches_published(self) -> bool | None:
        if self.g_published is None:
            return None
        return abs(float(self.g_trace) - self.g_published) < 0.005


@dataclass(frozen=True)
class Table3Result:
    rows: tuple[Table3Row, ...]


def resolve_mode(mode: str) -> str:
    if mode == "auto":
        return DEFAULT_MODE
    if mode not in (MODE_COMPOSITIONS, MODE_PARTITIONS):
        raise ValueError(f"unknown sequence mode {mode!r}")
    return mode


def _sweep_mode(m: int, mode: str) -> str:
    """The resolved mode, once m is a total the sweep accepts in it."""
    mode = resolve_mode(mode)
    if m < 1:
        raise ValueError("m must be >= 1")
    if mode == MODE_COMPOSITIONS and m > COMPOSITIONS_MAX_M:
        raise MTooLargeForMode(f"compositions mode capped at m={COMPOSITIONS_MAX_M}")
    return mode


def enumerate_sequences(m: int, mode: str = DEFAULT_MODE):
    """Yield every covering sequence of total m once, in lexicographic order."""
    mode = _sweep_mode(m, mode)

    def comps(rem):
        if rem == 0:
            yield ()
            return
        for first in range(1, rem + 1):
            for rest in comps(rem - first):
                yield (first,) + rest

    def parts(rem, cap):
        if rem == 0:
            yield ()
            return
        for first in range(1, min(rem, cap) + 1):
            for rest in parts(rem - first, first):
                yield (first,) + rest

    seqs = comps(m) if mode == MODE_COMPOSITIONS else parts(m, m)
    for s in seqs:
        yield SequenceSpec(s)


def _bucket_of(max_part: int, m: int) -> int:
    """Left-open fifths: smallest b with max_part/m <= (b+1)/5, exactly (1 <= max_part <= m)."""
    return (5 * max_part - 1) // m


def _split(m: int, mode: str) -> int:
    """The remainder at which the prefix walk hands over to the suffix tables.

    The smallest T whose tables hold at least as many completions as the walk
    then makes joins, both counted exactly.  The walk stops at remainder
    r <= T after a last part c with r + c > T; lead[n][c] prefixes of total
    n = m - r - c may precede that part (2^(n-1) compositions, or the
    partitions of n into parts >= c), and each stop reads one table row per
    largest part p <= r, for partitions also p <= c.  The tables grow as
    2^T for compositions but only as p(T) for partitions, and a composition
    prefix reads about T^2/2 rows, so T comes out near 2m/3 for compositions
    and near m/2 for partitions.
    """
    partitions = mode == MODE_PARTITIONS
    lead = [[1] * (m + 2)]
    for n in range(1, m + 1):
        if partitions:
            row = [0] * (m + 2)
            for c in range(n, 0, -1):
                row[c] = row[c + 1] + lead[n - c][c]
        else:
            row = [1 << (n - 1)] * (m + 2)
        lead.append(row)

    def joins(t):
        return sum(lead[m - r - c][c] * max(1, min(r, c) if partitions else r)
                   for r in range(t + 1) for c in range(t - r + 1, m - r + 1))

    lo, hi = 0, m
    while lo < hi:
        t = (lo + hi) // 2
        if sum(lead[r][1] for r in range(t + 1)) >= joins(t):
            hi = t
        else:
            lo = t + 1
    return lo


def _suffix_tables(top, scale, mode):
    """For r = 0..top: (p, sorted increments, prefix sums) for p = 1..r.

    The increments are the scaled G contributions sum part*(scale//rem) of
    the completions of r (compositions, or partitions) whose largest part is
    exactly p; r = 0 has the empty completion only, as p = 0.
    """
    raw = [{0: [0]}]
    for r in range(1, top + 1):
        unit = scale // r
        by_top = {}
        for first in range(1, r + 1):
            step = first * unit
            for p, deltas in raw[r - first].items():
                if mode == MODE_PARTITIONS and p > first:
                    continue
                by_top.setdefault(max(p, first), []).extend([step + d for d in deltas])
        raw.append(by_top)
    tables = []
    for by_top in raw:
        row = []
        for p in sorted(by_top):
            deltas = by_top[p]
            deltas.sort()
            row.append((p, deltas, list(accumulate(deltas, initial=0))))
        tables.append(row)
    return tables


def bucket_stats(m: int, mode: str = "auto") -> tuple[BucketStats, ...]:
    """Aggregate every covering sequence of total m per mu-bucket, exactly.

    Meet in the middle (Horowitz & Sahni 1974): a recursive walk fixes the
    parts while the remainder exceeds _split(m, mode); each prefix then joins,
    per largest part p of its completions, one sorted table of the scaled
    completion increments.  With M the sequence's largest part, one bisection
    on h[M] - g counts the completions with G < H(M) and their summed
    improvement.  Everything up to the final division is Python-int
    arithmetic, so the counts and maxima are exact and the mean is the
    correctly rounded exact mean.
    """
    mode = _sweep_mode(m, mode)
    scale = math.lcm(*range(1, m + 1))
    h = [0] * (m + 1)
    for j in range(1, m + 1):
        h[j] = h[j - 1] + scale // j
    split = _split(m, mode)
    tables = _suffix_tables(split, scale, mode)
    partitions = mode == MODE_PARTITIONS
    total = [0] * (m + 1)
    qual = [0] * (m + 1)
    num = [0] * (m + 1)  # sum of h[M] - G over the qualifying s, scaled
    best = [0] * (m + 1)  # largest h[M] - G over the qualifying s, scaled

    def walk(rem, cap, mx, g):
        if rem <= split:
            # row p - 1 holds largest part p; a partition's cap limits p
            for p, deltas, sums in tables[rem][:cap]:
                top = mx if mx >= p else p
                gap = h[top] - g
                c = bisect_left(deltas, gap)
                total[top] += len(deltas)
                if c:
                    qual[top] += c
                    num[top] += c * gap - sums[c]
                    if gap - deltas[0] > best[top]:
                        best[top] = gap - deltas[0]
            return
        unit = scale // rem
        for part in range(1, min(rem, cap) + 1):
            walk(rem - part, part if partitions else m,
                 mx if mx >= part else part, g + part * unit)

    walk(m, m, 0, 0)
    stats = []
    for b in range(5):
        tops = [t for t in range(1, m + 1) if _bucket_of(t, m) == b]
        count = sum(total[t] for t in tops)
        hits = sum(qual[t] for t in tops)
        stats.append(BucketStats(
            bucket=BUCKET_LABELS[b],
            total=count,
            qualifying=hits,
            share_pct=100.0 * hits / count if count else 0.0,
            mean_improvement_pct=float(
                sum(Fraction(100 * num[t], h[t]) for t in tops) / hits
            ) if hits else 0.0,
            max_improvement_pct=max(
                (best[t] / h[t] * 100.0 for t in tops), default=0.0),
        ))
    return tuple(stats)


def table1(m: int, mode: str = "auto",
           workers: int | None = None) -> BucketTable:
    """Share of sequences per bucket with G(s) < H(largest part).

    workers has no effect; it stays only because bench/ passes it.
    """
    return BucketTable(1, m, resolve_mode(mode), bucket_stats(m, mode))


def table2(m: int, mode: str = "auto",
           workers: int | None = None) -> BucketTable:
    """Mean/max improvement of G over H(largest part) among qualifying s.

    For each mu-bucket: the mean and the maximum, over the sequences s with
    G(s) < H(max(s)) (strict), of 100*(H(max(s)) - G(s))/H(max(s)).
    workers has no effect; it stays only because bench/ passes it.
    """
    return BucketTable(2, m, resolve_mode(mode), bucket_stats(m, mode))


def table3(k_lo: int = 5, k_hi: int = 10) -> Table3Result:
    """GF(2) family report: greedy weight, bound columns, certified LP.

    Every element of gf2(k) lies in 2^(k-1) sets and every set has 2^(k-1)
    elements, so x_i = y_e = 2^(1-k) is an optimal primal/dual pair; the LP
    cells come from its exact check, with no simplex.
    """
    if not 2 <= k_lo <= k_hi <= GF2_MAX_K:
        raise ValueError(f"need 2 <= k_lo <= k_hi <= {GF2_MAX_K}")
    rows = []
    for k in range(k_lo, k_hi + 1):
        inst = gen_gf2(k)
        trace = greedy(inst)
        m = inst.m
        half = Fraction(1, 1 << (k - 1))
        _, lp_objective = lp_mod.certify_pair(inst, [half] * inst.n, [half] * m)
        rows.append(Table3Row(
            k=k, m=m, w_gr=trace.total_weight,
            ig_lower=0.5 * math.log2(m),
            r_lower=float(trace.total_weight * Fraction(m + 1, 2 * m)),
            g_trace=g_of(trace),
            g_published=PUBLISHED_TABLE3_G.get(k),
            lp_objective=float(lp_objective),
            r_lp=float(trace.total_weight / lp_objective),
        ))
    return Table3Result(rows=tuple(rows))


# ---------------------------------------------------------------------------
# emission


def _frac_cell(v: Fraction) -> str:
    return f"{v} (≈{float(v):.4f})"


def _bucket_rows(report: BucketTable):
    """The column names per bucket, then the computed row and the published
    row (None when the paper gives none for this m), each as one tuple of
    values per bucket: the share for table 1, the mean and max for table 2."""
    if report.which == 1:
        published = PUBLISHED_TABLE1.get(report.m)
        return (("b",), [(v,) for v in report.shares],
                None if published is None else [(v,) for v in published])
    return ("mean", "max"), report.pairs, PUBLISHED_TABLE2.get(report.m)


def _joined(row, within: str, between: str) -> str:
    return between.join(within.join(f"{v:.1f}" for v in cell) for cell in row)


def emit_csv(report) -> str:
    out = io.StringIO()
    if isinstance(report, BucketTable):
        names, mine, published = _bucket_rows(report)
        head = ",".join(f"{n}{b + 1}" for b in range(5) for n in names)
        out.write(f"m,{head}\n")
        out.write(f"{report.m},{_joined(mine, ',', ',')}\n")
        if published is not None:
            out.write(f"published,{_joined(published, ',', ',')}\n")
    elif isinstance(report, Table3Result):
        out.write("k,m,w_gr,ig_lower,r_lower,lp_objective,r_lp,"
                  "g_trace,g_published,g_matches_published\n")
        for r in report.rows:
            gp = f"{r.g_published:.2f}" if r.g_published is not None else ""
            match = "" if r.g_matches_published is None else str(r.g_matches_published).lower()
            out.write(
                f"{r.k},{r.m},{r.w_gr},{r.ig_lower:.2f},{r.r_lower:.2f},"
                f"{r.lp_objective:.6f},{r.r_lp:.4f},{float(r.g_trace):.4f},{gp},{match}\n"
            )
    else:
        raise TypeError(f"cannot emit {type(report).__name__}")
    return out.getvalue()


def emit_markdown(report) -> str:
    out = io.StringIO()
    if isinstance(report, BucketTable):
        out.write(f"### Table {report.which} (m={report.m}, mode={report.mode})\n\n")
        out.write("| bucket | total | qualifying | share % | mean Δ% | max Δ% |\n")
        out.write("|---|---|---|---|---|---|\n")
        for b in report.stats:
            out.write(
                f"| {b.bucket} | {b.total} | {b.qualifying} | "
                f"{b.share_pct:.1f} | {b.mean_improvement_pct:.1f} | "
                f"{b.max_improvement_pct:.1f} |\n"
            )
        _, mine, published = _bucket_rows(report)
        if published is not None:
            cells, computed = _joined(published, "/", " "), _joined(mine, "/", " ")
            out.write(f"\npublished row: {cells}\n")
            out.write(f"computed row:  {computed}\n")
            if cells != computed:
                out.write("NOTE: computed row differs from the published row.\n")
    elif isinstance(report, Table3Result):
        out.write("### Table 3 (GF(2) family)\n\n")
        out.write("| k | m | w(Gr) | IG lower | R lower | LP objective | "
                  "R from LP | G (trace) | G (published) |\n")
        out.write("|---|---|---|---|---|---|---|---|---|\n")
        mismatch = False
        for r in report.rows:
            gp = f"{r.g_published:.2f}" if r.g_published is not None else "-"
            if r.g_matches_published is False:
                mismatch = True
                gp += " (!)"
            out.write(
                f"| {r.k} | {r.m} | {_frac_cell(r.w_gr)} | {r.ig_lower:.2f} | "
                f"{r.r_lower:.2f} | {r.lp_objective:.6f} | {r.r_lp:.4f} | "
                f"{_frac_cell(r.g_trace)} | {gp} |\n"
            )
        if mismatch:
            out.write(
                "\nNOTE: the G column is computed from the simulated greedy "
                "trace (forced halving sequence); it does not reproduce the "
                "published 1.29-1.30 row. Since w(Gr) <= G·OPT_LP, R <= G, "
                "so a published G below R cannot be the trace bound.\n"
            )
    else:
        raise TypeError(f"cannot emit {type(report).__name__}")
    return out.getvalue()
