"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 checks table 2, row m=10, against the published row wherever
the stated definition decides a cell: eight cells must lie within +/-0.1
of the published values.  The means of buckets (0.2,0.4] and (0.4,0.6]
do not follow from that definition (published 12.3 and 21.3, exact
5246/441 and 75052900/3564603); they are checked against the exact oracle
values instead, and the deviation itself is asserted -- exactly those two
cells differ from the published row, each by more than 0.1 -- and printed.
"""

import time
from fractions import Fraction

import pytest

from setcoverlab import (
    TIE_LOWEST_INDEX,
    TIE_MAX_RESIDUAL,
    RandomSpec,
    SequenceSpec,
    SolveBudget,
    bound_report,
    check_fractional_cover,
    delta_of,
    enumerate_sequences,
    exact_opt,
    g_of,
    gen_class_cs,
    gen_gf2,
    gen_random,
    greedy,
    replay_check,
    solve_lp,
    table1,
    table2,
    table3,
)
from setcoverlab.bounds import g_from_counts
from setcoverlab.exact import METHOD_BNB, METHOD_EXHAUSTIVE
from setcoverlab.experiments import (
    MODE_COMPOSITIONS,
    MODE_PARTITIONS,
    PUBLISHED_TABLE2,
    emit_markdown,
)

from oracle import (
    brute_bucket_improvements,
    brute_g,
    brute_harmonic,
    brute_residual_optimum,
    greedy_lp_slack,
)

EPS = Fraction(1, 2)


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE C{num:02d} {name}: {verdict}{suffix}")
    return ok


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded random instances (m <= 12, n <= 10) with oracle optima."""
    items = []
    for i in range(1000):
        spec = RandomSpec(
            m=1 + i % 12, n=1 + i % 10,
            density=0.15 + (i % 7) * 0.1,
            weight_lo=Fraction(1, 4), weight_hi=Fraction(8), seed=i,
        )
        inst = gen_random(spec)
        trace = greedy(inst)
        opt = exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))
        items.append((inst, trace, opt))
    return items


def test_c01_theorem_suite(corpus):
    t0 = time.perf_counter()
    violations = [
        inst.name for inst, trace, opt in corpus
        if trace.total_weight / opt.weight > g_of(trace)
    ]
    elapsed = time.perf_counter() - t0
    ok = not violations and len(corpus) >= 1000 and elapsed < 60
    assert report(1, "theorem w(Gr)/w(Opt) <= G(s)", ok,
                  f"{len(corpus)} instances, {elapsed:.1f}s")


def test_c02_delta_identity_and_sign(corpus):
    traces = [trace for _, trace, _ in corpus]
    for m in range(1, 13):
        for spec in enumerate_sequences(m, MODE_COMPOSITIONS):
            traces.append(greedy(gen_class_cs(spec, EPS)))
    bad = 0
    for trace in traces:
        m = trace.residuals[0]
        delta = delta_of(trace)
        if delta != brute_harmonic(m) - brute_g(trace.s, m):
            bad += 1
        elif delta < 0:
            bad += 1
        elif (delta == 0) != all(s == 1 for s in trace.s):
            bad += 1
    ok = bad == 0
    assert report(2, "Delta = H(m) - G against the oracle, sign, equality cases", ok,
                  f"{len(traces)} traces")


def test_c03_bound_chain(corpus):
    bad = 0
    for inst, trace, opt in corpus:
        rep = bound_report(inst, trace, opt.cover)
        if not rep.ratio <= rep.H_m_tilde <= rep.H_m_bar <= rep.H_m:
            bad += 1
    assert report(3, "chain ratio <= H(m~) <= H(m-) <= H(m)", bad == 0,
                  f"{len(corpus)} instances")


TABLE1_EXPECTED = {
    10: (0.0, 13.5, 64.8, 100.0, 100.0),
    15: (0.0, 14.5, 69.6, 99.0, 100.0),
}


def test_c04_table1_reproduction():
    t0 = time.perf_counter()
    verdicts = {}
    for mode in (MODE_COMPOSITIONS, MODE_PARTITIONS):
        verdicts[mode] = all(
            abs(share - want) <= 0.05
            for m, row in TABLE1_EXPECTED.items()
            for share, want in zip(table1(m, mode=mode).shares, row)
        )
    elapsed = time.perf_counter() - t0
    default_matches = verdicts[MODE_COMPOSITIONS]
    if not any(verdicts.values()):
        report(4, "table 1 rows 10/15", False,
               "neither enumeration mode reproduces the published rows")
        for mode in verdicts:
            for m in TABLE1_EXPECTED:
                print(f"  {mode} m={m}: "
                      f"{[round(s, 1) for s in table1(m, mode=mode).shares]}"
                      f" vs {TABLE1_EXPECTED[m]}")
        pytest.fail("table 1 matches in no mode; see discrepancy report above")
    ok = default_matches and elapsed < 10
    assert report(4, "table 1 rows 10/15 in compositions mode", ok,
                  f"{elapsed:.1f}s")


TABLE2_EXPECTED_ROW10 = (
    (0.0, 0.0), (12.3, 18.4), (21.3, 42.9), (30.9, 55.8), (53.3, 65.9),
)
# (bucket, column) cells of the published row that the stated definition
# does not reproduce: the means of buckets (0.2,0.4] and (0.4,0.6].
TABLE2_DEVIATING_CELLS = {(2, "mean"), (3, "mean")}


def test_c05_table2_reproduction():
    t0 = time.perf_counter()
    result = table2(10)
    elapsed = time.perf_counter() - t0
    exact = brute_bucket_improvements(10)
    failures = []
    if TABLE2_EXPECTED_ROW10 != PUBLISHED_TABLE2[10]:
        failures.append("published row constants disagree")
    deviations = []
    for b, ((mean, mx), (want_mean, want_max), (_, _, exact_mean, exact_max)) \
            in enumerate(zip(result.pairs, TABLE2_EXPECTED_ROW10, exact), start=1):
        for column, value, want, exact_value in (
                ("mean", mean, want_mean, exact_mean),
                ("max", mx, want_max, exact_max)):
            off = abs(value - want) > 0.1
            if (b, column) not in TABLE2_DEVIATING_CELLS:
                if off:
                    failures.append(
                        f"bucket {b} {column} {value:.2f} vs published {want}")
                continue
            if not off:
                failures.append(f"bucket {b} {column} {value:.2f} no longer "
                                f"deviates from published {want}")
            if abs(value - float(exact_value)) > 1e-9:
                failures.append(f"bucket {b} {column} {value!r} vs exact "
                                f"{exact_value} = {float(exact_value)!r}")
            deviations.append(f"bucket {b} {column} {value:.2f} = "
                              f"{exact_value} vs published {want}")
    md = emit_markdown(result)
    for line in (
        "published row: " + " ".join(
            f"{a:.1f}/{b:.1f}" for a, b in TABLE2_EXPECTED_ROW10),
        "computed row:  " + " ".join(
            f"{a:.1f}/{b:.1f}" for a, b in result.pairs),
        "NOTE: computed row differs from the published row.",
    ):
        if line not in md.splitlines():
            failures.append(f"report lacks line {line!r}")
    if elapsed >= 10:
        failures.append(f"took {elapsed:.1f}s")
    ok = not failures
    report(5, "table 2 row 10: published cells within +/-0.1, "
              "two means exact", ok,
           "; ".join(failures) or "documented deviation: "
           + "; ".join(deviations) + f"; {elapsed:.1f}s")
    assert ok, "table-2 row 10 check failed: " + "; ".join(failures)


TABLE3_IG = (2.48, 2.99, 3.49, 4.00, 4.50, 5.00)
TABLE3_R = (2.58, 3.05, 3.53, 4.02, 4.51, 5.01)


def test_c06_table3_derived_rows():
    t0 = time.perf_counter()
    rows = table3(5, 10).rows
    elapsed = time.perf_counter() - t0
    ok = all(
        abs(row.ig_lower - ig) <= 0.01 and abs(row.r_lower - r) <= 0.01
        and row.w_gr == row.k
        for row, ig, r in zip(rows, TABLE3_IG, TABLE3_R)
    ) and elapsed < 30
    assert report(6, "table 3 IG/R lower bounds, w(Gr)=k, k=5..10", ok,
                  f"{elapsed:.1f}s")


def test_c07_table3_g_row():
    result = table3(5, 10)
    ok = True
    for row in result.rows:
        inst = gen_gf2(row.k)
        trace = greedy(inst)
        if not replay_check(inst, trace):
            ok = False
        if row.g_trace != g_from_counts(trace.s, inst.m):
            ok = False
        if row.g_published is None:
            ok = False
    md = emit_markdown(result)
    discrepancy_reported = ("does not reproduce the published" in md
                            and "(!)" in md)
    ok = ok and discrepancy_reported
    assert report(7, "table 3 G row from replayed trace, discrepancy emitted",
                  ok)


def test_c08_lp_suite(corpus):
    t0 = time.perf_counter()
    bad = []
    certified = 0

    def check_r_at_most_g(inst, out):
        # w(Gr) <= G*OPT_LP under either tie policy, for every certified LP
        nonlocal certified
        if out.exact_objective is None:
            return
        certified += 1
        for tie in (TIE_LOWEST_INDEX, TIE_MAX_RESIDUAL):
            if greedy_lp_slack(inst, out.exact_objective, tie) < 0:
                bad.append(f"{inst.name}: R > G under {tie}")

    for k in range(2, 9):
        inst = gen_gf2(k)
        out = solve_lp(inst)
        bound = 2 * inst.m / (inst.m + 1)
        if out.status != "optimal" or out.objective > bound + 1e-9:
            bad.append(f"gf2({k}) objective {out.objective}")
        uniform = [Fraction(2, inst.m + 1)] * inst.n
        if not check_fractional_cover(inst, uniform):
            bad.append(f"gf2({k}) uniform cover rejected")
        check_r_at_most_g(inst, out)
    for inst, _, opt in corpus[:200]:
        out = solve_lp(inst)
        if out.status != "optimal" or out.objective > float(opt.weight) + 1e-9:
            bad.append(f"{inst.name}: lp {out.objective} > opt {opt.weight}")
        check_r_at_most_g(inst, out)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120
    assert report(8, "LP suite (gf2 objectives, uniform covers, 200 random, R <= G)",
                  ok, "; ".join(bad) or f"{certified} certified LPs with R <= G, "
                                         f"{elapsed:.1f}s")


def test_c09_generator_round_trip():
    t0 = time.perf_counter()
    bad = 0
    total = 0
    for m in range(1, 13):
        for spec in enumerate_sequences(m, MODE_COMPOSITIONS):
            total += 1
            inst = gen_class_cs(spec, EPS)
            trace = greedy(inst)
            if trace.s != spec.s:
                bad += 1
                continue
            if len(spec.s) >= 2:
                # the block construction: greedy pays m+1, optimum is A
                if trace.total_weight != m + 1:
                    bad += 1
                    continue
                if exact_opt(inst).weight != m + EPS:
                    bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 120
    assert report(9, "generator round-trip, all compositions m <= 12", ok,
                  f"{total} sequences, {elapsed:.1f}s")


def test_c10_exact_solver_agreement():
    # both methods run one search; B&B also cuts the open children that could
    # only tie the incumbent, so it visits no node the exhaustive method skips
    bad = 0
    bnb_nodes = exhaustive_nodes = 0
    for seed in range(150):
        inst = gen_random(RandomSpec(
            m=2 + seed % 10, n=1 + seed % 15,
            density=0.2 + (seed % 5) * 0.12,
            weight_lo=Fraction(1, 3), weight_hi=Fraction(7), seed=seed + 5000,
        ))
        exhaustive = exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))
        bnb = exact_opt(inst, SolveBudget(method=METHOD_BNB))
        bnb_nodes += bnb.nodes
        exhaustive_nodes += exhaustive.nodes
        if exhaustive.weight != bnb.weight or bnb.nodes > exhaustive.nodes \
                or bnb.weight != brute_residual_optimum(inst, 0):
            bad += 1
    ok = bad == 0 and bnb_nodes < exhaustive_nodes
    assert report(10, "B&B == exhaustive, in no more nodes", ok,
                  f"150 instances, {bnb_nodes} nodes against {exhaustive_nodes}, {bad} differ")


def test_c11_performance_floor():
    t0 = time.perf_counter()
    table1(20, mode=MODE_COMPOSITIONS)
    table_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    trace = greedy(gen_gf2(10))
    greedy_time = time.perf_counter() - t0
    ok = table_time < 60 and greedy_time < 5 and trace.total_weight == 10
    assert report(11, "table1(20) < 60s, greedy gf2(10) < 5s", ok,
                  f"table {table_time:.1f}s, greedy {greedy_time:.2f}s")
