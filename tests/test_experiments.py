import json
from fractions import Fraction
from pathlib import Path

import pytest

from setcoverlab import (
    SequenceSpec,
    emit_csv,
    emit_markdown,
    enumerate_sequences,
    gen_class_cs,
    greedy,
    harmonic,
    replay_check,
    table1,
    table2,
    table3,
)
from setcoverlab import experiments as experiments_mod
from setcoverlab.bounds import g_from_counts, g_of
from setcoverlab.errors import MTooLargeForMode
from setcoverlab.experiments import (
    MODE_COMPOSITIONS,
    MODE_PARTITIONS,
    PUBLISHED_TABLE3_G,
    bucket_stats,
    resolve_mode,
)

from oracle import (
    brute_bucket_improvements,
    compositions_by_gaps,
    count_by_largest_part,
    partitions_plain,
)

GOLDEN_TABLES = Path(__file__).with_name("golden_tables.json")


class TestEnumerate:
    def test_m3_compositions_lex(self):
        seqs = [spec.s for spec in enumerate_sequences(3, MODE_COMPOSITIONS)]
        assert seqs == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_counts(self):
        assert sum(1 for _ in enumerate_sequences(10, MODE_COMPOSITIONS)) == 512
        assert sum(1 for _ in enumerate_sequences(5, MODE_PARTITIONS)) == 7

    def test_partitions_are_nonincreasing(self):
        for spec in enumerate_sequences(7, MODE_PARTITIONS):
            assert all(a >= b for a, b in zip(spec.s, spec.s[1:]))

    def test_lex_order_partitions(self):
        seqs = [spec.s for spec in enumerate_sequences(5, MODE_PARTITIONS)]
        assert seqs == sorted(seqs)

    def test_matches_gap_bitmask_oracle(self):
        for m in range(1, 10):
            mine = sorted(spec.s for spec in enumerate_sequences(m, MODE_COMPOSITIONS))
            theirs = sorted(compositions_by_gaps(m))
            assert mine == theirs

    def test_too_large_for_compositions(self):
        with pytest.raises(MTooLargeForMode):
            list(enumerate_sequences(29, MODE_COMPOSITIONS))

    def test_auto_resolves_to_compositions(self):
        assert resolve_mode("auto") == MODE_COMPOSITIONS

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown sequence mode"):
            resolve_mode("bogus")


class TestBuckets:
    def test_counts_against_brute_force(self):
        # qualification and bucketing recomputed with plain Fractions
        stats = bucket_stats(9, MODE_COMPOSITIONS)
        brute = brute_bucket_improvements(9)
        assert [(st.total, st.qualifying) for st in stats] == \
            [(total, qual) for total, qual, _, _ in brute]

    def test_boundary_membership_is_exact(self):
        # mu = 1/5 must land in the first bucket (left-open intervals)
        stats = bucket_stats(10, MODE_COMPOSITIONS)
        # sequences with max part exactly 2 (mu = 0.2) counted in bucket 1:
        count_b1 = stats[0].total
        brute = sum(1 for s in compositions_by_gaps(10) if max(s) <= 2)
        assert count_b1 == brute


class TestExactAgainstEnumeration:
    """The counted sweep against plain Fraction enumeration of every sequence."""

    @staticmethod
    def assert_matches_oracle(m, mode):
        stats = bucket_stats(m, mode)
        for st, (total, qual, mean, top) in zip(stats, brute_bucket_improvements(m, mode)):
            assert (st.total, st.qualifying) == (total, qual), (m, mode, st.bucket)
            # the mean is the correctly rounded exact mean (so within 1e-12)
            assert st.mean_improvement_pct == float(mean), (m, mode, st.bucket)
            # the max is (H - G)/H rounded to a float, then times 100.0
            assert st.max_improvement_pct == float(top / 100) * 100.0, (m, mode, st.bucket)

    @pytest.mark.parametrize("m", range(1, 15))
    def test_compositions(self, m):
        self.assert_matches_oracle(m, MODE_COMPOSITIONS)

    @pytest.mark.parametrize("m", range(1, 31))
    def test_partitions(self, m):
        self.assert_matches_oracle(m, MODE_PARTITIONS)

    @pytest.mark.parametrize("mode,m", [(MODE_COMPOSITIONS, 12), (MODE_PARTITIONS, 20)])
    def test_split_changes_the_cost_only(self, monkeypatch, mode, m):
        # T = 0 walks every sequence; T = m reads every sequence from the tables
        expected = bucket_stats(m, mode)
        for split in range(m + 1):
            monkeypatch.setattr(experiments_mod, "_split", lambda m_, mode_: split)
            assert bucket_stats(m, mode) == expected, split

    def test_partition_oracle_enumerates_each_partition_once(self):
        for m in range(1, 12):
            mine = [spec.s for spec in enumerate_sequences(m, MODE_PARTITIONS)]
            theirs = list(partitions_plain(m))
            assert sorted(mine) == sorted(theirs)
            assert len(set(theirs)) == len(theirs)


class TestLimits:
    """The largest inputs each mode is meant for, against counting recurrences."""

    @staticmethod
    def totals_by_recurrence(m, mode):
        totals = [0] * 5
        for k, count in enumerate(count_by_largest_part(m, mode)):
            if k:
                totals[next(b for b in range(5) if 5 * k <= (b + 1) * m)] += count
        return totals

    def test_compositions_of_28(self):
        stats = bucket_stats(28, MODE_COMPOSITIONS)
        totals = [st.total for st in stats]
        assert totals == self.totals_by_recurrence(28, MODE_COMPOSITIONS)
        assert sum(totals) == 2 ** 27
        assert all(0 <= st.qualifying <= st.total for st in stats)

    def test_partitions_of_100(self):
        stats = bucket_stats(100, MODE_PARTITIONS)
        totals = [st.total for st in stats]
        assert totals == self.totals_by_recurrence(100, MODE_PARTITIONS)
        assert sum(totals) == 190_569_292  # p(100)
        assert all(0 <= st.qualifying <= st.total for st in stats)

    def test_recurrence_matches_enumeration(self):
        for mode in (MODE_COMPOSITIONS, MODE_PARTITIONS):
            for m in range(1, 11):
                counts = [0] * (m + 1)
                for spec in enumerate_sequences(m, mode):
                    counts[max(spec.s)] += 1
                assert count_by_largest_part(m, mode) == counts

    @pytest.mark.parametrize("m", [0, -3])
    def test_m_below_one(self, m):
        for make in (bucket_stats, table1, table2):
            with pytest.raises(ValueError, match=r"^m must be >= 1$"):
                make(m)
        with pytest.raises(ValueError, match=r"^m must be >= 1$"):
            next(enumerate_sequences(m))

    def test_compositions_past_the_cap(self):
        with pytest.raises(MTooLargeForMode, match="capped at m=28"):
            bucket_stats(29, MODE_COMPOSITIONS)
        with pytest.raises(MTooLargeForMode):
            table2(29, mode=MODE_COMPOSITIONS)


class TestGoldenTables:
    """emit_csv / emit_markdown bytes of tables 1 and 2, pinned from the
    per-sequence sweep this counted sweep replaced."""

    CASES = [(mode, m) for mode, ms in ((MODE_COMPOSITIONS, (10, 15, 20)),
                                        (MODE_PARTITIONS, (40, 50))) for m in ms]

    @pytest.mark.parametrize("mode,m", CASES)
    def test_bytes(self, mode, m):
        golden = json.loads(GOLDEN_TABLES.read_text(encoding="utf-8"))
        for which, maker in (("1", table1), ("2", table2)):
            report = maker(m, mode=mode)
            assert emit_csv(report) == golden[f"table{which}-{mode}-{m}.csv"]
            assert emit_markdown(report) == golden[f"table{which}-{mode}-{m}.md"]


class TestTable1:
    def test_row10_matches_published_row(self):
        shares = table1(10).shares
        assert [round(s, 1) for s in shares] == [0.0, 13.5, 64.8, 100.0, 100.0]

    def test_row15_matches_published_row(self):
        shares = table1(15).shares
        assert [round(s, 1) for s in shares] == [0.0, 14.5, 69.6, 99.0, 100.0]

    def test_row12_matches_published_row(self):
        shares = table1(12).shares
        assert [round(s, 1) for s in shares] == [0.0, 9.9, 52.9, 97.5, 100.0]

    def test_partitions_mode_disagrees(self):
        shares = table1(10, mode=MODE_PARTITIONS).shares
        assert [round(s, 1) for s in shares] != [0.0, 13.5, 64.8, 100.0, 100.0]

    def test_bucket5_members_all_qualify(self):
        # s=(10) has G=1 < H(10); (9,1) and (1,9) beat H(9)
        assert g_from_counts((10,), 10) == 1 < harmonic(10)
        assert g_from_counts((9, 1), 10) < harmonic(9)
        assert g_from_counts((1, 9), 10) < harmonic(9)
        assert table1(10).shares[4] == 100.0


class TestTable2:
    def test_row10_maxima_match_published_row(self):
        pairs = table2(10).pairs
        exact = [float(mx) for _, _, _, mx in brute_bucket_improvements(10)]
        assert [mx for _, mx in pairs] == pytest.approx(exact, abs=1e-9)
        assert [round(mx, 1) for mx in exact] == [0.0, 18.4, 42.9, 55.8, 65.9]

    def test_row10_means(self):
        # buckets 1, 4, 5 agree with the published row; the exact means for
        # buckets 2-3 are 5246/441 and 75052900/3564603 (11.9/21.1) vs the
        # published 12.3/21.3 (documented deviation surfaced by emit_markdown)
        pairs = table2(10).pairs
        exact = [float(mean) for _, _, mean, _ in brute_bucket_improvements(10)]
        assert [mean for mean, _ in pairs] == pytest.approx(exact, abs=1e-9)

    def test_empty_bucket_reports_zero_pair(self):
        pairs = table2(10).pairs
        assert pairs[0] == (0.0, 0.0)

    def test_discrepancy_appears_in_report(self):
        md = emit_markdown(table2(10))
        assert "published row" in md
        assert "NOTE: computed row differs" in md


class TestEnumerationMatchesInstancePath:
    def test_sample_sequences(self):
        # same qualification verdict via pure arithmetic and via a built
        # instance driven through greedy + bound_report, >= 1000 sequences
        from setcoverlab import bound_report

        checked = 0
        for m in (8, 9, 10):
            for spec in enumerate_sequences(m, MODE_COMPOSITIONS):
                inst = gen_class_cs(spec)
                trace = greedy(inst)
                assert trace.s == spec.s
                rep = bound_report(inst, trace)
                direct = g_from_counts(spec.s, m)
                assert rep.G == direct
                assert rep.m_of_s == max(spec.s)
                h = harmonic(rep.m_of_s)
                assert (direct < h) == (rep.G < h)
                checked += 1
        assert checked == 128 + 256 + 512


class TestTable3:
    def test_row_count_and_keys(self):
        rep = table3(5, 10)
        assert [r.k for r in rep.rows] == [5, 6, 7, 8, 9, 10]
        assert [r.m for r in rep.rows] == [31, 63, 127, 255, 511, 1023]

    def test_greedy_weight_is_k(self):
        for row in table3(2, 6).rows:
            assert row.w_gr == row.k

    def test_ig_lower_bounds(self):
        rep = table3(5, 10)
        expected = [2.48, 2.99, 3.49, 4.00, 4.50, 5.00]
        for row, want in zip(rep.rows, expected):
            assert row.ig_lower == pytest.approx(want, abs=0.01)

    def test_r_lower_bounds(self):
        rep = table3(5, 10)
        expected = [2.58, 3.05, 3.53, 4.02, 4.51, 5.01]
        for row, want in zip(rep.rows, expected):
            assert row.r_lower == pytest.approx(want, abs=0.01)

    def test_g_trace_is_halving_sum(self):
        rep = table3(5, 5)
        row = rep.rows[0]
        s = [16, 8, 4, 2, 1]
        assert row.g_trace == g_from_counts(tuple(s), 31)
        assert row.g_trace == Fraction(3567, 1085)

    def test_g_differs_from_published_and_is_flagged(self):
        rep = table3(5, 6)
        for row in rep.rows:
            assert row.g_matches_published is False
        md = emit_markdown(rep)
        assert "does not reproduce the published" in md

    def test_lp_cells_for_small_k(self):
        rep = table3(2, 5)
        for row in rep.rows:
            assert row.lp_objective is not None
            want = 2 * row.m / (row.m + 1)
            assert row.lp_objective == pytest.approx(want, abs=1e-7)
            assert row.r_lp >= row.r_lower - 1e-9

    def test_lp_cells_are_certified_exactly_up_to_k10(self):
        # the LP optimum of gf2(k) is (2^k - 1)/2^(k-1), which makes R from
        # the LP equal the R lower bound w(Gr)*(m+1)/(2m)
        for row in table3(2, 10).rows:
            assert Fraction(row.lp_objective) == Fraction((1 << row.k) - 1, 1 << (row.k - 1))
            assert row.r_lp == row.r_lower

    def test_published_g_is_below_r_and_r_is_at_most_g(self):
        # w(Gr) <= G*OPT_LP gives R <= G, so no trace bound lies below R
        for row in table3(5, 10).rows:
            r = row.w_gr / Fraction(row.lp_objective)
            assert PUBLISHED_TABLE3_G[row.k] < r <= row.g_trace

    def test_trace_replays(self):
        from setcoverlab import gen_gf2

        inst = gen_gf2(5)
        assert replay_check(inst, greedy(inst))

    def test_k_range_validated(self):
        with pytest.raises(ValueError):
            table3(1, 5)
        with pytest.raises(ValueError):
            table3(5, 13)


class TestEmit:
    def test_table1_csv_layout(self):
        text = emit_csv(table1(10))
        lines = text.strip().splitlines()
        assert lines[0] == "m,b1,b2,b3,b4,b5"
        assert lines[1] == "10,0.0,13.5,64.8,100.0,100.0"
        assert lines[2] == "published,0.0,13.5,64.8,100.0,100.0"

    def test_emit_is_pure(self):
        rep = table3(4, 6)
        assert emit_csv(rep) == emit_csv(rep)
        assert emit_markdown(rep) == emit_markdown(rep)

    def test_table3_markdown_row_count(self):
        md = emit_markdown(table3(5, 9))
        body = [ln for ln in md.splitlines() if ln.startswith("| ") and "| k |" not in ln]
        assert len(body) == 9 - 5 + 1  # one data row per k

    def test_unknown_report_type(self):
        with pytest.raises(TypeError):
            emit_csv(42)
        with pytest.raises(TypeError):
            emit_markdown(42)
