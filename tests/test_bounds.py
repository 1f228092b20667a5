import dataclasses
import math
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcoverlab import (
    RandomSpec,
    SequenceSpec,
    bound_report,
    delta_of,
    exact_opt,
    g_of,
    gen_class_cs,
    gen_gf2,
    gen_random,
    greedy,
    harmonic,
    make_instance,
    slavik_bounds,
)
from setcoverlab.bounds import _scalar, g_from_counts, report_to_csv, report_to_kv
from setcoverlab.errors import (
    ArgumentTooSmall,
    InvalidTrace,
    NonPositiveArgument,
    TraceMismatch,
)
from setcoverlab.greedy import GreedyTrace
from setcoverlab.instance import cover_weight

from oracle import brute_g, brute_harmonic


def synthetic_trace(s, m):
    """A shape-valid trace for pure sequence arithmetic tests."""
    residuals = [m]
    for part in s:
        residuals.append(residuals[-1] - part)
    return GreedyTrace(
        chosen=tuple(range(len(s))),
        s=tuple(s),
        residuals=tuple(residuals),
        ratios=tuple(Fraction(1) for _ in s),
        total_weight=Fraction(len(s)),
    )


class TestHarmonic:
    def test_first(self):
        assert harmonic(1) == 1

    def test_h4(self):
        assert harmonic(4) == Fraction(25, 12)

    def test_h10_interval(self):
        h10 = harmonic(10)
        assert h10 == Fraction(7381, 2520)
        assert round(float(h10), 2) == 2.93  # lower edge of the [2.93,4.15] band
        assert float(harmonic(35)) <= 4.15

    def test_matches_brute_sum(self):
        for j in range(1, 60):
            assert harmonic(j) == brute_harmonic(j)
        assert harmonic(np.int64(300)) == brute_harmonic(300)

    def test_non_positive(self):
        with pytest.raises(NonPositiveArgument):
            harmonic(0)

    def test_large_j_from_a_cold_cache(self):
        # a fresh interpreter, so no smaller value is cached beforehand
        proc = subprocess.run(
            [sys.executable, "-c",
             "from setcoverlab.bounds import harmonic; print(harmonic(5000))"],
            capture_output=True, text=True, check=True,
        )
        assert Fraction(proc.stdout.strip()) == brute_harmonic(5000)

    def test_calls_in_any_order(self):
        assert harmonic(700) == brute_harmonic(700)
        assert harmonic(650) == brute_harmonic(650)
        assert harmonic(701) == harmonic(700) + Fraction(1, 701)

    def test_concurrent_calls(self):
        harmonic.cache_clear()  # so the threads race to compute and to store
        js = [*range(1, 301), *range(1, 301, 7), *range(300, 0, -13)] * 2
        random.Random(5).shuffle(js)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(harmonic, js, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        brute = {j: brute_harmonic(j) for j in set(js)}
        assert all(h == brute[j] for j, h in zip(js, results))


class TestG:
    def test_whole_universe_in_one_step(self):
        assert g_of(synthetic_trace((10,), 10)) == 1

    def test_two_steps(self):
        assert g_of(synthetic_trace((7, 3), 10)) == Fraction(17, 10)

    def test_all_ones_equals_harmonic(self):
        assert g_of(synthetic_trace((1, 1, 1, 1), 4)) == harmonic(4)

    def test_invalid_sum(self):
        with pytest.raises(InvalidTrace):
            g_from_counts((3, 3), 5)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 2000), min_size=1, max_size=60))
    def test_integer_sum_equals_per_step_fractions(self, s):
        # one Fraction over the lcm of the residuals, against one per step
        assert g_from_counts(s, sum(s)) == brute_g(s, sum(s))

    def test_counts_from_an_iterator(self):
        assert g_from_counts(iter((7, 3)), 10) == Fraction(17, 10)


class TestDelta:
    def test_all_ones_is_zero(self):
        assert delta_of(synthetic_trace((1,) * 6, 6)) == 0

    def test_single_step(self):
        expected = Fraction(7381, 2520) - 1  # 4861/2520
        assert delta_of(synthetic_trace((10,), 10)) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 14), st.randoms())
    def test_equals_the_oracle_h_minus_g(self, m, rnd):
        parts = []
        left = m
        while left:
            p = rnd.randint(1, left)
            parts.append(p)
            left -= p
        tr = synthetic_trace(tuple(parts), m)
        assert delta_of(tr) == brute_harmonic(m) - brute_g(parts, m)
        assert delta_of(tr) >= 0

    def test_malformed_trace(self):
        tr = dataclasses.replace(synthetic_trace((2, 1), 3), s=(2, 2))
        with pytest.raises(InvalidTrace):
            delta_of(tr)

    def test_zero_iff_all_ones(self):
        for s in ((1, 1, 1), (2, 1), (1, 2), (3,)):
            tr = synthetic_trace(s, 3)
            assert (delta_of(tr) == 0) == all(p == 1 for p in s)


class TestSlavik:
    def test_m10(self):
        t_l, t_u = slavik_bounds(10)
        assert t_l == pytest.approx(1.1586, abs=1e-4)
        assert t_u == pytest.approx(2.2486, abs=1e-4)

    def test_constant_gap(self):
        for m in (3, 10, 100, 4500):
            t_l, t_u = slavik_bounds(m)
            assert t_u - t_l == pytest.approx(1.09, abs=1e-12)

    def test_too_small(self):
        with pytest.raises(ArgumentTooSmall):
            slavik_bounds(2)


class TestOptLower:
    def test_cs21(self):
        inst = gen_class_cs(SequenceSpec((2, 1)))
        trace = greedy(inst)
        assert bound_report(inst, trace).opt_lower == Fraction(12, 5)
        assert Fraction(12, 5) <= exact_opt(inst).weight  # 7/2

    def test_single_set_is_tight(self):
        inst = make_instance(3, [((1, 2, 3), 5)])
        assert bound_report(inst, greedy(inst)).opt_lower == 5

    def test_gf2_k2(self):
        inst = gen_gf2(2)
        assert bound_report(inst, greedy(inst)).opt_lower == Fraction(6, 5)
        assert exact_opt(inst).weight == 2


class TestBoundReport:
    def test_cs21_full(self):
        inst = gen_class_cs(SequenceSpec((2, 1)))
        trace = greedy(inst)
        opt = exact_opt(inst).cover
        rep = bound_report(inst, trace, opt)
        assert rep.H_m == Fraction(11, 6)
        assert rep.G == Fraction(5, 3)
        assert rep.Delta == Fraction(1, 6)
        assert rep.m_bar == 3 and rep.m_tilde == 3
        assert rep.ratio == Fraction(8, 7)
        assert rep.m_of_s == 2

    def test_single_set(self):
        inst = make_instance(3, [((1, 2, 3), 5)])
        trace = greedy(inst)
        rep = bound_report(inst, trace, exact_opt(inst).cover)
        assert rep.G == 1
        assert rep.Delta == harmonic(3) - 1
        assert rep.ratio == 1

    def test_delta_identity_fuzzed(self):
        for seed in range(60):
            spec = RandomSpec(m=1 + seed % 11, n=1 + seed % 6, density=0.4,
                              weight_lo=Fraction(1, 2), weight_hi=Fraction(4),
                              seed=seed)
            inst = gen_random(spec)
            rep = bound_report(inst, greedy(inst))
            assert rep.Delta == rep.H_m - rep.G
            assert rep.Delta >= 0
            assert rep.G >= 1
            assert rep.opt_lower <= rep.w_gr

    def test_small_m_has_no_slavik(self):
        inst = make_instance(2, [((1, 2), 1)])
        rep = bound_report(inst, greedy(inst))
        assert rep.T_l is None and rep.T_u is None

    def test_trace_mismatch(self):
        inst = gen_class_cs(SequenceSpec((2, 1)))
        other = make_instance(2, [((1, 2), 1)])
        with pytest.raises(TraceMismatch):
            bound_report(inst, greedy(other))

    @pytest.mark.parametrize("fields, message", [
        ({"chosen": (0, 7)}, "trace chose a set index outside the instance"),
        ({"total_weight": Fraction(99)}, "trace weight disagrees with the instance weights"),
    ])
    def test_trace_disagrees_with_instance(self, fields, message):
        inst = gen_class_cs(SequenceSpec((2, 1)))
        with pytest.raises(TraceMismatch, match=message):
            bound_report(inst, dataclasses.replace(greedy(inst), **fields))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 1000)), min_size=1,
                    max_size=12), st.data())
    def test_weight_check_equals_per_set_fractions(self, weights, data):
        # the trace weight check sums the integer weights over one denominator
        inst = make_instance(1, [((1,), Fraction(p, q)) for p, q in weights])
        chosen = data.draw(st.lists(st.integers(0, inst.n - 1), unique=True))
        assert cover_weight(inst, chosen) == sum((inst.sets[i].weight for i in chosen),
                                                 Fraction(0))

    def test_g_at_most_h_and_length(self):
        for seed in range(40):
            spec = RandomSpec(m=2 + seed % 9, n=2 + seed % 5, density=0.5,
                              weight_lo=Fraction(1), weight_hi=Fraction(9),
                              seed=seed ^ 0xBEEF)
            inst = gen_random(spec)
            trace = greedy(inst)
            g = g_of(trace)
            assert 1 <= g <= min(harmonic(inst.m), len(trace.chosen))


class TestSerialization:
    def test_kv_block(self):
        inst = gen_class_cs(SequenceSpec((2, 1)))
        rep = bound_report(inst, greedy(inst), exact_opt(inst).cover)
        kv = report_to_kv(rep)
        assert "G=5/3 (~1.666667)" in kv
        assert "Delta=1/6 (~0.166667)" in kv
        assert "H_m=11/6" in kv
        assert kv.count("\n") == 14

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(), st.integers(0, 10**9))
    def test_scalar_below_the_digit_limit_is_str(self, v, n):
        assert _scalar(v) == f"{v} (~{float(v):.6f})"
        assert _scalar(Fraction(n)) == f"{n} (~{n:.6f})"

    def test_scalar_past_the_digit_limit_is_exact_decimal(self):
        v = Fraction(-(10**5000) - 7, 3**11000)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the reference needs str() past the limit
        try:
            expected = f"{v.numerator}/{v.denominator} (~-0.000000)"
        finally:
            sys.set_int_max_str_digits(limit)
        assert _scalar(v) == expected

    def test_csv_two_lines(self):
        inst = make_instance(3, [((1, 2, 3), 5)])
        rep = bound_report(inst, greedy(inst))
        lines = report_to_csv(rep).strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("m,m_bar,m_of_s")


class TestChvatal:
    def test_chain_on_oracle_instances(self):
        # w(Gr)/w(Opt) <= H(m_tilde) <= H(m_bar) <= H(m)
        for seed in range(80):
            spec = RandomSpec(m=2 + seed % 8, n=2 + seed % 6, density=0.45,
                              weight_lo=Fraction(1, 2), weight_hi=Fraction(6),
                              seed=seed * 31)
            inst = gen_random(spec)
            trace = greedy(inst)
            opt = exact_opt(inst).cover
            rep = bound_report(inst, trace, opt)
            assert rep.ratio <= rep.H_m_tilde <= rep.H_m_bar <= rep.H_m

    def test_theorem_bound(self):
        for seed in range(80):
            spec = RandomSpec(m=2 + seed % 10, n=1 + seed % 7, density=0.35,
                              weight_lo=Fraction(1, 3), weight_hi=Fraction(5),
                              seed=seed * 7 + 1)
            inst = gen_random(spec)
            trace = greedy(inst)
            opt_w = exact_opt(inst).weight
            assert trace.total_weight / opt_w <= g_of(trace)


def test_slavik_formula_against_direct_eval():
    # ln10=2.302585..., lnln10=0.834032...
    t_l, t_u = slavik_bounds(10)
    assert t_l == pytest.approx(math.log(10) - math.log(math.log(10)) - 0.31)
    assert t_u == pytest.approx(math.log(10) - math.log(math.log(10)) + 0.78)
