import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setcoverlab import (
    RandomSpec,
    SequenceSpec,
    TIE_LOWEST_INDEX,
    TIE_MAX_RESIDUAL,
    gen_class_cs,
    gen_gf2,
    gen_random,
    greedy,
    make_instance,
    replay_check,
    replay_diff,
    trace_to_csv,
)
from setcoverlab.errors import InvalidTrace, NonPositiveWeight
from setcoverlab.greedy import GreedyTrace, check_trace_shape

from oracle import brute_greedy_sequence


def cs21():
    return gen_class_cs(SequenceSpec((2, 1)), Fraction(1, 2))


class TestGreedyExamples:
    def test_cs21_hand_simulation(self):
        # step 1 ratios: 2/2=1, 2/1=2, (7/2)/3=7/6 -> first block wins
        trace = greedy(cs21())
        assert trace.chosen == (0, 1)
        assert trace.s == (2, 1)
        assert trace.residuals == (3, 1, 0)
        assert trace.ratios == (Fraction(1), Fraction(2))
        assert trace.total_weight == 4

    def test_single_set(self):
        inst = make_instance(3, [((1, 2, 3), 5)])
        trace = greedy(inst)
        assert trace.chosen == (0,)
        assert trace.s == (3,)
        assert trace.total_weight == 5

    def test_gf2_k2(self):
        trace = greedy(gen_gf2(2))
        assert trace.chosen == (0, 1)
        assert trace.s == (2, 1)
        assert trace.total_weight == 2  # w(Gr) = k

    def test_gf2_weight_is_k(self):
        for k in (2, 3, 4, 5):
            trace = greedy(gen_gf2(k))
            assert trace.total_weight == k
            assert trace.s == tuple(1 << (k - 1 - i) for i in range(k))

    def test_non_positive_weight_rejected(self):
        inst = make_instance(2, [((1,), 2), ((1, 2), 0), ((2,), 0)])
        with pytest.raises(NonPositiveWeight, match="^set 1 has non-positive weight 0$"):
            greedy(inst)


class TestTieBreak:
    def test_lowest_index_default(self):
        # two identical sets: lowest index wins
        inst = make_instance(2, [((1, 2), 1), ((1, 2), 1)])
        assert greedy(inst).chosen == (0,)

    def test_max_residual_prefers_bigger_set(self):
        # ratios tie at 1; max-size policy takes the 2-element set
        inst = make_instance(3, [((1,), 1), ((2, 3), 2), ((1, 2, 3), 10)])
        assert greedy(inst, tie=TIE_LOWEST_INDEX).chosen[0] == 0
        assert greedy(inst, tie=TIE_MAX_RESIDUAL).chosen[0] == 1

    def test_unknown_tie_policy(self):
        with pytest.raises(ValueError, match="unknown tie policy"):
            greedy(cs21(), tie="bogus")

    def test_determinism(self):
        spec = RandomSpec(m=9, n=7, density=0.4, weight_lo=Fraction(1),
                          weight_hi=Fraction(5), seed=11)
        inst = gen_random(spec)
        assert greedy(inst) == greedy(inst)


class TestTraceInvariants:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fuzzed_telescoping(self, seed):
        spec = RandomSpec(m=1 + seed % 10, n=1 + (seed // 7) % 8,
                          density=0.35, weight_lo=Fraction(1, 3),
                          weight_hi=Fraction(5), seed=seed)
        inst = gen_random(spec)
        trace = greedy(inst)
        assert sum(trace.s) == inst.m
        assert trace.residuals[0] == inst.m and trace.residuals[-1] == 0
        for k, sk in enumerate(trace.s):
            assert sk >= 1
            assert trace.residuals[k + 1] == trace.residuals[k] - sk
        assert len(set(trace.chosen)) == len(trace.chosen)
        assert trace.total_weight == sum(
            (inst.sets[i].weight for i in trace.chosen), Fraction(0))

    def test_chosen_ratio_is_minimal(self):
        # at every step, replaying residuals must show ratio(chosen) <= others
        spec = RandomSpec(m=8, n=6, density=0.4, weight_lo=Fraction(1),
                          weight_hi=Fraction(4), seed=3)
        inst = gen_random(spec)
        trace = greedy(inst)
        remaining = set(range(1, inst.m + 1))
        for step, chosen_idx in enumerate(trace.chosen):
            for i, entry in enumerate(inst.sets):
                fresh = remaining.intersection(entry.elements)
                if fresh:
                    assert trace.ratios[step] <= entry.weight / len(fresh)
            remaining -= set(inst.sets[chosen_idx].elements)

    def test_matches_plain_set_oracle(self):
        for seed in range(40):
            spec = RandomSpec(m=3 + seed % 9, n=2 + seed % 7, density=0.45,
                              weight_lo=Fraction(1), weight_hi=Fraction(6),
                              seed=seed)
            inst = gen_random(spec)
            chosen, s, total = brute_greedy_sequence(inst)
            trace = greedy(inst)
            assert trace.chosen == chosen
            assert trace.s == s
            assert trace.total_weight == total


class TestReplayCheck:
    def test_replay_of_fresh_trace(self):
        inst = cs21()
        assert replay_check(inst, greedy(inst))

    def test_tampered_s(self):
        inst = cs21()
        t = greedy(inst)
        bad = GreedyTrace(chosen=t.chosen, s=(1, 2), residuals=(3, 2, 0),
                          ratios=t.ratios, total_weight=t.total_weight,
                          tie=t.tie)
        assert not replay_check(inst, bad)
        assert "iteration 0" in replay_diff(inst, bad)

    def test_non_telescoping_residuals(self):
        inst = cs21()
        t = greedy(inst)
        bad = GreedyTrace(chosen=t.chosen, s=t.s, residuals=(3, 2, 0),
                          ratios=t.ratios, total_weight=t.total_weight,
                          tie=t.tie)
        assert not replay_check(inst, bad)
        assert "telescope" in replay_diff(inst, bad)

    # cs21's greedy trace is chosen (0, 1), s (2, 1), residuals (3, 1, 0)
    @pytest.mark.parametrize("fields, message", [
        ({"s": (2,)}, "trace field lengths disagree"),
        ({"chosen": (), "s": (), "ratios": (), "residuals": (3,)}, "empty trace"),
        ({"chosen": (0, 0)}, "chosen set indices repeat"),
        ({"s": (3, 0), "residuals": (3, 0, 0)}, "s_2 = 0 < 1"),
        ({"residuals": (4, 2, 1)}, "trace does not end with an empty residual"),
    ])
    def test_malformed_trace(self, fields, message):
        inst = cs21()
        bad = dataclasses.replace(greedy(inst), **fields)
        with pytest.raises(InvalidTrace, match=message):
            check_trace_shape(bad)
        assert replay_diff(inst, bad) == f"malformed trace: {message}"

    @pytest.mark.parametrize("fields, message", [
        ({"chosen": (0,), "s": (2,), "residuals": (2, 0), "ratios": (Fraction(1),)},
         "trace starts at m=2, instance has m=3"),
        # a shorter trace diverges at a step, not by its length
        ({"chosen": (2,), "s": (3,), "residuals": (3, 0), "ratios": (Fraction(7, 6),)},
         "iteration 0: trace chose set 2, greedy chooses 0"),
        ({"ratios": (Fraction(1), Fraction(3))}, "iteration 1: ratio 3 != 2"),
        ({"total_weight": Fraction(5)}, "total weight 5 != 4"),
    ])
    def test_first_divergence(self, fields, message):
        inst = cs21()
        assert replay_diff(inst, dataclasses.replace(greedy(inst), **fields)) == message

    def test_wrong_tie_policy_detected(self):
        inst = make_instance(3, [((1,), 1), ((2, 3), 2), ((1, 2, 3), 10)])
        t = greedy(inst, tie=TIE_MAX_RESIDUAL)
        relabeled = GreedyTrace(chosen=t.chosen, s=t.s, residuals=t.residuals,
                                ratios=t.ratios, total_weight=t.total_weight,
                                tie=TIE_LOWEST_INDEX)
        assert not replay_check(inst, relabeled)


class TestCsv:
    def test_columns_and_rows(self):
        text = trace_to_csv(greedy(cs21()))
        lines = text.strip().splitlines()
        assert lines[0] == "iter,set_index,s_k,m_k,ratio,cumulative_weight"
        assert lines[1] == "0,0,2,1,1,2"
        assert lines[2] == "1,1,1,0,2,4"


@st.composite
def tie_heavy_instances(draw):
    """Small instances whose ratios collide: few weights, few set sizes, repeats."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    weights = st.sampled_from((Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                               Fraction(3, 2), Fraction(5, 2), Fraction(2, 3)))
    sets = [(tuple(draw(st.sets(st.integers(1, m), min_size=1, max_size=4))),
             draw(weights)) for _ in range(n)]
    if draw(st.booleans()):
        sets.append(draw(st.sampled_from(sets)))  # an exact duplicate set
    sets.append((tuple(range(1, m + 1)), draw(weights) * m))
    return make_instance(m, draw(st.permutations(sets)))


class TestKernelEquivalence:
    # gf2(4) and cs(3,2,2,1) tie ratios, which each policy must break its own way
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_instances(), st.sampled_from((TIE_LOWEST_INDEX, TIE_MAX_RESIDUAL)))
    @example(gen_gf2(4), TIE_LOWEST_INDEX)
    @example(gen_gf2(4), TIE_MAX_RESIDUAL)
    @example(gen_class_cs(SequenceSpec((3, 2, 2, 1))), TIE_LOWEST_INDEX)
    @example(gen_class_cs(SequenceSpec((3, 2, 2, 1))), TIE_MAX_RESIDUAL)
    def test_matches_oracle_under_both_policies(self, inst, tie):
        chosen, s, total = brute_greedy_sequence(inst, tie=tie)
        trace = greedy(inst, tie=tie)
        assert (trace.chosen, trace.s, trace.total_weight) == (chosen, s, total)
        assert trace.ratios == tuple(
            inst.sets[k].weight / sk for k, sk in zip(chosen, s))

    def test_policies_differ_on_a_tie(self):
        inst = make_instance(4, [((1,), 1), ((2, 3), 2), ((1, 2, 3, 4), 40), ((4,), 9)])
        assert brute_greedy_sequence(inst)[0] == greedy(inst).chosen == (0, 1, 3)
        assert brute_greedy_sequence(inst, tie=TIE_MAX_RESIDUAL)[0] \
            == greedy(inst, tie=TIE_MAX_RESIDUAL).chosen == (1, 0, 3)

    def test_close_ratios_are_ordered_exactly(self):
        # 21/20 < 20/19 differ by 1/380: a key scale of m = 40 would tie them
        # and hand the pick to the lower index
        inst = make_instance(40, [(range(21, 40), 20), (range(1, 21), 21),
                                  ((40,), 1), (range(1, 41), 1000)])
        assert greedy(inst).chosen == (2, 1, 0)

    def test_large_weights_and_universe(self):
        # ratios differing by far less than any float resolution
        m = 300
        sets = [(tuple(range(1, m + 1)), Fraction(10**12 * m + 1, 7))]
        sets += [((e,), Fraction(10**12, 7)) for e in range(1, m + 1)]
        trace = greedy(make_instance(m, sets))
        assert trace.chosen == tuple(range(1, m + 1))
        assert trace.total_weight == Fraction(10**12 * m, 7)
