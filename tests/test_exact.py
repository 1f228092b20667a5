import dataclasses
import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from setcoverlab import (
    RandomSpec,
    SequenceSpec,
    SolveBudget,
    exact_opt,
    gen_class_cs,
    gen_gf2,
    gen_random,
    greedy,
    is_cover,
    make_instance,
)
from setcoverlab import exact as exact_mod
from setcoverlab import lp as lp_mod
from setcoverlab.exact import (
    METHOD_BNB,
    METHOD_EXHAUSTIVE,
    STATUS_BUDGET,
    STATUS_OPTIMAL,
    result_to_kv,
)
from setcoverlab.errors import NonPositiveWeight
from setcoverlab.instance import parse_native, require_positive_weights, write_native

import seed_exact
from oracle import brute_lowest_mask_optimum, brute_optimum, brute_residual_optimum


def rnd(seed, m=None, n=None):
    return gen_random(RandomSpec(
        m=m or 2 + seed % 10, n=n or 1 + seed % 8, density=0.4,
        weight_lo=Fraction(1, 2), weight_hi=Fraction(6), seed=seed,
    ))


def weights_1_to_10(m, n, density, seed):
    return gen_random(RandomSpec(m=m, n=n, density=density, weight_lo=Fraction(1),
                                 weight_hi=Fraction(10), seed=seed))


def dual_values(inst, y):
    """The scaled root dual of exact._feasible_dual as Fractions per element."""
    ys, dy = exact_mod._feasible_dual(inst, y, *require_positive_weights(inst))
    return [Fraction(v, dy) for v in ys]


def highs_optimum(inst):
    """Independent optimum: HiGHS MILP on integer-scaled weights, gap 0."""
    ints, denom = require_positive_weights(inst)
    a = np.zeros((inst.m, inst.n))
    for i, entry in enumerate(inst.sets):
        for e in entry.elements:
            a[e - 1, i] = 1.0
    res = milp(np.array(ints, dtype=float), integrality=np.ones(inst.n),
               bounds=Bounds(0, 1), constraints=LinearConstraint(a, lb=1),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0
    return Fraction(sum(ints[i] for i in range(inst.n) if res.x[i] > 0.5), denom)


class TestExhaustive:
    def test_cs21(self):
        inst = gen_class_cs(SequenceSpec((2, 1)))
        res = exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))
        assert res.weight == Fraction(7, 2)
        assert res.cover.set_indices == (2,)
        assert res.status == STATUS_OPTIMAL

    def test_gf2_k2_needs_two_sets(self):
        res = exact_opt(gen_gf2(2), SolveBudget(method=METHOD_EXHAUSTIVE))
        assert res.weight == 2
        assert len(res.cover.set_indices) == 2

    def test_single_set(self):
        inst = make_instance(3, [((1, 2, 3), 5)])
        res = exact_opt(inst)
        assert res.weight == 5 and res.cover.set_indices == (0,)

    def test_matches_combinations_oracle(self):
        for seed in range(60):
            inst = rnd(seed)
            res = exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))
            w, _ = brute_optimum(inst)
            assert res.weight == w == brute_residual_optimum(inst, 0)

    def test_has_no_n_cap(self):
        inst = make_instance(1, [((1,), 1)] * 26)
        res = exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))
        assert (res.weight, res.status) == (1, STATUS_OPTIMAL)

    @pytest.mark.parametrize("n", [21, 22])
    def test_optimum_workload_sizes_match_highs(self, n):
        for seed in range(3):
            inst = weights_1_to_10(30, n, 0.2, seed)
            res = exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))
            assert res.status == STATUS_OPTIMAL
            assert res.weight == highs_optimum(inst)

    def test_ties_go_to_the_lowest_bitmask(self):
        # among equal-weight optimal covers, the one with the least sum(1 << i)
        unit = [gen_random(RandomSpec(m=2 + seed % 9, n=2 + seed % 11, density=0.4,
                                      weight_lo=Fraction(1), weight_hi=Fraction(1),
                                      seed=seed))
                for seed in range(60)]
        for inst in unit + [gen_gf2(3), gen_gf2(4)]:
            res = exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))
            assert (res.weight, res.cover.set_indices) == brute_lowest_mask_optimum(inst)

    def test_node_counts(self):
        # each cover is reached once, and a child that is not a cover at the
        # incumbent's weight is never pushed; the unit-weight instance has
        # such children
        unit = gen_random(RandomSpec(m=12, n=14, density=0.3, weight_lo=Fraction(1),
                                     weight_hi=Fraction(1), seed=1))
        for inst, expected in ((gen_gf2(4), (4, 1121, (0, 1, 3, 7))),
                               (unit, (3, 38, (0, 2, 4)))):
            res = exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))
            assert (res.weight, res.nodes, res.cover.set_indices) == expected
            assert res.bound_stats == {}

    def test_node_budget_exhausts(self):
        inst = rnd(9, m=10, n=14)
        res = exact_opt(inst, SolveBudget(node_limit=2, method=METHOD_EXHAUSTIVE))
        assert (res.status, res.nodes) == (STATUS_BUDGET, 2)
        assert is_cover(inst, res.cover.set_indices)
        assert res.weight == sum((inst.sets[i].weight for i in res.cover.set_indices),
                                 Fraction(0))
        assert res.weight >= brute_optimum(inst)[0]


class TestSolveBudget:
    @pytest.mark.parametrize("limits", [{"time_limit": math.nan}, {"time_limit": 0},
                                        {"time_limit": -1.0}, {"node_limit": 0}])
    def test_limits_must_be_positive(self, limits):
        with pytest.raises(ValueError, match="^budget limits must be positive$"):
            SolveBudget(**limits)

    def test_infinite_time_limit_is_no_limit(self):
        res = exact_opt(gen_gf2(3), SolveBudget(time_limit=math.inf, method=METHOD_EXHAUSTIVE))
        assert (res.status, res.weight) == (STATUS_OPTIMAL, 3)


class TestBranchAndBound:
    def test_agrees_with_exhaustive(self):
        for seed in range(120):
            inst = rnd(seed, m=2 + seed % 9, n=1 + seed % 15)
            a = exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))
            b = exact_opt(inst, SolveBudget(method=METHOD_BNB))
            assert a.weight == b.weight == brute_optimum(inst)[0]
            assert b.status == STATUS_OPTIMAL

    def test_cover_is_a_cover(self):
        for seed in range(30):
            inst = rnd(seed * 3 + 1)
            res = exact_opt(inst, SolveBudget(method=METHOD_BNB))
            assert is_cover(inst, res.cover.set_indices)
            assert res.weight == sum(
                (inst.sets[i].weight for i in res.cover.set_indices), Fraction(0))

    def test_node_budget_exhausts(self):
        inst = rnd(9, m=10, n=14)
        res = exact_opt(inst, SolveBudget(node_limit=2, method=METHOD_BNB))
        assert res.status == STATUS_BUDGET
        # incumbent is still a valid cover (greedy seed at worst)
        assert res.weight >= exact_opt(inst).weight

    def test_prune_stats_recorded(self):
        # the root dual is the only bound, and it counts only when it is used
        inst = gen_class_cs(SequenceSpec((2, 2, 2, 2)))
        plain = exact_opt(inst, SolveBudget(method=METHOD_BNB))
        with_lp = exact_opt(inst, SolveBudget(method=METHOD_BNB), use_lp_bound=True)
        assert plain.status == with_lp.status == STATUS_OPTIMAL
        assert plain.bound_stats == {"lp": 0}
        assert list(with_lp.bound_stats) == ["lp"] and with_lp.bound_stats["lp"] > 0

    def test_lp_bound_variant_agrees(self):
        for seed in (2, 11, 23):
            inst = rnd(seed, m=7, n=7)
            plain = exact_opt(inst, SolveBudget(method=METHOD_BNB))
            with_lp = exact_opt(inst, SolveBudget(method=METHOD_BNB),
                                use_lp_bound=True)
            assert plain.weight == with_lp.weight

    def test_gf2_4_node_count(self):
        res = exact_opt(gen_gf2(4), SolveBudget(method=METHOD_BNB))
        assert (res.weight, res.nodes, res.bound_stats) == (4, 57, {"lp": 0})

    @pytest.mark.parametrize("make, weight, nodes", [
        (lambda: gen_gf2(5), 5, 2001),
        (lambda: weights_1_to_10(40, 40, 0.1, 1), Fraction(52137, 1000), 90289)])
    def test_closes_without_the_lp_bound(self, make, weight, nodes):
        inst = make()
        res = exact_opt(inst, SolveBudget(method=METHOD_BNB))
        assert (res.status, res.weight, res.nodes) == (STATUS_OPTIMAL, weight, nodes)
        assert weight == highs_optimum(inst)

    def test_closes_gf2_6(self):
        # greedy's 6 sets are already optimal; an open child at weight 5 needs
        # one more set of weight at least 1, so it is never pushed
        res = exact_opt(gen_gf2(6), SolveBudget(method=METHOD_BNB, node_limit=300_000))
        assert (res.status, res.weight) == (STATUS_OPTIMAL, 6)


class TestRootDualBound:
    """B&B's LP bound: the root LP's dual, scaled down to exact feasibility."""

    @pytest.mark.parametrize("m, n, seed, optimum", [(40, 40, 1, Fraction(52137, 1000)),
                                                     (60, 60, 3, Fraction(46617, 1000))])
    def test_closes_mid_sized_random_at_highs_optimum(self, m, n, seed, optimum):
        inst = weights_1_to_10(m, n, 0.1, seed)
        res = exact_opt(inst, SolveBudget(method=METHOD_BNB), use_lp_bound=True)
        assert res.status == STATUS_OPTIMAL
        assert res.weight == optimum == highs_optimum(inst)

    @pytest.mark.parametrize("m, n, seed, nodes, prunes", [(40, 40, 1, 534, 717),
                                                           (60, 60, 3, 1343, 3671)])
    def test_children_the_dual_rules_out_are_never_pushed(self, m, n, seed, nodes, prunes):
        # a child the dual rules out is counted as a prune, not pushed and
        # visited as a node
        inst = weights_1_to_10(m, n, 0.1, seed)
        res = exact_opt(inst, SolveBudget(method=METHOD_BNB), use_lp_bound=True)
        assert (res.nodes, res.bound_stats["lp"]) == (nodes, prunes)

    def test_deadline_covers_the_root_lp(self):
        # an instance the search cannot close in 30 s
        inst = weights_1_to_10(100, 300, 0.05, 0)
        t0 = time.monotonic()
        res = exact_opt(inst, SolveBudget(method=METHOD_BNB, time_limit=2),
                        use_lp_bound=True)
        assert res.status == STATUS_BUDGET
        assert time.monotonic() - t0 < 2 + 1

    def test_root_lp_past_the_deadline_leaves_no_node(self, monkeypatch):
        real = lp_mod.solve_lp

        def slow(instance):
            time.sleep(0.2)
            return real(instance)

        monkeypatch.setattr(lp_mod, "solve_lp", slow)
        inst = rnd(9, m=10, n=14)
        res = exact_opt(inst, SolveBudget(method=METHOD_BNB, time_limit=0.1),
                        use_lp_bound=True)
        assert (res.status, res.nodes, res.weight) == (STATUS_BUDGET, 0, greedy(inst).total_weight)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(1, 7), seed=st.integers(0, 10**6))
    def test_scaled_dual_is_feasible_and_bounds_every_node(self, m, n, seed):
        inst = rnd(seed, m=m, n=n)
        with mock.patch.object(exact_mod, "_feasible_dual",
                               wraps=exact_mod._feasible_dual) as spy:
            res = exact_opt(inst, SolveBudget(method=METHOD_BNB), use_lp_bound=True)
        [call] = spy.call_args_list
        y = dual_values(*call.args[:2])
        assert min(y) >= 0
        for entry in inst.sets:
            assert sum((y[e - 1] for e in entry.elements), Fraction(0)) <= entry.weight
        # every covered mask, so every node either search can visit
        for covered in range(1 << inst.m):
            left = sum((y[e] for e in range(inst.m) if not covered >> e & 1), Fraction(0))
            assert left <= brute_residual_optimum(inst, covered)
        assert res.weight == brute_optimum(inst)[0]

    def test_negative_dual_entries_become_zero(self):
        inst = make_instance(2, [((1, 2), 2)])
        assert dual_values(inst, [-1.0, 3]) == [0, 2]

    @pytest.mark.parametrize("factor", [Fraction(3, 2), 1.5])
    def test_infeasible_root_dual_is_scaled_down(self, monkeypatch, factor):
        # a wrapper hands B&B the dual times 1.5, which overloads some set;
        # the float factor also turns the certified dual into floats
        real = lp_mod.solve_lp

        def inflated(instance):
            out = real(instance)
            return dataclasses.replace(out, y=tuple(v * factor for v in out.y))

        spy = mock.Mock(side_effect=inflated)
        monkeypatch.setattr(lp_mod, "solve_lp", spy)
        for seed in range(20):
            inst = rnd(seed, m=8, n=9)
            out = real(inst)
            y = inflated(inst).y
            assert any(sum(y[e - 1] for e in entry.elements) > entry.weight
                       for entry in inst.sets)
            if out.exact_objective is not None and isinstance(factor, Fraction):
                # an optimal dual loads some set fully, so scaling undoes 3/2
                assert dual_values(inst, y) == list(out.y)
            res = exact_opt(inst, SolveBudget(method=METHOD_BNB), use_lp_bound=True)
            assert res.weight == exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE)).weight
        assert spy.call_count == 20  # each search read the inflated dual

    def test_first_set_with_the_largest_load_per_weight_scales(self):
        # on y = 1, sets 1, 2 and 3 all have load / weight 2 (3 over 3/2, and
        # 2 over 1), so the first of them, set 1, sets the scale
        inst = make_instance(3, [((1,), 1), ((1, 2, 3), Fraction(3, 2)), ((2, 3), 1),
                                 ((1, 2), 1)])
        weights, dw = require_positive_weights(inst)
        ys, dy = exact_mod._feasible_dual(inst, [1, 1, 1], weights, dw)
        assert (ys, dy) == ([3, 3, 3], 6)
        assert (ys, dy) == seed_exact._feasible_dual(inst, [1, 1, 1], weights, dw)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_same_dual_as_the_frozen_walk(self, seed, data):
        # numerators and denominator both, over tuple-built and parsed instances
        inst = rnd(seed)
        values = st.one_of(st.fractions(min_value=-2, max_value=4, max_denominator=6),
                           st.sampled_from([0, 1, 2]),
                           st.floats(min_value=-1, max_value=3))
        y = data.draw(st.lists(values, min_size=inst.m, max_size=inst.m))
        args = (y, *require_positive_weights(inst))
        expected = seed_exact._feasible_dual(inst, *args)
        assert exact_mod._feasible_dual(inst, *args) == expected
        parsed = parse_native(write_native(inst))
        assert exact_mod._feasible_dual(parsed, *args) == expected
        assert "sets" not in vars(parsed)


class TestPlumbing:
    def test_auto_picks_exhaustive_for_small_n(self):
        # the exhaustive search reports no prune counters; branch-and-bound does
        inst = rnd(3, m=5, n=5)
        assert exact_opt(inst).bound_stats == {}  # auto
        assert exact_opt(inst, SolveBudget(method=METHOD_BNB)).bound_stats == {"lp": 0}

    def test_positive_weights_required(self):
        inst = make_instance(2, [((1,), 2), ((1, 2), 0), ((2,), 0)])
        with pytest.raises(NonPositiveWeight, match="^set 1 has non-positive weight 0$"):
            exact_opt(inst)

    def test_kv_serialization(self):
        inst = gen_class_cs(SequenceSpec((2, 1)))
        res = exact_opt(inst, SolveBudget(method=METHOD_BNB))
        kv = result_to_kv(res)
        assert "weight=7/2" in kv
        assert "status=proven-optimal" in kv

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SolveBudget(node_limit=0)
        with pytest.raises(ValueError):
            SolveBudget(method="magic")
