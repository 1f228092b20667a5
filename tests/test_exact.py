from fractions import Fraction

import pytest

from setcoverlab import (
    Cover,
    RandomSpec,
    SequenceSpec,
    SolveBudget,
    exact_opt,
    gen_class_cs,
    gen_gf2,
    gen_random,
    greedy,
    make_instance,
    verify_cover_optimal,
)
from setcoverlab.exact import (
    METHOD_BNB,
    METHOD_EXHAUSTIVE,
    STATUS_BUDGET,
    STATUS_OPTIMAL,
    _subinstance,
    result_to_kv,
)
from setcoverlab.errors import NonPositiveWeight, TooManySets, TooManySetsForExhaustive

from oracle import brute_optimum


def rnd(seed, m=None, n=None):
    return gen_random(RandomSpec(
        m=m or 2 + seed % 10, n=n or 1 + seed % 8, density=0.4,
        weight_lo=Fraction(1, 2), weight_hi=Fraction(6), seed=seed,
    ))


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
            assert res.weight == w

    def test_rejects_huge_n(self):
        inst = make_instance(1, [((1,), 1)] * 26)
        with pytest.raises(TooManySetsForExhaustive):
            exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))

    def test_dp_split_path(self):
        # n above the one-table DP width exercises the hi/lo product scan
        from setcoverlab.exact import _dp_scan
        from setcoverlab.instance import element_masks

        inst = rnd(5, m=6, n=8)
        masks = element_masks(inst)
        weights = [1] * 8
        full = (1 << 6) - 1
        wide = _dp_scan(masks, weights, full, lo_bits=20)
        narrow = _dp_scan(masks, weights, full, lo_bits=3)
        assert wide[0] == narrow[0]


class TestBranchAndBound:
    def test_agrees_with_exhaustive(self):
        for seed in range(120):
            inst = rnd(seed, m=2 + seed % 9, n=1 + seed % 15)
            a = exact_opt(inst, SolveBudget(method=METHOD_EXHAUSTIVE))
            b = exact_opt(inst, SolveBudget(method=METHOD_BNB))
            assert a.weight == b.weight
            assert b.status == STATUS_OPTIMAL

    def test_cover_is_a_cover(self):
        from setcoverlab import is_cover

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
        inst = gen_class_cs(SequenceSpec((2, 2, 2, 2)))
        res = exact_opt(inst, SolveBudget(method=METHOD_BNB))
        assert res.status == STATUS_OPTIMAL
        assert "greedy_g" in res.bound_stats

    def test_lp_bound_variant_agrees(self):
        for seed in (2, 11, 23):
            inst = rnd(seed, m=7, n=7)
            plain = exact_opt(inst, SolveBudget(method=METHOD_BNB))
            with_lp = exact_opt(inst, SolveBudget(method=METHOD_BNB),
                                use_lp_bound=True)
            assert plain.weight == with_lp.weight

    def test_node_bound_never_exceeds_residual_optimum(self):
        # audit: w(Gr_sub)/G(s_sub) <= w(Opt_sub) at sampled nodes
        for seed in (1, 4, 7, 13):
            inst = rnd(seed, m=8, n=9)
            res = exact_opt(inst, SolveBudget(method=METHOD_BNB),
                            sample_nodes=50)
            assert res.node_samples
            for sample in res.node_samples:
                sub = _subinstance(inst, sample.covered_mask)
                if sub is None:
                    assert sample.greedy_bound == 0
                    continue
                sub_opt = exact_opt(sub).weight
                assert sample.greedy_bound <= sub_opt

    def test_sampled_bounds_equal_eager_recomputation(self):
        # the lazy integer kernel gives the same residual bound, node by
        # node, as a plain eager greedy over Fraction ratios; the first three
        # instances tie ratios, the third at different counts
        tied = [gen_gf2(4), gen_class_cs(SequenceSpec((3, 2, 2, 1))),
                make_instance(4, [((1,), 1), ((2, 3), 2), ((1, 2, 3, 4), 4), ((4,), 1)])]
        for inst in tied + [gen_random(RandomSpec(m=12, n=14, density=0.3,
                                                  weight_lo=Fraction(1, 2),
                                                  weight_hi=Fraction(6), seed=seed))
                            for seed in (1, 4, 7, 13)]:
            res = exact_opt(inst, SolveBudget(method=METHOD_BNB),
                            sample_nodes=10**6)
            assert res.node_samples
            for sample in res.node_samples:
                assert sample.greedy_bound == eager_residual_bound(
                    inst, sample.covered_mask)

    def test_gf2_4_node_count(self):
        res = exact_opt(gen_gf2(4), SolveBudget(method=METHOD_BNB))
        assert (res.weight, res.nodes, res.bound_stats) == (4, 585, {"greedy_g": 512, "lp": 0})


def eager_residual_bound(inst, covered_mask):
    """w(Gr_sub)/G(s_sub) by re-rating every set on every step, plain sets."""
    remaining = {e for e in range(1, inst.m + 1) if not covered_mask >> (e - 1) & 1}
    total = Fraction(0)
    g = Fraction(0)
    while remaining:
        best = best_ratio = None
        for i, entry in enumerate(inst.sets):
            fresh = remaining.intersection(entry.elements)
            if fresh and (best is None or entry.weight / len(fresh) < best_ratio):
                best, best_ratio = i, entry.weight / len(fresh)
        fresh = remaining.intersection(inst.sets[best].elements)
        g += Fraction(len(fresh), len(remaining))
        total += inst.sets[best].weight
        remaining -= fresh
    return total / g if g else Fraction(0)


class TestVerify:
    def test_exact_opt_output_verifies(self):
        for seed in range(40):
            inst = rnd(seed)
            res = exact_opt(inst)
            assert verify_cover_optimal(inst, res.cover)

    def test_expensive_cover_fails(self):
        inst = gen_class_cs(SequenceSpec((2, 1)))
        blocks = Cover(set_indices=(0, 1), weight=Fraction(4))  # m+1 cover
        assert not verify_cover_optimal(inst, blocks)

    def test_single_set_cover_verifies(self):
        inst = make_instance(3, [((1, 2, 3), 5)])
        assert verify_cover_optimal(inst, Cover((0,), Fraction(5)))

    def test_rejects_huge_n(self):
        inst = make_instance(1, [((1,), 1)] * 26)
        with pytest.raises(TooManySets):
            verify_cover_optimal(inst, Cover((0,), Fraction(1)))


class TestPlumbing:
    def test_auto_picks_exhaustive_for_small_n(self):
        inst = rnd(3, m=5, n=5)
        res = exact_opt(inst)  # auto
        assert res.nodes == 1 << 5

    def test_positive_weights_required(self):
        inst = make_instance(2, [((1, 2), 0)])
        with pytest.raises(NonPositiveWeight):
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
