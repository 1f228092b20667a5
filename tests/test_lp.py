from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from setcoverlab import (
    RandomSpec,
    SequenceSpec,
    check_fractional_cover,
    exact_opt,
    gen_class_cs,
    gen_gf2,
    gen_random,
    greedy,
    integrality_gap,
    make_instance,
    r_estimate,
    solve_lp,
    write_lp_format,
)
from setcoverlab.errors import LengthMismatch, NonOptimalLp, NonPositiveWeight
from setcoverlab import lp as lp_mod
from setcoverlab.lp import (
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    solution_to_csv,
)


def scipy_objective(instance):
    """Independent LP oracle (HiGHS via scipy)."""
    a = np.zeros((instance.m, instance.n))
    for i, entry in enumerate(instance.sets):
        for e in entry.elements:
            a[e - 1, i] = 1.0
    w = [float(e.weight) for e in instance.sets]
    res = linprog(c=w, A_ub=-a, b_ub=-np.ones(instance.m), method="highs")
    assert res.status == 0
    return res.fun


def rnd(seed, m=None, n=None):
    return gen_random(RandomSpec(
        m=m or 2 + seed % 9, n=n or 1 + seed % 7, density=0.4,
        weight_lo=Fraction(1, 2), weight_hi=Fraction(6), seed=seed,
    ))


class TestSolveExamples:
    def test_single_set(self):
        inst = make_instance(3, [((1, 2, 3), 5)])
        out = solve_lp(inst)
        assert out.status == STATUS_OPTIMAL
        assert out.exact_objective == 5
        assert out.exact_x == (Fraction(1),)

    def test_gf2_k2_duality_certificate(self):
        # dual y = (1/2, 1/2, 1/2) loads every set at exactly 1 -> opt 3/2
        out = solve_lp(gen_gf2(2))
        assert out.status == STATUS_OPTIMAL
        assert out.exact_objective == Fraction(3, 2)

    def test_cs21_parametrization(self):
        # mixing the blocks against A costs 4 - x_A/2, so x_A = 1 wins
        out = solve_lp(gen_class_cs(SequenceSpec((2, 1))))
        assert out.exact_objective == Fraction(7, 2)

    def test_gf2_family_objective(self):
        for k in range(2, 7):
            inst = gen_gf2(k)
            out = solve_lp(inst)
            bound = 2 * inst.m / (inst.m + 1)
            assert out.status == STATUS_OPTIMAL
            assert out.objective <= bound + 1e-9
            # uniform cover is optimal here, so equality within tol
            assert out.objective == pytest.approx(bound, abs=1e-7)
            assert out.exact_objective == Fraction(2 ** k - 1, 2 ** (k - 1))

    @pytest.mark.slow
    def test_gf2_family_objective_up_to_k10(self):
        # the large instances need the periodic refactorization to stay
        # within tolerance after thousands of dense pivots
        for k in (7, 8, 9, 10):
            inst = gen_gf2(k)
            out = solve_lp(inst)
            bound = 2 * inst.m / (inst.m + 1)
            assert out.status == STATUS_OPTIMAL
            assert out.objective <= bound + 1e-9
            if k <= 9:  # gf2(10) exceeds EXACT_CHECK_LIMIT
                assert out.exact_objective == Fraction(2 ** k - 1, 2 ** (k - 1))

    def test_outcome_cover_passes_check(self):
        for seed in range(25):
            inst = rnd(seed)
            out = solve_lp(inst)
            assert check_fractional_cover(inst, out.cover.x, tol=out.tol)

    def test_positive_weights_required(self):
        inst = make_instance(2, [((1, 2), 0)])
        with pytest.raises(NonPositiveWeight):
            solve_lp(inst)


class TestAgainstScipy:
    def test_random_instances(self):
        for seed in range(60):
            inst = rnd(seed)
            out = solve_lp(inst)
            assert out.status == STATUS_OPTIMAL
            assert out.objective == pytest.approx(scipy_objective(inst), abs=1e-6)

    def test_wider_instances(self):
        for seed in range(10):
            inst = rnd(seed, m=12, n=20)
            out = solve_lp(inst)
            assert out.objective == pytest.approx(scipy_objective(inst), abs=1e-6)

    def test_basis_certificate_matches_snapped_one(self, monkeypatch):
        # force the exact basis solve, which reads the element incidence
        snapped = [solve_lp(gen_gf2(k)).exact_objective for k in (2, 3, 4)]
        snapped += [solve_lp(rnd(seed, m=12, n=20)).exact_objective for seed in range(6)]
        monkeypatch.setattr(lp_mod, "_certify", lambda instance, x, y: None)
        again = [solve_lp(gen_gf2(k)).exact_objective for k in (2, 3, 4)]
        again += [solve_lp(rnd(seed, m=12, n=20)).exact_objective for seed in range(6)]
        assert None not in snapped and again == snapped


class TestRelaxationProperties:
    def test_lp_below_integral_optimum(self):
        for seed in range(50):
            inst = rnd(seed)
            out = solve_lp(inst)
            opt = exact_opt(inst).weight
            assert out.objective <= float(opt) + 1e-9

    def test_lp_below_any_indicator(self):
        for seed in range(20):
            inst = rnd(seed)
            out = solve_lp(inst)
            ones = [1] * inst.n
            assert check_fractional_cover(inst, ones)
            total = float(sum(e.weight for e in inst.sets))
            assert out.objective <= total + 1e-9

    def test_lp_below_uniform_gf2_cover(self):
        for k in (2, 3, 4):
            inst = gen_gf2(k)
            x = [Fraction(2, inst.m + 1)] * inst.n
            assert check_fractional_cover(inst, x)
            out = solve_lp(inst)
            assert out.objective <= float(sum(x)) + 1e-9


class TestFractionalCoverCheck:
    def test_uniform_gf2(self):
        inst = gen_gf2(2)
        assert check_fractional_cover(inst, [Fraction(1, 2)] * 3, tol=0)

    def test_all_zeros(self):
        assert not check_fractional_cover(gen_gf2(2), [0, 0, 0])

    def test_integral_cover_indicator(self):
        inst = gen_gf2(2)
        assert check_fractional_cover(inst, [1, 1, 0])

    def test_nonnegativity(self):
        inst = gen_gf2(2)
        assert not check_fractional_cover(inst, [1, 1, -0.5])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            check_fractional_cover(gen_gf2(2), [1, 1])


class TestEstimates:
    def test_r_cs21(self):
        inst = gen_class_cs(SequenceSpec((2, 1)))
        r = r_estimate(greedy(inst), solve_lp(inst))
        assert r == Fraction(8, 7)

    def test_r_gf2_k2(self):
        inst = gen_gf2(2)
        assert r_estimate(greedy(inst), solve_lp(inst)) == Fraction(4, 3)

    def test_r_gf2_k5_above_published_bound(self):
        inst = gen_gf2(5)
        r = r_estimate(greedy(inst), solve_lp(inst))
        assert float(r) >= 2.58

    def test_ig_gf2_k2(self):
        inst = gen_gf2(2)
        ig = integrality_gap(exact_opt(inst).weight, solve_lp(inst))
        assert ig == Fraction(4, 3)

    def test_ig_single_set(self):
        inst = make_instance(3, [((1, 2, 3), 5)])
        assert integrality_gap(Fraction(5), solve_lp(inst)) == 1

    def test_non_optimal_rejected(self):
        inst = gen_gf2(3)
        out = solve_lp(inst, max_iterations=0)
        assert out.status == STATUS_ITERATION_LIMIT
        with pytest.raises(NonOptimalLp):
            r_estimate(greedy(inst), out)
        with pytest.raises(NonOptimalLp):
            integrality_gap(Fraction(3), out)


class TestSerialization:
    def test_csv(self):
        out = solve_lp(make_instance(3, [((1, 2, 3), 5)]))
        text = solution_to_csv(out)
        assert text.splitlines()[0] == "set_index,x"
        assert text.splitlines()[1] == "0,1"

    def test_lp_format_export(self):
        inst = gen_class_cs(SequenceSpec((2, 1)))
        text = write_lp_format(inst)
        assert "Minimize" in text and "Subject To" in text and "End" in text
        assert " e1: x0 + x2 >= 1" in text
        assert " e3: x1 + x2 >= 1" in text
        assert "3.5 x2" in text

    def test_lp_format_golden_bytes(self):
        inst = make_instance(4, [((1, 2), Fraction(7, 2)), ((2, 3, 4), 2),
                                 ((1, 4), Fraction(1, 3)), ((3,), 5),
                                 ((2,), Fraction(10, 7))])
        assert write_lp_format(inst) == (
            "Minimize\n"
            " obj: 3.5 x0 + 2 x1 + 0.333333333333 x2 + 5 x3 + 1.42857142857 x4\n"
            "Subject To\n"
            " e1: x0 + x2 >= 1\n"
            " e2: x0 + x1 + x4 >= 1\n"
            " e3: x1 + x3 >= 1\n"
            " e4: x1 + x2 >= 1\n"
            "Bounds\n"
            " 0 <= x0\n 0 <= x1\n 0 <= x2\n 0 <= x3\n 0 <= x4\n"
            "End\n"
        )

    def test_lp_format_feeds_scipy_equivalent(self):
        # cross-check: the exported program is the one scipy solves
        inst = rnd(17)
        out = solve_lp(inst)
        assert out.objective == pytest.approx(scipy_objective(inst), abs=1e-6)
