import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import seed_lp
from oracle import brute_weak_duality, greedy_lp_slack

from setcoverlab import (
    TIE_LOWEST_INDEX,
    TIE_MAX_RESIDUAL,
    LpOutcome,
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
from setcoverlab.errors import LengthMismatch, NonOptimalLp, NonPositiveWeight, NumericalFailure
from setcoverlab.instance import parse_native, write_native
from setcoverlab import lp as lp_mod
from setcoverlab.lp import (
    DEFAULT_TOL,
    RATIONALIZE_DENOM,
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
            assert_r_at_most_g(inst, out.exact_objective)

    @pytest.mark.slow
    def test_gf2_family_objective_up_to_k10(self):
        # thousands of dense pivots; the drifted vertex certifies, so no refactorization
        for k in (7, 8, 9, 10):
            inst = gen_gf2(k)
            out = solve_lp(inst)
            bound = 2 * inst.m / (inst.m + 1)
            assert out.status == STATUS_OPTIMAL
            assert out.objective <= bound + 1e-9
            assert out.exact_objective == Fraction(2 ** k - 1, 2 ** (k - 1))
            assert_r_at_most_g(inst, out.exact_objective)

    def test_outcome_cover_passes_check(self):
        for seed in range(25):
            inst = rnd(seed)
            out = solve_lp(inst)
            assert check_fractional_cover(inst, out.x, tol=DEFAULT_TOL)

    def test_positive_weights_required(self):
        inst = make_instance(2, [((1,), 2), ((1, 2), 0), ((2,), 0)])
        with pytest.raises(NonPositiveWeight, match="^set 1 has non-positive weight 0$"):
            solve_lp(inst)

    def test_float_weights_are_those_of_the_fractions(self):
        # a common denominator of 10**400 over numerators up to 10**700; the
        # halfway cases round to even, and 1/10**400 underflows to 0.0
        weights = [Fraction(1, 10**400), Fraction(10**300), Fraction(1, 3),
                   Fraction(2**53 + 1), Fraction(2**54 + 3, 2), 10**300 + Fraction(1, 7),
                   Fraction(2**1024 - 2**970 - 1)]
        for made in (make_instance(1, [((1,), w) for w in weights]),
                     parse_native(write_native(make_instance(1, [((1,), w) for w in weights])))):
            floats = lp_mod._float_weights(made)
            assert [f.hex() for f in floats] == [float(e.weight).hex() for e in made.sets]

    def test_a_weight_past_the_float_range_is_named(self):
        inst = make_instance(2, [((1,), 1), ((2,), Fraction(1, 10**400)), ((1, 2), 2**1024),
                                 ((1, 2), 10**400)])
        with pytest.raises(NumericalFailure,
                           match="^set 2 has a weight beyond the float range$"):
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
        # force the fallback, the exact solve of the final basis core
        snapped = [solve_lp(gen_gf2(k)).exact_objective for k in (2, 3, 4)]
        snapped += [solve_lp(rnd(seed, m=12, n=20)).exact_objective for seed in range(6)]
        monkeypatch.setattr(lp_mod, "_snap", lambda values: [Fraction(-1)] * len(values))
        again = [solve_lp(gen_gf2(k)).exact_objective for k in (2, 3, 4)]
        again += [solve_lp(rnd(seed, m=12, n=20)).exact_objective for seed in range(6)]
        assert None not in snapped and again == snapped


def solver_pairs(instance):
    """solve_lp's outcome and every (x, y) pair it handed to certify_pair."""
    with mock.patch.object(lp_mod, "certify_pair", wraps=lp_mod.certify_pair) as spy:
        out = solve_lp(instance)
    return out, [(list(call.args[1]), list(call.args[2])) for call in spy.call_args_list]


def unit_perturbations(x, y):
    """Pairs one unit (1/dx or 1/dy, the common denominators) off (x, y).

    Each entry of x and y in turn moves one unit down, one unit up, or to
    minus one unit: an element covered one unit short, a set loaded one
    unit beyond its weight, objectives one unit apart, a negative entry.
    """
    for vec, other, first in ((x, y, True), (y, x, False)):
        unit = Fraction(1, math.lcm(*(v.denominator for v in vec)))
        for i, v in enumerate(vec):
            for moved in (v - unit, v + unit, -unit):
                changed = vec[:i] + [moved] + vec[i + 1:]
                yield (changed, other) if first else (other, changed)


def assert_check_agrees(instance, x, y):
    expected = brute_weak_duality(instance, x, y)
    assert lp_mod.certify_pair(instance, x, y) == (
        None if expected is None else (tuple(x), expected))
    return expected


@st.composite
def small_instances(draw):
    """Covering instances with m, n <= 6 and weights of varied denominators."""
    m = draw(st.integers(1, 6))
    sets = [draw(st.frozensets(st.integers(1, m), min_size=1))
            for _ in range(draw(st.integers(1, 6)))]
    sets[0] |= set(range(1, m + 1)).difference(*sets)
    weights = [Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 7))) for _ in sets]
    return make_instance(m, list(zip(sets, weights)))


class TestCertificateCheck:
    """The integer weak-duality check against the plain-Fraction oracle."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), inst=small_instances())
    def test_random_pairs(self, data, inst):
        rationals = st.fractions(min_value=-1, max_value=3, max_denominator=12)
        x = data.draw(st.lists(rationals, min_size=inst.n, max_size=inst.n))
        y = data.draw(st.lists(rationals, min_size=inst.m, max_size=inst.m))
        assert_check_agrees(inst, x, y)

    @settings(max_examples=100, deadline=None)
    @given(inst=small_instances())
    def test_solver_pairs_and_unit_perturbations(self, inst):
        _, pairs = solver_pairs(inst)
        assert pairs
        for x, y in pairs:
            assert_check_agrees(inst, x, y)
            for px, py in unit_perturbations(x, y):
                assert_check_agrees(inst, px, py)

    @pytest.mark.parametrize("inst", [gen_class_cs(SequenceSpec((2, 1))), rnd(5, m=12, n=20)],
                             ids=["cs21", "rnd5"])
    def test_pinned_pairs(self, inst):
        out, pairs = solver_pairs(inst)
        x, y = pairs[-1]  # the pair that certified
        assert out.exact_objective is not None
        assert assert_check_agrees(inst, x, y) == out.exact_objective
        for px, py in unit_perturbations(x, y):
            assert_check_agrees(inst, px, py)

    @pytest.mark.parametrize("snapping", [True, False], ids=["snapped", "basis"])
    def test_outcome_keeps_the_pair_that_certified(self, monkeypatch, snapping):
        if not snapping:
            monkeypatch.setattr(lp_mod, "_snap", lambda values: [Fraction(-1)] * len(values))
        inst = rnd(5, m=12, n=20)
        out, pairs = solver_pairs(inst)
        x, y = pairs[-1]
        assert (out.exact_x, out.y) == (tuple(x), tuple(y))
        assert out.exact_objective is not None
        assert brute_weak_duality(inst, x, y) == out.exact_objective

    def test_tight_gf2_pair_rejects_every_unit_perturbation(self):
        # every element's load is exactly 1 and every set's dual load exactly
        # its weight, so each one-unit move breaks a constraint or equality
        inst = gen_gf2(3)
        _, [(x, y)] = solver_pairs(inst)
        assert assert_check_agrees(inst, x, y) == Fraction(7, 4)
        for px, py in unit_perturbations(x, y):
            assert assert_check_agrees(inst, px, py) is None

    @pytest.mark.parametrize("d", [2, 7, 10**9 + 7])
    def test_pairs_failing_one_condition_by_one_unit(self, d):
        # x = (1, 1, 0) and y = (1, 1) certify 2; each pair below breaks
        # exactly one condition, by one unit 1/d, while both objectives stay
        # at 2 (but for the last, whose objectives are 2u apart)
        inst = make_instance(2, [((1,), 1), ((2,), 1), ((1, 2), 2)])
        one = make_instance(2, [((1, 2), 1)])
        u = Fraction(1, d)
        assert assert_check_agrees(inst, [1, 1, 0], [1, 1]) == 2
        for case, x, y in [
            (inst, [1 - u, 1 + u, 0], [1, 1]),  # element 1 covered one unit short
            (inst, [1, 1, 0], [1 + u, 1 - u]),  # set {1} loaded one unit beyond 1
            (inst, [1 + u, 1 + u, -u], [1, 1]),  # a negative x entry
            (one, [1], [1 + u, -u]),  # a negative y entry
            (inst, [1, 1, u], [1, 1]),  # feasible, objectives apart
        ]:
            x, y = list(map(Fraction, x)), list(map(Fraction, y))
            assert assert_check_agrees(case, x, y) is None

    def test_snapping_certifies_non_dyadic_optimum(self, monkeypatch):
        # weights on a 1/1000 grid: a snapping limit of 10**12 fitted the
        # float noise here and left the certificate to the fallback
        inst = gen_random(RandomSpec(m=40, n=29, density=5 / 29, weight_lo=Fraction(1),
                                     weight_hi=Fraction(10), seed=0))
        monkeypatch.setattr(lp_mod, "_snap", lambda values: [Fraction(-1)] * len(values))
        by_basis = solve_lp(inst)
        monkeypatch.undo()

        def no_fallback(d, basis, nonbasic, weights, dw):
            raise AssertionError("snapping did not certify")

        monkeypatch.setattr(lp_mod, "_core_pair", no_fallback)
        out = solve_lp(inst)
        assert out.exact_objective == by_basis.exact_objective == Fraction(35411, 1000)
        assert out.exact_x == by_basis.exact_x
        assert out.objective == pytest.approx(scipy_objective(inst), abs=1e-6)


class TestCertifyAgainstFrozen:
    """certify_pair's bulk sums against the frozen walk over holders and sets."""

    @staticmethod
    def assert_same_answers(inst):
        parsed = parse_native(write_native(inst))
        _, pairs = solver_pairs(inst)
        assert pairs
        for x, y in pairs:
            for px, py in [(x, y), *unit_perturbations(x, y)]:
                expected = seed_lp.certify_pair(inst, px, py)
                assert lp_mod.certify_pair(inst, px, py) == expected
                assert lp_mod.certify_pair(parsed, px, py) == expected
        assert "sets" not in vars(parsed) and "_holders" not in vars(parsed)

    @settings(max_examples=100, deadline=None)
    @given(inst=small_instances())
    def test_solver_pairs_and_unit_perturbations(self, inst):
        self.assert_same_answers(inst)

    @pytest.mark.parametrize("inst", [gen_gf2(4), gen_class_cs(SequenceSpec((3, 1, 2))),
                                      rnd(5, m=12, n=20)], ids=["gf2_4", "cs312", "rnd5"])
    def test_pinned_instances(self, inst):
        self.assert_same_answers(inst)

    @pytest.mark.parametrize("inst", [gen_gf2(5), rnd(5, m=12, n=20)], ids=["gf2_5", "rnd5"])
    def test_solve_on_a_parsed_instance_builds_no_sets_or_holders(self, inst):
        parsed = parse_native(write_native(inst))
        out = solve_lp(parsed)
        assert out.exact_objective is not None and out == solve_lp(inst)
        assert write_native(parsed) == write_native(inst)
        assert "sets" not in vars(parsed) and "_holders" not in vars(parsed)
        assert "_masks" not in vars(parsed)


@st.composite
def near_rationals(draw):
    """p/q, for q small, near 10**7 or up to 10**9, times 1 plus a little noise."""
    q = draw(st.one_of(st.integers(1, 60), st.integers(10**7 - 2000, 10**7 + 2000),
                       st.integers(1, 10**9)))
    p = draw(st.integers(-50 * q, 50 * q))
    noise = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-16, -1e-16, 3e-10]))
    return p / q * (1 + noise)


SNAP_VALUES = st.one_of(
    near_rationals(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-320,
                     1.7976931348623157e308, -1e300, 2.0**53 + 2, 1e7 + 0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


class TestSnap:
    @settings(max_examples=600, deadline=None)
    @given(values=st.lists(SNAP_VALUES, min_size=1, max_size=8))
    def test_the_value_of_limit_denominator(self, values):
        snapped = lp_mod._snap(values)
        assert snapped == [Fraction(v).limit_denominator(RATIONALIZE_DENOM) for v in values]
        assert snapped == seed_lp._snap(values)
        assert all(type(v) is Fraction for v in snapped)

    def test_noisy_small_rationals_need_no_limit_denominator(self, monkeypatch):
        def refuse(self, max_denominator=10**6):
            raise AssertionError("limit_denominator ran")

        values = [1 / 3 * (1 + 1e-13), -2 / 7, 0.0, -0.0, 0.1, 5e-324, 1e300, 355 / 113]
        expected = [Fraction(1, 3), Fraction(-2, 7), 0, 0, Fraction(1, 10), 0, Fraction(1e300),
                    Fraction(355, 113)]
        monkeypatch.setattr(Fraction, "limit_denominator", refuse)
        assert lp_mod._snap(values) == expected

    @pytest.mark.parametrize("value, error", [(math.inf, OverflowError),
                                              (-math.inf, OverflowError),
                                              (math.nan, ValueError)])
    def test_non_finite_values_raise_as_fraction_does(self, value, error):
        with pytest.raises(error):
            seed_lp._snap([value])
        with pytest.raises(error):
            lp_mod._snap([value])


def random_lp(m, n, density, seed, weight_hi=10):
    return gen_random(RandomSpec(m=m, n=n, density=density, weight_lo=Fraction(1),
                                 weight_hi=Fraction(weight_hi), seed=seed))


def assert_r_at_most_g(instance, lp_objective):
    for tie in (TIE_LOWEST_INDEX, TIE_MAX_RESIDUAL):
        assert greedy_lp_slack(instance, lp_objective, tie) >= 0


def wide_lp(m, seed):
    """m elements, 10m sets of 8 drawn elements (fewer after repeats) with
    weights 1..10, and one weight-100 singleton per element."""
    rng = np.random.default_rng(seed)
    sets = [(rng.integers(1, m + 1, 8).tolist(), int(rng.integers(1, 11))) for _ in range(10 * m)]
    return make_instance(m, sets + [([e], 100) for e in range(1, m + 1)])


class TestDeterminantFallback:
    """The final basis's core, solved exactly over det C, certifies where
    snapping cannot."""

    @pytest.mark.parametrize("shape, objective", [
        ((150, 300, 0.04, 0), Fraction(1450761971, 17270000)),
        ((120, 220, 0.05, 0), Fraction(734949853, 11578000)),
        ((120, 220, 0.05, 1), Fraction(810949999, 13174000)),
        ((120, 160, 0.05, 7), Fraction(491904469, 5655250)),
    ], ids=["150x300s0", "120x220s0", "120x220s1", "120x160s7"])
    def test_certifies_past_the_snapping_limit(self, shape, objective):
        inst = random_lp(*shape)
        out, pairs = solver_pairs(inst)
        # the drifted and the rebuilt snapped pairs failed, the core's pair passed
        assert len(pairs) == 3
        assert out.exact_objective == objective
        assert (out.exact_x, out.y) == tuple(map(tuple, pairs[-1]))
        assert out.objective == pytest.approx(scipy_objective(inst), abs=1e-6)
        assert_r_at_most_g(inst, out.exact_objective)

    def test_certifies_gf2_6_without_snapping(self, monkeypatch):
        monkeypatch.setattr(lp_mod, "_snap", lambda values: [Fraction(-1)] * len(values))
        out, pairs = solver_pairs(gen_gf2(6))
        assert out.exact_objective == Fraction(63, 32) and out.stats.certificate == "det"
        assert len(pairs) == 3

    def test_singular_core_gives_no_pair(self):
        # both sets tight, both elements basic: the core [[1, 1], [1, 1]]
        d = np.ones((2, 2))
        assert lp_mod._core_pair(d, np.array([0, 1]), np.array([2, 3]), (1, 1), 1) is None

    @pytest.mark.slow
    def test_certifies_the_wide_and_sparse_lps(self):
        instances = [wide_lp(m, seed) for m in (150, 200, 300) for seed in range(3)]
        instances += [random_lp(300, 1000, 0.02, seed) for seed in range(3)]
        solve_s = 0.0
        for inst in instances:
            start = time.perf_counter()
            out = solve_lp(inst)
            solve_s += time.perf_counter() - start
            assert out.status == STATUS_OPTIMAL and out.exact_objective is not None
            assert out.stats.certificate == "det"
            assert float(out.exact_objective) == pytest.approx(scipy_objective(inst), abs=1e-9)
            assert_r_at_most_g(inst, out.exact_objective)
        assert solve_s < 120  # about 30 s on 2 cores


class TestCertifyBeforeRebuild:
    """A drifted vertex that certifies ends the solve: no refactorization,
    so no LAPACK call."""

    # gf2's stalls perturb the rhs, so its y is read net of delta's image
    @pytest.mark.parametrize("inst, objective, perturbed", [
        (gen_gf2(6), Fraction(63, 32), True),
        (gen_gf2(7), Fraction(127, 64), True),
        (gen_gf2(8), Fraction(255, 128), True),
        (random_lp(42, 30, 5 / 30, 3), Fraction(80239, 2000), False),
    ], ids=["gf2-6", "gf2-7", "gf2-8", "rnd42x30"])
    def test_certifies_without_solving_the_basis(self, monkeypatch, inst, objective, perturbed):
        def refused(*args):
            raise AssertionError("np.linalg.solve was called")

        monkeypatch.setattr(np.linalg, "solve", refused)
        out = solve_lp(inst)
        assert (out.status, out.exact_objective) == (STATUS_OPTIMAL, objective)
        assert out.stats.certificate == "snap" and out.stats.refactorizations == 0
        assert out.stats.perturbed == perturbed

    def test_drifted_vertex_that_fails_refactorizes(self):
        out, pairs = solver_pairs(random_lp(54, 48, 0.5, 1111, weight_hi=1))
        assert out.exact_objective == Fraction(1418063, 676761)
        assert out.stats.refactorizations >= 1 and out.stats.certificate == "snap"
        assert len(pairs) == 2  # the drifted pair failed, the rebuilt one passed


class TestIterationLimit:
    def test_a_perturbed_limit_makes_no_rebuild(self, monkeypatch):
        # the vertex is read net of delta's image, so only a failed check rebuilds
        def refused(*args):
            raise AssertionError("np.linalg.solve was called")

        monkeypatch.setattr(np.linalg, "solve", refused)
        out = solve_lp(gen_gf2(7), max_iterations=120)
        assert (out.status, out.iterations) == (STATUS_ITERATION_LIMIT, 120)
        assert out.stats.perturbed and out.stats.refactorizations == 0


class TestPivotRules:
    """Outcomes that the pivoting rules decide, pinned where a rule matters."""

    # unit-weight LPs with alternative optimal vertices: breaking Dantzig's
    # ties by tableau position instead of by variable label ends elsewhere
    @pytest.mark.parametrize("shape, objective, x, y", [
        ((8, 10, 0.3, 13), 3, {4: 1, 5: 1, 6: 1}, {2: 1, 3: 1, 7: 1}),
        ((10, 12, 0.3, 2), Fraction(13, 4),
         {2: "3/4", 4: "1/2", 5: "1/4", 8: "1/2", 9: 1, 11: "1/4"},
         {0: "1/2", 2: "1/4", 3: 1, 5: "1/2", 7: "1/4", 8: "3/4"}),
        ((12, 20, 0.2, 40), 3, {6: 1, 12: 1, 13: 1}, {5: 1, 7: 1, 9: 1}),
    ], ids=["8x10s13", "10x12s2", "12x20s40"])
    def test_dantzig_ties_go_to_the_lowest_label(self, shape, objective, x, y):
        inst = random_lp(*shape, weight_hi=1)
        out = solve_lp(inst)
        assert out.exact_objective == objective
        assert out.exact_x == tuple(Fraction(x.get(i, 0)) for i in range(inst.n))
        assert out.y == tuple(Fraction(y.get(e, 0)) for e in range(inst.m))

    # x is read off the nonbasic slacks' reduced costs, 0 for basic slacks
    @pytest.mark.parametrize("inst, limit, objective, x", [
        (gen_gf2(4), 1, 1.0, {0: 1}),
        (gen_gf2(4), 3, 1.5, {0: 0.5, 1: 0.5, 2: 0.5}),
        (gen_gf2(4), 10, 2.25, {0: 0.25, 3: 0.25, 4: 0.25, 5: 0.25, 6: 0.25, 9: 0.5, 10: 0.5}),
        (random_lp(20, 20, 0.2, 5), 1, 1.879, {11: 1}),
        (random_lp(20, 20, 0.2, 5), 3, 4.244, {6: 1, 8: 1}),
        (random_lp(20, 20, 0.2, 5), 10, 38.358999999999995,
         {0: 1, 5: 2, 8: 1, 11: 1, 15: 4, 16: 1}),
    ], ids=["gf2-4-1", "gf2-4-3", "gf2-4-10", "rnd20-1", "rnd20-3", "rnd20-10"])
    def test_iteration_limit_outcome(self, inst, limit, objective, x):
        out = solve_lp(inst, max_iterations=limit)
        assert (out.status, out.iterations) == (STATUS_ITERATION_LIMIT, limit)
        assert out.objective == objective
        assert list(out.x) == [float(x.get(i, 0)) for i in range(inst.n)]
        assert out.exact_objective is None


class TestRelaxationProperties:
    @settings(max_examples=100, deadline=None)
    @given(inst=small_instances())
    def test_greedy_within_g_of_certified_lp(self, inst):
        out = solve_lp(inst)
        assume(out.exact_objective is not None)
        assert_r_at_most_g(inst, out.exact_objective)

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


def plain_cover_check(instance, x, tol):
    """check_fractional_cover as a per-holder sum, element by element."""
    if any(xi < -tol for xi in x):
        return False
    return all(sum(x[i] for i, entry in enumerate(instance.sets) if e in entry.elements)
               >= 1 - tol for e in range(1, instance.m + 1))


class TestFractionalCoverCheck:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), inst=small_instances(),
           tol=st.sampled_from([0.0, DEFAULT_TOL, 1e-3]))
    def test_matches_a_plain_sum(self, data, inst, tol):
        # x_i near 0 or 1/k, so that an element's coverage often lands on 1
        # or within tol of it
        shift = (st.floats(-2 * tol, 2 * tol) if tol
                 else st.sampled_from([0.0, 2.0**-53, -(2.0**-53), 2.0**-52]))
        near = st.builds(lambda k, d: (1 / k if k else 0.0) + d, st.integers(0, 7), shift)
        x = data.draw(st.lists(near, min_size=inst.n, max_size=inst.n))
        assert check_fractional_cover(inst, x, tol) is plain_cover_check(inst, x, tol)

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

    def test_uncertified_optimum_gives_floats(self):
        lp = LpOutcome(x=(0.5, 0.5, 0.5), objective=1.5, status=STATUS_OPTIMAL, iterations=3)
        r = r_estimate(greedy(gen_gf2(2)), lp)
        ig = integrality_gap(Fraction(2), lp)
        assert type(r) is type(ig) is float
        assert r == ig == 2 / 1.5


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


class TestDegeneracy:
    """A degeneracy streak perturbs the rhs once; dual pivots remove it."""

    @pytest.mark.parametrize("k, ceiling", [(6, 100), (7, 195), (8, 500), (9, 1220)])
    def test_gf2_pivot_ceilings(self, k, ceiling):
        # 85, 167, 434 and 1,059 pivots; switching to Bland's rule at every
        # streak instead took 107, 256, 826 and 4,563
        out = solve_lp(gen_gf2(k))
        assert out.exact_objective == Fraction(2 ** k - 1, 2 ** (k - 1))
        assert out.iterations <= ceiling
        assert out.stats.perturbed
        assert out.stats.bland_pivots == 0
        assert out.stats.certificate == "snap"

    def test_bland_fallback_certifies(self, monkeypatch):
        # one degenerate pivot perturbs the rhs, the next switches to Bland's
        # rule until the objective moves again
        monkeypatch.setattr(lp_mod, "BLAND_STREAK", 1)
        out = solve_lp(gen_gf2(6))
        assert out.stats.perturbed and out.stats.bland_pivots == 57
        assert (out.iterations, out.exact_objective) == (86, Fraction(63, 32))
        assert out.stats.certificate == "snap"

    @pytest.mark.slow
    def test_pivot_path_does_not_depend_on_blas_threads(self):
        # gf2(9)'s drifted vertex certifies, so the solve never rebuilds the
        # tableau and makes no BLAS call: the thread count of OpenBLAS cannot
        # steer its pivots.  Only the pivots after a rebuild could depend on it
        script = ("from setcoverlab import gen_gf2, solve_lp; "
                  "out = solve_lp(gen_gf2(9)); print(out.iterations, out.exact_x, out.y)")
        runs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                               timeout=300)
                for threads in ("1", "2")]
        assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
        assert runs[0].stdout == runs[1].stdout

    def test_alternative_optima(self):
        # every 4-subset of {1..11} at unit weight: the optimum 11/4 has many
        # vertices, and the perturbation may end on another one
        inst = make_instance(11, [(s, 1) for s in itertools.combinations(range(1, 12), 4)])
        out, pairs = solver_pairs(inst)
        assert out.stats.perturbed
        assert out.objective == pytest.approx(scipy_objective(inst), abs=1e-6)
        x, y = pairs[-1]
        assert brute_weak_duality(inst, x, y) == out.exact_objective == Fraction(11, 4)

    @pytest.mark.parametrize("inst, perturbation", [
        (gen_gf2(6), 0.5),
        (random_lp(24, 57, 0.5, 256, weight_hi=1), 0.1),
    ], ids=["gf2-6", "rnd24x57"])
    def test_cleanup_pivots_restore_the_true_vertex(self, monkeypatch, inst, perturbation):
        objective = solve_lp(inst).exact_objective
        monkeypatch.setattr(lp_mod, "PERTURBATION", perturbation)
        out, pairs = solver_pairs(inst)
        assert out.stats.perturbed and out.stats.cleanup_pivots > 0
        assert out.exact_objective == objective is not None
        assert brute_weak_duality(inst, *pairs[-1]) == objective

    def test_dual_pivot_keeps_reduced_costs_nonpositive(self):
        # rows hold labels 3 and 4, slots labels 0..2; the last column is the
        # rhs and the last row the reduced costs.  Row 0 is infeasible, and
        # its ratios are 1 (slot 0) and 2 (slot 1): entering slot 1 would
        # lift slot 0's reduced cost to +1
        t = np.array([[-1.0, -2.0, 1.0, -2.0],
                      [1.0, 1.0, 1.0, 3.0],
                      [-1.0, -4.0, -1.0, -5.0]])
        basis, nonbasic = np.array([3, 4]), np.array([0, 1, 2])
        assert lp_mod._dual_pivot(t, basis, nonbasic) == (0, 0)
        lp_mod._pivot(t, basis, nonbasic, 0, 0)
        assert (t[2, :3] <= 0).all() and (t[:2, 3] >= 0).all()
        assert lp_mod._dual_pivot(t, basis, nonbasic) is None

    @pytest.mark.parametrize("width", range(3, 13))
    def test_pivot_matches_an_exact_pivot(self, width):
        # small integer entries and a pivot of 1, 2 or 4 in magnitude keep
        # every float step exact, so the float pivot must equal the Fraction
        # one entry for entry.  The widths include 8, where on numpy 2.4.6
        # with AVX-512 np.negative(v, out=v) on a column view of the tableau
        # returned wrong values; the pivot's np.subtract(0.0, v, out=v) did not
        rng = np.random.default_rng(width)
        for rows in (2, 3, 5, 9):
            t = rng.integers(-9, 10, size=(rows, width)).astype(float)
            leave, enter = int(rng.integers(rows)), int(rng.integers(width))
            t[leave, enter] = rng.choice([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0])
            old = [[Fraction(int(v)) for v in row] for row in t]
            p = old[leave][enter]
            exact = [[1 / p if (r, j) == (leave, enter) else
                      old[r][j] / p if r == leave else
                      -old[r][j] / p if j == enter else
                      old[r][j] - old[r][enter] * old[leave][j] / p
                      for j in range(width)] for r in range(rows)]
            basis, nonbasic = np.arange(rows), np.arange(rows, rows + width)
            lp_mod._pivot(t, basis, nonbasic, leave, enter)
            assert t.tolist() == exact
            assert (basis[leave], nonbasic[enter]) == (rows + enter, leave)

    @pytest.mark.parametrize("inst", [
        random_lp(8, 10, 0.3, 13, weight_hi=1),
        random_lp(10, 12, 0.3, 2, weight_hi=1),
        random_lp(12, 20, 0.2, 40, weight_hi=1),
        gen_gf2(4),
        random_lp(20, 20, 0.2, 5),
    ], ids=["8x10s13", "10x12s2", "12x20s40", "gf2-4", "rnd20"])
    def test_pivot_rule_instances_never_stall(self, inst):
        out = solve_lp(inst)
        assert not out.stats.perturbed
        assert (out.stats.bland_pivots, out.stats.cleanup_pivots) == (0, 0)

    def test_iteration_limit_reports_the_true_weights_vertex(self):
        # gf2(7) perturbs its rhs before pivot 80; a set with x_i > 0 has
        # a nonbasic slack, so its load is its true weight 1, not 1 + O(delta)
        inst = gen_gf2(7)
        out = solve_lp(inst, max_iterations=120)
        assert out.status == STATUS_ITERATION_LIMIT and out.stats.perturbed
        loads = [sum(out.y[e - 1] for e in entry.elements) for entry in inst.sets]
        assert all(abs(load - 1) <= DEFAULT_TOL for load, xi in zip(loads, out.x) if xi > 0)
        assert min(out.y) >= -DEFAULT_TOL and max(loads) <= 1 + DEFAULT_TOL

    def test_stats_are_not_compared(self, monkeypatch):
        inst = gen_gf2(3)
        plain = solve_lp(inst)
        monkeypatch.setattr(lp_mod, "_snap", lambda values: [Fraction(-1)] * len(values))
        by_det = solve_lp(inst)
        assert (plain.stats.certificate, by_det.stats.certificate) == ("snap", "det")
        assert plain == by_det
