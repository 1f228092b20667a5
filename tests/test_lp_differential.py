"""Differential test: solve_lp against the frozen loop in seed_lp.py.

Refactorizing only where no column prices in, onto the true weights, and
reading x from the reduced-cost row change nothing on an LP that the
frozen loop finishes in fewer pivots than its refresh interval: on
gf2(2..8), 100 seeded random LPs (m, n from 5 to 60, unit and spread
weights), every composition of 6 as a class-cs instance and the four
determinant-path LPs, the status, iterations, exact objective, x, y and
certificate path must equal the frozen loop's.
"""

from fractions import Fraction

import pytest

import seed_lp
from setcoverlab import RandomSpec, gen_class_cs, gen_gf2, gen_random, solve_lp
from setcoverlab.experiments import MODE_COMPOSITIONS, enumerate_sequences


def random_lp(m, n, density, seed, weight_hi=10):
    return gen_random(RandomSpec(m=m, n=n, density=density, weight_lo=Fraction(1),
                                 weight_hi=Fraction(weight_hi), seed=seed))


def _instances():
    yield from (gen_gf2(k) for k in range(2, 9))
    for seed in range(100):
        yield random_lp(5 + seed * 7 % 56, 5 + seed * 13 % 56, (0.1, 0.2, 0.3, 0.5)[seed % 4],
                        seed, weight_hi=(1, 3, 10)[seed % 3])
    yield from map(gen_class_cs, enumerate_sequences(6, MODE_COMPOSITIONS))
    for shape in ((150, 300, 0.04, 0), (120, 220, 0.05, 0), (120, 220, 0.05, 1),
                  (120, 160, 0.05, 7)):
        yield random_lp(*shape)


def _contract(out):
    return (out.status, out.iterations, out.exact_objective, out.x, out.y,
            out.stats.certificate)


@pytest.mark.slow
def test_same_outcome_as_the_frozen_loop():
    instances = list(_instances())
    assert len(instances) >= 120
    perturbed = 0
    for inst in instances:
        old = seed_lp.solve_lp(inst)
        assert old.iterations < seed_lp.REFRESH_INTERVAL, inst.name
        assert old.exact_objective is not None, inst.name
        assert _contract(solve_lp(inst)) == _contract(old), inst.name
        perturbed += old.stats.perturbed
    assert perturbed >= 3  # gf2(6..8) stall, so the perturbation path is covered
