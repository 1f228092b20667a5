"""Differential test: the exact search against the frozen one in seed_exact.py.

Sibling exclusion and the incumbent cut at push time change how many nodes
the search visits, not what it returns: on gf2(2..4), every composition of
6 as a class-cs instance and 280 seeded random instances (m <= 15,
n <= 24), the weight, the cover's indices and the status must equal the
frozen search's under all four configurations.  A third of the random
instances are unit-weight and a third have weights in {1, 2, 3}, so there
are ties: the exhaustive method's lowest-bitmask rule decides many of them,
and where greedy misses the optimum, branch-and-bound's cover depends on
the order in which the search finds covers.
"""

from fractions import Fraction

import pytest

import seed_exact
from setcoverlab import (RandomSpec, SolveBudget, exact_opt, gen_class_cs, gen_gf2, gen_random,
                         make_instance)
from setcoverlab.exact import METHOD_AUTO, METHOD_BNB, METHOD_EXHAUSTIVE
from setcoverlab.experiments import MODE_COMPOSITIONS, enumerate_sequences

WEIGHT_RANGES = ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(6)),
                 (Fraction(1), Fraction(3)))


def _instances():
    yield from (gen_gf2(k) for k in (2, 3, 4))
    yield from map(gen_class_cs, enumerate_sequences(6, MODE_COMPOSITIONS))
    for seed in range(280):
        lo, hi = WEIGHT_RANGES[seed % 3]
        inst = gen_random(RandomSpec(m=1 + seed % 15, n=1 + seed * 7 % 24,
                                     density=0.1 + 0.05 * (seed % 6),
                                     weight_lo=lo, weight_hi=hi, seed=seed))
        if seed % 3 == 2:  # weights in {1, 2, 3}
            inst = make_instance(inst.m, [(s.elements, round(s.weight)) for s in inst.sets])
        yield inst


INSTANCES = list(_instances())


@pytest.mark.parametrize("method, use_lp_bound", [(METHOD_AUTO, False),
                                                  (METHOD_EXHAUSTIVE, False),
                                                  (METHOD_BNB, False),
                                                  (METHOD_BNB, True)])
def test_same_weight_cover_and_status(method, use_lp_bound):
    assert len(INSTANCES) >= 300
    budget = SolveBudget(method=method)
    old_nodes = new_nodes = 0
    for inst in INSTANCES:
        old = seed_exact.exact_opt(inst, budget, use_lp_bound=use_lp_bound)
        new = exact_opt(inst, budget, use_lp_bound=use_lp_bound)
        assert (new.weight, new.cover.set_indices, new.status) == \
            (old.weight, old.cover.set_indices, old.status), inst.name
        old_nodes += old.nodes
        new_nodes += new.nodes
    assert new_nodes < old_nodes
