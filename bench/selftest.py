"""Self-test of the independent checks in oracle.py.

    python3 bench/selftest.py

Each check first accepts a genuine output of the program, then must reject
a deliberately corrupted copy of it.  Exits 0 when every check accepts the
genuine output and rejects its corruption, 1 otherwise.
"""

import dataclasses
import sys
from fractions import Fraction

from run import load_program

import oracle

RANDOM_SPEC = dict(m=20, n=12, density=0.25, weight_lo=Fraction(1),
                   weight_hi=Fraction(10), seed=7)
# OPT = {1,2} at weight 1; the cover {1},{2} weighs one grid step more.
STEP_TEXT = "scp 1\n2 3\n1 2 1 2\n1/2 1 1\n501/1000 1 2\n"


def cases(api):
    """(name, check, genuine output, corrupted output) for every check."""
    inst = api.generators.gen_random(api.generators.RandomSpec(**RANDOM_SPEC))
    text = api.instance.write_native(inst)
    problem = oracle.read_native(text)
    inst = api.instance.parse_native(text)
    trace = api.greedy.greedy(inst)
    exact = api.exact.exact_opt(inst)
    report = api.bounds.bound_report(inst, trace, exact.cover)
    lp = api.lp.solve_lp(inst)
    h = oracle.Harmonic()

    swapped = list(trace.chosen)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    step_problem = oracle.read_native(STEP_TEXT)
    step_inst = api.instance.parse_native(STEP_TEXT)
    step_exact = api.exact.exact_opt(step_inst)
    heavy_cover = api.instance.make_cover(step_inst, (1, 2))
    stats = api.experiments.table1(10, workers=1).stats
    bumped = list(stats)
    bumped[1] = dataclasses.replace(bumped[1], total=bumped[1].total + 1)
    k5 = api.greedy.greedy(api.generators.gen_gf2(5))

    return [
        ("one swapped greedy choice",
         lambda t: oracle.check_greedy(problem, t),
         trace, dataclasses.replace(trace, chosen=tuple(swapped))),
        ("LP objective off by 1e-3",
         lambda o: oracle.check_lp(problem, o),
         lp, dataclasses.replace(lp, objective=lp.objective + 1e-3)),
        ("optimum one grid step too heavy",
         lambda r: oracle.check_exact(step_problem, r, oracle.milp_value(step_problem)),
         step_exact, dataclasses.replace(step_exact, cover=heavy_cover,
                                         weight=heavy_cover.weight)),
        ("bucket total off by one",
         lambda s: oracle.check_buckets(10, "compositions", s),
         stats, tuple(bumped)),
        ("wrong G",
         lambda r: oracle.check_bounds(problem, trace, r, h, exact.cover),
         report, dataclasses.replace(report, G=report.G + Fraction(1, 1000))),
        ("gf2 sequence off the closed form",
         lambda t: oracle.check_gf2(5, t),
         k5, dataclasses.replace(k5, s=(8, 16, 4, 2, 1))),
    ]


def main() -> int:
    api, _ = load_program()
    failures = 0
    for name, check, genuine, corrupted in cases(api):
        try:
            check(genuine)
        except oracle.CheckFailed as exc:
            print(f"FAIL  {name}: the genuine output is rejected: {exc}")
            failures += 1
            continue
        try:
            check(corrupted)
        except oracle.CheckFailed as exc:
            print(f"ok    {name}: rejected ({exc})")
        else:
            print(f"FAIL  {name}: the corrupted output is accepted")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
