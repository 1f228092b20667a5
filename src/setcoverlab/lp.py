"""Covering LP: from-scratch dense simplex plus exact certification.

The primal is  min w.x  s.t.  each element's sets sum to >= 1,  x >= 0.
We run a tableau simplex on the dual packing program (max 1.y subject to
per-set loads <= w, y >= 0), whose slack basis is immediately feasible, so
no two-phase start is needed.  The tableau is condensed (Tucker's form):
its n rows are the basic variables and its m columns the nonbasic ones,
plus the rhs column and the reduced-cost row, so the n x n identity block
of the basic columns is never stored or updated.  Two label arrays map
rows and column slots to variables (y_e is label e-1, set i's slack label
m+i); at a pivot the leaving variable takes the entering one's slot.
Dantzig pricing is used until a degeneracy streak, then Bland's rule until
the objective moves again; both rules, and the ratio test, break ties by
the lowest variable label, never by slot.  The tableau is refactorized
from the original data every so many pivots and again before optimality
is declared, so drift never decides termination; the primal solution is
the simplex multipliers of that final refactorization.

Because the float tableau can drift, the solver then tries to certify the
result exactly: the float primal/dual pair is snapped to small rationals
and checked in integer arithmetic over common denominators (feasibility of
both sides plus equal objectives proves optimality by weak duality).  When
that fails, the pair is rounded once more onto the denominators Cramer's
rule allows for the final basis B (|det B|, times the weights' common
denominator for the dual) and checked the same way.  That rounding is only
right while |det B| times the float error (about 1e-14) stays well under
1/2, so bases with larger determinants, from about 1e13 up, go uncertified
even below the 2**53 cut-off; an exact basis solve would certify them.
When certification succeeds the outcome carries the exact rational
objective, solution and dual.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

import numpy as np

from .errors import LengthMismatch, NonOptimalLp, NumericalFailure
from .greedy import GreedyTrace
from .instance import Instance, _over_lcm, element_sets, require_positive_weights

DEFAULT_TOL = 1e-9
BLAND_STREAK = 40
REFRESH_INTERVAL = 1000  # pivots between refactorizations (drift control)
# The tableau's values carry float error near 1e-14.  A denominator limit
# near the inverse square root of that error recovers rationals with
# denominators up to it; a larger limit fits the noise itself instead.
# Snapped values are always checked exactly, so the limit only decides how
# often this cheap path certifies.
RATIONALIZE_DENOM = 10**7

STATUS_OPTIMAL = "optimal"
STATUS_ITERATION_LIMIT = "iteration-limit"


@dataclass(frozen=True)
class LpOutcome:
    x: tuple  # the primal (per set): exact when certified, else floats
    objective: float
    status: str
    iterations: int
    exact_objective: Fraction | None = None
    exact_x: tuple[Fraction, ...] | None = None
    y: tuple = ()  # the dual (per element): exact when certified, like x


def _dual_data(instance: Instance):
    """The dual's constraint matrix D (n x m): D[i, e-1] = 1 when set i holds e."""
    holders = element_sets(instance)
    sizes = list(map(len, holders))
    d = np.zeros((instance.n, instance.m))
    d[np.fromiter(chain.from_iterable(holders), np.intp, sum(sizes)),
      np.repeat(np.arange(instance.m), sizes)] = 1.0
    return d


def _columns(d, labels):
    """The columns of [D | I] with the given variable labels.

    Label v < m is D[:, v]; label v >= m is the slack column e_(v-m).
    """
    n, m = d.shape
    out = np.zeros((n, labels.size))
    structural = labels < m
    out[:, structural] = d[:, labels[structural]]
    slots = np.flatnonzero(~structural)
    out[labels[slots] - m, slots] = 1.0
    return out


def _refactorize(d, w, basis, nonbasic):
    """Rebuild the condensed tableau from scratch for the basis.

    Pivoting drifts the dense tableau; recomputing B^-1 [N | w] and the
    reduced-cost row from the original data bounds the error by a single
    solve, exactly like reinversion in a revised simplex.  Returns the
    tableau and the simplex multipliers pi.
    """
    m = d.shape[1]
    b_mat = _columns(d, basis)
    n_mat = _columns(d, nonbasic)
    try:
        body = np.linalg.solve(b_mat, np.column_stack([n_mat, w]))
        pi = np.linalg.solve(b_mat.T, (basis < m).astype(float))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular basis during refactorization: {exc}")
    obj = np.append((nonbasic < m).astype(float) - pi @ n_mat, -(pi @ w))
    return np.vstack([body, obj]), pi


def solve_lp(instance: Instance, *, max_iterations: int | None = None) -> LpOutcome:
    """Minimize the covering LP; returns the best vertex found.

    status is "optimal" when the simplex reached reduced-cost optimality
    within DEFAULT_TOL on a freshly refactorized tableau, "iteration-limit"
    when the pivot budget ran out first.
    """
    dw = require_positive_weights(instance)[1]
    m, n = instance.m, instance.n
    if max_iterations is None:
        max_iterations = 100 * (m + n) + 1000

    d = _dual_data(instance)
    w = np.array([float(entry.weight) for entry in instance.sets])
    basis = np.arange(m, m + n)  # row -> variable label
    nonbasic = np.arange(m)  # slot -> variable label
    # the slack basis is the identity: the start tableau is [D | w] over [1 | -0]
    t = np.empty((n + 1, m + 1))
    t[:n, :m] = d
    t[:n, m] = w
    t[n, :m] = 1.0
    t[n, m] = -0.0
    pi = np.zeros(n)
    iterations = 0
    since_refresh = 0
    streak = 0
    bland = False
    while True:
        obj_row = t[n, :m]
        if bland:
            candidates = (obj_row > DEFAULT_TOL).nonzero()[0]
            enter = int(candidates[nonbasic[candidates].argmin()]) if candidates.size else -1
        else:
            enter = int(obj_row.argmax())
            if obj_row[enter] <= DEFAULT_TOL:
                enter = -1
            else:  # ties go to the lowest variable label, not the lowest slot
                tied = (obj_row == obj_row[enter]).nonzero()[0]
                if tied.size > 1:
                    enter = int(tied[nonbasic[tied].argmin()])
        if enter < 0:
            if since_refresh == 0:
                status = STATUS_OPTIMAL
                break
            t, pi = _refactorize(d, w, basis, nonbasic)
            since_refresh = 0
            continue
        if iterations >= max_iterations:
            status = STATUS_ITERATION_LIMIT
            break
        col = t[:n, enter]
        rows = (col > DEFAULT_TOL).nonzero()[0]
        if rows.size == 0:
            raise NumericalFailure("dual LP appears unbounded; corrupt tableau")
        ratios = t[rows, m] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + DEFAULT_TOL]
        leave = int(tied[basis[tied].argmin()]) if tied.size > 1 else int(tied[0])
        pivot = t[leave, enter]
        inverse = 1.0 / pivot
        t[leave] /= pivot
        factors = t[:, enter].copy()
        factors[leave] = 0.0
        t -= np.multiply.outer(factors, t[leave])
        # the leaving variable takes the entering one's slot, holding what
        # the full tableau makes of its unit column: 1/pivot in the pivot
        # row, 0 - factors/pivot elsewhere
        leaving = t[:, enter]
        np.multiply(factors, inverse, out=leaving)
        np.subtract(0.0, leaving, out=leaving)
        leaving[leave] = inverse
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
        iterations += 1
        since_refresh += 1
        if since_refresh >= REFRESH_INTERVAL:
            t, pi = _refactorize(d, w, basis, nonbasic)
            since_refresh = 0
        if best <= DEFAULT_TOL:
            streak += 1
            if streak >= BLAND_STREAK:
                bland = True
        else:
            streak = 0
            bland = False

    if status == STATUS_ITERATION_LIMIT:
        # the nonbasic slacks' reduced costs are -pi; the basic ones' are 0
        slacks = np.flatnonzero(nonbasic >= m)
        pi = np.zeros(n)
        pi[nonbasic[slacks] - m] = -t[n, slacks]
    # optimality is only ever declared right after a refactorization, so
    # its multipliers are fresh then
    x = np.maximum(pi, 0.0)
    objective = float(sum(float(e.weight) * xi for e, xi in zip(instance.sets, x)))
    y = np.zeros(m)
    structural = np.flatnonzero(basis < m)
    y[basis[structural]] = t[structural, m]

    exact_obj = None
    exact_x = None
    if status == STATUS_OPTIMAL:
        pair = (_snap(x), _snap(y))
        exact = _check_pair(instance, *pair)
        if exact is None:
            pair = _snap_to_det(_columns(d, basis), x, y, dw)
            exact = pair and _check_pair(instance, *pair)
        if exact is not None:
            exact_x, exact_obj = exact
            objective = float(exact_obj)
            x, y = exact_x, pair[1]

    return LpOutcome(x=tuple(x), objective=objective, status=status,
                     iterations=iterations, exact_objective=exact_obj,
                     exact_x=exact_x, y=tuple(y))


def _snap(values) -> list[Fraction]:
    """Each value's nearest small rational, computed once per distinct value."""
    floats = [float(v) for v in values]
    snapped = {v: Fraction(v).limit_denominator(RATIONALIZE_DENOM) for v in set(floats)}
    return [snapped[v] for v in floats]


def _snap_to_det(b_mat, x, y, dw):
    """Candidate pair on the denominators Cramer's rule gives the basis B.

    With D = |det B|, every multiplier in x = pi has a denominator dividing
    D, and every dual value in y = B^-1 w one dividing D*dw (dw: the
    weights' common denominator).  Returns x and y rounded onto those grids
    for _check_pair to decide, or None when B is singular or D reaches
    2**53, where floats stop holding every integer.  The rounding lands on
    the true values only while D times the float error (about 1e-14) is
    well under 1/2, so from D near 1e13 on the check usually fails and the
    LP goes uncertified, also below 2**53.
    """
    sign, logdet = np.linalg.slogdet(b_mat)
    d = round(math.exp(logdet)) if sign and logdet < 53 * math.log(2) else 0
    if d == 0:
        return None
    return _round_onto(x, d), _round_onto(y, d * dw)


def _round_onto(values, den: int) -> list[Fraction]:
    """Each value rounded, exactly, to the nearest multiple of 1/den."""
    return [Fraction(round(Fraction(float(v)) * den), den) for v in values]


def _check_pair(instance: Instance, x, y):
    """Exact weak-duality certificate check for a rational primal/dual pair.

    Returns (x, objective) when x is primal-feasible, y is dual-feasible
    and the objectives match exactly; None otherwise.  Decided in integers:
    x and y over their own common denominators, the weights as validated.
    """
    xs, dx = _over_lcm(x)
    ys, dy = _over_lcm([0, *y])  # ys[e]: element e
    if min(xs) < 0 or min(ys) < 0:
        return None
    weights, dw = require_positive_weights(instance)
    if any(sum(map(xs.__getitem__, holders)) < dx for holders in element_sets(instance)):
        return None
    if any(sum(map(ys.__getitem__, entry.elements)) * dw > wi * dy
           for entry, wi in zip(instance.sets, weights)):
        return None
    primal = sum(map(mul, weights, xs))
    if primal * dy != sum(ys) * dw * dx:
        return None
    return tuple(x), Fraction(primal, dw * dx)


def check_fractional_cover(instance: Instance, x, tol: float = DEFAULT_TOL) -> bool:
    """True iff x is (within tol) nonnegative and covers every element."""
    if len(x) != instance.n:
        raise LengthMismatch(f"expected {instance.n} coefficients, got {len(x)}")
    if any(xi < -tol for xi in x):
        return False
    return all(sum(x[i] for i in holders) >= 1 - tol for holders in element_sets(instance))


def _over_lp_objective(weight, lp: LpOutcome):
    """weight/w(Opt_LP): exact when the LP was certified, else a float."""
    if lp.status != STATUS_OPTIMAL:
        raise NonOptimalLp(f"LP status is {lp.status}")
    if lp.exact_objective is not None:
        return Fraction(weight) / lp.exact_objective
    return float(weight) / lp.objective


def r_estimate(trace: GreedyTrace, lp: LpOutcome):
    """Instance-wise upper bound w(Gr)/w(Opt_LP) on the greedy ratio."""
    return _over_lp_objective(trace.total_weight, lp)


def integrality_gap(opt_weight: Fraction, lp: LpOutcome):
    """w(Opt)/w(Opt_LP): how loose the relaxation is on this instance."""
    return _over_lp_objective(opt_weight, lp)


def solution_to_csv(lp: LpOutcome) -> str:
    out = io.StringIO()
    out.write("set_index,x\n")
    for i, xi in enumerate(lp.x):
        out.write(f"{i},{xi}\n")
    return out.getvalue()


def write_lp_format(instance: Instance) -> str:
    """CPLEX-LP text of the covering program, for external cross-checks."""
    lines = ["Minimize"]
    terms = " + ".join(
        f"{float(entry.weight):.12g} x{i}" for i, entry in enumerate(instance.sets)
    )
    lines.append(f" obj: {terms}")
    lines.append("Subject To")
    for e, holders in enumerate(element_sets(instance), start=1):
        lhs = " + ".join(f"x{i}" for i in holders)
        lines.append(f" e{e}: {lhs} >= 1")
    lines.append("Bounds")
    for i in range(instance.n):
        lines.append(f" 0 <= x{i}")
    lines.append("End")
    return "\n".join(lines) + "\n"
