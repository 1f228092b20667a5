"""Covering LP: from-scratch dense simplex plus exact certification.

The primal is  min w.x  s.t.  each element's sets sum to >= 1,  x >= 0.
We run a tableau simplex on the dual packing program (max 1.y subject to
per-set loads <= w, y >= 0), whose slack basis is immediately feasible, so
no two-phase start is needed.  The tableau is condensed (Tucker's form):
its n rows are the basic variables and its m columns the nonbasic ones,
plus the rhs, delta's image (below) and the reduced-cost row, so the
n x n identity block of the basic columns is never stored or updated.  Two label arrays map
rows and column slots to variables (y_e is label e-1, set i's slack label
m+i); at a pivot the leaving variable takes the entering one's slot.
Pricing is Dantzig's.  The first time BLAND_STREAK degenerate pivots
come in a row, the rhs is perturbed once, by a positive, per-row distinct
delta scaled to the weights, and Dantzig pricing goes on (Wolfe 1963,
Charnes 1952).  Bland's rule is the fallback: only a second streak, after
the perturbation, switches to it until the objective moves again.  Every
rule, and both ratio tests, break ties by the lowest variable label,
never by slot.  An LP that never stalls pivots exactly as plain Dantzig.

When no column prices in, the vertex of the true weights is read off the
tableau as it stands: x from the reduced-cost row (a nonbasic slack's
reduced cost is -x_i, and x_i = 0 for a basic one), y from the rhs less
the perturbation's image, one more column that takes delta with the rhs
and goes through every pivot.  That pair is snapped to small rationals
and checked in integers over common denominators: feasibility of both
sides and equal objectives prove optimality by weak duality.  If it
certifies, the solve ends without a rebuild, so a certifiable LP runs
elementwise numpy alone and makes no BLAS call.  Otherwise the tableau is
rebuilt from the original data on the true weights, dual-simplex pivots
(the most negative rhs leaves, the dual ratio test picks the entering
column) repair any rhs that dropping delta, or drift, left below
-DEFAULT_TOL, and the check runs again once no column prices in.  So
optimality is declared on an exact certificate, or on a rebuilt tableau
with no pivot since; drift and delta never decide it, and every pivot
before a rebuild is independent of the BLAS thread count.  At an
iteration limit while delta is in, the tableau is rebuilt once to report
the true weights' vertex.  Stats count the Bland, repair and
refactorization steps and name the certificate path.

A snapped value is limit_denominator's, most often confirmed by an
integer test on a float continued fraction's convergent instead of
computed.  The check reads only the instance's flat arrays: each
element's coverage and each set's load are bulk sums over Python ints
(object arrays).  When the rebuilt tableau's pair fails too, the final
basis's vertex is solved exactly, in integers, on its k x k core
(Bareiss 1968), and the same check judges it.  A certified outcome
carries the exact rational objective, solution and dual.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import LengthMismatch, NonOptimalLp, NumericalFailure
from .greedy import GreedyTrace
from .instance import (Instance, _arrays, _element_coverage, _over_lcm, _set_loads, element_sets,
                       require_positive_weights, validate)

DEFAULT_TOL = 1e-9
BLAND_STREAK = 40
PERTURBATION = 1e-5  # the rhs perturbation at a stall, relative to the mean weight
GOLDEN = (math.sqrt(5) - 1) / 2
# The tableau's values carry float error near 1e-14.  A denominator limit
# near the inverse square root of that error recovers rationals with
# denominators up to it; a larger limit fits the noise itself instead.
# Snapped values are always checked exactly, so the limit only decides how
# often this cheap path certifies.
RATIONALIZE_DENOM = 10**7

STATUS_OPTIMAL = "optimal"
STATUS_ITERATION_LIMIT = "iteration-limit"


@dataclass(frozen=True)
class LpStats:
    """What one solve did: its pivot kinds, refactorizations and certificate path."""
    bland_pivots: int = 0  # pivots priced by Bland's rule (the fallback)
    cleanup_pivots: int = 0  # dual pivots that repaired the rhs after a refactorization
    refactorizations: int = 0  # the drifted vertex failed its check, or a limit came with delta in
    perturbed: bool = False  # a degeneracy streak perturbed the rhs
    certificate: str | None = None  # "snap", "det" (the basis core solved exactly), or None


@dataclass(frozen=True)
class LpOutcome:
    x: tuple  # the primal (per set): exact when certified, else floats
    objective: float
    status: str
    iterations: int
    exact_objective: Fraction | None = None
    exact_x: tuple[Fraction, ...] | None = None
    y: tuple = ()  # the dual (per element): exact when certified, like x
    stats: LpStats = field(default=LpStats(), compare=False)


def _dual_data(instance: Instance):
    """The dual's constraint matrix D (n x m): D[i, e-1] = 1 when set i holds e."""
    indptr, elements, _ = _arrays(instance)
    d = np.zeros((instance.n, instance.m))
    d[np.arange(instance.n).repeat(np.diff(indptr)), elements - 1] = 1.0
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
    """Rebuild the condensed tableau from scratch for the basis, on weights w.

    Pivoting drifts the dense tableau; recomputing B^-1 [N | w] from the
    original data bounds the error by a single solve, exactly like
    reinversion in a revised simplex.  The same solve gives the reduced-cost
    row c_N - c_B B^-1 N, with minus the objective in the rhs slot: c_B is 1
    on the rows of basic y_e and 0 on basic slacks, so c_B B^-1 [N | w] is
    the sum of those rows.  The perturbation's image column comes back 0.
    """
    m = d.shape[1]
    try:
        body = np.linalg.solve(_columns(d, basis),
                               np.column_stack([_columns(d, nonbasic), w]))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular basis during refactorization: {exc}")
    obj = np.append((nonbasic < m).astype(float), 0.0) - body[basis < m].sum(axis=0)
    return np.pad(np.vstack([body, obj]), ((0, 0), (0, 1)))


def _pivot(t, basis, nonbasic, leave, enter):
    """Exchange basis[leave] and nonbasic[enter] on the condensed tableau t."""
    pivot = t[leave, enter]
    inverse = 1.0 / pivot
    t[leave] /= pivot
    factors = t[:, enter].copy()
    factors[leave] = 0.0
    t -= np.multiply.outer(factors, t[leave])
    # the leaving variable takes the entering one's slot, holding what the
    # full tableau makes of its unit column: 1/pivot in the pivot row,
    # 0 - factors/pivot elsewhere
    leaving = t[:, enter]
    np.multiply(factors, inverse, out=leaving)
    np.subtract(0.0, leaving, out=leaving)
    leaving[leave] = inverse
    basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]


def _lowest_label(candidates, labels) -> int:
    """The candidate slot or row whose variable label is lowest."""
    return int(candidates[labels[candidates].argmin()]) if candidates.size > 1 else int(candidates[0])


def _entering(obj_row, nonbasic, bland: bool) -> int:
    """The entering slot by Dantzig's rule, or Bland's; -1 when none improves."""
    if bland:
        candidates = (obj_row > DEFAULT_TOL).nonzero()[0]
        return _lowest_label(candidates, nonbasic) if candidates.size else -1
    enter = int(obj_row.argmax())
    if obj_row[enter] <= DEFAULT_TOL:
        return -1
    # ties go to the lowest variable label, not the lowest slot
    return _lowest_label((obj_row == obj_row[enter]).nonzero()[0], nonbasic)


def _dual_pivot(t, basis, nonbasic):
    """A dual-simplex pivot (leave, enter) toward a feasible rhs, or None.

    The leaving row holds the most negative rhs; the entering slot wins the
    dual ratio test (reduced cost over the row's negative entry), so every
    reduced cost stays nonpositive.  None when no rhs is below -DEFAULT_TOL.
    """
    n, m = t.shape[0] - 1, nonbasic.size
    rhs = t[:n, m]
    leave = int(rhs.argmin())
    if rhs[leave] >= -DEFAULT_TOL:
        return None
    leave = _lowest_label((rhs == rhs[leave]).nonzero()[0], basis)
    row = t[leave, :m]
    slots = (row < -DEFAULT_TOL).nonzero()[0]
    if slots.size == 0:
        raise NumericalFailure("covering LP appears infeasible; corrupt tableau")
    ratios = t[n, slots] / row[slots]
    return leave, _lowest_label(slots[ratios <= ratios.min() + DEFAULT_TOL], nonbasic)


def _vertex(t, basis, nonbasic):
    """The float vertex (x, y) of the true weights on the condensed tableau t."""
    n, m = basis.size, nonbasic.size
    slacks = np.flatnonzero(nonbasic >= m)  # their reduced costs are -x; basic ones' x is 0
    x = np.zeros(n)
    x[nonbasic[slacks] - m] = np.maximum(-t[n, slacks], 0.0)
    y = np.zeros(m)
    structural = np.flatnonzero(basis < m)
    y[basis[structural]] = t[structural, m] - t[structural, m + 1]
    return x, y


def _float_weights(instance: Instance) -> list[float]:
    """The weights as floats; NumericalFailure names a set whose weight overflows."""
    weights, (nums, denom) = [], _arrays(instance)[2]
    for i, p in enumerate(nums):
        try:
            weights.append(p / denom)  # int division rounds correctly, as float(Fraction) does
        except OverflowError:
            raise NumericalFailure(f"set {i} has a weight beyond the float range") from None
    return weights


def solve_lp(instance: Instance, *, max_iterations: int | None = None) -> LpOutcome:
    """Minimize the covering LP; returns the best vertex found.

    status is "optimal" when no column prices in within DEFAULT_TOL and
    either the vertex of the true weights certifies exactly or the tableau
    was just refactorized on them, "iteration-limit" when the pivot budget
    ran out first.
    """
    weights, dw = require_positive_weights(instance)
    m, n = instance.m, instance.n
    if max_iterations is None:
        max_iterations = 100 * (m + n) + 1000

    d = _dual_data(instance)
    w = np.array(_float_weights(instance))
    basis = np.arange(m, m + n)  # row -> variable label
    nonbasic = np.arange(m)  # slot -> variable label
    # the slack basis is the identity: the start tableau is [D | w | 0] over
    # [1 | -0 | 0], the last column the perturbation's image
    t = np.zeros((n + 1, m + 2))
    t[:n, :m] = d
    t[:n, m] = w
    t[n, :m] = 1.0
    t[n, m] = -0.0
    iterations = streak = 0
    bland_pivots = cleanup_pivots = refactorizations = 0
    bland = perturbed = shifted = repair = False
    exact = None
    fresh = True  # no pivot since the tableau was built from the data
    while True:
        step = _dual_pivot(t, basis, nonbasic) if repair else None
        repair = step is not None
        if repair:
            leave, enter = step
        else:
            enter = _entering(t[n, :m], nonbasic, bland)
            if enter < 0:
                x, y = _vertex(t, basis, nonbasic)
                snapped = _snap(np.concatenate([x, y]).tolist())
                pair = (snapped[:n], snapped[n:])
                exact = certify_pair(instance, *pair)
                if exact is not None or fresh:
                    status = STATUS_OPTIMAL
                    break
                # decide on the true weights: the rebuild drops the drift and
                # any perturbation, and dual pivots repair what is left
                t = _refactorize(d, w, basis, nonbasic)
                refactorizations += 1
                fresh = repair = True
                shifted = False
                continue
        if iterations >= max_iterations:
            status = STATUS_ITERATION_LIMIT
            break
        if not repair:
            col = t[:n, enter]
            rows = (col > DEFAULT_TOL).nonzero()[0]
            if rows.size == 0:
                raise NumericalFailure("dual LP appears unbounded; corrupt tableau")
            ratios = t[rows, m] / col[rows]
            best = ratios.min()
            leave = _lowest_label(rows[ratios <= best + DEFAULT_TOL], basis)
        _pivot(t, basis, nonbasic, leave, enter)
        iterations += 1
        fresh = False
        if repair:
            cleanup_pivots += 1
            continue
        bland_pivots += bland
        if best > DEFAULT_TOL:
            streak = 0
            bland = False
            continue
        streak += 1
        if streak < BLAND_STREAK:
            continue
        if perturbed:  # the fallback: Bland's rule cannot cycle
            bland = True
        else:
            # delta: positive and distinct per row (a golden-ratio sequence),
            # so the ratio tests on the shifted rhs rarely tie
            t[:n, m:] += (PERTURBATION * w.mean()
                          * (1.0 + np.modf(np.arange(1, n + 1) * GOLDEN)[0]))[:, None]
            perturbed = shifted = True
            streak = 0

    certificate = "snap" if exact is not None else None
    if status == STATUS_ITERATION_LIMIT:
        if shifted:  # report the vertex of the true weights
            t = _refactorize(d, w, basis, nonbasic)
            refactorizations += 1
        x, y = _vertex(t, basis, nonbasic)
    elif exact is None:
        pair = _core_pair(d, basis, nonbasic, weights, dw)
        exact = pair and certify_pair(instance, *pair)
        certificate = "det" if exact is not None else None
    objective = float(sum(wi * xi for wi, xi in zip(w, x)))
    exact_obj = exact_x = None
    if exact is not None:
        exact_x, exact_obj = exact
        objective = float(exact_obj)
        x, y = exact_x, pair[1]

    stats = LpStats(bland_pivots=bland_pivots, cleanup_pivots=cleanup_pivots,
                    refactorizations=refactorizations, perturbed=perturbed,
                    certificate=certificate)
    return LpOutcome(x=tuple(x), objective=objective, status=status,
                     iterations=iterations, exact_objective=exact_obj,
                     exact_x=exact_x, y=tuple(y), stats=stats)


def _snap(values) -> list[Fraction]:
    """Each value's nearest rational with denominator at most RATIONALIZE_DENOM.

    The value of Fraction(v).limit_denominator(RATIONALIZE_DENOM), worked
    out once per distinct value.
    """
    floats = [float(v) for v in values]
    snapped = {v: _nearest(v) for v in set(floats)}
    return [snapped[v] for v in floats]


def _nearest(v: float) -> Fraction:
    """Fraction(v).limit_denominator(N), N = RATIONALIZE_DENOM, mostly without it.

    With v = a/b exactly, the float continued fraction of |v| proposes its
    last convergent p/q with q <= N.  When 2N|aq - pb| < b, checked in
    integers, v lies within 1/(2Nq) of p/q; two distinct fractions with
    denominators at most N are at least 1/(qN) apart, so p/q is the unique
    closest, which is limit_denominator's value.  Otherwise that decides.
    """
    a, b = v.as_integer_ratio()  # raises for inf and nan, as Fraction(v) does
    limit = RATIONALIZE_DENOM
    rest = abs(v)
    p0, q0, p, q = 1, 0, math.floor(rest), 1
    rest -= p
    while rest * (limit + 1) >= 1:  # else the next partial quotient takes q past N
        rest = 1 / rest
        t = math.floor(rest)
        if t * q + q0 > limit:
            break
        p0, q0, p, q = p, q, t * p + p0, t * q + q0
        rest -= t
    if a < 0:
        p = -p
    if 2 * limit * abs(a * q - p * b) < b:
        return Fraction(p, q)
    return Fraction(v).limit_denominator(limit)


def _core_pair(d, basis, nonbasic, weights, dw):
    """The final basis's exact vertex (x, y), or None when its core is singular.

    The basis is all slack columns but a 0/1 core C = D[T, S] of the tight
    sets T (nonbasic slacks) and basic elements S.  So C y_S = w_T (w the
    integer weights, over dw), C^T x_T = 1, and every other x and y is 0.
    """
    n, m = d.shape
    tight, elements = nonbasic[nonbasic >= m] - m, basis[basis < m]
    core = d[np.ix_(tight, elements)].astype(np.int64)
    y_core = _solve_integer(core, [weights[i] for i in tight], dw)
    if y_core is None:  # then C^T is singular too
        return None
    x, y = np.full(n, Fraction(0), object), np.full(m, Fraction(0), object)
    x[tight], y[elements] = _solve_integer(core.T, [1] * tight.size, 1), y_core
    return x.tolist(), y.tolist()


def _solve_integer(c, b, den):
    """z/den for the exact solution z of c z = b, or None when c is singular.

    Fraction-free Gauss-Jordan elimination over Python ints (Bareiss 1968):
    every entry stays a minor of [c | b], so each division is exact.
    """
    a = np.column_stack([c.astype(object), np.array(b, object)])
    prev = 1
    for j in range(len(b)):
        rows = np.flatnonzero(a[j:, j]) + j
        if rows.size == 0:
            return None
        a[[j, rows[0]]] = a[[rows[0], j]]
        pivot, row = a[j, j], a[j, j + 1:].copy()
        a[:, j + 1:] = (pivot * a[:, j + 1:] - np.multiply.outer(a[:, j], row)) // prev
        a[j, j + 1:] = row
        prev = pivot
    return [Fraction(z, prev * den) for z in a[:, -1]]


def certify_pair(instance: Instance, x, y):
    """Exact weak-duality certificate check for a rational primal/dual pair.

    Returns (x, objective) when x is primal-feasible, y is dual-feasible
    and the objectives match exactly; None otherwise.  Decided in integers:
    x and y over their own common denominators, the weights as validated.
    The coverage of each element and the load of each set are summed in
    bulk over the flat arrays, on Python ints.
    """
    xs, dx = _over_lcm(x)
    ys, dy = _over_lcm(y)  # ys[e - 1]: element e
    if min(xs) < 0 or min(ys, default=0) < 0:
        return None
    weights, dw = require_positive_weights(instance)
    if (_element_coverage(instance, xs) < dx).any():
        return None
    if (_set_loads(instance, ys) * dw > np.array(weights, object) * dy).any():
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
    validate(instance)
    return bool((_element_coverage(instance, x) >= 1 - tol).all())


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
    terms = " + ".join(f"{wi:.12g} x{i}" for i, wi in enumerate(_float_weights(instance)))
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
