"""Frozen copy of the simplex loop before refactorizing only at the end, the
reference for the differential test of setcoverlab.lp.

This loop rebuilds the tableau every REFRESH_INTERVAL pivots, onto the
perturbed weights w' = w + B.delta while a stall's perturbation is in
force, and reads x from a second solve for the simplex multipliers.  On
an LP that stays under REFRESH_INTERVAL pivots its status, iterations,
exact objective, x, y and certificate path define solve_lp's contract.
The certification it calls is frozen here too: _snap by
Fraction.limit_denominator alone, and certify_pair by a walk over each
element's holders and each set's elements; and so are the pricing
constants and the kernels the loop shares with setcoverlab.lp (the
constraint matrix, the pivot, both pricing rules, the dual pivot and the
determinant rounding), so a change to one of them shows in the test.
Do not edit: the differential test compares against exactly this
behaviour.
"""

import math
from fractions import Fraction
from operator import mul

import numpy as np

from setcoverlab.errors import NumericalFailure
from setcoverlab.instance import _arrays, _over_lcm, element_sets, require_positive_weights
from setcoverlab.lp import (
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    LpOutcome,
    LpStats,
)

DEFAULT_TOL = 1e-9
BLAND_STREAK = 40
PERTURBATION = 1e-5
GOLDEN = (math.sqrt(5) - 1) / 2
RATIONALIZE_DENOM = 10**7
REFRESH_INTERVAL = 1000


def _snap(values):
    floats = [float(v) for v in values]
    snapped = {v: Fraction(v).limit_denominator(RATIONALIZE_DENOM) for v in set(floats)}
    return [snapped[v] for v in floats]


def certify_pair(instance, x, y):
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


def _dual_data(instance):
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


def _lowest_label(candidates, labels):
    """The candidate slot or row whose variable label is lowest."""
    return int(candidates[labels[candidates].argmin()]) if candidates.size > 1 else int(candidates[0])


def _entering(obj_row, nonbasic, bland):
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
    n, m = t.shape[0] - 1, t.shape[1] - 1
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


def _snap_to_det(b_mat, x, y, dw):
    """Candidate pair on the denominators Cramer's rule gives the basis B.

    With D = |det B|, every multiplier in x = pi has a denominator dividing
    D, and every dual value in y = B^-1 w one dividing D*dw (dw: the
    weights' common denominator).  Returns x and y rounded onto those grids
    for certify_pair to decide, or None when B is singular or D reaches
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


def _round_onto(values, den):
    """Each value rounded, exactly, to the nearest multiple of 1/den."""
    return [Fraction(round(Fraction(float(v)) * den), den) for v in values]


def _refactorize(d, w, basis, nonbasic):
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


def _perturbed_weights(d, w, basis):
    n = basis.size
    delta = PERTURBATION * w.mean() * (1.0 + np.modf(np.arange(1, n + 1) * GOLDEN)[0])
    return w + (_columns(d, basis) * delta).sum(axis=1), delta


def solve_lp(instance, *, max_iterations=None):
    dw = require_positive_weights(instance)[1]
    m, n = instance.m, instance.n
    if max_iterations is None:
        max_iterations = 100 * (m + n) + 1000

    d = _dual_data(instance)
    w = np.array([float(entry.weight) for entry in instance.sets])
    rhs_w = w
    basis = np.arange(m, m + n)
    nonbasic = np.arange(m)
    t = np.empty((n + 1, m + 1))
    t[:n, :m] = d
    t[:n, m] = w
    t[n, :m] = 1.0
    t[n, m] = -0.0
    pi = np.zeros(n)
    iterations = since_refresh = streak = 0
    bland_pivots = cleanup_pivots = refactorizations = 0
    bland = perturbed = cleanup = False
    while True:
        step = _dual_pivot(t, basis, nonbasic) if cleanup else None
        cleanup = step is not None
        if cleanup:
            leave, enter = step
        else:
            enter = _entering(t[n, :m], nonbasic, bland)
            if enter < 0:
                if since_refresh == 0 and rhs_w is w:
                    status = STATUS_OPTIMAL
                    break
                if rhs_w is not w:
                    rhs_w = w
                    cleanup = True
                t, pi = _refactorize(d, rhs_w, basis, nonbasic)
                refactorizations += 1
                since_refresh = 0
                continue
        if iterations >= max_iterations:
            status = STATUS_ITERATION_LIMIT
            break
        if not cleanup:
            col = t[:n, enter]
            rows = (col > DEFAULT_TOL).nonzero()[0]
            if rows.size == 0:
                raise NumericalFailure("dual LP appears unbounded; corrupt tableau")
            ratios = t[rows, m] / col[rows]
            best = ratios.min()
            leave = _lowest_label(rows[ratios <= best + DEFAULT_TOL], basis)
        _pivot(t, basis, nonbasic, leave, enter)
        iterations += 1
        since_refresh += 1
        if since_refresh >= REFRESH_INTERVAL:
            t, pi = _refactorize(d, rhs_w, basis, nonbasic)
            refactorizations += 1
            since_refresh = 0
        if cleanup:
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
        if perturbed:
            bland = True
        else:
            rhs_w, delta = _perturbed_weights(d, w, basis)
            t[:n, m] += delta
            perturbed = True
            streak = 0

    if status == STATUS_ITERATION_LIMIT:
        if rhs_w is not w:
            t = _refactorize(d, w, basis, nonbasic)[0]
            refactorizations += 1
        slacks = np.flatnonzero(nonbasic >= m)
        pi = np.zeros(n)
        pi[nonbasic[slacks] - m] = -t[n, slacks]
    x = np.maximum(pi, 0.0)
    objective = float(sum(float(e.weight) * xi for e, xi in zip(instance.sets, x)))
    y = np.zeros(m)
    structural = np.flatnonzero(basis < m)
    y[basis[structural]] = t[structural, m]

    exact_obj = None
    exact_x = None
    certificate = None
    if status == STATUS_OPTIMAL:
        pair = (_snap(x), _snap(y))
        exact = certify_pair(instance, *pair)
        certificate = "snap"
        if exact is None:
            pair = _snap_to_det(_columns(d, basis), x, y, dw)
            exact = pair and certify_pair(instance, *pair)
            certificate = "det" if exact is not None else None
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
