"""Accuracy bounds for a greedy run: harmonic, trace-derived and worst-case.

All quantities except the Slavik pair are exact rationals.  The central
object is the trace bound

    G = sum_k s_k / m_{k-1},

an instance-wise upper bound on w(Gr)/w(Opt) that refines the classical
harmonic guarantee H(m); the gap Delta = H(m) - G is nonnegative and
vanishes exactly when every iteration covers a single element.  Rearranged,
G also yields the lower bound w(Gr)/G on the optimal cover weight, which
bound_report states as opt_lower; the exact solver does not prune with it.
"""

from __future__ import annotations

import io
import math
import threading
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import (
    ArgumentTooSmall,
    InvalidTrace,
    NonPositiveArgument,
    TraceMismatch,
)
from .greedy import GreedyTrace, check_trace_shape
from .instance import Cover, Instance, cover_weight

SLAVIK_LOWER_SHIFT = 0.31
SLAVIK_UPPER_SHIFT = 0.78


_HARMONIC = [Fraction(0)]  # H(0), H(1), ...: extended on demand, never recursively
_HARMONIC_LOCK = threading.Lock()


def harmonic(j: int) -> Fraction:
    """Exact j-th harmonic number sum_{k=1..j} 1/k."""
    if j < 1:
        raise NonPositiveArgument(f"harmonic needs j >= 1, got {j}")
    with _HARMONIC_LOCK:
        for k in range(len(_HARMONIC), j + 1):
            _HARMONIC.append(_HARMONIC[-1] + Fraction(1, k))
        return _HARMONIC[j]


def g_from_counts(s, m: int) -> Fraction:
    """G = sum s_k/m_{k-1} computed straight from a covering sequence."""
    g = Fraction(0)
    remaining = m
    for sk in s:
        g += Fraction(sk, remaining)
        remaining -= sk
    if remaining != 0:
        raise InvalidTrace("sequence does not sum to m")
    return g


def g_of(trace: GreedyTrace) -> Fraction:
    """Trace bound G on w(Gr)/w(Opt)."""
    check_trace_shape(trace)
    return g_from_counts(trace.s, trace.residuals[0])


def delta_of(trace: GreedyTrace) -> Fraction:
    """Gap Delta = H(m) - G via its double-sum closed form.

    Computed as sum_k sum_{i=m_k+1}^{m_{k-1}} (1/i - 1/m_{k-1}), which the
    tests check against harmonic(m) - g_of(trace) for exact agreement.
    """
    check_trace_shape(trace)
    total = Fraction(0)
    for k in range(len(trace.s)):
        m_prev = trace.residuals[k]
        m_next = trace.residuals[k + 1]
        inv_prev = Fraction(1, m_prev)
        for i in range(m_next + 1, m_prev + 1):
            total += Fraction(1, i) - inv_prev
    return total


def slavik_bounds(m: int) -> tuple[float, float]:
    """Worst-case band (T_l, T_u) = ln m - ln ln m -/+ (0.31, 0.78)."""
    if m < 3:
        raise ArgumentTooSmall(f"slavik bounds need m >= 3, got {m}")
    base = math.log(m) - math.log(math.log(m))
    return base - SLAVIK_LOWER_SHIFT, base + SLAVIK_UPPER_SHIFT


@dataclass(frozen=True)
class BoundReport:
    """Every accuracy estimate for one instance, side by side.

    m_tilde and ratio are populated only when an exact optimal cover was
    supplied; T_l/T_u are None below the m >= 3 regime they are stated for.
    """

    m: int
    m_bar: int
    m_of_s: int
    m_tilde: int | None
    H_m: Fraction
    H_m_bar: Fraction
    H_m_tilde: Fraction | None
    G: Fraction
    Delta: Fraction
    T_l: float | None
    T_u: float | None
    w_gr: Fraction
    opt_lower: Fraction
    ratio: Fraction | None


def bound_report(instance: Instance, trace: GreedyTrace,
                 opt: Cover | None = None) -> BoundReport:
    """Aggregate all bounds for the instance/trace pair.

    The trace must belong to the instance (same universe size, chosen
    indices in range, weights adding up).
    """
    check_trace_shape(trace)
    if trace.residuals[0] != instance.m:
        raise TraceMismatch(
            f"trace covers m={trace.residuals[0]}, instance has m={instance.m}"
        )
    if any(not 0 <= i < instance.n for i in trace.chosen):
        raise TraceMismatch("trace chose a set index outside the instance")
    if cover_weight(instance, trace.chosen) != trace.total_weight:
        raise TraceMismatch("trace weight disagrees with the instance weights")

    g = g_from_counts(trace.s, instance.m)
    h_m = harmonic(instance.m)
    m_bar = max(entry.size for entry in instance.sets)
    m_tilde = None
    h_tilde = None
    ratio = None
    if opt is not None:
        m_tilde = max(instance.sets[i].size for i in opt.set_indices)
        h_tilde = harmonic(m_tilde)
        ratio = trace.total_weight / opt.weight
    try:
        t_l, t_u = slavik_bounds(instance.m)
    except ArgumentTooSmall:
        t_l = t_u = None
    return BoundReport(
        m=instance.m,
        m_bar=m_bar,
        m_of_s=max(trace.s),
        m_tilde=m_tilde,
        H_m=h_m,
        H_m_bar=harmonic(m_bar),
        H_m_tilde=h_tilde,
        G=g,
        Delta=h_m - g,
        T_l=t_l,
        T_u=t_u,
        w_gr=trace.total_weight,
        opt_lower=trace.total_weight / g,
        ratio=ratio,
    )


def _approx(v: Fraction) -> str:
    """v to six decimals; inf, signed, where v is beyond the float range."""
    try:
        return f"{float(v):.6f}"
    except OverflowError:
        return "inf" if v > 0 else "-inf"


def _scalar(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return f"{v} (~{_approx(v)})"
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


_REPORT_FIELDS = tuple(f.name for f in fields(BoundReport))


def report_to_kv(report: BoundReport) -> str:
    """Flat key=value block, one field per line; empty value when absent."""
    return "".join(f"{k}={_scalar(getattr(report, k))}\n" for k in _REPORT_FIELDS)


def report_to_csv(report: BoundReport) -> str:
    out = io.StringIO()
    out.write(",".join(_REPORT_FIELDS) + "\n")
    out.write(",".join(
        _scalar(getattr(report, k)).replace(",", ";") for k in _REPORT_FIELDS
    ) + "\n")
    return out.getvalue()
