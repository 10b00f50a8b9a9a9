"""Crossing and tangency solver against the rejection line t/alpha.

The limiting p-value cdf of a disturbance value z either crosses the
line t/alpha transversally or touches it at a tangent point.  The
tangent configuration separates disturbance values with a large
rejection proportion from those with a small one, and its location
drives every limiting EER/FDR formula downstream.

The geometry is a property of the crossing map z(u) alone
(`models.crossing_at`): the disturbance whose mixed cdf meets the line
at t = sf(u), u the null quantile.  A tangent exists when z turns down
on its way up from t_upper to t_lower; the turning point u2 gives t2
and z* = z(u2), and t1 solves z(u) = z* past the local minimum.  One
solver, a sign scan of dz/du and bisection, serves both families; u
stays representable where t2 crowds toward 0 as zeta approaches one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun as sf
from .models import EXPONENTIAL, STUDENT_T, ModelSpec, _check_alpha_zeta, \
    crossing_at, crossing_window, null_isf, null_sf

__all__ = [
    "SolverError",
    "TangencySolution",
    "CrossingReport",
    "distance_normal",
    "solve_tangency_normal",
    "solve_tangency_t",
    "crossing_report",
]

_SCAN_CELLS = 1000
_SCAN_STRIDE = 10
_BISECT_REL = 1e-14


class SolverError(RuntimeError):
    """Raised when a bracket scan fails; the message carries diagnostics."""


@dataclass(frozen=True)
class TangencySolution:
    """Tangent point: null quantile, disturbance value and t."""

    u_star: float
    z_star: float
    t2: float


@dataclass(frozen=True)
class CrossingReport:
    """Largest-crossing-point structure for a (model, alpha, zeta) triple.

    u1, u2 and u_window are the null quantiles of t1, t2 and of
    (t_upper, t_lower), inf for t = 0, kept so a caller can work in u.
    """

    t1: float
    t2: float
    has_tangent: bool
    lcp_intervals: tuple[tuple[float, float], ...]
    z_at_tangent: float | None
    t_lower: float
    t_upper: float
    u1: float
    u2: float
    u_window: tuple[float, float]


def distance_normal(u: float, x0: float, zeta: float, alpha: float,
                    rho: float) -> float:
    """Gap between the transformed mixed cdf and the rejection line.

    Positive values mean the limiting cdf sits above the line at
    t = 1 - Phi(u) for disturbance x0.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly between 0 and 1")
    alpha, zeta = _check_alpha_zeta(alpha, zeta)
    rb = 1.0 - rho
    w = u / math.sqrt(rb) + math.sqrt(rho / rb) * x0
    return (1.0 - zeta) + zeta * sf.norm_sf(w) - sf.norm_sf(u) / alpha


def _bisect(f, a: float, b: float, fa: float | None = None) -> float:
    """Root of f in the bracket [a, b] across which f changes sign.

    `fa` is f(a), or any value with its sign, when the caller knows it.
    Halves the bracket until it is _BISECT_REL wide relative to its ends
    and returns the midpoint, or a point where f is exactly zero.
    """
    if fa is None:
        fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
        if abs(b - a) <= _BISECT_REL * max(1.0, abs(a), abs(b)):
            break
    return 0.5 * (a + b)


def _scan(h, x_start: float, x_end: float, count: int):
    """Brackets (a, b, h(a)) of the first `count` sign changes of h, from
    x_start toward x_end, and the grid point of least h.

    The grid has _SCAN_CELLS cells.  Every _SCAN_STRIDE-th point is
    visited first; without a sign change there, the two coarse cells
    around the least value, where a narrower dip below zero would sit,
    are filled in.  nan values of h are skipped.
    """
    def sweep(grid):
        brackets, prev, lowest = [], None, (math.inf, grid[0])
        for x in grid:
            f = h(x)
            if math.isnan(f):
                continue
            lowest = min(lowest, (f, x))
            if prev is not None and (f > 0.0) != (prev[0] > 0.0):
                brackets.append((prev[1], x, prev[0]))
                if len(brackets) == count:
                    break
            prev = (f, x)
        return brackets, lowest[1]

    xs = [x_start - (x_start - x_end) * i / _SCAN_CELLS
          for i in range(_SCAN_CELLS + 1)]
    brackets, x_near = sweep(xs[::_SCAN_STRIDE])
    if brackets:
        return brackets, x_near
    k = xs.index(x_near)
    return sweep(xs[max(k - _SCAN_STRIDE, 0):k + _SCAN_STRIDE + 1])


def _tangency(rep: CrossingReport):
    if rep.z_at_tangent is None:
        return None
    return TangencySolution(u_star=rep.u2, z_star=rep.z_at_tangent, t2=rep.t2)


def solve_tangency_normal(alpha: float, zeta: float, rho: float):
    """Tangent point of the normal-family mixed cdf, or None.

    u_star is the normal quantile of t2.  For zeta = 1 a tangent always
    exists; for zeta < 1 None means the crossing set is one interval.
    """
    return _tangency(crossing_report(ModelSpec.normal(rho), alpha, zeta))


def solve_tangency_t(alpha: float, zeta: float, nu: float):
    """Tangent point of the t-family mixed cdf, or None.

    u_star is the t quantile of t2 and z_star the disturbance s; at
    zeta = 1 they solve the classical pair alpha*Phi(-s u) = F_t(-u),
    s*alpha*phi(s u) = f_t(u).
    """
    return _tangency(crossing_report(ModelSpec.student_t(nu), alpha, zeta))


def crossing_report(model: ModelSpec, alpha: float,
                    zeta: float) -> CrossingReport:
    """Assemble the largest-crossing-point set for one configuration.

    The exponential family is excluded: its crossings are linear and
    handled in closed form by the exact-identity module.
    """
    alpha, zeta = _check_alpha_zeta(alpha, zeta)
    if model.family == EXPONENTIAL:
        raise ValueError("crossing_report covers the normal and student_t "
                         "families; the exponential family is analytic")
    if model.family == STUDENT_T and alpha > 0.5:
        raise ValueError("the t-family analysis requires alpha <= 1/2")
    t_lower, t_upper = crossing_window(model, alpha, zeta)
    u_lo = null_isf(model, t_upper)

    def z(u: float) -> float:
        return crossing_at(model, u, alpha, zeta)[1]

    def slope(u: float) -> float:
        return crossing_at(model, u, alpha, zeta)[2]

    if zeta == 1.0:
        # z rises from t_upper and falls for good past its one maximum:
        # bracket by geometric expansion, then bisect
        lo = u_lo + 1e-9 * max(1.0, abs(u_lo))
        hi = max(2.0 * lo, 1.0)
        for _ in range(400):
            if slope(hi) < 0.0:
                break
            lo, hi = hi, 1.5 * hi
        else:
            raise SolverError("crossing_report: dz/du never turned negative "
                              f"(alpha={alpha}, model={model})")
        u2 = _bisect(slope, lo, hi)
        t2, z_star, _ = crossing_at(model, u2, alpha, zeta)
        t2 = min(t2, t_upper)
        return CrossingReport(
            t1=0.0, t2=t2, has_tangent=True,
            lcp_intervals=((0.0, 0.0), (t2, t_upper)),
            z_at_tangent=z_star, t_lower=0.0, t_upper=t_upper,
            u1=math.inf, u2=u2, u_window=(u_lo, math.inf))

    u_hi = null_isf(model, t_lower)
    # heavy t tails can make u_hi exceed u_lo by many decades: keep the
    # scan's ends off the window's ends by a margin relative to each
    hi = u_hi - 1e-10 * max(1.0, abs(u_hi))
    brackets, u_near = _scan(slope, u_lo + 1e-10 * max(1.0, abs(u_lo)),
                             hi, 2)
    z_star = None
    u1 = u2 = u_near
    if brackets:
        u2 = _bisect(slope, *brackets[0])
        z_star = z(u2)
        # z falls from z* to a local minimum in the second bracket, then
        # rises past z* at u1; without a second bracket the minimum lies
        # within rounding of t_lower, past the scan's end.  gap >= 0 is
        # a degenerate tangency.
        u_dip = brackets[1][0] if len(brackets) > 1 else hi
        gap = z(u_dip) - z_star
        if gap < 0.0:
            u1 = _bisect(lambda u: z(u) - z_star, u_dip, u_hi, gap)
    # without a tangent the closest approach stands in for t1 = t2, so
    # the endpoints move continuously through the tangent birth
    t2 = min(max(null_sf(model, u2), t_lower), t_upper)
    t1 = min(max(null_sf(model, u1), t_lower), t2)
    if t1 == t2:
        u1 = u2
    return CrossingReport(
        t1=t1, t2=t2, has_tangent=t1 < t2,
        lcp_intervals=((t_lower, t1), (t2, t_upper)) if t1 < t2
        else ((t_lower, t_upper),),
        z_at_tangent=z_star, t_lower=t_lower, t_upper=t_upper,
        u1=u1, u2=u2, u_window=(u_lo, u_hi))
