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
and z* = z(u2), and t1 solves z(u) = z* past the local minimum.  For
zeta < 1 the slope of z has one interior minimum (in log u for the t
family), as measured, not proved: one golden-section search for it
decides the tangent, and `specfun._solve_increasing` finds u2 and the
dip's end on either side.  u stays representable where t2 crowds
toward 0 as zeta approaches one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun as sf
from .specfun import SolverError
from .models import EXPONENTIAL, STUDENT_T, ModelSpec, _check_alpha_zeta, \
    crossing_at, crossing_window, null_isf, null_sf

__all__ = [
    "SolverError",
    "CrossingReport",
    "crossing_report",
]

# a dip whose least slope lies within the search's error, about 1e-12
# at a bracket of _X_RTOL, drops z below z* by less than rounding
_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)
_X_RTOL = 1e-6
_U_RTOL = 1e-14


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


def _argmin(f, a: float, b: float) -> tuple[float, float]:
    """(x, f(x)) at the least value of a unimodal f on (a, b), nan
    counted as +inf: golden-section search (Kiefer, Proc. AMS 4, 1953)
    down to a bracket of _X_RTOL relative."""
    def g(x):
        y = f(x)
        return math.inf if math.isnan(y) else y

    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = g(c), g(d)
    while b - a > _X_RTOL * max(1.0, abs(c)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = g(d)
    return (c, fc) if fc < fd else (d, fd)


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
        # z rises from t_upper and falls for good past its one maximum
        lo = u_lo + 1e-9 * max(1.0, abs(u_lo))
        u2 = sf._solve_increasing(lambda u: -slope(u), lo,
                                  max(2.0 * lo, 1.0), _U_RTOL)
        if u2 == math.inf:
            raise SolverError("crossing_report: dz/du never turned negative "
                              f"(alpha={alpha}, model={model})")
        t2, z_star, _ = crossing_at(model, u2, alpha, zeta)
        t2 = min(t2, t_upper)
        return CrossingReport(
            t1=0.0, t2=t2, has_tangent=True,
            lcp_intervals=((0.0, 0.0), (t2, t_upper)),
            z_at_tangent=z_star, t_lower=0.0, t_upper=t_upper,
            u1=math.inf, u2=u2, u_window=(u_lo, math.inf))

    u_hi = null_isf(model, t_lower)
    # a margin relative to each end keeps the search off the window's
    # ends; heavy t tails span decades of u, so t searches in log u
    lo = u_lo + 1e-10 * max(1.0, abs(u_lo))
    hi = u_hi - 1e-10 * max(1.0, abs(u_hi))
    to_u, to_v = (math.exp, math.log) if model.family == STUDENT_T \
        else (float, float)
    v_min, least = _argmin(lambda v: slope(to_u(v)), to_v(lo), to_v(hi))
    z_star = None
    u1 = u2 = u_min = to_u(v_min)
    if least < 0.0:
        u2 = sf._solve_increasing(lambda u: -slope(u), lo, u_min, _U_RTOL)
        z_star = z(u2)
        # z falls from z* to its local minimum at u_dip (within rounding
        # of t_lower if the slope is negative at hi), then rises past z*
        # at u1 (within rounding of u_hi, where z leaps to +inf, if
        # z(u_hi) < z*).  z(u_dip) >= z* is a degenerate tangency.
        u_dip = hi if slope(hi) <= 0.0 \
            else sf._solve_increasing(slope, u_min, hi, _U_RTOL)
        if z(u_dip) < z_star:
            u1 = min(sf._solve_increasing(lambda u: z(u) - z_star, u_dip,
                                          u_hi, _U_RTOL), u_hi)
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
