"""Crossing and tangency solvers against the rejection line t/alpha.

The limiting p-value cdf of a disturbance value z either crosses the
line t/alpha transversally or touches it at a tangent point.  The
tangent configuration separates disturbance values with a large
rejection proportion from those with a small one, and its location
drives every limiting EER/FDR formula downstream.

All root finding happens in the transformed coordinate u (a normal or
t quantile of 1 - t) because tangent points crowd toward t = 0 when the
true-null proportion approaches one; for the fully-null case the
distance function is evaluated through log tail probabilities with the
quadratic terms cancelled analytically, which keeps its sign reliable
even where the tail masses underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun as sf
from .models import EXPONENTIAL, NORMAL, ModelSpec

__all__ = [
    "SolverError",
    "TangencySolution",
    "CrossingReport",
    "distance_normal",
    "critical_u_pair",
    "solve_tangency_normal",
    "solve_tangency_t",
    "crossing_report",
]

_SCAN_CELLS = 1000
_SCAN_SPAN = 50.0
_BISECT_REL = 1e-14


class SolverError(RuntimeError):
    """Raised when a bracket scan fails; the message carries diagnostics."""


@dataclass(frozen=True)
class TangencySolution:
    """Simultaneous root of the tangency system."""

    u_star: float
    z_star: float
    t2: float


@dataclass(frozen=True)
class CrossingReport:
    """Largest-crossing-point structure for a (model, alpha, zeta) triple."""

    t1: float
    t2: float
    has_tangent: bool
    lcp_intervals: tuple[tuple[float, float], ...]
    z_at_tangent: float | None
    t_lower: float
    t_upper: float


def _check_alpha_zeta(alpha: float, zeta: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not 0.0 < zeta <= 1.0:
        raise ValueError("zeta must lie in (0, 1]")
    return float(alpha), float(zeta)


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


def _mills_corr(x: float) -> float:
    # log(x * sqrt(2 pi) * exp(x^2/2) * Phi(-x)); tends to 0 as x grows
    return math.log(x * math.sqrt(0.5 * math.pi) * sf.erfcx(x / math.sqrt(2.0)))


def _dist_sign_zeta1(u: float, x0: float, alpha: float, rho: float) -> float:
    """Sign-faithful distance for zeta = 1, valid arbitrarily far out.

    Returns log Phi(-w) - log Phi(-u) + log alpha, whose sign matches
    the distance.  For large u the quadratic parts are differenced
    analytically so the tiny residual survives rounding.
    """
    rb = 1.0 - rho
    sq = math.sqrt(rb)
    w = (u + math.sqrt(rho) * x0) / sq
    if u > 30.0 and w > 30.0:
        du = (u * (-rho / (1.0 + sq)) - math.sqrt(rho) * x0) / sq  # u - w
        return (du * (u + w) / 2.0 + math.log1p(du / w)
                + _mills_corr(w) - _mills_corr(u) + math.log(alpha))
    return sf.norm_logsf(w) - sf.norm_logsf(u) + math.log(alpha)


def critical_u_pair(x0: float, zeta: float, alpha: float,
                    rho: float):
    """Stationary points of the normal distance function, or None.

    Real solutions require x0^2 >= 2 log(sqrt(1-rho)/(alpha*zeta)); the
    second entry (minus branch) is the one tangency solutions live on.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly between 0 and 1")
    alpha, zeta = _check_alpha_zeta(alpha, zeta)
    rb = 1.0 - rho
    ell = math.log(math.sqrt(rb) / (alpha * zeta))
    disc = x0 * x0 - 2.0 * ell
    if disc < 0.0:
        # rounding-level negatives at the double-root boundary count as zero
        if disc < -1e-12 * max(1.0, x0 * x0):
            return None
        disc = 0.0
    root = math.sqrt(rb / rho) * math.sqrt(disc)
    base = -x0 / math.sqrt(rho)
    return base + root, base - root


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


def _scan_root(h, x_start: float, x_end: float, cells: int):
    """First sign change of h scanning from x_start toward x_end.

    Returns (root, x_at_min_abs_h); the root is None when h never
    changes sign over the scan window, in which case the second entry
    locates the closest approach to zero.  Non-finite values of h are
    skipped.
    """
    xs = [x_start - (x_start - x_end) * i / cells for i in range(cells + 1)]
    bracket = None
    f_prev = math.nan
    x_prev = xs[0]
    best = (math.inf, xs[0])
    for x in xs:
        f = h(x)
        if not math.isfinite(f):
            continue
        if abs(f) < best[0]:
            best = (abs(f), x)
        if f == 0.0:
            return x, x
        if math.isfinite(f_prev) and (f > 0.0) != (f_prev > 0.0):
            bracket = (x, x_prev)
            break
        f_prev, x_prev = f, x
    if bracket is None:
        return None, best[1]
    root = _bisect(h, *bracket)
    return root, root


def solve_tangency_normal(alpha: float, zeta: float, rho: float):
    """Tangent point of the normal-family mixed cdf, or None.

    Scans the disturbance coordinate downward from the stationary-point
    boundary and bisects the first sign change of the distance at the
    minus-branch stationary point.  For zeta = 1 a tangent always
    exists; for zeta < 1 absence of a sign change means the crossing
    set is a single interval and None is returned.
    """
    return _tangency_normal(alpha, zeta, rho)[0]


def _tangency_normal(alpha: float, zeta: float, rho: float):
    """(solution, None), or (None, t of the closest approach) when the
    scan finds no tangent."""
    alpha, zeta = _check_alpha_zeta(alpha, zeta)
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly between 0 and 1")
    rb = 1.0 - rho
    ell = math.log(math.sqrt(rb) / (alpha * zeta))
    x_hi = -math.sqrt(2.0 * ell) if ell >= 0.0 else 40.0

    def h(x0: float) -> float:
        pair = critical_u_pair(x0, zeta, alpha, rho)
        if pair is None:
            return math.nan
        u2 = pair[1]
        if zeta == 1.0:
            return _dist_sign_zeta1(u2, x0, alpha, rho)
        return distance_normal(u2, x0, zeta, alpha, rho)

    x_star, x_nearest = _scan_root(h, x_hi, x_hi - _SCAN_SPAN, _SCAN_CELLS)
    if x_star is None:
        if zeta == 1.0:
            # the root can sit within rounding distance of the window
            # boundary; accept the closest approach if it is there
            if abs(h(x_nearest)) < 1e-9:
                x_star = x_nearest
            else:
                raise SolverError(
                    "solve_tangency_normal: no tangent found for zeta=1 in "
                    f"[{x_hi - _SCAN_SPAN}, {x_hi}] over {_SCAN_CELLS} cells "
                    f"(alpha={alpha}, rho={rho})")
        else:
            pair = critical_u_pair(x_nearest, zeta, alpha, rho)
            if pair is None:
                return None, alpha * (1.0 - 0.5 * zeta)
            return None, sf.norm_sf(pair[1])
    u_star = critical_u_pair(x_star, zeta, alpha, rho)[1]
    t2 = math.exp(sf.norm_logsf(u_star)) if u_star > 0 else sf.norm_sf(u_star)
    return TangencySolution(u_star=u_star, z_star=x_star, t2=t2), None


def _t_elimination_s(u: float, alpha: float, zeta: float, nu: float) -> float:
    """s(u) solving the first tangency equation for the t family."""
    if zeta == 1.0:
        lq = sf.t_logsf(u, nu) - math.log(alpha)
        return sf.norm_isf_log(lq) / u
    q = (sf.t_sf(u, nu) / alpha - (1.0 - zeta)) / zeta
    if not 0.0 < q < 0.5:
        raise ValueError("u outside the admissible tangency window")
    return sf.norm_isf(q) / u


def _t_gradient_residual(u: float, alpha: float, zeta: float,
                         nu: float) -> float:
    # log of zeta*s*alpha*phi(s*u) minus log of the t density at u
    s = _t_elimination_s(u, alpha, zeta, nu)
    if s <= 0.0:
        return -math.inf
    su = s * u
    return (math.log(zeta * s * alpha) - 0.5 * su * su
            - 0.5 * math.log(2.0 * math.pi) - sf.t_logpdf(u, nu))


def solve_tangency_t(alpha: float, zeta: float, nu: float):
    """Tangent point of the t-family mixed cdf, or None.

    The first tangency equation is solved for s as a function of u and
    the second is root-found in u.  For zeta < 1 both equations carry
    the true-null proportion as a factor; they reduce to the classical
    pair alpha*Phi(-s u) = F_t(-u), s*alpha*phi(s u) = f_t(u) when
    zeta = 1.
    """
    return _tangency_t(alpha, zeta, nu)[0]


def _tangency_t(alpha: float, zeta: float, nu: float):
    """(solution, None), or (None, t of the closest approach) when the
    scan finds no tangent."""
    alpha, zeta = _check_alpha_zeta(alpha, zeta)
    if alpha > 0.5:
        raise ValueError("the t-family analysis requires alpha <= 1/2")
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    t_upper = alpha * (1.0 - 0.5 * zeta)
    u_lo = sf.t_isf(t_upper, nu)

    if zeta == 1.0:
        # r is -inf at the low end and grows without bound: bracket by
        # geometric expansion, then bisect.
        lo = u_lo * (1.0 + 1e-9) + 1e-12
        hi = max(2.0 * lo, 1.0)
        for _ in range(400):
            if _t_gradient_residual(hi, alpha, zeta, nu) > 0.0:
                break
            lo = hi
            hi *= 1.5
        else:
            raise SolverError("solve_tangency_t: gradient residual never "
                              f"turned positive (alpha={alpha}, nu={nu})")
        u_star = _bisect(lambda u: _t_gradient_residual(u, alpha, zeta, nu),
                         lo, hi)
    else:
        t_lower = alpha * (1.0 - zeta)
        u_hi = sf.t_isf(t_lower, nu)
        span = u_hi - u_lo
        lo = u_lo + 1e-10 * max(1.0, span)
        hi = u_hi - 1e-10 * max(1.0, span)

        def r(u: float) -> float:
            try:
                return _t_gradient_residual(u, alpha, zeta, nu)
            except ValueError:
                return math.nan

        # ascending scan: the first root is the tangency bounding the
        # upper crossing interval
        u_star, u_nearest = _scan_root(r, lo, hi, _SCAN_CELLS)
        if u_star is None:
            return None, sf.t_sf(u_nearest, nu)

    s_star = _t_elimination_s(u_star, alpha, zeta, nu)
    t2 = math.exp(sf.t_logsf(u_star, nu))
    return TangencySolution(u_star=u_star, z_star=s_star, t2=t2), None


def _smaller_crossing_normal(sol: TangencySolution, alpha: float,
                             zeta: float, rho: float) -> float:
    # crossing below the tangent point: bracket [u1, u at t_lower]
    pair = critical_u_pair(sol.z_star, zeta, alpha, rho)
    u1 = pair[0]
    u_max = sf.norm_isf(alpha * (1.0 - zeta))

    def d(u: float) -> float:
        return distance_normal(u, sol.z_star, zeta, alpha, rho)

    b = u_max * (1.0 - 1e-12) if u_max > 0 else u_max + 1e-12
    fa = d(u1)
    if fa > 0.0:
        # degenerate tangency: no dip below the line
        return sol.t2
    return sf.norm_sf(_bisect(d, u1, b, fa))


def _smaller_crossing_t(sol: TangencySolution, alpha: float, zeta: float,
                        nu: float) -> float:
    u_max = sf.t_isf(alpha * (1.0 - zeta), nu)
    s = sol.z_star

    def d(u: float) -> float:
        return (1.0 - zeta) + zeta * sf.norm_sf(s * u) \
            - sf.t_sf(u, nu) / alpha

    # step off the tangent until the distance is negative
    for delta in (1e-8, 1e-6, 1e-4, 1e-3, 1e-2):
        a = sol.u_star * (1.0 + delta)
        if a >= u_max:
            break
        fa = d(a)
        if fa < 0.0:
            return sf.t_sf(_bisect(d, a, u_max * (1.0 - 1e-12), fa), nu)
    return sol.t2


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
    t_lower = alpha * (1.0 - zeta)
    if model.family == NORMAL:
        t_upper = alpha
        sol, near = _tangency_normal(alpha, zeta, model.rho)
    else:
        t_upper = alpha * (1.0 - 0.5 * zeta)
        sol, near = _tangency_t(alpha, zeta, model.nu)

    if zeta == 1.0:
        if sol is None:
            raise SolverError("tangent point must exist for zeta = 1")
        t2 = min(max(sol.t2, 0.0), t_upper)
        return CrossingReport(
            t1=0.0, t2=t2, has_tangent=True,
            lcp_intervals=((0.0, 0.0), (t2, t_upper)),
            z_at_tangent=sol.z_star, t_lower=0.0, t_upper=t_upper)

    if sol is None:
        # the closest approach to tangency stands in for t1 = t2, so the
        # endpoints move continuously through the tangent birth
        near = min(max(near, t_lower), t_upper)
        return CrossingReport(
            t1=near, t2=near, has_tangent=False,
            lcp_intervals=((t_lower, t_upper),),
            z_at_tangent=None, t_lower=t_lower, t_upper=t_upper)

    if model.family == NORMAL:
        t1 = _smaller_crossing_normal(sol, alpha, zeta, model.rho)
    else:
        t1 = _smaller_crossing_t(sol, alpha, zeta, model.nu)
    t2 = min(max(sol.t2, t_lower), t_upper)
    t1 = min(max(t1, t_lower), t2)
    if t1 == t2:
        return CrossingReport(
            t1=t1, t2=t2, has_tangent=False,
            lcp_intervals=((t_lower, t_upper),),
            z_at_tangent=sol.z_star, t_lower=t_lower, t_upper=t_upper)
    return CrossingReport(
        t1=t1, t2=t2, has_tangent=True,
        lcp_intervals=((t_lower, t1), (t2, t_upper)),
        z_at_tangent=sol.z_star, t_lower=t_lower, t_upper=t_upper)
