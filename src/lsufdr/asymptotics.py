"""Limiting expected error rate and false discovery rate.

Conditionally on the disturbance, the rejection proportion of the
step-up procedure converges to t(z)/alpha where t(z) is the largest
crossing point of the limiting cdf with the line t/alpha.  Averaging
the conditional limits over the disturbance yields closed quadrature
formulas in which the crossing interval endpoints t1, t2 from the
tangency analysis split the integration range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .crossing import _bisect, crossing_report
from .models import EXPONENTIAL, ModelSpec, _check_alpha_zeta, crossing_at, \
    disturbance_cdf, gamma_at_zero, null_pdf, z_of_t
from .quadrature import integrate

__all__ = [
    "AsymptoticResult",
    "ConditionalLimit",
    "LimitConstants",
    "conditional_limits",
    "g_distributions",
    "eer_fdr_normal",
    "eer_fdr_t",
    "limit_constants",
    "expected_false_rejections_all_true",
]


@dataclass(frozen=True)
class AsymptoticResult:
    """Limiting EER and FDR with the crossing endpoints used."""

    eer: float
    fdr: float
    t1: float
    t2: float
    quadrature_error: float


@dataclass(frozen=True)
class ConditionalLimit:
    """Almost-sure limits of V_n/n and the FDP given Z = z."""

    v_over_n: float
    fdp_limit: float


def _eer_fdr(model: ModelSpec, alpha: float, zeta: float,
             tol: float) -> AsymptoticResult:
    """EER and FDR as integrals over the null quantile u.

    Both integrate the weight W = P(Z <= z(u)) against dt = -pdf(u) du:
    the EER against dt/alpha, the FDR against d(1 - t_lower/t) =
    t_lower*dt/t^2, over the stretches [t_lower, t1] and [t2, t_upper]
    of largest crossing points.  Across the gap (t1, t2) the weight is
    the constant W(z*).
    """
    rep = crossing_report(model, alpha, zeta)
    t1, t2, t_lower = rep.t1, rep.t2, rep.t_lower
    (u_lo, u_hi), u1, u2 = rep.u_window, rep.u1, rep.u2
    w_star = disturbance_cdf(model, rep.z_at_tangent) \
        if rep.z_at_tangent is not None else 0.0
    seen = {}  # the EER and FDR integrals share their first nodes

    def weight_dt(u: float):
        if u not in seen:
            t, z, _ = crossing_at(model, u, alpha, zeta)
            seen[u] = t, disturbance_cdf(model, z) * null_pdf(model, u)
        return seen[u]

    def eer(u: float) -> float:
        return weight_dt(u)[1] / alpha

    def fdr(u: float) -> float:
        t, w = weight_dt(u)
        return w * t_lower / (t * t)

    if zeta == 1.0:
        val, err = integrate(eer, u_lo, u2, tol=tol)
        return AsymptoticResult(eer=t2 * w_star / alpha + val, fdr=w_star,
                                t1=t1, t2=t2, quadrature_error=err)
    # four integrals share the tolerance, so their summed error meets it
    (v1, e1), (v2, e2), (v3, e3), (v4, e4) = (
        integrate(f, a, b, tol=0.25 * tol)
        for f in (eer, fdr) for a, b in ((u1, u_hi), (u_lo, u2)))
    gap = w_star if rep.has_tangent else 0.0
    return AsymptoticResult(eer=(t2 - t1) / alpha * gap + v1 + v2,
                            fdr=(t_lower / t1 - t_lower / t2) * gap + v3 + v4,
                            t1=t1, t2=t2, quadrature_error=e1 + e2 + e3 + e4)


def eer_fdr_normal(alpha: float, zeta: float, rho: float,
                   tol: float = 1e-8) -> AsymptoticResult:
    """Limiting EER and FDR for the equi-correlated normal family."""
    return _eer_fdr(ModelSpec.normal(rho), float(alpha), float(zeta), tol)


def eer_fdr_t(alpha: float, zeta: float, nu: float,
              tol: float = 1e-8) -> AsymptoticResult:
    """Limiting EER and FDR for the studentized family.

    Supported degrees of freedom are nu >= 0.5; the behaviour of the
    model as nu tends to zero is left open.
    """
    if nu < 0.5:
        raise ValueError("eer_fdr_t supports nu >= 0.5")
    return _eer_fdr(ModelSpec.student_t(nu), float(alpha), float(zeta), tol)


# ---------------------------------------------------------------------------
# Conditional limits.


def _largest_crossing(model: ModelSpec, alpha: float, zeta: float,
                      z: float) -> float | None:
    """Largest t in the admissible window with mixed cdf equal t/alpha.

    Returns None when no crossing exists (possible only for zeta = 1).
    Uses the monotone branches of z(t): above the tangent point the
    crossing location decreases in z, below it as well, so each branch
    bisects cleanly.
    """
    t_lower = alpha * (1.0 - zeta)
    if model.family == EXPONENTIAL:
        # the null cdf is linear on [0, 1/2], so the crossing equation
        # is linear in t below alpha <= 1/2 and solves in closed form;
        # at zeta = 1 both lines pass through the origin and never
        # cross again
        if zeta == 1.0:
            return None
        return alpha * (1.0 - zeta) / (1.0 - 2.0 * alpha * zeta * math.exp(-z))

    rep = crossing_report(model, alpha, zeta)
    if rep.has_tangent and rep.z_at_tangent is not None:
        if z < rep.z_at_tangent:
            a, b = max(rep.t2, 5e-324), rep.t_upper
        else:
            if zeta == 1.0:
                return None
            a, b = t_lower, rep.t1
    else:
        a, b = t_lower, rep.t_upper
    a = a * (1.0 + 1e-15) + 1e-320
    b = b * (1.0 - 1e-15)
    if not a < b:
        return None
    # z(t) - z is positive at the low end of the branch
    return _bisect(lambda t: z_of_t(model, t, alpha, zeta) - z, a, b, fa=1.0)


def conditional_limits(model: ModelSpec, alpha: float, zeta: float,
                       z: float) -> ConditionalLimit:
    """Limits of V_n/n and the FDP conditionally on Z = z."""
    alpha, zeta = _check_alpha_zeta(alpha, zeta)
    if zeta == 1.0:
        t = _largest_crossing(model, alpha, zeta, z)
        if t is None:
            return ConditionalLimit(v_over_n=0.0,
                                    fdp_limit=alpha * gamma_at_zero(model, z))
        return ConditionalLimit(v_over_n=t / alpha, fdp_limit=1.0)
    t = _largest_crossing(model, alpha, zeta, z)
    return ConditionalLimit(v_over_n=t / alpha - (1.0 - zeta),
                            fdp_limit=1.0 - alpha * (1.0 - zeta) / t)


def g_distributions(model: ModelSpec, alpha: float, zeta: float,
                    u: float, which: int) -> float:
    """Cdf of the limiting V/n (which=1) or FDP (which=2) at u."""
    alpha = float(alpha)
    zeta = float(zeta)
    u = float(u)
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if not 0.0 < u < zeta:
        raise ValueError("u must lie in (0, zeta)")
    if which == 1:
        t = alpha * (u + 1.0 - zeta)
    else:
        if zeta == 1.0:
            raise ValueError("the FDP distribution needs zeta < 1")
        t = alpha * (1.0 - zeta) / (1.0 - u)
    return 1.0 - disturbance_cdf(model, z_of_t(model, t, alpha, zeta))


# ---------------------------------------------------------------------------
# Closed-form limits and baselines.


@dataclass(frozen=True)
class LimitConstants:
    """Closed-form limits for one alpha."""

    fdr_discontinuity: float | None
    ene_lsu: float
    ene_lsd: float
    eer_sup_indep: float
    zeta_worst: float

    def as_dict(self) -> dict:
        return {
            "fdr_discontinuity": self.fdr_discontinuity,
            "ene_lsu": self.ene_lsu,
            "ene_lsd": self.ene_lsd,
            "eer_sup_indep": self.eer_sup_indep,
            "zeta_worst": self.zeta_worst,
        }


def limit_constants(alpha: float) -> LimitConstants:
    """Discontinuity constant and independent-case baselines.

    The discontinuity constant Phi(-sqrt(-2 log alpha)) applies for
    alpha <= 1/2 and is reported as None otherwise.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    disc = sf.Phi(-math.sqrt(-2.0 * math.log(alpha))) if alpha <= 0.5 else None
    root = math.sqrt(1.0 - alpha)
    return LimitConstants(
        fdr_discontinuity=disc,
        ene_lsu=alpha / (1.0 - alpha) ** 2,
        ene_lsd=alpha / (1.0 - alpha),
        eer_sup_indep=(1.0 - root) ** 2 / alpha,
        zeta_worst=(1.0 - root) / alpha,
    )


def expected_false_rejections_all_true(alpha: float, gamma: float) -> float:
    """Limiting expected number of false rejections when all nulls hold.

    The null p-value cdf is linear at zero with slope gamma; the limit
    is alpha*gamma/(1-alpha*gamma)^2, diverging as gamma reaches
    1/alpha.
    """
    alpha = float(alpha)
    gamma = float(gamma)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    prod = alpha * gamma
    if prod > 1.0 + 1e-12:
        raise ValueError("gamma must not exceed 1/alpha")
    if prod >= 1.0 - 1e-15:
        return math.inf
    return prod / (1.0 - prod) ** 2


# ---------------------------------------------------------------------------
# Vectorized crossing locations for the normal family (Monte Carlo
# integration of conditional limits over many disturbance draws).


def t_of_z_normal(alpha: float, zeta: float, rho: float, z) -> np.ndarray:
    """Vectorized largest crossing point t(z) for the normal family.

    Requires zeta < 1 so every disturbance value has a crossing.
    """
    alpha = float(alpha)
    zeta = float(zeta)
    if not 0.0 < zeta < 1.0:
        raise ValueError("t_of_z_normal requires zeta in (0, 1)")
    z = np.asarray(z, dtype=np.float64)
    model = ModelSpec.normal(rho)
    rep = crossing_report(model, alpha, zeta)
    t_lower = rep.t_lower
    if rep.has_tangent and rep.z_at_tangent is not None:
        upper_branch = z < rep.z_at_tangent
        lo = np.where(upper_branch, rep.t2, t_lower)
        hi = np.where(upper_branch, rep.t_upper, rep.t1)
    else:
        lo = np.full(z.shape, t_lower)
        hi = np.full(z.shape, rep.t_upper)
    lo = lo * (1.0 + 1e-15) + 1e-320
    hi = hi * (1.0 - 1e-15)
    rb = 1.0 - rho
    c1 = math.sqrt(rb / rho)
    c2 = 1.0 / math.sqrt(rho)
    for _ in range(72):
        mid = 0.5 * (lo + hi)
        # raw rational quantile: its 1e-9 relative error is far below
        # the bisection resolution actually used
        x0 = c1 * sf._ppf_raw((1.0 - mid / alpha) / zeta) \
            + c2 * sf._ppf_raw(mid)
        above = x0 > z
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)
