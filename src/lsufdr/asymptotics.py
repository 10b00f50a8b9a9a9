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
from dataclasses import asdict, dataclass

import numpy as np

from . import specfun as sf
from .crossing import SolverError, crossing_report
from .models import EXPONENTIAL, NORMAL, ModelSpec, _check_alpha_zeta, \
    _check_z, _z_of_fraction, crossing_at, crossing_window, \
    disturbance_cdf, gamma_at_zero, null_pdf, null_sf
# z_of_t stays bound here: perfbench/tracing.py wraps it
from .models import z_of_t  # noqa: F401
from .quadrature import integrate
from .stepup import _check_alpha

__all__ = [
    "AsymptoticResult",
    "ConditionalLimit",
    "LimitConstants",
    "conditional_limits",
    "g_distributions",
    "eer_fdr_normal",
    "eer_fdr_t",
    "limit_constants",
    "t_of_z",
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

    At a window end e (u_lo or u_hi), W or 1 - W behaves like |u - e|^g
    up to log factors, with g = (1 - rho)/rho for the normal family.
    Near rho = 1 that is a steep power law; near independence W climbs
    from 0 to 1 only in a layer next to u_hi thinner than the distance
    to any node of a fixed panel.  Each integral therefore runs over s
    in [0, 1] with u = e + (c - e)*s^3, c being the stretch's tangent
    end u1 or u2, and dt carries the Jacobian 3|c - e|*s^2: the nodes
    crowd toward e, and |u - e|^g turns into s^(3g + 2).
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

    def graded(f, end: float, tangent: float, tol: float):
        span = tangent - end
        scale = 3.0 * abs(span)

        def g(s: float) -> float:
            s2 = s * s
            return f(end + span * (s2 * s)) * (scale * s2)
        return integrate(g, 0.0, 1.0, tol=tol)

    if zeta == 1.0:
        val, err = graded(eer, u_lo, u2, tol)
        return AsymptoticResult(eer=t2 * w_star / alpha + val, fdr=w_star,
                                t1=t1, t2=t2, quadrature_error=err)
    # four integrals share the tolerance, so their summed error meets it
    (v1, e1), (v2, e2), (v3, e3), (v4, e4) = (
        graded(f, end, tangent, 0.25 * tol)
        for f in (eer, fdr) for end, tangent in ((u_hi, u1), (u_lo, u2)))
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


def _branch_roots(model: ModelSpec, alpha: float, zeta: float,
                  z: np.ndarray, a: float, b: float) -> np.ndarray:
    """t at the u in (a, b) where z(u) = z, for z(u) rising on (a, b).

    The crossing equation norm_sf(w) = p, with p = (sf(u) - t_lower)/
    (alpha*zeta) and w the conditional cdf's argument, needs only
    forward tails.  Its residual r = norm_sf(w) - p (Phi(w) - (1 - p)
    where p > 1/2) has the sign of z(u) - z and stays smooth where z(u)
    runs off to infinity.  A table of z(u) brackets each element and
    starts it by interpolation; Halley steps that leave the bracket
    bisect it, and only unconverged elements are evaluated again.
    Where sf(u) underflows, u counts as above the root.
    """
    if model.family == NORMAL:
        c, s = math.sqrt(model.rho), math.sqrt(model.rho_bar)

        def at(u, z):  # d log pdf/du at u; w and dw/du
            return -u, (u + c * z) / s, 1.0 / s
    else:
        nu = model.nu

        def at(u, z):
            return -(nu + 1.0) * u / (nu + u * u), z * u, z

    # uniform nodes, and nodes 1e-2 to 1e-12 of the way from either end
    ends = 10.0 ** -np.arange(12.0, 1.0, -1.0)
    nodes = a + (b - a) * np.concatenate(
        (ends, np.linspace(0.02, 0.98, 49), 1.0 - ends[::-1]))
    z_nodes = np.array([crossing_at(model, u, alpha, zeta)[1]
                        for u in nodes.tolist()])
    ok = np.isfinite(z_nodes)
    nodes, z_nodes = nodes[ok], np.maximum.accumulate(z_nodes[ok])
    edges = np.concatenate(([a], nodes, [b]))
    az, t_lower = alpha * zeta, alpha * (1.0 - zeta)
    out = np.empty(z.shape)
    # blocks bound the memory the temporaries of the solve take
    for start in range(0, z.size, 16384):
        zb = z[start:start + 16384]
        k = np.searchsorted(z_nodes, zb)
        lo, hi = edges[k], edges[k + 1]
        u = np.clip(np.interp(zb, z_nodes, nodes), lo, hi)
        idx, moved = np.arange(start, start + zb.size), np.zeros(zb.shape)
        for _ in range(100):
            t, f = null_sf(model, u), null_pdf(model, u)
            dlog_f, w, dw = at(u, zb)
            p = (t - t_lower) / az
            near = p <= 0.5
            tail = sf.norm_sf(np.where(near, w, -w))
            r = np.where(near, tail - p, (alpha - t) / az - tail)
            r[t == 0.0] = np.nan  # underflow: bisect toward the root
            fw = sf.phi(w) * dw
            r1, r2 = f / az - fw, dlog_f * f / az + w * fw * dw
            step = r * r1 / (r1 * r1 - 0.5 * r * r2)
            lo, hi = np.where(r < 0.0, u, lo), np.where(r < 0.0, hi, u)
            new = u - step
            inside = (lo <= new) & (new <= hi)
            # bisect unless the step makes progress: in rounding noise
            # steps can hop between the two ends of the bracket
            new = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
            # a small Halley step leaves an error of about its cube, but
            # near a double root the steps shrink only by a ratio
            # step/moved, and the error left is about step times that
            # ratio; steps of a few ulps may not move u at all
            scale, size = np.maximum(np.abs(u), 1.0), np.abs(step)
            done = (inside & (size <= 1e-10 * scale)
                    & ((size * size <= 1e-16 * scale * moved)
                       | (size <= 1e-15 * scale))) \
                | (hi - lo <= 1e-15 * scale)
            # t = t_lower + alpha*zeta*norm_sf(w) at the root, to first
            # order
            shift = fw * np.where(inside, step, u - new)
            out[idx[done]] = np.where(near, t_lower + az * (tail + shift),
                                      alpha - az * (tail - shift))[done]
            if done.all():
                break
            keep = ~done
            moved = np.abs(u - new)[keep]
            idx, u, lo, hi, zb = idx[keep], new[keep], lo[keep], hi[keep], \
                zb[keep]
        else:
            raise SolverError(f"t_of_z: {idx.size} roots unconverged after "
                              f"100 steps (alpha={alpha}, zeta={zeta}, "
                              f"model={model})")
    return out


def _report_roots(model: ModelSpec, alpha: float, zeta: float, rep,
                  z: np.ndarray) -> np.ndarray:
    """`t_of_z` of the normal or t family on checked 1-d z, given rep."""
    (u_lo, u_hi), finite = rep.u_window, np.isfinite(z)
    t = np.where(z == -np.inf, rep.t_upper, rep.t_lower)
    if rep.has_tangent:
        upper = finite & (z < rep.z_at_tangent)
        branches = [(upper, u_lo, rep.u2), (finite & ~upper, rep.u1, u_hi)]
    else:
        branches = [(finite, u_lo, u_hi)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for mask, a, b in branches:
            if mask.any() and a < b:
                t[mask] = _branch_roots(model, alpha, zeta, z[mask], a, b)
    return t


def _check_limit_inputs(model: ModelSpec, alpha: float,
                        zeta: float) -> tuple[float, float]:
    """alpha and zeta, checked; the exponential family also needs
    alpha <= 1/2, where its null cdf is linear up to every crossing."""
    alpha, zeta = _check_alpha_zeta(alpha, zeta)
    if model.family == EXPONENTIAL and alpha > 0.5:
        raise ValueError("the exponential family's closed-form t(z) holds "
                         "only for alpha <= 1/2")
    return alpha, zeta


def t_of_z(model: ModelSpec, alpha: float, zeta: float, z) -> np.ndarray:
    """Largest crossing point t(z) of the mixed cdf with t/alpha, on arrays.

    Returns an array of the shape of z.  One `crossing_report` splits
    the null quantile u into branches on which z(u) rises: (u_lo, u2)
    for z < z*, (u1, u_hi) past it, or the whole window without a
    tangent.  At zeta = 1 no z >= z* crosses, and t is 0 there.  z = inf
    gives t_lower, -inf t_upper, and nan raises ValueError.  Below the
    smallest normal double t has only a small absolute error.
    """
    alpha, zeta = _check_limit_inputs(model, alpha, zeta)
    z = np.asarray(_check_z(model, z), dtype=np.float64)
    if model.family == EXPONENTIAL:
        # the null cdf is linear on [0, 1/2], so the crossing equation
        # is linear in t below alpha <= 1/2; at zeta = 1 both lines pass
        # through the origin and never cross again
        if zeta == 1.0:
            return np.zeros(z.shape)
        return alpha * (1.0 - zeta) / (1.0 - 2.0 * alpha * zeta * np.exp(-z))
    rep = crossing_report(model, alpha, zeta)
    return _report_roots(model, alpha, zeta, rep, z.ravel()).reshape(z.shape)


def t_of_z_normal(alpha: float, zeta: float, rho: float, z) -> np.ndarray:
    """`t_of_z` for the normal family with correlation rho."""
    return t_of_z(ModelSpec.normal(rho), alpha, zeta, z)


def conditional_limits(model: ModelSpec, alpha: float, zeta: float,
                       z: float) -> ConditionalLimit:
    """Limits of V_n/n and the FDP conditionally on Z = z."""
    alpha, zeta = _check_limit_inputs(model, alpha, zeta)
    if zeta < 1.0:
        t = float(t_of_z(model, alpha, zeta, z))
        return ConditionalLimit(v_over_n=t / alpha - (1.0 - zeta),
                                fdp_limit=1.0 - alpha * (1.0 - zeta) / t)
    # at zeta = 1 only z < z* crosses, and t may underflow to 0 there
    z = _check_z(model, z)
    if model.family != EXPONENTIAL:
        rep = crossing_report(model, alpha, zeta)
        if z < rep.z_at_tangent:
            t = float(_report_roots(model, alpha, zeta, rep, np.array([z]))[0])
            return ConditionalLimit(v_over_n=t / alpha, fdp_limit=1.0)
    return ConditionalLimit(v_over_n=0.0,
                            fdp_limit=alpha * gamma_at_zero(model, z))


def g_distributions(model: ModelSpec, alpha: float, zeta: float,
                    u: float, which: int) -> float:
    """Cdf of the limiting V/n (which=1) or FDP (which=2) at u.

    Both are P(t(Z) <= t) for the t that u maps to, 1 at or above the
    top of t(Z)'s range, t_upper or, for the exponential family, t(0).
    t rounds to t_lower for u below about 1e-16, so the crossing
    quantile takes t's place in the window, p, as formed from u.
    """
    alpha, zeta = _check_limit_inputs(model, alpha, zeta)
    u = float(u)
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if not 0.0 < u < zeta:
        raise ValueError("u must lie in (0, zeta)")
    if which == 1:
        t = alpha * (u + 1.0 - zeta)
        p, pc = u / zeta, (zeta - u) / zeta
    else:
        if zeta == 1.0:
            raise ValueError("the FDP distribution needs zeta < 1")
        t = alpha * (1.0 - zeta) / (1.0 - u)
        p = (1.0 - zeta) * u / (zeta * (1.0 - u))
        pc = (zeta - u) / (zeta * (1.0 - u))
    # exponential: t(Z) tops out at t(0), where exp(-z) = p/(2t) is 1
    if t >= crossing_window(model, alpha, zeta)[1] or (
            model.family == EXPONENTIAL and p >= 2.0 * t):
        return 1.0
    if p <= 0.0:  # (1 - zeta)*u underflowed
        return 0.0
    if model.family != EXPONENTIAL:
        rep = crossing_report(model, alpha, zeta)
        if rep.has_tangent and rep.t1 < t < rep.t2:
            # no largest crossing lies in the gap: t(Z) <= t iff Z >= z*
            return 1.0 - disturbance_cdf(model, rep.z_at_tangent)
    return 1.0 - disturbance_cdf(model, _z_of_fraction(model, t, p, pc))


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
        return asdict(self)


def limit_constants(alpha: float) -> LimitConstants:
    """Discontinuity constant and independent-case baselines.

    The discontinuity constant Phi(-sqrt(-2 log alpha)) applies for
    alpha <= 1/2 and is reported as None otherwise.
    """
    alpha = _check_alpha(alpha)
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
    alpha, gamma = _check_alpha(alpha), float(gamma)
    if not gamma >= 0.0:
        raise ValueError("gamma must be nonnegative")
    prod = alpha * gamma
    if prod > 1.0 + 1e-12:
        raise ValueError("gamma must not exceed 1/alpha")
    if prod >= 1.0 - 1e-15:
        return math.inf
    return prod / (1.0 - prod) ** 2
