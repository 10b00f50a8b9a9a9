"""Globally adaptive Gauss-Kronrod quadrature (7-15 pair).

The interval is covered by a list of panels, each with a GK15 value and
error estimate.  The panel with the largest error is split in two until
the summed estimate meets the requested absolute tolerance (QUADPACK's
QAG strategy, Piessens et al. 1983).  Because the tolerance is global, a
sliver whose whole contribution is below it is never refined for its
own sake.  Panels narrower than 1e-15 relative are retired with their
estimate, and a fixed evaluation budget bounds the work: exhausting it
raises `QuadratureError` instead of returning an untrusted value.

Endpoints are never evaluated, which matters here because the EER/FDR
integrands have unbounded derivatives at interval ends.  The interval
starts as two panels split at its midpoint: one GK15 panel's error
estimate can miss an endpoint singularity that its halves expose.
Bisection alone pays for a power-law end with one split per halving,
and mass confined to a layer between the end and the outermost node is
never seen at all.  So `asymptotics._eer_fdr` does not hand over its
integrals in the null quantile u but in s on [0, 1], with u = e +
(c - e)*s^3: the nodes crowd toward the singular end e, and |u - e|^g
turns into s^(3g + 2).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

__all__ = ["integrate", "QuadratureError"]

# Integrand evaluations one `integrate` call may spend.
_MAX_EVALS = 100_000

# 15-point Kronrod nodes on [-1, 1] (nonnegative half) and weights,
# with the embedded 7-point Gauss weights.
_XGK = (0.991455371120813, 0.949107912342759, 0.864864423359769,
        0.741531185599394, 0.586087235467691, 0.405845151377397,
        0.207784955007898, 0.0)
_WGK = (0.022935322010529, 0.063092092629979, 0.104790010322250,
        0.140653259715525, 0.169004726639267, 0.190350578064785,
        0.204432940075298, 0.209482141084728)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119,
       0.417959183673469)


class QuadratureError(RuntimeError):
    """The integral could not be computed to a trustworthy value."""


def _gk15(f: Callable[[float], float], a: float, b: float):
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    fv = []
    for i in range(7):
        dx = half * _XGK[i]
        f1 = f(center - dx)
        f2 = f(center + dx)
        fv.append((f1, f2))
        resk += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            resg += _WG[(i - 1) // 2] * (f1 + f2)
    resk *= half
    resg *= half
    # QUADPACK-style scaled error estimate.
    mean = resk / (b - a)
    resasc = _WGK[7] * abs(fc - mean)
    for i in range(7):
        resasc += _WGK[i] * (abs(fv[i][0] - mean) + abs(fv[i][1] - mean))
    resasc *= abs(half)
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-10) -> tuple[float, float]:
    """Integrate f over [a, b] to absolute tolerance tol.

    Returns the pair (value, error estimate).  The error estimate
    exceeds tol only when every panel left has reached the width floor.
    Raises QuadratureError when the integrand is not finite or the
    evaluation budget runs out first.
    """
    a = float(a)
    b = float(b)
    if b < a:
        raise ValueError("integrate requires a <= b")
    if a == b:
        return 0.0, 0.0

    def panel(lo: float, hi: float):
        val, err = _gk15(f, lo, hi)
        if not (math.isfinite(val) and math.isfinite(err)):
            raise QuadratureError("quadrature produced a non-finite value "
                                  f"on [{lo!r}, {hi!r}]")
        return -err, lo, hi, val

    # two panels, or one where no double lies strictly between a and b
    cuts = sorted({a, 0.5 * (a + b), b})
    evals = 15 * (len(cuts) - 1)
    if evals > _MAX_EVALS:
        raise QuadratureError(
            f"quadrature on [{a!r}, {b!r}] needs {evals} evaluations for "
            f"its starting panels, above its budget of {_MAX_EVALS}")
    heap = [panel(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    heapq.heapify(heap)
    retired = []
    err_sum = -sum(p[0] for p in heap)
    while heap:
        if err_sum <= tol:
            # the running sum carries rounding drift; confirm exactly
            err_sum = math.fsum(-p[0] for p in heap + retired)
            if err_sum <= tol:
                break
        worst = heapq.heappop(heap)
        neg_err, lo, hi, _ = worst
        if hi - lo < 1e-15 * max(1.0, abs(lo), abs(hi)):
            retired.append(worst)
            continue
        if evals + 30 > _MAX_EVALS:
            raise QuadratureError(
                f"quadrature on [{a!r}, {b!r}] spent its budget of "
                f"{_MAX_EVALS} evaluations with error estimate "
                f"{err_sum:.3g} above tol={tol:.3g}")
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid), panel(mid, hi)
        evals += 30
        heapq.heappush(heap, left)
        heapq.heappush(heap, right)
        err_sum += neg_err - left[0] - right[0]
    panels = heap + retired
    return (math.fsum(p[3] for p in panels),
            math.fsum(-p[0] for p in panels))
