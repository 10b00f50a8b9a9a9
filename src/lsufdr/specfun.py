"""Special functions for the normal, Student-t and chi distributions.

Each public function has one scalar implementation on the standard
library: the normal cdf through `math.erfc`, the normal quantile by
Wichura's AS241 in `statistics.NormalDist.inv_cdf`, the Student-t tail
by a continued fraction for the incomplete beta function, the chi cdf by
the incomplete gamma function.  From nu = 200 on, the t tail takes
DiDonato & Morris's BGRAT near its center and the chi cdf Temme's
uniform expansion, whose cost does not grow with nu; against mpmath
both stay within 1e-13 relative up to nu = 1e7, and within 1e-15 per
unit of |log(value)| in tails below exp(-100).  The functions keep no
global state.  Roots come from `_solve_increasing`, bad input raises
ValueError, and an iteration out of steps raises SolverError.

Arrays: the first argument may be anything `np.asarray` takes; the
result is a float64 array of its shape, equal element by element to the
scalar calls, and a 0-d array gives a float.  Arrays are mapped over the
scalar code, except in numpy kernels for the Monte Carlo sampler and
`asymptotics.t_of_z`, where mapping 1e5 elements is several times
slower:
- Cody's erfc (TOMS 1969) behind `erfc`, `Phi` and `norm_sf`, a
  transcription of AS241 behind `Phi_inv` and `norm_isf`, and `phi`.
  These six agree with their scalar calls to 1e-13 relative rather than
  bit for bit.
- The incomplete beta fraction run on all elements in lockstep behind
  `t_sf`, `t_cdf`, `t_pdf` and `t_logpdf`, below nu = 200.  These four
  are exact: they repeat the scalar code's operations in numpy, whose
  + - * / round as Python's do, and map the standard library's
  transcendentals over the elements.
"""

from __future__ import annotations

import itertools
import math
import statistics
import sys

import numpy as np

__all__ = [
    "phi",
    "Phi",
    "Phi_inv",
    "norm_sf",
    "norm_isf",
    "norm_logsf",
    "norm_isf_log",
    "t_pdf",
    "t_cdf",
    "t_sf",
    "t_logsf",
    "t_logpdf",
    "t_quantile",
    "t_isf",
    "chi_cdf",
    "chi_quantile",
    "erf",
    "erfc",
    "erfcx",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_ONE_OVER_SQRT_PI = 1.0 / math.sqrt(math.pi)
_FLOAT_MAX = sys.float_info.max
_FLOAT_MIN = sys.float_info.min
_FLOAT_TINY = 5e-324  # the smallest subnormal double
_LN2 = math.log(2.0)
_SQRT_FLOAT_MIN = math.sqrt(_FLOAT_MIN)


def _dispatch(x, fn):
    """fn on x as a 1-d float64 array, in x's shape; a float for a 0-d x."""
    arr = np.asarray(x, dtype=np.float64)
    out = fn(arr.ravel())
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _each(fn, a, *args):
    """fn(v, *args) for every element v of the 1-d array a.  The t
    kernels map the standard library's transcendentals this way:
    numpy's differ from them in the last bit."""
    return np.fromiter(map(fn, a.tolist(), *map(itertools.repeat, args)),
                       dtype=np.float64, count=a.size)


def _lift(fn, x, *args):
    """fn(v, *args) for every element v of the array x."""
    return _dispatch(x, lambda a: _each(fn, a, *args))


class SolverError(RuntimeError):
    """Raised when a root solve, series or fraction runs out of steps."""


# ---------------------------------------------------------------------------
# Error function family.  The array kernel follows Cody's rational
# minimax approximations:
# Region 1: |x| <= 0.46875, erf via a degree-4 rational in x^2.
# Region 2: 0.46875 < x <= 4, erfcx via a degree-8 rational in x.
# Region 3: x > 4, erfcx via an asymptotic-style rational in 1/x^2.

_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03)
_ERF_A4 = 1.85777706184603153e-1
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)

_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00,
          6.61191906371416295e01, 2.98635138197400131e02,
          8.81952221241769090e02, 1.71204761263407058e03,
          2.05107837782607147e03)
_ERF_C7 = 1.23033935479799725e03
_ERF_C8 = 2.15311535474403846e-8
_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02,
          5.37181101862009858e02, 1.62138957456669019e03,
          3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03)
_ERF_D7 = 1.23033935480374942e03

_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
          1.25781726111229246e-1, 1.60837851487422766e-2)
_ERF_P4 = 6.58749161529837803e-4
_ERF_P5 = 1.63153871373020978e-2
_ERF_Q = (2.56852019228982242e00, 1.87295284992346047e00,
          5.27905102951428412e-1, 6.05183413124413191e-2)
_ERF_Q4 = 2.33520497626869185e-3


def _erf_small(x):
    # |x| <= 0.46875
    a0, a1, a2, a3 = _ERF_A
    b0, b1, b2, b3 = _ERF_B
    z = x * x
    return x * ((((_ERF_A4 * z + a0) * z + a1) * z + a2) * z + a3) \
        / ((((z + b0) * z + b1) * z + b2) * z + b3)


def _erfcx_mid(y):
    # 0.46875 < y <= 4
    c0, c1, c2, c3, c4, c5, c6 = _ERF_C
    d0, d1, d2, d3, d4, d5, d6 = _ERF_D
    num = (((((((_ERF_C8 * y + c0) * y + c1) * y + c2) * y + c3) * y + c4)
            * y + c5) * y + c6) * y + _ERF_C7
    den = (((((((y + d0) * y + d1) * y + d2) * y + d3) * y + d4) * y + d5)
           * y + d6) * y + _ERF_D7
    return num / den


def _erfcx_large(y):
    # y > 4; takes a float or an array
    p0, p1, p2, p3 = _ERF_P
    q0, q1, q2, q3 = _ERF_Q
    z = 1.0 / (y * y)
    num = ((((_ERF_P5 * z + p0) * z + p1) * z + p2) * z + p3) * z + _ERF_P4
    den = ((((z + q0) * z + q1) * z + q2) * z + q3) * z + _ERF_Q4
    return (_ONE_OVER_SQRT_PI - z * num / den) / y


def _erfc_cody(x):
    """Cody's erfc on a 1-d float64 array, each region's rational
    evaluated on that region's elements only."""
    y = np.abs(x)
    out = np.empty_like(y)
    small = y <= 0.46875
    if small.any():
        out[small] = 1.0 - _erf_small(x[small])
    # erfc underflows to 0 below 40; the cap keeps ys**8 finite
    ys = np.minimum(y, 40.0)
    for region, erfcx_part in ((~small & (ys <= 4.0), _erfcx_mid),
                               (ys > 4.0, _erfcx_large)):
        if region.any():
            yr = ys[region]
            tail = np.exp(-yr * yr) * erfcx_part(yr)
            out[region] = np.where(x[region] < 0.0, 2.0 - tail, tail)
    return out


def erfcx(x):
    """Scaled complementary error function exp(x^2) * erfc(x).

    Cody's rationals above x = 0.46875, exp(x^2) * erfc(x) below: the
    relative error is below 1e-15 for x >= 0.47.
    """
    if not isinstance(x, (float, int)):
        return _lift(erfcx, x)
    x = float(x)
    if x < 0.0:
        # 2 exp(x^2) - erfcx(-x) overflows once x^2 passes log(max double)
        if x * x > 709.78:
            return math.inf
        return 2.0 * math.exp(x * x) - erfcx(-x)
    if x <= 0.46875:
        return math.exp(x * x) * math.erfc(x)
    return _erfcx_mid(x) if x <= 4.0 else _erfcx_large(x)


def erfc(x):
    """Complementary error function, to 6e-14 relative down to 1e-300."""
    if isinstance(x, (float, int)):
        return math.erfc(float(x))
    return _dispatch(x, _erfc_cody)


def erf(x):
    """Error function."""
    if not isinstance(x, (float, int)):
        return _lift(erf, x)
    return math.erf(float(x))


# ---------------------------------------------------------------------------
# Standard normal distribution.


def phi(x):
    """Standard normal density."""
    if isinstance(x, (float, int)):
        return math.exp(-0.5 * x * x) / _SQRT_2PI
    return _dispatch(x, lambda a: np.exp(-0.5 * a * a) / _SQRT_2PI)


def Phi(x):
    """Standard normal cdf.

    Relative error below 2e-13 (3e-13 for arrays) down to 1e-300.
    """
    if isinstance(x, (float, int)):
        return 0.5 * math.erfc(-float(x) / _SQRT2)
    return _dispatch(x, lambda a: 0.5 * _erfc_cody(-a / _SQRT2))


def norm_sf(x):
    """Standard normal upper tail 1 - Phi(x), as accurate as `Phi`."""
    if isinstance(x, (float, int)):
        return 0.5 * math.erfc(float(x) / _SQRT2)
    return _dispatch(x, lambda a: 0.5 * _erfc_cody(a / _SQRT2))


def norm_logsf(x):
    """log(1 - Phi(x)) without underflow, relative error below 2e-13."""
    if not isinstance(x, (float, int)):
        return _lift(norm_logsf, x)
    x = float(x)
    if x < -1.0:
        return math.log1p(-0.5 * math.erfc(-x / _SQRT2))
    if x <= 12.0:
        return math.log(0.5 * math.erfc(x / _SQRT2))
    if x == math.inf:
        return -math.inf
    return math.log(0.5 * erfcx(x / _SQRT2)) - 0.5 * x * x


# Wichura's AS241 (Appl. Statist. 37, 1988), as in `NormalDist.inv_cdf`:
# numerator and denominator coefficients as doubles, highest degree first.
# Row 0 gives x = q*A(r)/B(r), r = 0.180625 - q^2, for |q| = |p - 1/2| <=
# 0.425.  Past that r = sqrt(-log min(p, 1 - p)), and |x| is C(r - 1.6)/
# D(r - 1.6) for r <= 5 (row 1), E(r - 5)/F(r - 5) beyond (row 2).
_AS241 = (
    ((2.5090809287301227e+03, 3.3430575583588128e+04, 6.7265770927008707e+04,
      4.5921953931549870e+04, 1.3731693765509461e+04, 1.9715909503065513e+03,
      1.3314166789178438e+02, 3.3871328727963665e+00),
     (5.2264952788528544e+03, 2.8729085735721943e+04, 3.9307895800092709e+04,
      2.1213794301586597e+04, 5.3941960214247511e+03, 6.8718700749205789e+02,
      4.2313330701600911e+01, 1.0)),
    ((7.7454501427834139e-04, 2.2723844989269184e-02, 2.4178072517745061e-01,
      1.2704582524523684e+00, 3.6478483247632045e+00, 5.7694972214606910e+00,
      4.6303378461565456e+00, 1.4234371107496835e+00),
     (1.0507500716444169e-09, 5.4759380849953455e-04, 1.5198666563616457e-02,
      1.4810397642748008e-01, 6.8976733498510001e-01, 1.6763848301838038e+00,
      2.0531916266377590e+00, 1.0)),
    ((2.0103343992922881e-07, 2.7115555687434876e-05, 1.2426609473880784e-03,
      2.6532189526576124e-02, 2.9656057182850487e-01, 1.7848265399172913e+00,
      5.4637849111641144e+00, 6.6579046435011033e+00),
     (2.0442631033899397e-15, 1.4215117583164459e-07, 1.8463183175100548e-05,
      7.8686913114561329e-04, 1.4875361290850615e-02, 1.3692988092273581e-01,
      5.9983220655588798e-01, 1.0)),
)
_STD_NORMAL = statistics.NormalDist()
# fdlibm's split of log 2, so that lq + _LN2_HI is exact near lq = -log 2
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _as241(row, r, q=1.0):
    """Row `row` of `_AS241` at r, times q, in the stdlib's operation order."""
    num, den = _AS241[row]
    a, b = num[0], den[0]
    for c, d in zip(num[1:], den[1:]):
        a = a * r + c
        b = b * r + d
    return a * q / b


def _as241_array(p):
    """The array `Phi_inv`, each region's rational on its own elements."""
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("Phi_inv requires 0 < p < 1")
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    if central.any():
        qc = q[central]
        out[central] = _as241(0, 0.180625 - qc * qc, qc)
    tail = ~central
    if tail.any():
        qt = q[tail]
        r = np.sqrt(-np.log(np.where(qt <= 0.0, p[tail], 1.0 - p[tail])))
        x = np.empty_like(r)
        near = r <= 5.0
        for row, region, shift in ((1, near, 1.6), (2, ~near, 5.0)):
            if region.any():
                x[region] = _as241(row, r[region] - shift)
        out[tail] = np.where(qt < 0.0, -x, x)
    return out


def Phi_inv(p):
    """Standard normal quantile on the open interval (0, 1).

    Wichura's AS241, the standard library's `NormalDist.inv_cdf` for a
    float and its numpy transcription for arrays: relative error below
    1e-15 on all of (0, 1), down to the smallest subnormal p.
    """
    if not isinstance(p, (float, int)):
        return _dispatch(p, _as241_array)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("Phi_inv requires 0 < p < 1")
    return _STD_NORMAL.inv_cdf(p)


def norm_isf(q):
    """Upper-tail normal quantile: x with 1 - Phi(x) = q; see `Phi_inv`."""
    return -Phi_inv(q)


def norm_isf_log(lq):
    """Upper-tail normal quantile from the log tail mass.

    Solves norm_logsf(x) = lq for x, valid for lq <= log(1/2) even when
    exp(lq) underflows, and inf at lq = -inf: AS241's rationals in
    1/2 - exp(lq), formed by expm1, and in sqrt(-lq) down to lq = -700;
    below, Newton steps on lq - norm_logsf(x), convex and increasing,
    from sqrt(-2 lq), which 1 - Phi(x) <= exp(-x^2/2)/2 puts above the
    root (at most 6 tail evaluations).  The relative error is below
    1e-15 for lq <= -0.6932; nearer log(1/2), where x nears 0, the
    rounding of log 2 grows it (2e-13 at lq = -0.69314718056).
    """
    if not isinstance(lq, (float, int)):
        return _lift(norm_isf_log, lq)
    if not lq <= math.log(0.5) + 1e-15:
        raise ValueError("norm_isf_log requires lq <= log(1/2)")
    if lq >= math.log(0.075):
        d = -0.5 * math.expm1((lq + _LN2_HI) + _LN2_LO)
        return _as241(0, 0.180625 - d * d, d)
    if lq >= -700.0:
        r = math.sqrt(-lq)
        return _as241(1, r - 1.6) if r <= 5.0 else _as241(2, r - 5.0)
    if lq == -math.inf:
        return math.inf
    h = _SQRT2 * math.sqrt(-lq)  # -2 lq overflows at the bottom
    return _solve_increasing(lambda v: lq - norm_logsf(v), 0.0, h, 1e-15,
                             lambda v: 2.0 / (_SQRT_2PI * erfcx(v / _SQRT2)),
                             h)


# ---------------------------------------------------------------------------
# Regularized incomplete beta (continued fraction) and the Student-t family.

_BETA_EPS = 1e-15
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 2000
# a = nu/2 from which the t tail takes BGRAT and an asymptotic gamma ratio
_BGRAT_A = 100.0


def _betacf(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise SolverError(f"incomplete beta cf failed to converge "
                      f"(a={a}, b={b}, x={x})")


def _clamp_fpmin(v):
    return np.where(np.abs(v) < _BETA_FPMIN, _BETA_FPMIN, v)


def _betacf_array(a: float, b: float, x):
    """`_betacf` on a non-empty 1-d array x: the same steps on every
    element in lockstep, each element retired at its own converged step."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    idx = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / _clamp_fpmin(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _clamp_fpmin(1.0 + aa * d)
        c = _clamp_fpmin(1.0 + aa / c)
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _clamp_fpmin(1.0 + aa * d)
        c = _clamp_fpmin(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _BETA_EPS
        if done.any():
            out[idx[done]] = h[done]
            keep = ~done
            idx, x, c, d, h = idx[keep], x[keep], c[keep], d[keep], h[keep]
            if not idx.size:
                return out
    raise SolverError(f"incomplete beta cf failed to converge "
                      f"(a={a}, b={b}, x={x[0]})")


def _check_nu(nu: float) -> float:
    nu = float(nu)
    if not nu > 0.0:
        raise ValueError("degrees of freedom must be positive")
    return nu


def _solve_increasing(g, lo, hi, rtol, dens=None, x=None):
    """Root of g with g(lo) < 0, bracketed from [lo, hi].

    Moves the bracket up while g(hi) < 0 (hi quadruples, to at least 1)
    and returns inf when g < 0 at the largest double.  With dens = g'
    it takes Newton steps from the seed x, and g must be increasing;
    without, Illinois regula falsi steps on the bracket (Dowell &
    Jarratt, BIT 11, 1971), which need only one sign change in it.  A
    step that leaves the bracket is replaced by bisection, geometric
    while lo is 0 so that a root far below hi takes a few steps.  Stops
    when a step is below rtol relative, a secant step that rounds onto
    the bracket's end included; raises SolverError after 200 steps.
    """
    g_hi = g(hi)
    while g_hi < 0.0:
        if hi == _FLOAT_MAX:
            return math.inf  # the root lies past the double range
        lo, hi = hi, min(max(4.0 * hi, 1.0), _FLOAT_MAX)
        g_hi = g(hi)
    x = lo if dens is None or x is None else min(max(x, lo), hi)
    g_lo, side = math.nan, 0
    for _ in range(200):
        # a seed at hi takes its first step from g_hi, not yet halved
        gx = g_hi if side == 0 and x == hi else g(x)
        if gx == 0.0:
            return x
        if gx < 0.0:
            if side < 0:
                g_hi *= 0.5  # Illinois: an end kept twice running
            lo, g_lo, side = x, gx, -1
        else:
            if side > 0:
                g_lo *= 0.5
            hi, g_hi, side = x, gx, 1
        if dens is None:  # the secant through the bracket's ends
            d = (g_hi - g_lo) / (hi - lo) if hi > lo else math.nan
        else:
            d = dens(x)
        x_new = x - gx / d if d > 0.0 else math.nan
        if x_new == x and dens is not None:
            return x  # a Newton step that rounds to no move
        if not lo < x_new < hi:
            if dens is None and d < math.inf and \
                    abs(x_new - x) <= rtol * abs(x):
                return x  # the secant rounds onto x's end of the bracket
            if lo == 0.0:  # sqrt(_FLOAT_MIN * hi), without underflow
                x_new = min(_SQRT_FLOAT_MIN * math.sqrt(hi), 0.5 * hi)
            else:
                x_new = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        step, x = x_new - x, x_new
        if abs(step) <= rtol * abs(x):
            return x
    raise SolverError(f"no root to rtol {rtol} in 200 steps: bracket "
                      f"[{lo!r}, {hi!r}], last step {step!r} to {x!r}")


def t_pdf(x, nu: float):
    """Student-t density."""
    if not isinstance(x, (float, int)):
        return _dispatch(
            x, lambda a: _each(math.exp, _t_logpdf_array(a, _check_nu(nu))))
    return math.exp(t_logpdf(x, nu))


def _t_log_w(x: float, nu: float):
    """(log w, log(1 - w)) with w = nu/(nu + x^2), for x != 0.

    Formed from y = |x|/sqrt(nu) without squaring x, which overflows
    past about 1.3e154; for y > 1 only log y and 1/y are formed, since
    y itself overflows near the top of the double range when nu < 1.
    Where y underflows to 0 (a subnormal |x| at large nu), log y is
    formed as log|x| - log(nu)/2.
    """
    if abs(x) <= math.sqrt(nu):
        y = abs(x) / math.sqrt(nu)
        log_w = -math.log1p(y * y)
        log_y = (math.log(y) if y > 0.0
                 else math.log(abs(x)) - 0.5 * math.log(nu))
        return log_w, log_w + 2.0 * log_y
    log_y = math.log(abs(x)) - 0.5 * math.log(nu)
    log_1mw = -math.log1p((math.sqrt(nu) / abs(x)) ** 2)
    return log_1mw - 2.0 * log_y, log_1mw


def _t_log_w_array(x, nu: float):
    """`_t_log_w` on a 1-d array of nonzero x, with the same operations;
    its `** 2` stays the C library's pow, which is not always y * y."""
    ax = np.abs(x)
    log_w, log_1mw = np.empty_like(ax), np.empty_like(ax)
    near = ax <= math.sqrt(nu)
    if near.any():
        y = ax[near] / math.sqrt(nu)
        under = y == 0.0
        log_y = _each(math.log, np.where(under, 1.0, y))
        if under.any():
            log_y[under] = (_each(math.log, ax[near][under])
                            - 0.5 * math.log(nu))
        lw = -_each(math.log1p, y * y)
        log_w[near], log_1mw[near] = lw, lw + 2.0 * log_y
    far = ~near
    if far.any():
        af = ax[far]
        log_y = _each(math.log, af) - 0.5 * math.log(nu)
        log_1mw[far] = -_each(math.log1p, _each(pow, math.sqrt(nu) / af, 2))
        log_w[far] = log_1mw[far] - 2.0 * log_y
    return log_w, log_1mw


def t_logpdf(x, nu: float):
    """Log of the Student-t density."""
    if not isinstance(x, (float, int)):
        return _dispatch(x, lambda a: _t_logpdf_array(a, _check_nu(nu)))
    nu = _check_nu(nu)
    x = float(x)
    log_w = _t_log_w(x, nu)[0] if x != 0.0 else 0.0
    return (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
            - 0.5 * math.log(nu * math.pi) + 0.5 * (nu + 1.0) * log_w)


def _t_logpdf_array(x, nu: float):
    log_w = np.zeros_like(x)
    nonzero = x != 0.0
    if nonzero.any():
        log_w[nonzero] = _t_log_w_array(x[nonzero], nu)[0]
    return (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
            - 0.5 * math.log(nu * math.pi) + 0.5 * (nu + 1.0) * log_w)


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)) - log(a)/2 for a >= 100, by its
    asymptotic series: lgamma's difference loses a*log(a) ulps."""
    return (-0.125 + (1.0 / 192.0 - 1.0 / (640.0 * a * a)) / (a * a)) / a


def _bgrat(a: float, z: float, log_w: float) -> float:
    """log(I_w(a, 1/2)/2) for large a by DiDonato & Morris's BGRAT (ACM
    TOMS 18, 1992), with z = -(a - 1/4) log w and the gamma ratio
    Q(1/2, z) = erfc(sqrt z) = exp(-z) erfcx(sqrt z):
    I_w/2 = e^D exp(-z) erfcx(sqrt z)/2 (1 + sum), where
    D = log(Gamma(a + 1/2) / (Gamma(a) sqrt(a - 1/4))) and the sum's
    terms fall like powers of 1/a^2 and log(w)^2."""
    v, t2 = 0.25 / (a - 0.25) ** 2, 0.25 * log_w * log_w
    ex = erfcx(math.sqrt(z))
    t = math.sqrt(z) * _ONE_OVER_SQRT_PI / ex
    j, total, cn, c, d = 1.0, 1.0, 1.0, [], []
    for n in range(1, 31):  # the J_n, c_n and d_n of BGRAT, over J_0
        bp2n = 2.0 * n - 1.5
        j = (bp2n * (bp2n + 1.0) * j + (z + bp2n + 1.0) * t) * v
        t *= t2
        cn /= 2.0 * n * (2.0 * n + 1.0)
        c.append(cn)
        d.append(-0.5 * cn + sum((0.5 * i + 0.5 - n) * c[i] * d[n - 2 - i]
                                 for i in range(n - 1)) / n)
        total += d[-1] * j
        if abs(d[-1] * j) <= _BETA_EPS * total:
            return (_log_gamma_ratio(a) - 0.5 * math.log1p(-0.25 / a) - z
                    + math.log(0.5 * ex * total))
    raise SolverError(f"BGRAT failed to converge (a={a}, z={z})")


def _t_log_tail(x: float, nu: float) -> float:
    """log P(T > |x|) = log(I_w(nu/2, 1/2) / 2) for x != 0.

    I_w is the regularized incomplete beta function at
    w = nu/(nu + x^2).  From nu = 2 * _BGRAT_A on, BGRAT takes
    1 - w < 0.3 and x^2/2 >= 1/2, where the fraction below needs more
    steps; elsewhere the continued fraction, directly or through the
    complement I_w(a, b) = 1 - I_(1-w)(b, a).
    """
    a, b = 0.5 * nu, 0.5
    log_w, log_1mw = _t_log_w(x, nu)
    if a < _BGRAT_A:
        log_ratio = math.lgamma(a + b) - math.lgamma(a)
    else:
        z = (0.25 - a) * log_w
        if z >= 0.5 and log_w > -0.35667494393873245:  # 1 - w < 0.3
            return _bgrat(a, z, log_w)
        log_ratio = 0.5 * math.log(a) + _log_gamma_ratio(a)
    log_front = log_ratio - math.lgamma(b) + a * log_w + b * log_1mw
    w = math.exp(log_w)
    if w < (a + 1.0) / (a + b + 2.0):
        return math.log(0.5) + log_front + math.log(_betacf(a, b, w) / a)
    tail = math.exp(log_front) * _betacf(b, a, math.exp(log_1mw)) / b
    return math.log(0.5) + math.log1p(-tail) if tail < 1.0 else -math.inf


def _t_log_tail_array(x, nu: float):
    """`_t_log_tail` on a 1-d array of nonzero x, each element on the
    fraction the scalar code picks for it; the scalar code itself from
    nu = 2 * _BGRAT_A on."""
    a, b = 0.5 * nu, 0.5
    if a >= _BGRAT_A:
        return _each(_t_log_tail, x, nu)
    log_w, log_1mw = _t_log_w_array(x, nu)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * log_w + b * log_1mw)
    w = _each(math.exp, log_w)
    out = np.full_like(w, -math.inf)
    direct = w < (a + 1.0) / (a + b + 2.0)
    if direct.any():
        cf = _betacf_array(a, b, w[direct])
        out[direct] = (math.log(0.5) + log_front[direct]
                       + _each(math.log, cf / a))
    rest = ~direct
    if rest.any():
        cf = _betacf_array(b, a, _each(math.exp, log_1mw[rest]))
        tail = _each(math.exp, log_front[rest]) * cf / b
        below = tail < 1.0
        out[np.flatnonzero(rest)[below]] = (
            math.log(0.5) + _each(math.log1p, -tail[below]))
    return out


def t_cdf(x, nu: float):
    """Student-t cdf via the regularized incomplete beta function."""
    if not isinstance(x, (float, int)):
        return _dispatch(x, lambda a: _t_cdf_array(a, _check_nu(nu)))
    nu = _check_nu(nu)
    x = float(x)
    if x == 0.0 or math.isnan(x):
        return 0.5 if x == 0.0 else x
    tail = math.exp(_t_log_tail(x, nu))
    return tail if x < 0.0 else 1.0 - tail


def _t_cdf_array(x, nu: float):
    out = np.where(np.isnan(x), x, 0.5)
    nonzero = np.abs(x) > 0.0  # neither 0 nor nan
    if nonzero.any():
        xn = x[nonzero]
        tail = _each(math.exp, _t_log_tail_array(xn, nu))
        out[nonzero] = np.where(xn < 0.0, tail, 1.0 - tail)
    return out


def t_sf(x, nu: float):
    """Student-t upper tail 1 - F(x), accurate for large x.

    Relative error below 1e-13 at nu <= 5 down to 1e-300, and from
    nu = 200 to 1e7 above exp(-100) (5e-14 measured); deeper, 1e-15 per
    unit of |log(value)| (5e-16 measured).
    """
    if not isinstance(x, (float, int)):
        return _dispatch(x, lambda a: _t_cdf_array(-a, _check_nu(nu)))
    return t_cdf(-x, nu)


def t_logsf(x, nu: float):
    """log of the Student-t upper tail, stable far into the tail."""
    if not isinstance(x, (float, int)):
        return _lift(t_logsf, x, nu)
    nu = _check_nu(nu)
    x = float(x)
    if not x > 0.0:  # nan too, which t_cdf returns
        return math.log(t_cdf(-x, nu))
    return _t_log_tail(x, nu)


def t_isf(q, nu: float):
    """Upper-tail Student-t quantile: x with 1 - F(x) = q.

    Newton's method on the log of the smaller tail mass, whose slope is
    the hazard pdf/sf, to 1e-13 relative in x, so both tails stay
    accurate (the tail at the result is within 3e-13 of q for nu from
    0.3 to 1e7 and q down to 1e-300); inf past the largest double.
    The root lies between
    the normal quantile and the power law's, P(T > x) < c x^-nu with
    c = Gamma((nu + 1)/2) nu^(nu/2 - 1) / (sqrt(pi) Gamma(nu/2)).
    """
    if not isinstance(q, (float, int)):
        return _lift(t_isf, q, nu)
    nu = _check_nu(nu)
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError("t_isf requires 0 < q < 1")
    tail = min(q, 1.0 - q)
    if tail == 0.5:
        return 0.0
    lq = math.log(tail)
    log_hi = (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
              - 0.5 * math.log(math.pi) + (0.5 * nu - 1.0) * math.log(nu)
              - lq) / nu
    hi = math.exp(log_hi) if log_hi < 709.0 else _FLOAT_MAX
    log_sf = {}

    def gap(v):
        log_sf[v] = t_logsf(v, nu)
        return lq - log_sf[v]

    # the power law's root is the better seed where it is far past sqrt(nu)
    x = _solve_increasing(gap, 0.0, hi, 1e-13,
                          lambda v: math.exp(t_logpdf(v, nu) - log_sf[v]),
                          hi if hi * hi > 10.0 * nu else norm_isf(tail))
    return x if q <= 0.5 else -x


def t_quantile(p, nu: float):
    """Student-t quantile: x with F(x) = p, as accurate as `t_isf`."""
    return -t_isf(p, nu)


# ---------------------------------------------------------------------------
# Regularized incomplete gamma ratios P(a, h), Q(a, h) = 1 - P(a, h) and
# the chi distribution.

_GAM_MAXIT = 50000
_GAM_EPS = 1e-15
# From a = _TEMME_A on, Temme's expansion takes |eta| <= 1/2, where the
# series and the fraction need terms in proportion to sqrt(a)
_TEMME_A = 100.0
_TEMME_PHI = 0.125  # eta^2/2
# d_kn in Temme's c_k(eta) = sum_n d_kn eta^n, from his recurrence in
# exact rationals (tests/test_specfun.py derives them again), down to
# terms d_kn 2^-n a^-k of 5e-18 at a = _TEMME_A
_TEMME_C = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
     0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
     3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
     8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
     1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
     -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
     -5.0276692801141755e-12),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
     4.162792991842583e-10, -8.56390702649298e-11),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
     8.907507532205309e-07),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
     -1.3594048189768693e-05, 8.018470256334202e-06),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
     7.902353232660328e-07, -8.153969367561969e-05),
)


def _log1pmx(mu: float) -> float:
    """mu - log(1 + mu) to a few ulps: with t = mu/(2 + mu) it is
    2t^2/(1 - t) - 2t^3 (1/3 + t^2/5 + ...), which does not cancel."""
    t = mu / (2.0 + mu)
    if abs(t) > 0.3:
        return mu - math.log1p(mu)
    t2, s = t * t, 0.0
    for k in range(29, 1, -2):
        s = s * t2 + 1.0 / k
    return 2.0 * t2 * (1.0 / (1.0 - t) - t * s)


def _gser(a: float, x: float) -> float:
    # Series representation, good for x < a + 1, without its prefactor
    # exp(-x) x^a / Gamma(a).
    ap = a
    s = 1.0 / a
    delta = s
    for _ in range(_GAM_MAXIT):
        ap += 1.0
        delta *= x / ap
        s += delta
        if abs(delta) < abs(s) * _GAM_EPS:
            return s
    raise SolverError(f"incomplete gamma series failed (a={a}, x={x})")


def _gcf(a: float, x: float) -> float:
    # Continued fraction for the upper tail, good for x >= a + 1, without
    # the prefactor exp(-x) x^a / Gamma(a).
    b = x + 1.0 - a
    c = 1.0 / _BETA_FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _GAM_MAXIT):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = b + an / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAM_EPS:
            return h
    raise SolverError(f"incomplete gamma cf failed (a={a}, x={x})")


def _chi_pq(x: float, nu: float, upper: bool) -> float:
    """P(a, x^2/2) with a = nu/2, the chi cdf, or Q = 1 - P with upper,
    each without cancellation.

    From a = _TEMME_A on, mu = x^2/(2a) - 1 is formed from Dekker's
    exact product x*x: the result moves by about sqrt(a) times mu's
    relative error.  Temme's expansion (SIAM J. Math. Anal. 10, 1979;
    DiDonato & Morris, ACM TOMS 12, 1986) is Q = erfc(eta sqrt(a/2))/2 +
    R, with eta^2/2 = mu - log(1 + mu) and
    R = exp(-a eta^2/2)/sqrt(2 pi a) sum_k c_k(eta) a^-k.
    """
    nu = _check_nu(nu)
    x = float(x)
    if not x >= 0.0:  # nan too, before a series runs on it
        raise ValueError("chi_cdf requires x >= 0")
    a, h = 0.5 * nu, 0.5 * x * x
    if x == 0.0 or h == math.inf:
        return float(upper == (x == 0.0))
    if a < _TEMME_A:  # the prefactor exp(-h) h^a / Gamma(a)
        front = (math.exp(-h + a * math.log(h) - math.lgamma(a))
                 if h >= _FLOAT_MIN  # x*x/2 underflows below x = 1.5e-162
                 else math.pow(x, nu) * math.exp(-a * _LN2 - math.lgamma(a)))
    else:
        c = 134217729.0 * x  # 2^27 + 1 splits x into halves of 26 bits
        hi = c - (c - x)
        lo = x - hi
        mu = ((h - a) + 0.5 * (((hi * hi - x * x) + 2.0 * hi * lo)
                               + lo * lo)) / a
        # below mu = -1/2, h/a itself carries more of log(1 + mu)'s bits
        lam = h / a
        phi = (_log1pmx(mu) if mu > -0.5 else
               lam - 1.0 - math.log(lam) if lam > 0.0 else math.inf)
        if phi <= _TEMME_PHI:
            eta = math.copysign(math.sqrt(2.0 * phi), mu)
            total = 0.0
            for row in reversed(_TEMME_C):
                ck = 0.0
                for d in reversed(row):
                    ck = ck * eta + d
                total = total / a + ck
            r = total / math.sqrt(2.0 * math.pi * a)
            # the smaller side, with erfc(|s|) = exp(-s^2) erfcx(|s|)
            above = mu >= 0.0
            tail = math.exp(-a * phi) * (0.5 * erfcx(math.sqrt(a * phi))
                                         + (r if above else -r))
            return tail if upper == above else 1.0 - tail
        # log Gamma(a) by Stirling's series
        front = math.exp(-a * phi - (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (
            1260.0 * a * a)) / (a * a)) / a) * math.sqrt(0.5 * a / math.pi)
    if h >= a + 1.0:
        q = _gcf(a, h) * front
        return q if upper else 1.0 - q
    p = _gser(a, h) * front
    return 1.0 - p if upper else p


def chi_cdf(x, nu: float):
    """Cdf of the chi distribution, P(nu/2, x^2/2) in incomplete gamma.

    Relative error below 3e-14 at nu <= 40 and from nu = 200 to 1e7
    above exp(-100) (8e-14 measured); deeper, 1e-15 per unit of
    |log(value)| (5e-16 measured).
    """
    if not isinstance(x, (float, int)):
        return _lift(chi_cdf, x, nu)
    return _chi_pq(x, nu, False)


def _chi_logpdf(x: float, nu: float) -> float:
    return ((nu - 1.0) * math.log(x) - 0.5 * x * x
            - (0.5 * nu - 1.0) * math.log(2.0) - math.lgamma(0.5 * nu))


def chi_quantile(p, nu: float):
    """Chi quantile by safeguarded Newton, to 4e-14 relative.

    Above p = 1/2 it solves on the tail mass 1 - p, which the upper tail
    gives without cancellation (2e-16 relative at p = 1 - 1e-12).
    """
    if not isinstance(p, (float, int)):
        return _lift(chi_quantile, p, nu)
    nu = _check_nu(nu)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("chi_quantile requires 0 < p < 1")
    # Wilson-Hilferty seed for the chi-square quantile.  Far below it the
    # cdf is a power law, P(a, x^2/2) ~ x^nu / (a Gamma(a) 2^a) with
    # a = nu/2, whose inverse seeds the lower tail: Newton steps from
    # above shrink x only by a factor 1 - 1/nu each.
    z = Phi_inv(p)
    seed = nu * (1.0 - 2.0 / (9.0 * nu) + z * math.sqrt(2.0 / (9.0 * nu))) ** 3
    if seed > 1e-12:
        x = math.sqrt(seed)
    else:
        if chi_cdf(_FLOAT_TINY, nu) > p:
            return 0.0  # the quantile lies below the smallest double
        a = 0.5 * nu
        x = math.exp((math.log(p) + math.log(a) + math.lgamma(a) + a * _LN2)
                     / nu)
    # 1 - p is exact for p >= 1/2
    gap = ((lambda v: chi_cdf(v, nu) - p) if p <= 0.5
           else (lambda v: (1.0 - p) - _chi_pq(v, nu, True)))
    return _solve_increasing(gap, 0.0, max(4.0 * x, 1.0), 1e-14,
                             lambda v: math.exp(_chi_logpdf(v, nu)), x)
