"""High-accuracy special functions used throughout the package.

Everything here is self-contained: the error function family follows
W. J. Cody's rational minimax approximations (TOMS 1969), the normal
quantile uses Acklam's rational approximation polished by one Halley
step, the Student-t cdf goes through the regularized incomplete beta
function evaluated by a modified-Lentz continued fraction, and the chi
cdf through the regularized lower incomplete gamma function.

All functions accept scalars or numpy arrays and return the matching
shape; scalar input yields a Python float.  They are pure and keep no
global state, so concurrent use is safe.
"""

from __future__ import annotations

import math
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
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_ONE_OVER_SQRT_PI = 1.0 / math.sqrt(math.pi)

# ---------------------------------------------------------------------------
# Error function family (Cody's rational minimax approximations).
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
    z = x * x
    num = _ERF_A4 * z
    den = z
    for a, b in zip(_ERF_A[:3], _ERF_B[:3]):
        num = (num + a) * z
        den = (den + b) * z
    return x * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _erfcx_mid(y):
    # 0.46875 < y <= 4
    num = _ERF_C8 * y
    den = y
    for c, d in zip(_ERF_C, _ERF_D):
        num = (num + c) * y
        den = (den + d) * y
    return (num + _ERF_C7) / (den + _ERF_D7)


def _erfcx_large(y):
    # y > 4
    z = 1.0 / (y * y)
    num = _ERF_P5 * z
    den = z
    for p, q in zip(_ERF_P, _ERF_Q):
        num = (num + p) * z
        den = (den + q) * z
    r = z * (num + _ERF_P4) / (den + _ERF_Q4)
    return (_ONE_OVER_SQRT_PI - r) / y


def _dispatch(x, fn):
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    out = fn(np.atleast_1d(arr))
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


# Scalar fast paths: the numpy implementations cost tens of
# microseconds per scalar call, which dominates every root finder and
# quadrature; plain math-module arithmetic is thirty times cheaper.


def _erfcx_large_s(y: float) -> float:
    z = 1.0 / (y * y)
    num = _ERF_P5 * z
    den = z
    for p, q in zip(_ERF_P, _ERF_Q):
        num = (num + p) * z
        den = (den + q) * z
    r = z * (num + _ERF_P4) / (den + _ERF_Q4)
    return (_ONE_OVER_SQRT_PI - r) / y


def _erfcx_scalar(x: float) -> float:
    if x < 0.0:
        return 2.0 * math.exp(x * x) - _erfcx_scalar(-x)
    if x <= 26.0:
        return math.exp(x * x) * math.erfc(x)
    return _erfcx_large_s(x)


def erfcx(x):
    """Scaled complementary error function exp(x^2) * erfc(x)."""
    if isinstance(x, (float, int)):
        return _erfcx_scalar(float(x))

    def _eval(x):
        y = np.abs(x)
        out = np.empty_like(y)
        m1 = y <= 0.46875
        m2 = (y > 0.46875) & (y <= 4.0)
        m3 = y > 4.0
        if m1.any():
            ys = y[m1]
            out[m1] = np.exp(ys * ys) * (1.0 - _erf_small(ys))
        if m2.any():
            out[m2] = _erfcx_mid(y[m2])
        if m3.any():
            out[m3] = _erfcx_large(y[m3])
        neg = x < 0.0
        if neg.any():
            # erfcx(-x) = 2 exp(x^2) - erfcx(x); overflows for x << -26.
            xn = y[neg]
            out[neg] = 2.0 * np.exp(xn * xn) - out[neg]
        return out

    return _dispatch(x, _eval)


def erfc(x):
    """Complementary error function, |relative error| below 1e-15."""
    if isinstance(x, (float, int)):
        return math.erfc(float(x))

    def _eval(x):
        y = np.abs(x)
        out = np.empty_like(y)
        m1 = y <= 0.46875
        m2 = ~m1
        if m1.any():
            out[m1] = 1.0 - _erf_small(x[m1])
        if m2.any():
            ys = y[m2]
            ex = np.exp(-ys * ys)
            vals = np.where(ys <= 4.0,
                            _erfcx_mid(np.maximum(ys, 0.46875)),
                            _erfcx_large(np.maximum(ys, 4.0)))
            tail = ex * vals
            out[m2] = np.where(x[m2] < 0.0, 2.0 - tail, tail)
        return out

    return _dispatch(x, _eval)


def erf(x):
    """Error function."""
    if isinstance(x, (float, int)):
        return math.erf(float(x))

    def _eval(x):
        y = np.abs(x)
        out = np.empty_like(y)
        m1 = y <= 0.46875
        m2 = ~m1
        if m1.any():
            out[m1] = _erf_small(x[m1])
        if m2.any():
            ys = y[m2]
            ex = np.exp(-ys * ys)
            vals = np.where(ys <= 4.0,
                            _erfcx_mid(np.maximum(ys, 0.46875)),
                            _erfcx_large(np.maximum(ys, 4.0)))
            out[m2] = np.sign(x[m2]) * (1.0 - ex * vals)
        return out

    return _dispatch(x, _eval)


# ---------------------------------------------------------------------------
# Standard normal distribution.


def phi(x):
    """Standard normal density."""
    if isinstance(x, (float, int)):
        return math.exp(-0.5 * x * x) / _SQRT_2PI
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def Phi(x):
    """Standard normal cdf, absolute error below 1e-15."""
    if isinstance(x, (float, int)):
        return 0.5 * math.erfc(-float(x) / _SQRT2)

    def _eval(x):
        return 0.5 * np.asarray(erfc(-x / _SQRT2))

    return _dispatch(x, _eval)


def norm_sf(x):
    """Standard normal upper tail 1 - Phi(x), accurate far into the tail."""
    if isinstance(x, (float, int)):
        return 0.5 * math.erfc(float(x) / _SQRT2)

    def _eval(x):
        return 0.5 * np.asarray(erfc(x / _SQRT2))

    return _dispatch(x, _eval)


def norm_logsf(x):
    """log(1 - Phi(x)) without underflow for large x."""
    if isinstance(x, (float, int)):
        x = float(x)
        if x < -1.0:
            return math.log1p(-0.5 * math.erfc(-x / _SQRT2))
        if x <= 12.0:
            return math.log(0.5 * math.erfc(x / _SQRT2))
        return math.log(0.5 * _erfcx_scalar(x / _SQRT2)) - 0.5 * x * x

    def _eval(x):
        out = np.empty_like(x)
        lo = x < -1.0
        mid = (x >= -1.0) & (x <= 12.0)
        hi = x > 12.0
        if lo.any():
            out[lo] = np.log1p(-0.5 * np.asarray(erfc(-x[lo] / _SQRT2)))
        if mid.any():
            out[mid] = np.log(0.5 * np.asarray(erfc(x[mid] / _SQRT2)))
        if hi.any():
            xs = x[hi]
            out[hi] = (np.log(0.5 * np.asarray(erfcx(xs / _SQRT2)))
                       - 0.5 * xs * xs)
        return out

    return _dispatch(x, _eval)


# Acklam's rational approximation for the normal quantile.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02,
          -2.759285104469687e+02, 1.383577518672690e+02,
          -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02,
          -1.556989798598866e+02, 6.680131188771972e+01,
          -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01,
          -2.400758277161838e+00, -2.549732539343734e+00,
          4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01,
          2.445134137142996e+00, 3.754408661907416e+00)
_PPF_PLOW = 0.02425


def _ppf_raw(p):
    out = np.empty_like(p)
    lo = p < _PPF_PLOW
    hi = p > 1.0 - _PPF_PLOW
    mid = ~(lo | hi)
    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        a, b = _PPF_A, _PPF_B
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = q * num / den
    for mask, sign, pp in ((lo, 1.0, p), (hi, -1.0, p)):
        if mask.any():
            q = np.where(mask, np.where(sign > 0, p, 1.0 - p), 0.5)
            q = np.sqrt(-2.0 * np.log(q[mask]))
            c, d = _PPF_C, _PPF_D
            num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
            den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
            out[mask] = sign * num / den
    return out


def _ppf_scalar(p: float) -> float:
    c, d = _PPF_C, _PPF_D
    if p < _PPF_PLOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
             + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p > 1.0 - _PPF_PLOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
              + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    else:
        a, b = _PPF_A, _PPF_B
        q = p - 0.5
        r = q * q
        x = q * (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
                 + a[5]) / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                             + b[4]) * r + 1.0)
    e = 0.5 * math.erfc(-x / _SQRT2) - p
    if abs(x) < 36.0:
        u = e * _SQRT_2PI * math.exp(0.5 * x * x)
    else:
        u = math.copysign(
            math.exp(math.log(abs(e) + 1e-320) + 0.5 * x * x + _LN_SQRT_2PI),
            e)
    return x - u / (1.0 + 0.5 * x * u)


def Phi_inv(p):
    """Standard normal quantile on the open interval (0, 1).

    Acklam's rational approximation refined by one Halley step, which
    brings the relative error to a few ulp across the whole range.
    """
    if isinstance(p, (float, int)):
        p = float(p)
        if not 0.0 < p < 1.0:
            raise ValueError("Phi_inv requires 0 < p < 1")
        return _ppf_scalar(p)

    def _eval(p):
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("Phi_inv requires 0 < p < 1")
        x = _ppf_raw(p)
        # Halley refinement; switch to log space once exp(x^2/2) overflows.
        e = np.asarray(Phi(x)) - p
        safe = np.abs(x) < 36.0
        u = np.where(safe,
                     e * _SQRT_2PI * np.exp(np.where(safe, 0.5 * x * x, 0.0)),
                     np.sign(e) * np.exp(np.log(np.abs(e) + 1e-320)
                                         + 0.5 * x * x + _LN_SQRT_2PI))
        x = x - u / (1.0 + 0.5 * x * u)
        return x

    return _dispatch(p, _eval)


def norm_isf(q):
    """Upper-tail normal quantile: x with 1 - Phi(x) = q."""
    if isinstance(q, (float, int)):
        q = float(q)
        if not 0.0 < q < 1.0:
            raise ValueError("norm_isf requires 0 < q < 1")
        return -_ppf_scalar(q)
    q = np.asarray(q, dtype=np.float64)
    out = -np.asarray(Phi_inv(q))
    return float(out) if out.ndim == 0 else out


def norm_isf_log(lq: float) -> float:
    """Upper-tail normal quantile from the log tail mass.

    Solves norm_logsf(x) = lq for x, valid for lq <= log(1/2) even when
    exp(lq) underflows.  Used by crossing solvers operating far in the
    tails.
    """
    if lq > math.log(0.5) + 1e-15:
        raise ValueError("norm_isf_log requires lq <= log(1/2)")
    if lq >= -700.0:
        return float(norm_isf(math.exp(lq)))
    # Asymptotic seed: lq ~ -x^2/2 - log(x) - log(sqrt(2 pi)).
    x = math.sqrt(-2.0 * lq)
    for _ in range(4):
        x = math.sqrt(max(-2.0 * (lq + math.log(x) + _LN_SQRT_2PI), 1.0))
    # Newton on norm_logsf; d/dx log(1-Phi(x)) = -1/mills(x).
    for _ in range(60):
        mills = 0.5 * _SQRT_2PI * erfcx(x / _SQRT2)
        step = (norm_logsf(x) - lq) * mills
        x = x + step
        if abs(step) < 1e-14 * max(1.0, abs(x)):
            break
    return x


# ---------------------------------------------------------------------------
# Regularized incomplete beta (continued fraction) and the Student-t family.

_BETA_EPS = 1e-15
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 2000


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
    raise RuntimeError(f"incomplete beta cf failed to converge "
                       f"(a={a}, b={b}, x={x})")


def _check_nu(nu: float) -> float:
    nu = float(nu)
    if not nu > 0.0:
        raise ValueError("degrees of freedom must be positive")
    return nu


def t_pdf(x: float, nu: float) -> float:
    """Student-t density."""
    nu = _check_nu(nu)
    return math.exp(t_logpdf(x, nu))


def _t_log_w(x: float, nu: float):
    """(log w, log(1 - w)) with w = nu/(nu + x^2), for x != 0.

    Formed from y = |x|/sqrt(nu) without squaring x, which overflows
    past about 1.3e154; for y > 1 only log y and 1/y are formed, since
    y itself overflows near the top of the double range when nu < 1.
    """
    if abs(x) <= math.sqrt(nu):
        y = abs(x) / math.sqrt(nu)
        log_w = -math.log1p(y * y)
        return log_w, log_w + 2.0 * math.log(y)
    log_y = math.log(abs(x)) - 0.5 * math.log(nu)
    log_1mw = -math.log1p((math.sqrt(nu) / abs(x)) ** 2)
    return log_1mw - 2.0 * log_y, log_1mw


def t_logpdf(x: float, nu: float) -> float:
    """Log of the Student-t density."""
    nu = _check_nu(nu)
    x = float(x)
    log_w = _t_log_w(x, nu)[0] if x != 0.0 else 0.0
    return (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
            - 0.5 * math.log(nu * math.pi) + 0.5 * (nu + 1.0) * log_w)


def _t_log_tail(x: float, nu: float) -> float:
    """log P(T > |x|) = log(I_w(nu/2, 1/2) / 2) for x != 0.

    I_w is the regularized incomplete beta function at
    w = nu/(nu + x^2), evaluated by its continued fraction directly or
    through the complement I_w(a, b) = 1 - I_(1-w)(b, a).
    """
    a, b = 0.5 * nu, 0.5
    log_w, log_1mw = _t_log_w(x, nu)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * log_w + b * log_1mw)
    w = math.exp(log_w)
    if w < (a + 1.0) / (a + b + 2.0):
        return math.log(0.5) + log_front + math.log(_betacf(a, b, w) / a)
    tail = math.exp(log_front) * _betacf(b, a, math.exp(log_1mw)) / b
    return math.log(0.5) + math.log1p(-tail) if tail < 1.0 else -math.inf


def t_cdf(x: float, nu: float) -> float:
    """Student-t cdf via the regularized incomplete beta function."""
    nu = _check_nu(nu)
    x = float(x)
    if x == 0.0:
        return 0.5
    tail = math.exp(_t_log_tail(x, nu))
    return tail if x < 0.0 else 1.0 - tail


def t_sf(x: float, nu: float) -> float:
    """Student-t upper tail 1 - F(x), accurate for large x."""
    return t_cdf(-x, nu)


def t_logsf(x: float, nu: float) -> float:
    """log of the Student-t upper tail, stable far into the tail."""
    nu = _check_nu(nu)
    x = float(x)
    if x <= 0.0:
        return math.log(t_cdf(-x, nu))
    return _t_log_tail(x, nu)


def _t_tail_quantile(q: float, nu: float) -> float:
    # x >= 0 with t_sf(x, nu) = q for tail mass q in (0, 1/2].
    if q == 0.5:
        return 0.0
    x = float(norm_isf(q)) if q > 1e-300 else 40.0
    lo, hi = 0.0, max(2.0 * x, 1.0)
    for _ in range(600):
        if t_sf(hi, nu) <= q:
            break
        if hi == sys.float_info.max:
            return math.inf  # the quantile lies past the double range
        lo, hi = hi, min(hi * 4.0, sys.float_info.max)
    else:
        raise RuntimeError("t_quantile failed to bracket")
    x = min(max(x, lo), hi)
    for _ in range(200):
        f = t_sf(x, nu) - q
        if f > 0.0:
            lo = x
        else:
            hi = x
        dens = t_pdf(x, nu)
        x_new = x + f / dens if dens > 0.0 else 0.5 * lo + 0.5 * hi
        if not lo < x_new < hi:
            x_new = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        if abs(x_new - x) <= 1e-13 * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    return x


def t_quantile(p: float, nu: float) -> float:
    """Student-t quantile by bracketing plus safeguarded Newton.

    Solved in terms of the tail mass, so quantiles stay accurate to
    about 1e-13 relative in both tails.
    """
    nu = _check_nu(nu)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("t_quantile requires 0 < p < 1")
    if p < 0.5:
        return -_t_tail_quantile(p, nu)
    return _t_tail_quantile(1.0 - p, nu)


def t_isf(q: float, nu: float) -> float:
    """Upper-tail Student-t quantile: x with 1 - F(x) = q."""
    nu = _check_nu(nu)
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError("t_isf requires 0 < q < 1")
    if q <= 0.5:
        return _t_tail_quantile(q, nu)
    return -_t_tail_quantile(1.0 - q, nu)


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma and the chi distribution.

_GAM_MAXIT = 50000
_GAM_EPS = 1e-15


def _gser(a: float, x: float) -> float:
    # Series representation, good for x < a + 1.
    ap = a
    s = 1.0 / a
    delta = s
    for _ in range(_GAM_MAXIT):
        ap += 1.0
        delta *= x / ap
        s += delta
        if abs(delta) < abs(s) * _GAM_EPS:
            return s * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise RuntimeError(f"incomplete gamma series failed (a={a}, x={x})")


def _gcf(a: float, x: float) -> float:
    # Continued fraction for the upper tail, good for x >= a + 1.
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
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise RuntimeError(f"incomplete gamma cf failed (a={a}, x={x})")


def gammainc_lower_reg(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x)."""
    if a <= 0.0:
        raise ValueError("gammainc_lower_reg requires a > 0")
    if x < 0.0:
        raise ValueError("gammainc_lower_reg requires x >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gser(a, x)
    return 1.0 - _gcf(a, x)


def chi_cdf(x: float, nu: float) -> float:
    """Cdf of the chi distribution (square root of a chi-square)."""
    nu = _check_nu(nu)
    x = float(x)
    if x < 0.0:
        raise ValueError("chi_cdf requires x >= 0")
    return gammainc_lower_reg(0.5 * nu, 0.5 * x * x)


def _chi_logpdf(x: float, nu: float) -> float:
    return ((nu - 1.0) * math.log(x) - 0.5 * x * x
            - (0.5 * nu - 1.0) * math.log(2.0) - math.lgamma(0.5 * nu))


def chi_quantile(p: float, nu: float) -> float:
    """Quantile of the chi distribution by safeguarded Newton."""
    nu = _check_nu(nu)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("chi_quantile requires 0 < p < 1")
    # Wilson-Hilferty seed for the chi-square quantile.
    z = float(Phi_inv(p))
    seed = nu * (1.0 - 2.0 / (9.0 * nu) + z * math.sqrt(2.0 / (9.0 * nu))) ** 3
    x = math.sqrt(max(seed, 1e-12))
    lo, hi = 0.0, max(4.0 * x, 1.0)
    for _ in range(400):
        if chi_cdf(hi, nu) >= p:
            break
        lo, hi = hi, hi * 4.0
    else:
        raise RuntimeError("chi_quantile failed to bracket")
    x = min(max(x, lo + 1e-300), hi)
    for _ in range(200):
        f = chi_cdf(x, nu) - p
        if f > 0.0:
            hi = x
        else:
            lo = x
        dens = math.exp(_chi_logpdf(x, nu)) if x > 0.0 else 0.0
        x_new = x - f / dens if dens > 0.0 else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-14 * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    return x
