"""Exchangeable dependence models with a shared disturbance variable.

Three families are supported.  In each one the test statistics are
T_i = g(X_i, Z) with i.i.d. X_i and a single disturbance Z, so that
conditionally on Z = z the null p-values are i.i.d. with cdf
F_inf(. | z):

* ``normal``      T_i = theta_i + sqrt(1-rho) X_i - sqrt(rho) X_0 with
                  standard normal X_i, X_0; z is the realized X_0.
* ``student_t``   T_i = X_i / S with standard normal X_i and
                  nu S^2 ~ chi-square(nu); z is the realized S > 0.
* ``exponential`` T_i = X_i - Z with standard exponential X_i, Z
                  (location shifts theta_i under alternatives); z >= 0.

A fraction zeta of hypotheses is true; the remaining ones are "totally
false" and carry p = 0 exactly (the exponential family optionally uses
a finite location shift instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .stepup import PValueSample, _check_alpha, _check_count, \
    _check_pvalues, _probed_counts

__all__ = [
    "NORMAL",
    "STUDENT_T",
    "EXPONENTIAL",
    "ModelSpec",
    "ExtremeConfig",
    "f_infinity",
    "f_infinity_mixed",
    "gamma_at_zero",
    "z_of_t",
    "disturbance_cdf",
    "sample_pvalues",
    "sample_pvalues_conditional",
]

NORMAL = "normal"
STUDENT_T = "student_t"
EXPONENTIAL = "exponential"
_FAMILIES = (NORMAL, STUDENT_T, EXPONENTIAL)


@dataclass(frozen=True)
class ModelSpec:
    """One of the three model families with its dependence parameter."""

    family: str
    rho: float | None = None
    nu: float | None = None
    false_theta: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"expected one of {_FAMILIES}")
        if self.family == NORMAL:
            if self.rho is None or not 0.0 < self.rho < 1.0:
                raise ValueError("normal family requires 0 < rho < 1")
            if self.nu is not None:
                raise ValueError("nu does not apply to the normal family")
        elif self.family == STUDENT_T:
            if self.nu is None or not 0.0 < self.nu < math.inf:
                raise ValueError("student_t family requires finite nu > 0")
            if self.rho is not None:
                raise ValueError("rho does not apply to the student_t family")
        else:
            if self.rho is not None or self.nu is not None:
                raise ValueError("exponential family carries no rho/nu")
            if self.false_theta is not None and not self.false_theta > 0.0:
                raise ValueError("false_theta must be positive")
        if self.false_theta is not None and self.family != EXPONENTIAL:
            raise ValueError("false_theta is only supported for exponential")

    @staticmethod
    def normal(rho: float) -> "ModelSpec":
        return ModelSpec(family=NORMAL, rho=float(rho))

    @staticmethod
    def student_t(nu: float) -> "ModelSpec":
        return ModelSpec(family=STUDENT_T, nu=float(nu))

    @staticmethod
    def exponential(false_theta: float | None = None) -> "ModelSpec":
        return ModelSpec(family=EXPONENTIAL, false_theta=false_theta)

    @property
    def rho_bar(self) -> float:
        return 1.0 - self.rho


@dataclass(frozen=True)
class ExtremeConfig:
    """Sample size, true-null proportion and seed for one draw."""

    n: int
    zeta: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n, "n", 1))
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("zeta must lie in [0, 1]")
        object.__setattr__(self, "seed", _check_count(self.seed, "seed", 0))

    @property
    def n0(self) -> int:
        # round half-up so n0/n is a consistent finite-n version of zeta
        return min(self.n, int(math.floor(self.zeta * self.n + 0.5)))

    @property
    def n1(self) -> int:
        return self.n - self.n0

    @property
    def zeta_n(self) -> float:
        return self.n0 / self.n


def _floats(x):
    """x as a float if it is a number or 0-d, else as a float64 array."""
    if isinstance(x, (float, int)):
        return float(x)
    x = np.asarray(x, dtype=np.float64)
    return float(x) if x.ndim == 0 else x


def _check_z(model: ModelSpec, z):
    """z as `_floats` gives it, once its smallest value (nan if any is)
    rules out nan and values below the family's support."""
    z = _floats(z)
    low = z if isinstance(z, float) else float(np.min(z, initial=math.inf))
    if math.isnan(low):
        raise ValueError("disturbance value is nan")
    if model.family == STUDENT_T and not low > 0.0:
        raise ValueError("student_t disturbance must satisfy s > 0")
    if model.family == EXPONENTIAL and low < 0.0:
        raise ValueError("exponential disturbance must satisfy z >= 0")
    return z


def _check_zeta(zeta: float) -> float:
    zeta = float(zeta)
    if not 0.0 < zeta <= 1.0:
        raise ValueError("zeta must lie in (0, 1]")
    return zeta


def _check_alpha_zeta(alpha: float, zeta: float) -> tuple[float, float]:
    return _check_alpha(alpha), _check_zeta(zeta)


def _check_t(t):
    t = _floats(t)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise ValueError("t must lie in [0, 1]")
    return t


def _null_cdf(model: ModelSpec, t, z, isf=None):
    """F_inf(t | z) for 0 < t < 1, unchecked, on floats or broadcasting
    arrays.  The exponential law holds for any real z: the sampler's
    shifted alternatives are its nulls at z - false_theta.  isf, if
    given, is `_cutoff_quantile(model, t)`, solved once by a caller that
    asks at many z."""
    if model.family != EXPONENTIAL:
        x = null_isf(model, t) if isf is None else isf
        if model.family == NORMAL:
            return sf.norm_sf(x / math.sqrt(model.rho_bar)
                              + math.sqrt(model.rho / model.rho_bar) * z)
        return sf.norm_sf(z * x)
    # exponential: 2 e^-z t up to t = 1/2, e^-z / (2 - 2t) beyond, at most
    # 1.  Bounding -z at 709 keeps e^-z finite; past the bound the law is 1
    # for every t above 1e-308 either way.
    ez = math.exp(min(-z, 709.0)) if isinstance(z, float) \
        else np.exp(np.minimum(-z, 709.0))
    return np.minimum(np.where(t <= 0.5, 2.0 * ez * t, ez / (2.0 - 2.0 * t)),
                      1.0)


def f_infinity(model: ModelSpec, t, z):
    """Limiting conditional cdf F_inf(t | z) of a null p-value given Z = z.

    t and z are floats, giving a float, or arrays that broadcast, giving
    an array of their shape (numpy kernels rather than scalar calls).
    """
    t, z = _check_t(t), _check_z(model, z)
    if isinstance(t, float) and isinstance(z, float):
        return float(_null_cdf(model, t, z)) if 0.0 < t < 1.0 \
            else float(t == 1.0)
    if isinstance(t, float) and 0.0 < t < 1.0:
        return _null_cdf(model, t, z)  # one null quantile of t for all z
    t, z = np.broadcast_arrays(t, z)
    out = (t == 1.0).astype(np.float64)  # F_inf(0 | z) = 0, F_inf(1 | z) = 1
    inner = (0.0 < t) & (t < 1.0)
    out[inner] = _null_cdf(model, t[inner], z[inner])
    return out


def f_infinity_mixed(model: ModelSpec, t, z, zeta: float):
    """Limiting cdf when a fraction 1 - zeta of p-values sits at zero;
    takes arrays as `f_infinity` does."""
    zeta = _check_zeta(zeta)
    return (1.0 - zeta) + zeta * f_infinity(model, t, z)


def gamma_at_zero(model: ModelSpec, z: float) -> float:
    """Slope of F_inf(.|z) at t = 0."""
    z = _check_z(model, z)
    if model.family == EXPONENTIAL:
        return 2.0 * math.exp(-z)
    # both the normal and studentized families are flat at zero
    return 0.0


def crossing_window(model: ModelSpec, alpha: float,
                    zeta: float) -> tuple[float, float]:
    """(t_lower, t_upper): where some disturbance's mixed cdf meets t/alpha.

    The studentized null cdf is at most 1/2 for t <= 1/2, which lowers
    its t_upper from alpha to alpha*(1-zeta/2).
    """
    t_lower = alpha * (1.0 - zeta)
    if model.family == STUDENT_T:
        return t_lower, alpha * (1.0 - 0.5 * zeta)
    return t_lower, alpha


def _crossing_quantile(p: float, pc: float) -> float:
    """Phi_inv(1 - p) for t's place p = (t - t_lower)/(alpha*zeta) in the
    window, given p and pc = 1 - p = (alpha - t)/(alpha*zeta) as each is
    formed without cancellation.

    1 - p rounds to 1 within about one ulp of t_lower, so the smaller of
    p and pc goes to the upper-tail quantile.  The value is inf for
    p <= 0 (t at or below t_lower) and -inf for pc <= 0 (t >= alpha).
    """
    if p <= 0.0:
        return math.inf
    if p <= 0.5:
        return sf.norm_isf(p)
    return -sf.norm_isf(pc) if pc > 0.0 else -math.inf


def z_of_t(model: ModelSpec, t: float, alpha: float, zeta: float) -> float:
    """Disturbance value whose mixed cdf meets t/alpha exactly at t.

    Outside the open window of `crossing_window` (and above t = 1/2 for
    the exponential family) no disturbance value solves the crossing
    equation and a ValueError is raised.
    """
    t = float(t)
    alpha, zeta = _check_alpha_zeta(alpha, zeta)
    t_lower, t_upper = crossing_window(model, alpha, zeta)
    if model.family != EXPONENTIAL:
        if not t_lower < t < t_upper:
            raise ValueError(f"t={t} outside ({t_lower}, {t_upper})")
    elif not t_lower < t < t_upper or t > 0.5:
        raise ValueError(f"t={t} outside the admissible exponential window")
    return _z_of_fraction(model, t, (t - t_lower) / (alpha * zeta),
                          (alpha - t) / (alpha * zeta))


def _z_of_fraction(model: ModelSpec, t: float, p: float, pc: float) -> float:
    """`z_of_t` from t and its (p, 1 - p) (`_crossing_quantile`),
    unchecked, for callers that form p without forming t - t_lower."""
    if model.family == EXPONENTIAL:
        # (1-zeta) + zeta*2*exp(-z)*t = t/alpha on the linear stretch
        # t <= 1/2, where t/alpha - (1-zeta) = zeta*p
        arg = p / (2.0 * t)
        if not 0.0 < arg <= 1.0:
            raise ValueError(f"t={t} has no disturbance solution with z >= 0")
        return -math.log(arg)
    x, u = _crossing_quantile(p, pc), null_isf(model, t)
    if model.family == NORMAL:
        return math.sqrt(model.rho_bar / model.rho) * x \
            - u / math.sqrt(model.rho)
    return x / u


# The crossing map on the null quantile u, where t = sf(u) is the upper
# tail of the null statistic: normal, or Student's t for student_t.


def null_isf(model: ModelSpec, t: float) -> float:
    """Null quantile u with upper tail mass t."""
    return sf.norm_isf(t) if model.family == NORMAL else sf.t_isf(t, model.nu)


def null_sf(model: ModelSpec, u: float) -> float:
    """Upper tail mass t of the null statistic at u."""
    return sf.norm_sf(u) if model.family == NORMAL else sf.t_sf(u, model.nu)


def null_pdf(model: ModelSpec, u: float) -> float:
    """Density of the null statistic at u, so that dt = -null_pdf du."""
    return sf.phi(u) if model.family == NORMAL else sf.t_pdf(u, model.nu)


def _erfcx_ratio(x: float, u: float) -> float:
    # log(erfcx(x/sqrt 2)/erfcx(u/sqrt 2)) = norm_logsf(x) - norm_logsf(u)
    # + (x^2 - u^2)/2, with the quadratic parts cancelled analytically
    r2 = math.sqrt(2.0)
    return math.log(sf.erfcx(x / r2) / sf.erfcx(u / r2))


def _tail_gap(u: float, alpha: float) -> float:
    """x - u for the fully-null normal crossing quantile x at u > 30.

    norm_logsf(x) = norm_logsf(u) - log(alpha) reads d*(u + d/2) -
    _erfcx_ratio(u + d, u) = log(alpha) for d = x - u, whose derivative
    in d is x + 1/x up to O(1/x^3): Newton's method solves it to full
    relative accuracy however large u is.
    """
    la = math.log(alpha)
    return sf._solve_increasing(
        lambda d: d * (u + 0.5 * d) - _erfcx_ratio(u + d, u) - la,
        2.0 * la / u, 0.0, 1e-16, lambda d: (u + d) + 1.0 / (u + d), la / u)


def crossing_at(model: ModelSpec, u: float, alpha: float,
                zeta: float) -> tuple[float, float, float]:
    """(t, z, slope) at the null quantile u: t = null_sf(u), z = z_of_t(t)
    (+-inf past the window ends) and slope with the sign of dz/du.

    With x the crossing quantile, x' = pdf(u)/(alpha*zeta*phi(x)) and
    dz/du = sqrt(rho_bar/rho)*x' - 1/sqrt(rho) (normal) or (x'u - x)/u^2
    (studentized), slope is log(sqrt(rho_bar)*x') or log(x'u/x).  At
    zeta = 1, x comes from the log tail mass, so u stays finite where t
    underflows, and past u = 30 the normal z, a small difference of
    terms of size u, is formed from the gap x - u (`_tail_gap`).
    """
    rho = model.rho
    if zeta == 1.0 and model.family == NORMAL and u > 30.0:
        d = _tail_gap(u, alpha)
        srb = math.sqrt(model.rho_bar)
        z = srb / math.sqrt(rho) * d - math.sqrt(rho) * u / (1.0 + srb)
        return sf.norm_sf(u), z, 0.5 * math.log1p(-rho) \
            + _erfcx_ratio(u + d, u)
    if zeta < 1.0:
        t = null_sf(model, u)
        x = _crossing_quantile((t - alpha * (1.0 - zeta)) / (alpha * zeta),
                               (alpha - t) / (alpha * zeta))
    else:
        lsf = sf.norm_logsf(u) if model.family == NORMAL \
            else sf.t_logsf(u, model.nu)
        t = math.exp(lsf)
        lq = lsf - math.log(alpha)
        x = sf.norm_isf_log(lq) if lq < math.log(0.5) \
            else _crossing_quantile(t / alpha, (alpha - t) / alpha)
    if model.family == NORMAL:
        z = math.sqrt(model.rho_bar / rho) * x - u / math.sqrt(rho)
        if math.isinf(x):
            return t, z, math.inf
        if zeta == 1.0:
            return t, z, 0.5 * math.log1p(-rho) + _erfcx_ratio(x, u)
        return t, z, 0.5 * math.log1p(-rho) - math.log(alpha * zeta) \
            + 0.5 * (x - u) * (x + u)
    if not 0.0 < x < math.inf:
        return t, x / u, math.inf
    return t, x / u, sf.t_logpdf(u, model.nu) - math.log(alpha * zeta) \
        + 0.5 * x * x + 0.5 * math.log(2.0 * math.pi) + math.log(u / x)


def disturbance_cdf(model: ModelSpec, z: float) -> float:
    """Cdf W_Z of the disturbance variable at z, 0 below its support."""
    return _disturbance_law(model, z, False)


def _disturbance_law(model: ModelSpec, z: float, upper: bool) -> float:
    """W_Z(z), or with upper P(Z > z) formed directly: 1 - W_Z(z) keeps
    only 1e-16 absolute where the tail is small."""
    if model.family == NORMAL:
        return (sf.norm_sf if upper else sf.Phi)(_check_z(model, z))
    z = float(z)
    if z <= 0.0:
        return float(upper)
    z = _check_z(model, z)
    if model.family == STUDENT_T:
        # S = chi_nu variate / sqrt(nu), so P(S <= s) = F_chi(sqrt(nu) s)
        x = math.sqrt(model.nu) * z
        return sf._chi_pq(x, model.nu, True) if upper \
            else sf.chi_cdf(x, model.nu)
    return math.exp(-z) if upper else -math.expm1(-z)


# ---------------------------------------------------------------------------
# Sampling.


# uniforms are clipped to [_U_TINY, 1 - _U_TINY] so inverse-cdf
# transforms stay finite; the tail sampler lowers its uniform threshold
# by _U_MARGIN against rounding in the p-value kernels
_U_TINY = 1e-16
_U_MARGIN = 1e-9
# relative bound on how far a p-value kernel's rounding can lift a larger
# uniform's p-value above a smaller one's: at most 1.9e-15 on runs of
# consecutive doubles (a tier-1 test holds it below 1e-12), where each
# kernel's error against its law is of order 1e-13
_P_SLACK = 1e-9


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for a (seed, substream...) combination."""
    ss = np.random.SeedSequence(entropy=(int(seed), *map(int, key)))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (after O'Neill's seed_seq): a pool of 4
# uint32 words filled and mixed under INIT_A/MULT_A, read out under
# INIT_B/MULT_B
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _uint32_words(x: int) -> list[int]:
    """x as little-endian uint32 words, as SeedSequence splits an entropy
    integer: one word up to 2^32 - 1, and [0] for 0."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _seed_seq_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """The mixed pool of SeedSequence(entropy) for a column of entropy
    arrays, one uint32 array per entropy word."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value *= np.uint32(const)
        value ^= value >> 16
        return value

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        r ^= r >> 16
        return r

    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _substream_keys(seed: int, idx) -> np.ndarray:
    """Philox keys of make_rng(seed, i) for each index i in idx (a range or
    integers below 2^64), as the rows of a (len(idx), 2) uint64 array.

    Row i is SeedSequence(entropy=(seed, i)).generate_state(2, uint64),
    computed on uint32 columns, one pass for each entropy length.
    """
    if int(seed) < 0:
        raise ValueError("seed must be a nonnegative integer")
    if isinstance(idx, range) and max(idx.start, idx.stop) <= 2 ** 63:
        idx = np.arange(idx.start, idx.stop, idx.step, dtype=np.uint64)
    idx = np.asarray(idx, dtype=np.uint64).reshape(-1)
    seed_words = _uint32_words(int(seed))
    low = (idx & np.uint64(_MASK32)).astype(np.uint32)
    high = (idx >> np.uint64(32)).astype(np.uint32)
    wide = high != 0
    keys = np.empty((idx.size, 2), np.uint64)
    for rows, words in ((~wide, [low]), (wide, [low, high])):
        if not rows.any():
            continue
        if not rows.all():
            words = [w[rows] for w in words]
        entropy = [np.full(words[0].size, w, np.uint32)
                   for w in seed_words] + words
        const = _INIT_B
        out = []
        for word in _seed_seq_pool(entropy):
            word = word ^ np.uint32(const)
            const = const * _MULT_B & _MASK32
            word *= np.uint32(const)
            word ^= word >> 16
            out.append(word.astype(np.uint64))
        keys[rows, 0] = out[0] | out[1] << np.uint64(32)
        keys[rows, 1] = out[2] | out[3] << np.uint64(32)
    return keys


# a Philox state at the start of a substream, but for its key: `_rekey`
# puts the key in and hands the dict to the state setter, which copies it
_SUBSTREAM_START = {
    "bit_generator": "Philox",
    "state": {"counter": (0, 0, 0, 0), "key": None},
    "buffer": (0, 0, 0, 0), "buffer_pos": 4,
    "has_uint32": 0, "uinteger": 0,
}


def _rekey(rng: np.random.Generator, key: np.ndarray) -> None:
    """Restart rng, a Philox generator, at the start of the substream
    keyed by key, a row of `_substream_keys`.

    Cheaper than building a generator: only the key, the counter and the
    buffer are set, from one module-level dict that each call rewrites,
    so it is not safe to call from several threads at once.
    """
    _SUBSTREAM_START["state"]["key"] = key
    rng.bit_generator.state = _SUBSTREAM_START


def _disturbance_quantile(model: ModelSpec, u: float) -> float:
    """Z at the uniform u, clipped to [_U_TINY, 1 - _U_TINY], by
    inverse-cdf transform."""
    u = min(max(u, _U_TINY), 1.0 - _U_TINY)
    if model.family == NORMAL:
        return float(sf.Phi_inv(u))
    if model.family == STUDENT_T:
        return sf.chi_quantile(u, model.nu) / math.sqrt(model.nu)
    return -math.log1p(-u)


def draw_disturbance(model: ModelSpec, rng: np.random.Generator) -> float:
    """One draw of Z by inverse-cdf transform."""
    return _disturbance_quantile(model, rng.random())


def _null_pvalues(model: ModelSpec, z, u) -> np.ndarray:
    """Null p-values of the uniforms u (a float or an array) given z (a
    float, or one value per element of u), decreasing in u."""
    if model.family == NORMAL:
        x = np.asarray(sf.Phi_inv(u))
        y = math.sqrt(model.rho_bar) * x - math.sqrt(model.rho) * z
        p = np.asarray(sf.norm_sf(y))
    elif model.family == STUDENT_T:
        x = np.asarray(sf.Phi_inv(u))
        p = np.asarray(sf.t_sf(x / z, model.nu))
    else:
        # 1 - W(w) for w = E - z, W the cdf of a difference of two
        # standard exponentials
        w = -np.log1p(-u) - z
        half = 0.5 * np.exp(-np.abs(w))
        p = np.where(w <= 0.0, 1.0 - half, half)
    return _check_pvalues(p)


def _uniform_count(model: ModelSpec, config: ExtremeConfig) -> int:
    """Uniforms a replicate draws after z: its n0 nulls, then its n1
    falses if they carry the exponential family's location shift."""
    return config.n if model.false_theta is not None else config.n0


def _cutoff_quantile(model: ModelSpec, cutoff: float):
    """The null quantile `_null_cdf` solves for a float cutoff in (0, 1),
    or None for the exponential family, whose law needs none."""
    return None if model.family == EXPONENTIAL else null_isf(model, cutoff)


def _threshold(model: ModelSpec, cutoff: float, z, isf=None):
    """The smallest uniform kept at disturbance z (a float or an array)
    for a cutoff in (0, 1): 1 - F_inf(cutoff | z) less _U_MARGIN,
    clipped as the uniforms are; isf as `_null_cdf` takes it."""
    return np.clip(1.0 - _null_cdf(model, cutoff, z, isf) - _U_MARGIN,
                   _U_TINY, 1.0 - _U_TINY)


def _kept_pvalues(model: ModelSpec, z: np.ndarray, u: np.ndarray,
                  cutoff: float):
    """(p, counts): the null p-values of row i of u, at disturbance z[i],
    that can lie at or below cutoff, row after row, and how many each
    row keeps.

    The p-values fall as u rises, so p <= cutoff exactly when u is at
    least 1 - F_inf(cutoff | z).  A row drops its uniforms below that
    threshold less a margin, unless the largest one it drops still maps
    to a p-value at or below the cutoff; then it keeps them all.
    """
    lo = _threshold(model, cutoff, z)
    kept = u >= lo[:, None]
    # u - kept is negative where kept, so a row's max is the largest
    # uniform it drops, if any
    top = (u - kept).max(axis=1, initial=-1.0)
    short = np.flatnonzero(top > 0.0)
    counts = np.count_nonzero(kept, axis=1)
    # the guards ride along at the end of the candidates' kernel call
    p = _null_pvalues(model, np.concatenate((np.repeat(z, counts), z[short])),
                      np.concatenate((u[kept], top[short])))
    split = p.size - short.size
    p, guard = p[:split], p[split:]
    back = short[guard <= cutoff]
    if back.size:
        # rows whose guard passes keep every uniform
        full = np.empty(u.shape)
        full[kept] = p
        full[back] = _null_pvalues(model, np.repeat(z[back], u.shape[1]),
                                   u[back].ravel()).reshape(back.size, -1)
        kept[back] = True
        counts[back] = u.shape[1]
        p = full[kept]
    return p, counts


def _candidate_uniforms(model: ModelSpec, count: int, z: float,
                        cutoff: float, rng: np.random.Generator, isf=None):
    """The uniforms that `_kept_pvalues` keeps of count null uniforms at
    disturbance z, largest first, drawing from rng only these and a guard.

    Given z, the K at or above the threshold lo number Binomial(count,
    1 - lo) and are i.i.d. uniform on [lo, 1).  The guard, the largest
    one below lo, is lo V^(1/(count - K)) for one more uniform V, clipped
    as the uniforms are.  Only if its p-value is at or below the cutoff
    are the other count - K - 1 drawn, uniform below it, and all kept.
    """
    lo = float(_threshold(model, cutoff, z, isf))
    k = int(rng.binomial(count, 1.0 - lo))
    u = np.minimum(lo + (1.0 - lo) * rng.random(k), 1.0 - _U_TINY)
    u = np.sort(u)[::-1]
    if k == count:
        return u
    guard = max(lo * rng.random() ** (1.0 / (count - k)), _U_TINY)
    if _null_pvalues(model, z, guard) > cutoff:
        return u
    rest = np.maximum(guard * rng.random(count - k - 1), _U_TINY)
    return np.concatenate((u, [guard], np.sort(rest)[::-1]))


def _candidate_counts(model: ModelSpec, config: ExtremeConfig, z: float,
                      cutoff: float, procedure: str,
                      rng: np.random.Generator, isf=None) -> tuple[int, int]:
    """(m, v) of the step-up ("lsu") or step-down ("lsd") procedure at
    level cutoff on one replicate at disturbance z: what `_sample_block`
    and a count on its row give in law, drawing from rng only the
    uniforms that `_kept_pvalues` keeps (`_candidate_uniforms`), for the
    nulls at z, then for shifted alternatives at z - false_theta.

    Each guard settles as its uniforms are drawn, before the search.  p
    falls as u rises, so the j-th smallest null p-value is the kernel at
    the j-th largest kept uniform, up to the kernel's rounding
    (`_P_SLACK`), and the one search of `stepup._probed_counts` maps only
    the uniforms at the ranks it probes.  The falses' p-values (zeros,
    unless shifted) are held in full.
    """
    u = _candidate_uniforms(model, config.n0, z, cutoff, rng, isf)
    if model.false_theta is None:
        falses = np.zeros(config.n1)
    else:
        shifted = z - model.false_theta
        w = _candidate_uniforms(model, config.n1, shifted, cutoff, rng, isf)
        falses = np.sort(_null_pvalues(model, shifted, w))
    return _probed_counts(lambda i: _null_pvalues(model, z, u[i]), u.size,
                          falses, cutoff, config.n, procedure == "lsd",
                          _P_SLACK)


def _sample_block(model: ModelSpec, config: ExtremeConfig, z: np.ndarray,
                  u: np.ndarray, cutoff: float):
    """Candidate p-values of a block of replicates, one row each.

    Row i of `u` (overwritten) holds the `_uniform_count` uniforms of
    replicate i in draw order, and z[i] is its disturbance.  Returns
    (p, nulls): row i of p holds the replicate's p-values that can lie
    at or below `cutoff` (`_kept_pvalues`), nulls first, then falses
    (exact zeros unless shifted), padded with +inf to the longest row;
    nulls[i] counts its nulls.  The sample size stays config.n.

    Why the step-up at level alpha = cutoff loses nothing: a dropped
    p-value exceeds alpha up to the kernel's rounding.  If the largest
    dropped uniform's p-value exceeds alpha, not all n p-values pass,
    so every rejected one is at or below alpha*(n-1)/n, which a dropped
    one could only reach through a relative rounding error above 1/n.
    """
    n0 = config.n0
    np.clip(u, _U_TINY, 1.0 - _U_TINY, out=u)
    nulls, c0 = _kept_pvalues(model, z, u[:, :n0], cutoff)
    if u.shape[1] > n0:
        # shifted alternatives are nulls at disturbance z - false_theta
        falses, c1 = _kept_pvalues(model, z - model.false_theta, u[:, n0:],
                                   cutoff)
    else:
        falses, c1 = 0.0, np.full(u.shape[0], config.n1)
    ends = c0 + c1
    p = np.full((u.shape[0], ends.max(initial=0)), np.inf)
    cols = np.arange(p.shape[1])
    p[cols < c0[:, None]] = nulls
    p[(cols >= c0[:, None]) & (cols < ends[:, None])] = falses
    return p, c0


def _assemble(model: ModelSpec, config: ExtremeConfig, z: float,
              rng: np.random.Generator):
    """One replicate's full p-value vector given z, on the uniforms it
    draws from rng, clipped as the engine's are: nulls at z, then falses,
    exact zeros unless shifted, as nulls at z - false_theta."""
    u = rng.random(_uniform_count(model, config))
    at = np.full(u.size, float(z))
    at[config.n0:] -= model.false_theta or 0.0  # empty unless shifted
    p = np.zeros(config.n)
    p[:u.size] = _null_pvalues(model, at, np.clip(u, _U_TINY, 1.0 - _U_TINY))
    return PValueSample(p, np.arange(config.n) < config.n0)


def sample_pvalues(model: ModelSpec, config: ExtremeConfig):
    """Draw Z and then a full p-value vector; returns (sample, z)."""
    rng = make_rng(config.seed)
    z = draw_disturbance(model, rng)
    return _assemble(model, config, z, rng), z


def sample_pvalues_conditional(model: ModelSpec, config: ExtremeConfig,
                               z: float):
    """Draw a p-value vector with the disturbance pinned to z."""
    z = _check_z(model, z)
    rng = make_rng(config.seed)
    return _assemble(model, config, z, rng)
