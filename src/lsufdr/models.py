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
            if self.nu is None or not self.nu > 0.0:
                raise ValueError("student_t family requires nu > 0")
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
        if int(self.n) < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("zeta must lie in [0, 1]")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))

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


def _check_z(model: ModelSpec, z: float) -> float:
    z = float(z)
    if model.family == STUDENT_T and not z > 0.0:
        raise ValueError("student_t disturbance must satisfy s > 0")
    if model.family == EXPONENTIAL and z < 0.0:
        raise ValueError("exponential disturbance must satisfy z >= 0")
    return z


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return t


def f_infinity(model: ModelSpec, t: float, z: float) -> float:
    """Limiting conditional cdf of a null p-value given Z = z."""
    t = _check_t(t)
    z = _check_z(model, z)
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return 1.0
    if model.family == NORMAL:
        arg = sf.norm_isf(t) / math.sqrt(model.rho_bar) \
            + math.sqrt(model.rho / model.rho_bar) * z
        return sf.norm_sf(arg)
    if model.family == STUDENT_T:
        return sf.norm_sf(z * sf.t_isf(t, model.nu))
    # exponential, piecewise in t
    ez = math.exp(-z)
    if t <= 0.5:
        return 2.0 * ez * t
    upper = 1.0 - 0.5 * ez
    if t <= upper:
        return ez / (2.0 - 2.0 * t)
    return 1.0


def f_infinity_mixed(model: ModelSpec, t: float, z: float,
                     zeta: float) -> float:
    """Limiting cdf when a fraction 1 - zeta of p-values sits at zero."""
    zeta = float(zeta)
    if not 0.0 < zeta <= 1.0:
        raise ValueError("zeta must lie in (0, 1]")
    return (1.0 - zeta) + zeta * f_infinity(model, t, z)


def gamma_at_zero(model: ModelSpec, z: float) -> float:
    """Slope of F_inf(.|z) at t = 0."""
    z = _check_z(model, z)
    if model.family == EXPONENTIAL:
        return 2.0 * math.exp(-z)
    # both the normal and studentized families are flat at zero
    return 0.0


def _crossing_quantile(t: float, alpha: float, zeta: float) -> float:
    """Phi_inv(q) for q = (1 - t/alpha)/zeta, inside the admissible window.

    q rounds to 1 within about one ulp of t_lower = alpha*(1-zeta), so
    the smaller of q and 1 - q = (t - t_lower)/(alpha*zeta) is formed
    directly and passed to the upper-tail quantile.
    """
    p = (t - alpha * (1.0 - zeta)) / (alpha * zeta)
    if p <= 0.5:
        return sf.norm_isf(p)
    return -sf.norm_isf((alpha - t) / (alpha * zeta))


def z_of_t(model: ModelSpec, t: float, alpha: float, zeta: float) -> float:
    """Disturbance value whose mixed cdf meets t/alpha exactly at t.

    The admissible window is alpha*(1-zeta) < t < alpha for the normal
    family and alpha*(1-zeta) < t < alpha*(1-zeta/2) for the
    studentized one; outside it no disturbance value solves the
    crossing equation and a ValueError is raised.
    """
    t = float(t)
    alpha = float(alpha)
    zeta = float(zeta)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not 0.0 < zeta <= 1.0:
        raise ValueError("zeta must lie in (0, 1]")
    t_lower = alpha * (1.0 - zeta)
    if model.family == NORMAL:
        if not t_lower < t < alpha:
            raise ValueError(f"t={t} outside ({t_lower}, {alpha})")
        return math.sqrt(model.rho_bar / model.rho) \
            * _crossing_quantile(t, alpha, zeta) \
            - sf.norm_isf(t) / math.sqrt(model.rho)
    if model.family == STUDENT_T:
        t_upper = alpha * (1.0 - 0.5 * zeta)
        if not t_lower < t < t_upper:
            raise ValueError(f"t={t} outside ({t_lower}, {t_upper})")
        return _crossing_quantile(t, alpha, zeta) / sf.t_isf(t, model.nu)
    # exponential: solve (1-zeta) + zeta*2*exp(-z)*t = t/alpha on the
    # linear stretch t <= 1/2
    if not t_lower < t < alpha or t > 0.5:
        raise ValueError(f"t={t} outside the admissible exponential window")
    arg = (t / alpha - (1.0 - zeta)) / (2.0 * zeta * t)
    if not 0.0 < arg <= 1.0:
        raise ValueError(f"t={t} has no disturbance solution with z >= 0")
    return -math.log(arg)


def disturbance_cdf(model: ModelSpec, z: float) -> float:
    """Cdf W_Z of the disturbance variable at z."""
    if model.family == NORMAL:
        return sf.Phi(float(z))
    if model.family == STUDENT_T:
        z = float(z)
        if z <= 0.0:
            return 0.0
        # S = chi_nu variate / sqrt(nu), so P(S <= s) = F_chi(sqrt(nu) s)
        return sf.chi_cdf(math.sqrt(model.nu) * z, model.nu)
    z = float(z)
    return -math.expm1(-z) if z > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Sampling.


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for a (seed, substream...) combination."""
    ss = np.random.SeedSequence(entropy=(int(seed), *map(int, key)))
    return np.random.Generator(np.random.Philox(ss))


def _uniform_open(rng: np.random.Generator, size=None):
    # uniforms in the open interval so inverse-cdf transforms stay finite
    u = rng.random(size)
    tiny = 1e-16
    return np.clip(u, tiny, 1.0 - tiny)


def draw_disturbance(model: ModelSpec, rng: np.random.Generator) -> float:
    """One draw of Z by inverse-cdf transform."""
    u = float(_uniform_open(rng))
    if model.family == NORMAL:
        return float(sf.Phi_inv(u))
    if model.family == STUDENT_T:
        return sf.chi_quantile(u, model.nu) / math.sqrt(model.nu)
    return -math.log1p(-u)


def _null_pvalues(model: ModelSpec, n0: int, z: float,
                  rng: np.random.Generator) -> np.ndarray:
    if n0 == 0:
        return np.empty(0, dtype=np.float64)
    u = _uniform_open(rng, n0)
    if model.family == NORMAL:
        x = np.asarray(sf.Phi_inv(u))
        y = math.sqrt(model.rho_bar) * x - math.sqrt(model.rho) * z
        return np.asarray(sf.norm_sf(y))
    if model.family == STUDENT_T:
        x = np.asarray(sf.Phi_inv(u))
        ratio = x / z
        return sf.t_sf(ratio, model.nu)
    x = -np.log1p(-u)
    return _laplace_sf(x - z)


def _laplace_sf(w: np.ndarray) -> np.ndarray:
    # 1 - W_T(w) for the difference of two standard exponentials
    w = np.asarray(w, dtype=np.float64)
    return np.where(w <= 0.0, 1.0 - 0.5 * np.exp(w), 0.5 * np.exp(-w))


def _false_pvalues(model: ModelSpec, n1: int, z: float,
                   rng: np.random.Generator) -> np.ndarray:
    if n1 == 0:
        return np.empty(0, dtype=np.float64)
    if model.family == EXPONENTIAL and model.false_theta is not None:
        u = _uniform_open(rng, n1)
        x = model.false_theta - np.log1p(-u)
        return _laplace_sf(x - z)
    return np.zeros(n1, dtype=np.float64)


def _assemble(model: ModelSpec, config: ExtremeConfig, z: float,
              rng: np.random.Generator):
    from .stepup import PValueSample

    n0 = config.n0
    nulls = _null_pvalues(model, n0, z, rng)
    falses = _false_pvalues(model, config.n1, z, rng)
    pv = np.concatenate([nulls, falses])
    labels = np.zeros(config.n, dtype=bool)
    labels[:n0] = True
    return PValueSample(pvalues=pv, is_true_null=labels)


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
