"""Exact finite-n identities for null p-values linear at zero.

When the null cdf satisfies F(t) = gamma*t on [0, alpha], the step-up
FDR equals (n0/n)*gamma*alpha exactly, for every n and regardless of
what the remaining p-values do.  When linearity only holds on a
shorter range [0, t*], the identity picks up the probability that the
leave-one-out order statistics stay above their critical values, which
this module evaluates exactly by a counting recursion: a numpy
vector-matrix product per bound level, with binomial transition
matrices built from one log-factorial table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import make_rng
from .stepup import _check_alpha, _check_count, _critical, _last_pass

__all__ = [
    "LinearNullSpec",
    "BoundarySpec",
    "exact_fdr_linear",
    "boundary_noncrossing_prob",
    "restricted_fdr_check",
]

_EXACT_M_LIMIT = 200
# relative slack of a few ulps with which a critical value counts as at or
# below t_star, and t_star as alpha: a t_star formed as k*alpha/n in
# another order may round below c_k
_RANK_SLACK = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class LinearNullSpec:
    """Null p-value model with cdf gamma*t on [0, t_star]."""

    gamma: float
    n0: int
    n: int
    t_star: float

    def __post_init__(self):
        if not self.gamma >= 0.0:
            raise ValueError("gamma must be nonnegative")
        object.__setattr__(self, "n", _check_count(self.n, "n", 1))
        object.__setattr__(self, "n0", _check_count(self.n0, "n0", 0))
        if self.n0 > self.n:
            raise ValueError("need n0 <= n")
        if not 0.0 < self.t_star <= 1.0:
            raise ValueError("t_star must lie in (0, 1]")
        if self.gamma * self.t_star > 1.0 + 1e-12:
            raise ValueError("gamma * t_star exceeds one")


@dataclass(frozen=True)
class BoundarySpec:
    """Lower bounds b_k..b_m for the top order statistics of m draws."""

    m: int
    lower_bounds: Sequence[float]

    def __post_init__(self):
        object.__setattr__(self, "m", _check_count(self.m, "m", 1))
        bounds = tuple(float(b) for b in self.lower_bounds)
        if len(bounds) > self.m:
            raise ValueError("more bounds than order statistics")
        if not all(0.0 <= b <= 1.0 for b in bounds):
            raise ValueError("bounds must lie in [0, 1]")
        if any(b2 < b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bounds must be nondecreasing")
        object.__setattr__(self, "lower_bounds", bounds)


def exact_fdr_linear(spec: LinearNullSpec, alpha: float) -> float:
    """Step-up FDR under full-range linearity: (n0/n)*gamma*alpha."""
    alpha = _check_alpha(alpha)
    if abs(spec.t_star - alpha) > _RANK_SLACK * alpha:
        raise ValueError("exact_fdr_linear needs linearity on all of "
                         "[0, alpha] (t_star = alpha)")
    if spec.gamma * alpha > 1.0 + 1e-12:
        raise ValueError("gamma * alpha exceeds one")
    return spec.n0 / spec.n * spec.gamma * alpha


def boundary_noncrossing_prob(spec: BoundarySpec,
                              null_cdf: Callable[[float], float]) -> float:
    """P(all constrained order statistics exceed their bounds).

    With m i.i.d. draws from null_cdf and bounds b_j attached to the
    order statistics j = m-len(bounds)+1, ..., m, the event is
    equivalent to N(b_j) < j for every constrained j, where N counts
    draws at or below a level.  The counting recursion (Noe 1972; Steck
    1971) walks the bound levels left to right, carrying the
    distribution of the running count: given i draws at or below the
    previous level, each of the m - i others falls below the next one
    with the conditional probability p, so one level is a product with
    the upper-triangular binomial matrix T[i, j] = P(Bin(m-i, p) = j-i),
    cut to the counts the bound allows.
    """
    m = spec.m
    if m > _EXACT_M_LIMIT:
        raise ValueError(f"exactness window is m <= {_EXACT_M_LIMIT}")
    bounds = spec.lower_bounds
    if not bounds:
        return 1.0
    j0 = m - len(bounds) + 1
    levels = [min(max(float(null_cdf(b)), 0.0), 1.0) for b in bounds]
    if any(math.isnan(level) for level in levels):  # the clip keeps nan
        raise ValueError("null_cdf returned nan")

    # log C(m-i, j-i) for j >= i, from one lgamma table; -inf below
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(m + 1)])
    counts = np.arange(m + 1)
    step = counts - counts[:, None]  # j - i
    rest = m - counts  # m - j
    log_choose = np.where(step >= 0, log_fact[rest[:, None]]
                          - log_fact[np.maximum(step, 0)] - log_fact[rest],
                          -np.inf)

    weights = np.ones(1)  # at cdf level 0 the count is 0
    beta_prev = 0.0
    for k, beta in enumerate(levels):
        beta = max(beta, beta_prev)  # guard against cdf rounding
        p = 0.0 if beta_prev >= 1.0 \
            else (beta - beta_prev) / (1.0 - beta_prev)
        rows, cols = weights.size, j0 + k  # N(level_k) <= j0 + k - 1
        if p <= 0.0:
            trans = np.eye(rows, cols)
        elif p >= 1.0:
            trans = np.zeros((rows, cols))  # all m draws, above every cap
        else:
            trans = np.exp(log_choose[:rows, :cols]
                           + step[:rows, :cols] * math.log(p)
                           + rest[:cols] * math.log1p(-p))
        weights = weights @ trans
        beta_prev = beta
    return min(max(math.fsum(weights), 0.0), 1.0)


def _linear_null_quantile(u: np.ndarray, gamma: float,
                          t_star: float) -> np.ndarray:
    """Inverse of the continued linear-at-zero cdf.

    Mass gamma*t_star is uniform on (0, t_star); the remainder is
    spread uniformly over (t_star, 1].  The head branch is capped at
    t_star, which u/gamma can top by an ulp at u = head, so Q is
    nondecreasing on every double.
    """
    head = gamma * t_star
    if head >= 1.0:
        return u / gamma
    # the upper branch in place on one array, which the head branch then
    # overwrites where u <= head
    out = u - head
    out *= 1.0 - t_star
    out /= 1.0 - head
    out += t_star
    below = u <= head
    np.divide(u, max(gamma, 1e-300), out=out, where=below)
    return np.minimum(out, t_star, out=out, where=below)


def _uniform_cuts(crit: np.ndarray, gamma: float,
                  t_star: float) -> np.ndarray:
    """For each critical value c_k, the largest double U_k in [0, 1) with
    Q(U_k) <= c_k, Q the linear null quantile, by bisection on the
    doubles' bit patterns with Q applied at every step.  Q is
    nondecreasing, so u <= U_k is Q(u) <= c_k for every double u.
    """
    lo = np.zeros(crit.size, np.int64)  # Q(0) = 0 passes
    hi = np.full(crit.size, np.float64(1.0).view(np.int64))
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        ok = _linear_null_quantile(mid.view(np.float64), gamma,
                                   t_star) <= crit
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo.view(np.float64)


def restricted_fdr_check(spec: LinearNullSpec, alpha: float,
                         replicates: int = 10 ** 6,
                         seed: int = 20250808):
    """Monte Carlo and exact sides of the restricted FDR identity.

    Left side: E[(V'/(R' v 1)) * 1{no ecdf crossing beyond t_star}]
    estimated over `replicates` samples with n0 linear-at-zero nulls
    and n - n0 p-values pinned at zero.  Right side: (n0/n) * gamma *
    alpha times the boundary-noncrossing probability of the n-1
    leave-one-out order statistics.  Returns (lhs, rhs).

    The left side forms no p-values.  Each replicate's n0 uniforms are
    sorted in place and compared with per-rank thresholds U_k, the
    largest doubles whose quantiles are at or below k*alpha/n
    (`_uniform_cuts`).  The n1 zeros fill ranks 1..n1, so R is n1 plus
    the last passing rank, and V = R - n1, as exactly R p-values lie at
    or below R*alpha/n.
    """
    alpha = _check_alpha(alpha)
    replicates = _check_count(replicates, "replicates", 1)
    seed = _check_count(seed, "seed", 0)
    n, n0 = spec.n, spec.n0
    n1 = n - n0
    gamma, t_star = spec.gamma, min(spec.t_star, alpha)
    crit = _critical(alpha, n)
    # the last rank whose critical value is at or below t_star
    r = int(np.searchsorted(crit, t_star * (1.0 + _RANK_SLACK), side="right"))

    # Exact side.  The leave-one-out vector holds n0-1 nulls plus n1
    # exact zeros; the zeros occupy the bottom ranks, so a constraint at
    # rank j <= n1 fails outright and otherwise rank j maps to order
    # statistic j - n1 of the remaining nulls.  The bound list
    # c_{r+1}..c_n then attaches to the top n-r of those n0-1 order
    # statistics, which is exactly the BoundarySpec convention.
    if n0 == 0 or r == 0 or (n1 >= 1 and r <= n1):
        rhs = 0.0
    elif r == n:
        rhs = n0 / n * gamma * alpha
    else:
        # the bounds lie above t_star (r is the last rank at or below it,
        # up to a few ulps), where the null cdf is affine; the clip in
        # boundary_noncrossing_prob flattens it when gamma*t_star = 1
        bounds = [(j + 1) * alpha / n for j in range(r, n)]
        bspec = BoundarySpec(m=n0 - 1, lower_bounds=bounds)
        head = gamma * t_star
        prob = boundary_noncrossing_prob(
            bspec,
            lambda t: head + (t - t_star) * (1.0 - head) / (1.0 - t_star))
        rhs = n0 / n * gamma * alpha * prob

    # Monte Carlo side
    cuts = _uniform_cuts(crit, gamma, t_star)
    rng = make_rng(seed, 811)
    chunk_sums = []
    chunk = max(1, min(200_000 // max(n, 1), replicates))
    done = 0
    while done < replicates:
        b = min(chunk, replicates - done)
        u = rng.random((b, n0))
        u.sort(axis=1)
        # column-major, so that the step-up's max runs down the columns of
        # these short rows
        rn = n1 + _last_pass(np.less_equal(u, cuts[n1:], order="F"))
        fdp = np.where((rn > 0) & (rn <= r), (rn - n1) / np.maximum(rn, 1),
                       0.0)
        chunk_sums.append(float(fdp.sum()))
        done += b
    lhs = math.fsum(chunk_sums) / replicates
    return lhs, rhs
