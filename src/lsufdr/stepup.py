"""Linear step-up and step-down procedures on realized p-value vectors.

The step-up procedure rejects the hypotheses belonging to the m smallest
p-values, where m is the largest index i with p_(i) <= i*alpha/n; the
step-down variant only keeps the longest prefix of ordered p-values that
all pass their critical values.  Inputs are never mutated and ties at a
critical value count as rejections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PValueSample", "RejectionResult", "lsu", "lsd", "ecdf"]


@dataclass(frozen=True)
class PValueSample:
    """A realized p-value vector with true/false-null labels.

    `n` is the number of hypotheses, by default the vector's length.  A
    larger n says that the other n - len(pvalues) p-values exceed alpha
    and were left out, as the Monte Carlo engine does: the procedures at
    level alpha reject the same hypotheses either way, and `n0`/`n1`
    count the labels that are held.
    """

    pvalues: np.ndarray
    is_true_null: np.ndarray
    n: int | None = None

    def __post_init__(self):
        pv = np.asarray(self.pvalues, dtype=np.float64)
        labels = np.asarray(self.is_true_null, dtype=bool)
        n = pv.size if self.n is None else int(self.n)
        if pv.ndim != 1 or n == 0:
            raise ValueError("pvalues must be a nonempty one-dimensional vector")
        if pv.size > n:
            raise ValueError("n must be at least the number of p-values")
        if labels.shape != pv.shape:
            raise ValueError("is_true_null must match pvalues in length")
        if pv.size and not 0.0 <= pv.min() <= pv.max() <= 1.0:
            raise ValueError("p-values must lie in [0, 1]")
        object.__setattr__(self, "pvalues", pv)
        object.__setattr__(self, "is_true_null", labels)
        object.__setattr__(self, "n", n)

    @property
    def n0(self) -> int:
        return int(np.count_nonzero(self.is_true_null))

    @property
    def n1(self) -> int:
        return self.is_true_null.size - self.n0


@dataclass(frozen=True)
class RejectionResult:
    """Outcome of a step-up/step-down run on one sample."""

    m: int
    v: int
    threshold: float
    fdp: float


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return alpha


def _result(sample: PValueSample, m: int, alpha: float) -> RejectionResult:
    n = sample.n
    if m <= 0:
        return RejectionResult(m=0, v=0, threshold=0.0, fdp=0.0)
    threshold = m * alpha / n
    rejected = sample.pvalues <= threshold
    v = int(np.count_nonzero(rejected & sample.is_true_null))
    return RejectionResult(m=m, v=v, threshold=threshold, fdp=v / m)


def _passes(pvalues, alpha: float, n: int | None = None) -> np.ndarray:
    """Pass/fail matrix p_(i) <= i*alpha/n of the sorted last axis.

    n defaults to the length of the last axis; a larger n gives the
    first ranks of a vector whose other p-values all exceed alpha.
    """
    ps = np.sort(pvalues, axis=-1)
    ranks = np.arange(1, ps.shape[-1] + 1)
    return ps <= alpha * ranks / (ps.shape[-1] if n is None else n)


def _stepup_count(pvalues, alpha: float, n: int | None = None) -> np.ndarray:
    """Step-up rejection count of each row: its last passing rank, or 0.

    The p-values lie on the last axis (one vector or a block of rows);
    n is as in `_passes`.
    """
    ok = _passes(pvalues, alpha, n)
    return (ok * np.arange(1, ok.shape[-1] + 1)).max(axis=-1, initial=0)


def _stepdown_count(pvalues, alpha: float,
                    n: int | None = None) -> np.ndarray:
    """Step-down rejection count of each row: its run of passing ranks
    from the first.  Laid out as `_stepup_count`."""
    ok = _passes(pvalues, alpha, n)
    return np.logical_and.accumulate(ok, axis=-1).sum(axis=-1)


def lsu(sample: PValueSample, alpha: float) -> RejectionResult:
    """Linear step-up procedure with critical values i*alpha/n."""
    alpha = _check_alpha(alpha)
    m = int(_stepup_count(sample.pvalues, alpha, sample.n))
    return _result(sample, m, alpha)


def lsd(sample: PValueSample, alpha: float) -> RejectionResult:
    """Linear step-down procedure; rejects no more than lsu."""
    alpha = _check_alpha(alpha)
    # past the held p-values every rank fails, as they exceed alpha
    r = int(_stepdown_count(sample.pvalues, alpha, sample.n))
    return _result(sample, r, alpha)


def ecdf(pvalues: np.ndarray, t: float) -> float:
    """Empirical cdf of a p-value vector at t (right continuous)."""
    pv = np.asarray(pvalues, dtype=np.float64)
    if pv.size == 0:
        raise ValueError("ecdf needs at least one p-value")
    if math.isnan(t):
        raise ValueError("ecdf: t is nan")
    return float(np.count_nonzero(pv <= t)) / pv.size
