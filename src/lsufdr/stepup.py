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

# rank intervals `_probed_counts` probes per level
_PROBES = 64


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
    return ps <= _critical(alpha, ps.shape[-1], n)


def _critical(alpha: float, size: int, n: int | None = None) -> np.ndarray:
    """Critical values k*alpha/n of the ranks k = 1..size (n = size by
    default)."""
    return alpha * np.arange(1, size + 1) / (size if n is None else n)


def _last_pass(ok: np.ndarray) -> np.ndarray:
    """The step-up rule on a pass/fail matrix of sorted values against
    their critical values: each row's last passing rank, or 0."""
    return (ok * np.arange(1, ok.shape[-1] + 1)).max(axis=-1, initial=0)


def _stepup_count(pvalues, alpha: float, n: int | None = None) -> np.ndarray:
    """Step-up rejection count of each row: its last passing rank, or 0.

    The p-values lie on the last axis (one vector or a block of rows);
    n is as in `_passes`.
    """
    return _last_pass(_passes(pvalues, alpha, n))


def _stepdown_count(pvalues, alpha: float,
                    n: int | None = None) -> np.ndarray:
    """Step-down rejection count of each row: its run of passing ranks
    from the first.  Laid out as `_stepup_count`."""
    ok = _passes(pvalues, alpha, n)
    return np.logical_and.accumulate(ok, axis=-1).sum(axis=-1)


def _probed_counts(sorted_at, size: int, others: np.ndarray, alpha: float,
                   n: int, stepdown: bool, slack: float) -> tuple[int, int]:
    """(m, v): the step-up (or step-down) rejection count at level alpha of
    size searched p-values and the ascending array others, with critical
    values k*alpha/n, and how many searched ones it rejects.

    sorted_at(i) gives the searched p-values at the 0-based positions i
    (an array) of an order that is ascending up to a relative slack: none
    exceeds (1 + slack) times one after it.  Rank k passes when the
    p-values at or below c_k number at least k, that is when the j-th
    smallest searched one, j = k - (others at or below c_k), is at or
    below c_k.  The search probes _PROBES rank intervals [a, b] per level
    and descends only where a rank can decide m: for the step-up the
    highest interval whose smallest needed p-value can be at or below c_b,
    for the step-down the lowest one whose largest needed p-value can
    exceed c_a.  Where the slack leaves a rank's test open, the searched
    p-values at or below c_k are counted in full.  Every rejected p-value
    lies at or below c_m, and m of them do, so v = m - (others <= c_m).
    """
    total = size + others.size
    grow = 1.0 + slack

    def crit(ranks):  # the doubles of _critical(alpha, total, n) at ranks
        return alpha * ranks / n

    def needed(ranks, c):
        # (j, the j-th smallest searched p-value): -inf where the others
        # alone fill the rank, inf where the searched ones fall short
        j = ranks - np.searchsorted(others, c, side="right")
        q = np.where(j > 0, np.inf, -np.inf)
        inside = (j > 0) & (j <= size)
        if inside.any():
            q[inside] = sorted_at(j[inside] - 1)
        return j, q

    def ranks_pass(ranks):
        c = crit(ranks)
        j, q = needed(ranks, c)
        ok = q * grow <= c
        open_ = ~ok & (q <= c * grow)
        if open_.any():  # count in full
            every = np.sort(sorted_at(np.arange(size)))
            ok[open_] = np.searchsorted(every, c[open_], side="right") \
                >= j[open_]
        return ok

    # disjoint rank intervals, the one to search next on top: the highest
    # for the step-up, the lowest for the step-down
    stack = [(1, total)]
    while stack:
        a, b = stack.pop()
        if b - a < _PROBES:
            ranks = np.arange(a, b + 1)
            ok = ranks_pass(ranks)
            if stepdown and not ok.all():
                m = int(ranks[~ok][0]) - 1
                break
            if not stepdown and ok.any():
                m = int(ranks[ok][-1])
                break
            continue
        edges = np.linspace(a, b + 1, _PROBES + 1).astype(np.int64)
        starts, ends = edges[:-1], edges[1:] - 1
        if stepdown:
            c = crit(starts)
            live = needed(ends, c)[1] * grow > c
            stack.extend(zip(starts[live][::-1], ends[live][::-1]))
        else:
            c = crit(ends)
            live = needed(starts, c)[1] <= c * grow
            stack.extend(zip(starts[live], ends[live]))
    else:
        m = total if stepdown else 0
    return m, m - int(np.searchsorted(others, crit(m), side="right"))


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
