"""Finite-n simulation engine with reproducible parallel replication.

Each replicate owns a counter-based generator substream derived from
(seed, replicate index), so results are bit-identical for a given plan
regardless of how replicates are distributed over workers.  Replicates
are processed in fixed-size chunks whose partial sums are merged in
chunk order.  A chunk derives the Philox keys of all its replicates at
once, with numpy's SeedSequence hash run on uint32 arrays
(`models._substream_keys`), so replicate i draws exactly what
make_rng(seed, i) would.

Replicates are tail-only.  The step-up procedures at level alpha only
ever reject p-values at or below alpha (the largest critical value),
and given the disturbance every p-value is a decreasing function of its
uniform draw.  So each replicate draws all n uniforms, but maps through
the quantile, the p-value kernel and the sort only those at or above
1 - F_inf(alpha | z) (lowered by a small margin, and checked on the
largest uniform it drops); the step-up then compares these candidates
with the critical values i*alpha/n of the full n.  The rejection counts
equal those of the full p-value vector on the same substream, and about
alpha*n p-values are sorted in place of n.

Within a chunk, replicates run in blocks of up to _BLOCK_ELEMS uniforms
(one replicate per block once n reaches it).  Only the draws loop over
the replicates of a block: one Philox generator is rekeyed to each
replicate's key and draws its disturbance and uniforms into a row.
Thresholds, p-values, the padded sort, the step-up counts and the
histogram then run once per block, and the block's terms are added to
the running sums in replicate order, so the sums are those of one
replicate at a time.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .models import ExtremeConfig, ModelSpec, draw_disturbance, make_rng, \
    _assemble, _check_z, _rekey, _sample_block, _substream_keys, \
    _uniform_count, f_infinity_mixed
from .stepup import _check_alpha, _stepdown_count, _stepup_count
# lsu and lsd stay bound here: perfbench/tracing.py wraps them
from .stepup import lsd, lsu  # noqa: F401

__all__ = ["SimulationPlan", "SimulationSummary", "ConvergenceRow",
           "run", "convergence_study", "worker_count"]

_HIST_BINS = 200
_CHUNK = 2048
# elements (replicates x n) of one block; at n >= _BLOCK_ELEMS a block
# holds one replicate
_BLOCK_ELEMS = 2 ** 16
WORKERS_ENV = "LSUFDR_WORKERS"


@dataclass(frozen=True)
class SimulationPlan:
    """Everything needed to reproduce one simulation."""

    model: ModelSpec
    config: ExtremeConfig
    alpha: float
    replicates: int
    conditional_z: float | None = None
    procedure: str = "lsu"

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.procedure not in ("lsu", "lsd"):
            raise ValueError("procedure must be 'lsu' or 'lsd'")
        if self.conditional_z is not None:
            _check_z(self.model, self.conditional_z)


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregated estimates with per-estimate standard errors."""

    fdr_hat: float
    eer_hat: float
    ene_hat: float
    r_over_n_hat: float
    fdp_histogram: np.ndarray
    standard_errors: dict
    seed: int
    replicates: int
    v_counts: np.ndarray | None = None
    r_counts: np.ndarray | None = None

    def as_dict(self) -> dict:
        return {
            "fdr_hat": self.fdr_hat,
            "eer_hat": self.eer_hat,
            "ene_hat": self.ene_hat,
            "r_over_n_hat": self.r_over_n_hat,
            "fdp_histogram": [int(c) for c in self.fdp_histogram],
            "standard_errors": dict(sorted(self.standard_errors.items())),
            "seed": self.seed,
            "replicates": self.replicates,
        }


@dataclass(frozen=True)
class ConvergenceRow:
    """One sample size of a convergence study."""

    n: int
    summary: SimulationSummary
    sup_distance: float | None


def worker_count() -> int:
    """Worker pool size: the LSUFDR_WORKERS variable or cpu count."""
    raw = os.environ.get(WORKERS_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer")
    return max(1, os.cpu_count() or 1)


def _pool_map(fn, *iterables, workers=None):
    """fn over the iterables in order, as map does; on a process pool of
    worker_count() (or workers) processes when there are several
    workers and at least two calls."""
    args = [list(it) for it in iterables]
    nworkers = worker_count() if workers is None else max(1, int(workers))
    if nworkers > 1 and min(map(len, args)) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            yield from pool.map(fn, *args)
    else:
        yield from map(fn, *args)


def _simulate_chunk(plan: SimulationPlan, start: int, stop: int,
                    keep: bool):
    model, config, alpha = plan.model, plan.config, plan.alpha
    n = config.n
    count = _stepup_count if plan.procedure == "lsu" else _stepdown_count
    rows = max(1, min(stop - start, _BLOCK_ELEMS // n))
    u = np.empty((rows, _uniform_count(model, config)))
    z = np.full(rows, math.nan if plan.conditional_z is None
                else float(plan.conditional_z))
    rng = make_rng(config.seed)  # rekeyed before every replicate
    keys = _substream_keys(config.seed, range(start, stop))
    sums = np.zeros(8)  # fdp, fdp^2, v/n, (v/n)^2, v, r/n, (r/n)^2, r
    hist = np.zeros(_HIST_BINS, dtype=np.int64)
    kept_v = np.empty(stop - start, dtype=np.int64) if keep else None
    kept_r = np.empty(stop - start, dtype=np.int64) if keep else None
    for first in range(start, stop, rows):
        size = min(rows, stop - first)
        zb, ub = z[:size], u[:size]
        for j in range(size):
            _rekey(rng, keys[first - start + j])
            if plan.conditional_z is None:
                zb[j] = draw_disturbance(model, rng)
            rng.random(out=ub[j])
        p, nulls = _sample_block(model, config, zb, ub, alpha)
        m = count(p, alpha, n)
        # where m = 0 no p-value is at or below alpha/n, so none at 0
        null = np.arange(p.shape[1]) < nulls[:, None]
        v = np.count_nonzero(null & (p <= (m * alpha / n)[:, None]), axis=1)
        fdp = np.where(m > 0, v / np.maximum(m, 1), 0.0)
        v_n, r_n = v / n, m / n
        terms = np.column_stack((fdp, fdp * fdp, v_n, v_n * v_n, v,
                                 r_n, r_n * r_n, m))
        # added to the running sum in replicate order, one row at a time
        sums = np.add.accumulate(np.vstack((sums, terms)), axis=0)[-1]
        hist += np.bincount(np.minimum((fdp * _HIST_BINS).astype(np.int64),
                                       _HIST_BINS - 1),
                            minlength=_HIST_BINS)
        if keep:
            kept_v[first - start:first - start + size] = v
            kept_r[first - start:first - start + size] = m
    return sums, hist, kept_v, kept_r


def _se(sum_x: float, sum_x2: float, count: int) -> float:
    if count < 2:
        return math.nan
    var = max(sum_x2 - sum_x * sum_x / count, 0.0) / (count - 1)
    return math.sqrt(var / count)


def run(plan: SimulationPlan, keep_replicates: bool = False,
        workers: int | None = None) -> SimulationSummary:
    """Execute a simulation plan and aggregate the replicate results.

    The chunk layout depends only on the replicate count, so any worker
    count produces bit-identical output.
    """
    reps = plan.replicates
    starts = range(0, reps, _CHUNK)
    parts = list(_pool_map(_simulate_chunk, [plan] * len(starts), starts,
                           [min(s + _CHUNK, reps) for s in starts],
                           [keep_replicates] * len(starts), workers=workers))

    sums = np.zeros(8)
    hist = np.zeros(_HIST_BINS, dtype=np.int64)
    for part_sums, part_hist, _, _ in parts:
        sums += part_sums
        hist += part_hist
    n = plan.config.n
    ses = {
        "fdr_hat": _se(sums[0], sums[1], reps),
        "eer_hat": _se(sums[2], sums[3], reps),
        "ene_hat": _se(sums[2], sums[3], reps) * n,
        "r_over_n_hat": _se(sums[5], sums[6], reps),
    }
    kept_v = kept_r = None
    if keep_replicates:
        kept_v = np.concatenate([p[2] for p in parts])
        kept_r = np.concatenate([p[3] for p in parts])
    return SimulationSummary(
        fdr_hat=float(sums[0] / reps),
        eer_hat=float(sums[2] / reps),
        ene_hat=float(sums[4] / reps),
        r_over_n_hat=float(sums[5] / reps),
        fdp_histogram=hist,
        standard_errors=ses,
        seed=plan.config.seed,
        replicates=reps,
        v_counts=kept_v,
        r_counts=kept_r,
    )


def convergence_study(plan: SimulationPlan, n_grid) -> list[ConvergenceRow]:
    """Rerun a plan over a grid of sample sizes.

    In conditional mode each row also carries the median (over
    replicates) of the sup distance between the empirical p-value cdf
    and its limit on a thousand-point grid.
    """
    rows = []
    for n in n_grid:
        cfg = replace(plan.config, n=int(n))
        summary = run(replace(plan, config=cfg), keep_replicates=False)
        supdist = None
        if plan.conditional_z is not None and cfg.zeta > 0.0:
            z = float(plan.conditional_z)
            tgrid = np.linspace(0.0, 1.0, 1001)
            limit = f_infinity_mixed(plan.model, tgrid, z, cfg.zeta_n) \
                if cfg.zeta_n > 0.0 else np.ones_like(tgrid)
            dists = []
            rng = make_rng(cfg.seed)  # rekeyed before every replicate
            for key in _substream_keys(cfg.seed, range(plan.replicates)):
                _rekey(rng, key)
                sample = _assemble(plan.model, cfg, z, rng)
                ps = np.sort(sample.pvalues)
                emp = np.searchsorted(ps, tgrid, side="right") / cfg.n
                dists.append(float(np.max(np.abs(emp - limit))))
            supdist = float(np.median(dists))
        rows.append(ConvergenceRow(n=cfg.n, summary=summary,
                                   sup_distance=supdist))
    return rows
