"""Finite-n simulation engine with reproducible parallel replication.

Each replicate owns a counter-based generator substream derived from
(seed, replicate index), so results are bit-identical for a given plan
regardless of how replicates are distributed over workers.  Replicates
are processed in fixed-size chunks whose partial sums are merged in
chunk order.

Replicates are tail-only.  The step-up procedures at level alpha only
ever reject p-values at or below alpha (the largest critical value),
and given the disturbance every p-value is a decreasing function of its
uniform draw.  So each replicate draws all n uniforms, but maps through
the quantile, the p-value kernel and the sort only those above one
closed-form threshold per family (lowered by a small margin, and
checked on the largest uniform it drops); the step-up then compares
these candidates with the critical values i*alpha/n of the full n.  The
rejection counts equal those of the full p-value vector on the same
substream, and about alpha*n p-values are sorted in place of n.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import ExtremeConfig, ModelSpec, draw_disturbance, make_rng, \
    _assemble, _check_z
from .stepup import lsd, lsu

__all__ = ["SimulationPlan", "SimulationSummary", "ConvergenceRow",
           "run", "convergence_study", "worker_count"]

_HIST_BINS = 200
_CHUNK = 2048
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
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
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


def _simulate_chunk(plan: SimulationPlan, start: int, stop: int,
                    keep: bool):
    n = plan.config.n
    proc = lsu if plan.procedure == "lsu" else lsd
    sums = np.zeros(8)  # fdp, fdp^2, v/n, (v/n)^2, v, r/n, (r/n)^2, r
    hist = np.zeros(_HIST_BINS, dtype=np.int64)
    kept_v = np.empty(stop - start, dtype=np.int64) if keep else None
    kept_r = np.empty(stop - start, dtype=np.int64) if keep else None
    for i in range(start, stop):
        rng = make_rng(plan.config.seed, i)
        if plan.conditional_z is None:
            z = draw_disturbance(plan.model, rng)
        else:
            z = float(plan.conditional_z)
        sample = _assemble(plan.model, plan.config, z, rng, plan.alpha)
        res = proc(sample, plan.alpha)
        fdp = res.fdp
        v_n = res.v / n
        r_n = res.m / n
        sums += (fdp, fdp * fdp, v_n, v_n * v_n, res.v, r_n, r_n * r_n, res.m)
        hist[min(int(fdp * _HIST_BINS), _HIST_BINS - 1)] += 1
        if keep:
            kept_v[i - start] = res.v
            kept_r[i - start] = res.m
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
    chunks = [(s, min(s + _CHUNK, reps)) for s in range(0, reps, _CHUNK)]
    nworkers = worker_count() if workers is None else max(1, int(workers))
    if nworkers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            parts = list(pool.map(
                _simulate_chunk,
                [plan] * len(chunks),
                [c[0] for c in chunks],
                [c[1] for c in chunks],
                [keep_replicates] * len(chunks),
                chunksize=1,
            ))
    else:
        parts = [_simulate_chunk(plan, s, e, keep_replicates)
                 for s, e in chunks]

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


def _f_infinity_mixed_grid(model: ModelSpec, tgrid: np.ndarray, z: float,
                           zeta: float) -> np.ndarray:
    from .models import f_infinity_mixed

    return np.array([f_infinity_mixed(model, float(t), z, zeta)
                     for t in tgrid])


def convergence_study(plan: SimulationPlan, n_grid) -> list[ConvergenceRow]:
    """Rerun a plan over a grid of sample sizes.

    In conditional mode each row also carries the median (over
    replicates) of the sup distance between the empirical p-value cdf
    and its limit on a thousand-point grid.
    """
    rows = []
    for n in n_grid:
        cfg = ExtremeConfig(n=int(n), zeta=plan.config.zeta,
                            seed=plan.config.seed)
        sub = SimulationPlan(model=plan.model, config=cfg, alpha=plan.alpha,
                             replicates=plan.replicates,
                             conditional_z=plan.conditional_z,
                             procedure=plan.procedure)
        summary = run(sub, keep_replicates=False)
        supdist = None
        if plan.conditional_z is not None and cfg.zeta > 0.0:
            z = float(plan.conditional_z)
            tgrid = np.linspace(0.0, 1.0, 1001)
            zeta_n = cfg.zeta_n
            if zeta_n > 0.0:
                limit = _f_infinity_mixed_grid(plan.model, tgrid, z, zeta_n)
            else:
                limit = np.ones_like(tgrid)
            dists = []
            for i in range(plan.replicates):
                rng = make_rng(cfg.seed, i)
                sample = _assemble(plan.model, cfg, z, rng)
                ps = np.sort(sample.pvalues)
                emp = np.searchsorted(ps, tgrid, side="right") / cfg.n
                dists.append(float(np.max(np.abs(emp - limit))))
            supdist = float(np.median(dists))
        rows.append(ConvergenceRow(n=cfg.n, summary=summary,
                                   sup_distance=supdist))
    return rows
