import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest

from lsufdr import models, montecarlo, specfun
from lsufdr.asymptotics import conditional_limits, eer_fdr_normal, t_of_z
from lsufdr.models import (
    ExtremeConfig,
    ModelSpec,
    _assemble,
    _kept_pvalues,
    _null_cdf,
    _null_pvalues,
    _rekey,
    _sample_block,
    _substream_keys,
    _uniform_count,
    draw_disturbance,
    make_rng,
)
from lsufdr.montecarlo import (
    ConvergenceRow,
    SimulationPlan,
    SimulationSummary,
    convergence_study,
    run,
)
from lsufdr.stepup import PValueSample, _PROBES, lsd, lsu

EXPO_PLAN = SimulationPlan(model=ModelSpec.exponential(),
                           config=ExtremeConfig(n=50, zeta=0.5, seed=99),
                           alpha=0.1, replicates=5000)


class TestPlanValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            SimulationPlan(model=ModelSpec.exponential(),
                           config=ExtremeConfig(n=10, zeta=0.5, seed=0),
                           alpha=1.5, replicates=10)

    def test_bad_replicates(self):
        with pytest.raises(ValueError):
            SimulationPlan(model=ModelSpec.exponential(),
                           config=ExtremeConfig(n=10, zeta=0.5, seed=0),
                           alpha=0.1, replicates=0)

    def test_integral_replicates(self):
        config = ExtremeConfig(n=10, zeta=0.5, seed=0)
        plan = SimulationPlan(model=ModelSpec.exponential(), config=config,
                              alpha=0.1, replicates=40.0)
        assert type(plan.replicates) is int
        assert run(plan).replicates == 40
        for reps in (2.5, 1000.5, math.nan, "40", True, np.True_):
            with pytest.raises(ValueError, match="replicates must be an"):
                SimulationPlan(model=ModelSpec.exponential(), config=config,
                               alpha=0.1, replicates=reps)

    def test_bad_procedure(self):
        with pytest.raises(ValueError):
            SimulationPlan(model=ModelSpec.exponential(),
                           config=ExtremeConfig(n=10, zeta=0.5, seed=0),
                           alpha=0.1, replicates=5, procedure="bonferroni")

    @pytest.mark.parametrize("model, z", [(ModelSpec.student_t(5.0), -1.0),
                                          (ModelSpec.student_t(5.0), 0.0),
                                          (ModelSpec.exponential(), -0.5)])
    def test_conditional_z_outside_support(self, model, z):
        # a disturbance the family cannot take has no conditional law
        with pytest.raises(ValueError):
            run(SimulationPlan(model=model,
                               config=ExtremeConfig(n=10, zeta=0.5, seed=0),
                               alpha=0.1, replicates=20, conditional_z=z))

    @pytest.mark.parametrize("model", [ModelSpec.normal(0.5),
                                       ModelSpec.student_t(5.0),
                                       ModelSpec.exponential()])
    def test_conditional_z_nan_rejected(self, model):
        with pytest.raises(ValueError, match="disturbance value is nan"):
            SimulationPlan(model=model,
                           config=ExtremeConfig(n=10, zeta=0.5, seed=0),
                           alpha=0.1, replicates=20, conditional_z=math.nan)

    def test_conditional_z_on_support_boundary(self):
        plan = SimulationPlan(model=ModelSpec.exponential(),
                              config=ExtremeConfig(n=10, zeta=0.5, seed=0),
                              alpha=0.1, replicates=20, conditional_z=0.0)
        assert run(plan).replicates == 20


class TestRun:
    def test_summary_shape(self):
        s = run(EXPO_PLAN, workers=1)
        assert s.replicates == 5000
        assert s.seed == 99
        assert 0.0 <= s.fdr_hat <= 1.0
        assert s.fdp_histogram.sum() == 5000
        assert set(s.standard_errors) \
            == {"fdr_hat", "eer_hat", "ene_hat", "r_over_n_hat"}

    def test_reproducible_and_worker_independent(self):
        s1 = run(EXPO_PLAN, workers=1)
        s2 = run(EXPO_PLAN, workers=1)
        s3 = run(EXPO_PLAN, workers=2)
        for a, b in ((s1, s2), (s1, s3)):
            assert a.fdr_hat == b.fdr_hat
            assert a.eer_hat == b.eer_hat
            assert a.ene_hat == b.ene_hat
            assert a.r_over_n_hat == b.r_over_n_hat
            assert np.array_equal(a.fdp_histogram, b.fdp_histogram)
            assert a.standard_errors == b.standard_errors

    def test_worker_count_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("LSUFDR_WORKERS", "two")
        with pytest.raises(ValueError, match="LSUFDR_WORKERS"):
            montecarlo.worker_count()

    def test_ene_consistent_with_eer(self):
        s = run(EXPO_PLAN, workers=1)
        assert s.ene_hat == pytest.approx(s.eer_hat * 50, rel=1e-12)

    def test_keep_replicates(self):
        s = run(EXPO_PLAN, workers=1, keep_replicates=True)
        assert s.v_counts.shape == (5000,)
        assert s.r_counts.shape == (5000,)
        assert s.eer_hat == pytest.approx(s.v_counts.mean() / 50, rel=1e-12)

    def test_zeta_zero_everything_rejected(self):
        plan = SimulationPlan(model=ModelSpec.normal(0.5),
                              config=ExtremeConfig(n=20, zeta=0.0, seed=1),
                              alpha=0.05, replicates=200)
        s = run(plan, workers=1)
        assert s.fdr_hat == 0.0
        assert s.r_over_n_hat == 1.0

    def test_lsd_not_larger(self):
        cfg = ExtremeConfig(n=100, zeta=0.8, seed=12)
        up = run(SimulationPlan(model=ModelSpec.normal(0.3), config=cfg,
                                alpha=0.1, replicates=400), workers=1)
        down = run(SimulationPlan(model=ModelSpec.normal(0.3), config=cfg,
                                  alpha=0.1, replicates=400,
                                  procedure="lsd"), workers=1)
        assert down.r_over_n_hat <= up.r_over_n_hat + 1e-12

    def test_histogram_mass_location(self):
        # fully-null runs put all FDP mass at 0 or 1
        plan = SimulationPlan(model=ModelSpec.normal(0.2),
                              config=ExtremeConfig(n=50, zeta=1.0, seed=13),
                              alpha=0.05, replicates=2000)
        s = run(plan, workers=1)
        assert s.fdp_histogram[0] + s.fdp_histogram[-1] == 2000

    def test_conditional_matches_unconditional_mixture(self):
        # averaging conditional estimates over disturbance draws agrees
        # with the unconditional estimate
        model = ModelSpec.exponential()
        alpha = 0.1
        n = 50
        uncond = run(SimulationPlan(
            model=model, config=ExtremeConfig(n=n, zeta=0.5, seed=21),
            alpha=alpha, replicates=20000), workers=1)
        rng = make_rng(4242)
        cond_means = []
        cond_vars = []
        reps_each = 40
        for k in range(500):
            z = draw_disturbance(model, rng)
            s = run(SimulationPlan(
                model=model, config=ExtremeConfig(n=n, zeta=0.5,
                                                  seed=5000 + k),
                alpha=alpha, replicates=reps_each, conditional_z=z),
                workers=1)
            cond_means.append(s.fdr_hat)
        cond = float(np.mean(cond_means))
        se_c = float(np.std(cond_means, ddof=1) / math.sqrt(len(cond_means)))
        se_u = uncond.standard_errors["fdr_hat"]
        tol = 3.0 * math.hypot(se_c, se_u)
        assert abs(cond - uncond.fdr_hat) < tol

    def test_matches_asymptotic_prediction(self):
        # moderate-n unconditional FDR sits near its limit for zeta < 1
        alpha, zeta, rho = 0.05, 0.5, 0.5
        limit = eer_fdr_normal(alpha, zeta, rho).fdr
        plan = SimulationPlan(model=ModelSpec.normal(rho),
                              config=ExtremeConfig(n=10000, zeta=zeta,
                                                   seed=31),
                              alpha=alpha, replicates=4000)
        s = run(plan, workers=2)
        tol = max(3 * s.standard_errors["fdr_hat"], 0.01)
        assert abs(s.fdr_hat - limit) < tol


class TestConvergenceStudy:
    def test_conditional_convergence(self):
        model = ModelSpec.normal(0.5)
        alpha, zeta, z = 0.05, 0.9, -1.0
        target = conditional_limits(model, alpha, zeta, z).v_over_n \
            + (1 - zeta)
        plan = SimulationPlan(model=model,
                              config=ExtremeConfig(n=10, zeta=zeta, seed=77),
                              alpha=alpha, replicates=60, conditional_z=z)
        rows = convergence_study(plan, [1000, 100000])
        err = [abs(r.summary.r_over_n_hat - target) for r in rows]
        assert err[-1] < err[0]
        assert err[-1] < 0.01
        # Glivenko-Cantelli: the sup distance shrinks with n
        assert rows[-1].sup_distance < rows[0].sup_distance
        assert rows[-1].sup_distance < 0.02

    def test_shifted_alternatives_converge(self):
        # the shifted false nulls follow the null law at z - false_theta;
        # measured against a point mass at 0, the distance stayed 0.5
        plan = SimulationPlan(model=ModelSpec.exponential(false_theta=1.0),
                              config=ExtremeConfig(n=10, zeta=0.5, seed=5),
                              alpha=0.1, replicates=20, conditional_z=0.5)
        dists = [r.sup_distance
                 for r in convergence_study(plan, [1000, 10000, 100000])]
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.02

    def test_unconditional_has_no_supdist(self):
        plan = SimulationPlan(model=ModelSpec.exponential(),
                              config=ExtremeConfig(n=10, zeta=0.5, seed=3),
                              alpha=0.1, replicates=30)
        rows = convergence_study(plan, [50, 100])
        assert all(r.sup_distance is None for r in rows)
        assert [r.n for r in rows] == [50, 100]

    def test_integral_n_grid(self):
        # each n goes to ExtremeConfig as it is, which refuses a fractional
        # or bool n rather than truncating it
        plan = SimulationPlan(model=ModelSpec.exponential(),
                              config=ExtremeConfig(n=10, zeta=0.5, seed=3),
                              alpha=0.1, replicates=5)
        assert [r.n for r in convergence_study(plan, [20.0, np.int64(30)])] \
            == [20, 30]
        for n in (10.7, True):
            with pytest.raises(ValueError, match="n must be an integer"):
                convergence_study(plan, [n])

    def test_zeta_zero_rows(self):
        plan = SimulationPlan(model=ModelSpec.exponential(),
                              config=ExtremeConfig(n=10, zeta=0.0, seed=3),
                              alpha=0.1, replicates=30)
        rows = convergence_study(plan, [20, 40])
        assert all(r.summary.fdr_hat == 0.0 for r in rows)


def full_vector_counts(plan):
    """(m, v) of every replicate from the full p-value vector (cutoff 1)."""
    proc = lsu if plan.procedure == "lsu" else lsd
    ms, vs = [], []
    for i in range(plan.replicates):
        rng = make_rng(plan.config.seed, i)
        if plan.conditional_z is None:
            z = draw_disturbance(plan.model, rng)
        else:
            z = plan.conditional_z
        res = proc(_assemble(plan.model, plan.config, z, rng), plan.alpha)
        ms.append(res.m)
        vs.append(res.v)
    return np.array(ms), np.array(vs)


# (model, n, alpha, conditional z, replicates): each family gets 10^4
# replicates over lsu, lsd and a conditional lsu run
EQUIVALENCE = {
    "normal": (ModelSpec.normal(0.3), 60, 0.1, -1.0, (4000, 3000, 3000)),
    "student_t": (ModelSpec.student_t(4.0), 16, 0.2, 0.8,
                  (2000, 2000, 6000)),
    "exponential": (ModelSpec.exponential(), 100, 0.1, 0.4,
                    (4000, 3000, 3000)),
    "exponential_shift": (ModelSpec.exponential(false_theta=2.0), 100, 0.1,
                          0.4, (4000, 3000, 3000)),
}


class TestTailOnlyEngine:
    """The engine keeps only p-values that can be <= alpha; the step-up
    results must equal those of the full vector on the same substreams."""

    @pytest.mark.parametrize("family", sorted(EQUIVALENCE))
    def test_matches_full_vector(self, family):
        model, n, alpha, z, reps = EQUIVALENCE[family]
        cfg = ExtremeConfig(n=n, zeta=0.75, seed=606)
        plans = [
            SimulationPlan(model=model, config=cfg, alpha=alpha,
                           replicates=reps[0]),
            SimulationPlan(model=model, config=cfg, alpha=alpha,
                           replicates=reps[1], procedure="lsd"),
            SimulationPlan(model=model, config=cfg, alpha=alpha,
                           replicates=reps[2], conditional_z=z),
        ]
        assert sum(p.replicates for p in plans) >= 10 ** 4
        for plan in plans:
            s = run(plan, keep_replicates=True, workers=1)
            m, v = full_vector_counts(plan)
            assert np.array_equal(s.r_counts, m)
            assert np.array_equal(s.v_counts, v)
            assert 0 < m.mean() < n  # neither nothing nor all rejected

    @staticmethod
    def both(model, cfg, z, cutoff, key=0):
        # the tail sample is `_sample_block`'s one row at this cutoff, on
        # the uniforms `_assemble` draws for the full vector
        rng = make_rng(cfg.seed, key)
        u = rng.random((1, _uniform_count(model, cfg)))
        p, nulls = _sample_block(model, cfg, np.array([float(z)]), u, cutoff)
        tail = PValueSample(pvalues=p[0],
                            is_true_null=np.arange(p.shape[1]) < nulls[0],
                            n=cfg.n)
        full = _assemble(model, cfg, z, make_rng(cfg.seed, key))
        assert tail.n == full.n == cfg.n
        for proc in (lsu, lsd):
            assert proc(tail, cutoff) == proc(full, cutoff)
        return tail, full

    def test_no_candidates(self):
        model = ModelSpec.normal(0.5)
        cfg = ExtremeConfig(n=2000, zeta=1.0, seed=1)
        tail, _ = self.both(model, cfg, 10.0, 0.05)
        assert tail.pvalues.size == 0
        assert lsu(tail, 0.05).m == lsd(tail, 0.05).m == 0

    def test_threshold_below_clip_keeps_every_uniform(self):
        model = ModelSpec.normal(0.5)
        # the threshold 1 - F(cutoff | z) lies below the clip
        assert 1.0 - _null_cdf(model, 0.05, -20.0) < 1e-16
        cfg = ExtremeConfig(n=500, zeta=1.0, seed=2)
        tail, full = self.both(model, cfg, -20.0, 0.05)
        assert np.array_equal(tail.pvalues, full.pvalues)

    @pytest.mark.parametrize("zeta", [0.0, 1.0])
    def test_zeta_endpoints(self, zeta):
        cfg = ExtremeConfig(n=300, zeta=zeta, seed=3)
        for model, z in ((ModelSpec.normal(0.2), -0.5),
                         (ModelSpec.student_t(3.0), 0.7),
                         (ModelSpec.exponential(), 0.2),
                         (ModelSpec.exponential(false_theta=1.0), 0.2)):
            for key in range(20):
                tail, _ = self.both(model, cfg, z, 0.1, key)
                if zeta == 0.0:
                    assert lsu(tail, 0.1).v == 0
                    if model.false_theta is None:
                        assert tail.pvalues.size == cfg.n

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.95])
    def test_exponential_alpha_at_least_half(self, alpha):
        cfg = ExtremeConfig(n=200, zeta=0.6, seed=4)
        for model in (ModelSpec.exponential(),
                      ModelSpec.exponential(false_theta=1.5)):
            for z in (0.0, 0.4, 3.0):
                for key in range(30):
                    self.both(model, cfg, z, alpha, key)

    def test_lsd_when_every_candidate_passes(self):
        # no null can reach alpha, so the candidates are the n1 zeros
        model = ModelSpec.normal(0.5)
        cfg = ExtremeConfig(n=400, zeta=0.5, seed=5)
        tail, _ = self.both(model, cfg, 10.0, 0.05)
        assert tail.pvalues.size == cfg.n1
        assert lsd(tail, 0.05).m == lsu(tail, 0.05).m == cfg.n1

    def test_far_shifted_alternatives_all_rejected(self):
        # z - false_theta lies below -709, where e^-(z - false_theta)
        # overflows a double: the threshold is 0, every uniform is kept
        # and every false null rejected
        model = ModelSpec.exponential(800.0)
        assert _null_cdf(model, 0.1, -800.0) == 1.0
        assert np.all(_null_cdf(model, 0.1, np.array([-800.0, -710.0])) == 1.0)
        plan = SimulationPlan(model=model,
                              config=ExtremeConfig(n=20, zeta=0.5, seed=8),
                              alpha=0.1, replicates=200)
        s = run(plan, keep_replicates=True, workers=1)
        assert np.all(s.r_counts - s.v_counts == plan.config.n1)

    def test_guard_keeps_every_uniform(self, monkeypatch):
        # a negative margin drops uniforms whose p-values are <= alpha;
        # the largest dropped one gives that away
        monkeypatch.setattr(models, "_U_MARGIN", -0.05)
        cfg = ExtremeConfig(n=300, zeta=0.8, seed=6)
        for model, z in ((ModelSpec.normal(0.3), 0.0),
                         (ModelSpec.student_t(5.0), 1.0),
                         (ModelSpec.exponential(false_theta=1.0), 0.1)):
            tail, full = self.both(model, cfg, z, 0.2)
            assert np.array_equal(tail.pvalues, full.pvalues)

    @pytest.mark.parametrize("model,z,cutoff", [
        (ModelSpec.normal(0.3), 0.5, 0.05),
        (ModelSpec.normal(0.9), -0.5, 0.2),
        (ModelSpec.student_t(0.7), 0.05, 0.05),
        (ModelSpec.student_t(6.0), 0.6, 0.6),
        (ModelSpec.exponential(), 0.3, 0.1),
        (ModelSpec.exponential(), 2.0, 0.8),
    ])
    def test_threshold_is_where_the_pvalue_crosses_cutoff(self, model, z,
                                                          cutoff):
        # p <= cutoff from u = 1 - F(cutoff | z) on; the exponential
        # family's shifted alternatives are its nulls at z - false_theta
        disturbances = [z]
        if model.family == "exponential":
            theta = 0.5
            disturbances.append(z - theta)
            u = np.array([0.1, 0.5, 0.9])
            w = theta - np.log1p(-u) - z
            laplace_sf = np.where(w <= 0.0, 1.0 - 0.5 * np.exp(w),
                                  0.5 * np.exp(-w))
            assert np.allclose(_null_pvalues(model, z - theta, u),
                               laplace_sf, rtol=1e-14, atol=0.0)
        for zz in disturbances:
            thr = 1.0 - _null_cdf(model, cutoff, zz)
            assert 1e-3 < thr < 1.0 - 1e-3
            below, above = _null_pvalues(model, zz,
                                         np.array([thr - 1e-7, thr + 1e-7]))
            assert below > cutoff >= above


def reference_summary(plan):
    """(m, v, sums, histogram) of `full_vector_counts`, summed one
    replicate at a time in replicate order within each chunk of
    `_CHUNK`, the chunk sums then added in order."""
    m, v = full_vector_counts(plan)
    n, chunk = plan.config.n, montecarlo._CHUNK
    sums = np.zeros(8)
    hist = np.zeros(montecarlo._HIST_BINS, dtype=np.int64)
    for start in range(0, plan.replicates, chunk):
        part = np.zeros(8)
        for mi, vi in zip(m[start:start + chunk].tolist(),
                          v[start:start + chunk].tolist()):
            fdp = vi / mi if mi > 0 else 0.0
            v_n, r_n = vi / n, mi / n
            part += (fdp, fdp * fdp, v_n, v_n * v_n, vi, r_n, r_n * r_n, mi)
            hist[min(int(fdp * hist.size), hist.size - 1)] += 1
        sums += part
    return m, v, sums, hist


def assert_matches_reference(s, plan, ref):
    m, v, sums, hist = ref
    reps, n = plan.replicates, plan.config.n
    assert np.array_equal(s.r_counts, m)
    assert np.array_equal(s.v_counts, v)
    assert np.array_equal(s.fdp_histogram, hist)
    assert s.fdr_hat == float(sums[0] / reps)
    assert s.eer_hat == float(sums[2] / reps)
    assert s.ene_hat == float(sums[4] / reps)
    assert s.r_over_n_hat == float(sums[5] / reps)
    se = montecarlo._se
    assert s.standard_errors == {
        "fdr_hat": se(sums[0], sums[1], reps),
        "eer_hat": se(sums[2], sums[3], reps),
        "ene_hat": se(sums[2], sums[3], reps) * n,
        "r_over_n_hat": se(sums[5], sums[6], reps),
    }


def _plan(model, n, zeta, alpha, reps, seed, **kw):
    return SimulationPlan(model=model,
                          config=ExtremeConfig(n=n, zeta=zeta, seed=seed),
                          alpha=alpha, replicates=reps, **kw)


# every family, lsu and lsd, conditional runs, zeta 0 and 1, and n = 1
SUMMARY_PLANS = {
    "normal": _plan(ModelSpec.normal(0.3), 60, 0.75, 0.1, 400, 41),
    "normal_lsd_all_null": _plan(ModelSpec.normal(0.5), 40, 1.0, 0.1, 400,
                                 42, procedure="lsd"),
    "normal_n1": _plan(ModelSpec.normal(0.5), 1, 1.0, 0.3, 500, 43),
    "student_t_conditional_lsd": _plan(ModelSpec.student_t(4.0), 16, 0.75,
                                       0.2, 300, 44, conditional_z=0.8,
                                       procedure="lsd"),
    "exponential": _plan(ModelSpec.exponential(), 200, 0.5, 0.1, 600, 45),
    "exponential_lsd": _plan(ModelSpec.exponential(), 200, 0.5, 0.1, 600,
                             45, procedure="lsd"),
    "exponential_shift_conditional": _plan(
        ModelSpec.exponential(false_theta=2.0), 100, 0.75, 0.1, 500, 46,
        conditional_z=0.4),
    "exponential_shift_no_nulls_lsd": _plan(
        ModelSpec.exponential(false_theta=1.0), 50, 0.0, 0.1, 300, 47,
        procedure="lsd"),
}


class TestBlockKernel:
    """Replicates run in blocks; the summary must equal the per-replicate
    reference added up in replicate order, bit for bit."""

    @pytest.mark.parametrize("name", sorted(SUMMARY_PLANS))
    def test_summary_matches_per_replicate_reference(self, name):
        plan = SUMMARY_PLANS[name]
        s = run(plan, keep_replicates=True, workers=1)
        assert_matches_reference(s, plan, reference_summary(plan))

    @pytest.mark.parametrize("model", [ModelSpec.exponential(),
                                       ModelSpec.exponential(false_theta=1.5)])
    def test_replicates_straddling_blocks_and_chunks(self, model):
        n = 200
        rows = montecarlo._BLOCK_ELEMS // n
        reps = montecarlo._CHUNK + rows + 3
        assert 1 < rows < montecarlo._CHUNK
        assert montecarlo._CHUNK % rows and (reps % montecarlo._CHUNK) % rows
        plan = _plan(model, n, 0.5, 0.1, reps, 48)
        ref = reference_summary(plan)
        for workers in (1, 2):
            s = run(plan, keep_replicates=True, workers=workers)
            assert_matches_reference(s, plan, ref)

    def test_guard_fallback_through_run(self, monkeypatch):
        # a negative margin drops uniforms whose p-values are <= alpha;
        # the guard must put them back in every block row that needs it
        monkeypatch.setattr(models, "_U_MARGIN", -0.05)
        for model, z in ((ModelSpec.normal(0.3), None),
                         (ModelSpec.student_t(5.0), 1.0),
                         (ModelSpec.exponential(false_theta=1.0), None)):
            plan = _plan(model, 300, 0.8, 0.2, 150, 49, conditional_z=z)
            s = run(plan, keep_replicates=True, workers=1)
            assert_matches_reference(s, plan, reference_summary(plan))

    def test_chunk_past_zero_on_two_workers(self):
        # a three-word seed, and a second chunk whose keys start at _CHUNK
        plan = _plan(ModelSpec.normal(0.4), 20, 0.75, 0.15,
                     montecarlo._CHUNK + 37, 2 ** 64 + 7, procedure="lsd")
        s = run(plan, keep_replicates=True, workers=2)
        assert_matches_reference(s, plan, reference_summary(plan))

    @pytest.mark.parametrize("seed", [0, 11, 2 ** 32 + 5, 2 ** 64 + 7])
    def test_rekey_reproduces_make_rng(self, seed):
        rng = make_rng(123)
        idx = (0, 1, 2 ** 40)
        for i, key in zip(idx, _substream_keys(seed, idx)):
            # leave buffered words behind, as a replicate's draws do
            rng.random(3)
            rng.integers(0, 10, size=3, dtype=np.uint32)
            _rekey(rng, key)
            fresh = make_rng(seed, i)
            assert np.array_equal(rng.integers(0, 2 ** 31, 5, np.uint32),
                                  fresh.integers(0, 2 ** 31, 5, np.uint32))
            assert np.array_equal(rng.random(9), fresh.random(9))


class TestOneDrawPerReplicate:
    """A replicate fills its row in one draw call, z's uniform first; the
    block's z must be draw_disturbance on the same substream, bit for bit.
    """

    MODELS = [ModelSpec.normal(0.3), ModelSpec.student_t(4.0),
              ModelSpec.exponential(), ModelSpec.exponential(false_theta=1.5)]
    MODEL_IDS = ["normal", "student_t", "exponential", "exponential_shift"]

    @staticmethod
    def block_z(monkeypatch, plan):
        seen = []
        sample_block = montecarlo._sample_block

        def spy(model, config, z, u, cutoff):
            seen.append(z.copy())
            return sample_block(model, config, z, u, cutoff)

        monkeypatch.setattr(montecarlo, "_sample_block", spy)
        run(plan, workers=1)
        return np.concatenate(seen)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_block_z_is_draw_disturbance(self, monkeypatch, model):
        n = 40  # blocks of 1,638 rows, the last one short
        plan = _plan(model, n, 0.6, 0.1, montecarlo._BLOCK_ELEMS // n + 9, 52)
        expect = [draw_disturbance(model, make_rng(52, i))
                  for i in range(plan.replicates)]
        assert self.block_z(monkeypatch, plan).tobytes() \
            == np.array(expect).tobytes()

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_clipped_uniforms(self, monkeypatch, model):
        # z's uniforms at and past both ends of the clip to
        # [_U_TINY, 1 - _U_TINY], planted in the first column
        tiny = models._U_TINY
        planted = [0.0, 5e-324, 1e-17, tiny, math.nextafter(tiny, 1.0),
                   1.0 - tiny, 1.0, 0.5]

        class Planted:
            def __init__(self, seed):
                self.rng = make_rng(seed)
                self.bit_generator = self.rng.bit_generator
                self.next = 0

            def random(self, out):
                self.rng.random(out=out)
                out[0] = planted[self.next % len(planted)]
                self.next += 1

        class Scalar:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        monkeypatch.setattr(montecarlo, "make_rng", Planted)
        plan = _plan(model, 30, 0.6, 0.1, 3 * len(planted), 53)
        expect = [draw_disturbance(model, Scalar(planted[i % len(planted)]))
                  for i in range(plan.replicates)]
        z = self.block_z(monkeypatch, plan)
        assert z.tobytes() == np.array(expect).tobytes()
        assert z[0] == z[3] and z[5] == z[6]  # the clip took hold

    def test_rekey_after_many_rekeys(self):
        # two generators take turns rekeying through the one state dict;
        # each must start every substream afresh
        keys = _substream_keys(11, range(400))
        a, b = make_rng(1), make_rng(2)
        for i in (*range(400), 7, 7, 399, 0):
            for rng in (a, b):
                rng.random(i % 5)
                rng.integers(0, 10, size=i % 3, dtype=np.uint32)
                _rekey(rng, keys[i])
            fresh = make_rng(11, i).random(6)
            assert np.array_equal(a.random(6), fresh)
            assert np.array_equal(b.random(6), fresh)


def seed_sequence_keys(seed, idx):
    return np.array([np.random.SeedSequence(entropy=(seed, int(i)))
                     .generate_state(2, np.uint64) for i in idx],
                    dtype=np.uint64).reshape(-1, 2)


class TestPinnedCounts:
    """The per-replicate (v, r) of small seeded plans, pinned as digests.

    The other engine tests compare the engine with references built
    from the same draws and kernels, which a change to either would
    move too.
    Each digest is the sha256 of the int64 v counts followed by the r
    counts, from one worker at seed 7.
    """

    PLANS = {
        "normal_lsu": (ModelSpec.normal(0.3), 200, 0.8, 0.1, 1000, None,
                       "lsu", "c709793857ad6900163311f0ef8dc9c9"
                              "821ad1cd52e0e6620b1a995898757c5b"),
        "normal_lsd": (ModelSpec.normal(0.3), 200, 0.8, 0.1, 1000, None,
                       "lsd", "88c1d3dc732695d12bd077b5fee223d4"
                              "8d24a2c9b48db18a32fc375877ec6316"),
        # several blocks in each of two chunks
        "normal_blocks": (ModelSpec.normal(0.7), 50, 0.5, 0.2, 3000, None,
                          "lsd", "3fa42f9fab780e3e319f4a9fd9a685ea"
                                 "2cae26142b98736a239c12f81326de74"),
        "t_lsu": (ModelSpec.student_t(4.0), 150, 0.8, 0.25, 600, None,
                  "lsu", "f2933a0adb9c9ffe5aa20f83c12190084"
                         "edfb6e898ecb092fbee91153dc45565"),
        "t_lsd": (ModelSpec.student_t(4.0), 150, 0.8, 0.25, 600, None,
                  "lsd", "99b30bff985b829e41fc19e9d53ab770d"
                         "0507822b1c27815ab1c383aa666aea1"),
        "exponential_lsu": (ModelSpec.exponential(), 200, 0.7, 0.3, 1000,
                            None, "lsu", "c01357ec2a2e05322c296597e92550ff"
                                         "a61ff27782376368a85d9c06472dcafa"),
        "exponential_lsd": (ModelSpec.exponential(), 200, 0.7, 0.3, 1000,
                            None, "lsd", "ca13d6b847993ad65223db6b9f203018"
                                         "df59a488f215330853ed3251646f8386"),
        "shifted_lsu": (ModelSpec.exponential(3.0), 200, 0.6, 0.1, 1000,
                        None, "lsu", "f950b44a2af69e2681c4c8c6358bebb7"
                                     "506d97d5f482d0ea34d54a39e43abb3b"),
        "shifted_lsd": (ModelSpec.exponential(3.0), 200, 0.6, 0.1, 1000,
                        None, "lsd", "cce21a037b6d85e353cf3231296dffe4"
                                     "bebf7bcc441845fe68216e13a01a90d9"),
        "normal_conditional": (ModelSpec.normal(0.5), 300, 0.9, 0.1, 300,
                               -0.3, "lsu",
                               "056247450835320868e905a0829ab0e7"
                               "d4368555ddb34fa21ece77b490f7a42d"),
    }

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_counts_digest(self, name):
        model, n, zeta, alpha, reps, z, proc, digest = self.PLANS[name]
        plan = SimulationPlan(model=model,
                              config=ExtremeConfig(n=n, zeta=zeta, seed=7),
                              alpha=alpha, replicates=reps, conditional_z=z,
                              procedure=proc)
        s = run(plan, keep_replicates=True, workers=1)
        counts = np.stack((s.v_counts, s.r_counts)).astype("<i8")
        assert hashlib.sha256(counts.tobytes()).hexdigest() == digest


class TestStudentTKernelsEndToEnd:
    """The t family's sampler and `t_of_z` give the same results with the
    array t functions mapped over their scalar calls instead."""

    @staticmethod
    def twice(monkeypatch, compute):
        with_kernels = compute()
        for name in ("t_sf", "t_cdf", "t_logsf", "t_pdf", "t_logpdf"):
            fn = getattr(specfun, name)
            monkeypatch.setattr(
                specfun, name,
                lambda x, nu, fn=fn: fn(x, nu) if isinstance(x, float)
                else specfun._lift(fn, x, nu))
        return with_kernels, compute()

    def test_sampler(self, monkeypatch):
        plan = SimulationPlan(model=ModelSpec.student_t(4.0),
                              config=ExtremeConfig(n=150, zeta=0.8, seed=9),
                              alpha=0.25, replicates=600)
        kernel, mapped = self.twice(
            monkeypatch, lambda: run(plan, keep_replicates=True, workers=1))
        assert kernel.r_counts.sum() > 0
        for field in dataclasses.fields(SimulationSummary):
            np.testing.assert_equal(getattr(kernel, field.name),
                                    getattr(mapped, field.name))

    def test_t_of_z(self, monkeypatch):
        z = np.random.default_rng(10).chisquare(5.0, 2000) ** 0.5 / 5.0 ** 0.5
        kernel, mapped = self.twice(
            monkeypatch,
            lambda: t_of_z(ModelSpec.student_t(5.0), 0.05, 0.5, z))
        assert np.all(kernel > 0.0)
        np.testing.assert_array_equal(kernel, mapped)


class TestSubstreamKeys:
    """The numpy hash must give SeedSequence's keys bit for bit: if a later
    numpy changes SeedSequence, these fail rather than the streams
    shifting unseen."""

    # seeds of 1, 2 and 3 uint32 words
    SEEDS = [0, 11, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5,
             12_345_678_901_234_567_890_123]
    # indices of 1 and 2 words
    INDICES = list(range(3000)) + [2 ** 32 - 1, 2 ** 32, 2 ** 40,
                                   2 ** 64 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_seed_sequence(self, seed):
        keys = _substream_keys(seed, self.INDICES)
        assert keys.dtype == np.uint64 and keys.shape == (3004, 2)
        assert np.array_equal(keys, seed_sequence_keys(seed, self.INDICES))

    @pytest.mark.parametrize("seed", [7, 2 ** 64 + 5])
    def test_range_across_two_to_the_32(self, seed):
        idx = range(2 ** 32 - 40, 2 ** 32 + 40)
        assert np.array_equal(_substream_keys(seed, idx),
                              seed_sequence_keys(seed, idx))

    def test_range_at_the_top_of_uint64(self):
        idx = range(2 ** 64 - 5, 2 ** 64)
        assert np.array_equal(_substream_keys(3, idx),
                              seed_sequence_keys(3, idx))

    def test_empty_and_negative(self):
        assert _substream_keys(5, range(0)).shape == (0, 2)
        with pytest.raises(ValueError, match="seed"):
            _substream_keys(-1, [0])


class TestGuardRidesAlong:
    """The largest dropped uniform's p-value goes through the candidates'
    kernel call; only rows whose guard passes take a second call."""

    @staticmethod
    def kernel_calls(monkeypatch):
        calls = []

        def counted(model, z, u):
            calls.append(np.size(u))
            return _null_pvalues(model, z, u)

        monkeypatch.setattr(models, "_null_pvalues", counted)
        return calls

    def rows(self):
        model = ModelSpec.normal(0.3)
        rng = np.random.default_rng(8)
        z = np.array([0.0, 3.0, 0.5])
        u = np.clip(rng.random((3, 500)), 1e-16, 1.0 - 1e-16)
        return model, z, u

    def test_one_call_when_no_guard_passes(self, monkeypatch):
        model, z, u = self.rows()
        calls = self.kernel_calls(monkeypatch)
        p, counts = _kept_pvalues(model, z, u, 0.1)
        # every row drops some uniforms, and their guards ride along
        assert len(calls) == 1 and calls[0] == p.size + 3
        assert counts[1] == 0 < counts[0] < u.shape[1]

    def test_second_call_only_for_passing_rows(self, monkeypatch):
        model, z, u = self.rows()
        monkeypatch.setattr(models, "_U_MARGIN", -0.05)
        calls = self.kernel_calls(monkeypatch)
        p, counts = _kept_pvalues(model, z, u, 0.1)
        assert len(calls) == 2
        back = counts == u.shape[1]
        # at z = 3 the largest dropped uniform stays above the cutoff
        assert back.tolist() == [True, False, True]
        assert calls[1] == 2 * u.shape[1]
        # each row's p-values are the kernel's on its largest uniforms,
        # in draw order
        ends = np.cumsum(counts)
        for i in range(3):
            largest = np.argsort(np.argsort(-u[i])) < counts[i]
            assert np.array_equal(p[ends[i] - counts[i]:ends[i]],
                                  _null_pvalues(model, z[i], u[i][largest]))


def chi2_two_sample(a, b, level):
    """(statistic, critical value at level) of the two-sample chi-square
    test that the rows of a and b, (m, v) pairs, share one law.  Cells
    whose smaller expected count is below 5 are pooled into one."""
    cells, idx = np.unique(np.concatenate((a, b)), axis=0,
                           return_inverse=True)
    idx = idx.reshape(-1)
    table = np.stack((np.bincount(idx[:len(a)], minlength=len(cells)),
                      np.bincount(idx[len(a):], minlength=len(cells))))
    small = table.sum(axis=0) * min(len(a), len(b)) / len(idx) < 5
    table = np.column_stack((table[:, ~small],
                             table[:, small].sum(axis=1)))
    table = table[:, table.sum(axis=0) > 0]
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    return stat, specfun.chi_quantile(1.0 - level, table.shape[1] - 1) ** 2


class DrawLog:
    """A generator's stand-in that logs each draw: ("binomial", count, k)
    or ("random",)."""

    def __init__(self, rng):
        self.rng, self.log = rng, []

    def binomial(self, count, p):
        k = self.rng.binomial(count, p)
        self.log.append(("binomial", count, k))
        return k

    def random(self, size=None):
        self.log.append(("random",))
        return self.rng.random(size)

    def nulls_in_full(self):
        """Whether the nulls kept every uniform: K = count, or the rest
        was drawn after the candidates and the guard."""
        _, count, k = self.log[0]
        nulls = next((i for i, entry in enumerate(self.log[1:], 1)
                      if entry[0] == "binomial"), len(self.log))
        return k == count or nulls == 4


class TestCandidateRoute:
    """From n = _BLOCK_ELEMS on, a replicate draws only its candidates
    (`models._candidate_counts`): a new random stream, so the route is
    compared with the row route in law.  The tests force it at small n
    through `montecarlo._BLOCK_ELEMS`."""

    LEVEL = 1e-3
    # candidate-route replicates per family, half unconditional and half
    # conditional; its Python work per replicate (0.06-0.45 ms) bounds
    # them here, and LSUFDR_RUN_SLOW=1 runs 1e5 per family
    REPS = {"normal": 6000, "student_t": 2400, "exponential": 10000,
            "exponential_shift": 8000}

    def assert_same_law(self, plan, monkeypatch, row_reps=None, spy=None):
        """plan on the candidate route (through spy, if given) against the
        row route at the next seed with row_reps replicates."""
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_BLOCK_ELEMS", plan.config.n)
            if spy is not None:
                patch.setattr(montecarlo, "_candidate_counts", spy)
            cand = run(plan, keep_replicates=True, workers=1)
        row = run(dataclasses.replace(
            plan, replicates=row_reps or plan.replicates,
            config=dataclasses.replace(plan.config, seed=plan.config.seed + 1)),
            keep_replicates=True, workers=1)
        stat, crit = chi2_two_sample(
            np.column_stack((cand.r_counts, cand.v_counts)),
            np.column_stack((row.r_counts, row.v_counts)), self.LEVEL)
        assert stat < crit, (stat, crit)

    @pytest.mark.parametrize("family", sorted(EQUIVALENCE))
    def test_same_law_as_row_route(self, monkeypatch, family):
        model, n, alpha, z, _ = EQUIVALENCE[family]
        reps = 10 ** 5 if os.environ.get("LSUFDR_RUN_SLOW") \
            else self.REPS[family]
        for i, cond in enumerate((None, z)):
            plan = _plan(model, n, 0.75, alpha, reps // 2, 700 + 2 * i,
                         conditional_z=cond)
            self.assert_same_law(plan, monkeypatch)

    def test_guard_fallback(self, monkeypatch):
        # a negative margin drops uniforms whose p-values are <= alpha;
        # a passing guard draws the rest and keeps every null
        monkeypatch.setattr(models, "_U_MARGIN", -0.05)
        counts = montecarlo._candidate_counts
        full = []

        def spy(model, config, z, cutoff, procedure, rng, isf):
            draws = DrawLog(rng)
            out = counts(model, config, z, cutoff, procedure, draws, isf)
            full.append(draws.nulls_in_full())
            return out

        passed = []
        # the t kernels cost 2.5 ms per replicate here
        for model, z, reps in ((ModelSpec.normal(0.3), None, 1000),
                               (ModelSpec.student_t(5.0), None, 300),
                               (ModelSpec.exponential(false_theta=1.0), 0.1,
                                1000)):
            plan = _plan(model, 120, 0.8, 0.2, reps, 710, conditional_z=z)
            full.clear()
            self.assert_same_law(plan, monkeypatch, row_reps=3 * reps,
                                 spy=spy)
            assert len(full) == reps
            passed.append(sum(full) / reps)
        assert 0 < min(passed) and max(passed) < 1, passed

    def test_worker_count_invariance(self):
        # the real cut-over, and two chunks, the second past zero
        model = ModelSpec.normal(0.5)
        plan = _plan(model, montecarlo._BLOCK_ELEMS, 1.0, 0.01,
                     montecarlo._CHUNK + 5, 720)
        one = run(plan, keep_replicates=True, workers=1)
        two = run(plan, keep_replicates=True, workers=2)
        assert one.as_dict() == two.as_dict()
        assert np.array_equal(one.r_counts, two.r_counts)
        assert np.array_equal(one.v_counts, two.v_counts)
        assert 0 < one.r_counts.mean()

    def test_cut_over_at_block_elems(self, monkeypatch):
        # one element short of the cut-over, the row route keeps the full
        # vector's counts on the same substreams; at it, the candidates'
        # z is still draw_disturbance's
        seen = []
        counts = montecarlo._candidate_counts

        def spy(model, config, z, cutoff, procedure, rng, isf):
            seen.append(z)
            return counts(model, config, z, cutoff, procedure, rng, isf)

        monkeypatch.setattr(montecarlo, "_candidate_counts", spy)
        model = ModelSpec.normal(0.3)
        n = montecarlo._BLOCK_ELEMS
        below = _plan(model, n - 1, 0.9, 0.05, 6, 730)
        s = run(below, keep_replicates=True, workers=1)
        m, v = full_vector_counts(below)
        assert not seen
        assert np.array_equal(s.r_counts, m)
        assert np.array_equal(s.v_counts, v)
        at = _plan(model, n, 0.9, 0.05, 6, 730)
        run(at, workers=1)
        assert seen == [draw_disturbance(model, make_rng(730, i))
                        for i in range(6)]


class TestCandidateSearch:
    """On the candidate route, the search's (m, v) equal, bit for bit, a
    count on every kept p-value of the same draws, evaluated and sorted: a
    spy on `models._probed_counts` runs both on each call."""

    # (model, n, zeta, alpha, conditional z, replicates)
    CASES = {
        "normal": (ModelSpec.normal(0.3), 2000, 0.75, 0.1, -1.0, 300),
        "normal_all_null": (ModelSpec.normal(0.3), 2000, 1.0, 0.1, -1.5, 300),
        "student_t": (ModelSpec.student_t(4.0), 1000, 0.75, 0.2, 0.8, 60),
        "exponential": (ModelSpec.exponential(), 2000, 0.5, 0.1, 0.4, 300),
        "exponential_shift": (ModelSpec.exponential(false_theta=2.0), 2000,
                              0.75, 0.1, 0.4, 300),
        "exponential_shift_no_nulls": (ModelSpec.exponential(false_theta=1.0),
                                       500, 0.0, 0.1, 0.4, 200),
    }

    @staticmethod
    def checked(monkeypatch):
        """The (search, reference, searched size) of every search."""
        calls = []
        probed = models._probed_counts

        def spy(sorted_at, size, others, alpha, n, stepdown, slack):
            got = probed(sorted_at, size, others, alpha, n, stepdown, slack)
            p = np.concatenate((sorted_at(np.arange(size)), others))
            ref = (lsd if stepdown else lsu)(
                PValueSample(p, np.arange(p.size) < size, n), alpha)
            calls.append((got, (ref.m, ref.v), size))
            return got

        monkeypatch.setattr(models, "_probed_counts", spy)
        return calls

    def run_forced(self, monkeypatch, model, n, zeta, alpha, z, reps,
                   seed=750):
        """Every search of lsu and lsd runs, unconditional and at z."""
        calls = self.checked(monkeypatch)
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMS", n)
        for i, (procedure, cond) in enumerate(
                (p, c) for p in ("lsu", "lsd") for c in (None, z)):
            plan = _plan(model, n, zeta, alpha, reps, seed + i,
                         conditional_z=cond, procedure=procedure)
            run(plan, workers=1)
            assert len(calls) >= (i + 1) * reps  # twice if a guard passes
        assert [got for got, _, _ in calls] == [ref for _, ref, _ in calls]
        return calls

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_sorted_count(self, monkeypatch, name):
        calls = self.run_forced(monkeypatch, *self.CASES[name])
        m = np.array([got[0] for got, _, _ in calls])
        assert (m > 0).any()
        # deep enough for a second level of probes where there are nulls
        assert max(size for _, _, size in calls) > 2 * _PROBES \
            or self.CASES[name][2] == 0.0

    def test_no_candidates(self, monkeypatch):
        calls = self.run_forced(monkeypatch, ModelSpec.normal(0.3), 40, 1.0,
                                0.02, 0.5, 400)
        sizes = [size for _, _, size in calls]
        assert 0 in sizes and max(sizes) > 0

    def test_guard_fallback(self, monkeypatch):
        # a passing guard settles after the first search, which then runs
        # again on every null
        monkeypatch.setattr(models, "_U_MARGIN", -0.05)
        for model, n, reps in ((ModelSpec.normal(0.3), 200, 200),
                               (ModelSpec.student_t(5.0), 120, 60),
                               (ModelSpec.exponential(false_theta=1.0), 200,
                                200)):
            calls = self.run_forced(monkeypatch, model, n, 0.8, 0.2, 0.1,
                                    reps)
            full = sum(size == ExtremeConfig(n, 0.8, 1).n0
                       for _, _, size in calls)
            assert 0 < full < len(calls)

    def test_open_rank_tests(self, monkeypatch):
        # a wide slack leaves many rank tests open, and they count in full
        monkeypatch.setattr(models, "_P_SLACK", 0.5)
        self.run_forced(monkeypatch, ModelSpec.normal(0.3), 2000, 0.75, 0.1,
                        -1.0, 200)

    @pytest.mark.parametrize("model,z,cutoff", [
        (ModelSpec.normal(0.1), -2.0, 0.05),
        (ModelSpec.normal(0.1), 1.0, 0.05),
        (ModelSpec.normal(0.95), 0.0, 0.05),
        (ModelSpec.student_t(5.0), 0.7, 0.05),
        (ModelSpec.student_t(5.0), 1.4, 0.2),
        (ModelSpec.exponential(), 0.3, 0.1),
        (ModelSpec.exponential(), -2.0, 0.1),  # shifted alternatives
    ])
    def test_kernel_order_within_slack(self, model, z, cutoff):
        # runs of consecutive doubles across the candidates' range [lo, 1):
        # p falls as u rises, up to rounding far inside _P_SLACK
        lo = float(models._threshold(model, cutoff, z))
        rng = np.random.default_rng(41)
        anchors = np.concatenate((
            lo + (1.0 - lo) * rng.random(30),
            1.0 - np.logspace(-15.0, math.log10(1.0 - lo), 30)))
        u = (anchors.view(np.int64)[:, None] + np.arange(300)).view(
            np.float64)
        p = _null_pvalues(model, z, np.minimum(u, 1.0 - 1e-16).ravel())
        p = p.reshape(u.shape)
        assert np.all(p[:, 1:] <= p[:, :-1] * (1.0 + models._P_SLACK / 1e3))
