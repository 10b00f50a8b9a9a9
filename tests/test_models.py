import math

import numpy as np
import pytest

from lsufdr import specfun as sf
from lsufdr.models import (
    ExtremeConfig,
    ModelSpec,
    disturbance_cdf,
    draw_disturbance,
    f_infinity,
    f_infinity_mixed,
    gamma_at_zero,
    make_rng,
    sample_pvalues,
    sample_pvalues_conditional,
    z_of_t,
)
from lsufdr.stepup import lsu

NORMAL = ModelSpec.normal(0.5)
STUDT = ModelSpec.student_t(7.0)
EXPO = ModelSpec.exponential()


class TestSpecValidation:
    def test_normal_needs_rho(self):
        with pytest.raises(ValueError):
            ModelSpec(family="normal")
        with pytest.raises(ValueError):
            ModelSpec.normal(1.0)
        with pytest.raises(ValueError):
            ModelSpec.normal(0.0)

    def test_t_needs_nu(self):
        with pytest.raises(ValueError):
            ModelSpec(family="student_t")
        with pytest.raises(ValueError):
            ModelSpec.student_t(0.0)
        for nu in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite nu"):
                ModelSpec.student_t(nu)

    def test_exponential_bare(self):
        spec = ModelSpec.exponential()
        assert spec.rho is None and spec.nu is None

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ModelSpec(family="gamma")

    def test_config_rounding(self):
        cfg = ExtremeConfig(n=10, zeta=0.55, seed=0)
        assert cfg.n0 == 6  # half-up
        assert cfg.n1 == 4
        assert cfg.zeta_n == 0.6
        assert ExtremeConfig(n=3, zeta=0.5, seed=0).n0 == 2

    def test_config_integral_counts(self):
        cfg = ExtremeConfig(n=10.0, zeta=0.5, seed=np.int64(3))
        assert (cfg.n, cfg.seed) == (10, 3)
        assert type(cfg.n) is int and type(cfg.seed) is int
        for n, seed in ((10.7, 1), (10, 1.5), (math.nan, 1), (10, math.inf),
                        ("10", 1), (0, 1), (10, -1), (True, 1),
                        (np.True_, 1), (10, False)):
            with pytest.raises(ValueError, match="must be an integer"):
                ExtremeConfig(n, 0.5, seed)


class TestFInfinity:
    def test_normal_center(self):
        for rho in (0.1, 0.5, 0.9):
            assert f_infinity(ModelSpec.normal(rho), 0.5, 0.0) \
                == pytest.approx(0.5, abs=1e-14)

    def test_t_center_any_s(self):
        for s in (0.2, 1.0, 3.0):
            assert f_infinity(STUDT, 0.5, s) == pytest.approx(0.5, abs=1e-14)

    def test_exponential_closed_form(self):
        # 2 e^{-z} t with e^{-log 2} = 1/2
        assert f_infinity(EXPO, 0.25, math.log(2.0)) \
            == pytest.approx(0.25, abs=1e-15)

    def test_endpoints(self):
        for spec, z in ((NORMAL, -1.0), (STUDT, 0.7), (EXPO, 0.3)):
            assert f_infinity(spec, 0.0, z) == 0.0
            assert f_infinity(spec, 1.0, z) == 1.0

    def test_continuous_nondecreasing(self):
        ts = np.linspace(0.0, 1.0, 401)
        for spec, z in ((NORMAL, -0.7), (STUDT, 1.2), (EXPO, 0.1)):
            vals = [f_infinity(spec, float(t), z) for t in ts]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
            gaps = np.abs(np.diff(vals))
            assert gaps.max() < 0.05  # no jumps at piecewise seams

    def test_decreasing_in_z(self):
        ts_early = (0.1, 0.3, 0.45)
        for spec, zs in ((NORMAL, (-2.0, 0.0, 2.0)),
                         (STUDT, (0.3, 1.0, 2.5)),
                         (EXPO, (0.1, 0.8, 2.0))):
            for t in ts_early:
                vals = [f_infinity(spec, t, z) for z in zs]
                assert all(b < a for a, b in zip(vals, vals[1:]))
        # normal is strictly decreasing on all of (0, 1)
        for t in (0.6, 0.9):
            vals = [f_infinity(NORMAL, t, z) for z in (-2.0, 0.0, 2.0)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_support_errors(self):
        with pytest.raises(ValueError):
            f_infinity(STUDT, 0.3, 0.0)
        with pytest.raises(ValueError):
            f_infinity(EXPO, 0.3, -0.5)

    def test_normal_shape_convexity(self):
        # convex up to Phi(x0/sqrt(rho)), concave after
        rho = 0.4
        spec = ModelSpec.normal(rho)
        for x0 in (-1.0, 0.0, 0.8):
            knee = sf.Phi(x0 / math.sqrt(rho))
            ts = np.linspace(1e-4, 1.0 - 1e-4, 2001)
            vals = np.array([f_infinity(spec, float(t), x0) for t in ts])
            second = np.diff(vals, 2)
            inside = ts[1:-1]
            assert np.all(second[inside < knee - 0.02] > -1e-9)
            assert np.all(second[inside > knee + 0.02] < 1e-9)

    def test_t_monotone_in_s_both_sides(self):
        ss = (0.4, 0.8, 1.5, 2.5)
        for t in (0.1, 0.35):
            vals = [f_infinity(STUDT, t, s) for s in ss]
            assert all(b < a for a, b in zip(vals, vals[1:]))
        for t in (0.65, 0.9):
            vals = [f_infinity(STUDT, t, s) for s in ss]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_normal_rho_to_zero_degenerates(self):
        spec = ModelSpec.normal(1e-8)
        for t in np.arange(0.1, 0.95, 0.1):
            for x0 in (-1.0, 0.0, 1.0):
                assert abs(f_infinity(spec, float(t), x0) - t) < 1e-3


class TestFInfinityArrays:
    """Arrays take the numpy kernels: the scalar calls' values to 1e-13
    relative, the same endpoints and the same input checks."""

    TS = np.concatenate(([1e-12, 1e-6, 1e-3], np.linspace(0.01, 0.99, 25),
                         [0.999, 1.0 - 1e-9]))

    @pytest.mark.parametrize("spec,zs", [
        (NORMAL, (-3.0, -0.4, 0.0, 1.1, 4.0)),
        (STUDT, (0.05, 0.6, 1.0, 2.5)),
        (EXPO, (0.0, 0.3, 1.0, 5.0)),
    ])
    def test_matches_scalar_calls(self, spec, zs):
        t, z = np.meshgrid(self.TS, zs)
        vals = f_infinity(spec, t, z)
        assert vals.shape == t.shape
        ref = np.array([f_infinity(spec, ti, zi)
                        for ti, zi in zip(t.ravel().tolist(),
                                          z.ravel().tolist())])
        assert np.allclose(vals.ravel(), ref, rtol=1e-13, atol=0.0)

    def test_endpoints_and_broadcasting(self):
        t = np.array([0.0, 0.2, 1.0, 0.7])[:, None]
        z = np.array([-1.0, 0.0, 2.0])
        for spec, zs in ((NORMAL, z), (STUDT, z + 1.5), (EXPO, z + 1.0)):
            vals = f_infinity(spec, t, zs)
            assert vals.shape == (4, 3)
            assert np.all(vals[0] == 0.0) and np.all(vals[2] == 1.0)
            for i, j in np.ndindex(vals.shape):
                assert vals[i, j] == pytest.approx(
                    f_infinity(spec, float(t[i, 0]), float(zs[j])),
                    rel=1e-13)
            assert np.array_equal(f_infinity_mixed(spec, t, zs, 0.8),
                                  (1.0 - 0.8) + 0.8 * vals)

    def test_float_t_takes_one_quantile(self, monkeypatch):
        calls, t_isf = [], sf.t_isf

        def counted(q, nu):
            calls.append(q)
            return t_isf(q, nu)

        zs = np.linspace(0.1, 3.0, 50)
        expected = f_infinity(STUDT, np.full(zs.shape, 0.3), zs)
        monkeypatch.setattr(sf, "t_isf", counted)
        vals = f_infinity(STUDT, 0.3, zs)
        assert calls == [0.3]
        assert np.allclose(vals, expected, rtol=1e-13, atol=0.0)
        assert np.array_equal(f_infinity(STUDT, 1.0, zs), np.ones(50))

    def test_floats_and_zero_d_give_floats(self):
        val = f_infinity(NORMAL, np.float64(0.3), np.array(0.2))
        assert type(val) is float
        assert val == f_infinity(NORMAL, 0.3, 0.2)
        assert f_infinity(EXPO, np.array([]), 0.5).shape == (0,)

    @pytest.mark.parametrize("spec,t,z,msg", [
        (NORMAL, 0.3, math.nan, "disturbance value is nan"),
        (STUDT, 0.3, math.nan, "disturbance value is nan"),
        (EXPO, 0.3, math.nan, "disturbance value is nan"),
        (STUDT, 0.3, 0.0, "s > 0"),
        (STUDT, 0.3, -1.0, "s > 0"),
        (EXPO, 0.3, -0.5, "z >= 0"),
        (NORMAL, -0.1, 0.0, "t must lie"),
        (STUDT, 1.5, 1.0, "t must lie"),
        (EXPO, math.nan, 0.5, "t must lie"),
    ])
    def test_checks_as_for_floats(self, spec, t, z, msg):
        with pytest.raises(ValueError, match=msg):
            f_infinity(spec, t, z)
        for order in (slice(None), slice(None, None, -1)):
            with pytest.raises(ValueError, match=msg):
                f_infinity(spec, np.array([0.5, t])[order],
                           np.array([1.0, z])[order])


class TestMixed:
    def test_identity_at_full_null(self):
        for spec, z in ((NORMAL, 0.3), (STUDT, 1.1), (EXPO, 0.2)):
            for t in (0.05, 0.4, 0.8):
                assert f_infinity_mixed(spec, t, z, 1.0) \
                    == f_infinity(spec, t, z)

    def test_affine_map(self):
        assert f_infinity_mixed(NORMAL, 0.5, 0.0, 0.8) \
            == pytest.approx(0.2 + 0.8 * 0.5, abs=1e-14)

    def test_zeta_domain(self):
        with pytest.raises(ValueError):
            f_infinity_mixed(NORMAL, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            f_infinity_mixed(NORMAL, 0.5, 0.0, 1.2)

    def test_expectation_over_disturbance(self):
        # E[F(t | Z, zeta)] = 1 - zeta + zeta*t
        rng = np.random.default_rng(42)
        zeta, t = 0.7, 0.3
        for spec in (NORMAL, STUDT, EXPO):
            zs = [draw_disturbance(spec, rng) for _ in range(4000)]
            vals = np.array([f_infinity_mixed(spec, t, z, zeta) for z in zs])
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - (1 - zeta + zeta * t)) < max(3 * se, 1e-3)


class TestGammaAtZero:
    def test_flat_families(self):
        assert gamma_at_zero(NORMAL, -1.3) == 0.0
        assert gamma_at_zero(STUDT, 0.9) == 0.0

    def test_exponential(self):
        assert gamma_at_zero(EXPO, 0.0) == 2.0
        assert gamma_at_zero(EXPO, math.log(2.0)) == pytest.approx(1.0)

    def test_finite_ratio_agrees(self):
        t = 1e-9
        for spec, z in ((NORMAL, 0.0), (STUDT, 1.0), (EXPO, 0.4)):
            ratio = f_infinity(spec, t, z) / t
            assert abs(ratio - gamma_at_zero(spec, z)) < 1e-4

    def test_nan_disturbance_rejected(self):
        for spec in (NORMAL, STUDT, EXPO):
            with pytest.raises(ValueError, match="disturbance value is nan"):
                gamma_at_zero(spec, math.nan)
            with pytest.raises(ValueError, match="disturbance value is nan"):
                f_infinity(spec, 0.3, math.nan)
            with pytest.raises(ValueError, match="disturbance value is nan"):
                sample_pvalues_conditional(
                    spec, ExtremeConfig(n=5, zeta=0.5, seed=1), math.nan)
            with pytest.raises(ValueError, match="disturbance value is nan"):
                disturbance_cdf(spec, math.nan)

    def test_exponential_slope_integrates_to_one(self):
        # E[gamma(Z)] = 1, the step behind the exact FDR identity
        rng = np.random.default_rng(9)
        zs = -np.log1p(-rng.random(10 ** 6))
        vals = 2.0 * np.exp(-zs)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 3 * se


class TestZofT:
    def test_roundtrip_normal(self):
        alpha, zeta, rho = 0.05, 0.5, 0.3
        t = alpha * (1 - zeta / 2)
        z = z_of_t(ModelSpec.normal(rho), t, alpha, zeta)
        back = f_infinity_mixed(ModelSpec.normal(rho), t, z, zeta)
        assert abs(back - t / alpha) < 1e-10

    def test_roundtrip_many(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            alpha = float(rng.uniform(0.02, 0.4))
            zeta = float(rng.uniform(0.1, 1.0))
            spec = ModelSpec.normal(float(rng.uniform(0.05, 0.95)))
            t = float(rng.uniform(alpha * (1 - zeta) * 1.01,
                                  alpha * 0.99))
            z = z_of_t(spec, t, alpha, zeta)
            back = f_infinity_mixed(spec, t, z, zeta)
            assert abs(back - t / alpha) < 1e-10

    def test_t_sign_boundary(self):
        # s > 0 strictly below alpha*(1 - zeta/2), invalid beyond
        alpha, zeta = 0.05, 0.6
        spec = ModelSpec.student_t(4.0)
        t_up = alpha * (1 - zeta / 2)
        assert z_of_t(spec, t_up * 0.999, alpha, zeta) > 0.0
        with pytest.raises(ValueError):
            z_of_t(spec, t_up * 1.001, alpha, zeta)

    def test_normal_blows_up_at_lower_edge(self):
        alpha, zeta = 0.05, 0.5
        spec = ModelSpec.normal(0.1)
        t = alpha * (1 - zeta) + 1e-13
        assert z_of_t(spec, t, alpha, zeta) > 10.0
        assert z_of_t(spec, t, alpha, zeta) \
            > z_of_t(spec, t + 1e-10, alpha, zeta)

    def test_finite_one_ulp_above_lower_edge(self):
        # (1 - t/alpha)/zeta rounds to 1 here; the quantile must come
        # from 1 - q = (t - t_lower)/(alpha*zeta) instead
        alpha, zeta = 0.05, 0.9
        t = math.nextafter(alpha * (1 - zeta), 1.0)
        for spec in (ModelSpec.normal(0.5), ModelSpec.student_t(1.0)):
            z = z_of_t(spec, t, alpha, zeta)
            assert math.isfinite(z)
            assert z > z_of_t(spec, t + 1e-13, alpha, zeta)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            z_of_t(NORMAL, 0.05, 0.05, 0.5)  # t = alpha excluded
        with pytest.raises(ValueError):
            z_of_t(NORMAL, 0.02, 0.05, 0.5)  # below alpha*(1-zeta)
        with pytest.raises(ValueError, match="exponential window"):
            z_of_t(EXPO, 0.7, 0.8, 0.5)  # inside (0.4, 0.8), past t = 1/2
        with pytest.raises(ValueError, match="z >= 0"):
            z_of_t(EXPO, 0.03, 0.05, 0.5)

    def test_roundtrip_exponential(self):
        # z >= 0 needs t/alpha - (1 - zeta) <= 2*zeta*t: t <= 0.5/19 here
        alpha, zeta = 0.05, 0.5
        for t in np.linspace(0.0251, 0.0263, 7):
            z = z_of_t(EXPO, t, alpha, zeta)
            assert z >= 0.0
            back = f_infinity_mixed(EXPO, t, z, zeta)
            assert abs(back - t / alpha) < 1e-12


class TestSampling:
    def test_zeta_zero_all_rejected(self):
        cfg = ExtremeConfig(n=30, zeta=0.0, seed=4)
        sample, _ = sample_pvalues(NORMAL, cfg)
        assert np.all(sample.pvalues == 0.0)
        res = lsu(sample, 0.05)
        assert res.m == 30 and res.fdp == 0.0

    def test_null_count(self):
        cfg = ExtremeConfig(n=100, zeta=0.35, seed=1)
        sample, _ = sample_pvalues(STUDT, cfg)
        assert sample.n0 == 35
        assert np.all(sample.pvalues[~sample.is_true_null] == 0.0)

    def test_marginal_uniform_when_all_null(self):
        # fresh disturbance per draw makes the pooled marginal uniform
        for spec in (NORMAL, STUDT, EXPO):
            cfg0 = ExtremeConfig(n=1, zeta=1.0, seed=0)
            ps = np.empty(30000)
            for k in range(ps.size):
                cfg = ExtremeConfig(n=1, zeta=1.0, seed=k)
                s, _ = sample_pvalues(spec, cfg)
                ps[k] = s.pvalues[0]
            ps.sort()
            i = np.arange(1, ps.size + 1)
            ks = max(np.max(i / ps.size - ps), np.max(ps - (i - 1) / ps.size))
            # 0.1% critical value 1.95/sqrt(n) with headroom; seeded
            assert ks < 0.014, f"{spec.family}: ks={ks}"

    def test_conditional_glivenko_cantelli(self):
        # empirical cdf approaches the conditional limit at n = 1e5
        z = -1.0
        cfg = ExtremeConfig(n=100000, zeta=1.0, seed=77)
        sample = sample_pvalues_conditional(NORMAL, cfg, z)
        ps = np.sort(sample.pvalues)
        grid = np.linspace(1e-4, 1.0 - 1e-4, 1000)
        emp = np.searchsorted(ps, grid, side="right") / cfg.n
        lim = np.array([f_infinity(NORMAL, float(t), z) for t in grid])
        assert np.max(np.abs(emp - lim)) < 0.01

    def test_conditional_exponential_binomial_check(self):
        z, t = 0.6, 0.1
        cfg = ExtremeConfig(n=60000, zeta=1.0, seed=5)
        sample = sample_pvalues_conditional(EXPO, cfg, z)
        frac = float(np.mean(sample.pvalues <= t))
        p = f_infinity(EXPO, t, z)
        se = math.sqrt(p * (1 - p) / cfg.n)
        assert abs(frac - p) < 3 * se

    def test_many_false_rejections_under_negative_disturbance(self):
        # low disturbance draws the whole curve up: far more rejections
        # than the 5 planted signals in most runs
        spec = ModelSpec.normal(0.95)
        rejs = []
        for k in range(1000):
            cfg = ExtremeConfig(n=50, zeta=0.9, seed=9000 + k)
            sample = sample_pvalues_conditional(spec, cfg, -2.0)
            rejs.append(lsu(sample, 0.05).m)
        assert np.median(rejs) > 20

    def test_reproducible(self):
        cfg = ExtremeConfig(n=100, zeta=0.5, seed=31)
        s1, z1 = sample_pvalues(NORMAL, cfg)
        s2, z2 = sample_pvalues(NORMAL, cfg)
        assert z1 == z2
        assert np.array_equal(s1.pvalues, s2.pvalues)

    def test_conditional_matches_support(self):
        with pytest.raises(ValueError):
            sample_pvalues_conditional(STUDT, ExtremeConfig(1, 1.0, 0), -1.0)

    def test_disturbance_cdf_matches_draws(self):
        rng = make_rng(123)
        for spec in (NORMAL, STUDT, EXPO):
            zs = np.array([draw_disturbance(spec, rng) for _ in range(20000)])
            for q in (0.2, 0.5, 0.8):
                zq = float(np.quantile(zs, q))
                assert abs(disturbance_cdf(spec, zq) - q) < 0.02

    def test_disturbance_cdf_at_infinity(self):
        # the chi cdf behind the t family squares its argument
        for spec in (NORMAL, STUDT, EXPO):
            assert disturbance_cdf(spec, math.inf) == 1.0

    def test_disturbance_cdf_below_support(self):
        for spec in (STUDT, EXPO):
            for z in (-math.inf, -2.0, -0.0, 0.0):
                assert disturbance_cdf(spec, z) == 0.0
        assert disturbance_cdf(NORMAL, -math.inf) == 0.0

    def test_exponential_finite_shift_alternatives(self):
        spec = ModelSpec.exponential(false_theta=3.0)
        cfg = ExtremeConfig(n=200, zeta=0.5, seed=8)
        sample, _ = sample_pvalues(spec, cfg)
        false_ps = sample.pvalues[~sample.is_true_null]
        assert np.all(false_ps > 0.0)
        assert np.median(false_ps) < 0.1
