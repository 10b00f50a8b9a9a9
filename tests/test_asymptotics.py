import math

import numpy as np
import pytest

from lsufdr import asymptotics
from lsufdr import specfun as sf
from lsufdr.asymptotics import (
    conditional_limits,
    eer_fdr_normal,
    eer_fdr_t,
    expected_false_rejections_all_true,
    g_distributions,
    limit_constants,
    t_of_z,
    t_of_z_normal,
)
from lsufdr.crossing import SolverError, crossing_report
from lsufdr.models import ModelSpec, _z_of_fraction, disturbance_cdf, \
    f_infinity, gamma_at_zero, null_sf
from lsufdr.quadrature import QuadratureError, integrate


class TestLimitConstants:
    def test_discontinuity_closed_form(self):
        lc = limit_constants(0.05)
        direct = sf.Phi(-math.sqrt(-2.0 * math.log(0.05)))
        assert lc.fdr_discontinuity == pytest.approx(direct, abs=1e-15)
        assert lc.fdr_discontinuity == pytest.approx(0.00718, abs=1e-4)

    def test_baselines_alpha_005(self):
        lc = limit_constants(0.05)
        assert lc.ene_lsu == pytest.approx(0.05 / 0.9025, abs=1e-12)
        assert lc.ene_lsu == pytest.approx(0.055402, abs=1e-6)
        assert lc.ene_lsd == pytest.approx(0.05 / 0.95, abs=1e-12)
        assert lc.eer_sup_indep == pytest.approx(0.01282, abs=5e-6)
        assert lc.zeta_worst == pytest.approx(0.50641, abs=5e-6)

    def test_baseline_alpha_025(self):
        lc = limit_constants(0.25)
        assert lc.ene_lsu == pytest.approx(0.25 / 0.5625, abs=1e-12)

    def test_invalid_alpha_flags_discontinuity(self):
        lc = limit_constants(0.7)
        assert lc.fdr_discontinuity is None
        assert lc.ene_lsu > 0

    def test_worst_zeta_maximizes_independent_eer(self):
        # the independent-case EER zeta*alpha*(1-zeta)/(1-alpha*zeta)
        # peaks at zeta_worst with value eer_sup_indep
        alpha = 0.05
        lc = limit_constants(alpha)

        def indep_eer(z):
            return alpha * z * (1 - z) / (1 - alpha * z)

        assert indep_eer(lc.zeta_worst) == pytest.approx(lc.eer_sup_indep,
                                                         rel=1e-12)
        for z in np.linspace(0.01, 0.99, 99):
            assert indep_eer(float(z)) <= lc.eer_sup_indep + 1e-15


class TestExpectedFalseRejections:
    def test_zero(self):
        assert expected_false_rejections_all_true(0.05, 0.0) == 0.0

    def test_uniform_matches_baseline(self):
        lc = limit_constants(0.05)
        assert expected_false_rejections_all_true(0.05, 1.0) \
            == pytest.approx(lc.ene_lsu, rel=1e-12)

    def test_divergence(self):
        assert math.isinf(expected_false_rejections_all_true(0.05, 20.0))

    def test_domain(self):
        for gamma in (21.0, math.nan):
            with pytest.raises(ValueError):
                expected_false_rejections_all_true(0.05, gamma)


class TestConditionalLimits:
    def test_normal_full_null_no_crossing(self):
        # disturbance above the tangent value: flat-at-zero cdf gives 0
        rep = crossing_report(ModelSpec.normal(0.5), 0.05, 1.0)
        cl = conditional_limits(ModelSpec.normal(0.5), 0.05, 1.0,
                                rep.z_at_tangent + 1.0)
        assert cl.v_over_n == 0.0
        assert cl.fdp_limit == 0.0

    def test_normal_full_null_crossing(self):
        rep = crossing_report(ModelSpec.normal(0.5), 0.05, 1.0)
        cl = conditional_limits(ModelSpec.normal(0.5), 0.05, 1.0,
                                rep.z_at_tangent - 0.5)
        assert cl.fdp_limit == 1.0
        assert rep.t2 / 0.05 < cl.v_over_n <= 1.0

    def test_full_null_builds_one_report(self, monkeypatch):
        import lsufdr.asymptotics as asy

        calls = []

        def counted(*args):
            calls.append(args)
            return crossing_report(*args)

        model = ModelSpec.normal(0.5)
        z = crossing_report(model, 0.05, 1.0).z_at_tangent - 0.5
        monkeypatch.setattr(asy, "crossing_report", counted)
        cl = conditional_limits(model, 0.05, 1.0, z)
        assert len(calls) == 1
        assert cl.v_over_n == float(t_of_z(model, 0.05, 1.0, z)) / 0.05

    def test_exponential_full_null(self):
        for z in (0.1, 0.7, 2.0):
            cl = conditional_limits(ModelSpec.exponential(), 0.05, 1.0, z)
            assert cl.v_over_n == 0.0
            assert cl.fdp_limit == pytest.approx(2 * 0.05 * math.exp(-z))

    def test_partial_null_bounds(self):
        zeta = 0.6
        for z in (-1.5, 0.0, 1.5):
            cl = conditional_limits(ModelSpec.normal(0.4), 0.05, zeta, z)
            assert 0.0 <= cl.fdp_limit <= zeta + 1e-12
            assert 0.0 <= cl.v_over_n <= zeta + 1e-12

    def test_crossing_satisfies_equation(self):
        from lsufdr.models import f_infinity_mixed

        spec = ModelSpec.normal(0.4)
        alpha, zeta = 0.05, 0.6
        for z in (-2.0, -0.5, 1.0):
            cl = conditional_limits(spec, alpha, zeta, z)
            t = (cl.v_over_n + (1 - zeta)) * alpha
            assert abs(f_infinity_mixed(spec, t, z, zeta) - t / alpha) < 1e-9

    def test_full_null_crossing_below_double_range(self):
        # at rho = 1e-3 the tangent sits near u = 77, so crossings just
        # below z* lie where t underflows to 0; all of them are false
        model = ModelSpec.normal(1e-3)
        rep = crossing_report(model, 0.05, 1.0)
        cl = conditional_limits(model, 0.05, 1.0, rep.z_at_tangent - 1e-4)
        assert cl.v_over_n == 0.0
        assert cl.fdp_limit == 1.0

    def test_nan_disturbance_rejected(self):
        # a nan once ended every bisection at t_lower
        with pytest.raises(ValueError, match="nan"):
            conditional_limits(ModelSpec.normal(0.5), 0.05, 0.5, math.nan)

    def test_exponential_closed_form(self):
        alpha, zeta, z = 0.1, 0.5, 0.8
        cl = conditional_limits(ModelSpec.exponential(), alpha, zeta, z)
        t = alpha * (1 - zeta) / (1 - 2 * alpha * zeta * math.exp(-z))
        assert cl.v_over_n == pytest.approx(t / alpha - (1 - zeta), rel=1e-12)
        assert cl.fdp_limit == pytest.approx(1 - alpha * (1 - zeta) / t,
                                             rel=1e-12)


class TestTOfZ:
    """The vector largest crossing point t(z) of all three families."""

    MODELS = [ModelSpec.normal(0.5), ModelSpec.normal(0.9),
              ModelSpec.student_t(10.0)]

    @staticmethod
    def disturbances(model, alpha, zeta):
        # both branches when there is a tangent
        rep = crossing_report(model, alpha, zeta)
        center = rep.z_at_tangent if rep.has_tangent \
            else 0.0 if model.family == "normal" else 1.0
        z = center + np.array([-2.0, -0.5, -0.1, -0.01, -1e-3, 1e-3, 0.01,
                               0.1, 0.5, 2.0])
        return rep, z if model.family == "normal" else z[z > 0.0]

    @pytest.mark.parametrize("zeta", [0.5, 0.99, 1.0])
    @pytest.mark.parametrize("model", MODELS)
    def test_array_equals_scalar_calls(self, model, zeta):
        _, z = self.disturbances(model, 0.05, zeta)
        t = t_of_z(model, 0.05, zeta, z.reshape(-1, 1))
        assert t.shape == (z.size, 1)
        scalar = [float(t_of_z(model, 0.05, zeta, v)) for v in z.tolist()]
        assert t.ravel().tolist() == scalar

    def test_normal_wrapper(self):
        z = np.linspace(-3.0, 3.0, 7)
        assert np.array_equal(t_of_z_normal(0.05, 0.5, 0.5, z),
                              t_of_z(ModelSpec.normal(0.5), 0.05, 0.5, z))

    def test_near_t_lower_without_warning(self):
        # forming (1 - t/alpha)/zeta rounded to 1 here and took log(0)
        # in the raw quantile, a RuntimeWarning
        t = t_of_z_normal(0.05, 0.999, 0.5, [3.0])
        rep = crossing_report(ModelSpec.normal(0.5), 0.05, 0.999)
        assert rep.t_lower < t[0] < rep.t_upper

    @pytest.mark.parametrize("model", MODELS)
    def test_no_crossing_above_tangent_at_zeta_one(self, model):
        rep, z = self.disturbances(model, 0.05, 1.0)
        t = t_of_z(model, 0.05, 1.0, z)
        above = z >= rep.z_at_tangent
        assert np.all(t[above] == 0.0)
        assert np.all(t[~above] > 0.0)
        assert t_of_z(model, 0.05, 1.0, rep.z_at_tangent) == 0.0

    def test_infinite_disturbance(self):
        for model in self.MODELS:
            for zeta in (0.5, 1.0):
                rep = crossing_report(model, 0.05, zeta)
                assert t_of_z(model, 0.05, zeta, math.inf) == rep.t_lower
        rep = crossing_report(ModelSpec.normal(0.5), 0.05, 0.5)
        assert t_of_z(ModelSpec.normal(0.5), 0.05, 0.5, -math.inf) \
            == rep.t_upper

    def test_nan_rejected(self):
        for model in (*self.MODELS, ModelSpec.exponential()):
            with pytest.raises(ValueError, match="nan"):
                t_of_z(model, 0.05, 0.5, [0.5, math.nan])

    def test_support_enforced(self):
        with pytest.raises(ValueError):
            t_of_z(ModelSpec.student_t(5.0), 0.05, 0.5, [1.0, 0.0])
        with pytest.raises(ValueError):
            t_of_z(ModelSpec.exponential(), 0.05, 0.5, [-0.1])

    def test_exponential_closed_form(self):
        z = np.array([0.0, 0.8, 3.0, math.inf])
        t = t_of_z(ModelSpec.exponential(), 0.1, 0.5, z)
        assert np.allclose(t, 0.05 / (1.0 - 0.1 * np.exp(-z)), rtol=1e-15)
        assert np.all(t_of_z(ModelSpec.exponential(), 0.1, 1.0, z) == 0.0)

    @pytest.mark.parametrize("call", [
        # these returned [-0.75, -2.196], t = 0.75 above alpha, V/n = 0.75
        # above zeta, and a cdf value read off the same wrong top
        lambda e: t_of_z(e, 0.6, 0.9, [0.0, 0.05]),
        lambda e: t_of_z(e, 0.6, 0.5, [0.0]),
        lambda e: conditional_limits(e, 0.6, 0.5, 0.0),
        lambda e: conditional_limits(e, 0.6, 1.0, 0.0),
        lambda e: g_distributions(e, 0.6, 0.9, 0.3, 1),
    ])
    def test_exponential_alpha_above_half_rejected(self, call):
        # the closed form alpha(1 - zeta)/(1 - 2 alpha zeta e^-z) needs the
        # null cdf linear up to the crossing, which holds for alpha <= 1/2
        with pytest.raises(ValueError, match=r"alpha <= 1/2"):
            call(ModelSpec.exponential())
        t_of_z(ModelSpec.exponential(), 0.5, 0.5, [0.0])  # the edge holds


class TestTOfZMpmathOracle:
    """t_of_z against the crossing equation solved at 50 digits.

    The root of sf(u) = t_lower + alpha*zeta*norm_sf(w) passes a relative
    error e of the computed tails on to t, times kappa = A/(pdf(u) - A)
    with A = alpha*zeta*phi(w)*dw/du, which grows without bound toward
    the tangent.  The tolerance is 1e-11, or 2*kappa*e where that is
    larger, e being the package's null tail error at the root plus the
    3e-13 of the array normal tail.  2*kappa*e passes 1e-11 at zeta = 1
    near z* for rho = 0.01, and at nu = 1e5, where t_sf is good to 2e-11.
    """

    @pytest.fixture(scope="class")
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            yield mpmath

    @staticmethod
    def reference(mp, model, alpha, zeta, z, t, last_branch):
        """(t, kappa, e) at the root in u bracketed around isf(t).

        last_branch: the root lies on the branch that ends at t_lower.
        """
        alpha, zeta, z = mp.mpf(alpha), mp.mpf(zeta), mp.mpf(z)
        t_lower, az = alpha * (1 - zeta), alpha * zeta

        def norm_sf(x):
            return mp.erfc(x / mp.sqrt(2)) / 2

        if model.family == "normal":
            rho = mp.mpf(model.rho)
            dw = 1 / mp.sqrt(1 - rho)
            null_sf_mp, null_pdf, isf = norm_sf, mp.npdf, sf.norm_isf

            def w_of(u):
                return (u + mp.sqrt(rho) * z) * dw
        else:
            nu = mp.mpf(model.nu)
            dw = z

            def isf(q):
                return sf.t_isf(q, model.nu)

            def null_sf_mp(u):
                return mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + u * u),
                                  regularized=True) / 2

            def null_pdf(u):
                return mp.exp(mp.loggamma((nu + 1) / 2) - mp.loggamma(nu / 2)
                              - (nu + 1) / 2 * mp.log1p(u * u / nu)) \
                    / mp.sqrt(nu * mp.pi)

            def w_of(u):
                return z * u

        def residual(u):
            return (null_sf_mp(u) - t_lower) / (az * norm_sf(w_of(u))) - 1

        u0 = isf(t)
        if zeta < 1:
            # where the root is too close to the u of t_lower for 50 digits
            # to resolve p, t is t_lower + alpha*zeta*norm_sf(w) there
            u_hi = mp.findroot(lambda u: null_sf_mp(u) / t_lower - 1,
                               isf(float(t_lower)))
            excess = az * norm_sf(w_of(u_hi))
            if last_branch and excess < 1e-20 * t_lower:
                return t_lower + excess, 0.0, 0.0

            # in s = log(u_hi - u) the log residual is near linear up to
            # u_hi, where the root may sit
            def log_residual(s):
                return mp.log(residual(u_hi - mp.exp(s)) + 1)

            s = mp.findroot(log_residual, (
                mp.log(max(u_hi - u0 * (1 + 1e-6), 1e-30 * u_hi)),
                mp.log(u_hi - u0 * (1 - 1e-6))), solver="anderson",
                verify=False)
            u = u_hi - mp.exp(s)
        else:
            u = mp.findroot(residual, (u0 * (1 - 1e-6), u0 * (1 + 1e-6)),
                            solver="anderson", verify=False)
        assert abs(residual(u)) < 1e-25
        a = az * mp.npdf(w_of(u)) * dw
        kappa = abs(a / (null_pdf(u) - a))
        e = abs(null_sf(model, float(u)) / null_sf_mp(u) - 1) + 3e-13
        return t_lower + az * norm_sf(w_of(u)), float(kappa), float(e)

    @pytest.mark.parametrize("zeta", [0.5, 0.99, 0.999, 1.0])
    @pytest.mark.parametrize("model", [
        ModelSpec.normal(0.01), ModelSpec.normal(0.5), ModelSpec.normal(0.9),
        ModelSpec.student_t(1.0), ModelSpec.student_t(10.0),
        ModelSpec.student_t(1e5)])
    def test_relative_error(self, mp, model, zeta):
        rep, z = TestTOfZ.disturbances(model, 0.05, zeta)
        for v, t in zip(z.tolist(), t_of_z(model, 0.05, zeta, z).tolist()):
            if zeta == 1.0 and v >= rep.z_at_tangent:
                continue
            last = not rep.has_tangent or v >= rep.z_at_tangent
            # the largest crossing lies on its branch: (t2, t_upper) below
            # z*, (t_lower, t1) past it
            if rep.has_tangent:
                assert t <= rep.t1 if last else rep.t2 <= t
            ref, kappa, e = self.reference(mp, model, 0.05, zeta, v, t, last)
            assert abs(t / ref - 1) <= max(1e-11, 2 * kappa * e), v


class TestGDistributions:
    def test_nondecreasing(self):
        spec = ModelSpec.normal(0.5)
        alpha, zeta = 0.05, 0.9
        for which in (1, 2):
            us = np.linspace(0.02, zeta - 1e-6, 40)
            vals = [g_distributions(spec, alpha, zeta, float(u), which)
                    for u in us]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_flat_across_tangent_gap(self):
        # both gap edges map to the same tangent disturbance
        spec = ModelSpec.normal(0.5)
        alpha, zeta = 0.1, 0.9999
        rep = crossing_report(spec, alpha, zeta)
        assert rep.has_tangent
        z1 = 1 - alpha * (1 - zeta) / rep.t1
        z2 = 1 - alpha * (1 - zeta) / rep.t2
        g1 = g_distributions(spec, alpha, zeta, z1, 2)
        g2 = g_distributions(spec, alpha, zeta, z2, 2)
        assert g1 == pytest.approx(g2, abs=1e-6)

    def test_approaches_one_at_zeta(self):
        spec = ModelSpec.normal(0.5)
        alpha, zeta = 0.05, 0.5
        assert g_distributions(spec, alpha, zeta, zeta - 1e-12, 2) \
            > 1.0 - 1e-6

    def test_domain_errors(self):
        spec = ModelSpec.normal(0.5)
        with pytest.raises(ValueError):
            g_distributions(spec, 0.05, 0.5, 0.7, 2)  # u beyond zeta
        with pytest.raises(ValueError):
            g_distributions(spec, 0.05, 0.5, 0.2, 3)
        with pytest.raises(ValueError):
            g_distributions(spec, 0.05, 1.0, 0.5, 2)  # FDP cdf needs zeta<1

    def test_student_t_supported(self):
        spec = ModelSpec.student_t(8.0)
        vals = [g_distributions(spec, 0.05, 0.8, u, 1)
                for u in (0.05, 0.15, 0.3)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("spec", [
        ModelSpec.normal(0.5), ModelSpec.student_t(8.0),
        ModelSpec.exponential()])
    def test_whole_domain(self, spec, which):
        # mass where t rounds to t_lower, 1 past the top of t(Z)'s range
        alpha, zeta = 0.05, 0.8
        us = [1e-17, *np.linspace(0.0, zeta, 81)[1:-1].tolist(),
              math.nextafter(zeta, 0.0)]
        vals = [g_distributions(spec, alpha, zeta, u, which) for u in us]
        assert vals[0] > 0.0 and vals[-1] == 1.0
        assert all(0.0 <= a <= b <= 1.0 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("u", [1e-17, 1e-16])
    @pytest.mark.parametrize("spec, alpha, zeta", [
        (ModelSpec.normal(0.692), 7.46e-4, 0.775),
        (ModelSpec.student_t(7.45), 1.18e-4, 0.613),
    ])
    def test_tiny_u_against_draws(self, spec, alpha, zeta, u):
        # t = alpha*(u + 1 - zeta) rounds to t_lower here, where the laws
        # still hold mass; the draws are of V/n = zeta*F(t(Z) | Z) and the
        # FDP, V/n times alpha/t(Z), which keep it
        draws = 2 * 10 ** 4
        rng = np.random.default_rng(9)
        z = rng.standard_normal(draws) if spec.family == "normal" \
            else np.sqrt(rng.chisquare(spec.nu, draws) / spec.nu)
        t = t_of_z(spec, alpha, zeta, z)
        v = zeta * f_infinity(spec, t, z)
        for which, x in ((1, v), (2, v * alpha / t)):
            ref = np.mean(x <= u)
            se = math.sqrt(ref * (1.0 - ref) / draws)
            assert abs(g_distributions(spec, alpha, zeta, u, which) - ref) \
                <= 5.0 * se, which

    @pytest.mark.parametrize("spec, zeta, u, which", [
        # t = alpha*(u + 1 - zeta) is past t_upper = alpha*(1 - zeta/2)
        (ModelSpec.student_t(8.0), 0.8, 0.41, 1),
        (ModelSpec.student_t(8.0), 0.8, 0.7, 1),
        # V/n tops out at t(0)/alpha - (1 - zeta) = 0.0263
        (ModelSpec.exponential(), 0.5, 0.03, 1),
        # the FDP tops out at 2*alpha*zeta = 0.05
        (ModelSpec.exponential(), 0.5, 0.25, 2),
    ])
    def test_one_past_range(self, spec, zeta, u, which):
        assert g_distributions(spec, 0.05, zeta, u, which) == 1.0

    @pytest.mark.parametrize("which", [1, 2])
    def test_exponential_just_below_top(self, which):
        # a few ulps below the top of t(Z)'s range, t and its place in
        # the window round apart; exp(-z) = p/(2t) could top 1 and raise
        rng = np.random.default_rng(14)
        spec = ModelSpec.exponential()
        for alpha, zeta in zip(rng.uniform(0.001, 0.5, 300),
                               rng.uniform(0.01, 0.99, 300)):
            top = alpha * (1.0 - zeta) / (1.0 - 2.0 * alpha * zeta)
            u = top / alpha - (1.0 - zeta) if which == 1 \
                else 1.0 - alpha * (1.0 - zeta) / top
            for _ in range(4):
                u = math.nextafter(u, 0.0)
                g = g_distributions(spec, alpha, zeta, u, which)
                assert 1.0 - 1e-9 <= g <= 1.0, (alpha, zeta, u)

    def test_small_tail_kept(self):
        # G = P(Z > z) is formed directly, not as 1 - W(z), which kept
        # only 1e-16 absolute: 6.66e-16 here for the exponential family,
        # whose G is exp(-z) = p/(2t)
        alpha, zeta, u = 0.05, 0.8, 1e-17
        t, p = alpha * (u + 1.0 - zeta), u / zeta
        g = g_distributions(ModelSpec.exponential(), alpha, zeta, u, 1)
        assert g == pytest.approx(p / (2.0 * t), rel=1e-14)
        spec = ModelSpec.normal(0.5)
        z = _z_of_fraction(spec, t, p, (zeta - u) / zeta)
        assert g_distributions(spec, alpha, zeta, u, 1) == sf.norm_sf(z)

    def test_student_t_tail_against_chi(self):
        # the t family's G is the chi upper tail Q(nu/2, nu z^2/2)
        mpmath = pytest.importorskip("mpmath")
        spec, alpha, zeta, u = ModelSpec.student_t(8.0), 0.05, 0.8, 1e-17
        t, p = alpha * (u + 1.0 - zeta), u / zeta
        z = _z_of_fraction(spec, t, p, (zeta - u) / zeta)
        with mpmath.workdps(40):
            ref = mpmath.gammainc(4, 4 * mpmath.mpf(z) ** 2, mpmath.inf,
                                  regularized=True)
        assert g_distributions(spec, alpha, zeta, u, 1) == \
            pytest.approx(float(ref), rel=1e-13)

    @pytest.mark.parametrize("spec, alpha, zeta", [
        (ModelSpec.normal(0.5), 0.05, 1.0),
        (ModelSpec.normal(0.5), 0.1, 0.9999),
        (ModelSpec.student_t(0.7), 0.2, 0.9),
    ])
    def test_flat_in_tangent_gap(self, spec, alpha, zeta):
        # no largest crossing lies in (t1, t2): V/n's cdf is flat there at
        # P(Z >= z*), and agrees with t_of_z's law of t(Z) everywhere
        rep = crossing_report(spec, alpha, zeta)
        assert rep.has_tangent
        n = 2000
        v = (np.arange(n) + 0.5) / n
        z = sf.Phi_inv(v) if spec.family == "normal" else np.array(
            [sf.chi_quantile(p, spec.nu) / math.sqrt(spec.nu) for p in v])
        tz = t_of_z(spec, alpha, zeta, z)
        us = np.linspace(0.0, zeta, 61)[1:-1]
        ts = alpha * (us + 1.0 - zeta)
        vals = [g_distributions(spec, alpha, zeta, float(u), 1) for u in us]
        gap = 1.0 - disturbance_cdf(spec, rep.z_at_tangent)
        for t, g in zip(ts, vals):
            assert abs(g - np.mean(tz <= t)) <= 1.0 / n
            if rep.t1 < t < rep.t2:
                assert g == gap
        assert any(rep.t1 < t < rep.t2 for t in ts)


class TestQuadratureFormulas:
    def test_fdr_endpoints_near_independence(self):
        for zeta in (0.2, 0.5, 0.9):
            r = eer_fdr_normal(0.05, zeta, 1e-6)
            assert abs(r.fdr - zeta * 0.05) < 1e-6
            rt = eer_fdr_t(0.05, zeta, 1e5)
            assert abs(rt.fdr - zeta * 0.05) < 1e-5

    def test_eer_near_independence_matches_lcp_value(self):
        # the crossing of (1-zeta) + zeta*t with t/alpha sits at
        # t* = alpha(1-zeta)/(1-alpha*zeta); the limiting EER is
        # t*/alpha - (1-zeta) = zeta*alpha*(1-zeta)/(1-alpha*zeta),
        # confirmed independently by simulation in the Monte Carlo suite
        alpha = 0.05
        for zeta in (0.2, 0.5, 0.9):
            target = zeta * alpha * (1 - zeta) / (1 - alpha * zeta)
            r = eer_fdr_normal(alpha, zeta, 1e-6)
            assert abs(r.eer - target) < 1e-5
            rt = eer_fdr_t(alpha, zeta, 1e5)
            assert abs(rt.eer - target) < 1e-4

    def test_full_null_discontinuity_chain(self):
        const = limit_constants(0.05).fdr_discontinuity
        gaps = []
        for rho in (1e-2, 1e-4, 1e-6):
            r = eer_fdr_normal(0.05, 1.0, rho)
            gaps.append(abs(r.fdr - const))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-3

    def test_full_null_t_limit(self):
        const = limit_constants(0.05).fdr_discontinuity
        r = eer_fdr_t(0.05, 1.0, 1e5)
        assert abs(r.fdr - const) < 2e-3

    def test_full_null_decomposition(self):
        # FDR(1) = P(Z < z*) since the slope at zero vanishes for the
        # normal family; crossing existence checked by brute scan
        alpha, rho = 0.05, 0.3
        spec = ModelSpec.normal(rho)
        rep = crossing_report(spec, alpha, 1.0)
        r = eer_fdr_normal(alpha, 1.0, rho)
        assert r.fdr == pytest.approx(sf.Phi(rep.z_at_tangent), abs=1e-12)
        assert gamma_at_zero(spec, rep.z_at_tangent) == 0.0
        from lsufdr.models import f_infinity

        ts = np.linspace(1e-6, alpha, 4001)
        for dz, expect_crossing in ((-0.3, True), (0.3, False)):
            z = rep.z_at_tangent + dz
            above = any(f_infinity(spec, float(t), z) > t / alpha
                        for t in ts)
            assert above == expect_crossing

    def test_eer_bounds(self):
        for zeta, rho in ((0.3, 0.2), (0.8, 0.6), (1.0, 0.9)):
            r = eer_fdr_normal(0.05, zeta, rho)
            rep = crossing_report(ModelSpec.normal(rho), 0.05, zeta)
            assert 0.0 <= r.eer <= rep.t_upper / 0.05 + 1e-12
            assert 0.0 <= r.fdr <= 1.0

    def test_quadrature_error_below_request(self):
        r = eer_fdr_normal(0.05, 0.5, 0.5, tol=1e-8)
        assert r.quadrature_error < 1e-8

    def test_error_estimate_at_power_law_endpoint(self):
        # the weight rises like (u - u_lo)^0.54 from the lower end of
        # [1.295, 2.110]; one GK15 panel over it estimated 4.6e-9 for an
        # error of 1.24e-8
        args = (0.09769483773572457, 1.0, 0.6495567565618708)
        r = eer_fdr_normal(*args)
        err = abs(r.eer - eer_fdr_normal(*args, tol=1e-13).eer)
        assert err <= r.quadrature_error < 1e-8

    def test_fdr_scan_band(self):
        # regression property: the FDR stays within [zeta*alpha/2,
        # zeta*alpha] over moderate correlations
        alpha, zeta = 0.05, 0.5
        for rho in np.arange(0.1, 0.95, 0.1):
            r = eer_fdr_normal(alpha, zeta, float(rho))
            assert 0.5 * zeta * alpha - 1e-9 <= r.fdr <= zeta * alpha + 1e-9

    def test_two_route_agreement(self):
        # quadrature versus Monte Carlo integration of the conditional
        # limit over the disturbance
        alpha, zeta, rho = 0.05, 0.5, 0.5
        r = eer_fdr_normal(alpha, zeta, rho)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(2024)))
        z = rng.standard_normal(10 ** 6)
        tz = t_of_z_normal(alpha, zeta, rho, z)
        fdp = 1.0 - alpha * (1 - zeta) / tz
        vn = tz / alpha - (1 - zeta)
        se_f = fdp.std(ddof=1) / math.sqrt(fdp.size)
        se_v = vn.std(ddof=1) / math.sqrt(vn.size)
        assert abs(r.fdr - fdp.mean()) < max(3 * se_f, 5e-3)
        assert abs(r.eer - vn.mean()) < max(3 * se_v, 5e-3)

    def test_nu_domain(self):
        with pytest.raises(ValueError):
            eer_fdr_t(0.05, 0.5, 0.3)

    def test_extreme_zeta_chain(self):
        # the lower crossing point collapses to zero as zeta reaches
        # one while the tangent location stays continuous
        near = crossing_report(ModelSpec.normal(0.5), 0.05, 0.9999)
        full = crossing_report(ModelSpec.normal(0.5), 0.05, 1.0)
        assert near.has_tangent and full.has_tangent
        assert 0.0 < near.t1 < 1e-4
        assert full.t1 == 0.0
        assert abs(near.t2 - full.t2) < 0.1 * full.t2


class TestSmallAlphaNearIndependence:
    """Near independence the limits are the independence values zeta*alpha
    (FDR) and zeta*alpha(1 - zeta)/(1 - alpha*zeta) (EER), at small alpha
    too, where the weight's mass sits in a thin layer next to u_hi."""

    @pytest.mark.parametrize("limit, alpha, zeta, param", [
        (eer_fdr_normal, 0.001, 0.5, 1e-2),  # control: a wide layer
        (eer_fdr_normal, 0.001, 0.5, 1e-4),
        (eer_fdr_normal, 5e-4, 0.5, 1e-8),
        (eer_fdr_t, 5e-4, 0.5, 1e6),
    ])
    def test_independence_limits(self, limit, alpha, zeta, param):
        r = limit(alpha, zeta, param)
        assert r.fdr == pytest.approx(zeta * alpha, rel=0.01)
        assert r.eer == pytest.approx(
            zeta * alpha * (1 - zeta) / (1 - alpha * zeta), rel=0.01)


def _sweep_configs(count: int, seed: int):
    """Seeded (model, alpha, zeta) draws over the extreme configurations:
    alpha log-uniform on [1e-4, 0.5], zeta uniform on [0.01, 0.999] or 1
    (probability 0.15), then either rho log-uniform within [1e-8, 0.1]
    of 0 or of 1, or nu log-uniform on [0.5, 1e7]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        alpha = float(10 ** rng.uniform(-4.0, math.log10(0.5)))
        zeta = 1.0 if rng.random() < 0.15 else float(rng.uniform(0.01, 0.999))
        if rng.random() < 0.5:
            gap = float(10 ** rng.uniform(-8.0, -1.0))
            model = ModelSpec.normal(gap if rng.random() < 0.5 else 1 - gap)
        else:
            model = ModelSpec.student_t(float(10 ** rng.uniform(
                math.log10(0.5), 7.0)))
        out.append((model, alpha, zeta))
    return out


def _limit(model, alpha, zeta):
    if model.family == "normal":
        return eer_fdr_normal(alpha, zeta, model.rho)
    return eer_fdr_t(alpha, zeta, model.nu)


def _route_misses(model, alpha, zeta, r, draws, seed):
    """Names of r's limits that the Monte Carlo route, the mean of the
    conditional limits at `draws` disturbance draws, misses by more than
    5 standard errors + 1e-6."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(draws) if model.family == "normal" \
        else np.sqrt(rng.chisquare(model.nu, draws) / model.nu)
    t = t_of_z(model, alpha, zeta, z)
    if zeta < 1.0:
        routes = {"eer": t / alpha - (1.0 - zeta),
                  "fdr": 1.0 - alpha * (1.0 - zeta) / t}
    else:  # t = 0 past z*, so the EER is E[t(Z); Z < z*]/alpha
        routes = {"eer": t / alpha}
    return [name for name, x in routes.items()
            if abs(getattr(r, name) - x.mean())
            > 5.0 * x.std(ddof=1) / math.sqrt(draws) + 1e-6]


_SWEEP = _sweep_configs(120, 20261019)


class TestRandomizedSweep:
    """Each limit either agrees with the Monte Carlo route over the
    disturbance or raises a typed error; none is silently wrong."""

    @pytest.mark.parametrize("index", range(len(_SWEEP)))
    def test_agrees_with_disturbance_route(self, index):
        model, alpha, zeta = _SWEEP[index]
        try:
            r = _limit(model, alpha, zeta)
        except (SolverError, QuadratureError):
            return
        assert r.quadrature_error <= 1e-8
        misses = _route_misses(model, alpha, zeta, r, 2 * 10 ** 4, index)
        if misses:
            # a rare tail event can hold all of the mass; resolve it with
            # more draws, never with a wider bound
            misses = _route_misses(model, alpha, zeta, r, 2 * 10 ** 6,
                                   10 ** 6 + index)
        assert misses == []


# the benchmark's limit_curve grid at alpha = 0.05
_GRID = [(eer_fdr_normal, zeta, rho) for zeta in (0.5, 0.9, 1.0)
         for rho in (0.01, 0.1, 0.5, 0.9)] + [
    (eer_fdr_t, zeta, nu) for zeta, nu in ((0.5, 3.0), (0.5, 10.0),
                                           (0.5, 100.0), (0.5, 1e5),
                                           (0.9, 10.0), (0.9, 100.0),
                                           (0.9, 1e5))]


def test_grid_evaluation_count(monkeypatch):
    # the graded variable spends 4,260 integrand evaluations on the grid
    # and panels in u itself about three times that, so losing the
    # grading fails the bound
    evals = [0]

    def counted(f, *args, **kwargs):
        def g(x):
            evals[0] += 1
            return f(x)
        return integrate(g, *args, **kwargs)

    monkeypatch.setattr(asymptotics, "integrate", counted)
    for limit, zeta, param in _GRID:
        assert limit(0.05, zeta, param).quadrature_error <= 1e-8
    assert evals[0] <= 5000
