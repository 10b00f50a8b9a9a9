import math
import sys

import numpy as np
import pytest

import lsufdr.crossing as crossing
from lsufdr import specfun as sf
from lsufdr.crossing import CrossingReport, SolverError, crossing_report
from lsufdr.models import ModelSpec, crossing_at, crossing_window, \
    f_infinity_mixed, null_isf, null_sf, z_of_t

INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


def mixed_cdf_grid_normal(rho, ts, z, zeta):
    rb = 1.0 - rho
    arg = np.asarray(sf.Phi_inv(1.0 - ts)) / math.sqrt(rb) \
        + math.sqrt(rho / rb) * z
    return (1.0 - zeta) + zeta * np.asarray(sf.norm_sf(arg))


def gap_normal(u, x0, zeta, alpha, rho):
    """Mixed cdf of disturbance x0 less the line t/alpha at t = sf(u)."""
    t = sf.norm_sf(u)
    return f_infinity_mixed(ModelSpec.normal(rho), t, x0, zeta) - t / alpha


def critical_rho(alpha, zeta):
    """rho_c = 1 - (alpha zeta)^2 exp(-min h), h(u) = x(u)^2 - u^2 for the
    crossing quantile x at t = sf(u): the normal slope of z(u) is
    log(1 - rho)/2 - log(alpha zeta) + h(u)/2, so a tangent exists iff
    rho > rho_c.  min h from a dense grid refined by golden section."""
    def h(u):
        p = (sf.norm_sf(u) - alpha * (1.0 - zeta)) / (alpha * zeta)
        x = sf.norm_isf(p) if p <= 0.5 else -sf.norm_isf(1.0 - p)
        return x * x - u * u

    us = np.linspace(sf.norm_isf(alpha), sf.norm_isf(alpha * (1.0 - zeta)),
                     2002)[1:-1]
    k = int(np.argmin([h(float(u)) for u in us]))
    a, b = float(us[max(k - 1, 0)]), float(us[min(k + 1, us.size - 1)])
    while b - a > 1e-9 * max(1.0, abs(a)):
        c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
        a, b = (a, d) if h(c) < h(d) else (c, b)
    return 1.0 - (alpha * zeta) ** 2 * math.exp(-h(0.5 * (a + b)))


def tangency(spec, alpha, zeta):
    """(u2, z*, t2) of the crossing report, or None without a tangent."""
    rep = crossing_report(spec, alpha, zeta)
    if rep.z_at_tangent is None:
        return None
    return rep.u2, rep.z_at_tangent, rep.t2


class TestDistance:
    def test_zero_on_crossing_curve(self):
        # u at t and the matching disturbance from z_of_t cancel exactly
        alpha, zeta, rho = 0.05, 0.6, 0.4
        spec = ModelSpec.normal(rho)
        for t in (0.021, 0.03, 0.045):
            x0 = z_of_t(spec, t, alpha, zeta)
            u = sf.norm_isf(t)
            assert abs(gap_normal(u, x0, zeta, alpha, rho)) < 1e-12

    def test_limit_at_large_u(self):
        val = gap_normal(40.0, 0.0, 0.7, 0.05, 0.5)
        assert val == pytest.approx(1.0 - 0.7, abs=1e-12)

    def test_sign_change_matches_raw_gap(self):
        # the gap at u changes sign exactly where the cdf, evaluated on
        # a grid in t, crosses the rejection line
        alpha, zeta, rho, x0 = 0.05, 0.8, 0.5, 0.2
        spec = ModelSpec.normal(rho)
        ts = np.linspace(alpha * (1 - zeta) * 1.01, alpha * 0.99, 800)
        gap = mixed_cdf_grid_normal(rho, ts, x0, zeta) - ts / alpha
        us = np.asarray(sf.Phi_inv(1.0 - ts))
        dvals = np.array([gap_normal(float(u), x0, zeta, alpha, rho)
                          for u in us])
        assert np.all((gap > 0) == (dvals > 0))


class TestStationarity:
    def test_stationarity_by_finite_difference(self):
        # z(u), formed through the public z_of_t at t = sf(u), is flat at
        # the reported tangent and turns over there
        cases = ((ModelSpec.normal(0.5), 0.1, 0.9999),
                 (ModelSpec.normal(0.3), 0.05, 1.0),
                 (ModelSpec.student_t(5.0), 0.05, 1.0),
                 (ModelSpec.student_t(2.0), 0.1, 0.99))
        for spec, alpha, zeta in cases:
            rep = crossing_report(spec, alpha, zeta)
            assert rep.z_at_tangent is not None, (spec, alpha, zeta)
            if spec.family == "normal":
                def z(u):
                    return z_of_t(spec, sf.norm_sf(u), alpha, zeta)
            else:
                def z(u):
                    return z_of_t(spec, sf.t_sf(u, spec.nu), alpha, zeta)
            u2 = rep.u2
            assert z(u2) == pytest.approx(rep.z_at_tangent, rel=1e-12)
            h = 1e-5 * max(1.0, u2)
            der = (z(u2 + h) - z(u2 - h)) / (2 * h)
            assert abs(der) < 1e-7, (spec, alpha, zeta, der)
            step = 1e-2 * max(1.0, u2)
            assert z(u2 - step) < rep.z_at_tangent > z(u2 + step)


class TestTangencyNormal:
    def test_full_null_conditions_hold(self):
        for rho in (0.05, 0.3, 0.7, 0.95):
            u_star, z_star, _ = tangency(ModelSpec.normal(rho), 0.05, 1.0)
            d = gap_normal(u_star, z_star, 1.0, 0.05, rho)
            assert abs(d) < 1e-10
            rb = 1.0 - rho
            w = u_star / math.sqrt(rb) + math.sqrt(rho / rb) * z_star
            der = -sf.phi(w) / math.sqrt(rb) + sf.phi(u_star) / 0.05
            assert abs(der) < 1e-10

    def test_full_null_upper_bound(self):
        # for rho <= 1 - alpha^2 the tangent disturbance sits below
        # -sqrt(2 log(sqrt(1-rho)/alpha))
        alpha = 0.05
        for rho in (0.1, 0.5, 0.9):
            _, z_star, _ = tangency(ModelSpec.normal(rho), alpha, 1.0)
            bound = -math.sqrt(2 * math.log(math.sqrt(1 - rho) / alpha))
            assert z_star <= bound + 1e-9

    def test_paper_like_configuration_has_tangent(self):
        assert tangency(ModelSpec.normal(0.5), 0.1, 0.9999) is not None
        rep = crossing_report(ModelSpec.normal(0.5), 0.1, 0.9999)
        assert rep.has_tangent and rep.t1 < rep.t2

    def test_moderate_zeta_no_tangent(self):
        assert tangency(ModelSpec.normal(0.3), 0.05, 0.5) is None

    def test_t2_in_window(self):
        _, _, t2 = tangency(ModelSpec.normal(0.5), 0.05, 0.9999)
        assert 0.05 * (1 - 0.9999) <= t2 <= 0.05


class TestTangencyT:
    def test_full_null_solution(self):
        for nu in (1.0, 5.0, 50.0, 1e5):
            u_star, z_star, _ = tangency(ModelSpec.student_t(nu), 0.05, 1.0)
            # both tangency equations hold
            lhs1 = 0.05 * sf.norm_sf(z_star * u_star)
            rhs1 = sf.t_sf(u_star, nu)
            assert abs(lhs1 - rhs1) <= 1e-10 * max(rhs1, 1e-300)
            lhs2 = z_star * 0.05 * sf.phi(z_star * u_star)
            rhs2 = sf.t_pdf(u_star, nu)
            assert abs(lhs2 - rhs2) <= 1e-8 * max(rhs2, 1e-300)

    def test_curvature_condition(self):
        for nu in (2.0, 30.0, 1e4):
            _, z_star, _ = tangency(ModelSpec.student_t(nu), 0.05, 1.0)
            assert z_star ** 2 < (nu + 1.0) / nu

    def test_t2_below_half_alpha(self):
        for nu in (1.0, 8.0, 300.0):
            _, _, t2 = tangency(ModelSpec.student_t(nu), 0.05, 1.0)
            assert 0.0 < t2 < 0.05 / 2

    def test_alpha_restriction(self):
        with pytest.raises(ValueError):
            crossing_report(ModelSpec.student_t(5), 0.6, 1.0)


class TestCrossingReport:
    def test_full_null_structure(self):
        rep = crossing_report(ModelSpec.normal(0.5), 0.05, 1.0)
        assert rep.t_lower == 0.0
        assert rep.lcp_intervals[0] == (0.0, 0.0)
        assert rep.lcp_intervals[1] == (rep.t2, 0.05)
        assert rep.has_tangent

        rep_t = crossing_report(ModelSpec.student_t(9.0), 0.05, 1.0)
        assert rep_t.lcp_intervals[0] == (0.0, 0.0)
        assert rep_t.t_upper == pytest.approx(0.025)

    def test_exponential_excluded(self):
        with pytest.raises(ValueError):
            crossing_report(ModelSpec.exponential(), 0.05, 0.5)

    def test_interior_points_satisfy_crossing_equation(self):
        for spec, alpha, zeta in ((ModelSpec.normal(0.4), 0.05, 0.7),
                                  (ModelSpec.student_t(6.0), 0.05, 0.6)):
            rep = crossing_report(spec, alpha, zeta)
            for lo, hi in rep.lcp_intervals:
                if hi <= lo:
                    continue
                for frac in (0.25, 0.5, 0.75):
                    t = lo + (hi - lo) * frac
                    z = z_of_t(spec, t, alpha, zeta)
                    assert abs(f_infinity_mixed(spec, t, z, zeta)
                               - t / alpha) < 1e-9

    def test_lcp_sign_change_definition(self):
        # at an interior reported point the cdf crosses downward
        eps = 1e-6
        for spec, alpha, zeta in ((ModelSpec.normal(0.4), 0.05, 0.7),
                                  (ModelSpec.normal(0.5), 0.1, 0.9999),
                                  (ModelSpec.student_t(6.0), 0.05, 0.6)):
            rep = crossing_report(spec, alpha, zeta)
            for lo, hi in rep.lcp_intervals:
                if hi <= lo:
                    continue
                t = 0.5 * (lo + hi)
                if not (lo + 2 * eps < t < hi - 2 * eps):
                    continue
                z = z_of_t(spec, t, alpha, zeta)
                above = f_infinity_mixed(spec, t - eps, z, zeta) \
                    - (t - eps) / alpha
                below = f_infinity_mixed(spec, t + eps, z, zeta) \
                    - (t + eps) / alpha
                assert above > 0.0 > below

    def test_continuity_in_rho(self):
        # refining the parameter grid shrinks the largest endpoint step
        alpha, zeta = 0.05, 0.9999

        def max_step(n_pts):
            t1s, t2s = [], []
            for rho in np.linspace(0.3, 0.7, n_pts):
                rep = crossing_report(ModelSpec.normal(float(rho)),
                                      alpha, zeta)
                assert rep.t1 <= rep.t2
                t1s.append(rep.t1)
                t2s.append(rep.t2)
            return max(np.max(np.abs(np.diff(t1s))),
                       np.max(np.abs(np.diff(t2s))))

        coarse = max_step(9)
        fine = max_step(33)
        assert fine < 0.6 * coarse

    def test_zeta_to_zero_collapses(self):
        rep = crossing_report(ModelSpec.normal(0.4), 0.05, 0.01)
        assert rep.t_upper - rep.t_lower < 0.05 * 0.011
        assert not rep.has_tangent or rep.t1 <= rep.t2

    def test_brute_force_oracle(self):
        # grid scan of the mixed cdf against the line reproduces the
        # reported interval structure: no largest crossing lands inside
        # the (t1, t2) gap, coverage reaches both reported endpoints
        rng = np.random.default_rng(314)
        cases = []
        for _ in range(20):
            alpha = float(rng.uniform(0.02, 0.3))
            zeta = float(rng.choice([rng.uniform(0.3, 0.95),
                                     rng.uniform(0.999, 0.99999)]))
            rho = float(rng.uniform(0.05, 0.995))
            cases.append((ModelSpec.normal(rho), alpha, zeta))
        for _ in range(12):
            alpha = float(rng.uniform(0.02, 0.3))
            zeta = float(rng.choice([rng.uniform(0.3, 0.95),
                                     rng.uniform(0.999, 0.99999)]))
            nu = float(10.0 ** rng.uniform(0.0, 3.0))
            cases.append((ModelSpec.student_t(nu), alpha, zeta))
        for spec, alpha, zeta in cases:
            rep = crossing_report(spec, alpha, zeta)
            t_lower, t_upper = rep.t_lower, rep.t_upper
            n_t = 3000
            ts = np.linspace(t_lower, t_upper, n_t + 1)[1:-1]
            res = (t_upper - t_lower) / n_t
            if spec.family == "normal":
                zs = np.linspace(-7.0, 7.0, 160)
                us = None
            else:
                # disturbance s > 0; the null quantiles do not depend on s
                zs = np.linspace(0.02, 3.0, 150)
                us = np.array([sf.t_isf(float(t), spec.nu) for t in ts])
            dz = zs[1] - zs[0]
            z_star = rep.z_at_tangent
            for z in zs:
                if z_star is not None and abs(z - z_star) < 2 * dz:
                    continue  # resolution-limited near the tangent
                if us is None:
                    cdf = mixed_cdf_grid_normal(spec.rho, ts, float(z), zeta)
                else:
                    cdf = (1.0 - zeta) + zeta * np.asarray(sf.norm_sf(z * us))
                gap = cdf - ts / alpha
                sign = np.concatenate([[True], gap > 0])  # above at t_lower
                down = np.nonzero(sign[:-1] & ~sign[1:])[0]
                if down.size == 0:
                    continue
                lcp = ts[max(down[-1] - 1, 0)]
                inside_gap = (rep.t1 + 3 * res < lcp < rep.t2 - 3 * res)
                assert not inside_gap, \
                    (spec, alpha, zeta, float(z), lcp, rep.t1, rep.t2)


    def test_heavy_tail_window_spanning_decades(self):
        # at nu = 0.5 and zeta = 1 - 1e-7 the u window runs from 165 to
        # 4e15 while the tangent sits near u = 390; the report matches
        # the fully-null tangent it converges to
        spec = ModelSpec.student_t(0.5)
        rep = crossing_report(spec, 0.05, 1.0 - 1e-7)
        full = crossing_report(spec, 0.05, 1.0)
        assert rep.has_tangent
        assert rep.t2 == pytest.approx(full.t2, rel=1e-6)
        assert rep.z_at_tangent == pytest.approx(full.z_at_tangent, rel=1e-6)


class TestOneDip:
    """crossing_report minimizes the slope of z(u) once, which is right
    only while the slope has one interior minimum: measured here, not
    proved."""

    @pytest.mark.parametrize("case", range(24))
    def test_slope_turns_once(self, case):
        rng = np.random.default_rng([21, case])
        zeta = float(1.0 - 10.0 ** rng.uniform(-7.0, math.log10(0.98)))
        if case % 2:
            spec = ModelSpec.normal(float(rng.uniform(0.01, 0.99)))
            alpha = float(10.0 ** rng.uniform(-4.0, math.log10(0.95)))
        else:
            spec = ModelSpec.student_t(float(10.0 ** rng.uniform(-0.3, 6.0)))
            alpha = float(10.0 ** rng.uniform(-4.0, math.log10(0.5)))
        t_lower, t_upper = crossing_window(spec, alpha, zeta)
        ends = null_isf(spec, t_upper), null_isf(spec, t_lower)
        grid = np.linspace if spec.family == "normal" else np.geomspace
        slope = np.array([crossing_at(spec, float(u), alpha, zeta)[2]
                          for u in grid(*ends, 1502)[1:-1]])
        assert np.all(np.isfinite(slope))
        way = np.sign(np.diff(slope))
        way = way[way != 0.0]
        assert np.count_nonzero(way[1:] != way[:-1]) == 1, \
            (spec, alpha, zeta)

    @pytest.mark.parametrize("case", range(40))
    def test_tangent_birth_normal(self, case):
        rng = np.random.default_rng([22, case])
        rho_c = -1.0
        while not 1e-4 < rho_c < 1.0 - 1e-4:
            alpha = float(10.0 ** rng.uniform(-3.0, math.log10(0.9)))
            zeta = float(rng.uniform(0.05, 0.999))
            rho_c = critical_rho(alpha, zeta)
        for rho, tangent in ((rho_c - 1e-6, False), (rho_c + 1e-6, True)):
            rep = crossing_report(ModelSpec.normal(rho), alpha, zeta)
            assert rep.has_tangent == tangent, (alpha, zeta, rho_c, rho)

    def test_narrow_dip(self):
        # just past tangent birth the least slope is -1e-8, and the slope
        # is negative on 6.5e-5 in u, a ninth of a cell of a 1000-cell
        # grid over the window: a grid scan misses this dip
        alpha, zeta = 0.0434, 0.7423
        rho_c = critical_rho(alpha, zeta)
        spec = ModelSpec.normal(1.0 - (1.0 - rho_c) * math.exp(-2e-8))
        rep = crossing_report(spec, alpha, zeta)
        assert rep.has_tangent and rep.t1 < rep.t2
        u_lo, u_hi = rep.u_window
        assert (rep.u1 - rep.u2) / (u_hi - u_lo) < 1e-3
        # z falls from z* and rises back to it across the gap
        z_mid = z_of_t(spec, null_sf(spec, 0.5 * (rep.u1 + rep.u2)),
                       alpha, zeta)
        assert z_mid < rep.z_at_tangent
        assert z_of_t(spec, rep.t2, alpha, zeta) \
            == pytest.approx(rep.z_at_tangent, rel=1e-12)


class TestReportInvariants:
    def test_ordering(self):
        # alpha > 1/2 puts the normal window's upper end at u < 0; at
        # rho = 0.999 and zeta = 0.5, u1 lies within rounding of u_hi
        for spec, alpha, zeta in ((ModelSpec.normal(0.2), 0.05, 0.5),
                                  (ModelSpec.normal(0.9), 0.05, 1.0),
                                  (ModelSpec.normal(0.999), 0.05, 0.5),
                                  (ModelSpec.normal(0.5), 0.7, 0.9),
                                  (ModelSpec.normal(0.5), 0.7, 1.0),
                                  (ModelSpec.normal(0.3), 0.9, 0.999),
                                  (ModelSpec.normal(0.3), 0.9, 1.0),
                                  (ModelSpec.student_t(3.0), 0.05, 1.0),
                                  (ModelSpec.student_t(40.0), 0.2, 0.8)):
            rep = crossing_report(spec, alpha, zeta)
            assert rep.t_lower <= rep.t1 <= rep.t2 <= rep.t_upper
            assert rep.has_tangent == (rep.t1 < rep.t2)
            u_lo, u_hi = rep.u_window
            assert u_lo <= rep.u2 <= rep.u1 <= u_hi


class TestSolverWork:
    @staticmethod
    def counting(monkeypatch, fn=None):
        calls = []
        original = crossing.crossing_at

        def counted(model, u, alpha, zeta):
            calls.append(u)
            return (fn or original)(model, u, alpha, zeta)

        monkeypatch.setattr(crossing, "crossing_at", counted)
        return calls

    def test_full_null_report_is_cheap(self, monkeypatch):
        # regula falsi on dz/du: bisection spent about 50 calls here
        calls = self.counting(monkeypatch)
        rep = crossing_report(ModelSpec.normal(0.5), 0.05, 1.0)
        assert rep.has_tangent
        assert len(calls) <= 20

    def test_report_without_tangent_is_cheap(self, monkeypatch):
        # a 101-point scan and a 21-point fill-in made 122 calls here
        calls = self.counting(monkeypatch)
        rep = crossing_report(ModelSpec.normal(0.3), 0.05, 0.5)
        assert not rep.has_tangent
        assert len(calls) <= 60

    def test_report_with_tangent_is_cheap(self, monkeypatch):
        # u1 is solved from the slope's minimizer; a solve for the dip's
        # end before it made 74 calls here
        calls = self.counting(monkeypatch)
        rep = crossing_report(ModelSpec.normal(0.9), 0.05, 0.9)
        assert rep.has_tangent
        assert len(calls) <= 65

    def test_slope_never_negative_raises(self, monkeypatch):
        calls = self.counting(monkeypatch, lambda model, u, alpha, zeta:
                              (0.0, u, 1.0))
        with pytest.raises(SolverError, match="never turned negative"):
            crossing_report(ModelSpec.normal(0.5), 0.05, 1.0)
        assert max(calls) == sys.float_info.max


class TestFullyNullOracle:
    """z* at zeta = 1 against mpmath at 50 digits.

    At small rho the normal z = (sqrt(1-rho)*x - u)/sqrt(rho) is a small
    difference of terms of size u, with the tangent near
    u = sqrt(2 log(1/alpha)/rho), about 7700 at rho = 1e-7.
    """

    @pytest.fixture(scope="class")
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            yield mpmath

    @staticmethod
    def crossing_quantile(mp, lq, x0):
        # x with log(1 - Phi(x)) = lq
        return mp.findroot(
            lambda x: mp.log(mp.erfc(x / mp.sqrt(2)) / 2) - lq, x0)

    @pytest.mark.parametrize("rho", [1e-2, 1e-4, 1e-6, 1e-7])
    def test_normal(self, mp, rho):
        alpha = mp.mpf("0.05")
        rho_mp = mp.mpf(rho)

        def x_of(u):
            lq = mp.log(mp.erfc(u / mp.sqrt(2)) / 2) - mp.log(alpha)
            return self.crossing_quantile(mp, lq, u + mp.log(alpha) / u)

        def slope(u):
            x = x_of(u)
            return mp.log(1 - rho_mp) / 2 - mp.log(alpha) + (x * x - u * u) / 2

        rep = crossing_report(ModelSpec.normal(rho), 0.05, 1.0)
        u2 = mp.findroot(slope, mp.mpf(rep.u2))
        z_star = (mp.sqrt(1 - rho_mp) * x_of(u2) - u2) / mp.sqrt(rho_mp)
        assert abs(rep.z_at_tangent / z_star - 1) < 1e-10

    @pytest.mark.parametrize("nu", [1.0, 1e5])
    def test_t(self, mp, nu):
        alpha = mp.mpf("0.05")
        nu_mp = mp.mpf(nu)

        def log_sf(u):
            w = nu_mp / (nu_mp + u * u)
            return mp.log(mp.betainc(nu_mp / 2, mp.mpf(1) / 2, 0, w,
                                     regularized=True) / 2)

        def log_pdf(u):
            return (mp.loggamma((nu_mp + 1) / 2) - mp.loggamma(nu_mp / 2)
                    - mp.log(mp.pi * nu_mp) / 2
                    - (nu_mp + 1) / 2 * mp.log(1 + u * u / nu_mp))

        def x_of(u):
            lq = log_sf(u) - mp.log(alpha)
            return self.crossing_quantile(mp, lq, mp.sqrt(-2 * lq))

        def slope(u):
            # log(x' u) - log(x), x' = t_pdf(u)/(alpha phi(x))
            x = x_of(u)
            return (log_pdf(u) - mp.log(alpha) + x * x / 2
                    + mp.log(2 * mp.pi) / 2 + mp.log(u / x))

        rep = crossing_report(ModelSpec.student_t(nu), 0.05, 1.0)
        u2 = mp.findroot(slope, mp.mpf(rep.u2))
        assert abs(rep.z_at_tangent / (x_of(u2) / u2) - 1) < 1e-10
