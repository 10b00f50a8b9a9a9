import math
import sys

import numpy as np
import pytest

from lsufdr import specfun as sf


def erf_series(x):
    # Maclaurin series of erf, summed to convergence; independent oracle
    term = x
    total = 0.0
    k = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 2.0 / math.sqrt(math.pi) * total


class TestNormal:
    def test_phi_at_zero(self):
        assert sf.Phi(0.0) == 0.5

    def test_phi_975(self):
        # oracle: high-precision erf series
        oracle = 0.5 * (1.0 + erf_series(1.959964 / math.sqrt(2.0)))
        assert abs(oracle - 0.975) < 1e-6
        assert abs(sf.Phi(1.959964) - oracle) < 1e-14

    def test_cdf_absolute_accuracy(self):
        # the alternating series is a trustworthy double-precision
        # oracle only for moderate arguments; the C library erfc covers
        # the tails as a second, independent implementation
        for x in np.linspace(-2.8, 2.8, 1401):
            oracle = 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))
            assert abs(sf.Phi(float(x)) - oracle) <= 1e-14
        for x in np.linspace(-38.0, 38.0, 1901):
            oracle = 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert abs(sf.Phi(float(x)) - oracle) <= 1e-14

    def test_quantile_center(self):
        assert sf.Phi_inv(0.5) == 0.0

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                sf.Phi_inv(p)

    def test_roundtrip_random_points(self):
        rng = np.random.default_rng(1234)
        p = rng.uniform(1e-12, 1.0 - 1e-12, 1000)
        x = np.asarray(sf.Phi_inv(p))
        back = np.asarray(sf.Phi(x))
        assert np.max(np.abs(back - p)) < 1e-14

    def test_roundtrip_x_space(self):
        rng = np.random.default_rng(99)
        x = rng.uniform(-8.0, 0.0, 1000)  # lower tail carries full precision
        back = np.asarray(sf.Phi_inv(sf.Phi(x)))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_symmetry(self):
        xs = np.linspace(0.0, 10.0, 500)
        err = np.abs(np.asarray(sf.Phi(-xs)) + np.asarray(sf.Phi(xs)) - 1.0)
        assert err.max() < 1e-14

    def test_strictly_increasing(self):
        # strictness holds wherever the grid spacing still moves the
        # cdf by more than one ulp of values near one
        xs = np.linspace(-10.0, 7.5, 2001)
        vals = np.asarray(sf.Phi(xs))
        assert np.all(np.diff(vals) > 0.0)
        wide = np.asarray(sf.Phi(np.linspace(-40.0, 40.0, 2001)))
        assert np.all(np.diff(wide) >= 0.0)

    def test_deep_tail_quantile(self):
        for p in (1e-50, 1e-200, 1e-300):
            x = sf.Phi_inv(p)
            assert abs(sf.Phi(x) - p) / p < 1e-12

    def test_logsf_matches_direct(self):
        for x in (-3.0, -0.5, 0.7, 5.0, 11.0, 25.0):
            assert abs(sf.norm_logsf(x) - math.log(sf.norm_sf(x))) < 1e-12

    def test_logsf_far_tail_inverse(self):
        for lq in (-5.0, -300.0, -1e4, -3e6):
            x = sf.norm_isf_log(lq)
            assert abs(sf.norm_logsf(x) - lq) < 1e-9 * abs(lq)


class TestStudentT:
    def test_center(self):
        for nu in (0.7, 1.0, 4.0, 250.0):
            assert sf.t_cdf(0.0, nu) == 0.5

    def test_cauchy_closed_form(self):
        for x in (-5.0, -1.0, 0.3, 1.0, 7.5):
            oracle = 0.5 + math.atan(x) / math.pi
            assert abs(sf.t_cdf(x, 1.0) - oracle) < 1e-14

    def test_normal_limit(self):
        for x in np.linspace(-4.0, 4.0, 33):
            assert abs(sf.t_cdf(float(x), 1e6) - sf.Phi(float(x))) < 1e-4

    def test_symmetry(self):
        for nu in (0.6, 2.0, 9.0, 1e5):
            for x in np.linspace(0.0, 30.0, 61):
                s = sf.t_cdf(-float(x), nu) + sf.t_cdf(float(x), nu)
                assert abs(s - 1.0) < 1e-14

    def test_quantile_roundtrip_x_space(self):
        rng = np.random.default_rng(7)
        for nu in (0.6, 1.0, 3.0, 30.0, 1000.0):
            # the lower tail is represented directly, the upper tail
            # only through 1 - p, so its usable depth is shallower
            lo = -sf.t_isf(1e-13, nu)
            hi = sf.t_isf(2e-5, nu)
            xs = rng.uniform(lo, hi, 200)
            for x in xs:
                p = sf.t_cdf(float(x), nu)
                back = sf.t_quantile(p, nu)
                assert abs(back - x) <= 1e-10 * max(1.0, abs(x))

    def test_quantile_roundtrip_p_space(self):
        rng = np.random.default_rng(8)
        for nu in (0.8, 2.0, 12.0, 1e5):
            ps = rng.uniform(1e-9, 1.0 - 1e-9, 250)
            for p in ps:
                x = sf.t_quantile(float(p), nu)
                assert abs(sf.t_cdf(x, nu) - p) < 2e-9

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            sf.t_quantile(0.0, 5.0)
        with pytest.raises(ValueError):
            sf.t_quantile(1.0, 5.0)

    def test_bad_nu(self):
        for nu in (0.0, -3.0):
            with pytest.raises(ValueError):
                sf.t_cdf(0.3, nu)

    def test_logsf_quadrature_oracle(self):
        # integrate the density over the tail with the package quadrature
        from lsufdr.quadrature import integrate

        for nu, x in ((5.0, 3.0), (1e5, 33.0)):
            lv = sf.t_logsf(x, nu)

            def scaled_pdf(s, nu=nu, x=x, lv=lv):
                # substitute u = x/s so the infinite tail maps to (0, 1]
                u = x / s
                return math.exp(sf.t_logpdf(u, nu) + math.log(x)
                                - 2.0 * math.log(s) - lv)

            val, _ = integrate(scaled_pdf, 1e-12, 1.0, tol=1e-10)
            assert abs(val - 1.0) < 1e-6

    def test_pdf_integral_matches_cdf(self):
        from lsufdr.quadrature import integrate

        val, _ = integrate(lambda x: sf.t_pdf(x, 3.5), -60.0, 60.0, tol=1e-10)
        expected = sf.t_cdf(60.0, 3.5) - sf.t_cdf(-60.0, 3.5)
        assert abs(val - expected) < 1e-9


class TestStudentTMpmathOracle:
    # Relative tolerances: a tail near 1e-300 passes through exp of a
    # log of size ~700, which costs ~700 ulp; the quantile is solved to
    # 1e-13 relative in x, which moves the tail by nu times that.
    SF_RTOL = 1e-12
    ISF_RTOL = 1e-11
    NUS = (0.5, 1.0, 5.0)

    @pytest.fixture(scope="class")
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            yield mpmath

    @staticmethod
    def mp_sf(mp, x, nu):
        x, nu = mp.mpf(x), mp.mpf(nu)
        upper = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + x * x),
                           regularized=True) / 2
        return upper if x >= 0 else 1 - upper

    def test_sf(self, mp):
        # |x|/sqrt(nu) overflows above about 1.27e308 at nu = 0.5
        xs = np.concatenate([np.linspace(-5.0, 5.0, 21),
                             np.logspace(0.0, 300.0, 31),
                             [1.3e308, sys.float_info.max]])
        for nu in self.NUS:
            for x in xs:
                ref = self.mp_sf(mp, float(x), nu)
                if ref < mp.mpf("1e-300"):
                    continue
                got = sf.t_sf(float(x), nu)
                assert abs(got / float(ref) - 1.0) < self.SF_RTOL, (nu, x)

    def test_isf(self, mp):
        # x*x overflows past 1.3e154, which q below about 1e-78 needs at
        # nu = 0.5; past the double range the quantile is inf.  At
        # nu = 0.5, q = 2.5e-155 has its quantile near 1.6e308.
        for nu in self.NUS:
            beyond = self.mp_sf(mp, sys.float_info.max, nu)
            for q in (0.3, 1e-5, 1e-50, 1e-78, 1e-80, 1e-100, 1e-154,
                      2.5e-155, 1e-200, 1e-300):
                x = sf.t_isf(q, nu)
                if q < beyond:
                    assert x == math.inf, (nu, q, x)
                else:
                    tail = float(self.mp_sf(mp, x, nu))
                    assert abs(tail / q - 1.0) < self.ISF_RTOL, (nu, q, x)


class TestChi:
    def test_boundary(self):
        for nu in (1.0, 2.5, 40.0):
            assert sf.chi_cdf(0.0, nu) == 0.0

    def test_negative_domain(self):
        with pytest.raises(ValueError):
            sf.chi_cdf(-0.1, 3.0)

    def test_half_normal_identity(self):
        for x in np.linspace(0.0, 8.0, 81):
            lhs = sf.chi_cdf(float(x), 1.0)
            rhs = 2.0 * sf.Phi(float(x)) - 1.0
            assert abs(lhs - rhs) < 1e-13

    def test_rayleigh_median(self):
        # chi with 2 dof has cdf 1 - exp(-x^2/2), median sqrt(2 log 2)
        assert abs(sf.chi_cdf(1.177410, 2.0) - 0.5) < 1e-5
        med = math.sqrt(2.0 * math.log(2.0))
        assert abs(sf.chi_cdf(med, 2.0) - 0.5) < 1e-14

    def test_strictly_increasing(self):
        for nu in (0.7, 3.0, 1e4):
            lo = sf.chi_quantile(1e-8, nu)
            hi = sf.chi_quantile(1.0 - 1e-8, nu)
            xs = np.linspace(lo, hi, 300)
            vals = [sf.chi_cdf(float(x), nu) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_quantile_roundtrip(self):
        rng = np.random.default_rng(17)
        for nu in (1.0, 2.0, 11.0, 1e5):
            for p in rng.uniform(1e-8, 1.0 - 1e-8, 250):
                x = sf.chi_quantile(float(p), nu)
                assert abs(sf.chi_cdf(x, nu) - p) < 1e-9


class TestErfFamily:
    def test_against_stdlib(self):
        xs = np.concatenate([np.linspace(-8, 8, 2001),
                             [-26.0, -12.0, 12.0, 25.0, 26.0]])
        for x in xs:
            x = float(x)
            assert abs(sf.erf(x) - math.erf(x)) < 4e-16
            ref = math.erfc(x)
            if ref > 0.0:
                assert abs(sf.erfc(x) - ref) <= 8e-15 * ref

    def test_erfcx_large(self):
        # asymptotic: erfcx(x) ~ 1/(x sqrt(pi))
        for x in (10.0, 100.0, 1e4):
            approx = 1.0 / (x * math.sqrt(math.pi))
            assert abs(sf.erfcx(x) - approx) < 0.01 * approx

    def test_vector_shapes(self):
        x = np.array([[0.0, 1.0], [-1.0, 2.0]])
        out = sf.Phi(x)
        assert out.shape == x.shape
        assert isinstance(sf.Phi(0.3), float)
