import math
import statistics
import sys

import numpy as np
import pytest

import lsufdr
from lsufdr import specfun as sf


@pytest.fixture(scope="module")
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


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
        for p in (0.0, 1.0, -0.2, 1.4, math.nan):
            for arg in (p, np.array([0.3, p, 0.7])):
                with pytest.raises(ValueError):
                    sf.Phi_inv(arg)

    def test_array_quantile_pinned_to_stdlib(self):
        # the array kernel transcribes statistics.NormalDist.inv_cdf,
        # so the two copies of AS241 must not drift apart
        rng = np.random.default_rng(20241018)
        p = np.concatenate([rng.random(60000),
                            10.0 ** -rng.uniform(0.0, 323.3, 20000),
                            1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 20000)])
        p = p[(p > 0.0) & (p < 1.0)]
        ref = np.array([statistics.NormalDist().inv_cdf(v)
                        for v in p.tolist()])
        got = sf.Phi_inv(p)
        assert np.all(np.abs(got - ref) <= 5e-16 * np.abs(ref))

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

    def test_logsf_at_infinity(self):
        assert sf.norm_logsf(math.inf) == -math.inf
        assert sf.norm_logsf(-math.inf) == 0.0

    def test_logsf_far_tail_inverse(self):
        for lq in (-5.0, -300.0, -1e4, -3e6, -1e50, -1e300):
            x = sf.norm_isf_log(lq)
            assert abs(sf.norm_logsf(x) - lq) < 1e-9 * abs(lq)

    def test_norm_isf_log_domain(self):
        for lq in (-0.69, 0.0, math.nan):
            with pytest.raises(ValueError):
                sf.norm_isf_log(lq)


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
        # the array kernels check nu too
        for name in ("t_sf", "t_cdf", "t_logsf", "t_pdf", "t_logpdf"):
            with pytest.raises(ValueError):
                getattr(sf, name)(np.array([0.3]), 0.0)

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
            # scalar calls and the array kernel
            worst = worst_rel_error(sf.t_sf, xs,
                                    lambda x: self.mp_sf(mp, x, nu), nu)
            assert worst < self.SF_RTOL, nu

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


class TestStudentTKernels:
    """The array t functions run numpy kernels, which must give the bits
    of the scalar calls: numpy's + - * / round as Python's do, and the
    transcendentals stay the standard library's."""

    NUS = (0.5, 0.7, 2.5, 5.0, 30.0, 1e3, 1e5)
    NAMES = ("t_sf", "t_cdf", "t_logsf", "t_pdf", "t_logpdf")
    # at nu = 30, (sqrt(nu)/x)**2 is one ulp above the square
    POW = 8.272720954675616
    EDGES = (0.0, -0.0, math.inf, -math.inf, 1e-300, -1e-300, 1.3e308,
             -1.3e308, sys.float_info.max, -sys.float_info.max)

    @classmethod
    def grid(cls, nu):
        rng = np.random.default_rng(int(nu * 10))
        root = math.sqrt(nu)
        sign = rng.choice([-1.0, 1.0], 800)
        return np.concatenate([
            rng.uniform(-3.0 * root, 3.0 * root, 800),  # both _t_log_w sides
            sign * root * np.exp(rng.uniform(-40.0, 40.0, 800)),
            [root, -root, math.nextafter(root, 0.0),
             math.nextafter(root, math.inf), cls.POW, -cls.POW],
            cls.EDGES])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("name", NAMES)
    def test_bits_equal_scalar_calls(self, name, nu):
        f = getattr(sf, name)
        xs = self.grid(nu)
        ref = np.array([f(x, nu) for x in xs.tolist()])
        got = f(xs, nu)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("nu", NUS)
    def test_grid_runs_both_fractions(self, nu):
        # the direct fraction at w = nu/(nu + x^2) below (a + 1)/(a + b + 2),
        # the complement above it; at nu = 30 POW takes the pow branch
        xs = np.abs(self.grid(nu))
        xs = xs[(xs > 0.0) & (xs < 1e150)]
        a, b = 0.5 * nu, 0.5
        direct = nu / (nu + xs * xs) < (a + 1.0) / (a + b + 2.0)
        assert direct.any() and not direct.all()
        assert (xs > math.sqrt(nu)).any() and (xs < math.sqrt(nu)).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lockstep_fraction(self):
        # at x = (a + 1)/(a + b) the first denominator is 0 and clamped
        rng = np.random.default_rng(12)
        for a, b in ((1.0, 1.0), (0.5, 2.5), (3.0, 2.0), (40.0, 0.5)):
            xs = np.append(rng.uniform(0.0, 0.7, 300), (a + 1.0) / (a + b))
            xs = xs[xs <= 1.0]
            np.testing.assert_array_equal(
                sf._betacf_array(a, b, xs),
                [sf._betacf(a, b, x) for x in xs.tolist()])

    def test_nan(self):
        # nan comes back at once, and the array's other element is kept
        x = np.array([1.0, math.nan])
        for name in self.NAMES:
            f = getattr(sf, name)
            assert math.isnan(f(math.nan, 5.0))
            got = f(x, 5.0)
            assert got[0] == f(1.0, 5.0) and math.isnan(got[1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nu", (30.0, 1e5))
    def test_subnormal_x(self, nu):
        # y = |x|/sqrt(nu) underflows to 0 at the smallest subnormals
        assert sf.t_sf(5e-324, nu) == 0.5
        assert sf.t_logsf(5e-324, nu) == math.log(0.5)
        xs = np.array([5e-324, -5e-324, 1e-323, -1.5e-323, 1e-310, 1.0])
        for name in self.NAMES:
            f = getattr(sf, name)
            ref = np.array([f(x, nu) for x in xs.tolist()])
            got = f(xs, nu)
            np.testing.assert_array_equal(got.view(np.int64),
                                          ref.view(np.int64))


class TestChi:
    def test_boundary(self):
        for nu in (1.0, 2.5, 40.0):
            assert sf.chi_cdf(0.0, nu) == 0.0

    def test_negative_domain(self):
        with pytest.raises(ValueError):
            sf.chi_cdf(-0.1, 3.0)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            sf.chi_quantile(1.0, 3.0)

    def test_cdf_past_the_double_range(self):
        # x*x/2 overflows to inf there
        for x in (1e200, math.inf):
            assert sf.chi_cdf(x, 3.0) == 1.0
        out = sf.chi_cdf(np.array([1e200, math.inf]), 3.0)
        np.testing.assert_array_equal(out, [1.0, 1.0])

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


class TestSolveIncreasing:
    """The package's one scalar bracketed root finder."""

    @staticmethod
    def counted(g):
        calls = []

        def wrapped(x):
            calls.append(x)
            return g(x)

        return wrapped, calls

    def test_regula_falsi_converges_fast(self):
        # a smooth root without a derivative: bisection needs about 47
        # halvings of [0.5, 4] to reach 1e-14 relative
        g, calls = self.counted(lambda x: math.exp(x) - 5.0)
        x = sf._solve_increasing(g, 0.5, 4.0, 1e-14)
        assert x == pytest.approx(math.log(5.0), rel=1e-14)
        assert len(calls) <= 20

    def test_secant_onto_the_bracket_end_stops(self):
        # the secant lands within rounding of the root, and the next one
        # rounds onto that end of the bracket; bisecting on from there
        # took 26 calls
        g, calls = self.counted(lambda x: 12.0 * x * x - 1.0)
        x = sf._solve_increasing(g, 0.001, 1.0, 1e-14)
        assert x == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-15)
        assert len(calls) <= 15

    def test_newton_with_derivative(self):
        x = sf._solve_increasing(lambda x: x ** 3 - 10.0, 0.0, 4.0, 1e-13,
                                 lambda x: 3.0 * x * x, 2.0)
        assert x == pytest.approx(10.0 ** (1 / 3), rel=1e-13)

    @pytest.mark.parametrize("lo, hi, root", [(-50.0, -10.0, -17.25),
                                              (-3.0, 2.0, 0.75),
                                              (-3.0, 2.0, -1e-3)])
    def test_brackets_below_and_across_zero(self, lo, hi, root):
        x = sf._solve_increasing(lambda x: math.atan(x - root), lo, hi, 1e-14)
        assert x == pytest.approx(root, rel=1e-13)

    def test_grows_a_negative_bracket(self):
        # g(hi) < 0 moves the bracket up, from -8 through 1 and 4
        x = sf._solve_increasing(lambda x: x - 3.0, -9.0, -8.0, 1e-14)
        assert x == pytest.approx(3.0, rel=1e-14)

    def test_infinite_value_at_hi(self):
        # the secant through an infinite end is undefined: bisect
        def g(x):
            return math.inf if x >= 1.0 else math.log(x) + 1.0

        x = sf._solve_increasing(g, 0.1, 1.0, 1e-14)
        assert x == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_root_past_the_double_range(self):
        g, calls = self.counted(lambda x: -1.0)
        assert sf._solve_increasing(g, 0.0, 1.0, 1e-14) == math.inf
        assert calls[-1] == sys.float_info.max
        assert len(calls) < 520

    def test_out_of_steps_raises(self):
        # a derivative a million times too steep: each Newton step moves
        # a millionth of the way and never leaves the bracket
        g, calls = self.counted(lambda x: x - 3.0)
        with pytest.raises(sf.SolverError, match=r"bracket \[.*last step"):
            sf._solve_increasing(g, 0.0, 10.0, 1e-14, lambda x: 1e6, 1.0)
        assert len(calls) == 201
        assert sf.SolverError is lsufdr.SolverError \
            is lsufdr.crossing.SolverError

    def test_far_t_tail_is_right_or_raises(self):
        # the tail's Newton steps crawl here: the root is 54.29, and 200
        # steps from the normal seed reach only 50.38
        q = 1e-300
        try:
            x = sf.t_isf(q, 1000.0)
        except sf.SolverError:
            return
        assert sf.t_sf(x, 1000.0) == pytest.approx(q, rel=1e-12)


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

    def test_erfcx_overflows_to_inf(self):
        # erfcx(x) = 2 exp(x^2) - erfcx(-x), and exp(27^2) tops the
        # double range
        assert sf.erfcx(-27.0) == math.inf

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


# First arguments (six each) and further arguments of every public
# function, for the array contract.
ARRAY_CASES = {
    "phi": ([-40.0, -1.5, 0.0, 2.0, 9.0, 1e3], ()),
    "Phi": ([-37.0, -8.0, -1.5, 0.0, 2.0, 9.0], ()),
    "norm_sf": ([-9.0, -2.0, 0.0, 1.5, 8.0, 37.0], ()),
    "norm_logsf": ([-40.0, -3.0, 0.5, 11.0, 13.0, 1e3], ()),
    "norm_isf_log": ([-0.7, -5.0, -50.0, -800.0, -1e4, -3e6], ()),
    "Phi_inv": ([1e-300, 1e-20, 0.01, 0.3, 0.5, 0.99], ()),
    "norm_isf": ([1e-300, 1e-20, 0.01, 0.3, 0.5, 0.99], ()),
    "erf": ([-5.0, -0.3, 0.0, 0.2, 1.0, 6.0], ()),
    "erfc": ([-5.0, -0.3, 0.0, 0.2, 4.5, 26.0], ()),
    "erfcx": ([-20.0, -0.3, 0.0, 0.2, 4.5, 1e4], ()),
    "t_pdf": ([-50.0, -2.0, 0.0, 0.5, 3.0, 1e10], (2.5,)),
    "t_cdf": ([-50.0, -2.0, 0.0, 0.5, 3.0, 1e10], (2.5,)),
    "t_sf": ([-50.0, -2.0, 0.0, 0.5, 3.0, 1e10], (2.5,)),
    "t_logsf": ([-50.0, -2.0, 0.0, 0.5, 3.0, 1e10], (2.5,)),
    "t_logpdf": ([-50.0, -2.0, 0.0, 0.5, 3.0, 1e10], (2.5,)),
    "t_quantile": ([1e-30, 0.1, 0.5, 0.8, 0.999, 1.0 - 1e-12], (2.5,)),
    "t_isf": ([1e-30, 0.1, 0.5, 0.8, 0.999, 1.0 - 1e-12], (2.5,)),
    "chi_cdf": ([0.0, 0.5, 1.5, 4.0, 30.0, 1e200], (3.0,)),
    "chi_quantile": ([1e-10, 0.2, 0.5, 0.9, 0.999, 1.0 - 1e-9], (3.0,)),
}

# Array paths that run a numpy kernel instead of the scalar code.
NUMPY_KERNELS = {"phi", "Phi", "norm_sf", "erfc", "Phi_inv", "norm_isf"}


class TestArrayContract:
    def test_every_public_function_has_a_case(self):
        assert set(ARRAY_CASES) == set(sf.__all__)

    @pytest.mark.parametrize("name", sorted(ARRAY_CASES))
    def test_array_matches_scalar_calls(self, name):
        f = getattr(sf, name)
        values, args = ARRAY_CASES[name]
        scalar = np.array([f(v, *args) for v in values]).reshape(2, 3)
        out = f(np.array(values).reshape(2, 3), *args)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.shape == (2, 3)
        zero_d = f(np.array(values[1]), *args)
        assert type(zero_d) is float
        if name in NUMPY_KERNELS:
            np.testing.assert_allclose(out, scalar, rtol=1e-13, atol=0.0)
            assert zero_d == pytest.approx(scalar[0, 1], rel=1e-13)
        else:
            np.testing.assert_array_equal(out, scalar)
            assert zero_d == scalar[0, 1]


def _clip(x, bound):
    # mpmath's erfc cannot take arguments near the double range; past
    # the bound every tail is far below 1e-300, so clipping moves no
    # compared value by more than that
    return min(max(float(x), -bound), bound)


def _mp_erfcx(mp, x):
    x = mp.mpf(x)
    if x < 50:
        return mp.exp(x * x) * mp.erfc(x)
    # asymptotic series; its terms are below 1e-28 relative by now
    total, term = mp.mpf(0), mp.mpf(1)
    for k in range(12):
        total += term
        term *= -(2 * k + 1) / (2 * x * x)
    return total / (x * mp.sqrt(mp.pi))


def _mp_root(mp, log_tail, log_target, x):
    # solve log_tail(t) = log_target near the double x
    return mp.findroot(lambda t: log_tail(t) - log_target, mp.mpf(x))


def worst_rel_error(f, xs, ref, *args):
    """Worst relative error of f on xs against ref, scalar and array.

    Only references of magnitude at least 1e-300 are compared, and
    past the double range the result must be an infinity of the same
    sign.
    """
    worst = 0.0
    from_array = np.asarray(f(np.array(xs, dtype=np.float64), *args))
    for x, y in zip(xs, from_array):
        r = ref(float(x))
        if abs(r) < 1e-300:
            continue
        for got in (f(float(x), *args), float(y)):
            if abs(r) > sys.float_info.max:
                assert got == math.copysign(math.inf, r), (x, got)
            else:
                worst = max(worst, float(abs(got / r - 1)))
    return worst


class TestMpmathOracle:
    """The normal, erfc and chi functions against mpmath at 40 digits.

    Each tolerance is the worst error measured on its grid, rounded up.
    """

    # step 0.05, so Cody's worst point near 23.6 is on the grid
    X = np.concatenate([np.linspace(-38.0, 38.0, 1521),
                        [-1e300, -1e10, 1e3, 1e10, 1e150, 1e299]])
    P = np.concatenate([[5e-324, 1e-310, 1e-300, 1e-250, 1e-200, 1e-100,
                         1e-50, 1e-20, 1e-10, 1e-5, 1e-3, 0.02, 0.0242,
                         0.0243],
                        np.linspace(0.03, 0.97, 95),
                        [0.9757, 0.98, 0.999, 1.0 - 1e-5, 1.0 - 1e-10,
                         1.0 - 1e-15]])

    def test_normal_cdf_and_tail(self, mp):
        def ncdf(x):
            return mp.ncdf(_clip(x, 40.0))

        assert worst_rel_error(sf.Phi, self.X, ncdf) < 3e-13
        assert worst_rel_error(sf.norm_sf, self.X, lambda x: ncdf(-x)) < 3e-13

    def test_erfc_family(self, mp):
        assert worst_rel_error(
            sf.erfc, self.X, lambda x: mp.erfc(_clip(x, 30.0))) < 6e-14
        xs = self.X[self.X > -26.0]
        # below 0.47, and through 2 exp(x^2) - erfcx(-x) for x < 0,
        # rounding x^2 in exp(x^2) costs up to 6e-14; Cody's rationals
        # take over above
        for part, bound in ((xs < 0.47, 6e-14), (xs >= 0.47, 5e-16)):
            assert worst_rel_error(
                sf.erfcx, xs[part], lambda x: _mp_erfcx(mp, x)) < bound

    def test_norm_logsf(self, mp):
        def ref(x):
            if x < 0.0:
                return mp.log1p(-mp.ncdf(_clip(x, 40.0)))
            if x > 30.0:
                return mp.log(_mp_erfcx(mp, x / mp.sqrt(2)) / 2) - x * x / 2
            return mp.log(mp.ncdf(-x))

        xs = np.concatenate([self.X, [-math.inf, math.inf]])
        assert worst_rel_error(sf.norm_logsf, xs, ref) < 3e-13

    def test_normal_quantile(self, mp):
        def ref(p):
            if p < 0.5:
                return _mp_root(mp, lambda t: mp.log(mp.ncdf(t)),
                                mp.log(p), sf.Phi_inv(p))
            # 1 - p is exact at 40 digits
            return _mp_root(mp, lambda t: mp.log(mp.ncdf(-t)),
                            mp.log(1 - mp.mpf(p)), sf.Phi_inv(p))

        ps = self.P[self.P != 0.5]
        assert worst_rel_error(sf.Phi_inv, ps, ref) < 1e-14
        assert worst_rel_error(sf.norm_isf, ps, lambda q: -ref(q)) < 1e-14

    def test_norm_isf_log(self, mp):
        def ref(lq):
            return _mp_root(mp, lambda t: mp.log(mp.ncdf(-t)), lq,
                            sf.norm_isf_log(lq))

        lqs = [-0.6932, -0.694, -0.7, -1.0, -5.0, -50.0, -300.0, -699.0,
               -701.0, -1e3, -1e4, -3e6, -1e10]
        assert worst_rel_error(sf.norm_isf_log, lqs, ref) < 3e-15

    # the exponent of the series prefactor grows like nu log nu, and
    # with it the rounding error
    @pytest.mark.parametrize("nu, rtol", [(0.5, 5e-14), (1.0, 5e-14),
                                          (3.0, 5e-14), (40.0, 5e-14),
                                          (1e4, 1e-11)])
    def test_chi_cdf(self, mp, nu, rtol):
        def ref(x):
            return mp.gammainc(nu / 2, 0, mp.mpf(x) ** 2 / 2,
                               regularized=True)

        xs = np.concatenate([math.sqrt(nu) * np.linspace(0.02, 4.0, 60),
                             [1e-150, 1e-10, 1e-3, 1e3, 1e200, math.inf]])
        assert worst_rel_error(sf.chi_cdf, xs, ref, nu) < rtol

    @staticmethod
    def mp_chi_quantile(mp, p, nu):
        # solved for log x, since x spans hundreds of decades
        a = mp.mpf(nu) / 2
        if p < 0.5:
            def log_mass(s):
                return mp.log(mp.gammainc(a, 0, mp.exp(2 * s) / 2,
                                          regularized=True))
            target = mp.log(p)
        else:
            def log_mass(s):
                return mp.log(mp.gammainc(a, mp.exp(2 * s) / 2, mp.inf,
                                          regularized=True))
            target = mp.log(1 - mp.mpf(p))
        seed = math.log(sf.chi_quantile(p, nu))
        return mp.exp(_mp_root(mp, log_mass, target, seed))

    @pytest.mark.parametrize("nu", [0.5, 1.0, 3.0, 40.0, 1e4])
    def test_chi_quantile(self, mp, nu):
        def ref(p):
            return self.mp_chi_quantile(mp, p, nu)

        ps = [1e-20, 1e-8, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999]
        assert worst_rel_error(sf.chi_quantile, ps, ref, nu) < 5e-14
        # near p = 1 the solve in cdf space inherits the 1e-16 absolute
        # error of the cdf, divided by the small tail mass
        ps = [1.0 - 1e-8, 1.0 - 1e-12]
        assert worst_rel_error(sf.chi_quantile, ps, ref, nu) < 1e-6

    def test_chi_quantile_far_lower_tail(self, mp):
        ref = self.mp_chi_quantile(mp, 1e-100, 0.5)
        assert abs(sf.chi_quantile(1e-100, 0.5) / ref - 1) < 5e-14

    @pytest.mark.parametrize("nu", [2.0, 3.0, 10.0])
    def test_chi_quantile_far_below_seed(self, mp, nu):
        # far below the clamped Wilson-Hilferty seed; the reference is
        # solved from the power law x^nu / (a Gamma(a) 2^a), a = nu/2
        a = mp.mpf(nu) / 2

        def log_mass(s):
            return mp.log(mp.gammainc(a, 0, mp.exp(2 * s) / 2,
                                      regularized=True))

        for p in (1e-20, 1e-50, 1e-100, 1e-200, 1e-300):
            seed = (mp.log(p) + mp.log(a) + mp.loggamma(a)
                    + a * mp.log(2)) / nu
            ref = mp.exp(_mp_root(mp, log_mass, mp.log(p), seed))
            assert abs(sf.chi_quantile(p, nu) / ref - 1) < 5e-14, p

    def test_chi_cdf_below_square_underflow(self, mp):
        # x*x/2 underflows below x = 1.5e-162; the cdf must not
        for nu in (0.5, 1.0, 3.0):
            xs = [1e-161, 1e-170, 1e-250, 1e-300, 5e-324]
            assert worst_rel_error(
                sf.chi_cdf, xs,
                lambda x: mp.gammainc(nu / 2, 0, mp.mpf(x) ** 2 / 2,
                                      regularized=True), nu) < 5e-14

    @pytest.mark.parametrize("p, nu", [(1e-150, 0.5), (1e-300, 1.0)])
    def test_chi_quantile_below_square_underflow(self, mp, p, nu):
        ref = self.mp_chi_quantile(mp, p, nu)
        assert abs(sf.chi_quantile(p, nu) / ref - 1) < 5e-14

    @pytest.mark.parametrize("p, nu", [(1e-300, 0.5), (1e-300, 0.1),
                                       (1e-200, 0.3)])
    def test_chi_quantile_below_double_range(self, mp, p, nu):
        # the cdf at the smallest subnormal double already exceeds p, so
        # the quantile rounds to 0; the solver once took log(0) here
        tiny = mp.mpf(5e-324)
        assert mp.gammainc(mp.mpf(nu) / 2, 0, tiny * tiny / 2,
                           regularized=True) > p
        assert sf.chi_quantile(p, nu) == 0.0
