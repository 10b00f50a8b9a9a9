import math

import numpy as np
import pytest

from lsufdr import exact
from lsufdr.exact import (
    BoundarySpec,
    _linear_null_quantile,
    _uniform_cuts,
    LinearNullSpec,
    boundary_noncrossing_prob,
    exact_fdr_linear,
    restricted_fdr_check,
)
from lsufdr.models import ExtremeConfig, ModelSpec, gamma_at_zero
from lsufdr.montecarlo import SimulationPlan, run
from lsufdr.stepup import _critical, _stepup_count


class TestExactFdrLinear:
    def test_uniform_all_null(self):
        spec = LinearNullSpec(gamma=1.0, n0=8, n=8, t_star=0.1)
        assert exact_fdr_linear(spec, 0.1) == pytest.approx(0.1)

    def test_no_true_nulls(self):
        spec = LinearNullSpec(gamma=1.0, n0=0, n=12, t_star=0.1)
        assert exact_fdr_linear(spec, 0.1) == 0.0

    def test_general_slope(self):
        spec = LinearNullSpec(gamma=0.6, n0=3, n=10, t_star=0.2)
        assert exact_fdr_linear(spec, 0.2) \
            == pytest.approx(0.3 * 0.6 * 0.2, rel=1e-12)

    def test_nan_slope_rejected(self):
        with pytest.raises(ValueError):
            LinearNullSpec(gamma=math.nan, n0=5, n=10, t_star=0.1)

    def test_t_star_rejected(self):
        with pytest.raises(ValueError, match="t_star"):
            LinearNullSpec(1.0, 5, 10, 0.0)

    def test_requires_full_range(self):
        spec = LinearNullSpec(gamma=1.0, n0=5, n=5, t_star=0.05)
        with pytest.raises(ValueError):
            exact_fdr_linear(spec, 0.1)
        # at a tiny alpha, t_star = alpha/10 lies within 1e-12 of alpha,
        # but the null cdf is linear on only a tenth of [0, alpha]
        spec = LinearNullSpec(gamma=5.0, n0=5, n=10, t_star=1e-13)
        with pytest.raises(ValueError):
            exact_fdr_linear(spec, 1e-12)
        spec = LinearNullSpec(gamma=5.0, n0=5, n=10, t_star=1e-12)
        assert exact_fdr_linear(spec, 1e-12) == 0.5 * 5.0 * 1e-12

    def test_slope_cap(self):
        with pytest.raises(ValueError):
            exact_fdr_linear(LinearNullSpec(gamma=30.0, n0=2, n=4,
                                            t_star=0.1), 0.1)

    def test_exponential_model_attains_bound(self):
        # simulated unconditional FDR equals zeta_n * alpha although
        # the statistics are dependent
        plan = SimulationPlan(model=ModelSpec.exponential(),
                              config=ExtremeConfig(n=200, zeta=0.5, seed=55),
                              alpha=0.1, replicates=30000)
        s = run(plan, workers=1)
        target = 0.5 * 0.1
        assert abs(s.fdr_hat - target) < 3 * s.standard_errors["fdr_hat"]

    def test_conditional_bh_exactness(self):
        # given the disturbance, the conditional FDR is
        # zeta_n * gamma(z) * alpha for the linear-at-zero null cdf
        model = ModelSpec.exponential()
        z = 0.9
        gamma = gamma_at_zero(model, z)
        plan = SimulationPlan(model=model,
                              config=ExtremeConfig(n=100, zeta=0.5, seed=56),
                              alpha=0.1, replicates=30000, conditional_z=z)
        s = run(plan, workers=1)
        target = 0.5 * gamma * 0.1
        assert abs(s.fdr_hat - target) < 3 * s.standard_errors["fdr_hat"]


class TestBoundaryNoncrossing:
    def test_single_bound_closed_form(self):
        for m, b in ((1, 0.3), (4, 0.6), (25, 0.95)):
            spec = BoundarySpec(m=m, lower_bounds=[b])
            got = boundary_noncrossing_prob(spec, lambda t: t)
            assert got == pytest.approx(1.0 - b ** m, abs=1e-13)

    def test_zero_bounds_vacuous(self):
        spec = BoundarySpec(m=6, lower_bounds=[0.0, 0.0, 0.0])
        assert boundary_noncrossing_prob(spec, lambda t: t) == 1.0

    def test_empty_bounds(self):
        spec = BoundarySpec(m=4, lower_bounds=[])
        assert boundary_noncrossing_prob(spec, lambda t: t) == 1.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec(m=3, lower_bounds=[0.4, 0.2])

    def test_shape_rejected(self):
        with pytest.raises(ValueError, match="m must"):
            BoundarySpec(0, [])
        with pytest.raises(ValueError, match="more bounds"):
            BoundarySpec(1, [0.1, 0.2])

    @pytest.mark.parametrize("m", [2.5, True, 0, "3"])
    def test_m_checked(self, m):
        with pytest.raises(ValueError, match="^m must"):
            BoundarySpec(m=m, lower_bounds=[0.5])

    def test_integral_float_m(self):
        spec = BoundarySpec(m=3.0, lower_bounds=[0.2, 0.3])
        assert spec.m == 3 and type(spec.m) is int
        assert boundary_noncrossing_prob(spec, lambda t: t) \
            == boundary_noncrossing_prob(BoundarySpec(3, [0.2, 0.3]),
                                         lambda t: t)

    def test_out_of_range_rejected(self):
        for bounds in ([-0.1, 0.2], [math.nan]):
            with pytest.raises(ValueError):
                BoundarySpec(m=3, lower_bounds=bounds)

    def test_nan_cdf_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            boundary_noncrossing_prob(BoundarySpec(m=3, lower_bounds=[0.5]),
                                      lambda t: math.nan)

    def test_three_uniforms_vs_monte_carlo(self):
        # bounds (2 alpha/3, alpha) on the top two of three order
        # statistics at alpha = 0.3
        spec = BoundarySpec(m=3, lower_bounds=[0.2, 0.3])
        dp = boundary_noncrossing_prob(spec, lambda t: t)
        rng = np.random.default_rng(5)
        u = rng.random((10 ** 7, 3))
        u.sort(axis=1)
        hits = (u[:, 1] > 0.2) & (u[:, 2] > 0.3)
        mc = float(hits.mean())
        se = math.sqrt(mc * (1.0 - mc) / u.shape[0])
        assert abs(dp - mc) < 3 * se

    def test_two_blocks_vs_monte_carlo(self):
        spec = BoundarySpec(m=6, lower_bounds=[0.1, 0.1, 0.5, 0.8])
        dp = boundary_noncrossing_prob(spec, lambda t: t)
        rng = np.random.default_rng(6)
        u = rng.random((2 * 10 ** 6, 6))
        u.sort(axis=1)
        hits = ((u[:, 2] > 0.1) & (u[:, 3] > 0.1)
                & (u[:, 4] > 0.5) & (u[:, 5] > 0.8))
        mc = float(hits.mean())
        se = math.sqrt(mc * (1.0 - mc) / u.shape[0])
        assert abs(dp - mc) < 3 * se

    def test_nonuniform_null_cdf(self):
        # square-root cdf: transform to uniforms via F
        spec = BoundarySpec(m=4, lower_bounds=[0.25, 0.64])
        dp = boundary_noncrossing_prob(spec, lambda t: math.sqrt(t))
        rng = np.random.default_rng(7)
        x = rng.random((2 * 10 ** 6, 4)) ** 2  # quantile of sqrt cdf
        x.sort(axis=1)
        hits = (x[:, 2] > 0.25) & (x[:, 3] > 0.64)
        mc = float(hits.mean())
        se = math.sqrt(mc * (1.0 - mc) / x.shape[0])
        assert abs(dp - mc) < 3 * se

    def test_monotone_in_bounds(self):
        base = boundary_noncrossing_prob(
            BoundarySpec(m=5, lower_bounds=[0.2, 0.4]), lambda t: t)
        tighter = boundary_noncrossing_prob(
            BoundarySpec(m=5, lower_bounds=[0.3, 0.4]), lambda t: t)
        assert tighter <= base

    @pytest.mark.parametrize("m", [1, 20, 200])
    @pytest.mark.parametrize("c", [0.3, 0.9])
    def test_daniels_linear_bounds(self, m, c):
        # Daniels (1945): P(U_(j) > c*j/m for every j) = 1 - c
        spec = BoundarySpec(m=m, lower_bounds=[c * j / m
                                               for j in range(1, m + 1)])
        got = boundary_noncrossing_prob(spec, lambda t: t)
        assert abs(got - (1.0 - c)) < 1e-11

    def test_levels_at_zero_and_one(self):
        def cdf(t):
            return min(max(2.0 * t - 0.2, 0.0), 1.0)

        # levels (0, 0, 0.5): only the maximum is constrained in effect
        spec = BoundarySpec(m=5, lower_bounds=[0.05, 0.1, 0.35])
        assert boundary_noncrossing_prob(spec, cdf) \
            == pytest.approx(1.0 - 0.5 ** 5, abs=1e-15)
        # levels (0, 0.5, 1): every draw lies below the last bound
        spec = BoundarySpec(m=5, lower_bounds=[0.05, 0.35, 0.6])
        assert boundary_noncrossing_prob(spec, cdf) == 0.0

    def test_exactness_window(self):
        with pytest.raises(ValueError):
            boundary_noncrossing_prob(
                BoundarySpec(m=201, lower_bounds=[0.5]), lambda t: t)


class TestRestrictedIdentity:
    def test_full_range_reduces_to_exact(self):
        spec = LinearNullSpec(gamma=1.0, n0=10, n=10, t_star=0.2)
        lhs, rhs = restricted_fdr_check(spec, alpha=0.2, replicates=150000)
        assert rhs == pytest.approx(0.2, rel=1e-12)
        assert abs(lhs - rhs) < 0.004

    def test_half_range_agreement(self):
        spec = LinearNullSpec(gamma=1.0, n0=10, n=10, t_star=0.1)
        lhs, rhs = restricted_fdr_check(spec, alpha=0.2, replicates=400000)
        se = math.sqrt(max(lhs * (1.0 - lhs), 1e-6) / 400000)
        assert abs(lhs - rhs) < 3 * se

    def test_no_true_nulls(self):
        spec = LinearNullSpec(gamma=1.0, n0=0, n=6, t_star=0.1)
        lhs, rhs = restricted_fdr_check(spec, alpha=0.2, replicates=20000)
        assert lhs == 0.0 and rhs == 0.0

    def test_with_planted_zeros(self):
        spec = LinearNullSpec(gamma=1.0, n0=6, n=8, t_star=0.15)
        lhs, rhs = restricted_fdr_check(spec, alpha=0.3, replicates=400000)
        se = math.sqrt(max(lhs * (1.0 - lhs), 1e-6) / 400000)
        assert abs(lhs - rhs) < 3 * se

    @pytest.mark.parametrize("replicates", [0, -5])
    def test_replicates_must_be_positive(self, replicates):
        spec = LinearNullSpec(gamma=1.0, n0=10, n=10, t_star=0.1)
        with pytest.raises(ValueError, match="replicates"):
            restricted_fdr_check(spec, alpha=0.2, replicates=replicates)

    def test_integral_float_replicates(self):
        spec = LinearNullSpec(gamma=1.0, n0=10, n=10, t_star=0.1)
        assert restricted_fdr_check(spec, 0.2, 30001.0) \
            == restricted_fdr_check(spec, 0.2, 30001)

    def test_fractional_replicates_rejected(self):
        spec = LinearNullSpec(gamma=1.0, n0=10, n=10, t_star=0.1)
        with pytest.raises(ValueError, match="replicates"):
            restricted_fdr_check(spec, alpha=0.2, replicates=2.5)

    @pytest.mark.parametrize("seed", [2.5, -1])
    def test_seed_checked(self, seed):
        spec = LinearNullSpec(gamma=1.0, n0=10, n=10, t_star=0.1)
        with pytest.raises(ValueError, match="seed"):
            restricted_fdr_check(spec, alpha=0.2, replicates=100, seed=seed)

    @pytest.mark.parametrize("n0,n", [(10.5, 11), (3, 7.5), (-1, 5),
                                      (5, 0), (6, 5), (True, 3),
                                      (np.True_, 3), (1, True)])
    def test_counts_checked(self, n0, n):
        with pytest.raises(ValueError, match="n"):
            LinearNullSpec(gamma=1.0, n0=n0, n=n, t_star=0.1)

    def test_integral_float_counts(self):
        spec = LinearNullSpec(gamma=1.0, n0=4.0, n=6.0, t_star=0.1)
        assert (spec.n0, spec.n) == (4, 6)
        assert type(spec.n0) is int and type(spec.n) is int

    def test_sub_linear_slope(self):
        spec = LinearNullSpec(gamma=0.5, n0=12, n=12, t_star=0.125)
        lhs, rhs = restricted_fdr_check(spec, alpha=0.25, replicates=400000)
        se = math.sqrt(max(lhs * (1.0 - lhs), 1e-6) / 400000)
        assert abs(lhs - rhs) < 3 * se

    def test_r_counts_a_critical_value_at_t_star(self, monkeypatch):
        # at this n, n*t_star/alpha for t_star = c_k rounds below k by more
        # than 1e-12; r still counts c_k, so the bounds start above t_star
        n, alpha, k = 18_769, 0.34045096029451377, 18_621
        t_star = float(_critical(alpha, n)[k - 1])
        assert n * t_star / alpha + 1e-12 < k
        bounds = []
        bnp = exact.boundary_noncrossing_prob

        def spy(spec, null_cdf):
            bounds.append(spec.lower_bounds)
            return bnp(spec, null_cdf)

        monkeypatch.setattr(exact, "boundary_noncrossing_prob", spy)
        # n - n0 < k, so the exact side runs its recursion, at m = 200
        spec = LinearNullSpec(gamma=1.0, n0=201, n=n, t_star=t_star)
        lhs, rhs = restricted_fdr_check(spec, alpha, replicates=2000)
        assert len(bounds) == 1 and len(bounds[0]) == n - k
        assert bounds[0][0] > t_star
        assert 0.0 < rhs < spec.n0 / n * alpha

    def test_t_star_at_alpha_counts_every_rank(self):
        # n*alpha/alpha rounds below n here: r is still n, so the exact
        # side is the closed form, past the recursion's window of m <= 200
        n, alpha = 58_631, 0.021995829512441875
        assert n * alpha / alpha + 1e-12 < n
        spec = LinearNullSpec(gamma=1.0, n0=300, n=n, t_star=1.0)
        assert restricted_fdr_check(spec, alpha, replicates=20)[1] \
            == spec.n0 / n * alpha

    def test_null_cdf_asked_only_above_t_star(self, monkeypatch):
        # the exact side's null cdf is affine, which holds above t_star
        # only; every bound (j+1)*alpha/n, j >= r, lies there, as r counts
        # the critical values at or below t_star
        asked, t_top = [], [0.0]
        bnp = exact.boundary_noncrossing_prob

        def spy(spec, null_cdf):
            def cdf(t):
                asked.append(t > t_top[0])
                return null_cdf(t)
            return bnp(spec, cdf)

        monkeypatch.setattr(exact, "boundary_noncrossing_prob", spy)
        rng = np.random.default_rng(27)
        cases = [(LinearNullSpec(1.0, 10, 10, 0.1), 0.2)]  # the benchmark's
        while len(cases) < 400:
            n = int(rng.integers(2, 151))
            alpha = float(rng.uniform(0.01, 0.5))
            # n*t_star/alpha within 1e-12 of an integer, or anywhere
            near = rng.random() < 0.5
            t_star = (int(rng.integers(1, n + 1)) + float(rng.choice(
                [-9e-13, -5e-13, 0.0, 5e-13, 9e-13]))) * alpha / n \
                if near else float(rng.uniform(1e-3, 1.0))
            unit = rng.random() < 0.5  # gamma*t_star = 1
            gamma = 1.0 / t_star if unit \
                else float(rng.uniform(0.0, 1.0 / t_star))
            if unit and gamma * t_star != 1.0:
                continue
            cases.append((LinearNullSpec(gamma, int(rng.integers(1, n + 1)),
                                         n, t_star), alpha))
        reached = {"near": 0, "unit": 0}
        for spec, alpha in cases:
            t_top[0] = min(spec.t_star, alpha)
            before = len(asked)
            restricted_fdr_check(spec, alpha, replicates=1)
            if len(asked) > before:
                x = spec.n * t_top[0] / alpha
                reached["near"] += abs(x - round(x)) <= 1e-12
                reached["unit"] += spec.gamma * t_top[0] == 1.0
        assert all(asked)
        assert len(asked) > 1000
        assert min(reached.values()) >= 30

    @pytest.mark.parametrize("gamma,t_star", [(1.0, 0.1), (0.5, 0.125),
                                              (30.0, 0.03), (0.0, 0.2),
                                              (20.0, 0.05)])
    def test_quantile_is_the_two_branch_formula(self, gamma, t_star):
        # bit for bit: the head branch u/gamma up to gamma*t_star, the
        # linear spread of the remaining mass above it
        u = np.random.default_rng(5).random((400, 7))
        u[0, :3] = 0.0, gamma * t_star, min(gamma * t_star, 1.0)
        head = gamma * t_star
        expect = u / gamma if head >= 1.0 else np.where(
            u <= head, u / max(gamma, 1e-300),
            t_star + (u - head) * (1.0 - t_star) / (1.0 - head))
        assert np.array_equal(_linear_null_quantile(u, gamma, t_star),
                              expect)


def reference_lhs(spec, alpha, replicates, seed):
    """The Monte Carlo side of `restricted_fdr_check` on p-values: the
    quantile of each uniform, the zeros, the step-up on the sorted copy
    and the count of nulls at or below its threshold."""
    n, n0 = spec.n, spec.n0
    t_star = min(spec.t_star, alpha)
    r = min(int(math.floor(n * t_star / alpha + 1e-12)), n)
    rng = exact.make_rng(seed, 811)
    chunk = max(1, min(200_000 // n, replicates))
    sums, done = [], 0
    while done < replicates:
        b = min(chunk, replicates - done)
        nulls = _linear_null_quantile(rng.random((b, n0)), spec.gamma, t_star)
        m = _stepup_count(np.concatenate([nulls, np.zeros((b, n - n0))],
                                         axis=1), alpha)
        v = (nulls <= (m * alpha / n)[:, None]).sum(axis=1)
        fdp = np.where((m > 0) & (m <= r), v / np.maximum(m, 1), 0.0)
        sums.append(float(fdp.sum()))
        done += b
    return math.fsum(sums) / replicates


def ulps_around(x, k=4):
    """The doubles within k ulps of x, inside [0, 1)."""
    bits = np.float64(x).view(np.int64) + np.arange(-k, k + 1)
    u = bits.view(np.float64)
    return u[(u >= 0.0) & (u < 1.0)]


class TestRestrictedBits:
    """The Monte Carlo side runs on sorted uniforms against per-rank
    thresholds; its (lhs, rhs) keep the bits of the p-value route."""

    # ((gamma, n0, n, t_star), alpha, replicates, seed, lhs, rhs), recorded
    # on the p-value route (`reference_lhs`)
    PINNED = [
        # the benchmark's spec
        ((1.0, 10, 10, 0.1), 0.2, 10 ** 6, 11,
         "0x1.9843c3a42f1edp-3", "0x1.98b76ec9c6120p-3"),
        # n1 > 0
        ((1.0, 6, 8, 0.15), 0.3, 30_000, 5,
         "0x1.5d008028c7282p-3", "0x1.5cafa4c404a76p-3"),
        # gamma = 0
        ((0.0, 5, 7, 0.2), 0.25, 20_000, 7, "0x0.0p+0", "0x0.0p+0"),
        # gamma * t_star = 1, and with n = 1
        ((5.0, 6, 8, 0.2), 0.2, 20_000, 3,
         "0x1.8000000000000p-1", "0x1.8000000000000p-1"),
        ((5.0, 1, 1, 0.2), 0.2, 5_000, 4,
         "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        # n = 1
        ((1.0, 1, 1, 0.2), 0.2, 5_000, 4,
         "0x1.9eecbfb15b574p-3", "0x1.999999999999ap-3"),
        # a non-monotone seam at head = 0.08, without and with zeros
        ((0.4, 10, 10, 0.2), 0.2, 30_000, 2,
         "0x1.4c2f837b4a234p-4", "0x1.47ae147ae147cp-4"),
        ((0.4, 8, 10, 0.2), 0.2, 30_000, 2,
         "0x1.06b9feabcb9b9p-4", "0x1.0624dd2f1a9fdp-4"),
        # replicate counts that are no multiple of the chunk (20,000 and
        # 1,333 rows)
        ((1.0, 10, 10, 0.1), 0.2, 50_001, 11,
         "0x1.955f7dbff3388p-3", "0x1.98b76ec9c6120p-3"),
        ((1.0, 140, 150, 0.05), 0.1, 3_001, 9,
         "0x1.760f4feafd540p-4", "0x1.7e4b17e4b17e5p-4"),
        # no true nulls
        ((1.0, 0, 6, 0.1), 0.2, 1_000, 1, "0x0.0p+0", "0x0.0p+0"),
    ]

    @pytest.mark.parametrize("case", PINNED, ids=lambda c: str(c[:4]))
    def test_pinned(self, case):
        shape, alpha, reps, seed, lhs, rhs = case
        out = restricted_fdr_check(LinearNullSpec(*shape), alpha, reps, seed)
        assert (out[0].hex(), out[1].hex()) == (lhs, rhs)

    @pytest.mark.parametrize("gamma,t_star,alpha,n,seam", [
        (1.0, 0.1, 0.2, 10, False),
        # u/gamma tops t_star by an ulp at head = 0.08, where Q is capped
        (0.4, 0.2, 0.3, 10, False),
        (0.4, 0.2, 0.2, 10, False),  # c_10 = 0.2 = Q(head)
        (5.0, 0.2, 0.2, 8, False),  # gamma * t_star = 1
        (0.0, 0.2, 0.25, 7, False),
    ])
    def test_thresholds(self, gamma, t_star, alpha, n, seam):
        def q(u):
            return _linear_null_quantile(np.asarray(u, float), gamma, t_star)

        crit = _critical(alpha, n)
        cuts = _uniform_cuts(crit, gamma, t_star)
        head = gamma * t_star
        assert np.all(q(cuts) <= crit)
        inner = cuts < np.nextafter(1.0, 0.0)  # else U_k is the top draw
        assert np.all(crit[inner] < q(np.nextafter(cuts[inner], 1.0)))
        assert inner.any()
        # Q does not step down at head
        step = q([head, np.nextafter(head, 1.0)])
        assert (head < 1.0 and step[0] > step[1]) == seam
        near = np.concatenate([ulps_around(x) for x in (*cuts, head)])
        for c, cut in zip(crit, cuts):
            assert np.array_equal(q(near) <= c, near <= cut)

    def test_quantile_nondecreasing_at_head(self):
        # u/gamma alone tops t_star by an ulp at u = head on 133 of these
        # pairs; the cap keeps Q nondecreasing across the branch change
        rng = np.random.default_rng(22)
        pairs = [(g, t) for g, t in zip(rng.uniform(0.0, 1.5, 2500),
                                        rng.uniform(0.0, 1.0, 2500))
                 if 0.0 < g * t < 1.0]
        assert len(pairs) >= 2000
        for gamma, t_star in pairs:
            head = gamma * t_star
            prev, at, nxt = _linear_null_quantile(
                np.array([np.nextafter(head, 0.0), head,
                          np.nextafter(head, 1.0)]), gamma, t_star)
            assert prev <= at <= t_star <= nxt, (gamma, t_star)

    def test_seam_rows_step_up_on_pvalues(self, monkeypatch):
        # rows holding u = head, where u/gamma = 0.2 + ulp but Q is capped
        # at t_star = 0.2 = c_10, reject 10 on both routes
        spec, alpha = LinearNullSpec(0.4, 8, 10, 0.2), 0.2
        head = spec.gamma * spec.t_star
        q_head = _linear_null_quantile(np.array([head]), 0.4, 0.2)[0]
        assert q_head == 0.2 >= _linear_null_quantile(
            np.array([np.nextafter(head, 1.0)]), 0.4, 0.2)[0]
        # nulls at 0.9 of their ranks' critical values, the largest at head
        row = np.append(0.4 * 0.9 * _critical(alpha, 10)[2:9], head)
        make_rng = exact.make_rng

        class Planted:
            def __init__(self, *key):
                self.rng = make_rng(*key)

            def random(self, size):
                u = self.rng.random(size)
                u[::3] = self.rng.permuted(np.tile(row, (u[::3].shape[0], 1)),
                                           axis=1)
                return u

        monkeypatch.setattr(exact, "make_rng", Planted)
        reps = 20_000 + 7  # two chunks
        lhs = restricted_fdr_check(spec, alpha, reps, seed=3)[0]
        assert lhs == reference_lhs(spec, alpha, reps, seed=3)
