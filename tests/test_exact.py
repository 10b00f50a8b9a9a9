import math

import numpy as np
import pytest

from lsufdr.exact import (
    BoundarySpec,
    LinearNullSpec,
    boundary_noncrossing_prob,
    exact_fdr_linear,
    restricted_fdr_check,
)
from lsufdr.models import ExtremeConfig, ModelSpec, gamma_at_zero
from lsufdr.montecarlo import SimulationPlan, run


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

    def test_requires_full_range(self):
        spec = LinearNullSpec(gamma=1.0, n0=5, n=5, t_star=0.05)
        with pytest.raises(ValueError):
            exact_fdr_linear(spec, 0.1)

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

    def test_sub_linear_slope(self):
        spec = LinearNullSpec(gamma=0.5, n0=12, n=12, t_star=0.125)
        lhs, rhs = restricted_fdr_check(spec, alpha=0.25, replicates=400000)
        se = math.sqrt(max(lhs * (1.0 - lhs), 1e-6) / 400000)
        assert abs(lhs - rhs) < 3 * se
