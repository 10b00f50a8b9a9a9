import json
import math

import pytest

from lsufdr import quadrature
from lsufdr.cli import main
from lsufdr.quadrature import QuadratureError, integrate


class TestIntegrate:
    def test_polynomial_exact(self):
        val, err = integrate(lambda x: 3.0 * x * x, 0.0, 2.0)
        assert val == pytest.approx(8.0, abs=1e-12)
        assert err < 1e-10

    def test_gaussian_mass(self):
        val, _ = integrate(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            -9.0, 9.0, tol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_sqrt_endpoint_singularity(self):
        # unbounded derivative at zero, the shape the EER/FDR
        # integrands have at interval ends
        val, err = integrate(lambda x: math.sqrt(x), 0.0, 1.0, tol=1e-10)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_interior_kink_with_split(self):
        f = lambda x: abs(x - 0.3)
        exact = 0.5 * (0.3 ** 2 + 0.7 ** 2)
        val, err = integrate(f, 0.0, 1.0, tol=1e-12, points=[0.3])
        assert val == pytest.approx(exact, abs=1e-12)

    def test_empty_interval(self):
        assert integrate(lambda x: 1.0, 2.0, 2.0) == (0.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: 1.0, 1.0, 0.0)

    def test_error_estimate_honest(self):
        for tol in (1e-6, 1e-9):
            val, err = integrate(lambda x: math.sin(7 * x) ** 2, 0.0, 3.0,
                                 tol=tol)
            exact = 1.5 - math.sin(42.0) / 28.0
            assert err <= tol
            assert abs(val - exact) <= max(10 * err, 1e-13)

    def test_points_outside_ignored(self):
        val, _ = integrate(lambda x: x, 0.0, 1.0, points=[-1.0, 2.0, 0.5])
        assert val == pytest.approx(0.5, abs=1e-13)

    def test_boundary_layer_meets_global_tolerance(self):
        # climbs from 0 with unbounded slope, like the studentized weight
        # at t_lower; a tolerance halved at each level of subdivision
        # would refine the panels at 0 to the depth limit (1455 calls)
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / math.sqrt(1.0 - math.log(x))

        tol = 1e-10
        val, err = integrate(f, 0.0, 1.0, tol=tol)
        exact = math.e * math.sqrt(math.pi) * math.erfc(1.0)
        assert err <= tol
        assert abs(val - exact) <= tol
        assert len(calls) < 1000

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureError, match="budget"):
            integrate(lambda x: math.sin(1e6 * x), 0.0, 1.0, tol=1e-12)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: math.inf, 0.0, 1.0)


def test_curve_records_quadrature_error(tmp_path, monkeypatch, capsys):
    # the two starting panels spend a budget of 15 evaluations, so the
    # first limit integral that needs a split fails
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 15)
    out = tmp_path / "curve.json"
    code = main(["curve", "--model", "normal", "--alpha", "0.05",
                 "--zeta", "0.5", "--rho-grid", "0.5:0.5:1",
                 "--format", "json", "--out", str(out)])
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert code == 2
    assert len(rows) == 1
    assert rows[0]["status"].startswith("error: ")
    assert "budget" in rows[0]["status"]
