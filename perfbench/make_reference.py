"""Write reference.json: the outputs the benchmark's checks compare against.

    python3 perfbench/make_reference.py

The committed file was written at commit 81b187b, before any change to
the numerics.  Regenerating it from a later commit turns the checks into
self-comparisons; do so only when a value is shown to be wrong there.
"""

from __future__ import annotations

import json
import sys

import run as bench


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    pkg = bench.fresh_import()
    asym = pkg.asymptotics
    grid = {}
    for zeta, rho in bench.FULL.normal_grid:
        res = asym.eer_fdr_normal(bench.ALPHA, zeta, rho)
        grid[f"normal({zeta},{rho})"] = {"eer": res.eer, "fdr": res.fdr}
    for zeta, nu in bench.FULL.t_grid:
        res = asym.eer_fdr_t(bench.ALPHA, zeta, nu)
        grid[f"t({zeta},{nu})"] = {"eer": res.eer, "fdr": res.fdr}

    probe = asym.t_of_z_normal(bench.ALPHA, bench.TZ_ZETA, bench.TZ_RHO,
                               list(bench.TZ_PROBE))
    cond = asym.conditional_limits(pkg.ModelSpec.normal(bench.COND_RHO),
                                   bench.ALPHA, bench.COND_ZETA, bench.COND_Z)
    _, rhs = pkg.restricted_fdr_check(
        pkg.LinearNullSpec(**bench.RESTRICTED), bench.RESTRICTED_ALPHA,
        replicates=1)
    bnp = {}
    for m in sorted({bench.FULL.bnp_m, bench.TINY.bnp_m}):
        spec = pkg.BoundarySpec(m=m, lower_bounds=[
            bench.BNP_SLOPE * j / m for j in range(1, m + 1)])
        bnp[str(m)] = pkg.boundary_noncrossing_prob(spec, bench._uniform_cdf)

    ref = {
        "grid": grid,
        "tz_probe": [float(t) for t in probe],
        "cond_target": cond.v_over_n + (1.0 - bench.COND_ZETA),
        "restricted_rhs": rhs,
        "bnp": bnp,
    }
    bench.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
