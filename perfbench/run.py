"""Benchmark of lsufdr through its public API, single process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``limit_curve``    one eer_fdr_normal / eer_fdr_t call per grid point at
                     the default tol, plus one t_of_z_normal call on a
                     seeded vector of standard-normal draws.
* ``sim_large_n``    montecarlo.run on two normal plans at n = 1e5 and one
                     student_t plan at n = 2e4.
* ``finite_n_small`` exponential runs at n = 200 (lsu and lsd), one
                     restricted_fdr_check and one boundary_noncrossing_prob
                     at m = 200.

A pass calls every operation of the workload in order; an operation
faster than MIN_OP_S is called again until its calls add up to that,
and its time in the pass is the median call.  Passes repeat until
``--seconds`` have elapsed (at least one).  Every output is checked
right after its call, outside the timed region.  The last stdout line
is the result: ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it holds provenance, per-operation times, the rate of each
operation class (``curve_points_per_s``, ``sim_t_reps_per_s``, ...) and
the digest of the Monte Carlo replicates' (m, v).

End-to-end metrics (``--trace 0``), each the same on every workload:

* ``setup_s``      median over several set-ups of a fresh import of
                   lsufdr plus building the workload inputs.
* ``pass_s``       wall time of one pass: the sum over operations of
                   each one's median time over the passes.  Expensive
                   operations dominate it.
* ``op_ms_geomean`` geometric mean over operations of each one's median
                   time, so that every operation weighs the same and
                   cheap ones move it as much as expensive ones.
* ``peak_rss_mb``  peak resident memory of the process.
* ``ok_frac``      share of operations that returned and passed their
                   check (one minus the failed share).

With ``--trace 1`` the same passes run untraced, then one pass runs with
the module boundaries wrapped (see tracing.py) and the README CLI commands
run in-process; the result then holds the per-layer metrics.  Work
counts come from exactly one traced pass, so they repeat exactly for a
given seed.

All simulations use one worker (``workers=1``, ``LSUFDR_WORKERS=1``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

ALPHA = 0.05
TOL = 1e-8  # default tol of eer_fdr_*; grid references must agree to it
SETUP_REPEATS = 11
MIN_OP_S = 0.1  # untraced passes repeat an operation until this much time
TZ_ZETA, TZ_RHO = 0.5, 0.5
TZ_PROBE = tuple(float(z) for z in np.linspace(-4.0, 4.0, 33))
EXP_ALPHA, EXP_ZETA, EXP_N = 0.1, 0.5, 200
COND_RHO, COND_ZETA, COND_Z = 0.5, 0.9, -1.0
RESTRICTED = dict(gamma=1.0, n0=10, n=10, t_star=0.1)
RESTRICTED_ALPHA = 0.2
BNP_SLOPE = 0.3  # bounds c*j/m; Daniels (1945): P(no crossing) = 1 - c
SE_MULT = 5.0  # Monte Carlo checks allow this many standard errors


@dataclass(frozen=True)
class Scale:
    """Input sizes of every workload."""

    normal_grid: tuple[tuple[float, float], ...]
    t_grid: tuple[tuple[float, float], ...]
    tz_draws: int
    sim_n: int
    normal_reps: int
    cond_reps: int
    sim_t_n: int
    t_reps: int
    exp_reps: int
    restricted_reps: int
    bnp_m: int


FULL = Scale(
    normal_grid=tuple((z, r) for z in (0.5, 0.9, 1.0)
                      for r in (0.01, 0.1, 0.5, 0.9)),
    t_grid=((0.5, 3.0), (0.5, 10.0), (0.5, 100.0), (0.5, 1e5),
            (0.9, 10.0), (0.9, 100.0), (0.9, 1e5)),
    tz_draws=200_000,
    sim_n=100_000, normal_reps=40, cond_reps=40,
    sim_t_n=20_000, t_reps=8,
    exp_reps=8000, restricted_reps=10 ** 6, bnp_m=200,
)

# Cheap grid points and small samples for the self-test.
TINY = Scale(
    normal_grid=((0.5, 0.1), (1.0, 0.5)), t_grid=((0.5, 100.0),),
    tz_draws=2000,
    sim_n=10_000, normal_reps=2, cond_reps=3,
    sim_t_n=2000, t_reps=2,
    exp_reps=400, restricted_reps=20_000, bnp_m=20,
)


@dataclass
class Op:
    """One timed call into the library and the check of its output."""

    name: str
    group: str  # operation class, reported as <group>_per_s
    units: int  # work units of the class done by one call
    call: Callable[[], object]
    check: Callable[[object, dict], bool]  # (output, all outputs) -> ok


# ---------------------------------------------------------------------------
# Workloads.


def _grid_check(ref):
    def check(res, _):
        return (abs(res.eer - ref["eer"]) <= TOL
                and abs(res.fdr - ref["fdr"]) <= TOL)
    return check


def limit_curve(pkg, seed: int, scale: Scale, ref: dict) -> list[Op]:
    asym = pkg.asymptotics
    ops = []
    for zeta, rho in scale.normal_grid:
        key = f"normal({zeta},{rho})"
        ops.append(Op(key, "curve_points", 1,
                      lambda z=zeta, r=rho: asym.eer_fdr_normal(ALPHA, z, r),
                      _grid_check(ref["grid"][key])))
    for zeta, nu in scale.t_grid:
        key = f"t({zeta},{nu})"
        ops.append(Op(key, "curve_points", 1,
                      lambda z=zeta, v=nu: asym.eer_fdr_t(ALPHA, z, v),
                      _grid_check(ref["grid"][key])))

    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(seed, 1))))
    draws = rng.standard_normal(scale.tz_draws)
    z = np.concatenate([np.array(TZ_PROBE), draws])
    nprobe = len(TZ_PROBE)
    fdr_ref = ref["grid"][f"normal({TZ_ZETA},{TZ_RHO})"]["fdr"]

    def check_tz(t, _):
        t = np.asarray(t)
        if t.shape != z.shape or not np.all(np.isfinite(t)):
            return False
        lo, hi = ALPHA * (1.0 - TZ_ZETA), ALPHA
        if np.any(t <= lo) or np.any(t >= hi):
            return False
        probe_ok = np.all(np.abs(t[:nprobe] - np.array(ref["tz_probe"]))
                          <= TOL)
        # criterion 8: the mean FDP over disturbance draws matches the
        # quadrature FDR of the same configuration
        fdp = 1.0 - ALPHA * (1.0 - TZ_ZETA) / t[nprobe:]
        se = float(fdp.std(ddof=1) / math.sqrt(fdp.size))
        gap = abs(float(fdp.mean()) - fdr_ref)
        return bool(probe_ok) and gap < max(SE_MULT * se, 5e-3)

    ops.append(Op("t_of_z_normal", "tz_points", z.size,
                  lambda: asym.t_of_z_normal(ALPHA, TZ_ZETA, TZ_RHO, z),
                  check_tz))
    return ops


def _counts_ok(s, plan) -> bool:
    n, reps = plan.config.n, plan.replicates
    v, r = s.v_counts, s.r_counts
    return (v is not None and r is not None
            and v.shape == (reps,) and r.shape == (reps,)
            and bool(np.all(v >= 0)) and bool(np.all(v <= r))
            and bool(np.all(r <= n)))


def _run_op(pkg, name, group, plan, check) -> Op:
    return Op(name, group, plan.replicates,
              lambda: pkg.montecarlo.run(plan, keep_replicates=True,
                                         workers=1),
              lambda s, outs: _counts_ok(s, plan) and check(s, outs))


def sim_large_n(pkg, seed: int, scale: Scale, ref: dict) -> list[Op]:
    Plan, Cfg, Model = pkg.SimulationPlan, pkg.ExtremeConfig, pkg.ModelSpec
    normal = Plan(Model.normal(0.1), Cfg(scale.sim_n, 1.0, seed), ALPHA,
                  scale.normal_reps)
    cond = Plan(Model.normal(COND_RHO), Cfg(scale.sim_n, COND_ZETA, seed),
                ALPHA, scale.cond_reps, conditional_z=COND_Z)
    student = Plan(Model.student_t(5.0), Cfg(scale.sim_t_n, 1.0, seed),
                   ALPHA, scale.t_reps)
    target = ref["cond_target"]

    def all_false(s, _):  # zeta = 1: every rejection is false
        return bool(np.all(s.v_counts == s.r_counts))

    def converged(s, _):  # criterion 9
        rn = s.r_counts / cond.config.n
        return float(np.median(np.abs(rn - target))) < 0.01

    return [
        _run_op(pkg, "normal_rho0.1", "sim_normal_reps", normal, all_false),
        _run_op(pkg, "normal_conditional", "sim_normal_reps", cond,
                converged),
        _run_op(pkg, "student_t_nu5", "sim_t_reps", student, all_false),
    ]


def finite_n_small(pkg, seed: int, scale: Scale, ref: dict) -> list[Op]:
    Plan = pkg.SimulationPlan
    cfg = pkg.ExtremeConfig(EXP_N, EXP_ZETA, seed)
    lsu = Plan(pkg.ModelSpec.exponential(), cfg, EXP_ALPHA, scale.exp_reps)
    lsd = Plan(pkg.ModelSpec.exponential(), cfg, EXP_ALPHA, scale.exp_reps,
               procedure="lsd")

    def exact_identity(s, _):  # criterion 5: FDR_n = zeta_n * alpha
        gap = abs(s.fdr_hat - cfg.zeta_n * EXP_ALPHA)
        return gap <= SE_MULT * s.standard_errors["fdr_hat"]

    def below_lsu(s, outs):  # same streams, so lsd rejects no more
        up = outs.get("exponential_lsu")
        return up is not None and bool(np.all(s.r_counts <= up.r_counts))

    spec = pkg.LinearNullSpec(**RESTRICTED)
    reps = scale.restricted_reps

    def restricted_ok(out, _):  # criterion 7
        lhs, rhs = out
        se = math.sqrt(max(lhs * (1.0 - lhs), 1e-9) / reps)
        return (abs(lhs - rhs) < SE_MULT * se
                and abs(rhs - ref["restricted_rhs"]) <= 1e-13)

    m = scale.bnp_m
    bounds = pkg.BoundarySpec(m=m, lower_bounds=[BNP_SLOPE * j / m
                                                 for j in range(1, m + 1)])
    bnp_ref = ref["bnp"][str(m)]

    def bnp_ok(p, _):
        return (abs(p - bnp_ref) <= 1e-13
                and abs(p - (1.0 - BNP_SLOPE)) <= 1e-11)

    exact = pkg.exact
    return [
        _run_op(pkg, "exponential_lsu", "sim_exp_reps", lsu, exact_identity),
        _run_op(pkg, "exponential_lsd", "sim_exp_reps", lsd, below_lsu),
        Op("restricted_fdr_check", "restricted_reps", reps,
           lambda: exact.restricted_fdr_check(spec, RESTRICTED_ALPHA,
                                              replicates=reps, seed=seed),
           restricted_ok),
        Op("boundary_noncrossing_prob", "exact_calls", 1,
           lambda: exact.boundary_noncrossing_prob(bounds, _uniform_cdf),
           bnp_ok),
    ]


def _uniform_cdf(t: float) -> float:
    return t


BUILDERS = {"limit_curve": limit_curve, "sim_large_n": sim_large_n,
            "finite_n_small": finite_n_small}


# ---------------------------------------------------------------------------
# Measurement.


def fresh_import():
    """Import lsufdr from the checkout's src, discarding any earlier copy."""
    for name in [m for m in sys.modules
                 if m == "lsufdr" or m.startswith("lsufdr.")]:
        del sys.modules[name]
    return importlib.import_module("lsufdr")


def setup(workload: str, seed: int, scale: Scale, ref: dict):
    """Import and build inputs SETUP_REPEATS times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pkg = fresh_import()
        ops = BUILDERS[workload](pkg, seed, scale, ref)
        times.append(perf_counter() - t0)
    return pkg, ops, statistics.median(times)


def _call_and_check(op: Op, outputs: dict) -> tuple[float, bool]:
    """Time one call of op, then check its output outside the timing."""
    t0 = perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        print(f"operation {op.name} raised {exc!r}", file=sys.stderr)
        outputs.pop(op.name, None)
        return perf_counter() - t0, False
    elapsed = perf_counter() - t0
    outputs[op.name] = out
    try:
        ok = bool(op.check(out, outputs))
    except Exception as exc:  # a crashing check is a failed check
        print(f"check of {op.name} raised {exc!r}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"check failed: {op.name}", file=sys.stderr)
    return elapsed, ok


def run_pass(ops: list[Op], min_op_s: float = 0.0, tracer=None):
    """Call and check every operation once, in order.

    An operation is called again until its calls add up to min_op_s, so
    cheap operations get a median over several calls; it counts as
    failed if any of its calls failed.  Returns the per-operation median
    call time, the number of failed operations and the last output of
    each operation.
    """
    times, outputs, failed = [], {}, 0
    for op in ops:
        calls, all_ok = [], True
        while not calls or sum(calls) < min_op_s:
            if tracer is not None:
                tracer.begin_op()
            elapsed, ok = _call_and_check(op, outputs)
            if tracer is not None:
                tracer.end_op()
            calls.append(elapsed)
            all_ok = all_ok and ok
        times.append(statistics.median(calls))
        failed += not all_ok
    return times, failed, outputs


def replicate_digest(outputs: dict) -> str | None:
    """sha256 over the per-replicate (m, v) of every run, for information."""
    h = hashlib.sha256()
    found = False
    for name in sorted(outputs):
        s = outputs[name]
        if getattr(s, "r_counts", None) is not None:
            h.update(name.encode())
            h.update(np.ascontiguousarray(s.r_counts, np.int64).tobytes())
            h.update(np.ascontiguousarray(s.v_counts, np.int64).tobytes())
            found = True
    return h.hexdigest() if found else None


def class_rates(ops: list[Op], op_s: list[float]) -> dict:
    """Work units per second of each operation class."""
    units, secs = {}, {}
    for op, d in zip(ops, op_s):
        units[op.group] = units.get(op.group, 0) + op.units
        secs[op.group] = secs.get(op.group, 0.0) + d
    rates = {f"{g}_per_s": units[g] / secs[g] for g in units if secs[g] > 0}
    points = [d for op, d in zip(ops, op_s) if op.group == "curve_points"]
    if points:
        rates["curve_point_ms_p50"] = 1e3 * statistics.median(points)
    return rates


CLI_COMMANDS = {
    "curve": ["curve", "--model", "normal", "--alpha", "0.05", "--zeta",
              "0.5", "--rho-grid", "0.1:0.5:3", "--out", "{out}"],
    "simulate": ["simulate", "--model", "exponential", "--alpha", "0.1",
                 "--zeta", "0.5", "--n", "200", "--reps", "2000",
                 "--seed", "{seed}", "--out", "{out}"],
    "crossing": ["crossing", "--model", "normal", "--rho", "0.5",
                 "--alpha", "0.1", "--zeta", "0.9999", "--out", "{out}"],
    "limits": ["limits", "--alpha", "0.05"],  # writes to stdout only
}


def time_cli(seed: int) -> tuple[dict, int]:
    """Run each README command once in-process; return times and failures.

    Outputs go to a temporary directory inside the checkout.
    """
    cli = importlib.import_module("lsufdr.cli")
    times, failed = {}, 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name, argv in CLI_COMMANDS.items():
            out = Path(tmp) / f"{name}.out"
            log = Path(tmp) / f"{name}.log"
            argv = [a.format(out=out, seed=seed) for a in argv]
            with open(out if name == "limits" else log, "w",
                      encoding="utf-8") as fh, \
                    contextlib.redirect_stdout(fh), \
                    contextlib.redirect_stderr(fh):
                t0 = perf_counter()
                code = cli.main(argv)
                times[f"cli.{name}.s"] = perf_counter() - t0
            if code != 0 or not out.is_file() or out.stat().st_size == 0:
                failed += 1
                print(f"cli {name} exited {code}", file=sys.stderr)
    return times, failed


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref:"):
            return text
        ref = text.split(None, 1)[1]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(pkg, seed: int, workload: str) -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "package": getattr(pkg, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "workers": 1,
        "nproc": os.cpu_count(),
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              scale: Scale = FULL) -> tuple[dict, dict]:
    """Run one workload; return (result line, information line)."""
    ref = json.loads(REFERENCE.read_text())
    pkg, ops, setup_s = setup(workload, seed, scale, ref)

    passes, attempted, failed = [], 0, 0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        times, bad, outputs = run_pass(ops, MIN_OP_S)
        passes.append(times)
        attempted += len(ops)
        failed += bad

    op_s = [statistics.median(p[i] for p in passes) for i in range(len(ops))]
    pass_s = sum(op_s)
    info = {"provenance": provenance(pkg, seed, workload),
            "pass_times_s": [sum(p) for p in passes],
            "op_times_s": dict(zip((op.name for op in ops), op_s)),
            "rates": class_rates(ops, op_s),
            "replicate_digest": replicate_digest(outputs)}

    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(pkg)
        try:
            times, bad, _ = run_pass(ops, tracer=tracer)
        finally:
            tracer.uninstall()
        attempted += len(ops)
        failed += bad
        cli_times, cli_failed = time_cli(seed)
        attempted += len(cli_times)
        failed += cli_failed
        metrics = {**tracer.metrics(), **cli_times,
                   "trace.overhead_frac": sum(times) / pass_s}
        info["absent_wrap_targets"] = tracer.absent
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "op_ms_geomean": 1e3 * statistics.geometric_mean(op_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }

    units = {m["name"]: m["unit"] for m in _declared_metrics(trace)}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, info


def _declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "lsufdr" / "__init__.py").is_file():
        print(f"no lsufdr sources under {SRC}", file=sys.stderr)
        return 2

    os.environ["LSUFDR_WORKERS"] = "1"
    sys.path.insert(0, str(SRC))
    result, info = benchmark(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
