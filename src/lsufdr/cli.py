"""Command-line front end.

Subcommands:

* ``curve``     parameter sweep of the limiting EER/FDR over a rho or
                nu grid, one CSV/JSON row per (zeta, grid point)
* ``simulate``  one Monte Carlo run, JSON summary including the seed
* ``crossing``  crossing/tangency report for one configuration, JSON
* ``limits``    closed-form limits and baselines for one alpha, JSON

Exit codes: 0 success, 1 usage error, 2 numeric failure.  Progress for
long sweeps goes to stderr; stdout stays machine-readable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass

from .asymptotics import eer_fdr_normal, eer_fdr_t, limit_constants
from .crossing import crossing_report
from .models import EXPONENTIAL, NORMAL, STUDENT_T, ExtremeConfig, ModelSpec
from .montecarlo import SimulationPlan, run
from .stepup import _check_alpha

__all__ = ["main", "SweepRequest"]

_CURVE_COLUMNS = ("model", "alpha", "zeta", "rho_or_nu", "eer_inf",
                  "fdr_inf", "t1", "t2", "quad_err", "status")

_MODEL_CHOICES = {"normal": NORMAL, "t": STUDENT_T,
                  "student_t": STUDENT_T, "exponential": EXPONENTIAL}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the interface contract
    # reserves 2 for numeric failures and 1 for usage
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class SweepRequest:
    """A curve sweep: model family, alpha, zeta list, dependence grid."""

    family: str
    alpha: float
    zetas: tuple[float, ...]
    grid: tuple[float, ...]
    out: str
    fmt: str = "csv"

    def __post_init__(self):
        if self.family not in (NORMAL, STUDENT_T):
            raise ValueError("curve sweeps cover normal and student_t")
        _check_alpha(self.alpha)
        for z in self.zetas:
            if not 0.0 < z <= 1.0:
                raise ValueError("zeta values must lie in (0, 1]")
        for g in self.grid:
            if self.family == NORMAL and not 0.0 < g < 1.0:
                raise ValueError("rho grid values must lie in (0, 1)")
            if self.family == STUDENT_T and not g > 0.0:
                raise ValueError("nu grid values must be positive")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError("grid must be start:stop:count")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 0:
        raise _UsageError("grid count must be nonnegative")
    if count == 0:
        return ()
    if count == 1:
        return (start,)
    step = (stop - start) / (count - 1)
    return tuple(start + i * step for i in range(count))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(text: str, out: str | None):
    """Write text to the file named out, or to stdout when out is empty."""
    if not out:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _curve_row(task):
    family, alpha, zeta, g = task
    try:
        if family == NORMAL:
            res = eer_fdr_normal(alpha, zeta, g)
        else:
            res = eer_fdr_t(alpha, zeta, g)
        return (family, alpha, zeta, g, res.eer, res.fdr, res.t1, res.t2,
                res.quadrature_error, "ok")
    except Exception as exc:  # keep sweeping, record the failure
        return (family, alpha, zeta, g, "", "", "", "", "",
                f"error: {exc}")


def cmd_curve(request: SweepRequest) -> int:
    """Write one row per (zeta, grid point); failures become status.

    Grid points run on the worker pool when there are several workers
    and at least four points; rows are collected in the deterministic
    (zeta outer, grid inner) order regardless of how the pool schedules
    them.
    """
    from .montecarlo import worker_count

    tasks = [(request.family, request.alpha, zeta, g)
             for zeta in request.zetas for g in request.grid]
    rows = []
    with contextlib.ExitStack() as stack:
        mapper = map
        nworkers = worker_count()
        if nworkers > 1 and len(tasks) >= 4:
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(
                ProcessPoolExecutor(max_workers=nworkers)).map
        for i, row in enumerate(mapper(_curve_row, tasks), start=1):
            print(f"curve {i}/{len(tasks)}: zeta={row[2]} grid={row[3]}",
                  file=sys.stderr)
            rows.append(row)
    failures = sum(1 for row in rows if row[-1] != "ok")
    if request.fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows((_CURVE_COLUMNS, *rows))
        text = buf.getvalue()
    else:
        text = _json_text([dict(zip(_CURVE_COLUMNS, row)) for row in rows])
    _write(text, request.out)
    return 2 if failures else 0


def _build_model(args) -> ModelSpec:
    family = _MODEL_CHOICES[args.model]
    if family == NORMAL:
        if args.rho is None:
            raise _UsageError("--rho is required for the normal model")
        return ModelSpec.normal(args.rho)
    if family == STUDENT_T:
        if args.nu is None:
            raise _UsageError("--nu is required for the t model")
        return ModelSpec.student_t(args.nu)
    return ModelSpec.exponential()


def cmd_simulate(args) -> int:
    if args.n is None or args.n < 1:
        raise _UsageError("--n must be a positive integer")
    model = _build_model(args)
    config = ExtremeConfig(n=args.n, zeta=args.zeta[0], seed=args.seed)
    plan = SimulationPlan(model=model, config=config, alpha=args.alpha,
                          replicates=args.reps,
                          conditional_z=args.conditional_z,
                          procedure=args.procedure)
    summary = run(plan)
    payload = summary.as_dict()
    payload["model"] = args.model
    payload["alpha"] = args.alpha
    payload["zeta"] = args.zeta[0]
    payload["n"] = args.n
    _write(_json_text(payload), args.out)
    return 0


def cmd_crossing(args) -> int:
    model = _build_model(args)
    report = crossing_report(model, args.alpha, args.zeta[0])
    payload = {
        "t1": report.t1,
        "t2": report.t2,
        "has_tangent": report.has_tangent,
        "lcp_intervals": [list(iv) for iv in report.lcp_intervals],
        "z_at_tangent": report.z_at_tangent,
        "t_lower": report.t_lower,
        "t_upper": report.t_upper,
    }
    _write(_json_text(payload), args.out)
    return 0


def cmd_limits(args) -> int:
    consts = limit_constants(args.alpha)
    payload = consts.as_dict()
    code = 0
    if consts.fdr_discontinuity is None:
        payload["fdr_discontinuity_valid"] = False
        code = 1
    _write(_json_text(payload), None)
    return code


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=sorted(_MODEL_CHOICES), default="normal")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--zeta", type=float, action="append", default=None,
                   help="repeatable; defaults to 0.5")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--out", default=None)


def _make_parser() -> _Parser:
    parser = _Parser(prog="lsufdr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("curve", help="sweep limiting EER/FDR over a grid")
    _add_common(pc)
    pc.add_argument("--rho-grid", default=None, help="start:stop:count")
    pc.add_argument("--nu-grid", default=None, help="start:stop:count")
    pc.add_argument("--format", choices=("csv", "json"), default="csv")

    ps = sub.add_parser("simulate", help="Monte Carlo run")
    _add_common(ps)
    ps.add_argument("--n", type=int, default=None)
    ps.add_argument("--reps", type=int, default=10000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--conditional-z", type=float, default=None)
    ps.add_argument("--procedure", choices=("lsu", "lsd"), default="lsu")

    px = sub.add_parser("crossing", help="crossing/tangency report")
    _add_common(px)

    pl = sub.add_parser("limits", help="closed-form limits for one alpha")
    pl.add_argument("--alpha", type=float, required=True)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "limits":
            return cmd_limits(args)
        if getattr(args, "zeta", None) is None:
            args.zeta = [0.5]
        if args.command == "curve":
            if args.out is None:
                raise _UsageError("curve requires --out")
            family = _MODEL_CHOICES[args.model]
            if family == NORMAL:
                if args.rho_grid is None:
                    raise _UsageError("curve with the normal model needs "
                                      "--rho-grid")
                grid = _parse_grid(args.rho_grid)
            elif family == STUDENT_T:
                if args.nu_grid is None:
                    raise _UsageError("curve with the t model needs "
                                      "--nu-grid")
                grid = _parse_grid(args.nu_grid)
            else:
                raise _UsageError("curve covers normal and student_t")
            request = SweepRequest(family=family, alpha=args.alpha,
                                   zetas=tuple(args.zeta), grid=grid,
                                   out=args.out, fmt=args.format)
            return cmd_curve(request)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "crossing":
            return cmd_crossing(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
