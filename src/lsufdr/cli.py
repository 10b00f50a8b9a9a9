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
import csv
import io
import json
import re
import sys

from .asymptotics import eer_fdr_normal, eer_fdr_t, limit_constants
from .crossing import crossing_report
from .models import EXPONENTIAL, NORMAL, STUDENT_T, ExtremeConfig, \
    ModelSpec, _check_zeta
from .montecarlo import SimulationPlan, _pool_map, run, worker_count
from .stepup import _check_alpha

__all__ = ["main"]

_CURVE_COLUMNS = ("model", "alpha", "zeta", "rho_or_nu", "eer_inf",
                  "fdr_inf", "t1", "t2", "quad_err", "status")

_CROSSING_KEYS = ("t1", "t2", "has_tangent", "lcp_intervals",
                  "z_at_tangent", "t_lower", "t_upper")

_CURVE_MODELS = {"normal": NORMAL, "t": STUDENT_T, "student_t": STUDENT_T}
_MODEL_CHOICES = {**_CURVE_MODELS, "exponential": EXPONENTIAL}
# each curve family's grid parameter and limit function
_CURVE_LAWS = {NORMAL: ("rho", eer_fdr_normal), STUDENT_T: ("nu", eer_fdr_t)}


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # "--rho" must not pass for an abbreviation of "--rho-grid"
        super().__init__(allow_abbrev=False, **kwargs)
        # a grid such as -1:5:2 is a value, as -1 is, not an option
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with 2 on usage problems; the interface contract
    # reserves 2 for numeric failures and 1 for usage
    def error(self, message):
        raise ValueError(message)


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:count")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 0:
        raise ValueError("grid count must be nonnegative")
    if count <= 1:
        return (start,) * count
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
        res = _CURVE_LAWS[family][1](alpha, zeta, g)
        return (family, alpha, zeta, g, res.eer, res.fdr, res.t1, res.t2,
                res.quadrature_error, "ok")
    except Exception as exc:  # keep sweeping, record the failure
        return (family, alpha, zeta, g, "", "", "", "", "",
                f"error: {type(exc).__name__}: {exc}")


def cmd_curve(args) -> int:
    """Write one row per (zeta, grid point); failures become status.

    Grid points run on the worker pool when there are several workers
    and at least four points; rows are collected in the deterministic
    (zeta outer, grid inner) order regardless of how the pool schedules
    them.
    """
    family = _CURVE_MODELS[args.model]
    param = _CURVE_LAWS[family][0]
    spec = getattr(args, f"{param}_grid")
    if spec is None:  # the parser takes exactly one grid flag
        raise ValueError(f"the {args.model} model takes --{param}-grid")
    grid = _parse_grid(spec)
    _check_alpha(args.alpha)
    zetas = [_check_zeta(z) for z in args.zeta or [0.5]]
    try:
        for g in grid:
            ModelSpec(family, **{param: g})
    except ValueError as exc:
        raise ValueError(f"{param} grid values: {exc}") from None
    tasks = [(family, args.alpha, zeta, g) for zeta in zetas for g in grid]
    workers = worker_count()  # LSUFDR_WORKERS is checked on any sweep
    rows = []
    for i, row in enumerate(_pool_map(
            _curve_row, tasks, workers=workers if len(tasks) >= 4 else 1),
            start=1):
        print(f"curve {i}/{len(tasks)}: zeta={row[2]} grid={row[3]}",
              file=sys.stderr)
        rows.append(row)
    failures = sum(1 for row in rows if row[-1] != "ok")
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows((_CURVE_COLUMNS, *rows))
        text = buf.getvalue()
    else:
        text = _json_text([dict(zip(_CURVE_COLUMNS, row)) for row in rows])
    _write(text, args.out)
    return 2 if failures else 0


def _model_zeta(args) -> tuple[ModelSpec, float]:
    """The model and --zeta (0.5 when not given) of simulate and crossing."""
    if args.zeta is not None and len(args.zeta) > 1:
        raise ValueError("--zeta may be repeated only for curve")
    model = ModelSpec(_MODEL_CHOICES[args.model], rho=args.rho, nu=args.nu)
    return model, (args.zeta or [0.5])[0]


def cmd_simulate(args) -> int:
    model, zeta = _model_zeta(args)
    config = ExtremeConfig(n=args.n, zeta=zeta, seed=args.seed)
    plan = SimulationPlan(model=model, config=config, alpha=args.alpha,
                          replicates=args.reps,
                          conditional_z=args.conditional_z,
                          procedure=args.procedure)
    summary = run(plan)
    payload = summary.as_dict()
    payload.update(model=args.model, alpha=args.alpha, zeta=zeta, n=args.n)
    _write(_json_text(payload), args.out)
    return 0


def cmd_crossing(args) -> int:
    model, zeta = _model_zeta(args)
    report = crossing_report(model, args.alpha, zeta)
    # json writes the tuples of lcp_intervals as lists
    payload = {k: getattr(report, k) for k in _CROSSING_KEYS}
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


def _add_common(p: argparse.ArgumentParser, models: dict):
    p.add_argument("--model", choices=sorted(models), default="normal")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--zeta", type=float, action="append", default=None,
                   help="repeatable for curve; defaults to 0.5")


def _make_parser() -> _Parser:
    parser = _Parser(prog="lsufdr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("curve", help="sweep limiting EER/FDR over a grid")
    _add_common(pc, _CURVE_MODELS)
    grid = pc.add_mutually_exclusive_group(required=True)
    grid.add_argument("--rho-grid", help="start:stop:count, normal model")
    grid.add_argument("--nu-grid", help="start:stop:count, t model")
    pc.add_argument("--out", required=True)
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.set_defaults(run=cmd_curve)

    ps = sub.add_parser("simulate", help="Monte Carlo run")
    px = sub.add_parser("crossing", help="crossing/tangency report")
    for p in (ps, px):
        _add_common(p, _MODEL_CHOICES)
        p.add_argument("--rho", type=float, help="normal model only")
        p.add_argument("--nu", type=float, help="t model only")
        p.add_argument("--out")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--reps", type=int, default=10000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--conditional-z", type=float, default=None)
    ps.add_argument("--procedure", choices=("lsu", "lsd"), default="lsu")
    ps.set_defaults(run=cmd_simulate)

    px.set_defaults(run=cmd_crossing)

    pl = sub.add_parser("limits", help="closed-form limits for one alpha")
    pl.add_argument("--alpha", type=float, required=True)
    pl.set_defaults(run=cmd_limits)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
