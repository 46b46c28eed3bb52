"""Command-line interface.

Subcommands
-----------
fit             fit a model path to a CSV file and prune it by BIC
mc-dof          Monte-Carlo degrees-of-freedom estimation
derive-formula  fit a closed-form DoF surface to a grid CSV
simulate        run one simulation setting and summarise it
dof             evaluate a single degrees-of-freedom value

Exit codes follow the error's type: 0 on success, 2 for a
ValidationError (bad files or parameters), 3 for any other TsvcError
(singular designs, saturated fits, off-grid lookups).
"""

from __future__ import annotations

import argparse
import os
import sys

from ._io import check_writable, read_csv, read_file, write_file
from .core import Dataset
from .dof import DofSpec, McDofConfig, McDofTable, TsvcPathFitter, mc_dof
from .errors import MissingDofError, TsvcError, ValidationError
from .mfp import derive_dof_formula
from .model import model_to_json
from .selection import prune_path
from .simulate import DOF_SOURCES, ScenarioConfig, dof_specs, run_simulation
from .tree import fit_path

THREADS_ENV = "TSVC_THREADS"


def _read_dataset_csv(path: str, response: str) -> Dataset:
    """CSV with a mandatory header; one numeric column per variable."""
    rows = read_file(path, lambda text: read_csv(text, {response: float}, others=float))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    names = tuple(c for c in rows[0] if c != response)
    return Dataset.from_arrays([r[response] for r in rows],
                               [[r[c] for c in names] for r in rows], names=names)


def _add_threads(parser):
    parser.add_argument(
        "--threads", type=int, default=None,
        help=f"worker processes (default: ${THREADS_ENV} or 1)")


def _threads(args) -> int:
    """``--threads``, else ``$TSVC_THREADS`` (1 when unset or empty); a
    value that is not an integer >= 1 is refused, naming where it came from."""
    source, raw = (("--threads", args.threads) if args.threads is not None
                   else (THREADS_ENV, os.environ.get(THREADS_ENV) or "1"))
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValidationError(f"{source} must be >= 1, got {raw}")
    return threads


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    check_writable(args.out_model, args.out_report)
    dataset = _read_dataset_csv(args.input, args.response)
    spec = DofSpec.parse(args.dof, args.table)
    path = fit_path(dataset, args.smax, args.min_leaf)
    report = prune_path(path, spec)
    model = path.model_at(report.selected_s)
    if args.out_model:
        write_file(args.out_model, model_to_json(model) + "\n")
    if args.out_report:
        report.to_csv(args.out_report)
    row = next(e for e in report.entries if e.selected)
    print(f"selected s = {report.selected_s} of {len(path.rules)} grown "
          f"(dof = {row.dof:.4g}, bic = {row.bic:.6g}, rss = {model.rss:.6g})")
    return 0


def cmd_mc_dof(args) -> int:
    check_writable(args.out)
    config = McDofConfig(m=args.m, runs=args.runs, seed=args.seed)
    fitter = TsvcPathFitter(s_max=args.smax, min_leaf=args.min_leaf)
    grid = mc_dof(args.n, args.p, config, fitter, threads=_threads(args))
    text = grid.to_csv(args.out)
    if not args.out:
        sys.stdout.write(text)
    else:
        for _, _, s, dof, se in grid.rows:
            print(f"s = {s}: dof = {dof:.4f} (se {se:.4f})")
    return 0


def cmd_derive_formula(args) -> int:
    check_writable(args.out_json)
    rows = [row[:4] for row in McDofTable.load(args.table).rows]
    fit, expression = derive_dof_formula(rows, alpha=args.alpha)
    if args.out_json:
        write_file(args.out_json, fit.to_json() + "\n")
    print(f"dof ~ {expression}")
    print(f"r_squared = {fit.r_squared:.4f}")
    return 0


def cmd_simulate(args) -> int:
    check_writable(args.out, args.raw)
    threads = _threads(args)
    config = ScenarioConfig(
        scenario=args.scenario, s_dgp=args.s_dgp, n=args.n,
        replications=args.reps, seed=args.seed, s_max=args.smax,
        min_leaf=args.min_leaf, allow_nonstandard=args.allow_custom,
    )
    specs = dof_specs(config, args.dof, args.table, m=args.mc_m, runs=args.mc_runs,
                      threads=threads)
    summary = run_simulation(config, specs, threads=threads)
    text = summary.to_csv(args.out)
    if not args.out:
        sys.stdout.write(text)
    else:
        for row in summary.approaches:
            print(f"{row.dof_name}: mean splits = {row.mean_splits:.2f} "
                  f"(sd {row.sd_splits:.2f}), mean pred loglik = "
                  f"{row.mean_pred_log_lik:.2f}")
    if args.raw:
        summary.records_to_csv(args.raw)
    return 0


def cmd_dof(args) -> int:
    spec = DofSpec.parse(args.approach, args.table)
    try:
        value = spec.dof_for(args.s, args.p, args.n)
    except MissingDofError as exc:
        # the cell is the user's own choice, so a miss is bad input
        raise ValidationError(str(exc)) from exc
    print(f"{value!r}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvc",
        description="Tree-structured varying-coefficient regression "
                    "with search-aware degrees of freedom.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("fit", help="fit and prune a model on a CSV file")
    q.add_argument("--input", required=True, help="CSV with a header row")
    q.add_argument("--response", required=True, help="name of the response column")
    q.add_argument("--smax", type=int, default=5)
    q.add_argument("--min-leaf", type=int, default=10)
    q.add_argument("--dof", default="mfp", choices=DofSpec.SOURCES)
    q.add_argument("--table", default=None, help="custom DoF grid CSV")
    q.add_argument("--out-model", default=None, help="write model JSON here")
    q.add_argument("--out-report", default=None, help="write BIC table CSV here")
    q.set_defaults(func=cmd_fit)

    q = sub.add_parser("mc-dof", help="Monte-Carlo degrees of freedom")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--smax", type=int, default=5)
    q.add_argument("--m", type=int, default=100, help="replicates per run")
    q.add_argument("--runs", "-R", type=int, default=10)
    q.add_argument("--min-leaf", type=int, default=10)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None, help="write the grid CSV here")
    _add_threads(q)
    q.set_defaults(func=cmd_mc_dof)

    q = sub.add_parser("derive-formula",
                       help="closed-form DoF surface from a grid CSV")
    q.add_argument("--table", required=True, help="CSV with columns p,n,s,dof")
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--out-json", default=None)
    q.set_defaults(func=cmd_derive_formula)

    q = sub.add_parser("simulate", help="run one simulation setting")
    q.add_argument("--scenario", type=int, required=True, choices=[1, 2, 3, 4])
    q.add_argument("--s-dgp", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--reps", type=int, default=25)
    q.add_argument("--dof", default="naive,mfp",
                   help="comma list: " + ", ".join(DOF_SOURCES))
    q.add_argument("--table", default=None, help="custom DoF grid CSV")
    q.add_argument("--smax", type=int, default=None)
    q.add_argument("--min-leaf", type=int, default=10)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--mc-m", type=int, default=100,
                   help="replicates per run for mc-null / mc-dgp")
    q.add_argument("--mc-runs", type=int, default=10)
    q.add_argument("--allow-custom", action="store_true",
                   help="permit n or smax outside the scenario's menu")
    q.add_argument("--out", default=None, help="summary CSV")
    q.add_argument("--raw", default=None, help="per-replicate CSV")
    _add_threads(q)
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("dof", help="evaluate one DoF value")
    q.add_argument("--approach", required=True, choices=DofSpec.SOURCES)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, default=0)
    q.add_argument("--table", default=None, help="custom DoF grid CSV")
    q.set_defaults(func=cmd_dof)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TsvcError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
