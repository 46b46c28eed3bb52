"""Command-line interface.

Subcommands
-----------
fit             fit a model path to a CSV file and prune it by BIC
mc-dof          Monte-Carlo degrees-of-freedom estimation
derive-formula  fit a closed-form DoF surface to a grid CSV
simulate        run one simulation setting and summarise it
dof             evaluate a single degrees-of-freedom value

Exit codes: 0 on success, 2 for bad input (files, parameters), 3 for
numeric failures (singular designs, saturated fits, off-grid lookups).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .core import Dataset
from .dof import (DofSpec, McDofConfig, McDofTable, _check_writable, _read_csv, _read_file,
                  _write_file, mc_dof)
from .errors import (
    DimensionMismatchError,
    DomainError,
    MissingDofError,
    NonPositiveValuesError,
    TsvcError,
    ValidationError,
)
from .mfp import derive_dof_formula
from .selection import prune_path
from .simulate import MC_DOF_SOURCES, ScenarioConfig, run_simulation
from .tree import fit_path, model_to_json

THREADS_ENV = "TSVC_THREADS"

_INPUT_ERRORS = (ValidationError, DomainError, DimensionMismatchError,
                 NonPositiveValuesError)


def _read_dataset_csv(path: str, response: str) -> Dataset:
    """CSV with a mandatory header; one numeric column per variable."""
    rows = _read_file(path, lambda text: _read_csv(text, {response: float}, others=float))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    names = tuple(c for c in rows[0] if c != response)
    return Dataset.from_arrays([r[response] for r in rows],
                               [[r[c] for c in names] for r in rows], names=names)


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def _add_threads(parser):
    parser.add_argument(
        "--threads", type=int, default=None,
        help=f"worker processes (default: ${THREADS_ENV} or 1)")


def _threads(args) -> int:
    if args.threads is None:
        return _default_threads()
    if args.threads < 1:
        raise ValidationError(f"--threads must be >= 1, got {args.threads}")
    return args.threads


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    _check_writable(args.out_model, args.out_report)
    dataset = _read_dataset_csv(args.input, args.response)
    spec = DofSpec.parse(args.dof, args.table)
    path = fit_path(dataset, args.smax, args.min_leaf)
    report = prune_path(path, spec)
    model = path.model_at(report.selected_s)
    if args.out_model:
        _write_file(args.out_model, model_to_json(model) + "\n")
    if args.out_report:
        report.to_csv(args.out_report)
    row = next(e for e in report.entries if e.selected)
    print(f"selected s = {report.selected_s} of {path.models[-1].s} grown "
          f"(dof = {row.dof:.4g}, bic = {row.bic:.6g}, rss = {model.rss:.6g})")
    return 0


def cmd_mc_dof(args) -> int:
    _check_writable(args.out)
    config = McDofConfig(m=args.m, runs=args.runs, s_max=args.smax,
                         min_leaf=args.min_leaf, seed=args.seed)
    result = mc_dof(args.n, args.p, config, threads=_threads(args))
    text = result.to_csv(args.out)
    if not args.out:
        sys.stdout.write(text)
    else:
        for entry in result.entries:
            print(f"s = {entry.s}: dof = {entry.dof:.4f} (se {entry.se:.4f})")
    return 0


def cmd_derive_formula(args) -> int:
    _check_writable(args.out_json)
    rows = [row[:4] for row in McDofTable.load(args.table).rows]
    fit, expression = derive_dof_formula(rows, alpha=args.alpha)
    if args.out_json:
        _write_file(args.out_json, fit.to_json() + "\n")
    print(f"dof ~ {expression}")
    print(f"r_squared = {fit.r_squared:.4f}")
    return 0


def cmd_simulate(args) -> int:
    _check_writable(args.out, args.raw)
    names = [token.strip() for token in args.dof.split(",") if token.strip()]
    threads = _threads(args)
    config = ScenarioConfig(
        scenario=args.scenario, s_dgp=args.s_dgp, n=args.n,
        replications=args.reps, seed=args.seed, s_max=args.smax,
        min_leaf=args.min_leaf, allow_nonstandard=args.allow_custom,
    )
    # Every name is checked before any Monte Carlo runs, and a --table
    # grid is read once for all the table sources.
    cheap = {name: DofSpec(name) for name in names if name not in MC_DOF_SOURCES}
    if args.table and any(spec.reads_table for spec in cheap.values()):
        table = McDofTable.load(args.table)
        cheap = {name: replace(spec, table=table) if spec.reads_table else spec
                 for name, spec in cheap.items()}
    if len(set(names)) != len(names):
        raise ValidationError(f"DoF source names must be unique, got {args.dof!r}")
    specs = tuple(
        cheap[name] if name in cheap else
        MC_DOF_SOURCES[name](config, m=args.mc_m, runs=args.mc_runs, threads=threads)
        for name in names)
    summary = run_simulation(replace(config, dof_specs=specs), threads=threads)
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
                   help="comma list: "
                        + ", ".join(DofSpec.SOURCES + tuple(MC_DOF_SOURCES)))
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
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TsvcError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
