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
import csv
import json
import os
import sys

import numpy as np

from .core import Dataset
from .dof import (
    DofSpec,
    McDofConfig,
    McDofTable,
    dof_mfp,
    dof_naive,
    dof_table_lookup,
    mc_dof,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    NonPositiveValuesError,
    OffGridError,
    TsvcError,
    ValidationError,
)
from .mfp import derive_dof_formula
from .selection import prune_path
from .simulate import (
    SCENARIO_S_MAX,
    ScenarioConfig,
    make_dgp_dof_spec,
    make_null_dof_spec,
    run_simulation,
)
from .tree import fit_path, model_to_json

THREADS_ENV = "TSVC_THREADS"

_INPUT_ERRORS = (ValidationError, DomainError, DimensionMismatchError,
                 NonPositiveValuesError)


def _read_dataset_csv(path: str, response: str) -> Dataset:
    """CSV with a mandatory header; one numeric column per variable."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header:
                raise ValidationError(f"{path}: empty file or missing header")
            header = [h.strip() for h in header]
            rows = [line for line in reader if line]
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if response not in header:
        raise ValidationError(f"{path}: no column named {response!r}")
    try:
        data = np.asarray([[float(v) for v in line] for line in rows], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric value ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValidationError(f"{path}: ragged rows")
    y_col = header.index(response)
    keep = [i for i in range(len(header)) if i != y_col]
    names = tuple(header[i] for i in keep)
    return Dataset.from_arrays(data[:, y_col], data[:, keep], names=names)


def _dof_spec_from_name(name: str, table_path: str | None = None) -> DofSpec:
    table = McDofTable.load(table_path) if table_path else None
    if name == "naive":
        return DofSpec.naive()
    if name == "mfp":
        return DofSpec.mfp()
    if name == "table":
        return DofSpec.from_table(mode="exact", table=table)
    if name == "table-nearest":
        return DofSpec.from_table(mode="nearest", table=table)
    raise ValidationError(f"unknown DoF source {name!r}")


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
    dataset = _read_dataset_csv(args.input, args.response)
    spec = _dof_spec_from_name(args.dof, args.table)
    path = fit_path(dataset, args.smax, args.min_leaf)
    report = prune_path(path, spec)
    model = path.model_at(report.selected_s)
    if args.out_model:
        with open(args.out_model, "w", encoding="utf-8") as handle:
            handle.write(model_to_json(model) + "\n")
    if args.out_report:
        report.to_csv(args.out_report)
    row = next(e for e in report.entries if e.selected)
    print(f"selected s = {report.selected_s} of {path.models[-1].s} grown "
          f"(dof = {row.dof:.4g}, bic = {row.bic:.6g}, rss = {model.rss:.6g})")
    return 0


def cmd_mc_dof(args) -> int:
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
    try:
        with open(args.table, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{args.table}: empty file")
            header = [h.strip() for h in header]
            for col in ("p", "n", "s", "dof"):
                if col not in header:
                    raise ValidationError(f"{args.table}: missing column {col!r}")
            idx = [header.index(c) for c in ("p", "n", "s", "dof")]
            rows = []
            for line in reader:
                if not line:
                    continue
                try:
                    rows.append([float(line[i]) for i in idx])
                except (IndexError, ValueError) as exc:
                    raise ValidationError(f"{args.table}: bad row {line!r}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {args.table}: {exc}") from exc
    fit, expression = derive_dof_formula(rows, alpha=args.alpha)
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as handle:
            handle.write(fit.to_json() + "\n")
    print(f"dof ~ {expression}")
    print(f"r_squared = {fit.r_squared:.4f}")
    return 0


def cmd_simulate(args) -> int:
    spec_names = [token.strip() for token in args.dof.split(",") if token.strip()]
    if not spec_names:
        raise ValidationError("no DoF sources given")
    threads = _threads(args)
    plain = [name for name in spec_names if name not in ("mc-null", "mc-dgp")]
    specs = [_dof_spec_from_name(name, args.table) for name in plain]
    config = ScenarioConfig(
        scenario=args.scenario, s_dgp=args.s_dgp, n=args.n,
        replications=args.reps, seed=args.seed, s_max=args.smax,
        min_leaf=args.min_leaf,
        dof_specs=tuple(specs) or (DofSpec.naive(),),
        allow_nonstandard=args.allow_custom,
    )
    if "mc-null" in spec_names or "mc-dgp" in spec_names:
        extra = []
        if "mc-null" in spec_names:
            extra.append(make_null_dof_spec(config, m=args.mc_m, runs=args.mc_runs,
                                            threads=threads))
        if "mc-dgp" in spec_names:
            extra.append(make_dgp_dof_spec(config, m=args.mc_m, runs=args.mc_runs,
                                           threads=threads))
        ordered = []
        for name in spec_names:
            if name in ("mc-null", "mc-dgp"):
                ordered.append(next(s for s in extra if s.name == name))
            else:
                ordered.append(next(s for s in specs if s.name == name))
        config = ScenarioConfig(
            scenario=args.scenario, s_dgp=args.s_dgp, n=args.n,
            replications=args.reps, seed=args.seed, s_max=args.smax,
            min_leaf=args.min_leaf, dof_specs=tuple(ordered),
            allow_nonstandard=args.allow_custom,
        )
    summary = run_simulation(config, threads=threads)
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
    if args.approach == "naive":
        value = dof_naive(args.p, args.s)
    elif args.approach == "mfp":
        value = dof_mfp(args.s, args.p, args.n)
    elif args.approach in ("table", "table-nearest"):
        table = McDofTable.load(args.table) if args.table else None
        mode = "exact" if args.approach == "table" else "nearest"
        if args.s == 0:
            value = float(args.p + 1)
        else:
            value = dof_table_lookup(args.p, args.n, args.s, mode=mode, table=table)
    else:
        raise ValidationError(f"unknown approach {args.approach!r}")
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
    q.add_argument("--dof", default="mfp",
                   choices=["naive", "mfp", "table", "table-nearest"])
    q.add_argument("--table", default=None, help="custom DoF grid CSV")
    q.add_argument("--out-model", default=None, help="write model JSON here")
    q.add_argument("--out-report", default=None, help="write BIC table CSV here")
    q.add_argument("--seed", type=int, default=0,
                   help="accepted for interface uniformity; fitting is deterministic")
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
                   help="comma list: naive, mfp, table, table-nearest, "
                        "mc-null, mc-dgp")
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
    q.add_argument("--approach", required=True,
                   choices=["naive", "mfp", "table", "table-nearest"])
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
    except OffGridError as exc:
        # a lookup miss on user-chosen coordinates is an input problem
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TsvcError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
