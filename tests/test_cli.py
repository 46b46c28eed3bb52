"""End-to-end coverage of the command line interface via main()."""

import csv
import io
import json
from importlib import resources

import numpy as np
import pytest

import tsvc.cli
import tsvc.errors
import tsvc.simulate
from tsvc.cli import main
from tsvc.dof import MFP_SURFACE, McDofTable, dof_mfp, reference_table
from tsvc.model import model_from_json, predict
from tsvc.simulate import dof_specs
from tsvc.selection import PruneReport


def _write_fit_csv(path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = 2.0 * X[:, 0] * (X[:, 1] > 0) + 0.1 * rng.normal(size=n)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "x1", "x2"])
        for i in range(n):
            writer.writerow([repr(float(y[i])), repr(float(X[i, 0])),
                             repr(float(X[i, 1]))])
    return X, y


def _surface_csv(path):
    a0, a_s, a_p, a_ps, a_psn = MFP_SURFACE
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["p", "n", "s", "dof"])
        for p in (2, 3, 4, 6, 10):
            for n in (100, 250, 500, 1000):
                for s in range(1, 6):
                    dof = a0 + a_s * s + a_p * p + a_ps * p * s + a_psn * p * s * n
                    writer.writerow([p, n, s, repr(dof)])


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_writes_model_and_report(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_fit_csv(data)
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.csv"
    rc = main(["fit", "--input", str(data), "--response", "y",
               "--smax", "3", "--dof", "naive",
               "--out-model", str(model_path),
               "--out-report", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("selected s = ")
    model = model_from_json(model_path.read_text())
    assert model.s >= 1
    report = PruneReport.from_csv_text(report_path.read_text())
    assert report.selected_s == model.s
    probe = np.array([[1.0, 1.0], [1.0, -1.0]])
    fitted = predict(model, probe)
    assert fitted.shape == (2,)


def test_fit_is_deterministic(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_fit_csv(data)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    before = data.read_bytes()
    assert main(["fit", "--input", str(data), "--response", "y",
                 "--out-model", str(out_a)]) == 0
    assert main(["fit", "--input", str(data), "--response", "y",
                 "--out-model", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert data.read_bytes() == before  # inputs are never rewritten


def test_fit_bad_inputs_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["fit", "--input", str(missing), "--response", "y"]) == 2

    data = tmp_path / "data.csv"
    _write_fit_csv(data)
    assert main(["fit", "--input", str(data), "--response", "z"]) == 2

    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1,x2\n1.0,oops,3.0\n")
    assert main(["fit", "--input", str(bad), "--response", "y"]) == 2

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["fit", "--input", str(empty), "--response", "y"]) == 2
    assert "error:" in capsys.readouterr().err


def test_fit_header_only_csv_exits_2(tmp_path, capsys):
    header = tmp_path / "header.csv"
    header.write_text("y,x1,x2\n")
    assert main(["fit", "--input", str(header), "--response", "y"]) == 2
    assert "no data rows" in capsys.readouterr().err


def test_fit_min_leaf_below_one_exits_2_without_a_step(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_fit_csv(data)
    assert main(["fit", "--input", str(data), "--response", "y",
                 "--smax", "0", "--min-leaf", "0"]) == 2
    assert "min_leaf must be >= 1, got 0" in capsys.readouterr().err


def test_fit_numeric_failures_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 2))

    const = tmp_path / "const.csv"
    with open(const, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "x1", "x2"])
        for i in range(40):
            writer.writerow([1.0, repr(float(X[i, 0])), repr(float(X[i, 1]))])
    assert main(["fit", "--input", str(const), "--response", "y"]) == 3

    degenerate = tmp_path / "zero.csv"
    with open(degenerate, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "x1", "x2"])
        for i in range(40):
            writer.writerow([repr(float(X[i, 0])), repr(float(X[i, 0])),
                             repr(float(2.0 * X[i, 0]))])
    assert main(["fit", "--input", str(degenerate), "--response", "y"]) == 3
    assert "numeric failure:" in capsys.readouterr().err


def test_fit_degenerate_columns_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 2))
    for name, x2, message in (("const.csv", np.full(40, 0.5), "'x2' is constant"),
                              ("dup.csv", X[:, 0], "'x2' duplicates column 'x1'")):
        path = tmp_path / name
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["y", "x1", "x2"])
            for i in range(40):
                writer.writerow([repr(float(X[i, 1])), repr(float(X[i, 0])),
                                 repr(float(x2[i]))])
        assert main(["fit", "--input", str(path), "--response", "y"]) == 2
        assert message in capsys.readouterr().err


def test_fit_cut_between_adjacent_floats_keeps_the_scored_split(tmp_path, capsys):
    # The midpoint of 1 + 2^-52 and 1 + 2^-51 rounds up to the upper value,
    # so ``x2 <= midpoint`` would send every row left of the scored cut.
    lower, upper = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
    rng = np.random.default_rng(0)
    x2 = np.concatenate([rng.uniform(-3.0, 0.5, 9), [lower] * 3, [upper] * 3])
    x1 = rng.normal(size=x2.size)
    y = x1 * np.where(x2 > lower, 5.0, -1.0) + 0.01 * rng.normal(size=x2.size)
    data = tmp_path / "adjacent.csv"
    with open(data, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "x1", "x2"])
        writer.writerows([repr(float(v)) for v in row] for row in zip(y, x1, x2))
    model_path = tmp_path / "model.json"
    assert main(["fit", "--input", str(data), "--response", "y", "--min-leaf", "3",
                 "--out-model", str(model_path)]) == 0
    capsys.readouterr()
    model = model_from_json(model_path.read_text())
    root = model.trees[0].root
    assert root.modifier == 1
    assert lower <= root.threshold < upper


# ---------------------------------------------------------------------------
# mc-dof
# ---------------------------------------------------------------------------

def test_mc_dof_stdout_csv_and_repeatability(capsys):
    argv = ["mc-dof", "--n", "40", "--p", "2", "--smax", "1",
            "--m", "5", "--runs", "1", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    table = McDofTable.from_csv_text(first)
    assert table.lookup(2, 40, 1) > 0
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_mc_dof_out_file(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["mc-dof", "--n", "40", "--p", "2", "--smax", "2",
               "--m", "4", "--runs", "2", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("s = 1: dof = ")
    table = McDofTable.load(out)
    assert {row[2] for row in table.rows} == {1, 2}


def test_mc_dof_without_any_split_exits_2(tmp_path, capsys):
    # too few rows for two leaves of min_leaf, and a lone covariate
    # without a modifier: an error, not a header-only grid
    for n, p in (("15", "2"), ("40", "1")):
        out = tmp_path / f"grid-{n}-{p}.csv"
        assert main(["mc-dof", "--n", n, "--p", p, "--smax", "3", "--m", "3",
                     "--runs", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"n = {n}, p = {p}, min_leaf = 10" in err
        assert not out.exists()


def test_mc_dof_rejects_single_replicate():
    assert main(["mc-dof", "--n", "40", "--p", "2", "--m", "1",
                 "--runs", "1"]) == 2


# ---------------------------------------------------------------------------
# derive-formula
# ---------------------------------------------------------------------------

def test_derive_formula_recovers_exact_surface(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    _surface_csv(grid)
    out_json = tmp_path / "formula.json"
    rc = main(["derive-formula", "--table", str(grid),
               "--out-json", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("dof ~ 2.13")
    assert "r_squared = 1.0000" in out
    payload = json.loads(out_json.read_text())
    assert payload["excluded"] == ["n"]
    pairs = {tuple(sorted(i["covariates"])) for i in payload["interactions"]}
    assert pairs == {("p", "s"), ("n", "p", "s")}


def test_derive_formula_input_errors(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("p,n,s,dof\n2,100,1,7.4\n2,100,2,10.1\n2,100,3,12.5\n")
    assert main(["derive-formula", "--table", str(short)]) == 2

    nocol = tmp_path / "nocol.csv"
    nocol.write_text("p,n,s\n2,100,1\n")
    assert main(["derive-formula", "--table", str(nocol)]) == 2
    capsys.readouterr()


def test_derive_formula_reads_columns_by_name(tmp_path, capsys):
    texts = []
    for p in (2, 3, 4, 5):
        for n in (40, 60):
            out = tmp_path / f"cell_{p}_{n}.csv"
            assert main(["mc-dof", "--n", str(n), "--p", str(p), "--smax", "3",
                         "--m", "4", "--runs", "2", "--min-leaf", "5", "--seed", "1",
                         "--out", str(out)]) == 0
            texts.append(out.read_text())
    grid = tmp_path / "grid.csv"
    grid.write_text(texts[0] + "".join(t.split("\n", 1)[1] for t in texts[1:]))
    table = McDofTable.load(grid)
    reordered = tmp_path / "reordered.csv"
    with open(reordered, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["dof", "s", "n", "p"])
        writer.writerows([repr(dof), s, n, p] for p, n, s, dof, _ in table.rows)
    payloads = []
    for path in (grid, reordered):
        out_json = tmp_path / f"{path.stem}.json"
        assert main(["derive-formula", "--table", str(path),
                     "--out-json", str(out_json)]) == 0
        payloads.append(out_json.read_text())
    capsys.readouterr()
    assert payloads[0] == payloads[1]


def test_derive_formula_refuses_non_integer_cells(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    _surface_csv(grid)
    lines = grid.read_text().splitlines()
    assert lines[1].startswith("2,")
    lines[1] = "2.0" + lines[1][1:]
    grid.write_text("\n".join(lines) + "\n")
    assert main(["derive-formula", "--table", str(grid)]) == 2
    assert f"error: {grid}: bad table row ['2.0'," in capsys.readouterr().err


def test_derive_formula_refuses_a_grid_too_small_to_test(tmp_path, capsys):
    # dof scaled by 2^-540: the rss floor of the closed test underflows,
    # so the command exits 2 instead of selecting nothing or crashing
    grid = tmp_path / "tiny.csv"
    with open(grid, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["p", "n", "s", "dof"])
        for p, n, s, dof, _ in reference_table().rows:
            writer.writerow([p, n, s, repr(float(np.ldexp(dof, -540)))])
    assert main(["derive-formula", "--table", str(grid)]) == 2
    assert "rescale y" in capsys.readouterr().err


def test_derive_formula_on_packaged_grid(tmp_path, capsys):
    from importlib.resources import files

    text = files("tsvc").joinpath("data/mc_dof_table.csv").read_text()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    grid = tmp_path / "packaged.csv"
    with open(grid, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["p", "n", "s", "dof"])
        for line in reader:
            writer.writerow(line[:4])
    assert header[:4] == ["p", "n", "s", "dof"]
    assert main(["derive-formula", "--table", str(grid)]) == 0
    out = capsys.readouterr().out
    r_squared = float(out.splitlines()[-1].split("=")[1])
    assert r_squared >= 0.95


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_stdout_summary(capsys):
    rc = main(["simulate", "--scenario", "1", "--s-dgp", "1", "--n", "100",
               "--reps", "2", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(out))
    rows = list(reader)
    assert [row["dof_approach"] for row in rows] == ["naive", "mfp"]
    assert rows[0]["replications"] == "2"


def test_simulate_out_and_raw_files(tmp_path, capsys):
    out = tmp_path / "summary.csv"
    raw = tmp_path / "raw.csv"
    rc = main(["simulate", "--scenario", "1", "--s-dgp", "0", "--n", "100",
               "--reps", "2", "--seed", "5", "--dof", "naive",
               "--out", str(out), "--raw", str(raw)])
    assert rc == 0
    assert "naive: mean splits = " in capsys.readouterr().out
    assert out.read_text().splitlines()[0].startswith("scenario,")
    raw_lines = raw.read_text().splitlines()
    assert len(raw_lines) == 1 + 2  # header + reps x 1 approach


def test_simulate_monte_carlo_dof_source(tmp_path):
    out = tmp_path / "summary.csv"
    rc = main(["simulate", "--scenario", "1", "--s-dgp", "0", "--n", "64",
               "--reps", "1", "--smax", "1", "--allow-custom",
               "--dof", "mc-null", "--mc-m", "4", "--mc-runs", "1",
               "--out", str(out)])
    assert rc == 0
    reader = csv.DictReader(io.StringIO(out.read_text()))
    assert [row["dof_approach"] for row in reader] == ["mc-null"]


def test_simulate_keeps_dof_source_order(tmp_path, monkeypatch, capsys):
    configs = []

    def recording_run_simulation(config, threads=1):
        configs.append(config)
        return tsvc.simulate.run_simulation(config, threads=threads)

    monkeypatch.setattr(tsvc.cli, "run_simulation", recording_run_simulation)
    out = tmp_path / "summary.csv"
    assert main(["simulate", "--scenario", "1", "--s-dgp", "1", "--n", "64",
                 "--reps", "1", "--smax", "2", "--allow-custom", "--seed", "3",
                 "--dof", "mfp,mc-dgp,naive,mc-null", "--mc-m", "4", "--mc-runs", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    order = ["mfp", "mc-dgp", "naive", "mc-null"]
    reader = csv.DictReader(io.StringIO(out.read_text()))
    assert [row["dof_approach"] for row in reader] == order
    (config,) = configs
    specs = dict(zip(order, config.dof_specs))
    assert [spec.name for spec in config.dof_specs] == order
    assert specs["mc-dgp"].table == dof_specs(config, "mc-dgp", m=4, runs=2)[0].table
    assert specs["mc-null"].table == dof_specs(config, "mc-null", m=4, runs=2)[0].table


def test_simulate_checks_every_name_before_monte_carlo(tmp_path, monkeypatch, capsys):
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the DoF sources were checked")

    monkeypatch.setattr(tsvc.simulate, "mc_dof", no_monte_carlo)
    monkeypatch.setattr(tsvc.cli, "mc_dof", no_monte_carlo)
    base = ["simulate", "--scenario", "1", "--s-dgp", "1", "--n", "100", "--reps", "1"]
    missing = ["--table", str(tmp_path / "missing.csv")]
    every = "choose from naive, mfp, table, table-nearest, mc-null, mc-dgp"
    for dof, message in ((["mc-null,mc-null"], "must be unique"),
                         (["mc-dgp,naive,mfp,naive"], "must be unique"),
                         (["mc-null,bogus"], "unknown DoF source 'bogus'"),
                         (["foo"], f"unknown DoF source 'foo'; {every}"),
                         (["mc-dgp,table"] + missing, "cannot read"),
                         # names are checked before the grid file is read
                         (["table,naive,naive"] + missing, "must be unique"),
                         (["table,foo"] + missing, "unknown DoF source 'foo'")):
        assert main(base + ["--dof"] + dof) == 2
        assert message in capsys.readouterr().err


def test_simulate_reads_the_table_once_for_every_table_source(tmp_path, monkeypatch, capsys):
    # the file holds the packaged grid, so the outputs equal those without it
    grid = tmp_path / "grid.csv"
    grid.write_text(resources.files("tsvc").joinpath("data/mc_dof_table.csv").read_text())
    loads = []
    load = McDofTable.load

    def counted(path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(McDofTable, "load", staticmethod(counted))
    argv = ["simulate", "--scenario", "1", "--s-dgp", "1", "--n", "100", "--reps", "2",
            "--dof", "naive,table,table-nearest"]
    outputs = []
    for table in ([], ["--table", str(grid)]):
        out, raw = tmp_path / f"out{len(table)}.csv", tmp_path / f"raw{len(table)}.csv"
        assert main(argv + table + ["--out", str(out), "--raw", str(raw)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes(), raw.read_bytes()))
    assert loads == [str(grid)]
    assert outputs[0] == outputs[1]


def test_simulate_input_errors(capsys):
    base = ["simulate", "--scenario", "1", "--n", "100", "--reps", "1"]
    assert main(base + ["--s-dgp", "9"]) == 2
    assert main(base + ["--s-dgp", "1", "--dof", "bogus"]) == 2
    assert main(base + ["--s-dgp", "1", "--n", "64"]) == 2  # off-menu n
    capsys.readouterr()


# ---------------------------------------------------------------------------
# dof
# ---------------------------------------------------------------------------

def test_dof_values_match_library(capsys):
    assert main(["dof", "--approach", "naive", "--s", "3", "--p", "2"]) == 0
    assert float(capsys.readouterr().out) == 6.0

    assert main(["dof", "--approach", "mfp", "--s", "2", "--p", "4",
                 "--n", "250"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(dof_mfp(2, 4, 250))

    assert main(["dof", "--approach", "table", "--s", "1", "--p", "2",
                 "--n", "100"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(
        reference_table().lookup(2, 100, 1))

    assert main(["dof", "--approach", "table", "--s", "0", "--p", "4",
                 "--n", "100"]) == 0
    assert float(capsys.readouterr().out) == 5.0

    assert main(["dof", "--approach", "table-nearest", "--s", "1", "--p", "2",
                 "--n", "550"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(
        reference_table().lookup(2, 550, 1, nearest=True))


def test_dof_prints_what_pruning_charges(capsys):
    # s = 0 costs p + 1 under every source, whatever n is
    for approach in ("naive", "mfp", "table", "table-nearest"):
        assert main(["dof", "--approach", approach, "--s", "0", "--p", "3",
                     "--n", "0"]) == 0
        assert capsys.readouterr().out == "4.0\n"
    # the arguments are checked before that shortcut
    for approach in ("naive", "mfp", "table", "table-nearest"):
        assert main(["dof", "--approach", approach, "--s", "0", "--p", "-5"]) == 2
        assert "p must be >= 1, got -5" in capsys.readouterr().err
        assert main(["dof", "--approach", approach, "--s", "-1", "--p", "2"]) == 2
        assert "s must be >= 0, got -1" in capsys.readouterr().err


def test_dof_table_nearest_refuses_impossible_cells(capsys):
    for n in ("-500", "0"):
        assert main(["dof", "--approach", "table-nearest", "--s", "1", "--p", "2",
                     "--n", n]) == 2
        assert f"need p >= 1 and n >= 1, got p = 2, n = {n}" in capsys.readouterr().err
    # --n defaults to 0, which only the table sources need to refuse
    assert main(["dof", "--approach", "naive", "--s", "1", "--p", "2"]) == 0
    assert capsys.readouterr().out == "4.0\n"


def test_missing_table_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    data = tmp_path / "data.csv"
    _write_fit_csv(data)
    commands = (
        ["fit", "--input", str(data), "--response", "y", "--dof", "table",
         "--table", missing],
        ["dof", "--approach", "table", "--s", "1", "--p", "2", "--n", "100",
         "--table", missing],
        ["simulate", "--scenario", "1", "--s-dgp", "1", "--n", "100", "--reps", "1",
         "--dof", "naive,table", "--table", missing],
        ["derive-formula", "--table", missing],
    )
    for argv in commands:
        assert main(argv) == 2
        assert f"error: cannot read {missing}" in capsys.readouterr().err


def test_only_the_table_sources_read_the_table(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["dof", "--approach", "naive", "--s", "1", "--p", "2",
                 "--table", missing]) == 0
    assert capsys.readouterr().out == "4.0\n"
    assert main(["dof", "--approach", "table", "--s", "1", "--p", "2",
                 "--table", missing]) == 2
    assert f"error: cannot read {missing}" in capsys.readouterr().err

    # mfp never looks the grid up, so not even a malformed one is parsed
    data = tmp_path / "data.csv"
    _write_fit_csv(data)
    grid = tmp_path / "grid.csv"
    grid.write_text("not,a,grid\n")
    fit = ["fit", "--input", str(data), "--response", "y", "--smax", "2"]
    assert main(fit + ["--dof", "mfp"]) == 0
    without = capsys.readouterr().out
    assert main(fit + ["--dof", "mfp", "--table", str(grid)]) == 0
    assert capsys.readouterr().out == without
    assert main(fit + ["--dof", "table", "--table", str(grid)]) == 2
    assert f"error: {grid}: " in capsys.readouterr().err


def test_fit_of_a_tiny_or_a_huge_response(tmp_path, capsys):
    # y * 2^-60 fits as y does; y * 1e153 overflows the split gains and is
    # refused as input, with no traceback
    X, y = _write_fit_csv(tmp_path / "data.csv", n=80)
    outputs = {}
    for label, scaled in (("plain", y), ("tiny", np.ldexp(y, -60)), ("huge", y * 1e153)):
        path = tmp_path / f"{label}.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["y", "x1", "x2"])
            writer.writerows([repr(float(a)), repr(float(b)), repr(float(c))]
                             for a, b, c in zip(scaled, X[:, 0], X[:, 1]))
        code = main(["fit", "--input", str(path), "--response", "y"])
        outputs[label] = (code, capsys.readouterr())
    assert outputs["plain"][0] == outputs["tiny"][0] == 0
    plain, tiny = (outputs[label][1].out.splitlines()[0] for label in ("plain", "tiny"))
    assert tiny.split("bic =")[0] == plain.split("bic =")[0]
    code, captured = outputs["huge"]
    assert code == 2
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["fit", "derive-formula"])
def test_csv_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, command):
    # spreadsheet exports start UTF-8 files with a byte-order mark (BOM);
    # it is not part of the first column's name
    plain = tmp_path / "plain.csv"
    if command == "fit":
        _write_fit_csv(plain)
    else:
        _surface_csv(plain)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, bom):
        out = tmp_path / f"{path.stem}.out"
        argv = (["fit", "--input", str(path), "--response", "y", "--out-model", str(out)]
                if command == "fit" else
                ["derive-formula", "--table", str(path), "--out-json", str(out)])
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_csv_that_is_not_utf8_exits_2(tmp_path, capsys):
    latin = tmp_path / "latin.csv"
    latin.write_bytes("y,xé\n1.0,2.0\n".encode("latin-1"))
    for argv in (["fit", "--input", str(latin), "--response", "y"],
                 ["derive-formula", "--table", str(latin)]):
        assert main(argv) == 2
        assert f"error: cannot read {latin}" in capsys.readouterr().err


def _edit_row(lines, edit):
    return lines[:3] + [edit(lines[3])] + lines[4:]


# each case: the file to read, an edit of its lines and the error it must give
_MALFORMED_INPUTS = {
    "response_named_twice": ("data", lambda lines: ["y,x1,y,x2"] + [
        f"{line},{k}" for k, line in enumerate(lines[1:])], "CSV repeats column(s) y"),
    "data_row_short": ("data", lambda lines: _edit_row(lines, lambda r: r.rsplit(",", 1)[0]),
                       "bad table row"),
    "data_row_long": ("data", lambda lines: _edit_row(lines, lambda r: r + ",1.0"),
                      "bad table row"),
    "grid_row_long": ("grid", lambda lines: _edit_row(lines, lambda r: r + ",1.0"),
                      "bad table row"),
    "grid_header_repeats": ("grid", lambda lines: ["p,n,s,dof,dof"] + [
        line + "," + line.rsplit(",", 1)[1] for line in lines[1:]],
        "CSV repeats column(s) dof"),
    "grid_cell_repeats": ("grid", lambda lines: lines + [lines[1][:-1] + "9"],
                          "table repeats cell (p=2, n=100, s=1)"),
    "grid_dof_not_finite": ("grid", lambda lines: _edit_row(
        lines, lambda r: r.rsplit(",", 1)[0] + ",nan"), "table cell (p=2, n=100, s=3) has dof = nan"),
    "data_value_without_name": ("data", lambda lines: ["y,,x2"] + lines[1:],
                                "CSV column 2 has no name but holds"),
    "grid_dof_not_positive": ("grid", lambda lines: _edit_row(
        lines, lambda r: r.rsplit(",", 1)[0] + ",-1.0"),
        "table cell (p=2, n=100, s=3) has dof = -1.0, but a DoF must be > 0"),
    "grid_cell_off_grid": ("grid", lambda lines: lines + ["2,100,0,4.0"],
                           "table cell (p=2, n=100, s=0) is not a grid cell: "
                           "p, n and s must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_malformed_csv_exits_2_with_one_error_line(tmp_path, capsys, case):
    kind, edit, message = _MALFORMED_INPUTS[case]
    path = tmp_path / f"{kind}.csv"
    if kind == "data":
        _write_fit_csv(path)
        argv = ["fit", "--input", str(path), "--response", "y"]
    else:
        _surface_csv(path)
        argv = ["derive-formula", "--table", str(path)]
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, flag", [
    ("fit", "--out-model"), ("fit", "--out-report"), ("mc-dof", "--out"),
    ("simulate", "--out"), ("simulate", "--raw"), ("derive-formula", "--out-json"),
])
def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys, command, flag):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before the output paths were checked")

    for name in ("mc_dof", "derive_dof_formula", "run_simulation"):
        monkeypatch.setattr(tsvc.cli, name, no_work)
    data, grid = tmp_path / "data.csv", tmp_path / "grid.csv"
    _write_fit_csv(data)
    _surface_csv(grid)
    argv = {
        "fit": ["fit", "--input", str(data), "--response", "y", "--smax", "1"],
        "mc-dof": ["mc-dof", "--n", "40", "--p", "2", "--smax", "1", "--m", "3",
                   "--runs", "1"],
        "simulate": ["simulate", "--scenario", "1", "--s-dgp", "0", "--n", "100",
                     "--reps", "1", "--dof", "naive"],
        "derive-formula": ["derive-formula", "--table", str(grid)],
    }[command]
    model = tmp_path / "model.json"
    if flag == "--out-report":  # the model would be written first
        argv += ["--out-model", str(model)]
    for out in (tmp_path / "missing" / "out", tmp_path):
        assert main(argv + [flag, str(out)]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("command, first, second", [
    ("fit", "--out-model", "--out-report"), ("simulate", "--out", "--raw"),
])
def test_two_outputs_to_one_file_exit_2(tmp_path, monkeypatch, capsys, command, first, second):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before the output paths were checked")

    for name in ("fit_path", "run_simulation"):
        monkeypatch.setattr(tsvc.cli, name, no_work)
    data = tmp_path / "data.csv"
    _write_fit_csv(data)
    argv = {
        "fit": ["fit", "--input", str(data), "--response", "y", "--smax", "1"],
        "simulate": ["simulate", "--scenario", "1", "--s-dgp", "0", "--n", "100",
                     "--reps", "1", "--dof", "naive"],
    }[command]
    out = tmp_path / "out"
    (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
    for alias in (out, tmp_path / "link" / "out"):  # one spelling, then through a link
        assert main(argv + [first, str(out), second, str(alias)]) == 2
        assert capsys.readouterr().err == (f"error: cannot write {alias}: "
                                           f"it is the same file as {out}\n")
    assert not out.exists()


def test_fit_ignores_spaces_around_cells_and_blank_lines(tmp_path, capsys):
    clean = tmp_path / "clean.csv"
    _write_fit_csv(clean)
    loose = tmp_path / "loose.csv"
    loose.write_text("".join(" " + line.replace(",", " ,  ") + "\t\n\n"
                             for line in clean.read_text().splitlines()))
    trailing = tmp_path / "trailing.csv"  # a blank last column, as spreadsheets export
    trailing.write_text("".join(line + ",\n" for line in clean.read_text().splitlines()))
    outputs = []
    for path in (clean, loose, trailing):
        model, report = tmp_path / f"{path.stem}.json", tmp_path / f"{path.stem}.csv.out"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--out-model", str(model), "--out-report", str(report)]) == 0
        outputs.append((capsys.readouterr().out, model.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_dof_off_grid_exits_2(capsys):
    assert main(["dof", "--approach", "table", "--s", "1", "--p", "2",
                 "--n", "0"]) == 2
    assert main(["dof", "--approach", "table", "--s", "1", "--p", "5",
                 "--n", "100"]) == 2
    capsys.readouterr()


def test_dof_refuses_a_grid_cell_no_dof_can_have(tmp_path, capsys):
    # it printed -1.0 and exited 0, where fit's pruning refused that cell
    grid = tmp_path / "grid.csv"
    grid.write_text("p,n,s,dof\n2,100,1,-1.0\n")
    assert main(["dof", "--approach", "table", "--s", "1", "--p", "2", "--n", "100",
                 "--table", str(grid)]) == 2
    assert capsys.readouterr() == ("", f"error: {grid}: table cell (p=2, n=100, s=1) "
                                       f"has dof = -1.0, but a DoF must be > 0\n")


@pytest.mark.parametrize("name", sorted(
    name for name, cls in vars(tsvc.errors).items()
    if isinstance(cls, type) and issubclass(cls, tsvc.errors.TsvcError)
    and cls is not tsvc.errors.TsvcError))
def test_exit_code_follows_the_error_type(monkeypatch, capsys, name):
    cls = getattr(tsvc.errors, name)

    def fail(args):
        raise cls("stub")

    monkeypatch.setattr(tsvc.cli, "cmd_dof", fail)
    code = main(["dof", "--approach", "naive", "--s", "1", "--p", "2"])
    if issubclass(cls, tsvc.errors.ValidationError):
        assert (code, capsys.readouterr().err) == (2, "error: stub\n")
    else:
        assert (code, capsys.readouterr().err) == (3, "numeric failure: stub\n")


# ---------------------------------------------------------------------------
# thread environment variable
# ---------------------------------------------------------------------------

def test_threads_env_parsing(monkeypatch, capsys):
    argv = ["mc-dof", "--n", "40", "--p", "2", "--smax", "1",
            "--m", "4", "--runs", "2", "--seed", "11"]
    assert main(argv) == 0
    baseline = capsys.readouterr().out

    monkeypatch.setenv("TSVC_THREADS", "2")
    assert main(argv) == 0
    assert capsys.readouterr().out == baseline

    monkeypatch.setenv("TSVC_THREADS", "")
    assert main(argv) == 0
    assert capsys.readouterr().out == baseline

    # a bad value is refused as --threads is, naming the variable
    for value in ("not-a-number", "0", "-3"):
        monkeypatch.setenv("TSVC_THREADS", value)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"TSVC_THREADS must be >= 1, got {value}" in captured.err

    # the flag, when given, wins over the variable
    assert main(argv + ["--threads", "1"]) == 0
    assert capsys.readouterr().out == baseline


def test_threads_flag_must_be_positive(capsys):
    commands = (["mc-dof", "--n", "40", "--p", "2", "--smax", "1", "--m", "4",
                 "--runs", "2"],
                ["simulate", "--scenario", "1", "--s-dgp", "0", "--n", "100",
                 "--reps", "2"])
    for argv in commands:
        for value in ("0", "-3"):
            assert main(argv + ["--threads", value]) == 2
            assert f"--threads must be >= 1, got {value}" in capsys.readouterr().err
