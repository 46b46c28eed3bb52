"""Degrees-of-freedom calculators: formula, Monte-Carlo, reference grid."""

import pickle

import numpy as np
import pytest

from tsvc._io import read_csv
from tsvc.core import Dataset, solve_least_squares
from tsvc.dof import (
    DofSpec,
    McDofConfig,
    McDofTable,
    TsvcPathFitter,
    _mc_dof_run,
    dof_mfp,
    dof_naive,
    mc_dof,
    reference_table,
)
from tsvc.errors import (
    DomainError,
    MissingDofError,
    OffGridError,
    ValidationError,
)
from tsvc.cli import main
from tsvc.model import TsvcModel
from tsvc.simulate import ScenarioConfig, run_simulation
from tsvc.tree import fit_path


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_dof_naive_values():
    assert dof_naive(2, 1) == 4.0
    assert dof_naive(10, 5) == 16.0
    assert dof_naive(1, 0) == 2.0


def test_dof_naive_domain():
    with pytest.raises(DomainError):
        dof_naive(0, 1)
    with pytest.raises(DomainError):
        dof_naive(2, -1)


def test_dof_mfp_values():
    assert dof_mfp(1, 2, 100) == pytest.approx(7.922, abs=1e-9)
    assert dof_mfp(5, 10, 1000) == pytest.approx(63.33, abs=1e-9)
    assert dof_mfp(0, 4, 2985) == 5.0


def test_dof_mfp_domain():
    with pytest.raises(DomainError):
        dof_mfp(1, 1, 100)
    with pytest.raises(DomainError):
        dof_mfp(-1, 2, 100)
    with pytest.raises(DomainError):
        dof_mfp(1, 2, 0)


def test_dof_mfp_strictly_increasing():
    for args, bumped in [
        ((1, 2, 100), (2, 2, 100)),
        ((3, 4, 400), (3, 6, 400)),
        ((3, 4, 400), (3, 4, 700)),
    ]:
        assert dof_mfp(*bumped) > dof_mfp(*args)


def test_dof_mfp_per_split_increment_exceeds_one():
    for p in (2, 5, 10):
        for n in (1, 100, 1000):
            for s in (1, 3):
                inc = dof_mfp(s + 1, p, n) - dof_mfp(s, p, n)
                assert inc > 1.0


# ---------------------------------------------------------------------------
# Monte-Carlo estimator
# ---------------------------------------------------------------------------

class OlsFitter:
    """Non-adaptive 3-parameter projection; its DoF is its trace."""

    def __call__(self, Y, X):
        design = np.column_stack([np.ones(len(X)), X])
        return [{1: fit.fitted} for fit in solve_least_squares(design, Y)]


def test_mc_dof_config_validation():
    with pytest.raises(ValidationError):
        McDofConfig(m=1)
    with pytest.raises(ValidationError):
        McDofConfig(runs=0)
    with pytest.raises(ValidationError):
        McDofConfig(s_max=0)


def test_mc_dof_config_refuses_a_negative_seed():
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        McDofConfig(seed=-1)


def test_mc_dof_config_compares_by_value():
    assert McDofConfig(m=3) == McDofConfig(m=3)
    assert McDofConfig(m=3) != McDofConfig(m=4)


def test_mc_dof_of_fixed_projection_is_parameter_count():
    config = McDofConfig(m=300, runs=2, s_max=1, seed=1)
    result = mc_dof(n=60, p=2, config=config, fitter=OlsFitter())
    _, _, s, dof, se = result.rows[0]
    assert s == 1
    assert dof == pytest.approx(3.0, abs=max(3 * se, 0.45))


def test_mc_dof_deterministic_and_thread_independent():
    config = McDofConfig(m=20, runs=3, s_max=2, min_leaf=8, seed=42)
    a = mc_dof(n=40, p=2, config=config, threads=1)
    b = mc_dof(n=40, p=2, config=config, threads=2)
    c = mc_dof(n=40, p=2, config=config, threads=1)
    assert a.rows == b.rows == c.rows
    assert a.to_csv() == b.to_csv()


def test_mc_dof_rejects_thread_counts_below_one():
    config = McDofConfig(m=2, runs=1, s_max=1, min_leaf=8, seed=1)
    for threads in (0, -2):
        with pytest.raises(ValidationError, match="threads"):
            mc_dof(n=40, p=2, config=config, threads=threads)


def test_mc_dof_exceeds_naive_for_searching_fitter():
    config = McDofConfig(m=40, runs=2, s_max=2, min_leaf=10, seed=3)
    result = mc_dof(n=60, p=2, config=config)
    for _, _, s, dof, _ in result.rows:
        assert dof > dof_naive(2, s)


def test_mc_dof_records_short_paths():
    # min_leaf 18 on n = 40 allows one split at most, so s = 2 is never
    # reached and the result only carries s = 1
    config = McDofConfig(m=10, runs=1, s_max=3, min_leaf=18, seed=4)
    result = mc_dof(n=40, p=2, config=config)
    reached = {s for _, _, s, _, _ in result.rows}
    assert 1 in reached and 3 not in reached
    with pytest.raises(MissingDofError):
        result.lookup(2, 40, 3)


def test_mc_dof_single_run_has_zero_se():
    config = McDofConfig(m=15, runs=1, s_max=1, min_leaf=10, seed=5)
    result = mc_dof(n=40, p=2, config=config)
    assert result.rows[0][4] == 0.0


def test_mc_dof_without_any_split_is_an_error():
    # n < 2 * min_leaf leaves no leaf to split, and a single covariate
    # has no modifier: no replicate reaches s = 1
    for n, p in ((15, 2), (40, 1)):
        config = McDofConfig(m=3, runs=2, s_max=3, min_leaf=10, seed=0)
        with pytest.raises(ValidationError, match=f"n = {n}, p = {p}, min_leaf = 10"):
            mc_dof(n=n, p=p, config=config)


def test_mc_dof_refuses_a_fitter_that_returns_too_few_fits():
    config = McDofConfig(m=3, runs=1, s_max=1, seed=0)
    with pytest.raises(ValidationError, match="returned 1 fits for 3 responses"):
        mc_dof(n=20, p=2, config=config, fitter=lambda Y, X: [{1: Y[0]}])


def test_only_the_selected_models_are_built(monkeypatch, tmp_path, capsys):
    # mc_dof reads each step's fitted values and builds no model; fit
    # builds the one it selects, simulate one per replicate and selected
    # s, shared by the DoF sources that select the same s
    built = []
    from_fit = TsvcModel.from_fit.__func__

    def counted(cls, *args):
        built.append(args)
        return from_fit(cls, *args)

    monkeypatch.setattr(TsvcModel, "from_fit", classmethod(counted))
    mc_dof(60, 3, McDofConfig(m=3, runs=2, s_max=2))
    assert len(built) == 0

    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 2))
    data = tmp_path / "data.csv"
    y = X[:, 0] * (X[:, 1] > 0) + 0.1 * rng.standard_normal(60)
    np.savetxt(data, np.column_stack([y, X]), delimiter=",",
               header="y,x1,x2", comments="")
    assert main(["fit", "--input", str(data), "--response", "y", "--smax", "3"]) == 0
    assert len(built) == 1

    config = ScenarioConfig(scenario=1, s_dgp=1, n=100, replications=6, seed=3)
    selected = {(rec.replicate, rec.selected_s)
                for rec in run_simulation(config, threads=1).records}
    assert len(selected) < config.replications * len(config.dof_specs)
    assert len(built) == 1 + len(selected)


class PathLoopFitter:
    """The default fitter's reference: one ``fit_path`` per response,
    not the paths of a run grown in lockstep.  ``short`` counts the paths
    that stopped before s_max."""

    def __init__(self, s_max, min_leaf):
        self.s_max, self.min_leaf = s_max, min_leaf
        self.short = 0

    def __call__(self, Y, X):
        paths = [fit_path(Dataset.from_arrays(y, X), self.s_max, self.min_leaf) for y in Y]
        self.short += sum(len(path.fits) < self.s_max + 1 for path in paths)
        return [{s: fit.fitted for s, fit in enumerate(path.fits) if s >= 1} for path in paths]


def _tied_design(n, p, seed):
    return np.random.default_rng(seed).integers(0, 4, size=(n, p)).astype(float)


@pytest.mark.parametrize("n, p, s_max, min_leaf, tied", [
    (40, 2, 3, 8, False),
    (60, 4, 5, 5, False),
    (100, 10, 5, 10, False),
    (31, 2, 5, 9, False),   # short paths
    (50, 3, 4, 4, True),    # a supplied X with tied integer values
])
def test_mc_dof_lockstep_runs_equal_the_replicate_loop(n, p, s_max, min_leaf, tied):
    config = McDofConfig(m=6, runs=3, s_max=s_max, min_leaf=min_leaf, seed=n + p)
    X = _tied_design(n, p, seed=p) if tied else None
    mu = np.zeros(n)
    loop_fitter = PathLoopFitter(s_max, min_leaf)
    for run in range(config.runs):
        args = (n, p, config.seed, run, config.m, mu, X)
        lockstep = _mc_dof_run(args + (TsvcPathFitter(s_max, min_leaf),))
        loop = _mc_dof_run(args + (loop_fitter,))
        assert lockstep == loop
    a = mc_dof(n, p, config, X=X)
    b = mc_dof(n, p, config, fitter=PathLoopFitter(s_max, min_leaf), X=X)
    assert a.rows == b.rows
    if (n, p) == (31, 2):
        assert loop_fitter.short > 0


def test_mc_dof_fixed_truth_is_checked_and_shared_by_every_fitter():
    config = McDofConfig(m=4, runs=2, s_max=3, min_leaf=6, seed=11)
    X = _tied_design(40, 3, seed=12)
    mu = 3.0 * (X[:, 1] > 1.0) * X[:, 0]
    with pytest.raises(ValidationError, match="mu must have shape"):
        mc_dof(40, 3, config, X=X, mu=mu[:-1])
    shifted = mc_dof(40, 3, config, X=X, mu=mu)
    loop = mc_dof(40, 3, config, fitter=PathLoopFitter(3, 6), X=X, mu=mu)
    assert shifted.rows == loop.rows
    assert shifted.rows != mc_dof(40, 3, config, X=X).rows


def test_mc_dof_lockstep_is_thread_independent():
    config = McDofConfig(m=5, runs=3, s_max=4, min_leaf=5, seed=8)
    X = _tied_design(48, 3, seed=9)
    one = mc_dof(48, 3, config, X=X, threads=1)
    two = mc_dof(48, 3, config, X=X, threads=2)
    loop = mc_dof(48, 3, config, fitter=PathLoopFitter(4, 5), X=X, threads=2)
    assert one.rows == two.rows == loop.rows
    assert one.to_csv() == two.to_csv()


def test_mc_dof_csv_round_trips_into_table():
    # the grid mc_dof builds is the one its CSV reads back, bit for bit
    config = McDofConfig(m=15, runs=2, s_max=2, min_leaf=8, seed=6)
    grid = mc_dof(n=40, p=2, config=config)
    table = McDofTable.from_csv_text(grid.to_csv())
    assert table == grid
    assert [tuple(map(repr, row)) for row in grid.rows] \
        == [tuple(map(repr, row)) for row in table.rows]
    for _, _, s, dof, _ in grid.rows:
        assert table.lookup(2, 40, s) == dof


def test_path_fitter_is_picklable():
    fitter = TsvcPathFitter(s_max=3, min_leaf=7)
    clone = pickle.loads(pickle.dumps(fitter))
    assert clone == fitter


# ---------------------------------------------------------------------------
# reference grid
# ---------------------------------------------------------------------------

def test_reference_table_shape_and_anchors():
    table = reference_table()
    assert len(table.rows) == 100
    cells = {(p, n, s) for p, n, s, _, _ in table.rows}
    assert cells == {(p, n, s)
                     for p in (2, 4, 6, 8, 10)
                     for n in (100, 400, 700, 1000)
                     for s in (1, 2, 3, 4, 5)}
    assert table.lookup(6, 400, 3) == pytest.approx(31.66)
    assert table.lookup(2, 1000, 5) == pytest.approx(19.82)


def test_reference_table_monotone_in_s():
    table = reference_table()
    series = {}
    for p, n, s, dof, _ in table.rows:
        series.setdefault((p, n), {})[s] = dof
    for values in series.values():
        ordered = [values[s] for s in sorted(values)]
        assert ordered == sorted(ordered)


def test_lookup_exact_misses_off_grid():
    with pytest.raises(OffGridError):
        reference_table().lookup(3, 100, 1)
    with pytest.raises(OffGridError):
        reference_table().lookup(2, 100, 6)


def test_lookup_nearest_snaps_with_tie_to_smaller():
    # p = 5 ties between 4 and 6 -> 4; n = 500 is closest to 400
    assert reference_table().lookup(5, 500, 2, nearest=True) == pytest.approx(19.39)
    # n = 550 ties between 400 and 700 -> 400
    assert reference_table().lookup(2, 550, 1, nearest=True) == pytest.approx(7.34)
    with pytest.raises(OffGridError):
        reference_table().lookup(5, 500, 7, nearest=True)


def test_table_parser_rejects_bad_input():
    with pytest.raises(ValidationError):
        McDofTable.from_csv_text("a,b\n1,2\n")
    with pytest.raises(ValidationError):
        McDofTable.from_csv_text("p,n,s,dof,se\n")
    with pytest.raises(ValidationError):
        McDofTable.from_csv_text("p,n,s,dof,se\n2,100,1,x,0.1\n")


def test_table_parser_finds_columns_by_name():
    table = McDofTable.from_csv_text("dof,extra,s,n,p\n7.5,x,1,100,2\n")
    assert table.rows == ((2, 100, 1, 7.5, None),)
    table = McDofTable.from_csv_text(" se , p,n,s,dof\n0.25,2,100,1,7.5\n")
    assert table.rows == ((2, 100, 1, 7.5, 0.25),)
    with pytest.raises(ValidationError, match="lacks column"):
        McDofTable.from_csv_text("p,n,dof\n2,100,7.5\n")
    with pytest.raises(ValidationError, match="bad table row"):
        McDofTable.from_csv_text("p,n,s,dof\n2,100.0,1,7.5\n")
    for row in ("2,100,1", "2,100,1,7.5,x"):  # a row not as wide as the header
        with pytest.raises(ValidationError, match="bad table row"):
            McDofTable.from_csv_text(f"p,n,s,dof\n{row}\n")
    with pytest.raises(ValidationError, match=r"CSV repeats column\(s\) n, dof"):
        McDofTable.from_csv_text("p,n,n,s,dof,dof\n2,100,100,1,7.5,7.5\n")
    with pytest.raises(ValidationError, match=r"table repeats cell \(p=2, n=100, s=1\)"):
        McDofTable.from_csv_text("p,n,s,dof\n2,100,1,7.5\n2,100,2,9.9\n2,100,1,9.9\n")
    for cells, bad in (("nan,0.1", "dof = nan"), ("inf,0.1", "dof = inf"),
                       ("7.5,-inf", "se = -inf"), ("7.5,NaN", "se = nan")):
        with pytest.raises(ValidationError, match=r"table cell \(p=2, n=100, s=2\) has " + bad):
            McDofTable.from_csv_text(f"p,n,s,dof,se\n2,100,1,7.5,0.1\n2,100,2,{cells}\n")
    # a trailing comma leaves a blank column, which is ignored while it holds nothing
    assert McDofTable.from_csv_text("p,n,s,dof,\n2,100,1,7.5,\n").rows == ((2, 100, 1, 7.5, None),)


def test_table_parser_refuses_cells_no_dof_can_have():
    # a grid prices s >= 1 splits of p >= 1 covariates on n >= 1 rows, at a
    # positive DoF with a nonnegative standard error
    off_grid = "is not a grid cell: p, n and s must be >= 1"
    for row, message in (("0,100,1,7.5,0.1", f"(p=0, n=100, s=1) {off_grid}"),
                         ("-2,100,1,7.5,0.1", f"(p=-2, n=100, s=1) {off_grid}"),
                         ("2,0,1,7.5,0.1", f"(p=2, n=0, s=1) {off_grid}"),
                         ("2,100,0,7.5,0.1", f"(p=2, n=100, s=0) {off_grid}"),
                         ("2,100,-1,7.5,0.1", f"(p=2, n=100, s=-1) {off_grid}"),
                         ("2,100,2,-1.0,0.1", "(p=2, n=100, s=2) has dof = -1.0, but a DoF must be > 0"),
                         ("2,100,2,0.0,0.1", "(p=2, n=100, s=2) has dof = 0.0, but a DoF must be > 0"),
                         ("2,100,2,-0.0,0.1", "(p=2, n=100, s=2) has dof = -0.0, but a DoF must be > 0"),
                         ("2,100,2,7.0,-0.5",
                          "(p=2, n=100, s=2) has se = -0.5, but a standard error must be >= 0")):
        with pytest.raises(ValidationError) as info:
            McDofTable.from_csv_text(f"p,n,s,dof,se\n2,100,1,7.5,0.1\n{row}\n")
        assert str(info.value) == f"table cell {message}"
    with pytest.raises(ValidationError, match=r"has dof = -1.0"):  # without an se column
        McDofTable.from_csv_text("p,n,s,dof\n2,100,1,-1.0\n")
    # the edges stay valid: a tiny positive DoF, a zero or negative-zero se
    table = McDofTable.from_csv_text("p,n,s,dof,se\n1,1,1,1e-320,0.0\n1,1,2,7.0,-0.0\n")
    assert [row[3:] for row in table.rows] == [(1e-320, 0.0), (7.0, -0.0)]


def test_csv_reader_types_other_columns_in_header_order():
    text = "b, y ,a\n1.5,2,3\n\n4,5,6\n"
    assert [list(row.items()) for row in read_csv(text, {"y": int}, others=float)] == [
        [("b", 1.5), ("y", 2), ("a", 3.0)], [("b", 4.0), ("y", 5), ("a", 6.0)]]
    assert read_csv(text, {"y": int}) == [{"y": 2}, {"y": 5}]
    blank = "b,, y ,a, \n1.5,,2,3, \n4, ,5,6,\n"  # columns 2 and 5 have no name
    assert read_csv(blank, {"y": int}, others=float) == read_csv(text, {"y": int}, others=float)
    with pytest.raises(ValidationError, match="CSV column 5 has no name but holds '7' on line 3"):
        read_csv("b,, y ,a,\n1.5,,2,3,\n4,,5,6,7\n", {"y": int}, others=float)


def test_table_reads_back_reordered_columns():
    grid = McDofTable(rows=((2, 100, 1, 7.25, 0.1), (2, 100, 2, 11.0 / 3.0, 1e-17)))
    text = grid.to_csv()
    reordered = "".join(",".join(reversed(line.split(","))) + "\n"
                        for line in text.splitlines())
    assert reordered.startswith("se,dof,s,n,p\n")
    assert McDofTable.from_csv_text(reordered) == McDofTable.from_csv_text(text)
    assert McDofTable.from_csv_text(text).rows[1] == (2, 100, 2, 11.0 / 3.0, 1e-17)
    assert grid == McDofTable.from_csv_text(text)


def test_table_without_se_round_trips_without_an_se_column():
    text = "p,n,s,dof\n3,50,1,9.5\n3,50,2,12.25\n"
    table = McDofTable.from_csv_text(text)
    assert [row[4] for row in table.rows] == [None, None]
    assert table.to_csv() == text
    assert McDofTable.from_csv_text(table.to_csv()) == table


def test_reference_table_round_trips_through_its_csv():
    table = reference_table()
    assert table.to_csv().startswith("p,n,s,dof,se\n2,100,1,7.41,0.14\n")
    assert McDofTable.from_csv_text(table.to_csv()) == table


def test_table_lookup_refuses_impossible_cells():
    table = reference_table()
    for nearest in (False, True):
        for p, n in ((2, 0), (2, -500), (0, 100)):
            with pytest.raises(DomainError, match="need p >= 1 and n >= 1"):
                table.lookup(p, n, 1, nearest=nearest)


def test_table_load_turns_os_errors_into_validation_errors(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        McDofTable.load(tmp_path / "missing.csv")
    with pytest.raises(ValidationError, match="cannot read"):
        McDofTable.load(tmp_path)


# ---------------------------------------------------------------------------
# DofSpec
# ---------------------------------------------------------------------------

def test_dof_spec_parse_covers_every_source(tmp_path):
    grid = tmp_path / "grid.csv"
    grid.write_text("p,n,s,dof\n3,50,1,9.5\n")
    for name in DofSpec.SOURCES:
        assert DofSpec.parse(name).name == name
        assert DofSpec.parse(name, grid).name == name
    assert DofSpec.parse("table", grid).dof_for(1, 3, 50) == 9.5
    assert DofSpec.parse("table-nearest", grid).dof_for(1, 4, 70) == 9.5
    assert DofSpec.parse("table").dof_for(1, 2, 100) == reference_table().lookup(2, 100, 1)
    for name in ("custom", "mc-null", "Naive", ""):
        with pytest.raises(ValidationError, match="unknown DoF source"):
            DofSpec.parse(name)


def test_dof_spec_checks_arguments_before_zero_splits():
    for spec in (DofSpec("naive"), DofSpec("mfp"), DofSpec("table")):
        with pytest.raises(DomainError):
            spec.dof_for(0, 0, 100)
        with pytest.raises(DomainError):
            spec.dof_for(-1, 2, 100)
        assert spec.dof_for(0, 1, 0) == 2.0

def test_dof_spec_names():
    assert DofSpec("naive").name == "naive"
    assert DofSpec("mfp").name == "mfp"
    assert DofSpec("table").name == "table"
    assert DofSpec("table-nearest").name == "table-nearest"
    assert DofSpec("table", label="grid").name == "grid"


def test_dof_spec_zero_splits_always_p_plus_one():
    config = McDofConfig(m=10, runs=1, s_max=1, min_leaf=10, seed=7)
    custom = DofSpec("table", mc_dof(n=40, p=2, config=config))
    for spec in (DofSpec("naive"), DofSpec("mfp"), DofSpec("table"), custom):
        assert spec.dof_for(0, 4, 1000) == 5.0


def test_dof_spec_values_match_sources():
    assert DofSpec("naive").dof_for(2, 3, 500) == dof_naive(3, 2)
    assert DofSpec("mfp").dof_for(2, 4, 700) == dof_mfp(2, 4, 700)
    assert DofSpec("table").dof_for(3, 6, 400) == pytest.approx(31.66)


def test_dof_spec_wraps_lookup_misses():
    with pytest.raises(MissingDofError):
        DofSpec("table").dof_for(1, 3, 100)
    config = McDofConfig(m=10, runs=1, s_max=1, min_leaf=10, seed=8)
    custom = DofSpec("table", mc_dof(n=40, p=2, config=config))
    with pytest.raises(MissingDofError, match=r"cell \(p=2, n=40, s=5\) not in the table"):
        custom.dof_for(5, 2, 40)
    for p, n in ((3, 40), (2, 41)):  # a Monte-Carlo spec prices only its own cell
        with pytest.raises(MissingDofError, match="not in the table"):
            custom.dof_for(1, p, n)


def test_dof_spec_rejects_unknown_source():
    for name in ("guesswork", "custom"):
        with pytest.raises(ValidationError, match="unknown DoF source"):
            DofSpec(name)
