"""Properties of fitted paths and of the command line on generated data
(hypothesis, derandomised by the profile in conftest.py)."""

import contextlib
import io
from pathlib import Path

import numpy as np
from hypothesis import example, given, reject, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tsvc
from tsvc._io import read_csv
from tsvc.cli import main
from tsvc.core import Dataset
from tsvc.dof import DofSpec, McDofConfig, McDofTable, TsvcPathFitter, mc_dof
from tsvc.errors import TsvcError, ValidationError
from tsvc.model import model_from_json, model_to_json, predict
from tsvc.tree import fit_path, fit_paths


@st.composite
def small_fits(draw):
    """(y, X, s_max, min_leaf) with n 10-30 and p 2-3.  Values sit on
    coarse lattices, tied columns included, so that y * 2^k stays clear
    of subnormal numbers and of overflow for every |k| <= 480."""
    p = draw(st.integers(2, 3))
    n = draw(st.integers(max(10, 2 * p + 2), 30))
    X = draw(arrays(float, (n, p), elements=st.integers(-20, 20).map(float)))
    y = draw(arrays(float, n, elements=st.integers(-64, 64).map(lambda v: v / 8)))
    return y, X, draw(st.integers(1, 4)), draw(st.integers(1, 5))


@given(small_fits(), st.lists(st.integers(-480, 480), max_size=3))
def test_scaling_y_by_a_power_of_two_scales_the_path_exactly(fit, ks):
    # rules unchanged, rss times 4^k and fitted values times 2^k, bit for bit
    y, X, s_max, min_leaf = fit
    try:
        path = fit_path(Dataset.from_arrays(y, X), s_max, min_leaf)
    except TsvcError:
        reject()  # constant or duplicate columns, a singular base design
    for k in [-480, 480] + ks:
        scaled = fit_path(Dataset.from_arrays(np.ldexp(y, k), X), s_max, min_leaf)
        assert scaled.rules == path.rules, k
        assert len(scaled.fits) == len(path.fits), k
        for a, b in zip(scaled.fits, path.fits):
            assert a.rss == np.ldexp(b.rss, 2 * k), k
            assert a.fitted.tobytes() == np.ldexp(b.fitted, k).tobytes(), k
            assert a.coefficients.tobytes() == np.ldexp(b.coefficients, k).tobytes(), k


@st.composite
def small_groups(draw):
    """(Y, X, s_max, min_leaf): 2-4 responses on one X with n 10-30 and
    p 2-3, whose columns take few lattice values, so ties are common."""
    p = draw(st.integers(2, 3))
    n = draw(st.integers(max(10, 2 * p + 2), 30))
    X = draw(arrays(float, (n, p), elements=st.integers(-6, 6).map(float)))
    Y = draw(arrays(float, (draw(st.integers(2, 4)), n),
                    elements=st.integers(-64, 64).map(lambda v: v / 8)))
    return Y, X, draw(st.integers(1, 5)), draw(st.integers(1, 5))


def _assert_same_steps(a, b, steps):
    """The first ``steps`` splits of the paths a and b agree bit for bit."""
    assert a.rules[:steps] == b.rules[:steps]
    assert len(a.fits[:steps + 1]) == len(b.fits[:steps + 1])
    assert a.trees[:steps + 1] == b.trees[:steps + 1]
    for x, y in zip(a.fits[:steps + 1], b.fits[:steps + 1]):
        assert x.rss == y.rss
        assert x.fitted.tobytes() == y.fitted.tobytes()
        assert x.coefficients.tobytes() == y.coefficients.tobytes()


@given(small_groups())
def test_lockstep_paths_equal_one_path_per_response(group):
    Y, X, s_max, min_leaf = group
    try:
        paths = fit_paths(X, Y, s_max, min_leaf)
    except TsvcError:
        reject()  # constant or duplicate columns, a singular base design
    for path, y in zip(paths, Y):
        alone = fit_path(Dataset.from_arrays(y, X), s_max, min_leaf)
        _assert_same_steps(path, alone, s_max)
        assert len(path.fits) == len(alone.fits)


@given(small_groups())
def test_a_truncated_path_is_a_prefix_of_a_longer_one(group):
    # the last step of a short path is a middle step of a longer one
    Y, X, s_max, min_leaf = group
    try:
        longer = fit_paths(X, Y, s_max, min_leaf)
    except TsvcError:
        reject()
    for k in range(s_max):
        for short, long_ in zip(fit_paths(X, Y, k, min_leaf), longer):
            assert len(short.rules) == min(k, len(long_.rules))
            _assert_same_steps(short, long_, k)


@st.composite
def small_cells(draw):
    """``mc_dof`` keyword arguments of a small Monte-Carlo cell: n 30-80,
    p 2-4, m 2-4, runs 2-3 and s_max 2-3."""
    m, runs = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    fitter = TsvcPathFitter(s_max=draw(st.integers(2, 3)))
    config = McDofConfig(m=m, runs=runs, seed=draw(st.integers(0, 2 ** 16)))
    return {"n": draw(st.integers(30, 80)), "p": draw(st.integers(2, 4)), "config": config,
            "fitter": fitter}


# each example starts a pool of two worker processes
@settings(max_examples=24)
@given(small_cells())
def test_mc_dof_does_not_depend_on_threads(cell):
    # one worker process or two give the same rows, compared by repr, or
    # the same error
    outcomes = []
    for threads in (1, 2):
        try:
            outcomes.append([repr(row) for row in mc_dof(**cell, threads=threads).rows])
        except TsvcError as error:
            outcomes.append(f"{type(error).__name__}: {error}")
    assert outcomes[0] == outcomes[1]


@given(small_fits())
def test_every_model_of_a_path_round_trips_through_json(fit):
    # the text of a model's clone is the model's text, and the clone
    # predicts the same bits, on the training rows and between them
    y, X, s_max, min_leaf = fit
    try:
        path = fit_path(Dataset.from_arrays(y, X), s_max, min_leaf)
    except TsvcError:
        reject()
    probe = np.concatenate([X, X + 0.5])
    for s in range(len(path.fits)):
        model = path.model_at(s)
        text = model_to_json(model)
        clone = model_from_json(text)
        assert model_to_json(clone) == text, s
        assert predict(clone, probe).tobytes() == predict(model, probe).tobytes(), s


_COLUMNS = ("y", "x1", "x2", "p", "n", "s", "dof", "se")
_ODD_CELLS = ("", " ", "nan", "inf", "-inf", "-0.0", "0", "-1", "1e-320", "1e300",
              "-1e300", "2.5", "x", "1,2", '"', "0x10")


@st.composite
def csv_texts(draw):
    """CSV text of a data file (y, x1, x2) or a grid (p, n, s, dof, se),
    columns in any order and perhaps an extra or repeated name, with up to
    24 rows, a few cells of which (or of the header) are swapped for odd
    ones: negatives, blanks, nan, inf, -0.0, subnormals, huge values, junk."""
    header = draw(st.permutations(draw(st.sampled_from([("y", "x1", "x2"),
                                                        ("p", "n", "s", "dof", "se")]))))
    header += draw(st.lists(st.sampled_from(_COLUMNS), max_size=2))
    cells = st.integers(-3, 6).map(str)
    rows = []
    for k in range(draw(st.integers(0, 5) | st.integers(20, 24))):
        # p, n and s run over distinct grid cells; the rest are small numbers
        base = {"p": 2 + k % 2, "n": 100 * (1 + k // 2 % 3), "s": 1 + k // 6, "se": 0.25}
        base["dof"] = base["p"] + 2 * base["s"] + draw(st.integers(0, 2))
        rows.append([str(base[c]) if c in base else draw(cells) for c in header])
    lines = [header] + rows
    for i, j, odd in draw(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 6),
                                             st.sampled_from(_ODD_CELLS + _COLUMNS)),
                                   max_size=3)):
        if i < len(lines) and j < len(header):
            lines[i][j] = odd
    return "".join(",".join(line) + "\n" for line in lines)


def _refused(parse, text):
    try:
        parse(text)
    except ValidationError:
        return True
    return False


@given(csv_texts())
def test_no_input_file_makes_the_cli_crash(tmp_path_factory, text):
    # every command exits 0, 2 or 3 and raises nothing (a numpy warning is
    # an error in this suite); a file its reader refuses exits 2
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    path.write_text(text, encoding="utf-8")
    data_refused = _refused(lambda t: read_csv(t, {"y": float}, others=float), text)
    grid_refused = _refused(McDofTable.from_csv_text, text)
    for argv, refused in (
            (["fit", "--input", str(path), "--response", "y", "--smax", "2",
              "--min-leaf", "1"], data_refused),
            (["derive-formula", "--table", str(path)], grid_refused),
            (["dof", "--approach", "table", "--table", str(path),
              "--s", "1", "--p", "2", "--n", "100"], grid_refused)):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3), argv[0]
        assert code == 2 or not refused, argv[0]


_GRID = Path(tsvc.__file__).parent / "data" / "mc_dof_table.csv"
_ODD_ALPHAS = st.sampled_from([0.0, 1.0, -0.05, 1.5, 1e-300, -1e-300, 2.0 ** -53,
                               float("nan"), float("inf")])
# per command: each flag's usual values, then a few odd values for it
_CLI_FLAGS = {
    "mc-dof": {"n": st.integers(1, 60), "p": st.integers(1, 6), "m": st.integers(2, 4),
               "runs": st.integers(1, 2), "smax": st.integers(1, 3),
               "min-leaf": st.integers(1, 15), "seed": st.integers(0, 5)},
    "simulate": {"s-dgp": st.integers(0, 6), "n": st.integers(1, 60),
                 "reps": st.integers(1, 2), "smax": st.integers(1, 3),
                 "min-leaf": st.integers(1, 15), "seed": st.integers(0, 5),
                 "mc-m": st.integers(2, 4), "mc-runs": st.integers(1, 2)},
    "derive-formula": {"alpha": st.floats(1e-3, 0.5) | st.sampled_from([0.05, 2.0 ** -52])},
    "dof": {"s": st.integers(0, 6), "p": st.integers(1, 11),
            "n": st.integers(1, 60) | st.sampled_from([100, 400, 1000])},
}


@st.composite
def cli_argvs(draw):
    """One command line with small arguments: up to two flags take an odd
    value (a negative, 0, 1e-300, nan) and the rest a usual one.  Sizes
    stay small (n <= 60, m <= 4, runs <= 2, smax <= 3), and the commands
    that can start workers run on one thread."""
    command = draw(st.sampled_from(sorted(_CLI_FLAGS)))
    flags = _CLI_FLAGS[command]
    odd = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command] + [f"--{name}={draw(_ODD_ALPHAS if name == 'alpha' else st.integers(-3, 0))}"
                        if name in odd else f"--{name}={draw(values)}"
                        for name, values in flags.items()]
    if command == "mc-dof":
        argv.append("--threads=1")
    elif command == "simulate":
        sources = st.sampled_from(["naive", "mfp", "table-nearest", "naive,mc-null", "mc-dgp"])
        argv += [f"--scenario={draw(st.integers(1, 4))}", f"--dof={draw(sources)}",
                 "--allow-custom", "--threads=1"]
    elif command == "derive-formula":
        argv.append(f"--table={_GRID}")
    else:
        argv.append(f"--approach={draw(st.sampled_from(DofSpec.SOURCES))}")
    return argv


@given(cli_argvs())
@example(["mc-dof", "--n=30", "--p=2", "--smax=1", "--m=2", "--runs=1", "--seed=-1",
          "--threads=1"])
@example(["simulate", "--scenario=1", "--s-dgp=1", "--n=100", "--reps=1", "--seed=-1",
          "--threads=1"])
@example(["simulate", "--scenario=1", "--s-dgp=1", "--allow-custom", "--n=-1",
          "--threads=1"])
@example(["derive-formula", f"--table={_GRID}", "--alpha=1e-300"])
def test_no_command_line_argument_makes_the_cli_crash(argv):
    # every command exits 0, 2 or 3 and raises nothing (a numpy warning is
    # an error in this suite)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), argv
