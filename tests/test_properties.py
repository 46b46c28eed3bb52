"""Properties of fitted paths on generated data (hypothesis, derandomised
by the profile in conftest.py)."""

import numpy as np
from hypothesis import given, reject, strategies as st
from hypothesis.extra.numpy import arrays

from tsvc.core import Dataset
from tsvc.errors import TsvcError
from tsvc.tree import fit_path


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
        assert len(scaled.models) == len(path.models), k
        for a, b in zip(scaled.models, path.models):
            assert a.rss == np.ldexp(b.rss, 2 * k), k
            assert a.fit.fitted.tobytes() == np.ldexp(b.fit.fitted, k).tobytes(), k
            assert a.fit.coefficients.tobytes() == np.ldexp(b.fit.coefficients, k).tobytes(), k
