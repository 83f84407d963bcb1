"""Property tests against independent oracles: sympy's Smith normal form for
field.smith_normal_form, and the series JSON round trip."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors

from preproj.field import ExactMatrix, smith_normal_form
from preproj.series import MatrixSeries, from_json_obj, to_json_obj

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


@st.composite
def int_matrices(draw, max_side=5, bound=12):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    entry = st.integers(-bound, bound)
    return [draw(st.lists(entry, min_size=cols, max_size=cols))
            for _ in range(rows)]


@PROPERTY
@given(int_matrices())
def test_smith_normal_form_matches_sympy(data):
    ours = smith_normal_form(ExactMatrix.from_rows(data))
    theirs = [abs(int(x)) for x in
              invariant_factors(sympy.Matrix(data), domain=sympy.ZZ)]
    side = min(len(data), len(data[0]))
    theirs += [0] * (side - len(theirs))
    assert ours == theirs


@st.composite
def series(draw, max_n=3, max_truncation=6):
    n = draw(st.integers(1, max_n))
    N = draw(st.integers(0, max_truncation))
    row = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n)
    mat = st.lists(row, min_size=n, max_size=n)
    return MatrixSeries(n, draw(st.lists(mat, min_size=N + 1,
                                         max_size=N + 1)))


@PROPERTY
@given(series())
def test_series_json_round_trip(s):
    obj = to_json_obj(s)
    assert from_json_obj(obj) == s
    assert from_json_obj(json.loads(json.dumps(obj))) == s
    assert to_json_obj(from_json_obj(obj)) == obj
