"""Property tests against independent oracles: sympy's Smith normal form for
field.smith_normal_form, the series JSON round trip, and the quiver parser
(random token lines, and a round trip through a writer kept here)."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors

from preproj.field import ExactMatrix, smith_normal_form
from preproj.quiver import Arrow, Quiver, QuiverError, parse_quiver
from preproj.series import MatrixSeries, from_json_obj, to_json_obj

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


@st.composite
def int_matrices(draw, max_side=8, bound=12):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    entry = st.integers(-bound, bound)
    return [draw(st.lists(entry, min_size=cols, max_size=cols))
            for _ in range(rows)]


@PROPERTY
@given(int_matrices())
def test_smith_normal_form_matches_sympy(data):
    ours = smith_normal_form(ExactMatrix(len(data), len(data[0]), {
        (r, c): v for r, line in enumerate(data) for c, v in enumerate(line)}))
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

TOKENS = ["vertices:", "arrow", "white:", "gamma", "->", ":", "=", "*", "#",
          "a", "b", "a*", "1", "2", "v", "-1", "1/2", "0", "1/0", "x/y",
          "nan", "inf", "  ", "\t", "é", "\\", "::", "=="]


@PROPERTY
@given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=8), max_size=6))
def test_parser_raises_only_quiver_error(lines):
    text = "\n".join(" ".join(line) for line in lines)
    try:
        q = parse_quiver(text)
    except QuiverError:
        return
    assert isinstance(q, Quiver)


def quiver_text(q):
    """The quiver file format for q; the package itself has no writer."""
    lines = ["vertices: " + " ".join(q.vertices)]
    lines += ["arrow %s: %s -> %s" % (a.name, a.tail, a.head)
              for a in q.arrows]
    if q.white:
        lines.append("white: " + " ".join(sorted(q.white)))
    lines += ["gamma %s = %s" % kv for kv in sorted(q.gamma.items())]
    return "\n".join(lines) + "\n"


NAMES = st.text("abcxyz019_", min_size=1, max_size=3)


@st.composite
def quivers(draw):
    vertices = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    names = draw(st.lists(NAMES, max_size=5, unique=True))
    arrows = [Arrow(name, draw(st.sampled_from(vertices)),
                    draw(st.sampled_from(vertices))) for name in names]
    white = draw(st.sets(st.sampled_from(vertices)))
    black = set(vertices) - white
    keys = [key for a in arrows if a.tail in black or a.head in black
            for key in (a.name, a.name + "*")]
    nonzero = st.fractions(min_value=-20, max_value=20,
                           max_denominator=9).filter(bool)
    gamma = {key: draw(nonzero) for key in draw(st.sets(st.sampled_from(keys)))
             } if keys else {}
    return Quiver(vertices, arrows, white, gamma)


@PROPERTY
@given(quivers())
def test_quiver_text_round_trip(q):
    back = parse_quiver(quiver_text(q))
    assert back.vertices == q.vertices
    assert back.arrows == q.arrows
    assert back.white == q.white
    assert back.gamma == q.gamma
