import json
import random

import pytest

from preproj.series import (
    EQUAL,
    FIRST_GEQ,
    FIRST_LEQ,
    INCOMPARABLE,
    MatrixSeries,
    add,
    closed_form,
    free_product_series,
    from_json_obj,
    identity_series,
    inverse,
    is_termwise_nonnegative,
    mul,
    sub,
    termwise_compare,
    to_json,
    to_json_obj,
    to_tsv,
)


def scalar(vals):
    return MatrixSeries(1, [[[v]] for v in vals])


def rand_series(rng, n, N, lo=-3, hi=3, unit_head=False):
    coeffs = [[[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
              for _ in range(N + 1)]
    if unit_head:
        coeffs[0] = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return MatrixSeries(n, coeffs)


def test_basic_shape():
    s = scalar([1, 2, 3])
    assert s.n == 1 and s.truncation == 2
    assert s[1] == [[2]]
    with pytest.raises(ValueError):
        MatrixSeries(2, [[[1]]])
    with pytest.raises(ValueError):
        MatrixSeries(1, [])


def test_identity_series():
    s = identity_series(2, 3)
    assert s[0] == [[1, 0], [0, 1]]
    assert all(s[d] == [[0, 0], [0, 0]] for d in (1, 2, 3))


def test_inverse_identity():
    s = identity_series(3, 5)
    assert inverse(s) == s


def test_inverse_geometric():
    C = [[1, 1], [0, 1]]
    one_minus_ct = MatrixSeries(2, [
        [[1, 0], [0, 1]],
        [[-1, -1], [0, -1]],
        [[0, 0], [0, 0]],
        [[0, 0], [0, 0]],
    ])
    inv = inverse(one_minus_ct)
    P = [[1, 0], [0, 1]]
    for d in range(4):
        assert inv[d] == P
        P = [[sum(C[i][k] * P[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]


def test_inverse_one_minus_t_squared():
    s = inverse(scalar([1, -2, 1, 0, 0, 0]))
    assert [s[d][0][0] for d in range(6)] == [1, 2, 3, 4, 5, 6]


def test_inverse_requires_unit_head():
    with pytest.raises(ValueError):
        inverse(scalar([2, 1]))


def test_mul_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 3)
        s = rand_series(rng, n, 5, unit_head=True)
        assert mul(s, inverse(s)) == identity_series(n, 5)
        assert mul(inverse(s), s) == identity_series(n, 5)


def test_arithmetic_properties():
    rng = random.Random(22)
    for _ in range(15):
        n = rng.randint(1, 3)
        a = rand_series(rng, n, 4)
        b = rand_series(rng, n, 4)
        c = rand_series(rng, n, 4)
        assert add(a, b) == add(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert sub(a, a) == MatrixSeries(n, [[[0] * n for _ in range(n)]
                                             for _ in range(5)])


def test_mixed_truncation_takes_min():
    a = scalar([1, 1, 1, 1])
    b = scalar([1, 2])
    assert add(a, b).truncation == 1
    assert mul(a, b).truncation == 1


def test_closed_form_scalar():
    # 1/(1 - 2t + t^2) = sum (d+1) t^d
    s = closed_form([[2]], [[1]], 6)
    assert [s[d][0][0] for d in range(7)] == [1, 2, 3, 4, 5, 6, 7]


def test_closed_form_recursion_holds():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(1, 3)
        C = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        D = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        s = closed_form(C, D, 6)
        assert s[0] == [[1 if i == j else 0 for j in range(n)]
                        for i in range(n)]
        assert s[1] == C
        for d in range(2, 7):
            want = [[sum(C[i][k] * s[d - 1][k][j] for k in range(n))
                     - sum(D[i][k] * s[d - 2][k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]
            assert s[d] == want


def test_closed_form_dynkin_goes_negative():
    # A_2: C = path adjacency, D = identity; degree 3 entry (0, 1) is -1
    s = closed_form([[0, 1], [1, 0]], [[1, 0], [0, 1]], 4)
    assert s[2] == [[0, 0], [0, 0]]
    assert s[3] == [[0, -1], [-1, 0]]
    ok, wit = is_termwise_nonnegative(s)
    assert not ok and wit == (3, 0, 1)


def test_termwise_compare_relations():
    a = scalar([1, 2, 3])
    assert termwise_compare(a, scalar([1, 2, 3])).relation == EQUAL
    r = termwise_compare(a, scalar([1, 3, 3]))
    assert r.relation == FIRST_LEQ and r.witness == (1, 0, 0)
    r = termwise_compare(a, scalar([1, 1, 0]))
    assert r.relation == FIRST_GEQ and r.witness == (1, 0, 0)
    r = termwise_compare(a, scalar([1, 3, 0]))
    assert r.relation == INCOMPARABLE and r.witness == (1, 0, 0)
    with pytest.raises(ValueError):
        termwise_compare(a, identity_series(2, 2))


def test_termwise_compare_lex_witness():
    a = MatrixSeries(2, [[[1, 0], [0, 1]], [[0, 5], [1, 0]]])
    b = MatrixSeries(2, [[[1, 0], [0, 1]], [[0, 4], [2, 0]]])
    r = termwise_compare(a, b)
    assert r.relation == INCOMPARABLE
    assert r.witness == (1, 0, 1)  # first difference in lex order


def test_free_product_series_identity():
    rng = random.Random(44)
    for _ in range(10):
        n = rng.randint(1, 3)
        h = rand_series(rng, n, 5, lo=0, unit_head=True)
        assert free_product_series(h, identity_series(n, 5)) == h
        assert free_product_series(identity_series(n, 5), h) == h


def test_free_product_series_commutative_associative():
    rng = random.Random(55)
    for _ in range(10):
        n = rng.randint(1, 2)
        a = rand_series(rng, n, 4, lo=0, unit_head=True)
        b = rand_series(rng, n, 4, lo=0, unit_head=True)
        c = rand_series(rng, n, 4, lo=0, unit_head=True)
        assert free_product_series(a, b) == free_product_series(b, a)
        assert free_product_series(free_product_series(a, b), c) \
            == free_product_series(a, free_product_series(b, c))


def test_free_product_series_two_free_letters():
    # free algebra on one letter times itself: dims 2^d
    one_letter = scalar([1] * 7)
    s = free_product_series(one_letter, one_letter)
    assert [s[d][0][0] for d in range(7)] == [2 ** d for d in range(7)]


def test_tsv_round_trip_negative_entries():
    s = MatrixSeries(2, [[[1, 0], [0, 1]], [[0, -1], [-1, 7]]])
    text = to_tsv(s)
    assert text == "0\t1\t0\t0\t1\n1\t0\t-1\t-1\t7\n"
    rows = [line.split("\t") for line in text.strip().split("\n")]
    back = MatrixSeries(2, [
        [[int(r[1]), int(r[2])], [int(r[3]), int(r[4])]] for r in rows])
    assert back == s


def test_json_round_trip():
    rng = random.Random(66)
    for _ in range(10):
        s = rand_series(rng, rng.randint(1, 3), rng.randint(0, 5))
        assert from_json_obj(json.loads(to_json(s))) == s
        assert from_json_obj(to_json_obj(s)) == s


@pytest.mark.parametrize("obj, message", [
    ([{"degree": 0, "matrix": [[1]]}, {"degree": -1, "matrix": [[7]]}],
     "nonnegative"),
    ([{"degree": 0, "matrix": [[1]]}, {"degree": 0, "matrix": [[1]]}],
     "duplicate degree 0"),
    ([{"degree": 0, "matrix": [[1]]}, {"degree": 2, "matrix": [[4]]}],
     "missing degree 1"),
    ([{"degree": "0", "matrix": [[1]]}], "nonnegative int"),
    ([{"degree": 1.0, "matrix": [[1]]}], "nonnegative int"),
    ([{"degree": True, "matrix": [[1]]}], "nonnegative int"),
    ([{"matrix": [[1]]}], "nonnegative int"),
    ([{"degree": 0, "matrix": 1}], "not a list of lists"),
    ([{"degree": 0, "matrix": [1]}], "not a list of lists"),
    ([{"degree": 0}], "not a list of lists"),
    ([{"degree": 0, "matrix": [["x"]]}], "not a list of lists of ints"),
    ([{"degree": 0, "matrix": [[1.5]]}], "not a list of lists of ints"),
    ({"degree": 0, "matrix": [[1]]}, "empty series"),
    ([], "empty series"),
])
def test_from_json_obj_rejects_malformed(obj, message):
    with pytest.raises(ValueError, match=message):
        from_json_obj(obj)
