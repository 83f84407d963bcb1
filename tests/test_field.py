import random
import time
from fractions import Fraction

import pytest

from preproj.field import (
    QQ,
    ExactMatrix,
    FieldError,
    PRIME_BOUND,
    FieldSpec,
    SparseRref,
    is_prime,
    rank,
    smith_normal_form,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def test_parse():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("Q").p is None
    assert FieldSpec.parse("f2").p == 2
    assert FieldSpec.parse("f101").p == 101
    with pytest.raises(FieldError):
        FieldSpec.parse("f9")
    with pytest.raises(FieldError):
        FieldSpec.parse("f1")
    with pytest.raises(FieldError):
        FieldSpec.parse("r")


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if trial_division(n)]


def test_carmichael_numbers_rejected():
    for n in (561, 41041, 3215031751):
        assert not is_prime(n)
        with pytest.raises(FieldError):
            FieldSpec(n)


def test_large_prime_parses_quickly():
    t0 = time.perf_counter()
    assert FieldSpec.parse("f1000000000000000003").p == 10 ** 18 + 3
    assert time.perf_counter() - t0 < 0.5


def test_prime_above_bound_refused():
    with pytest.raises(FieldError):
        FieldSpec(PRIME_BOUND + 2)


def test_acc_reduces_and_drops_zero():
    row = {}
    QQ.acc(row, "x", Fraction(1, 2))
    QQ.acc(row, "x", Fraction(1, 2))
    assert row == {"x": 1}
    QQ.acc(row, "x", -1)
    QQ.acc(row, "y", 0)
    assert row == {}
    GF3.acc(row, "x", 2 * 2)  # an unreduced product
    assert row == {"x": 1}
    GF3.acc(row, "x", 2 * 1)
    assert row == {}


def test_convert_and_unit():
    assert QQ.convert(3) == Fraction(3)
    assert GF3.convert(Fraction(1, 2)) == 2  # 1/2 = 2 mod 3
    with pytest.raises(FieldError):
        GF3.convert(Fraction(1, 3))
    with pytest.raises(FieldError):
        GF3.unit(3)
    with pytest.raises(FieldError):
        QQ.unit(0)
    assert GF2.unit(-1) == 1


def test_scalar_ops():
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)
    assert GF3.inv(2) == 2
    assert GF3.neg(1) == 2


def test_rank_empty():
    m = ExactMatrix(0, 0)
    assert rank(m, QQ) == 0
    assert rank(m, GF2) == 0


def test_rank_identity_gf2():
    assert rank(ExactMatrix.identity(2), GF2) == 2


def test_rank_drops_mod_2():
    m = ExactMatrix.from_rows([[2, 4], [1, 2]])
    assert rank(m, QQ) == 1
    assert rank(m, GF2) == 1  # second row is (1, 0) mod 2
    m = ExactMatrix.from_rows([[2, 4], [4, 8]])
    assert rank(m, QQ) == 1
    assert rank(m, GF2) == 0  # every entry even


def test_snf_identity():
    assert smith_normal_form(ExactMatrix.identity(3)) == [1, 1, 1]


def test_snf_hand():
    assert smith_normal_form(ExactMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]


def test_snf_zero():
    assert smith_normal_form(ExactMatrix(2, 3)) == [0, 0]


def test_snf_rejects_fractions():
    m = ExactMatrix(1, 1, {(0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        smith_normal_form(m)


def test_snf_torsion_example():
    # rows (1,1) and (1,-1) span an index-2 sublattice of Z^2
    m = ExactMatrix.from_rows([[1, 1], [1, -1]])
    assert smith_normal_form(m) == [1, 2]


def _random_matrix(rng, r, c, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def test_rank_vs_prime_fields_random():
    rng = random.Random(101)
    for _ in range(60):
        rows = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        m = ExactMatrix.from_rows(rows)
        rq = rank(m, QQ)
        for p in (2, 3, 5):
            assert rank(m, FieldSpec(p)) <= rq


def test_snf_chain_and_rank_random():
    rng = random.Random(202)
    for _ in range(60):
        rows = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        m = ExactMatrix.from_rows(rows)
        divs = smith_normal_form(m)
        assert len(divs) == min(m.rows, m.cols)
        nonzero = [d for d in divs if d]
        assert divs[:len(nonzero)] == nonzero  # zeros trail
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert len(nonzero) == rank(m, QQ)
        # a divisor divisible by p costs exactly one unit of GF(p) rank
        for p in (2, 3):
            drop = sum(1 for d in nonzero if d % p == 0)
            assert rank(m, FieldSpec(p)) == len(nonzero) - drop


def test_rank_and_snf_permutation_invariant():
    rng = random.Random(303)
    for _ in range(20):
        r, c = rng.randint(2, 5), rng.randint(2, 5)
        rows = _random_matrix(rng, r, c)
        m = ExactMatrix.from_rows(rows)
        pr = list(range(r))
        pc = list(range(c))
        rng.shuffle(pr)
        rng.shuffle(pc)
        shuffled = ExactMatrix.from_rows(
            [[rows[i][j] for j in pc] for i in pr])
        assert rank(shuffled, QQ) == rank(m, QQ)
        assert smith_normal_form(shuffled) == smith_normal_form(m)


def test_rref_modes_same_pivots():
    rng = random.Random(404)
    for _ in range(40):
        rows = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        full = SparseRref(QQ, reduced=True)
        fwd = SparseRref(QQ, reduced=False)
        for row in rows:
            d = {j: Fraction(v) for j, v in enumerate(row) if v}
            full.add_row(dict(d))
            fwd.add_row(dict(d))
        assert sorted(full.rows) == sorted(fwd.rows)
        assert full.rank == fwd.rank


def _combine(history, originals, field):
    out = {}
    for tag, c in history.items():
        for k, v in originals[tag].items():
            field.acc(out, k, c * v)
    return out


@pytest.mark.parametrize("field", [QQ, GF3])
def test_tracked_histories_reproduce_rows(field):
    rng = random.Random(505)
    for _ in range(25):
        originals = {}
        ech = SparseRref(field, reduced=True, track=True)
        for t in range(rng.randint(2, 7)):
            row = {j: field.convert(rng.randint(-3, 3))
                   for j in range(rng.randint(1, 5))}
            row = {j: v for j, v in row.items() if v}
            originals[t] = dict(row)
            piv, hist = ech.add_row(dict(row), tag=t)
            combo = _combine(hist, originals, field)
            if piv is None:
                assert combo == {}
                assert hist.get(t) == field.one
            else:
                assert combo == ech.rows[piv]


def test_reduced_rows_canonical():
    # same row space in a different order gives the identical table
    rows_a = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]
    rows_b = [[1, 3, 1], [1, 2, 0], [2, 5, 1]]
    out = []
    for rows in (rows_a, rows_b):
        ech = SparseRref(QQ, reduced=True)
        for row in rows:
            ech.add_row({j: Fraction(v) for j, v in enumerate(row) if v})
        out.append({k: dict(v) for k, v in ech.rows.items()})
    assert out[0] == out[1]


def test_exact_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix(1, 1, {(1, 0): 1})
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    m = ExactMatrix.from_rows([[0, 5]])
    assert m.entries == {(0, 1): 5}
    assert m.to_rows() == [[0, 5]]
    assert m.row_dicts() == [{1: 5}]
