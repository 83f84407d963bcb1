import random
import time
from fractions import Fraction
from heapq import heappop, heappush

import pytest

from bruteforce import (
    dense_rank,
    dense_rref,
    integer_rank,
    random_presentation,
    reference_smith,
)
from preproj.algebra import GradedEngine, Presentation
from preproj.field import (
    QQ,
    ExactMatrix,
    FieldError,
    PRIME_BOUND,
    FieldSpec,
    SparseRref,
    back_substitute,
    distinct_leads,
    is_prime,
    kernel_vectors,
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
    # Unicode digits are not field sizes: a superscript two, an Arabic-Indic
    # three, a fullwidth seven
    for text in ("f\u00b2", "f\u0663", "f\uff17", "f"):
        with pytest.raises(FieldError):
            FieldSpec.parse(text)


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


def _matrix(data):
    cols = len(data[0]) if data else 0
    return ExactMatrix(len(data), cols, {
        (r, c): v for r, line in enumerate(data) for c, v in enumerate(line)})


def _rank(data, field):
    """Rank of an integer matrix by SparseRref, checked against the dense
    oracle."""
    rows = [[field.convert(v) for v in line] for line in data]
    ech = SparseRref(field)
    for line in rows:
        ech.add_row({c: v for c, v in enumerate(line) if v})
    assert ech.rank == dense_rank(rows, field.p)
    return ech.rank


def test_rank_empty():
    assert _rank([], QQ) == 0
    assert _rank([], GF2) == 0


def test_rank_identity_gf2():
    assert _rank([[1, 0], [0, 1]], GF2) == 2


def test_rank_drops_mod_2():
    m = [[2, 4], [1, 2]]
    assert _rank(m, QQ) == 1
    assert _rank(m, GF2) == 1  # second row is (1, 0) mod 2
    m = [[2, 4], [4, 8]]
    assert _rank(m, QQ) == 1
    assert _rank(m, GF2) == 0  # every entry even


def test_snf_identity():
    identity = _matrix([[int(i == j) for j in range(3)] for i in range(3)])
    assert smith_normal_form(identity) == [1, 1, 1]


def test_snf_hand():
    assert smith_normal_form(_matrix([[2, 0], [0, 3]])) == [1, 6]


def test_snf_zero():
    assert smith_normal_form(ExactMatrix(2, 3)) == [0, 0]


def test_snf_rejects_fractions():
    m = ExactMatrix(1, 1, {(0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        smith_normal_form(m)


def test_snf_torsion_example():
    # rows (1,1) and (1,-1) span an index-2 sublattice of Z^2
    assert smith_normal_form(_matrix([[1, 1], [1, -1]])) == [1, 2]


def _random_matrix(rng, r, c, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def test_rank_vs_prime_fields_random():
    rng = random.Random(101)
    for _ in range(60):
        rows = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rq = _rank(rows, QQ)
        for p in (2, 3, 5):
            assert _rank(rows, FieldSpec(p)) <= rq


def test_snf_chain_and_rank_random():
    rng = random.Random(202)
    for _ in range(60):
        rows = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        m = _matrix(rows)
        divs = smith_normal_form(m)
        assert len(divs) == min(m.rows, m.cols)
        nonzero = [d for d in divs if d]
        assert divs[:len(nonzero)] == nonzero  # zeros trail
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert len(nonzero) == _rank(rows, QQ)
        # a divisor divisible by p costs exactly one unit of GF(p) rank
        for p in (2, 3):
            drop = sum(1 for d in nonzero if d % p == 0)
            assert _rank(rows, FieldSpec(p)) == len(nonzero) - drop


def test_rank_and_snf_permutation_invariant():
    rng = random.Random(303)
    for _ in range(20):
        r, c = rng.randint(2, 5), rng.randint(2, 5)
        rows = _random_matrix(rng, r, c)
        pr = list(range(r))
        pc = list(range(c))
        rng.shuffle(pr)
        rng.shuffle(pc)
        shuffled = [[rows[i][j] for j in pc] for i in pr]
        assert _rank(shuffled, QQ) == _rank(rows, QQ)
        assert (smith_normal_form(_matrix(shuffled))
                == smith_normal_form(_matrix(rows)))


def _sparse_matrix(rng, r, c, density, bound):
    return [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(c)] for _ in range(r)]


def test_snf_matches_reference_random():
    # the runtime routine against the independent one the oracles use
    rng = random.Random(404)
    for _ in range(500):
        rows = _sparse_matrix(rng, rng.randint(1, 12), rng.randint(1, 12),
                              rng.choice((0.2, 0.5, 1.0)),
                              rng.choice((1, 3, 9, 30)))
        m = _matrix(rows)
        assert smith_normal_form(m) == reference_smith(m), rows


def test_snf_sparse_chains_match_ranks():
    # a nonzero divisor counts once in the rank over Q and once in the rank
    # over GF(p) unless p divides it. The reference routine needs minutes
    # for these sizes, so ranks are the oracle; the 4% draws are rank
    # deficient with divisors up to 36
    rng = random.Random(40)
    for _ in range(12):
        rows = _sparse_matrix(rng, rng.randint(40, 70), rng.randint(40, 70),
                              rng.choice((0.04, 0.15)), 3)
        nonzero = [d for d in smith_normal_form(_matrix(rows)) if d]
        assert len(nonzero) == integer_rank(rows)
        for p in (2, 3, 5, 7, 11, 13):
            field = FieldSpec(p)
            ech = SparseRref(field)
            for line in rows:
                ech.add_row({c: v % p for c, v in enumerate(line) if v % p})
            assert ech.rank == sum(1 for d in nonzero if d % p), p


def _combine(vector, rows, field):
    out = {}
    for tag, c in vector.items():
        for k, v in rows[tag].items():
            field.acc(out, k, c * v)
    return out


@pytest.mark.parametrize("field", [QQ, GF3])
def test_kernel_vectors_match_dense_rank(field):
    rng = random.Random(505)
    for _ in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 5)
        dense = [[field.convert(v) for v in line]
                 for line in _random_matrix(rng, r, c, -2, 2)]
        rows = {t: {j: v for j, v in enumerate(line) if v}
                for t, line in enumerate(dense)}
        kers = kernel_vectors(rows, field)
        assert len(kers) == r - dense_rank(dense, field.p)
        assert all(_combine(vec, rows, field) == {} for vec in kers)
        assert dense_rank([[vec.get(t, 0) for t in range(r)] for vec in kers],
                          field.p) == len(kers)


def test_kernel_vectors_take_mixed_tags_and_no_rows():
    # Tor columns are tagged (generator, vertex) or (generator, path), and
    # their keys have the same shape: the key (1, 0) and the tag (1, (0, 1))
    # of one row do not compare, so tags and keys must never meet
    rows = {(0, 2): {(0, 1): Fraction(1)},
            (1, (0, 1)): {(0, 1): Fraction(2), (1, 0): Fraction(1)},
            (1, (2,)): {(1, 0): Fraction(-1)},
            (2, 1): {}}
    kers = kernel_vectors(rows, QQ)
    assert len(kers) == 2
    assert all(_combine(vec, rows, QQ) == {} for vec in kers)
    assert {(2, 1): Fraction(1)} in kers
    assert kernel_vectors({}, QQ) == []


def test_distinct_leads_gives_the_leads_or_none():
    rows = [{(1, 0): 2, (2, 5): 1}, {(0, 3): 1}, {(1, 1): 4, (0, 9): 1}]
    assert distinct_leads(rows) == {(1, 0), (0, 3), (0, 9)}
    assert distinct_leads([]) == set()
    # a repeated lead, or an empty row, refuses the certificate
    assert distinct_leads(rows + [{(0, 3): 5, (7, 7): 1}]) is None
    assert distinct_leads(rows + [{}]) is None


def test_distinct_leads_stops_at_the_first_repeat():
    made = []

    def rows(leads):
        for k in leads:
            made.append(k)
            yield {} if k is None else {k: 1, 99: 1}

    assert distinct_leads(rows([3, 1, 3, 2, 5])) is None
    assert made == [3, 1, 3]
    made.clear()
    assert distinct_leads(rows([4, None, 2])) is None
    assert made == [4, None]


@pytest.mark.parametrize("field", [QQ, GF3])
def test_distinct_leads_are_the_echelon_pivots(field):
    # where the certificate holds, its leads are the pivot keys a
    # SparseRref of the same rows stores, and their count is the rank
    rng = random.Random(606)
    held = refused = 0
    for _ in range(120):
        c = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(1, 5)):
            row = {j: v for j in range(c) if rng.random() < 0.35
                   and (v := field.convert(rng.randint(-3, 3)))}
            rows.append(row)
        leads = distinct_leads(rows)
        if leads is None:
            refused += 1
            continue
        held += 1
        ech = SparseRref(field)
        for row in rows:
            ech.add_row(row)
        assert leads == set(ech.rows)
        dense = [[row.get(j, 0) for j in range(c)] for row in rows]
        assert len(leads) == len(rows) == dense_rank(dense, field.p)
    # the seed draws both outcomes
    assert held > 15 and refused > 15, (held, refused)


@pytest.mark.parametrize("field", [QQ, GF3])
def test_back_substitute_units_are_the_rref(field):
    # the same rows in shuffled orders give identical units, the dense RREF
    rng = random.Random(404)
    for _ in range(40):
        c = rng.randint(1, 6)
        rows = [[field.convert(v) for v in line] for line in
                _random_matrix(rng, rng.randint(1, 6), c, -2, 2)]
        want = dense_rref(rows, field.p)
        for _ in range(3):
            rng.shuffle(rows)
            ech = SparseRref(field)
            for line in rows:
                ech.add_row({j: v for j, v in enumerate(line) if v})
            units, others = back_substitute(ech.rows, field)
            assert others == []
            got = [[units[k].get(j, 0) for j in range(c)]
                   for k in sorted(units)]
            assert got == want


def _heap_echelon(rows, field):
    """Forward echelon with the heap reduction run on every row, the
    reference for the fast path that skips it: {pivot: normalized row}."""
    stored = {}
    for row in rows:
        row = dict(row)
        heap = sorted(row)
        seen = set(heap)
        while heap:
            k = heappop(heap)
            c = row.get(k)
            if not c or k not in stored:
                continue
            field.row_axpy(row, field.neg(c), stored[k])
            for nk in stored[k]:
                if nk not in seen:
                    seen.add(nk)
                    heappush(heap, nk)
        if row:
            k = min(row)
            field.row_scale(row, field.inv(row[k]))
            stored[k] = row
    return stored


def test_add_row_never_aliases_the_callers_row():
    ech = SparseRref(QQ)
    # the first row meets no pivot and skips the heap, the second is
    # reduced by the first, the third reduces to zero
    cases = [({0: Fraction(2), 3: Fraction(1)}, 0, {0: 1, 3: Fraction(1, 2)}),
             ({0: Fraction(1), 1: Fraction(4)}, 1, {1: 1, 3: Fraction(-1, 8)}),
             ({0: Fraction(4), 3: Fraction(2)}, None, {})]
    for row, piv, stored in cases:
        before = dict(row)
        got, out = ech.add_row(row)
        assert (got, out) == (piv, stored) and out is not row
        assert row == before
        row[0] = Fraction(7)
        assert piv is None or ech.rows[piv] == stored


@pytest.mark.parametrize("field", [QQ, GF3])
def test_fast_path_keeps_the_heap_pivots(field):
    # sparse rows over 12 keys: many meet no stored pivot and skip the heap
    rng = random.Random(606)
    skipped = reduced = 0
    for _ in range(40):
        rows = []
        for _ in range(rng.randint(3, 12)):
            row = {j: field.convert(rng.choice((-2, -1, 1, 2)))
                   for j in rng.sample(range(12), rng.randint(1, 3))}
            rows.append({j: v for j, v in row.items() if v})
        ech = SparseRref(field)
        for row in rows:
            if ech.rows.keys().isdisjoint(row):
                skipped += 1
            else:
                reduced += 1
            ech.add_row(row)
        assert ech.rows == _heap_echelon(rows, field)
    assert skipped > 40 and reduced > 40, (skipped, reduced)


def test_back_substitute_over_z_keeps_non_unit_rows():
    pivots = {0: {0: 2, 1: 3, 2: 1, 3: 7},
              1: {1: 1, 2: 5, 3: 1},
              2: {2: 1, 3: -1}}
    units, others = back_substitute(pivots, QQ)
    assert units == {2: {2: 1, 3: -1}, 1: {1: 1, 3: 6}}
    # leading coefficient 2 is no unit; keys 1 and 2 are cleared from it
    assert others == [{0: 2, 3: -10}]
    for row in list(units.values()) + others:
        assert all(type(v) is int for v in row.values())


def _rewrite_tables(pres, top):
    """left_mul_path on every candidate (g,) + w through degree top."""
    engine = GradedEngine(pres)
    out = {}
    for d in range(top):
        for w in engine.basis(d):
            for g in range(len(pres.generators)):
                out[(g, w)] = dict(engine.left_mul_path(g, w))
    return out


@pytest.mark.parametrize("field", [QQ, GF3])
def test_rewrite_tables_independent_of_relation_order(field):
    rng = random.Random(606)
    done = 0
    while done < 30:
        pres = random_presentation(rng, field, max_vertices=2,
                                   max_relations=4)
        if pres is None or len(pres.relations) < 2:
            continue
        rels = [list(rel.terms) for rel in pres.relations]
        rng.shuffle(rels)
        # a unit multiple of a relation spans the same ideal
        s = field.convert(rng.choice((2, -1)))
        rels[0] = [(c * s, b, a) for c, b, a in rels[0]]
        other = Presentation(pres.vertices, pres.generators, rels, field)
        assert _rewrite_tables(other, 5) == _rewrite_tables(pres, 5)
        done += 1


def test_exact_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix(1, 1, {(1, 0): 1})
    m = ExactMatrix(1, 2, {(0, 0): 0, (0, 1): 5})
    assert (m.rows, m.cols, m.entries) == (1, 2, {(0, 1): 5})
