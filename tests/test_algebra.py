import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import preproj
from bruteforce import (
    count_avoiding_paths,
    naive_dims,
    path_mass,
    random_presentation,
    random_quiver,
)
from test_acceptance import d4_tilde, full_battery, wild_pair
from preproj.algebra import (
    AlgebraError,
    CandidateBoundError,
    GradedEngine,
    Generator,
    Presentation,
    associated_graded,
    free_product,
    generator_matrix,
    hilbert_series,
    preprojective_presentation,
    relation_dim_matrix,
    WORD_PRIME,
    word_prime_image,
)
from preproj.field import QQ, FieldError, FieldSpec
from preproj.quiver import Arrow, Quiver, adjacency_double
from preproj.series import (
    closed_form,
    free_product_series,
    is_termwise_nonnegative,
    termwise_compare,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def loop_quiver():
    return Quiver(["v"], [Arrow("l", "v", "v")])


def a2_quiver():
    return Quiver(["1", "2"], [Arrow("a", "1", "2")])


def star_a(r, white_node=True):
    """Arrows a1..ar: 2 -> 1; vertex 2 is the node."""
    arrows = [Arrow("a%d" % (k + 1), "2", "1") for k in range(r)]
    return Quiver(["1", "2"], arrows, white=["2"] if white_node else [])


def free_letters(n, letters):
    vs = ["v"]
    return Presentation(vs, [Generator(x, 0, 0) for x in letters], [], QQ)


def test_presentation_validation():
    g = [Generator("a", 0, 1), Generator("b", 1, 0)]
    with pytest.raises(AlgebraError):
        Presentation([], [], [])
    with pytest.raises(AlgebraError):
        Presentation(["v", "v"], [], [])
    with pytest.raises(AlgebraError):
        Presentation(["u", "w"], g, [[(1, 0, 0)]])  # a then a: not composable
    with pytest.raises(AlgebraError):
        Presentation(["u", "w"], g, [[(1, 0, 5)]])
    # terms in different blocks cannot share a relation
    gens = [Generator("x", 0, 0), Generator("y", 1, 1)]
    with pytest.raises(AlgebraError):
        Presentation(["u", "w"], gens, [[(1, 0, 0), (1, 1, 1)]])
    # a coefficient is an int or a Fraction: a float would be stored as its
    # binary fraction, "2" parsed, True read as 1
    for field in (QQ, FieldSpec(7)):
        for bad in (0.1, "2", True, None):
            with pytest.raises(FieldError):
                Presentation(["v"], gens[:1], [[(bad, 0, 0)]], field)


def test_relation_merging_and_dropping():
    gens = [Generator("x", 0, 0)]
    # duplicate keys merge, zero terms drop, empty relations vanish
    p = Presentation(["v"], gens, [[(1, 0, 0), (2, 0, 0)]])
    assert p.relations[0].terms == ((Fraction(3), 0, 0),)
    p = Presentation(["v"], gens, [[(1, 0, 0), (-1, 0, 0)]])
    assert p.relations == ()
    with pytest.raises(AlgebraError):
        Presentation(["v"], gens, [[]])  # literally empty: a mistake


def test_generator_matrix_and_relation_dims():
    q = star_a(2)
    p = preprojective_presentation(q)
    assert generator_matrix(p) == adjacency_double(q) == [[0, 2], [2, 0]]
    assert relation_dim_matrix(p) == [[1, 0], [0, 0]]
    # a dependent duplicate relation must not inflate D
    gens = [Generator("x", 0, 0), Generator("y", 0, 0)]
    terms = [(1, 0, 1), (1, 1, 0)]
    p = Presentation(["v"], gens, [terms, [(2, 0, 1), (2, 1, 0)]])
    assert relation_dim_matrix(p) == [[1]]


def test_preprojective_loop_relation():
    p = preprojective_presentation(loop_quiver())
    assert [g.name for g in p.generators] == ["l", "l*"]
    assert len(p.relations) == 1
    rel = p.relations[0]
    assert rel.start == rel.end == 0
    assert rel.terms == ((Fraction(1), 0, 1), (Fraction(-1), 1, 0))


def test_preprojective_star_relation():
    p = preprojective_presentation(star_a(3))
    assert [g.name for g in p.generators] \
        == ["a1", "a2", "a3", "a1*", "a2*", "a3*"]
    assert len(p.relations) == 1
    rel = p.relations[0]
    assert rel.start == rel.end == 0  # block at the black vertex "1"
    assert rel.terms == tuple((Fraction(1), k, k + 3) for k in range(3))


def test_preprojective_all_white_is_path_algebra():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")], white=["1", "2"])
    p = preprojective_presentation(q)
    assert p.relations == ()
    h = hilbert_series(p, 5)
    C = adjacency_double(q)
    assert h == closed_form(C, [[0, 0], [0, 0]], 5)


def test_preprojective_gamma_must_cover():
    q = Quiver(["v"], [Arrow("l", "v", "v")], gamma={"l": 2})
    with pytest.raises(AlgebraError):
        preprojective_presentation(q)  # l* missing
    q = Quiver(["v"], [Arrow("l", "v", "v")], gamma={"l": 2, "l*": Fraction(1, 3)})
    p = preprojective_presentation(q)
    assert p.relations[0].terms == ((Fraction(2), 0, 1), (Fraction(-1, 3), 1, 0))


def test_preprojective_gamma_zero_mod_p():
    from preproj.field import FieldError
    q = Quiver(["v"], [Arrow("l", "v", "v")], gamma={"l": 3, "l*": 1})
    with pytest.raises(FieldError):
        preprojective_presentation(q, GF3)


def test_loop_dims_brute_force():
    p = preprojective_presentation(loop_quiver())
    e = GradedEngine(p)
    assert [e.dims(d)[0][0] for d in range(7)] == [1, 2, 3, 4, 5, 6, 7]


def test_a2_finite_dimensional():
    p = preprojective_presentation(a2_quiver())
    e = GradedEngine(p)
    assert e.dims(1) == [[0, 1], [1, 0]]
    for d in range(2, 9):
        assert e.dims(d) == [[0, 0], [0, 0]]


def test_star_a1_hand_dims():
    p = preprojective_presentation(star_a(1))
    e = GradedEngine(p)
    assert e.dims(2) == [[0, 0], [0, 1]]
    assert e.dims(3) == [[0, 0], [0, 0]]


def test_normal_form_loop():
    p = preprojective_presentation(loop_quiver())
    e = GradedEngine(p)
    e.series(3)
    # l l* and l* l agree in the quotient
    assert e.normal_form((0, 1)) == e.normal_form((1, 0))
    assert e.normal_form((0, 1)) != {}
    # non-composable words vanish
    p2 = preprojective_presentation(a2_quiver())
    e2 = GradedEngine(p2)
    assert e2.normal_form((0, 0)) == {}


def test_normal_form_is_projection():
    # reducing a basis word returns itself
    p = preprojective_presentation(star_a(2, white_node=False))
    e = GradedEngine(p)
    for d in range(1, 4):
        for w in e.basis(d):
            assert e.normal_form(w) == {w: p.field.one}


def test_dims_match_naive_on_corpus():
    quivers = [
        (loop_quiver(), 6),
        (a2_quiver(), 6),
        (star_a(1), 6),
        (star_a(2), 5),
        (star_a(2, white_node=False), 5),
        (Quiver(["1", "2", "3"],
                [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                 Arrow("c", "3", "1")]), 5),
        (Quiver(["1", "2", "3", "4"],
                [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                 Arrow("c", "3", "4"), Arrow("d", "4", "1")],
                white=["2"]), 5),
        (Quiver(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")]), 4),
    ]
    for field in (QQ, GF2, GF3):
        for q, N in quivers:
            p = preprojective_presentation(q, field)
            assert GradedEngine(p).series(N).coeffs == naive_dims(p, N)


def test_dims_match_naive_random_quivers():
    rng = random.Random(909)
    done = 0
    while done < 25:
        q = random_quiver(rng)
        if path_mass(adjacency_double(q), 5) > 4000:
            continue
        field = rng.choice((QQ, GF2, GF3))
        p = preprojective_presentation(q, field)
        assert GradedEngine(p).series(5).coeffs == naive_dims(p, 5)
        done += 1


def test_dims_match_naive_random_presentations():
    rng = random.Random(910)
    done = 0
    while done < 25:
        p = random_presentation(rng, mass_cap=4000)
        if p is None:
            continue
        assert GradedEngine(p).series(5).coeffs == naive_dims(p, 5)
        done += 1


def test_dims_with_gamma_match_naive():
    rng = random.Random(911)
    q0 = Quiver(["1", "2", "3"],
                [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                 Arrow("c", "3", "1")])
    touching = [a.name for a in q0.arrows] + [a.name + "*" for a in q0.arrows]
    for _ in range(6):
        gamma = {k: Fraction(rng.choice((1, 2, 3, -1, -2))) for k in touching}
        q = Quiver(q0.vertices, q0.arrows, (), gamma)
        p = preprojective_presentation(q, QQ)
        assert GradedEngine(p).series(4).coeffs == naive_dims(p, 4)


def test_dims_independent_of_build_order():
    # asking for the top degree directly (counted only) must agree with
    # the incremental climb used by series()
    p = preprojective_presentation(star_a(2))
    a = GradedEngine(p)
    a.series(6)
    b = GradedEngine(p)
    assert b.dims(6) == a.dims(6)
    assert GradedEngine(p).dims(6) == a.dims(6)


def test_negative_degree_rejected():
    # a negative index must not read the top built degree from the end
    e = GradedEngine(preprojective_presentation(loop_quiver()))
    e.series(4)
    for call in (e.basis, e.dims, lambda d: e.basis_by_start(d, 0)):
        with pytest.raises(AlgebraError, match="negative degree"):
            call(-1)


def test_basis_by_start_partitions_basis():
    p = preprojective_presentation(star_a(2))
    e = GradedEngine(p)
    for d in range(4):
        whole = sorted(e.basis(d))
        parts = []
        for v in range(2):
            parts.extend(e.basis_by_start(d, v))
        assert sorted(parts) == whole


def test_left_mul_associative():
    p = preprojective_presentation(loop_quiver())
    e = GradedEngine(p)
    e.series(5)
    rng = random.Random(912)
    for _ in range(20):
        d = rng.randint(0, 3)
        basis = e.basis(d)
        vec = {w: Fraction(rng.randint(-2, 2)) for w in basis}
        vec = {w: c for w, c in vec.items() if c}
        g1, g2 = rng.randrange(2), rng.randrange(2)
        one_then_other = e.left_mul(g1, e.left_mul(g2, vec))
        via_word = {}
        for w, c in vec.items():
            for u, cu in e.left_mul_path(g2, w).items():
                for x, cx in e.left_mul_path(g1, u).items():
                    val = via_word.get(x, Fraction(0)) + c * cu * cx
                    if val:
                        via_word[x] = val
                    else:
                        via_word.pop(x, None)
        assert one_then_other == via_word


def test_free_algebra_two_letters():
    p = free_letters(1, ["x", "y"])
    h = hilbert_series(p, 8)
    assert [h[d][0][0] for d in range(9)] == [2 ** d for d in range(9)]


def test_free_product_identity():
    p = preprojective_presentation(star_a(2))
    empty = Presentation(["1", "2"], [], [], QQ)
    fp = free_product(p, empty)
    assert hilbert_series(fp, 5) == hilbert_series(p, 5)


def test_free_product_requires_same_vertices():
    with pytest.raises(AlgebraError):
        free_product(free_letters(1, ["x"]),
                     Presentation(["u", "w"], [], [], QQ))


def test_free_product_one_loop_algebras():
    one = free_letters(1, ["x"])
    fp = free_product(one, one)
    h = hilbert_series(fp, 7)
    assert [h[d][0][0] for d in range(8)] == [2 ** d for d in range(8)]


def test_free_product_star_union():
    # white node: relations live at the leaves, so the union splits
    left = star_a(1)
    q_union = Quiver(["1", "2", "3"],
                     [Arrow("a", "2", "1"), Arrow("b", "2", "3")],
                     white=["2"])
    q1 = Quiver(["1", "2", "3"], [Arrow("a", "2", "1")], white=["2"])
    q2 = Quiver(["1", "2", "3"], [Arrow("b", "2", "3")], white=["2"])
    assert left.white == frozenset({"2"})
    pu = preprojective_presentation(q_union)
    fp = free_product(preprojective_presentation(q1),
                      preprojective_presentation(q2))
    assert hilbert_series(fp, 6) == hilbert_series(pu, 6)
    assert hilbert_series(pu, 6) == free_product_series(
        hilbert_series(preprojective_presentation(q1), 6),
        hilbert_series(preprojective_presentation(q2), 6))


def test_associated_graded_needs_all_weights():
    p = free_letters(1, ["x", "y"])
    with pytest.raises(AlgebraError):
        associated_graded(p, {"x": 1})


def test_associated_graded_takes_top_weight():
    gens = [Generator("x", 0, 0), Generator("y", 0, 0)]
    p = Presentation(["v"], gens, [[(1, 0, 0), (1, 0, 1), (1, 1, 1)]])
    # weight(x)=1, weight(y)=0: xx has weight 2, xy weight 1, yy weight 0
    gr = associated_graded(p, {"x": 1, "y": 0})
    assert gr.relations[0].terms == ((Fraction(1), 0, 0),)
    # equal weights keep everything
    gr = associated_graded(p, {"x": 1, "y": 1})
    assert gr.relations[0].terms == p.relations[0].terms


def test_associated_graded_dominates():
    rng = random.Random(913)
    done = 0
    while done < 12:
        p = random_presentation(rng, mass_cap=4000)
        if p is None:
            continue
        w = {g.name: rng.randint(0, 2) for g in p.generators}
        gr = associated_graded(p, w)
        r = termwise_compare(hilbert_series(gr, 5), hilbert_series(p, 5))
        assert r.relation in ("Equal", "FirstGeq")
        done += 1


def test_count_avoiding_paths_small():
    s = count_avoiding_paths(1, 4)
    # loop double: words in l, l* avoiding l* l
    assert [s[d][0][0] for d in range(5)] == [1, 2, 3, 4, 5]
    with pytest.raises(AlgebraError):
        count_avoiding_paths(0, 3)


def test_count_avoiding_paths_matches_closed_form():
    for n in (1, 2, 3):
        got = count_avoiding_paths(n, 8)
        if n == 1:
            C = [[2]]
        elif n == 2:
            C = [[0, 2], [2, 0]]
        else:
            C = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert got == closed_form(C, eye, 8)


def _block_counts(pres, paths):
    n = len(pres.vertices)
    gens = pres.generators
    M = [[0] * n for _ in range(n)]
    for m in paths:
        M[gens[m[0]].head][gens[m[-1]].tail] += 1
    return M


def _check_top_degree_on_demand(p, N):
    # series(N) only counts degree N; asking for its basis, its groupings
    # by start vertex and products landing in it rebuilds it, and all of
    # them must reproduce the counted dims
    e = GradedEngine(p)
    s = e.series(N)
    assert s.coeffs == naive_dims(p, N)
    top = s[N]
    by_mul = set()
    for w in e.basis(N - 1):
        for g in range(len(p.generators)):
            by_mul.update(e.left_mul_path(g, w))
    assert _block_counts(p, by_mul) == top
    assert _block_counts(p, e.basis(N)) == top
    by_start = [m for v in range(len(p.vertices))
                for m in e.basis_by_start(N, v)]
    assert sorted(by_start) == list(e.basis(N))
    assert e.dims(N) == top


def test_counted_top_degree_matches_built_basis_on_corpus():
    quivers = [
        (loop_quiver(), 6),
        (a2_quiver(), 4),
        (star_a(2), 5),
        (star_a(2, white_node=False), 5),
        (Quiver(["1", "2", "3", "4"],
                [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                 Arrow("c", "3", "4"), Arrow("d", "4", "1")],
                white=["2"]), 5),
        (Quiver(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")]), 4),
    ]
    for field in (QQ, GF3):
        for q, N in quivers:
            _check_top_degree_on_demand(preprojective_presentation(q, field),
                                        N)


@pytest.mark.parametrize("field", [QQ, GF3])
def test_counted_top_degree_matches_built_basis_random(field):
    rng = random.Random(913 if field is QQ else 914)
    done = 0
    while done < 15:
        p = random_presentation(rng, field=field, mass_cap=4000)
        if p is None:
            continue
        _check_top_degree_on_demand(p, 5)
        done += 1


def test_candidate_bound_refuses_before_the_echelon(monkeypatch):
    # the two-loop double: C = [[4]], dims 1, 4, 15, 56, ...; degree 3 has
    # 4 * 15 = 60 candidates
    q = Quiver(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")])
    e = GradedEngine(preprojective_presentation(q))
    monkeypatch.setattr(preproj.algebra, "CANDIDATE_BOUND", 59)
    with pytest.raises(CandidateBoundError) as exc:
        e.series(4)
    assert not isinstance(exc.value, AlgebraError)
    assert (exc.value.degree, exc.value.candidates, exc.value.bound) \
        == (3, 60, 59)
    assert str(exc.value) == (
        "degree 3 has 60 candidate paths, above the bound of 59")
    # the degrees below were computed and stay usable
    assert e.dims(2) == [[15]]
    monkeypatch.setattr(preproj.algebra, "CANDIDATE_BOUND", 60)
    assert e.series(3)[3] == [[56]]


def spy_placement_leads(monkeypatch):
    """Record, for each call of algebra.distinct_placement_leads, whether
    the certificate held (True) or the echelon fallback ran (False)."""
    held = []
    certify = preproj.algebra.distinct_placement_leads

    def spy(relations, rewrite):
        out = certify(relations, rewrite)
        held.append(out)
        return out

    monkeypatch.setattr(preproj.algebra, "distinct_placement_leads", spy)
    return held


def spy_placement_degrees(monkeypatch):
    """Record the degree of every placement row algebra makes."""
    degrees = []
    place = preproj.algebra.place_relation

    def spy(terms, u, rewrite, acc):
        degrees.append(len(u) + 2)
        return place(terms, u, rewrite, acc)

    monkeypatch.setattr(preproj.algebra, "place_relation", spy)
    return degrees


@pytest.mark.parametrize("field", [QQ, GF3])
def test_counted_degree_takes_both_rank_routes(monkeypatch, field):
    # series(5) counts only degree 5. A~2's degree-4 rewrite table
    # certifies that its placements have distinct leads, so no row is
    # made; D~4 and the triple arrow have rules whose lead starts with a
    # relation's a, so the echelon runs. Both routes must give the
    # brute-force dims.
    held = spy_placement_leads(monkeypatch)
    degrees = spy_placement_degrees(monkeypatch)
    for q, certified in ((A2_TILDE, True), (d4_tilde(), False),
                         (wild_pair()[1], False)):
        held.clear()
        degrees.clear()
        p = preprojective_presentation(q, field)
        assert GradedEngine(p).series(5).coeffs == naive_dims(p, 5)
        assert held == [certified], q.arrows
        assert (5 in degrees) != certified, q.arrows


def _loops(letters, relations, field):
    return Presentation(["v"], [Generator(x, 0, 0) for x in letters],
                        relations, field)


# presentations on which the certificate must refuse, with the counted
# degree where it does; x < y < z are generators 0, 1, 2 in lex order
REFUSALS = {
    # xx and xy + yx share their smallest first letter x: (ii)
    "same-smallest-b": (
        lambda f: _loops("xy", [[(1, 0, 0)], [(1, 0, 1), (1, 1, 0)]], f),
        4),
    # x appears first in both xy and xx: (i)
    "two-term-smallest-b": (
        lambda f: _loops("xy", [[(1, 0, 1), (1, 0, 0)]], f), 4),
    # the triple arrow's degree-3 rules have leads starting with the
    # relations' a: (iii), though its placements stay independent
    "overlap-triple-arrow": (
        lambda f: preprojective_presentation(wild_pair()[1], f), 4),
    # zx, xx + yx - yz, yx + zz: a degree-3 rule for a key x.. has a lead
    # x.., two placements share a lead and the rows are dependent: (iii)
    "overlap-dependent": (
        lambda f: _loops("xyz", [[(1, 2, 0)],
                                 [(1, 0, 0), (1, 1, 0), (-1, 1, 2)],
                                 [(1, 1, 0), (1, 2, 2)]], f), 4),
    # xy - yy + yx, zx, yy + zy: two keys y.. have rules with one lead,
    # and the rows are dependent: (iv)
    "repeated-rule-lead": (
        lambda f: _loops("xyz", [[(1, 0, 1), (-1, 1, 1), (1, 1, 0)],
                                 [(1, 2, 0)],
                                 [(1, 1, 1), (1, 2, 1)]], f), 4),
    # xx = 0 makes the key xx's rule empty, so xx o x is an empty row
    "empty-rule-loop": (lambda f: _loops("x", [[(1, 0, 0)]], f), 3),
    # A_2 with both vertices black: a*a = 0 and aa* = 0
    "empty-rule-a2": (
        lambda f: preprojective_presentation(a2_quiver(), f), 3),
}


@pytest.mark.parametrize("field", [QQ, GF3], ids=["QQ", "GF3"])
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_placement_leads_refusals_fall_back_to_the_echelon(
        monkeypatch, case, field):
    make, N = REFUSALS[case]
    p = make(field)
    held = spy_placement_leads(monkeypatch)
    assert GradedEngine(p).series(N).coeffs == naive_dims(p, N)
    assert held == [False]


def test_dependent_refusals_exceed_the_closed_form():
    # the two dependent cases are where a looser certificate would
    # undercount: their degree-4 dims exceed the closed form, so their
    # placement rows there are not independent
    for case in ("overlap-dependent", "repeated-rule-lead"):
        p = REFUSALS[case][0](QQ)
        cf = closed_form(generator_matrix(p), relation_dim_matrix(p), 4)
        assert GradedEngine(p).series(4)[4][0][0] > cf[4][0][0], case


@pytest.mark.parametrize("field", [QQ, GF3])
def test_placement_leads_match_naive_on_random_presentations(
        monkeypatch, field):
    rng = random.Random(1501 if field is QQ else 1502)
    held = spy_placement_leads(monkeypatch)
    done = 0
    while done < 40:
        p = random_presentation(rng, field=field, mass_cap=4000)
        if p is None:
            continue
        naive = naive_dims(p, 6)
        for N in range(2, 7):
            assert GradedEngine(p).series(N).coeffs == naive[:N + 1], (
                done, N)
        done += 1
    assert True in held and False in held


def test_certified_counts_make_no_placement_row_on_battery(monkeypatch):
    # where the certificate holds, series(6) makes no degree-6 row, and the
    # rebuild that basis(6) runs reproduces the certified dims; all but D~4
    # and the triple arrow are certified
    held = spy_placement_leads(monkeypatch)
    degrees = spy_placement_degrees(monkeypatch)
    certified = 0
    for q in full_battery():
        held.clear()
        degrees.clear()
        e = GradedEngine(preprojective_presentation(q))
        e.series(6)
        if held == [True]:
            certified += 1
            assert 6 not in degrees, q.arrows
        e.basis(6)
    assert certified == 90


# a stored dims entry raised by one must be caught when the basis tuple is
# built: at a counted degree by the rebuild, at a degree that already has
# its rewrite table by the tuple's block counts; python -O must not strip
# either check
FAULT_SCRIPT = """
import sys
from preproj.algebra import GradedEngine, preprojective_presentation
from preproj.quiver import Arrow, Quiver

q = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
for d in (5, 4):
    e = GradedEngine(preprojective_presentation(q))
    e.series(5)
    e._dims[d][0][1] += 1
    try:
        e.basis(d)
    except AssertionError as exc:
        print(sys.flags.optimize, exc)
"""


def test_lazy_basis_checks_survive_python_O():
    src = Path(preproj.__file__).resolve().parent.parent
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", FAULT_SCRIPT],
                             capture_output=True, text=True, timeout=120,
                             env={"PYTHONPATH": str(src)})
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "%d degree 5 dims [[0, 6], [6, 0]] on rebuild, stored "
            "[[0, 7], [6, 0]]" % len(flags),
            "%d degree 4 basis counts [[5, 0], [0, 5]], stored dims "
            "[[5, 1], [0, 5]]" % len(flags)]


A2_TILDE = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                    Arrow("c", "3", "1")])


def _record_series(monkeypatch, fault=None):
    """Record the field prime (None for Q) of every GradedEngine.series
    call. fault(series) may alter or replace the series mod WORD_PRIME."""
    fields = []
    series = GradedEngine.series

    def recorded(self, N):
        fields.append(self.field.p)
        out = series(self, N)
        if fault is not None and self.field.p == WORD_PRIME:
            out = fault(out)
        return out

    monkeypatch.setattr(GradedEngine, "series", recorded)
    return fields


@pytest.mark.parametrize("field", [QQ, GF3])
def test_hilbert_series_matches_engine_random(field):
    rng = random.Random(915 if field is QQ else 916)
    done = bounded = 0
    while done < 30:
        p = random_presentation(rng, field=field, mass_cap=4000)
        if p is None:
            continue
        cf = closed_form(generator_matrix(p), relation_dim_matrix(p), 6)
        bounded += is_termwise_nonnegative(cf)[0]
        assert hilbert_series(p, 6) == GradedEngine(p).series(6), (
            p.generators, p.relations)
        done += 1
    # most draws take the closed-form route, some fall back
    assert 10 <= bounded < 30, bounded


def test_hilbert_series_skips_the_rational_engine(monkeypatch):
    p = preprojective_presentation(A2_TILDE)
    fields = _record_series(monkeypatch)
    h = hilbert_series(p, 6)
    assert fields == [WORD_PRIME]
    assert h == closed_form(adjacency_double(A2_TILDE),
                            relation_dim_matrix(p), 6)


def test_hilbert_series_falls_back_on_a_word_prime_denominator(monkeypatch):
    gamma = {name: Fraction(1) for name in ("a", "b", "c", "a*", "b*", "c*")}
    gamma["b*"] = Fraction(5, 3 * WORD_PRIME)
    q = Quiver(A2_TILDE.vertices, A2_TILDE.arrows, (), gamma)
    p = preprojective_presentation(q)
    want = GradedEngine(p).series(6)
    fields = _record_series(monkeypatch)
    assert hilbert_series(p, 6) == want
    assert fields == [None]


def test_hilbert_series_falls_back_on_a_negative_closed_form(monkeypatch):
    # A_3 is Dynkin: its closed form goes negative, so neither inequality
    # applies and only the rational engine runs
    q = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    p = preprojective_presentation(q)
    assert not is_termwise_nonnegative(
        closed_form(adjacency_double(q), relation_dim_matrix(p), 6))[0]
    want = GradedEngine(p).series(6)
    fields = _record_series(monkeypatch)
    assert hilbert_series(p, 6) == want
    assert fields == [None]


def test_hilbert_series_runs_no_modular_engine_when_a_rank_drops(
        monkeypatch):
    # x1x0 + x3x2 and x1x0 + (P+1) x3x2 are independent over Q and equal
    # mod P = WORD_PRIME: not a good reduction, so word_prime_image refuses
    # it and only the rational engine runs
    p = Presentation(["v"], [Generator("x%d" % k, 0, 0) for k in range(4)],
                     [[(1, 1, 0), (1, 3, 2)],
                      [(1, 1, 0), (WORD_PRIME + 1, 3, 2)]])
    assert word_prime_image(p) is None
    want = GradedEngine(p).series(5)
    fields = _record_series(monkeypatch)
    assert hilbert_series(p, 5) == want
    assert fields == [None]


def test_hilbert_series_falls_back_above_the_closed_form(monkeypatch):
    # x, y with the one relation xx: cf = 1/(1-t)^2 counts d+1, but the
    # words avoiding xx number 5 in degree 3, so both engines run and the
    # rational one's answer is returned
    p = Presentation(["v"], [Generator("x", 0, 0), Generator("y", 0, 0)],
                     [[(1, 0, 0)]])
    want = GradedEngine(p).series(6)
    assert want[3] == [[5]]
    fields = _record_series(monkeypatch)
    assert hilbert_series(p, 6) == want
    assert fields == [WORD_PRIME, None]


def _raise_one_entry(s):
    s.coeffs[4][1][2] += 1
    return s


def _refuse(s):
    raise CandidateBoundError(5, 17, 16)


@pytest.mark.parametrize("fault", [_raise_one_entry, _refuse],
                         ids=["differs", "refused"])
def test_hilbert_series_falls_back_when_the_modular_series_fails(
        monkeypatch, fault):
    # the rational engine's answer is returned, whatever the closed form
    # and the faulty modular series say
    p = preprojective_presentation(A2_TILDE)
    want = GradedEngine(p).series(6)
    fields = _record_series(monkeypatch, fault)
    assert hilbert_series(p, 6) == want
    assert fields == [WORD_PRIME, None]


def test_hilbert_series_refuses_from_the_closed_form_first(monkeypatch):
    # the two-loop double over GF(3): C . cf_2 = 4 * 15 = 60 candidates in
    # degree 3, refused before any engine runs
    q = Quiver(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")])
    p = preprojective_presentation(q, GF3)
    fields = _record_series(monkeypatch)
    monkeypatch.setattr(preproj.algebra, "CANDIDATE_BOUND", 59)
    with pytest.raises(CandidateBoundError) as exc:
        hilbert_series(p, 4)
    assert (exc.value.degree, exc.value.candidates) == (3, 60)
    assert fields == []
