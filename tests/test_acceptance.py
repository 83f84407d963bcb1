"""Acceptance gate. Each test covers one shipped claim end to end and
prints one PASS line; run with -s (or read captured output) for the list.

The quiver batteries are deliberately literal: every extended Dynkin shape,
every small star with every admissible white set, the two smallest wild
quivers, and seeded random sweeps for the inequality, free-product, and
degeneration claims.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from preproj.algebra import (
    GradedEngine,
    Generator,
    Presentation,
    associated_graded,
    free_product,
    hilbert_series,
    preprojective_presentation,
)
from preproj.cli import main as cli_main
from preproj.field import QQ, FieldSpec
from preproj.koszul import (
    golod_shafarevich_check,
    koszul_complex_kernel,
    koszulity_verdict,
)
from preproj.quiver import (
    DYNKIN,
    Arrow,
    Quiver,
    adjacency_double,
    classify,
    relation_count_matrix,
)
from preproj.series import (
    EQUAL,
    FIRST_GEQ,
    closed_form,
    free_product_series,
    is_termwise_nonnegative,
    termwise_compare,
)
from preproj.torsion import torsion_check

from bruteforce import count_avoiding_paths, random_presentation

GF2 = FieldSpec(2)


def loop_quiver():
    return Quiver(["1"], [Arrow("l", "1", "1")])


def double_edge():
    return Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])


def cycle_quiver(n):
    vs = [str(k + 1) for k in range(n)]
    return Quiver(vs, [Arrow("a%d" % k, vs[k], vs[(k + 1) % n])
                       for k in range(n)])


def d4_tilde():
    return Quiver(["0", "1", "2", "3", "4"],
                  [Arrow("a%d" % k, str(k), "0") for k in range(1, 5)])


def path_quiver(n):
    vs = [str(k + 1) for k in range(n)]
    return Quiver(vs, [Arrow("a%d" % k, vs[k], vs[k + 1])
                       for k in range(n - 1)])


def star(arms, white_leaves=()):
    """Center c, leaf v_i joined by arms[i] parallel arrows; c is white."""
    vs = ["c"] + ["v%d" % (i + 1) for i in range(len(arms))]
    ars = [Arrow("a%d_%d" % (i + 1, k + 1), vs[i + 1], "c")
           for i, r in enumerate(arms) for k in range(r)]
    return Quiver(vs, ars,
                  white=["c"] + ["v%d" % (i + 1) for i in white_leaves])


def wild_pair():
    two_loop = Quiver(["1"], [Arrow("x", "1", "1"), Arrow("y", "1", "1")])
    triple = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2"),
                                 Arrow("c", "1", "2")])
    return two_loop, triple


def extended_dynkin_five():
    return [loop_quiver(), double_edge(), cycle_quiver(3), cycle_quiver(4),
            d4_tilde()]


def series_matches_closed_form(q, field, N):
    h = GradedEngine(preprojective_presentation(q, field)).series(N)
    s = closed_form(adjacency_double(q), relation_count_matrix(q), N)
    return termwise_compare(h, s).relation == EQUAL


def all_star_combos():
    for n in (1, 2, 3):
        for arms in itertools.product((1, 2), repeat=n):
            for k in range(n + 1):
                for wl in itertools.combinations(range(n), k):
                    yield star(arms, wl)


def full_battery():
    """The 92 battery quivers: the extended Dynkin five, every small star,
    the 4-cycle with one white vertex and the two wild quivers."""
    non_star = Quiver(["1", "2", "3", "4"],
                      [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                       Arrow("c", "3", "4"), Arrow("d", "4", "1")],
                      white=["1"])
    return (extended_dynkin_five() + list(all_star_combos())
            + [non_star] + list(wild_pair()))


def quiver_file(tmp_path, name, q):
    lines = ["vertices: " + " ".join(q.vertices)]
    for a in q.arrows:
        lines.append("arrow %s: %s -> %s" % (a.name, a.tail, a.head))
    if q.white:
        lines.append("white: " + " ".join(sorted(q.white)))
    f = tmp_path / (name + ".quiver")
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(f)


def test_criterion_01_extended_dynkin_equality(tmp_path, capsys):
    names = ("A~0", "A~1", "A~2", "A~3", "D~4")
    for name, q in zip(names, extended_dynkin_five()):
        path = quiver_file(tmp_path, name.replace("~", "t"), q)
        for tok in ("q", "f2", "f3", "f5"):
            t0 = time.time()
            code = cli_main(["verify", path, "--degree", "12",
                             "--field", tok])
            elapsed = time.time() - t0
            out, _ = capsys.readouterr()
            assert code == 0, (name, tok, out)
            assert out.startswith("verified:"), (name, tok, out)
            assert elapsed < 60, (name, tok, elapsed)
    print("PASS criterion 1: five extended Dynkin quivers verify at N=12 "
          "over Q, GF(2), GF(3), GF(5)")


def test_criterion_02_partial_equality_stars(tmp_path, capsys):
    count = 0
    for q in all_star_combos():
        for f in (QQ, GF2):
            assert series_matches_closed_form(q, f, 10), (q.arrows, q.white)
        count += 1
    assert count == sum(2 ** n * 2 ** n for n in (1, 2, 3))
    non_star = Quiver(["1", "2", "3", "4"],
                      [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                       Arrow("c", "3", "4"), Arrow("d", "4", "1")],
                      white=["1"])
    for f in (QQ, GF2):
        assert series_matches_closed_form(non_star, f, 10)
    path = quiver_file(tmp_path, "star21w", star((2, 1), (0,)))
    code = cli_main(["verify", path, "--degree", "10"])
    out, _ = capsys.readouterr()
    assert code == 0 and out.startswith("verified:")
    print("PASS criterion 2: %d star/white-set combos and a 4-cycle with "
          "one white vertex verify at N=10 over Q and GF(2)" % count)


def test_criterion_03_wild_quiver_equality():
    for q in wild_pair():
        assert series_matches_closed_form(q, QQ, 8)
    print("PASS criterion 3: two-loop and triple-arrow series equal the "
          "closed form at N=8")


def test_criterion_04_koszulity_across_the_batteries():
    battery = full_battery()
    for q in battery:
        v = koszulity_verdict(preprojective_presentation(q, QQ),
                              N=10, i_max=3, d_max=8)
        assert v.complete, (q.arrows, q.white)
        assert v.koszul, (q.arrows, q.white, v.witnesses)
    print("PASS criterion 4: all %d battery quivers are Koszul "
          "(Tor_i concentrated for i <= 3, d <= 8; series equal to N=10)"
          % len(battery))


def test_hilbert_series_route_matches_engine_on_battery():
    # hilbert_series returns the closed form when the series mod
    # WORD_PRIME equals it; on the battery with seeded gammas (units in
    # GF(3) too) that answer is the engine's, over Q and over GF(3)
    rng = random.Random(40401)
    battery = full_battery()
    units = (1, 2, 4, 5, 7, 8)
    for q in battery:
        black = set(q.vertices) - set(q.white)
        gamma = {}
        for a in q.arrows:
            if a.tail in black or a.head in black:
                for name in (a.name, a.name + "*"):
                    gamma[name] = Fraction(rng.choice((-1, 1))
                                           * rng.choice(units),
                                           rng.choice(units))
        q = Quiver(q.vertices, q.arrows, q.white, gamma)
        for field in (QQ, FieldSpec(3)):
            p = preprojective_presentation(q, field)
            assert hilbert_series(p, 6) == GradedEngine(p).series(6), (
                q.arrows, q.white, field)
    print("PASS: hilbert_series equals the engine on the %d battery "
          "quivers with seeded gammas at N=6 over Q and GF(3)"
          % len(battery))


def test_criterion_05_golod_shafarevich_sweep():
    rng = random.Random(50501)
    positive = kernel_checked = 0
    draws = 0
    while positive < 100 and draws < 600:
        draws += 1
        p = random_presentation(rng)
        if p is None:
            continue
        k = koszul_complex_kernel(p, 8)
        ok, witness = is_termwise_nonnegative(k)
        assert ok, witness
        kernel_checked += 1
        rep = golod_shafarevich_check(p, 8)
        if not rep.positivity:
            continue
        positive += 1
        assert rep.inequality is True, (p.generators, p.relations)
    assert positive >= 100, positive
    print("PASS criterion 5: %d presentations with nonnegative closed form "
          "all satisfy the termwise inequality at N=8; kernel positivity "
          "held on all %d draws" % (positive, kernel_checked))


def test_criterion_06_free_product_series():
    rng = random.Random(60601)
    pairs = 0
    while pairs < 50:
        p1 = random_presentation(rng, max_generators=3)
        p2 = random_presentation(rng, max_generators=3)
        if p1 is None or p2 is None or p1.vertices != p2.vertices:
            continue
        fp = free_product(p1, p2)
        lhs = hilbert_series(fp, 8)
        rhs = free_product_series(hilbert_series(p1, 8),
                                  hilbert_series(p2, 8))
        assert lhs == rhs, (p1.generators, p2.generators)
        pairs += 1
    print("PASS criterion 6: hilbert(free product) equals the free-product "
          "series formula on %d seeded pairs at N=8" % pairs)


def _star_a_presentation(r):
    q = Quiver(["1", "2"], [Arrow("a%d" % (k + 1), "2", "1")
                            for k in range(r)], white=["2"])
    return preprojective_presentation(q, QQ)


def test_criterion_07_associated_graded_domination():
    rng = random.Random(70701)
    pairs = 0
    while pairs < 50:
        p = random_presentation(rng)
        if p is None or not p.relations:
            continue
        w = [rng.randint(0, 2) for _ in p.generators]
        cmp = termwise_compare(hilbert_series(associated_graded(p, w), 8),
                               hilbert_series(p, 8))
        assert cmp.relation in (EQUAL, FIRST_GEQ), (p.generators, w)
        pairs += 1

    # weighting one arm to the top degenerates A(r) to A(1) * free letters
    for r in (2, 3):
        pres = _star_a_presentation(r)
        w = {g.name: 1 if g.name in ("a1", "a1*") else 0
             for g in pres.generators}
        gr = associated_graded(pres, w)
        rest = [Generator(g.name, g.tail, g.head)
                for g in pres.generators if g.name not in ("a1", "a1*")]
        free_rest = Presentation(["1", "2"], rest, [], QQ)
        rhs = free_product_series(
            hilbert_series(_star_a_presentation(1), 8),
            hilbert_series(free_rest, 8))
        assert hilbert_series(gr, 8) == rhs, r

    # a white hub splits a star union into a free product
    union = star((2, 1))
    q1 = Quiver(union.vertices,
                [a for a in union.arrows if a.tail == "v1"], white=["c"])
    q2 = Quiver(union.vertices,
                [a for a in union.arrows if a.tail == "v2"], white=["c"])
    hu = hilbert_series(preprojective_presentation(union, QQ), 8)
    rhs = free_product_series(
        hilbert_series(preprojective_presentation(q1, QQ), 8),
        hilbert_series(preprojective_presentation(q2, QQ), 8))
    assert hu == rhs
    print("PASS criterion 7: filtration degenerations dominate on %d seeded "
          "pairs at N=8, and the star degenerations reproduce the "
          "free-product factorizations exactly" % pairs)


def test_criterion_08_gamma_independence_and_avoidance_oracle():
    rng = random.Random(80801)
    gf7 = FieldSpec(7)
    base = GradedEngine(
        preprojective_presentation(cycle_quiver(3), gf7)).series(10)
    names = ("a0", "a1", "a2", "a0*", "a1*", "a2*")
    for _ in range(10):
        g = {nm: rng.randrange(1, 7) for nm in names}
        q = cycle_quiver(3)
        q = Quiver(q.vertices, q.arrows, gamma=g)
        twisted = GradedEngine(preprojective_presentation(q, gf7)).series(10)
        assert twisted == base, g
    for n in (1, 2, 3):
        C = adjacency_double([loop_quiver(), double_edge(),
                              cycle_quiver(3)][n - 1])
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert count_avoiding_paths(n, 20) == closed_form(C, eye, 20), n
    print("PASS criterion 8: ten random unit gamma twists over GF(7) leave "
          "the A~_2 series unchanged at N=10; the avoidance oracle matches "
          "the closed form to N=20 for n = 1, 2, 3")


def test_criterion_09_integer_torsion(tmp_path, capsys):
    for q in (double_edge(), cycle_quiver(3), d4_tilde()):
        rep = torsion_check(q, 8)
        assert not rep.torsion_found
        assert rep.partial_blocks == ()
        for e in rep.entries:
            assert set(e.divisors) <= {0, 1}, (e.degree, e.row, e.col)
    path = quiver_file(tmp_path, "a2t", cycle_quiver(3))
    code = cli_main(["torsion", path, "--degree", "8"])
    out, _ = capsys.readouterr()
    assert code == 0 and out.splitlines()[-1] == "no torsion"
    print("PASS criterion 9: A~_1, A~_2, D~_4 have no elementary divisor "
          "outside {0, 1} at N=8")


def test_criterion_10_dynkin_negative_control(tmp_path, capsys):
    expected = {
        2: ("A_2", "mismatch at degree 3 entry (1, 2): "
                   "computed 0, closed form -1"),
        3: ("A_3", "mismatch at degree 4 entry (1, 3): "
                   "computed 0, closed form -1"),
    }
    for n, (label, witness_line) in expected.items():
        q = path_quiver(n)
        cls = classify(q)
        assert cls.verdict == DYNKIN and cls.label == label
        s = closed_form(adjacency_double(q), relation_count_matrix(q), 4)
        nonneg, witness = is_termwise_nonnegative(s)
        assert not nonneg and witness[0] <= 4, (n, witness)
        path = quiver_file(tmp_path, "a%d" % n, q)
        code = cli_main(["verify", path, "--degree", "8"])
        out, _ = capsys.readouterr()
        assert code == 1
        assert out.rstrip("\n") == witness_line
        # the reported witness is the true first difference
        h = GradedEngine(preprojective_presentation(q, QQ)).series(8)
        cf = closed_form(adjacency_double(q), relation_count_matrix(q), 8)
        d, i, j = termwise_compare(h, cf).witness
        assert witness_line.startswith("mismatch at degree %d entry (%s, %s)"
                                       % (d, q.vertices[i], q.vertices[j]))
    h2 = GradedEngine(preprojective_presentation(path_quiver(2), QQ)).series(8)
    assert all(sum(map(sum, h2[d])) == 0 for d in range(2, 9))
    print("PASS criterion 10: A_2 and A_3 classify as Dynkin, the closed "
          "form goes negative by degree 4, verify exits 1 with the true "
          "first mismatch, and the A_2 algebra vanishes in degrees 2..8")
