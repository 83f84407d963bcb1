import itertools
import random
from fractions import Fraction

import pytest

from bruteforce import connected, spectral_class
from preproj.quiver import (
    Arrow,
    DYNKIN,
    EXTENDED,
    OTHER,
    Quiver,
    QuiverError,
    adjacency_double,
    classify,
    double,
    find_extended_dynkin_subquiver,
    parse_quiver,
    relation_count_matrix,
)


def path_quiver(n):
    vs = [str(k) for k in range(1, n + 1)]
    return Quiver(vs, [Arrow("a%d" % k, vs[k], vs[k + 1])
                       for k in range(n - 1)])


def cycle_quiver(n):
    vs = [str(k) for k in range(n)]
    return Quiver(vs, [Arrow("a%d" % k, vs[k], vs[(k + 1) % n])
                       for k in range(n)])


def star_quiver(arms, white_center=False, extra_white=()):
    """Center 'c', arms[i] parallel arrows c -> leaf i+1."""
    vs = ["c"] + ["l%d" % (i + 1) for i in range(len(arms))]
    arrows = []
    for i, r in enumerate(arms):
        for k in range(r):
            arrows.append(Arrow("a%d_%d" % (i + 1, k), "c", "l%d" % (i + 1)))
    white = (["c"] if white_center else []) + list(extra_white)
    return Quiver(vs, arrows, white)


def tree_quiver(edges):
    vs = sorted({v for e in edges for v in e})
    return Quiver(vs, [Arrow("a%d" % k, t, h) for k, (t, h) in enumerate(edges)])


def test_construction_errors():
    with pytest.raises(QuiverError):
        Quiver([], [])
    with pytest.raises(QuiverError):
        Quiver(["v", "v"], [])
    with pytest.raises(QuiverError):
        Quiver(["v"], [Arrow("a", "v", "x")])
    with pytest.raises(QuiverError):
        Quiver(["v"], [Arrow("a", "v", "v"), Arrow("a", "v", "v")])
    with pytest.raises(QuiverError):
        Quiver(["v"], [], white=["x"])
    with pytest.raises(QuiverError):
        Quiver(["v"], [Arrow("a", "v", "v")], gamma={"b": 1})
    with pytest.raises(QuiverError):
        Quiver(["v"], [Arrow("a", "v", "v")], gamma={"a": 0})
    with pytest.raises(QuiverError):
        Quiver(["v"], [Arrow("a", "v", "v")], gamma={"a": "\u0663"})
    # gamma must touch a black vertex
    with pytest.raises(QuiverError):
        Quiver(["v"], [Arrow("a", "v", "v")], white=["v"], gamma={"a": 1})


def test_parse_basic():
    q = parse_quiver("""
    # a star
    vertices: 1 2
    arrow a: 2 -> 1
    white: 2
    gamma a = 2/3
    gamma a* = -1
    """)
    assert q.vertices == ("1", "2")
    assert q.arrows == (Arrow("a", "2", "1"),)
    assert q.white == frozenset({"2"})
    assert q.gamma == {"a": Fraction(2, 3), "a*": Fraction(-1)}


@pytest.mark.parametrize("text,msg", [
    ("arrow a: 1 -> 2", "vertex"),
    ("vertices: 1 1", "duplicate"),
    ("vertices: 1\narrow a: 1 - 2", "tail -> head"),
    ("vertices: 1\narrow a 1 -> 1", "arrow"),
    ("vertices: 1\nwhat: x", "unrecognized"),
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = x", "gamma"),
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = 1\ngamma a = 2", "duplicate"),
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = 0", "gamma"),
    # int() and Fraction() read these non-ASCII digits as 3 and 1/2
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = \u0663", "gamma"),
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = \uff11/\uff12", "gamma"),
    # Fraction() reads the first four as 10, 1000, a zero division and
    # 0.5; the grammar is a sign, ASCII digits, then /digits or .digits
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = 1_0", "bad gamma value"),
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = 1e3", "bad gamma value"),
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = 1/0", "bad gamma value"),
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = .5", "bad gamma value"),
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = 1/-2", "bad gamma value"),
    ("vertices: 1\narrow a: 1 -> 1\ngamma a = 1.2.3", "bad gamma value"),
])
def test_parse_errors(text, msg):
    with pytest.raises(QuiverError) as e:
        parse_quiver(text)
    assert msg in str(e.value).lower()


def test_parse_gamma_grammar():
    q = parse_quiver("vertices: 1\narrow a: 1 -> 1\n"
                     "gamma a = +3\ngamma a* = -1.25\n")
    assert q.gamma == {"a": Fraction(3), "a*": Fraction(-5, 4)}
    q = parse_quiver("vertices: 1\narrow a: 1 -> 1\ngamma a = -06/4\n")
    assert q.gamma == {"a": Fraction(-3, 2)}


@pytest.mark.parametrize("val", ["x", "1/0", "1_0", "1e3", " 2", None, 0.1,
                                 True, [1]])
def test_quiver_gamma_value_rejected(val):
    # 'x', '1/0', None and [1] used to raise ValueError, ZeroDivisionError
    # or TypeError; the others were taken silently
    with pytest.raises(QuiverError):
        Quiver(["v"], [Arrow("a", "v", "v")], gamma={"a": val})


@pytest.mark.parametrize("val,want", [(2, Fraction(2)),
                                      (Fraction(1, 3), Fraction(1, 3)),
                                      ("-3/4", Fraction(-3, 4)),
                                      ("0.5", Fraction(1, 2))])
def test_quiver_gamma_value_accepted(val, want):
    q = Quiver(["v"], [Arrow("a", "v", "v")], gamma={"a": val})
    assert q.gamma == {"a": want}


def test_double_loop():
    q = Quiver(["v"], [Arrow("l", "v", "v")])
    d = double(q)
    assert [a.name for a in d.arrows] == ["l", "l*"]
    assert all(a.tail == a.head == "v" for a in d.arrows)


def test_double_arrow_and_parallel():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    d = double(q)
    assert d.arrows[1] == Arrow("a*", "2", "1")
    r = 3
    q = Quiver(["1", "2"], [Arrow("a%d" % k, "2", "1") for k in range(r)])
    assert len(double(q).arrows) == 2 * r


def test_adjacency_examples():
    assert adjacency_double(Quiver(["v"], [Arrow("l", "v", "v")])) == [[2]]
    assert adjacency_double(Quiver(["1", "2"], [Arrow("a", "1", "2")])) \
        == [[0, 1], [1, 0]]
    q = star_quiver([2, 1, 3])
    C = adjacency_double(q)
    assert C[0][1:] == [2, 1, 3] and [row[0] for row in C[1:]] == [2, 1, 3]
    assert all(C[i][j] == 0 for i in range(1, 4) for j in range(1, 4))
    # symmetry and row sums = degrees in the double
    for i in range(4):
        for j in range(4):
            assert C[i][j] == C[j][i]


def test_relation_count_matrix():
    q = star_quiver([1, 1], white_center=True, extra_white=["l2"])
    assert relation_count_matrix(q) == [
        [0, 0, 0], [0, 1, 0], [0, 0, 0]]


def test_classify_dynkin_families():
    assert classify(path_quiver(1)).label == "A_1"
    assert classify(path_quiver(2)).label == "A_2"
    assert classify(path_quiver(5)).label == "A_5"
    d4 = tree_quiver([("c", "1"), ("c", "2"), ("c", "3")])
    assert classify(d4).verdict == DYNKIN
    assert classify(d4).label == "D_4"


def test_classify_named_trees():
    # arms of lengths (1, 2, 2) from the branch vertex: E_6 shape is
    # (1, 2, 2), E_7 is (1, 2, 3), E_8 is (1, 2, 4), D_n is (1, 1, n-2)
    def arms(*ls):
        edges = []
        for i, l in enumerate(ls):
            prev = "c"
            for k in range(l):
                cur = "v%d_%d" % (i, k)
                edges.append((prev, cur))
                prev = cur
        return tree_quiver(edges)

    assert classify(arms(1, 1, 1)).label == "D_4"
    assert classify(arms(1, 1, 3)).label == "D_6"
    assert classify(arms(1, 2, 2)).label == "E_6"
    assert classify(arms(1, 2, 3)).label == "E_7"
    assert classify(arms(1, 2, 4)).label == "E_8"
    assert classify(arms(2, 2, 2)).label == "E~_6"
    assert classify(arms(1, 3, 3)).label == "E~_7"
    assert classify(arms(1, 2, 5)).label == "E~_8"
    assert classify(arms(1, 2, 6)).verdict == OTHER
    assert classify(arms(2, 2, 3)).verdict == OTHER
    assert classify(arms(1, 1, 1, 1)).label == "D~_4"


def test_classify_affine_families():
    assert classify(Quiver(["v"], [Arrow("l", "v", "v")])).label == "A~_0"
    dbl = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])
    assert classify(dbl).label == "A~_1"
    for n in (3, 4, 6):
        assert classify(cycle_quiver(n)).label == "A~_%d" % (n - 1)
    dn = tree_quiver([("1", "c"), ("2", "c"), ("c", "d"), ("d", "3"),
                      ("d", "4")])
    assert classify(dn).label == "D~_5"


def test_classify_other():
    assert classify(star_quiver([1, 1, 1, 1, 1])).verdict == OTHER
    two_loops = Quiver(["v"], [Arrow("a", "v", "v"), Arrow("b", "v", "v")])
    assert classify(two_loops).verdict == OTHER
    triple = Quiver(["1", "2"], [Arrow("a%d" % k, "1", "2") for k in range(3)])
    assert classify(triple).verdict == OTHER
    # cycle with a tail
    q = Quiver(["1", "2", "3", "4"],
               [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                Arrow("c", "3", "1"), Arrow("d", "3", "4")])
    assert classify(q).verdict == OTHER


def test_classify_disconnected():
    q = Quiver(["1", "2", "3"], [Arrow("a", "1", "2")])
    cls = classify(q)
    assert not cls.connected
    assert cls.verdict is None


def _flip_some(q, rng):
    arrows = [Arrow(a.name, a.head, a.tail) if rng.random() < 0.5 else a
              for a in q.arrows]
    return Quiver(q.vertices, arrows, q.white)


def test_classify_orientation_independent():
    rng = random.Random(606)
    corpus = [path_quiver(4), cycle_quiver(5), star_quiver([2, 1]),
              tree_quiver([("c", "1"), ("c", "2"), ("c", "3")]),
              Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])]
    for q in corpus:
        base = classify(q)
        for _ in range(6):
            flipped = classify(_flip_some(q, rng))
            assert (flipped.verdict, flipped.label) == (base.verdict, base.label)


def _random_connected(rng, max_v=6):
    nv = rng.randint(1, max_v)
    vs = [str(k) for k in range(nv)]
    arrows = [Arrow("t%d" % k, vs[rng.randrange(k + 1)], vs[k + 1])
              for k in range(nv - 1)]  # random spanning tree keeps it connected
    for k in range(rng.randint(0, 3)):
        arrows.append(Arrow("x%d" % k, rng.choice(vs), rng.choice(vs)))
    return Quiver(vs, arrows)


def test_subquiver_reclassifies_extended():
    rng = random.Random(707)
    hits = 0
    for _ in range(120):
        q = _random_connected(rng)
        cls = classify(q)
        if cls.verdict == DYNKIN:
            with pytest.raises(QuiverError):
                find_extended_dynkin_subquiver(q)
            continue
        sub = find_extended_dynkin_subquiver(q)
        hits += 1
        assert classify(sub).verdict == EXTENDED
        assert set(sub.vertices) <= set(q.vertices)
        names = {a.name for a in q.arrows}
        assert all(a.name in names for a in sub.arrows)
    assert hits >= 40


def test_spectral_class_agrees_with_combinatorial():
    rng = random.Random(808)
    corpus = [path_quiver(3), path_quiver(6), cycle_quiver(4),
              star_quiver([1, 1, 1]), star_quiver([2]),
              Quiver(["v"], [Arrow("l", "v", "v")]),
              star_quiver([1, 1, 1, 1]),
              tree_quiver([("1", "2"), ("2", "3"), ("3", "4"), ("3", "5")])]
    corpus += [_random_connected(rng, 5) for _ in range(40)]
    for q in corpus:
        cls = classify(q)
        assert spectral_class(q) == (cls.verdict, cls.label)


def _census():
    """Every labelled multigraph on 1..5 vertices with at most five edges
    and enough edges to be connected, loops and parallel edges allowed, one
    arrow per edge from the lower-numbered end."""
    for n in range(1, 6):
        vs = [str(k) for k in range(n)]
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(n - 1, 6):
            for edges in itertools.combinations_with_replacement(slots, m):
                yield Quiver(vs, [Arrow("e%d" % k, vs[i], vs[j])
                                  for k, (i, j) in enumerate(edges)])


def _pruefer_quivers(rng, count):
    """Seeded random labelled trees on 6..10 vertices, decoded from Pruefer
    sequences, each with no or one extra edge (possibly a loop or a
    parallel edge)."""
    for _ in range(count):
        n = rng.randint(6, 10)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        deg = [1] * n
        for x in seq:
            deg[x] += 1
        edges = []
        for x in seq:
            leaf = deg.index(1)
            edges.append((leaf, x))
            deg[leaf] -= 1
            deg[x] -= 1
        edges.append(tuple(i for i in range(n) if deg[i] == 1))
        if rng.random() < 0.5:
            edges.append((rng.randrange(n), rng.randrange(n)))
        vs = [str(k) for k in range(n)]
        yield Quiver(vs, [Arrow("e%d" % k, vs[a], vs[b])
                          for k, (a, b) in enumerate(edges)])


def test_classify_matches_spectral_oracle_on_census():
    # 2,426 connected graphs in the census; the Pruefer trees reach the
    # E_n and E~_n that five vertices cannot
    graphs = 0
    labels = set()
    for q in itertools.chain(_census(),
                             _pruefer_quivers(random.Random(99), 400)):
        cls = classify(q)
        assert cls.connected == connected(adjacency_double(q))
        if not cls.connected:
            continue
        graphs += 1
        labels.add(cls.label)
        assert (cls.verdict, cls.label) == spectral_class(q)
        if cls.verdict == DYNKIN:
            with pytest.raises(QuiverError):
                find_extended_dynkin_subquiver(q)
            continue
        sub = find_extended_dynkin_subquiver(q)
        assert set(sub.vertices) <= set(q.vertices)
        assert set(sub.arrows) <= set(q.arrows)
        contains = classify(sub)
        assert (contains.verdict, contains.label) == spectral_class(sub)
        assert contains.verdict == EXTENDED
        assert (len(sub.arrows) < len(q.arrows)) == (cls.verdict == OTHER)
    assert graphs == 2426 + 400
    assert {"E_6", "E_7", "E_8", "E~_6", "E~_7", "E~_8"} <= labels
