import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import preproj
from preproj import koszul
from bruteforce import random_presentation, tor_by_search
from test_acceptance import (
    all_star_combos,
    d4_tilde,
    extended_dynkin_five,
    wild_pair,
)
from preproj.algebra import (
    WORD_PRIME,
    CandidateBoundError,
    GradedEngine,
    Generator,
    Presentation,
    generator_matrix,
    hilbert_series,
    preprojective_presentation,
    relation_dim_matrix,
)
from preproj.field import QQ, FieldSpec, SparseRref
from preproj.koszul import (
    golod_shafarevich_check,
    koszul_complex_kernel,
    koszulity_verdict,
    tor_dimensions,
)
from preproj.quiver import Arrow, Quiver
from preproj.series import MatrixSeries, add, identity_series, mul, sub

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def loop_pres(field=QQ):
    return preprojective_presentation(
        Quiver(["v"], [Arrow("l", "v", "v")]), field)


def a2_pres(field=QQ):
    return preprojective_presentation(
        Quiver(["1", "2"], [Arrow("a", "1", "2")]), field)


def cycle3_pres(field=QQ):
    q = Quiver(["1", "2", "3"],
               [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                Arrow("c", "3", "1")])
    return preprojective_presentation(q, field)


def free_two_letters():
    return Presentation(
        ["v"], [Generator("x", 0, 0), Generator("y", 0, 0)], [], QQ)


def test_gs_report_extended_dynkin():
    gs = golod_shafarevich_check(loop_pres(), 8)
    assert gs.positivity and gs.inequality and gs.equality
    assert gs.first_diff is None
    assert gs.series == gs.closed


def test_gs_report_dynkin_negative_closed_form():
    gs = golod_shafarevich_check(a2_pres(), 8)
    assert not gs.positivity
    assert gs.positivity_witness == (3, 0, 1)
    assert gs.inequality is None  # not asserted when positivity fails
    assert not gs.equality
    assert gs.first_diff == (3, 0, 1)


def test_gs_inequality_on_random_positive_cases():
    rng = random.Random(1001)
    seen = 0
    while seen < 15:
        p = random_presentation(rng, mass_cap=4000)
        if p is None:
            continue
        gs = golod_shafarevich_check(p, 6)
        if not gs.positivity:
            continue
        assert gs.inequality, "series fell below a nonnegative closed form"
        seen += 1


def test_kernel_zero_for_extended_dynkin():
    k = koszul_complex_kernel(loop_pres(), 8)
    zero = [[0]]
    assert all(k[d] == zero for d in range(9))


def test_kernel_a2_hand_value():
    # kernel dims h_A(1 - Ct + Dt^2) - 1: first nonzero at degree 3 = C
    k = koszul_complex_kernel(a2_pres(), 6)
    assert k[0] == [[0, 0], [0, 0]]
    assert k[1] == [[0, 0], [0, 0]]
    assert k[2] == [[0, 0], [0, 0]]
    assert k[3] == [[0, 1], [1, 0]]


def test_kernel_identity_against_series_arithmetic():
    for pres in (loop_pres(), a2_pres(), cycle3_pres(GF2)):
        N = 6
        engine = GradedEngine(pres)
        h = engine.series(N)
        n = h.n
        C = generator_matrix(pres)
        D = relation_dim_matrix(pres)
        poly = [[[1 if i == j else 0 for j in range(n)] for i in range(n)],
                [[-C[i][j] for j in range(n)] for i in range(n)],
                [list(row) for row in D]]
        poly += [[[0] * n for _ in range(n)]] * (N - 2)
        hk = sub(mul(h, MatrixSeries(n, poly)), identity_series(n, N))
        assert koszul_complex_kernel(pres, N, engine) == hk


def test_tor_loop_table():
    t = tor_dimensions(loop_pres(), i_max=3, d_max=6)
    assert t.matrix(0, 0) == [[1]]
    assert t.matrix(1, 1) == [[2]]
    assert t.matrix(2, 2) == [[1]]
    assert t.concentrated()
    # nothing above homological degree 2 for a complete intersection of
    # one relation in two letters
    for i in (3,):
        for d in range(7):
            M = t.matrix(i, d)
            assert M is None or M == [[0]]


def test_tor_free_algebra_vanishes():
    t = tor_dimensions(free_two_letters(), i_max=3, d_max=6)
    assert t.matrix(0, 0) == [[1]]
    assert t.matrix(1, 1) == [[2]]
    for i in (2, 3):
        for d in range(7):
            M = t.matrix(i, d)
            assert M is None or M == [[0]]
    assert t.concentrated()


def test_tor_a2_concentrated_but_not_koszul_series():
    # quadratic monomial quotient: Tor is diagonal even though the series
    # does not match the closed form (which goes negative)
    t = tor_dimensions(a2_pres(), i_max=3, d_max=8)
    assert t.concentrated()
    assert t.matrix(2, 2) == [[1, 0], [0, 1]]
    v = koszulity_verdict(a2_pres(), N=8, i_max=3, d_max=8)
    assert not v.koszul
    assert v.complete
    assert v.witnesses == (("series", (3, 0, 1)),)


def test_koszul_verdict_extended_dynkin():
    for pres in (loop_pres(), cycle3_pres()):
        v = koszulity_verdict(pres, N=8, i_max=3, d_max=8)
        assert v.koszul and v.complete
        assert v.witnesses == ()
        assert v.gs.equality
        assert v.tor.concentrated()


def test_koszul_verdict_free_algebra():
    v = koszulity_verdict(free_two_letters(), N=8, i_max=3, d_max=8)
    assert v.koszul


def test_euler_characteristic_identity():
    # sum_i (-1)^i h_{Tor_i} * h_A = 1 in degrees d <= i_max, since any
    # missing Tor_i with i > i_max starts in degree > i_max
    cases = [loop_pres(), a2_pres(), cycle3_pres(),
             preprojective_presentation(
                 Quiver(["1", "2"], [Arrow("a", "2", "1"),
                                     Arrow("b", "2", "1")], white=["2"]))]
    for pres in cases:
        i_max = 3
        engine = GradedEngine(pres)
        t = tor_dimensions(pres, i_max=i_max, d_max=i_max, engine=engine)
        h = engine.series(i_max)
        n = h.n
        zero = [[0] * n for _ in range(n)]
        total = MatrixSeries(n, [zero] * (i_max + 1))
        for i in range(i_max + 1):
            hi = MatrixSeries(n, [t.matrix(i, d) or zero
                                  for d in range(i_max + 1)])
            term = mul(hi, h)
            total = add(total, term) if i % 2 == 0 else sub(total, term)
        assert total == identity_series(n, i_max)


def test_column_cap_reports_partial(monkeypatch):
    pres = cycle3_pres()
    v = koszulity_verdict(pres, N=6, i_max=3, d_max=6)
    assert v.koszul  # default cap is far above this size
    monkeypatch.setattr(preproj.koszul, "TOR_COLUMN_CAP", 5)
    small = tor_dimensions(pres, i_max=3, d_max=6)
    assert small.partial
    assert not all((i, d) in small.entries
                   for i in range(4) for d in range(7))
    # stages 0-2 are read off the Koszul complex, so the cap can only
    # leave cells from stage 3 on partial
    assert all((i, d) in small.entries for i in range(3) for d in range(7))
    assert all(i >= 3 for i, _ in small.partial)
    assert small.entries == {k: M for k, M in v.tor.entries.items()
                             if k not in small.partial}


def test_column_cap_is_applied_before_any_column_is_built(monkeypatch):
    built = []
    extend = preproj.koszul._extend_columns

    def spy(engine, gens_list, d, prev):
        cols = extend(engine, gens_list, d, prev)
        built.append((d, len(cols)))
        return cols

    monkeypatch.setattr(preproj.koszul, "_extend_columns", spy)
    pres = cycle3_pres()
    want = koszulity_verdict(pres, N=6, i_max=3, d_max=6)
    monkeypatch.setattr(preproj.koszul, "TOR_COLUMN_CAP", 5)
    built.clear()
    v = koszulity_verdict(pres, N=6, i_max=3, d_max=6)
    capped = min(d for _, d in v.tor.partial)
    assert built and capped not in [d for d, _ in built]
    assert (v.koszul, v.complete, v.method, v.witnesses) == (
        False, False, "syzygy", ())
    assert v.tor.partial == tuple((3, d) for d in range(3, 7))
    assert v.tor.entries == {k: M for k, M in want.tor.entries.items()
                             if k not in v.tor.partial}
    # the predicted count is exact: a cap at the largest count built skips
    # nothing, one below it skips a cell
    rng = random.Random(4343)
    draws = 0
    while draws < 15:
        pres = random_presentation(rng)
        if pres is None:
            continue
        draws += 1
        monkeypatch.setattr(preproj.koszul, "TOR_COLUMN_CAP", 10**9)
        built.clear()
        want = tor_dimensions(pres, i_max=4, d_max=5)
        most = max((n for d, n in built), default=0)
        monkeypatch.setattr(preproj.koszul, "TOR_COLUMN_CAP", most)
        assert tor_dimensions(pres, i_max=4, d_max=5) == want
        if most:
            monkeypatch.setattr(preproj.koszul, "TOR_COLUMN_CAP", most - 1)
            assert tor_dimensions(pres, i_max=4, d_max=5).partial


def test_tor_gf2_agrees_with_rationals_on_koszul_cases():
    for make in (loop_pres, cycle3_pres):
        tq = tor_dimensions(make(QQ), i_max=2, d_max=5)
        tp = tor_dimensions(make(GF2), i_max=2, d_max=5)
        assert tq.entries == tp.entries


def acceptance_battery():
    """The 92 quivers of acceptance criterion 4."""
    non_star = Quiver(["1", "2", "3", "4"],
                      [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                       Arrow("c", "3", "4"), Arrow("d", "4", "1")],
                      white=["1"])
    return (extended_dynkin_five() + list(all_star_combos()) + [non_star]
            + list(wild_pair()))


def test_tor_matches_search_on_acceptance_battery():
    # tor_dimensions reads stages 0-2 off the Koszul complex; the oracle
    # finds stage 2 by search
    battery = acceptance_battery()
    assert len(battery) == 92
    for field in (QQ, GF3):
        for q in battery:
            pres = preprojective_presentation(q, field)
            engine = GradedEngine(pres)
            v = koszul._verdict(pres, 6, 3, 6, engine)
            assert v.method == "koszul-complex", (q.arrows, q.white)
            assert v.tor.partial == ()
            assert v.tor == tor_by_search(pres, 3, 6, engine), (
                q.arrows, q.white)


def spy_distinct_leads(monkeypatch, module):
    """Record, for each call of module's distinct_leads, whether the
    certificate held (True) or the echelon fallback ran (False)."""
    held = []
    leads = module.distinct_leads

    def spy(rows):
        out = leads(rows)
        held.append(out is not None)
        return out

    monkeypatch.setattr(module, "distinct_leads", spy)
    return held


def test_tor_differentials_take_both_rank_routes(monkeypatch):
    # A~2's Tor columns never share a lead, so each rank is their count;
    # D~4 has degrees whose leads meet, and those go through the echelon.
    # Both tables must equal the search oracle's.
    held = spy_distinct_leads(monkeypatch, preproj.koszul)
    for pres, routes in ((cycle3_pres(), {True}),
                         (preprojective_presentation(d4_tilde()),
                          {True, False})):
        held.clear()
        engine = GradedEngine(pres)
        tor = tor_dimensions(pres, 3, 6, engine)
        assert set(held) == routes
        assert tor == tor_by_search(pres, 3, 6, engine)


def test_tor_matches_search_on_random_presentations():
    rng = random.Random(4242)
    methods = {"koszul-complex": 0, "syzygy": 0}
    draws = 0
    while draws < 150:
        pres = random_presentation(rng)
        if pres is None:
            continue
        draws += 1
        engine = GradedEngine(pres)
        v = koszul._verdict(pres, 6, 4, 6, engine)
        assert v.tor == tor_by_search(pres, 4, 6, engine), pres.relations
        # with N = d_max the stage-3 kernel vanishes exactly when the
        # series equals the closed form
        assert v.method == ("koszul-complex" if v.gs.equality else "syzygy")
        methods[v.method] += 1
    # the seed draws both kinds
    assert min(methods.values()) > 20, methods


def test_koszul_complex_route_with_series_degree_apart_from_d_max():
    for N, d_max in ((3, 6), (6, 3)):
        pres = cycle3_pres()
        v = koszulity_verdict(pres, N=N, i_max=3, d_max=d_max)
        assert v.method == "koszul-complex"
        assert v.gs.N == N and v.gs.series == hilbert_series(pres, N)
        assert v.tor == tor_dimensions(pres, i_max=3, d_max=d_max)


def test_series_matching_only_below_d_max_takes_syzygy():
    # A_2 matches the closed form through degree 2 but not through 5, so
    # the Tor table must come from the resolution, exactly as before
    pres = a2_pres()
    v = koszulity_verdict(pres, N=2, i_max=3, d_max=5)
    assert v.method == "syzygy"
    assert v.gs.equality
    assert v.tor == tor_dimensions(pres, i_max=3, d_max=5)
    assert v.tor.matrix(2, 2) == [[1, 0], [0, 1]]
    assert v.witnesses == ()
    assert v.koszul and v.complete
    assert koszulity_verdict(pres, N=8, i_max=3, d_max=5).method == "syzygy"


# cycle3 with the series raised by one at degree 3 entry (0, 1): the
# stage-3 check of tor_dimensions must reject it even when python -O strips
# assert statements
FAULT_SCRIPT = """
import sys
from preproj.algebra import GradedEngine, preprojective_presentation
from preproj.koszul import tor_dimensions
from preproj.quiver import Arrow, Quiver

series = GradedEngine.series

def faulty(self, N):
    s = series(self, N)
    if N >= 3:
        s.coeffs[3][0][1] += 1
    return s

q = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                             Arrow("c", "3", "1")])
pres = preprojective_presentation(q)
print(tor_dimensions(pres, i_max=3, d_max=3).concentrated())
GradedEngine.series = faulty
try:
    tor_dimensions(pres, i_max=3, d_max=3)
except AssertionError as e:
    print(sys.flags.optimize, e)
"""


def test_stage3_check_raises_on_faulty_series():
    src = Path(preproj.__file__).resolve().parent.parent
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", FAULT_SCRIPT],
                             capture_output=True, text=True, timeout=120,
                             env={"PYTHONPATH": str(src)})
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "True",
            "%d kernel dims disagree at degree 3: ranks [[0, 0, 0], "
            "[0, 0, 0], [0, 0, 0]], series [[0, 1, 0], [0, 0, 0], [0, 0, 0]]"
            % len(flags)]


def test_verdict_refuses_from_the_closed_form_through_its_reach(monkeypatch):
    # the two-loop double: C . cf_2 = 4 * 15 = 60 candidates in degree 3.
    # With stage 3 the engine reaches d_max, so d_max = 3 is refused before
    # any degree is built; with i_max = 2 it reaches only N = 2, which
    # stays under the bound
    p = preprojective_presentation(
        Quiver(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")]))
    built = []
    build = GradedEngine._build

    def recorded(self, d, with_rewrite):
        built.append(d)
        return build(self, d, with_rewrite)

    monkeypatch.setattr(GradedEngine, "_build", recorded)
    monkeypatch.setattr(preproj.algebra, "CANDIDATE_BOUND", 59)
    with pytest.raises(CandidateBoundError) as exc:
        koszulity_verdict(p, N=2, i_max=3, d_max=3)
    assert (exc.value.degree, exc.value.candidates) == (3, 60)
    assert built == []
    v = koszulity_verdict(p, N=2, i_max=2, d_max=3)
    assert v.koszul and built == [2]


def test_relation_span_is_echeloned_once_per_presentation(monkeypatch):
    # Presentation echelons its relations once, into relation_rows: a
    # koszul run over Q echelons the span twice, once per field, and
    # nothing reads it through a new echelon afterwards. The engine's own
    # echelons (GradedEngine._build) are not relation echelons.
    callers = []

    class Counted(SparseRref):
        def __init__(self, field):
            callers.append(sys._getframe(1).f_code.co_name)
            super().__init__(field)

    monkeypatch.setattr(preproj.algebra, "SparseRref", Counted)
    pres = cycle3_pres()
    assert koszulity_verdict(pres, N=6, i_max=3, d_max=6).koszul
    assert len([c for c in callers if c != "_build"]) == 2
    D = relation_dim_matrix(pres)
    gens = [(g.vertex, g.root, g.vector) for g in koszul._relation_gens(pres)]

    class Refused:
        def __init__(self, field):
            raise AssertionError("relation span echeloned again")

    monkeypatch.setattr(preproj.algebra, "SparseRref", Refused)
    assert relation_dim_matrix(pres) == D == [[1, 0, 0], [0, 1, 0],
                                              [0, 0, 1]]
    assert [(g.vertex, g.root, g.vector)
            for g in koszul._relation_gens(pres)] == gens


def _record_engines(monkeypatch):
    """Record the field prime (None for Q) of every GradedEngine made."""
    fields = []
    init = GradedEngine.__init__

    def recorded(self, pres):
        fields.append(pres.field.p)
        init(self, pres)

    monkeypatch.setattr(GradedEngine, "__init__", recorded)
    return fields


def test_verdict_over_q_runs_only_mod_the_word_prime(monkeypatch):
    pres = cycle3_pres()
    fields = _record_engines(monkeypatch)
    v = koszulity_verdict(pres, N=6, i_max=3, d_max=6)
    assert fields == [WORD_PRIME]
    assert v.koszul and v.method == "koszul-complex"


def test_verdict_falls_back_on_a_word_prime_denominator(monkeypatch):
    gamma = {name: Fraction(1) for name in ("a", "b", "c", "a*", "b*", "c*")}
    gamma["b*"] = Fraction(5, 3 * WORD_PRIME)
    pres = preprojective_presentation(Quiver(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "1")],
        (), gamma))
    fields = _record_engines(monkeypatch)
    v = koszulity_verdict(pres, N=6, i_max=3, d_max=6)
    assert fields == [None]
    assert v.koszul


def test_verdict_falls_back_on_a_negative_closed_form(monkeypatch):
    # A_3 is Dynkin: its closed form goes negative, so only Q runs
    pres = preprojective_presentation(
        Quiver(["1", "2", "3"], [Arrow("a", "1", "2"),
                                 Arrow("b", "2", "3")]))
    fields = _record_engines(monkeypatch)
    v = koszulity_verdict(pres, N=6, i_max=3, d_max=6)
    assert fields == [None]
    assert not v.koszul


def test_verdict_falls_back_when_not_koszul_mod_the_word_prime(monkeypatch):
    # x, y with the one relation xx: cf = 1/(1-t)^2, and the series is
    # above it from degree 3 on, so both fields run and Q decides
    pres = Presentation(["v"], [Generator("x", 0, 0), Generator("y", 0, 0)],
                        [[(1, 0, 0)]])
    want = koszul._verdict(pres, 6, 3, 6, GradedEngine(pres))
    fields = _record_engines(monkeypatch)
    v = koszulity_verdict(pres, N=6, i_max=3, d_max=6)
    assert fields == [WORD_PRIME, None]
    assert v == want and not v.koszul
    assert v.witnesses[0] == ("series", (3, 0, 0))


def test_verdict_falls_back_when_a_relation_rank_drops_mod_the_word_prime(
        monkeypatch):
    # x1x0 + x3x2 and x1x0 + (P+1) x3x2 are independent over Q and equal
    # mod P. Mod P the algebra is Koszul with Tor_2 = [[1]] and
    # dims_2 = [[15]]; over Q the answer is Tor_2 = [[2]], dims_2 = [[14]]
    pres = Presentation(["v"], [Generator("x%d" % k, 0, 0) for k in range(4)],
                        [[(1, 1, 0), (1, 3, 2)],
                         [(1, 1, 0), (WORD_PRIME + 1, 3, 2)]])
    fields = _record_engines(monkeypatch)
    v = koszulity_verdict(pres, N=5, i_max=3, d_max=5)
    assert fields == [None]
    assert v.tor.matrix(2, 2) == [[2]]
    assert v.gs.series[2] == [[14]]


def test_verdict_falls_back_when_stage_3_finds_a_class_mod_the_word_prime(
        monkeypatch):
    # xy and zx + P yy: mod P the monomial algebra on xy, zx, Koszul with
    # a Tor_3 class zxy in degree 3 and dims_3 = 16. Over Q dims_3 = 15 =
    # cf_3 but dims_4 = 33 > 31, so Tor_3 lives in degree 4. With N = 2 the
    # series check mod P reads only degrees <= 2, so a Koszul verdict mod P
    # that found a stage-3 class must not stand
    pres = Presentation(["v"], [Generator(n, 0, 0) for n in "xyz"],
                        [[(1, 0, 1)], [(1, 2, 0), (WORD_PRIME, 1, 1)]])
    want = koszul._verdict(pres, 2, 3, 4, GradedEngine(pres))
    fields = _record_engines(monkeypatch)
    v = koszulity_verdict(pres, N=2, i_max=3, d_max=4)
    assert fields == [WORD_PRIME, None]
    assert v == want and not v.koszul
    assert v.tor.matrix(3, 3) == [[0]] and v.tor.matrix(3, 4) == [[2]]


def _battery_with_gammas(rng):
    """The acceptance battery with seeded nonzero rational gammas."""
    out = []
    for q in acceptance_battery():
        black = set(q.vertices) - set(q.white)
        gamma = {}
        for a in q.arrows:
            if a.tail in black or a.head in black:
                for name in (a.name, a.name + "*"):
                    gamma[name] = Fraction(rng.choice((-1, 1))
                                           * rng.randint(1, 9),
                                           rng.randint(1, 9))
        out.append(Quiver(q.vertices, q.arrows, q.white, gamma))
    return out


def test_modular_verdict_equals_the_rational_one(monkeypatch):
    # the modular route returns exactly what the engine over Q decides,
    # field by field, method included. Every battery verdict is decided mod
    # WORD_PRIME; the random draws hold non-Koszul cases, which fall back
    fields = _record_engines(monkeypatch)
    battery = _battery_with_gammas(random.Random(9191))
    for q in battery:
        pres = preprojective_presentation(q)
        assert koszulity_verdict(pres, N=6, i_max=3, d_max=6) == (
            koszul._verdict(pres, 6, 3, 6, GradedEngine(pres))), q.arrows
    assert fields == [WORD_PRIME, None] * len(battery)
    rng = random.Random(7)
    kinds = {True: 0, False: 0}
    while sum(kinds.values()) < 150:
        pres = random_presentation(
            rng, coefficients=(-2, Fraction(-1, 3), 1, Fraction(5, 2)))
        if pres is None:
            continue
        v = koszulity_verdict(pres, N=6, i_max=3, d_max=6)
        assert v == koszul._verdict(pres, 6, 3, 6, GradedEngine(pres)), (
            pres.generators, pres.relations)
        kinds[v.koszul] += 1
    assert min(kinds.values()) > 20, kinds
