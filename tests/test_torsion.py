import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import preproj
from bruteforce import naive_divisors, random_presentation
from preproj.algebra import (
    CandidateBoundError,
    Generator,
    GradedEngine,
    Presentation,
    preprojective_presentation,
)
from preproj.field import QQ, ExactMatrix, FieldSpec, smith_normal_form
from preproj.quiver import Arrow, Quiver
from preproj.torsion import (
    TorsionError,
    _lattice_insert,
    _prime_factors,
    torsion_check,
)


def a1_tilde():
    return Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])


def a2_dynkin():
    return Quiver(["1", "2"], [Arrow("a", "1", "2")])


def a2_tilde():
    return Quiver(["1", "2", "3"],
                  [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                   Arrow("c", "3", "1")])


def d4_tilde():
    return Quiver(["0", "1", "2", "3", "4"],
                  [Arrow("a%d" % k, str(k), "0") for k in range(1, 5)])


def test_lattice_insert_unimodular():
    # rows (1,1) and (1,-1): lattice basis with divisors [1, 2]
    pivots = {}
    _lattice_insert(pivots, {0: 1, 1: 1})
    _lattice_insert(pivots, {0: 1, 1: -1})
    basis = list(pivots.values())
    m = ExactMatrix(len(basis), 2)
    for r, row in enumerate(basis):
        for c, v in row.items():
            m.entries[(r, c)] = v
    assert smith_normal_form(m) == [1, 2]


def test_lattice_insert_random_preserves_rank_and_snf():
    rng = random.Random(1100)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [{j: rng.randint(-4, 4) for j in range(c)} for _ in range(r)]
        rows = [{j: v for j, v in row.items() if v} for row in rows]
        pivots = {}
        for row in rows:
            _lattice_insert(pivots, dict(row))
        direct = ExactMatrix(r, c)
        for k, row in enumerate(rows):
            for j, v in row.items():
                direct.entries[(k, j)] = v
        reduced = ExactMatrix(len(pivots), c)
        for k, row in enumerate(pivots.values()):
            for j, v in row.items():
                reduced.entries[(k, j)] = v
        full = smith_normal_form(direct)
        nonzero = [d for d in full if d]
        assert smith_normal_form(reduced) == nonzero
        assert len(pivots) == len(nonzero)


def test_extended_dynkin_no_torsion():
    for q in (a1_tilde(), a2_tilde(), d4_tilde()):
        rep = torsion_check(q, 6)
        assert not rep.torsion_found
        assert rep.witnesses == ()
        assert rep.partial_blocks == ()
        assert rep.divisors_outside_units() == ()
        for e in rep.entries:
            assert set(e.divisors) <= {0, 1}
            assert e.rank_q == sum(1 for d in e.divisors if d)


def test_report_shape_small():
    rep = torsion_check(a2_dynkin(), 3)
    assert rep.truncation == 3
    assert rep.primes == (2, 3)
    # degree 2: relation blocks at both vertices; degree 3: placements
    # extend one step left or right
    degrees = sorted({e.degree for e in rep.entries})
    assert degrees == [2, 3]
    d2 = [e for e in rep.entries if e.degree == 2]
    assert sorted((e.row, e.col) for e in d2) == [(0, 0), (1, 1)]
    for e in d2:
        assert e.divisors == (1,)


def test_path_algebra_has_no_matrices():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")], white=["1", "2"])
    rep = torsion_check(q, 6)
    assert rep.entries == ()
    assert not rep.torsion_found


def test_gamma_units_accepted():
    q = Quiver(["1", "2"], [Arrow("a", "2", "1")], white=["2"],
               gamma={"a": -1, "a*": 1})
    rep = torsion_check(q, 5)
    assert not rep.torsion_found


@pytest.mark.parametrize("gamma", [
    {"a": 2, "a*": 1},
    {"a": 1, "a*": -3},
    {"a": "1/2", "a*": 1},
])
def test_gamma_non_unit_rejected(gamma):
    gamma = {k: Fraction(v) for k, v in gamma.items()}
    q = Quiver(["1", "2"], [Arrow("a", "2", "1")], white=["2"], gamma=gamma)
    with pytest.raises(TorsionError):
        torsion_check(q, 4)


def test_two_loop_reports_full_chains():
    # blocks that once fell back to ranks over Q and GF(p) now carry full
    # chains; the ones counts are the rational ranks that fallback printed
    q = Quiver(["1"], [Arrow("x", "1", "1"), Arrow("y", "1", "1")])
    rep = torsion_check(q, 6)
    assert rep.partial_blocks == () and not rep.torsion_found
    ranks = {2: 1, 3: 8, 4: 47, 5: 244, 6: 1185}
    assert [e.degree for e in rep.entries] == sorted(ranks)
    for e in rep.entries:
        assert e.divisors.count(1) == e.rank_q == ranks[e.degree]
        assert set(e.divisors) <= {0, 1}


def two_loop_torsion():
    """x, y at one vertex with xy - yx and xy + yx: Z/2 in degree 2."""
    gens = [Generator("x", 0, 0), Generator("y", 0, 0)]
    return Presentation(["v"], gens, [[(1, 0, 1), (-1, 1, 0)],
                                      [(1, 0, 1), (1, 1, 0)]])


def chains(rep):
    return {(e.degree, e.row, e.col): e.divisors for e in rep.entries}


def oracle_witnesses(want):
    return tuple((d, i, j, dv) for (d, i, j), divs in sorted(want.items())
                 for dv in divs if dv not in (0, 1))


def test_torsion_presentation_matches_path_basis_oracle():
    pres = two_loop_torsion()
    rep = torsion_check(pres, 5)
    want = naive_divisors(pres, 5)
    assert chains(rep) == want
    assert want[(2, 0, 0)] == (1, 2)
    assert rep.torsion_found and rep.primes == (2, 3)
    assert rep.witnesses == oracle_witnesses(want)
    # the lattice rows of degree 2 keep contributing past the first
    # non-unit pivot
    assert sorted({w[0] for w in rep.witnesses}) == [2, 3, 4, 5]


@pytest.mark.parametrize("coefficients, seed", [
    ((-1, 1), 6100),
    ((-3, -2, -1, 1, 2, 3), 6200),
])
def test_random_presentations_match_path_basis_oracle(coefficients, seed):
    rng = random.Random(seed)
    done = with_torsion = 0
    while done < 150:
        pres = random_presentation(rng, max_relations=3,
                                   coefficients=coefficients)
        if pres is None:
            continue
        rep = torsion_check(pres, 5)
        want = naive_divisors(pres, 5)
        assert chains(rep) == want, done
        assert rep.witnesses == oracle_witnesses(want), done
        with_torsion += rep.torsion_found
        done += 1
    if len(coefficients) > 2:
        assert with_torsion >= 40


def test_quiver_and_its_presentation_agree():
    q = d4_tilde()
    assert torsion_check(q, 5) == torsion_check(
        preprojective_presentation(q, QQ), 5)


def test_presentation_without_integer_form_rejected():
    gens = [Generator("x", 0, 0), Generator("y", 0, 0)]
    half = Presentation(["v"], gens, [[(Fraction(1, 2), 0, 1), (1, 1, 0)]])
    with pytest.raises(TorsionError):
        torsion_check(half, 3)
    mod3 = Presentation(["v"], gens, [[(1, 0, 1), (1, 1, 0)]], FieldSpec(3))
    with pytest.raises(TorsionError):
        torsion_check(mod3, 3)


def test_cross_check_runs_on_every_call():
    # the cross-check inside torsion_check asserts engine dimensions over
    # QQ and GF(p) against path counts minus ranks; a pass here is the
    # property (it would raise AssertionError otherwise)
    rng = random.Random(1101)
    from bruteforce import random_quiver
    from preproj.quiver import adjacency_double
    from bruteforce import path_mass
    done = 0
    while done < 8:
        q = random_quiver(rng)
        if path_mass(adjacency_double(q), 5) > 2500:
            continue
        rep = torsion_check(q, 5)
        for e in rep.entries:
            assert all(d >= 0 for d in e.divisors)
        done += 1


def test_cross_check_catches_a_prime_field_fault(monkeypatch):
    # the GF(2) dims of the torsion presentation, raised by one at degree
    # 3, no longer match the chain's count of odd divisors
    series = GradedEngine.series

    def faulty(self, N):
        s = series(self, N)
        if self.field.p == 2:
            s.coeffs[3][0][0] += 1
        return s

    monkeypatch.setattr(GradedEngine, "series", faulty)
    with pytest.raises(AssertionError, match="GF.2. dimension mismatch"):
        torsion_check(two_loop_torsion(), 4)


def test_divisor_padding_counts_zero_divisors():
    # placements outnumber their span once paths recombine; the padding
    # restores one zero per dependent placement up to min(rows, cols)
    rep = torsion_check(a2_tilde(), 5)
    by_key = {(e.degree, e.row, e.col): e for e in rep.entries}
    e = by_key[(4, 0, 0)]
    assert e.divisors == (1, 1, 1, 1, 1, 0)
    assert e.rank_q == 5
    for e in rep.entries:
        assert sum(1 for d in e.divisors if d == 0) == len(e.divisors) - e.rank_q


def test_prime_factors_is_complete():
    assert _prime_factors(1) == []
    assert _prime_factors(12) == [2, 3]
    assert _prime_factors(-202) == [2, 101]
    assert _prime_factors(101 * 103) == [101, 103]
    assert _prime_factors(2 ** 5 * 10007) == [2, 10007]


# A~1 with the rational series raised by one at degree 3 entry (0, 1): the
# cross-check must reject it even when python -O strips assert statements.
FAULT_SCRIPT = """
import sys
from preproj.algebra import GradedEngine
from preproj.quiver import Arrow, Quiver
from preproj.torsion import torsion_check

series = GradedEngine.series

def faulty(self, N):
    s = series(self, N)
    if self.field.p is None:
        s.coeffs[3][0][1] += 1
    return s

GradedEngine.series = faulty
q = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
try:
    torsion_check(q, 5)
except AssertionError as e:
    print(sys.flags.optimize, e)
"""


def test_cross_check_survives_python_O():
    src = Path(preproj.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-O", "-c", FAULT_SCRIPT],
                         capture_output=True, text=True, timeout=120,
                         env={"PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == (
        "1 rational dimension mismatch at degree 3 block (0,1)")


def test_refused_from_the_closed_form_before_any_degree(monkeypatch):
    # the two-loop double: C . cf_2 = 4 * 15 = 60 candidates in degree 3,
    # refused before the integer degree step starts
    q = Quiver(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")])
    started = []
    monkeypatch.setattr(preproj.torsion, "_integer_degrees",
                        lambda *args: started.append(args) or iter(()))
    monkeypatch.setattr(preproj.algebra, "CANDIDATE_BOUND", 59)
    with pytest.raises(CandidateBoundError) as exc:
        torsion_check(q, 4)
    assert (exc.value.degree, exc.value.candidates) == (3, 60)
    assert started == []
