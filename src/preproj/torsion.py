"""Degreewise integer structure of a quadratic algebra with integral relations.

Over Z the relation ideal is I_d = V.I_{d-1} + R.V^{d-2}, and R.I_{d-2}
lies in V.I_{d-1}, so A_d(Z) = (V (x) A_{d-1}(Z)) / R.A_{d-2}(Z). One
integer degree step on the quotient basis computes it: each degree is
carried as A_d(Z) = Z^{B_d} / L_d. The degree-d rows are rel o u for u in
B_{d-2}, expanded through the degree d-1 rewrite table, plus g.l for l in
L_{d-1}; they are inserted into an integer echelon by unimodular row
operations, then field.back_substitute, which also makes the engine's
rewrite tables, clears the unit pivots. A pivot with leading coefficient 1
eliminates its candidate over Z and becomes an integral rewrite rule
(Bergman's diamond lemma needs exactly unit leading coefficients); pivots
with a larger leading coefficient stay as the rows of L_d. B_d is the set
of candidates that are not unit pivots, so nothing here grows with the
full path basis.

For every degree and vertex block that some placement path o relation o
path lands in, the report gives the Smith chain of the placement matrix in
the path basis, derived from A_d(Z) = Z^f + torsion: ones, the torsion
divisors, then zeros up to min(#placements, #paths). An elementary divisor
outside {0, 1} is torsion, i.e. a graded piece whose dimension jumps when
the coefficients are reduced mod p.

Every run cross-checks the chains against graded dimensions computed
independently: over the rationals by hilbert_series (the closed form,
certified by the engine mod WORD_PRIME, or else the engine over Q), and by
the engine over GF(p), for p = 2, 3 and every prime that divides an
elementary divisor.
"""

from dataclasses import dataclass

from .algebra import (
    GradedEngine,
    Presentation,
    check_candidates,
    closed_form_floor,
    generator_matrix,
    hilbert_series,
    place_relation,
    preprojective_presentation,
)
from .field import (
    ExactMatrix,
    FieldSpec,
    QQ,
    back_substitute,
    smith_normal_form,
)
from .quiver import Quiver
from .series import closed_form

__all__ = [
    "BlockReport",
    "SmithReport",
    "TorsionError",
    "torsion_check",
]


class TorsionError(ValueError):
    pass


def _xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g > 0 for (a, b) != 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _comb(c1: int, r1: dict, c2: int, r2: dict) -> dict:
    out: dict = {}
    QQ.row_axpy(out, c1, r1)
    QQ.row_axpy(out, c2, r2)
    return out


def _lattice_insert(pivots: dict, row: dict) -> None:
    """Insert an integer row into an echelonized basis of the row lattice.

    pivots maps a leading column to a row whose entries below that column
    are zero and whose leading entry is positive. All updates are unimodular
    on pairs of rows, so the set of stored rows always generates the same
    lattice as everything inserted so far.
    """
    while row:
        c = min(row)
        v = row[c]
        piv = pivots.get(c)
        if piv is None:
            if v < 0:
                row = {k: -x for k, x in row.items()}
            pivots[c] = row
            return
        a = piv[c]
        if v % a == 0:
            row = _comb(1, row, -(v // a), piv)
            continue
        g, x, y = _xgcd(a, v)
        # det [[x, y], [-v/g, a/g]] = (x*a + y*v)/g = 1
        pivots[c] = _comb(x, piv, y, row)
        row = _comb(a // g, row, -(v // g), piv)


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class BlockReport:
    """Divisor data of one (degree, block) placement matrix: the full chain
    (zeros trailing) and its rank over the rationals."""

    degree: int
    row: int
    col: int
    divisors: tuple
    rank_q: int


@dataclass(frozen=True)
class SmithReport:
    truncation: int
    entries: tuple
    torsion_found: bool
    witnesses: tuple  # (degree, row, col, divisor outside {0, 1})
    partial_blocks: tuple  # always empty
    primes: tuple

    def divisors_outside_units(self) -> tuple:
        return tuple(w[3] for w in self.witnesses)


def _integral_presentation(q) -> Presentation:
    """The presentation over Q whose relations have integer coefficients:
    a Quiver's preprojective presentation (gammas absent or +-1), or an
    integral Presentation as given."""
    if isinstance(q, Quiver):
        for key, val in sorted(q.gamma.items()):
            if val != 1 and val != -1:
                raise TorsionError(
                    "gamma %s = %s is not a unit integer; no integer form"
                    % (key, val))
        return preprojective_presentation(q, QQ)
    if q.field.p is not None:
        raise TorsionError("presentation over %s has no integer form"
                           % q.field.name)
    for rel in q.relations:
        for c, _, _ in rel.terms:
            if c.denominator != 1:
                raise TorsionError(
                    "non-integer relation coefficient %s" % (c,))
    return q


def _integer_degrees(pres: Presentation, N: int):
    """Yield (d, basis, lattice) for d = 2..N with A_d(Z) = Z^basis /
    span(lattice): basis is B_d, lattice the non-unit pivot rows L_d, each
    reduced so that it holds no unit pivot key."""
    gens = pres.generators
    by_tail: dict = {}
    for k, g in enumerate(gens):
        by_tail.setdefault(g.tail, []).append(k)
    rels = [(rel.start, tuple((int(c), b, a) for c, b, a in rel.terms))
            for rel in pres.relations]
    acc = QQ.acc
    older = None                 # B_{d-2} grouped by end vertex
    basis = [(k,) for k in range(len(gens))]
    rewrite: dict = {}
    lattice: list = []
    for d in range(2, N + 1):
        check_candidates(d, sum(len(by_tail.get(gens[w[0]].head, ()))
                                for w in basis))
        pivots: dict = {}
        for start, terms in rels:
            for u in ((),) if older is None else older.get(start, ()):
                row = place_relation(terms, u, rewrite, acc)
                if row:
                    _lattice_insert(pivots, row)
        for ell in lattice:
            for g in by_tail.get(gens[next(iter(ell))[0]].head, ()):
                _lattice_insert(pivots, {(g,) + w: c for w, c in ell.items()})
        units, lattice = back_substitute(pivots, QQ)
        older = {}
        for w in basis:
            older.setdefault(gens[w[0]].head, []).append(w)
        basis = [(g,) + w for w in basis
                 for g in by_tail.get(gens[w[0]].head, ())
                 if (g,) + w not in units]
        rewrite = {k: {m: -c for m, c in row.items() if m != k}
                   for k, row in units.items()}
        yield d, basis, lattice


def _block_torsion(rows: list) -> list:
    """Smith divisors >= 2 of independent integer rows over path keys."""
    keys = sorted({m for row in rows for m in row})
    col = {m: k for k, m in enumerate(keys)}
    mat = ExactMatrix(len(rows), len(keys))
    for r, row in enumerate(rows):
        for m, v in row.items():
            mat.entries[(r, col[m])] = v
    divs = smith_normal_form(mat)
    if not all(divs):
        raise AssertionError("lattice rows must be independent")
    return [dv for dv in divs if dv > 1]


def torsion_check(q, N: int) -> SmithReport:
    """Smith chain of every placement matrix up to degree N.

    q is a Quiver, whose gammas must be absent or +-1, or a Presentation
    over Q with integer relation coefficients; anything else has no integer
    form and raises TorsionError. The chains come from one integer degree
    step on the quotient basis (module docstring); no path basis is built.

    Every run checks the free ranks and the divisor counts against graded
    dimensions computed independently over the rationals and over GF(p),
    raising AssertionError explicitly on any mismatch. A degree with more
    candidates than algebra.CANDIDATE_BOUND raises CandidateBoundError
    before it is built, and before any degree is built when the closed
    form already shows it (algebra.closed_form_floor).
    """
    pres = _integral_presentation(q)
    closed_form_floor(pres, N)
    gens = pres.generators
    n = len(pres.vertices)
    # paths[d][i][j] = (C^d)[i][j], from the series 1/(1 - Ct) of the path
    # algebra
    paths = closed_form(generator_matrix(pres),
                        [[0] * n for _ in range(n)], N)

    entries = []
    witnesses = []
    div_primes: set = set()
    for d, basis, lattice in _integer_degrees(pres, N):
        free: dict = {}
        block_rows: dict = {}
        for m in basis:
            blk = (gens[m[0]].head, gens[m[-1]].tail)
            free[blk] = free.get(blk, 0) + 1
        for row in lattice:
            m = next(iter(row))
            blk = (gens[m[0]].head, gens[m[-1]].tail)
            free[blk] -= 1
            block_rows.setdefault(blk, []).append(row)
        for i in range(n):
            for j in range(n):
                nrows = sum(paths[l][i][r.end] * paths[d - 2 - l][r.start][j]
                            for r in pres.relations for l in range(d - 1))
                if nrows == 0:
                    continue
                rank_q = paths[d][i][j] - free.get((i, j), 0)
                tors = (_block_torsion(block_rows[(i, j)])
                        if (i, j) in block_rows else [])
                divs = ([1] * (rank_q - len(tors)) + tors
                        + [0] * (min(nrows, paths[d][i][j]) - rank_q))
                entries.append(BlockReport(d, i, j, tuple(divs), rank_q))
                for dv in tors:
                    witnesses.append((d, i, j, dv))
                    div_primes.update(_prime_factors(dv))

    check_primes = tuple(sorted({2, 3} | div_primes))
    _cross_check(pres, N, paths, entries, check_primes)
    return SmithReport(N, tuple(entries), bool(witnesses), tuple(witnesses),
                       (), check_primes)


def _cross_check(pres, N, paths, entries, check_primes):
    """Check #paths - rank == graded dimension, over the rationals and over
    GF(p) for every checked prime, on every degree and block. The rational
    dims come from hilbert_series, so where the series mod WORD_PRIME
    equals the closed form no engine runs over Q. The GF(p)
    presentations reduce the integer relations mod p, and the rank mod p
    of a chain is the number of its divisors that p does not divide."""
    series_by = {None: hilbert_series(pres, N)}
    for p in check_primes:
        pres_p = Presentation(pres.vertices, pres.generators,
                              [rel.terms for rel in pres.relations],
                              FieldSpec(p))
        series_by[p] = GradedEngine(pres_p).series(N)
    divs_at = {(e.degree, e.row, e.col): e.divisors for e in entries}
    n = len(pres.vertices)
    for d in range(N + 1):
        for i in range(n):
            for j in range(n):
                divs = divs_at.get((d, i, j), ())
                for p in (None,) + check_primes:
                    if p is None:
                        rank = sum(1 for dv in divs if dv)
                    else:
                        rank = sum(1 for dv in divs if dv % p)
                    if series_by[p][d][i][j] != paths[d][i][j] - rank:
                        raise AssertionError(
                            "%s dimension mismatch at degree %d block (%d,%d)"
                            % ("rational" if p is None else "GF(%d)" % p,
                               d, i, j))
